// Shared bench harness, a thin layer over the sweep engine (app/sweep.hpp):
// benches declare a base config and a variant list, and the engine runs the
// (variant x seed) grid on a thread pool, aggregates across seeds, and
// emits versioned JSON/CSV through app/result_io.hpp.
//
// Every bench accepts the shared flags
//     ./bench_xxx [duration_ms] [--duration-ms=D] [--jobs=N] [--seeds=K]
//                 [--qdisc=NAME] [--recovery=MODE] [--out=path]
//                 [--schedule-jitter=US] [--day-skew=S]
// --jobs=0 (the default) uses one worker per hardware thread; results are
// bit-identical at any job count. --seeds=K averages K deterministic seeds
// per configuration and reports mean +/- 95% CI; only the benches that
// parse with SeedUse::kEverySeed run K seeds, and every other bench exits 2
// on --seeds=K > 1. --qdisc selects the VOQ
// queue discipline (droptail | codel | delaymark | sharedpool; empty keeps
// the config's default) and --recovery the tail-recovery mode (off | rack |
// agent). Every config a bench builds passes through ApplyBenchFlags, so
// each bench applies every shared flag; one that cannot honour a flag
// rejects it (exit 2) instead of ignoring it. Longer durations average more
// optical weeks per seed (the paper averages thousands). --out=path writes
// path.json (schema tdtcp-sweep/1) and path.csv next to the figure CSVs; a
// bench that reports named counters instead (incast, shortflows, stability,
// scaleout, fairness) writes a tdtcp-bench/1 path.json.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/experiment.hpp"
#include "app/result_io.hpp"
#include "app/sweep.hpp"
#include "trace/samplers.hpp"

namespace tdtcp::bench {

struct BenchArgs {
  int duration_ms = 0;
  int jobs = 0;       // 0 = hardware concurrency
  int seeds = 1;      // seeds 1..K per configuration point
  std::string qdisc;  // VOQ discipline name ("" = config default)
  std::string recovery;  // recovery mode name ("" = config default)
  std::string out;    // base path for sweep JSON/CSV ("" = don't write)
  // Adversarial-schedule axes, applied to every run (0 = nominal schedule):
  // --schedule-jitter=J adds a uniform +/- J µs draw to every day/night
  // boundary; --day-skew=S stretches even days by (1+S) and shrinks odd days
  // by (1-S), S in [0, 1).
  double schedule_jitter_us = 0.0;
  double day_skew = 0.0;

  std::vector<std::uint64_t> SeedList() const {
    std::vector<std::uint64_t> s;
    for (int i = 1; i <= seeds; ++i) s.push_back(static_cast<std::uint64_t>(i));
    return s;
  }
};

// Steady-clock nanoseconds one call takes: a sim-scale bench times each
// cell inside its ParallelFor body and records it as the cell's
// BenchRun::real_time_ns.
template <typename Fn>
double WallNs(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double, std::nano>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Whether a bench runs each configuration once per seed of --seeds (through
// RunVariants or its own seed loop) or on one seed only.
enum class SeedUse { kOneSeed, kEverySeed };

inline BenchArgs ParseBenchArgs(int argc, char** argv, int default_ms,
                                SeedUse seed_use = SeedUse::kOneSeed) {
  BenchArgs args;
  args.duration_ms = default_ms;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--duration-ms=", 14) == 0) {
      args.duration_ms = std::atoi(a + 14);
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      args.jobs = std::atoi(a + 7);
    } else if (std::strncmp(a, "--seeds=", 8) == 0) {
      args.seeds = std::max(1, std::atoi(a + 8));
    } else if (std::strncmp(a, "--qdisc=", 8) == 0) {
      args.qdisc = a + 8;
      try {
        (void)QdiscKindFromName(args.qdisc);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "%s: unknown --qdisc '%s' (expected droptail | codel | "
                     "delaymark | sharedpool)\n",
                     argv[0], args.qdisc.c_str());
        std::exit(2);
      }
    } else if (std::strncmp(a, "--recovery=", 11) == 0) {
      args.recovery = a + 11;
      try {
        (void)RecoveryModeFromName(args.recovery);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "%s: unknown --recovery '%s' (expected off | rack | "
                     "agent)\n",
                     argv[0], args.recovery.c_str());
        std::exit(2);
      }
    } else if (std::strncmp(a, "--out=", 6) == 0) {
      args.out = a + 6;
    } else if (std::strncmp(a, "--schedule-jitter=", 18) == 0) {
      args.schedule_jitter_us = std::atof(a + 18);
      if (args.schedule_jitter_us < 0.0) {
        std::fprintf(stderr, "%s: --schedule-jitter must be >= 0 µs\n",
                     argv[0]);
        std::exit(2);
      }
    } else if (std::strncmp(a, "--day-skew=", 11) == 0) {
      args.day_skew = std::atof(a + 11);
      if (args.day_skew < 0.0 || args.day_skew >= 1.0) {
        std::fprintf(stderr, "%s: --day-skew must be in [0, 1)\n", argv[0]);
        std::exit(2);
      }
    } else if (a[0] != '-' && std::atoi(a) > 0) {
      args.duration_ms = std::atoi(a);  // legacy positional [duration_ms]
    } else {
      std::fprintf(stderr,
                   "usage: %s [duration_ms] [--duration-ms=D] [--jobs=N] "
                   "[--seeds=K] [--qdisc=NAME] [--recovery=MODE] [--out=path] "
                   "[--schedule-jitter=US] [--day-skew=S]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (args.duration_ms <= 0) args.duration_ms = default_ms;
  if (seed_use == SeedUse::kOneSeed && args.seeds > 1) {
    std::fprintf(stderr,
                 "%s: --seeds=%d: this bench runs one seed per "
                 "configuration\n",
                 argv[0], args.seeds);
    std::exit(2);
  }
  return args;
}

// Applies the shared config flags (each only when given): --qdisc swaps the
// VOQ discipline, --recovery the tail-recovery mode, and --schedule-jitter /
// --day-skew run the fabric under a perturbed schedule. RunVariants and
// every bench that builds its own configs pass each one through here.
inline void ApplyBenchFlags(ExperimentConfig& cfg, const BenchArgs& args) {
  if (!args.qdisc.empty()) cfg.WithQdisc(QdiscKindFromName(args.qdisc));
  if (!args.recovery.empty()) {
    cfg.WithRecovery(RecoveryModeFromName(args.recovery));
  }
  if (args.schedule_jitter_us == 0.0 && args.day_skew == 0.0) return;
  PerturbationConfig p = cfg.perturb;  // keep any bench-specific changes
  p.day_skew = args.day_skew;
  p.jitter = SimTime::Picos(
      static_cast<std::int64_t>(args.schedule_jitter_us * 1e6));
  cfg.WithSchedulePerturbation(std::move(p));
}

struct VariantRun {
  Variant variant;
  ExperimentResult result;  // first seed's run (curves and series)
  std::vector<std::pair<std::string, MetricStats>> stats;  // across seeds

  const MetricStats* stat(const std::string& name) const {
    for (const auto& [n, s] : stats) {
      if (n == name) return &s;
    }
    return nullptr;
  }
};

// Writes the full sweep (per-seed metrics + aggregates) to
// <out><suffix>.json/.csv when --out is given.
inline void MaybeWriteSweep(const BenchArgs& args, const SweepResult& sweep,
                            const std::string& suffix = "") {
  if (args.out.empty()) return;
  const std::string stem = args.out + suffix;
  // Every sweep took time to run: a zero means the bench never measured it.
  if (!(sweep.wall_seconds > 0)) {
    std::fprintf(stderr, "  --out: %s sweep carries no wall time\n",
                 stem.c_str());
    std::exit(1);
  }
  try {
    WriteSweepJson(stem + ".json", sweep);
    WriteSweepCsv(stem + ".csv", sweep);
  } catch (const std::exception& e) {
    // The results are already printed; a bad --out path shouldn't abort.
    std::fprintf(stderr, "  --out failed: %s\n", e.what());
    return;
  }
  std::fprintf(stderr, "  wrote %s.json, %s.csv (schema %s)\n", stem.c_str(),
               stem.c_str(), kSweepSchemaVersion);
}

// Turns RunCases output (results in case order) into a SweepResult: each run
// of `seeds_per_cell` consecutive cases is one cell (GroupCells).
// `wall_seconds` is the measured wall time of the run that made `results`.
inline SweepResult CaseSweep(const std::vector<SweepCase>& cases,
                             std::vector<ExperimentResult> results, int jobs,
                             double wall_seconds,
                             std::size_t seeds_per_cell = 1) {
  SweepResult sweep;
  sweep.cells = GroupCells(cases, std::move(results), seeds_per_cell);
  sweep.jobs = ResolveJobs(jobs);
  sweep.wall_seconds = wall_seconds;
  return sweep;
}

// Writes a tdtcp-bench/1 report to <out>.json when --out is given.
inline void MaybeWriteBenchReport(const BenchArgs& args,
                                  const BenchReport& report) {
  if (args.out.empty()) return;
  try {
    WriteBenchJson(args.out + ".json", report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "  --out failed: %s\n", e.what());
    return;
  }
  std::fprintf(stderr, "  wrote %s.json (schema %s)\n", args.out.c_str(),
               kBenchSchemaVersion);
}

// Runs each variant under `base` on the sweep engine's thread pool,
// averaging args.seeds seeds per variant. Duration/warmup come from `base`
// (set them via WithDurationMs(args.duration_ms) or explicitly).
inline std::vector<VariantRun> RunVariants(const std::vector<Variant>& variants,
                                           const ExperimentConfig& base,
                                           const BenchArgs& args) {
  SweepSpec spec;
  spec.base = base;
  ApplyBenchFlags(spec.base, args);
  spec.variants = variants;
  spec.seeds = args.SeedList();
  spec.jobs = args.jobs;

  std::fprintf(stderr, "  sweep: %zu variants x %d seed%s, jobs=%d...\n",
               variants.size(), args.seeds, args.seeds == 1 ? "" : "s",
               ResolveJobs(args.jobs));
  SweepResult sweep = RunSweep(spec);
  std::fprintf(stderr, "  done in %.2fs wall\n", sweep.wall_seconds);
  MaybeWriteSweep(args, sweep);

  std::vector<VariantRun> out;
  for (SweepCell& cell : sweep.cells) {
    out.push_back(VariantRun{cell.variant, std::move(cell.runs.front().result),
                             std::move(cell.metrics)});
  }
  return out;
}

// Prints a paper-style sequence-number table: one row per `row_step_us`,
// one column per curve, values in bytes since the window start.
inline void PrintSeqTable(const std::vector<NamedSeries>& series,
                          double row_step_us, const char* unit = "bytes") {
  std::printf("\n%-10s", "time_us");
  for (const auto& s : series) std::printf(" %14s", s.name.c_str());
  std::printf("   (%s)\n", unit);
  if (series.empty() || series.front().points.empty()) return;
  double next_row = 0;
  for (std::size_t i = 0; i < series.front().points.size(); ++i) {
    const double t = series.front().points[i].offset_us;
    if (t + 1e-9 < next_row) continue;
    next_row = t + row_step_us;
    std::printf("%-10.0f", t);
    for (const auto& s : series) {
      if (i < s.points.size()) {
        std::printf(" %14.0f", s.points[i].mean);
      } else {
        std::printf(" %14s", "");
      }
    }
    std::printf("\n");
  }
}

// Interpolated lookup of a folded curve at `offset_us`.
inline double CurveAt(const std::vector<FoldedPoint>& curve, double offset_us) {
  if (curve.empty()) return 0;
  for (std::size_t i = 1; i < curve.size(); ++i) {
    if (curve[i].offset_us >= offset_us) return curve[i].mean;
  }
  return curve.back().mean;
}

inline void PrintGoodputSummary(const std::vector<VariantRun>& runs,
                                double optimal_bps, double packet_only_bps) {
  const bool ci = !runs.empty() && runs.front().stat("goodput_bps") &&
                  runs.front().stat("goodput_bps")->n > 1;
  std::printf("\n%-10s %10s %8s %8s%s\n", "variant", "goodput", "of-opt",
              "vs-pkt", ci ? "    ci95" : "");
  std::printf("%-10s %7.2f Gb %7.1f%% %7.2fx\n", "optimal", optimal_bps / 1e9,
              100.0, optimal_bps / packet_only_bps);
  for (const auto& r : runs) {
    const MetricStats* g = r.stat("goodput_bps");
    const double bps = g ? g->mean : r.result.goodput_bps;
    std::printf("%-10s %7.2f Gb %7.1f%% %7.2fx", VariantName(r.variant),
                bps / 1e9, 100.0 * bps / optimal_bps, bps / packet_only_bps);
    if (ci && g) std::printf("  +-%.2f Gb", g->ci95 / 1e9);
    std::printf("\n");
  }
  std::printf("%-10s %7.2f Gb %7.1f%% %7.2fx\n", "pkt-only",
              packet_only_bps / 1e9, 100.0 * packet_only_bps / optimal_bps,
              1.0);
}

// Assembles the standard figure bundle: per-variant seq curves plus the
// analytic optimal/packet-only lines from the first run.
inline std::vector<NamedSeries> SeqSeries(const std::vector<VariantRun>& runs) {
  std::vector<NamedSeries> series;
  if (!runs.empty()) {
    series.push_back(NamedSeries{"optimal", runs.front().result.optimal_curve});
  }
  for (const auto& r : runs) {
    series.push_back(NamedSeries{VariantName(r.variant), r.result.seq_curve});
  }
  if (!runs.empty()) {
    series.push_back(
        NamedSeries{"packet_only", runs.front().result.packet_only_curve});
  }
  return series;
}

inline std::vector<NamedSeries> VoqSeries(const std::vector<VariantRun>& runs) {
  std::vector<NamedSeries> series;
  for (const auto& r : runs) {
    series.push_back(NamedSeries{VariantName(r.variant), r.result.voq_curve});
  }
  return series;
}

inline double AnalyticOptimalBps(const ExperimentConfig& cfg) {
  const Schedule schedule(cfg.schedule);
  return schedule.OptimalBits(schedule.week_length(),
                              cfg.topology.packet_mode.rate_bps,
                              cfg.topology.circuit_mode.rate_bps) /
         schedule.week_length().seconds();
}

}  // namespace tdtcp::bench
