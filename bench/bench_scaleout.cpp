// Production-scale workload engine bench: an N-rack rotor fabric under
// heavy-tailed flow-size-CDF churn, sustaining ~1M connection lifecycles per
// run.
//
// Each cell drives every host in an 8-rack (default) RotorNet-style fabric
// as an independent Poisson source, with transfer sizes drawn from a
// built-in flow-size distribution (websearch = DCTCP §2.2, datamining =
// VL2) and destinations picked by a rack-selection policy (uniform
// all-to-all or skewed hotspot). Sizes are scaled down from the published
// distributions (and capped at 2 MB) so a million lifecycles stay
// wall-time-feasible while keeping the shape heavy-tailed across all four
// FCT size buckets; the scale factors are part of the cell definition and
// the tracked baseline.
//
// Reported per cell: lifecycle accounting (every opened connection must
// reach a definite CloseReason — the bench exits nonzero otherwise) and
// per-size-bucket nearest-rank FCT percentiles, plus the 53-bit churn/trace
// determinism fingerprints. --check-bit-identity reruns the cells at jobs=1
// and compares both hashes against the parallel run: the jobs=1 == jobs=N
// contract, enforced with a nonzero exit.
//
// Flags beyond the shared bench set:
//   --lifecycles=N        connection lifecycles per cell (default 1000000)
//   --racks=N             fabric size, even >= 2 (default 8)
//   --policy=NAME         keep only cells with this rack policy
//   --check-bit-identity  rerun serially and compare churn/trace hashes
//
// With --out the table is written as tdtcp-bench/1 JSON (the tracked
// BENCH_scaleout.json baseline, gated with tools/bench_compare.py) and the
// full per-cell results as tdtcp-sweep/1 JSON/CSV (<out>_sweep.json/.csv),
// which carry the churn_fct_<bucket>_* metric family.
#include "bench_util.hpp"

#include "app/flow_cdf.hpp"
#include "sim/hash.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

struct ScaleoutArgs {
  std::uint32_t lifecycles = 1'000'000;
  std::uint32_t racks = 8;
  std::string policy;             // "" = all cells
  bool check_bit_identity = false;
};

// Strips the scaleout-specific flags out of argv (in place) so the shared
// ParseBenchArgs only sees the flags it knows.
ScaleoutArgs ParseScaleoutArgs(int& argc, char** argv) {
  ScaleoutArgs out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strncmp(a, "--lifecycles=", 13) == 0) {
      out.lifecycles = static_cast<std::uint32_t>(
          std::max(1L, std::atol(a + 13)));
    } else if (std::strncmp(a, "--racks=", 8) == 0) {
      out.racks = static_cast<std::uint32_t>(std::max(2, std::atoi(a + 8)));
    } else if (std::strncmp(a, "--policy=", 9) == 0) {
      out.policy = a + 9;
      try {
        (void)RackPolicyFromName(out.policy);
      } catch (const std::invalid_argument&) {
        std::fprintf(stderr,
                     "%s: unknown --policy '%s' (expected uniform | "
                     "permutation | hotspot)\n",
                     argv[0], out.policy.c_str());
        std::exit(2);
      }
    } else if (std::strcmp(a, "--check-bit-identity") == 0) {
      out.check_bit_identity = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  return out;
}

struct Cell {
  std::string name;
  std::string cdf;       // built-in distribution name
  double scale;          // size_scale applied to every draw
  RackPolicy policy;
};

std::vector<Cell> Cells() {
  // Scale factors keep ~1M lifecycles wall-time-feasible while spanning all
  // four size buckets: websearch/24 tops out just above the 1 MB xl edge;
  // datamining/16's super-heavy tail is clamped by the 2 MB cap (so capped
  // samples land in xl).
  return {
      Cell{"websearch/uniform", "websearch", 1.0 / 24, RackPolicy::kUniform},
      Cell{"datamining/uniform", "datamining", 1.0 / 16, RackPolicy::kUniform},
      Cell{"websearch/hotspot", "websearch", 1.0 / 24, RackPolicy::kHotspot},
  };
}

ExperimentConfig CellConfig(const Cell& cell, const ScaleoutArgs& sargs,
                            const BenchArgs& args) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithRotorFabric(sargs.racks)
                             .WithDurationMs(args.duration_ms)
                             .WithSampling(false, false)
                             .WithSampleInterval(SimTime::Millis(1))
                             .WithRackPolicy(cell.policy)
                             .WithFlowSizeCdf(BuiltinFlowSizeCdf(cell.cdf),
                                              cell.scale)
                             .WithTrace();
  // Churn-only: the lifecycle population is the entire workload.
  cfg.workload.num_flows = 0;
  cfg.churn.enabled = true;
  cfg.churn.target_connections = sargs.lifecycles;
  // Per-source mean gap: every host in the fabric is a source, so the
  // aggregate arrival rate scales with racks * hosts_per_rack.
  cfg.churn.mean_interarrival = SimTime::Micros(100);
  cfg.churn.max_concurrent = 2048;
  cfg.churn.size_cap_bytes = 2'000'000;
  cfg.churn.hotspot_rack = 0;
  cfg.churn.hotspot_fraction = 0.5;
  ApplyBenchFlags(cfg, args);
  return cfg;
}

BenchRun ToRun(const Cell& cell, const ExperimentResult& r) {
  BenchRun run;
  run.name = cell.name;
  run.iterations = 1;
  auto& c = run.counters;
  c["opened"] = static_cast<double>(r.churn.opened);
  c["closed"] = static_cast<double>(r.churn.closed);
  c["abnormal"] = static_cast<double>(r.churn.abnormal());
  c["deferred"] = static_cast<double>(r.churn.deferred);
  c["app_timeouts"] = static_cast<double>(r.churn.app_timeouts);
  c["all_closed"] = r.churn_all_closed ? 1.0 : 0.0;
  c["sim_events"] = static_cast<double>(r.sim_events);
  for (std::size_t b = 0; b < kNumFctBuckets; ++b) {
    const std::string prefix = std::string("fct_") + kFctBucketNames[b];
    const auto& bucket = r.churn_fct_bucket[b];
    c[prefix + "_count"] = static_cast<double>(bucket.count);
    c[prefix + "_p50_us"] = bucket.p50_us;
    c[prefix + "_p99_us"] = bucket.p99_us;
    c[prefix + "_p999_us"] = bucket.p999_us;
  }
  // 53-bit determinism fingerprints (JSON-double safe).
  c["churn_hash"] = static_cast<double>(Fingerprint53(r.churn_hash));
  c["trace_hash"] = static_cast<double>(Fingerprint53(r.trace_hash));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  ScaleoutArgs sargs = ParseScaleoutArgs(argc, argv);
  const BenchArgs args = ParseBenchArgs(argc, argv, 10);

  std::vector<Cell> cells = Cells();
  if (!sargs.policy.empty()) {
    std::erase_if(cells, [&](const Cell& c) {
      return RackPolicyName(c.policy) != sargs.policy;
    });
  }

  std::printf("Scale-out workload engine: %u-rack rotor fabric, %u connection "
              "lifecycles per cell,\nper-source Poisson arrivals, CDF flow "
              "sizes, per-size-bucket FCT tails:\n\n",
              sargs.racks, sargs.lifecycles);

  std::vector<SweepCase> cases;
  for (const Cell& cell : cells) {
    cases.push_back({cell.name, CellConfig(cell, sargs, args)});
  }
  // One private Simulator per cell on the pool; results are bit-identical
  // at any job count.
  std::vector<ExperimentResult> results(cells.size());
  std::vector<double> wall_ns(cells.size());
  const double sweep_ns = WallNs([&] {
    ParallelFor(args.jobs, cells.size(), [&](std::size_t i) {
      wall_ns[i] =
          WallNs([&] { results[i] = RunExperiment(cases[i].config); });
      // The table and the sweep read only the bucket tails: free the
      // per-completion samples (8 MB a 1M-lifecycle cell) before the next
      // cell runs.
      results[i].churn_fct_us = std::vector<double>();
    });
  });

  bool ok = true;
  std::printf("%-20s %9s %8s %8s | %-9s %-9s %-9s %-9s\n", "cell", "closed",
              "abnorml", "defer", "s p99_us", "m p99_us", "l p99_us",
              "xl p99_us");
  BenchReport report;
  report.context = "bench_scaleout";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const ExperimentResult& r = results[i];
    BenchRun run = ToRun(cells[i], r);
    run.real_time_ns = wall_ns[i];
    std::printf("%-20s %9.0f %8.0f %8.0f | %-9.0f %-9.0f %-9.0f %-9.0f\n",
                cells[i].name.c_str(), run.counters.at("closed"),
                run.counters.at("abnormal"), run.counters.at("deferred"),
                run.counters.at("fct_s_p99_us"),
                run.counters.at("fct_m_p99_us"),
                run.counters.at("fct_l_p99_us"),
                run.counters.at("fct_xl_p99_us"));
    report.runs.push_back(run);
    // The lifecycle contract: every opened connection reaches kClosed with a
    // definite CloseReason, and the generator hit its target.
    if (!r.churn_all_closed || r.churn.opened != sargs.lifecycles ||
        r.churn.closed != r.churn.opened) {
      std::fprintf(stderr,
                   "FAIL %s: lifecycle leak (opened=%llu closed=%llu "
                   "all_closed=%d, target=%u)\n",
                   cells[i].name.c_str(),
                   static_cast<unsigned long long>(r.churn.opened),
                   static_cast<unsigned long long>(r.churn.closed),
                   r.churn_all_closed ? 1 : 0, sargs.lifecycles);
      ok = false;
    }
  }

  if (sargs.check_bit_identity) {
    std::fprintf(stderr, "  bit-identity check: rerunning %zu cells at "
                 "jobs=1...\n", cells.size());
    const std::vector<ExperimentResult> serial = RunCases(cases, /*jobs=*/1);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (serial[i].churn_hash != results[i].churn_hash ||
          serial[i].trace_hash != results[i].trace_hash) {
        std::fprintf(stderr,
                     "FAIL %s: jobs=1 != jobs=N (churn %016llx/%016llx, "
                     "trace %016llx/%016llx)\n",
                     cells[i].name.c_str(),
                     static_cast<unsigned long long>(serial[i].churn_hash),
                     static_cast<unsigned long long>(results[i].churn_hash),
                     static_cast<unsigned long long>(serial[i].trace_hash),
                     static_cast<unsigned long long>(results[i].trace_hash));
        ok = false;
      }
    }
    if (ok) std::fprintf(stderr, "  bit-identity: OK\n");
  }

  MaybeWriteBenchReport(args, report);
  // Also emit the per-cell results through the sweep schema: the
  // churn_fct_<bucket>_* metric family rides the tdtcp-sweep/1 JSON/CSV.
  MaybeWriteSweep(
      args, CaseSweep(cases, std::move(results), args.jobs, sweep_ns / 1e9),
      "_sweep");
  return ok ? 0 : 1;
}
