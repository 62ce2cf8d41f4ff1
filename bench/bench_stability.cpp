// Adversarial-schedule stability phase diagrams: sweeps rotation period x
// offered load (x RTO/RTT-ratio stressors) and lets the convergence oracle
// (trace/convergence.hpp) classify every cell as converged / oscillating /
// starved — the phase diagram is machine-checked, not eyeballed.
//
// Each cell runs the paper's two-rack fabric with a scaled schedule (the
// 9:1 day:night ratio and the one-circuit-day-in-seven week shape are kept,
// only the rotation period changes) under long-lived flows, with tracing on
// so RunExperiment's stability_* fields carry the oracle verdicts. The
// designed-to-oscillate cells reproduce the historical RTO-backoff
// phase-locking failure: schedule-oblivious cubic with SACK RTT sampling
// disabled and a minimum RTO in the same decade as the rotation week, so
// every backed-off retransmission lands in the same congested segment of
// the schedule (see DESIGN.md §13).
//
// Flags beyond the shared bench set:
//   --require-phases   exit nonzero unless the diagram shows at least one
//                      oracle-certified oscillating AND one converged cell
//                      (the stability_smoke tier-1 gate)
//
// With --out the per-cell verdict counters are written as tdtcp-bench/1
// JSON (the tracked BENCH_stability.json baseline, gated with
// tools/bench_compare.py) and the full results as tdtcp-sweep/1 JSON/CSV
// (<out>_sweep.json/.csv) carrying the stability_* metric family.
#include "bench_util.hpp"

#include "sim/hash.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

struct StabilityArgs {
  bool require_phases = false;
};

StabilityArgs ParseStabilityArgs(int& argc, char** argv) {
  StabilityArgs out;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-phases") == 0) {
      out.require_phases = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  return out;
}

struct Cell {
  std::string name;
  Variant variant;
  int day_us;          // rotation period axis (night = day/9, week = 7 days)
  std::uint32_t flows; // load axis
  bool sack_rtt;       // off = RTO starves during recovery (stressor)
  bool loose_rto;      // min RTO ~ rotation week (RTO/RTT-ratio stressor)
};

std::vector<Cell> Cells() {
  // Rotation axis {45, 180, 540} µs days x load axis {2, 8} flows, plus the
  // RTO-stressor rows that reproduce the phase-locking limit cycle.
  return {
      Cell{"tdtcp/180us/hi", Variant::kTdtcp, 180, 8, true, false},
      Cell{"tdtcp/180us/lo", Variant::kTdtcp, 180, 2, true, false},
      Cell{"tdtcp/45us/hi", Variant::kTdtcp, 45, 8, true, false},
      Cell{"tdtcp/540us/hi", Variant::kTdtcp, 540, 8, true, false},
      Cell{"cubic/180us/hi", Variant::kCubic, 180, 8, true, false},
      Cell{"cubic/45us/hi", Variant::kCubic, 45, 8, true, false},
      Cell{"cubic/45us/hi/rto-lock", Variant::kCubic, 45, 8, false, true},
      Cell{"cubic/180us/hi/rto-lock", Variant::kCubic, 180, 8, false, true},
  };
}

ExperimentConfig CellConfig(const Cell& cell, const BenchArgs& args) {
  ExperimentConfig cfg = PaperConfig(cell.variant)
                             .WithFlows(cell.flows)
                             .WithDurationMs(args.duration_ms)
                             .WithSampling(false, false)
                             .WithSampleInterval(SimTime::Millis(1))
                             .WithTrace(1u << 18);
  // Scale the whole schedule, keeping the paper's 9:1 day:night ratio and
  // the 7-day week with one circuit day.
  cfg.schedule.day_length = SimTime::Micros(cell.day_us);
  cfg.schedule.night_length = SimTime::Micros(std::max(1, cell.day_us / 9));
  if (!cell.sack_rtt) cfg.workload.base.sack_rtt = false;
  if (cell.loose_rto) {
    // Minimum RTO in the same decade as the rotation week: each backoff
    // doubling lands the retransmission at the same phase of the schedule.
    cfg.workload.base.rtt.min_rto = SimTime::Micros(cell.day_us * 8);
    cfg.workload.base.rtt.initial_rto = SimTime::Micros(cell.day_us * 8);
  }
  ApplyBenchFlags(cfg, args);
  return cfg;
}

// Cell-level phase: oscillating wins (one certified limit cycle makes the
// cell unstable), then starved, then converged.
const char* CellPhase(const ExperimentResult& r) {
  if (r.stability_oscillating > 0) return "oscillating";
  if (r.stability_starved > 0) return "starved";
  if (r.stability_converged > 0) return "converged";
  return "insufficient";
}

BenchRun ToRun(const Cell& cell, const ExperimentResult& r) {
  BenchRun run;
  run.name = cell.name;
  run.iterations = 1;
  auto& c = run.counters;
  c["converged"] = static_cast<double>(r.stability_converged);
  c["oscillating"] = static_cast<double>(r.stability_oscillating);
  c["starved"] = static_cast<double>(r.stability_starved);
  c["insufficient"] = static_cast<double>(r.stability_insufficient);
  c["worst_amplitude"] = r.stability_worst_amplitude;
  c["worst_period_us"] = r.stability_worst_period_us;
  c["goodput_gbps"] = r.goodput_bps / 1e9;
  c["timeouts"] = static_cast<double>(r.timeouts);
  c["trace_hash"] = static_cast<double>(Fingerprint53(r.trace_hash));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  StabilityArgs sargs = ParseStabilityArgs(argc, argv);
  const BenchArgs args = ParseBenchArgs(argc, argv, 60);

  const std::vector<Cell> cells = Cells();
  std::printf("Stability phase diagram: rotation period x load (x RTO "
              "stressors), two-rack\nfabric, %d ms per cell, convergence "
              "oracle verdicts per flow:\n\n", args.duration_ms);

  std::vector<SweepCase> cases;
  for (const Cell& cell : cells) {
    cases.push_back({cell.name, CellConfig(cell, args)});
  }
  std::vector<ExperimentResult> results(cells.size());
  std::vector<double> wall_ns(cells.size());
  const double sweep_ns = WallNs([&] {
    ParallelFor(args.jobs, cells.size(), [&](std::size_t i) {
      wall_ns[i] =
          WallNs([&] { results[i] = RunExperiment(cases[i].config); });
    });
  });

  std::printf("%-26s %7s %5s | %5s %5s %5s %5s | %9s %10s %-12s\n", "cell",
              "day_us", "flows", "conv", "osc", "starv", "insuf", "worst_amp",
              "period_us", "phase");
  BenchReport report;
  report.context = "bench_stability";
  std::uint64_t oscillating_cells = 0, converged_cells = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& cell = cells[i];
    const ExperimentResult& r = results[i];
    const char* phase = CellPhase(r);
    if (std::strcmp(phase, "oscillating") == 0) ++oscillating_cells;
    if (std::strcmp(phase, "converged") == 0) ++converged_cells;
    std::printf("%-26s %7d %5u | %5llu %5llu %5llu %5llu | %9.2f %10.1f "
                "%-12s\n",
                cell.name.c_str(), cell.day_us, cell.flows,
                static_cast<unsigned long long>(r.stability_converged),
                static_cast<unsigned long long>(r.stability_oscillating),
                static_cast<unsigned long long>(r.stability_starved),
                static_cast<unsigned long long>(r.stability_insufficient),
                r.stability_worst_amplitude, r.stability_worst_period_us,
                phase);
    BenchRun run = ToRun(cell, r);
    run.real_time_ns = wall_ns[i];
    report.runs.push_back(run);
  }
  std::printf("\nphase diagram: %llu oscillating, %llu converged of %zu "
              "cells\n",
              static_cast<unsigned long long>(oscillating_cells),
              static_cast<unsigned long long>(converged_cells), cells.size());

  bool ok = true;
  if (sargs.require_phases && (oscillating_cells == 0 || converged_cells == 0)) {
    std::fprintf(stderr,
                 "FAIL: phase diagram must contain at least one oscillating "
                 "and one converged cell (got %llu/%llu)\n",
                 static_cast<unsigned long long>(oscillating_cells),
                 static_cast<unsigned long long>(converged_cells));
    ok = false;
  }

  MaybeWriteBenchReport(args, report);
  MaybeWriteSweep(
      args, CaseSweep(cases, std::move(results), args.jobs, sweep_ns / 1e9),
      "_sweep");

  return ok ? 0 : 1;
}
