// Short-flow tail FCT under faulted churn: the recovery-axis bench.
//
// The RTO tail is the short-flow killer in this RDCN (PAPERS.md, T-RACKs):
// a tail-end drop on a transfer too short for dupACK/SACK recovery waits
// out a full — often exponentially backed-off — RTO that can phase-lock
// with the rotation week. This bench churns short connections through a
// hostile fabric (Gilbert-Elliott burst loss on the fabric ports plus lossy
// TDN notifications) and measures flow completion time percentiles — p50,
// p99 and p99.9, because the rescue only shows in the tail — under each
// recovery mode:
//
//   off     pure RTO recovery (RACK and TLP disabled)
//   rack    the stack's default RACK-TLP machinery
//   agent   RACK-TLP plus the per-host shared RecoveryAgent forcing early
//           retransmits for flows quiet past the adaptive threshold
//
// crossed with {droptail, codel} VOQs so the agent is exercised under both
// loss profiles. Every cell is one deterministic RunExperiment (private
// Simulator); results are bit-identical at any --jobs. With --out the table
// is written as tdtcp-bench/1 JSON — the tracked BENCH_shortflows.json
// baseline — and gated with tools/bench_compare.py
// --metric=fct_p50_us,fct_p99_us,fct_p999_us.
#include "bench_util.hpp"

#include "sim/hash.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

struct Cell {
  std::string name;
  RecoveryMode recovery;
  QdiscKind qdisc;
};

std::vector<Cell> Cells() {
  std::vector<Cell> cells;
  for (const QdiscKind q : {QdiscKind::kDropTail, QdiscKind::kCodel}) {
    for (const RecoveryMode m :
         {RecoveryMode::kOff, RecoveryMode::kRack, RecoveryMode::kAgent}) {
      cells.push_back(Cell{std::string(RecoveryModeName(m)) + "/" +
                               QdiscKindName(q),
                           m, q});
    }
  }
  return cells;
}

ExperimentConfig CellConfig(const Cell& cell, const BenchArgs& args) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithDurationMs(args.duration_ms)
                             .WithQdisc(cell.qdisc)
                             .WithRecovery(cell.recovery);
  // Two long-lived flows keep the fabric realistically busy; the churn is
  // the measured population.
  cfg.workload.num_flows = 2;
  // Short transfers (1..4 segments): mostly too short for dupACK/SACK
  // recovery, so a tail drop leaves only the RTO — or the agent.
  cfg.churn.enabled = true;
  cfg.churn.target_connections = 400;
  cfg.churn.mean_interarrival = SimTime::Micros(60);
  cfg.churn.min_transfer_bytes = 8940;
  cfg.churn.max_transfer_bytes = 4 * 8940;
  cfg.churn.max_concurrent = 24;
  // Hostile fabric: correlated burst loss eats whole short flows at once,
  // and lossy notifications desynchronize the per-TDN state the stack
  // recovers with.
  FaultPlan plan;
  plan.fabric.gilbert_elliott = true;
  plan.fabric.ge_p_good_to_bad = 0.002;
  plan.fabric.ge_p_bad_to_good = 0.2;
  plan.control.notify_loss_rate = 0.05;
  cfg.fault = plan;
  ApplyBenchFlags(cfg, args);
  return cfg;
}

BenchRun ToRun(const Cell& cell, const ExperimentResult& r) {
  BenchRun run;
  run.name = cell.name;
  run.iterations = 1;
  auto& c = run.counters;
  c["completed"] = static_cast<double>(r.churn_fct_us.size());
  c["opened"] = static_cast<double>(r.churn.opened);
  c["abnormal"] = static_cast<double>(r.churn.abnormal());
  // Nearest-rank: tail percentiles of a few hundred completions must be
  // observed samples, not interpolations between order statistics.
  const std::vector<double> tails =
      PercentilesNearestRank(r.churn_fct_us, {50, 99, 99.9});
  c["fct_p50_us"] = tails[0];
  c["fct_p99_us"] = tails[1];
  c["fct_p999_us"] = tails[2];
  c["timeouts"] = static_cast<double>(r.timeouts);
  c["recovery_forced"] = static_cast<double>(r.recovery_forced);
  c["recovery_rescued"] = static_cast<double>(r.recovery_rescued);
  c["recovery_spurious"] = static_cast<double>(r.recovery_spurious);
  // 53-bit determinism fingerprint: two runs of this bench match iff their
  // churn lifecycles are bit-identical (the jobs=1 == jobs=N check).
  c["churn_hash"] = static_cast<double>(Fingerprint53(r.churn_hash));
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 40);

  std::vector<Cell> cells = Cells();
  if (!args.recovery.empty()) {
    std::erase_if(cells, [&](const Cell& c) {
      return RecoveryModeName(c.recovery) != args.recovery;
    });
  }
  if (!args.qdisc.empty()) {
    std::erase_if(cells, [&](const Cell& c) {
      return QdiscKindName(c.qdisc) != args.qdisc;
    });
  }

  std::printf("Short-flow FCT under faulted churn (%d ms, Gilbert-Elliott "
              "fabric loss + lossy\nnotifications, 400 short transfers), per "
              "recovery mode x VOQ discipline:\n\n",
              args.duration_ms);

  // One private Simulator per cell on the pool; results are bit-identical
  // at any job count.
  std::vector<ExperimentResult> results(cells.size());
  std::vector<double> wall_ns(cells.size());
  ParallelFor(args.jobs, cells.size(), [&](std::size_t i) {
    wall_ns[i] =
        WallNs([&] { results[i] = RunExperiment(CellConfig(cells[i], args)); });
  });

  std::printf("%-15s %9s %8s %9s %9s %9s %7s %7s %7s %9s\n", "cell",
              "completed", "abnorml", "p50_us", "p99_us", "p999_us", "rto",
              "forced", "rescue", "spurious");
  BenchReport report;
  report.context = "bench_shortflows";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    BenchRun run = ToRun(cells[i], results[i]);
    run.real_time_ns = wall_ns[i];
    std::printf(
        "%-15s %6.0f/%-3.0f %7.0f %9.0f %9.0f %9.0f %7.0f %7.0f %7.0f %9.0f\n",
        cells[i].name.c_str(), run.counters.at("completed"),
        run.counters.at("opened"), run.counters.at("abnormal"),
        run.counters.at("fct_p50_us"), run.counters.at("fct_p99_us"),
        run.counters.at("fct_p999_us"), run.counters.at("timeouts"),
        run.counters.at("recovery_forced"),
        run.counters.at("recovery_rescued"),
        run.counters.at("recovery_spurious"));
    report.runs.push_back(run);
  }

  std::printf("\nexpectation: the agent cuts the p99/p99.9 tail versus both "
              "pure-RTO and RACK-TLP\nalone (quiet flows are rescued before "
              "the backed-off RTO), at the cost of a few\nspurious forcings "
              "the DSACK undo machinery repairs.\n");

  MaybeWriteBenchReport(args, report);
  return 0;
}
