// Fairness across competing flows (§3.5's open question).
//
// The paper expects each TDN's CCA to retain the fairness of its
// single-path sibling over long horizons, with possible short-term
// anomalies. We measure Jain's fairness index across the per-flow goodputs
// of a rack of competing long-lived flows, per variant, plus the max/min
// flow ratio — on the paper's RDCN and on a static single-path network as
// the control.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

struct FairnessResult {
  double jain = 0;
  double max_min_ratio = 0;
  double aggregate_gbps = 0;
};

FairnessResult MeasureFairness(Variant v, int ms, int flows, bool rdcn,
                               const BenchArgs& args) {
  ExperimentConfig cfg = PaperConfig(v)
                             .WithFlows(static_cast<std::uint32_t>(flows))
                             .WithDurationMs(ms)
                             .WithSampling(false, false);
  // Static packet network control: the circuit never visits this pair.
  if (!rdcn) cfg.schedule.circuit_day = ScheduleConfig::kNoCircuitDay;
  ApplyBenchFlags(cfg, args);
  Experiment exp(cfg);
  Workload& workload = exp.workload();

  // Measure per-flow bytes over the post-warmup window.
  const SimTime warmup = cfg.warmup;
  std::vector<std::uint64_t> at_warmup(flows, 0);
  exp.sim().ScheduleAt(warmup, [&] {
    for (int i = 0; i < flows; ++i) {
      at_warmup[static_cast<std::size_t>(i)] =
          workload.flows()[static_cast<std::size_t>(i)].bytes_acked();
    }
  });
  exp.RunUntil(cfg.duration);

  FairnessResult out;
  double sum = 0, sum_sq = 0, max_v = 0, min_v = 1e30;
  for (int i = 0; i < flows; ++i) {
    const double bytes = static_cast<double>(
        workload.flows()[static_cast<std::size_t>(i)].bytes_acked() -
        at_warmup[static_cast<std::size_t>(i)]);
    sum += bytes;
    sum_sq += bytes * bytes;
    max_v = std::max(max_v, bytes);
    min_v = std::min(min_v, bytes);
  }
  out.jain = (sum * sum) / (flows * sum_sq);
  out.max_min_ratio = min_v > 0 ? max_v / min_v : 1e9;
  out.aggregate_gbps = sum * 8.0 / (cfg.duration - warmup).seconds() / 1e9;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 120);
  const int ms = args.duration_ms;
  const int flows = 8;

  std::printf("Fairness across %d competing flows (%d ms, Jain's index; "
              "1.0 = perfectly fair)\n\n", flows, ms);
  std::printf("%-10s | %8s %9s %10s | %8s %9s\n", "variant", "jain",
              "max/min", "agg Gbps", "jain", "max/min");
  std::printf("%-10s | %28s | %18s\n", "", "--------- RDCN ----------",
              "-- static pkt --");

  // Each (variant, network) measurement owns a private Simulator, so the
  // pairs fan out on the shared pool.
  const std::vector<Variant> variants = {Variant::kTdtcp, Variant::kCubic,
                                         Variant::kDctcp, Variant::kRetcpDyn};
  std::vector<FairnessResult> rdcn(variants.size()), ctrl(variants.size());
  ParallelFor(args.jobs, variants.size() * 2, [&](std::size_t i) {
    const Variant v = variants[i / 2];
    if (i % 2 == 0) {
      rdcn[i / 2] = MeasureFairness(v, ms, flows, true, args);
    } else {
      ctrl[i / 2] = MeasureFairness(v, ms, flows, false, args);
    }
  });

  BenchReport report;
  report.context = "bench_fairness";
  for (std::size_t i = 0; i < variants.size(); ++i) {
    std::printf("%-10s | %8.3f %9.2f %10.2f | %8.3f %9.2f\n",
                VariantName(variants[i]), rdcn[i].jain, rdcn[i].max_min_ratio,
                rdcn[i].aggregate_gbps, ctrl[i].jain, ctrl[i].max_min_ratio);
    for (const auto& [network, f] :
         {std::pair{"rdcn", rdcn[i]}, std::pair{"static", ctrl[i]}}) {
      BenchRun run;
      run.name = std::string(VariantName(variants[i])) + "/" + network;
      run.iterations = 1;
      run.counters["jain"] = f.jain;
      run.counters["max_min_ratio"] = f.max_min_ratio;
      run.counters["aggregate_gbps"] = f.aggregate_gbps;
      report.runs.push_back(run);
    }
  }
  MaybeWriteBenchReport(args, report);
  std::printf("\nexpectation (§3.5): per-TDN CCAs inherit their single-path "
              "siblings' fairness;\nshort-term anomalies possible in the "
              "RDCN column.\n");
  return 0;
}
