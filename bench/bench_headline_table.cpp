// The headline comparison (§1, §5.2): long-lived flow goodput for every
// variant under the paper's RDCN configuration, with ratios against TDTCP.
//
// Paper claims: TDTCP ~24% above single-path CUBIC and DCTCP, ~41% above
// MPTCP, competitive with reTCP(dyn) — without requiring switch buffer
// resizing.
//
// Reference usage of the sweep engine + builder API: the whole bench is a
// declarative spec (variants x seeds) handed to RunVariants; with
// --seeds=K every number below is a cross-seed mean and the goodput column
// gains a 95% confidence interval.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 120, SeedUse::kEverySeed);
  const ExperimentConfig base = PaperConfig(Variant::kCubic)
                                    .WithFlows(8)
                                    .WithDurationMs(args.duration_ms);

  std::printf("Headline table: long-lived flow goodput, %d ms simulated, "
              "%u flows, %d seed%s\n", args.duration_ms,
              base.workload.num_flows, args.seeds, args.seeds == 1 ? "" : "s");

  const std::vector<Variant> variants = {
      Variant::kTdtcp, Variant::kRetcpDyn, Variant::kRetcp, Variant::kDctcp,
      Variant::kCubic, Variant::kReno,     Variant::kMptcp,
  };
  auto runs = RunVariants(variants, base, args);

  double tdtcp_bps = 0;
  for (const auto& r : runs) {
    if (r.variant == Variant::kTdtcp) tdtcp_bps = r.stat("goodput_bps")->mean;
  }

  const double optimal = AnalyticOptimalBps(base);
  const double pkt_only = static_cast<double>(base.topology.packet_mode.rate_bps);

  std::printf("\n%-10s %10s %9s %8s %10s %9s %8s %8s\n", "variant", "goodput",
              "ci95", "of-opt", "tdtcp-adv", "rtx", "rto", "spur");
  for (const auto& r : runs) {
    const MetricStats& g = *r.stat("goodput_bps");
    std::printf("%-10s %7.2f Gb %8.2f %7.1f%% %+9.1f%% %8.0f %8.0f %8.0f\n",
                VariantName(r.variant), g.mean / 1e9, g.ci95 / 1e9,
                100.0 * g.mean / optimal,
                100.0 * (tdtcp_bps / g.mean - 1.0),
                r.stat("retransmissions")->mean, r.stat("timeouts")->mean,
                r.stat("duplicate_segments")->mean);
  }
  std::printf("%-10s %7.2f Gb %8s %7.1f%% %+9.1f%%\n", "pkt-only",
              pkt_only / 1e9, "", 100.0 * pkt_only / optimal,
              100.0 * (tdtcp_bps / pkt_only - 1.0));
  std::printf("%-10s %7.2f Gb %8s %7.1f%%\n", "optimal", optimal / 1e9, "",
              100.0);

  std::printf("\npaper reference: tdtcp +24%% vs cubic/dctcp, +41%% vs mptcp, "
              "~= retcpdyn\n");
  return 0;
}
