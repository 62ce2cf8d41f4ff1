// Figure 7 (§5.2): all TCP variants under both bandwidth and latency
// differences. (a) sequence graphs; (b) ToR VOQ occupancy over time.
//
// Expected shape: TDTCP and reTCPdyn near-optimal; reTCP/DCTCP/CUBIC in the
// middle; MPTCP below CUBIC; TDTCP with the lowest VOQ occupancy, with an
// "initial burst" spike at the optical-to-packet transition (1380us).
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80, SeedUse::kEverySeed);
  const ExperimentConfig base =
      PaperConfig(Variant::kCubic).WithFlows(8).WithDurationMs(args.duration_ms);

  std::printf("Figure 7: bandwidth + latency difference "
              "(packet 10G/~100us, optical 100G/~40us), %d ms averaged\n",
              args.duration_ms);

  const std::vector<Variant> variants = {
      Variant::kTdtcp, Variant::kRetcpDyn, Variant::kRetcp,
      Variant::kDctcp, Variant::kCubic,    Variant::kMptcp,
  };
  auto runs = RunVariants(variants, base, args);

  std::printf("\n--- (a) expected TCP sequence number ---\n");
  auto seq = SeqSeries(runs);
  PrintSeqTable(seq, 100.0);

  std::printf("\n--- (b) ToR VOQ occupancy (packets) ---\n");
  auto voq = VoqSeries(runs);
  PrintSeqTable(voq, 100.0, "packets");

  // Mean VOQ occupancy: the paper's claim is TDTCP lowest.
  std::printf("\nmean VOQ occupancy:\n");
  for (const auto& r : runs) {
    double sum = 0;
    for (const auto& p : r.result.voq_curve) sum += p.mean;
    std::printf("  %-10s %6.2f packets\n", VariantName(r.variant),
                r.result.voq_curve.empty() ? 0.0
                                           : sum / r.result.voq_curve.size());
  }

  PrintGoodputSummary(runs, AnalyticOptimalBps(base),
                      static_cast<double>(base.topology.packet_mode.rate_bps));

  WriteSeriesCsv("fig07a_seq.csv", seq);
  WriteSeriesCsv("fig07b_voq.csv", voq);
  std::printf("\nwrote fig07a_seq.csv, fig07b_voq.csv\n");
  return 0;
}
