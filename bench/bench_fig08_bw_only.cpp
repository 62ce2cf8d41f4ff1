// Figure 8 (§5.2): bandwidth difference only — both TDNs share the packet
// network's ~100us RTT; rates stay 10G vs 100G.
//
// Expected shape: CUBIC and DCTCP close most of the gap to TDTCP (they can
// adapt to bandwidth alone); reTCPdyn near-optimal; MPTCP still struggles;
// VOQ occupancy largely unchanged from Fig. 7 with TDTCP lowest.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80, SeedUse::kEverySeed);
  ExperimentConfig base =
      PaperConfig(Variant::kCubic).WithFlows(8).WithDurationMs(args.duration_ms);
  // Equalize latency at the optical propagation (~40us RTT for both): with
  // the latency difference removed, single-path TCP's window suffices for
  // both TDNs' BDPs and it adapts to the bandwidth change alone.
  base.topology.packet_mode.propagation = base.topology.circuit_mode.propagation;

  std::printf("Figure 8: bandwidth difference only "
              "(10G vs 100G, equal ~40us RTT), %d ms averaged\n",
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

  PrintGoodputSummary(runs, AnalyticOptimalBps(base),
                      static_cast<double>(base.topology.packet_mode.rate_bps));

  WriteSeriesCsv("fig08a_seq.csv", seq);
  WriteSeriesCsv("fig08b_voq.csv", voq);
  std::printf("\nwrote fig08a_seq.csv, fig08b_voq.csv\n");
  return 0;
}
