// Figure 9 (§5.2): latency difference only at 100 Gbps — both TDNs run at
// the circuit rate; only propagation differs (~100us vs ~40us RTT).
//
// Expected shape: optimal and packet-only lines nearly overlap (packet-only
// is slightly higher because it skips reconfiguration blackouts); the
// buffer-filling variants (TDTCP, CUBIC, reTCP) perform near-identically;
// DCTCP — latency-sensitive — trails; MPTCP brings up the rear.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80, SeedUse::kEverySeed);
  ExperimentConfig base =
      PaperConfig(Variant::kCubic).WithFlows(8).WithDurationMs(args.duration_ms);
  // Both TDNs at 100 Gbps; only latency differs.
  base.topology.packet_mode.rate_bps = 100'000'000'000;
  // At 100G the BDP is ~140 jumbo segments; keep the paper's 16-packet VOQ.

  std::printf("Figure 9: latency difference only at 100 Gbps "
              "(~100us vs ~40us RTT), %d ms averaged\n", args.duration_ms);

  const std::vector<Variant> variants = {
      Variant::kTdtcp, Variant::kRetcpDyn, Variant::kRetcp,
      Variant::kDctcp, Variant::kCubic,    Variant::kMptcp,
  };
  auto runs = RunVariants(variants, base, args);

  auto seq = SeqSeries(runs);
  PrintSeqTable(seq, 100.0);

  PrintGoodputSummary(runs, AnalyticOptimalBps(base),
                      static_cast<double>(base.topology.packet_mode.rate_bps));

  WriteSeriesCsv("fig09_seq.csv", seq);
  std::printf("\nwrote fig09_seq.csv\n");
  return 0;
}
