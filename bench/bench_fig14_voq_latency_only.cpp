// Figure 14 (Appendix A.4): ToR VOQ occupancy with only latency changes
// (20us vs 10us RTT), at 10 Gbps and at 100 Gbps fixed bandwidth.
//
// Expected shape: TDTCP's occupancy in line with CUBIC/DCTCP/MPTCP; reTCP
// (especially with dynamic resizing) builds queues ahead of circuit start
// even though the circuit BDP is *smaller* here — its queue-building is
// mismatched when bandwidth is fixed.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

void RunAtRate(std::uint64_t rate_bps, const BenchArgs& args, const char* csv) {
  ExperimentConfig base = PaperConfig(Variant::kCubic)
                              .WithFlows(8)
                              .WithDurationMs(args.duration_ms);
  base.topology.packet_mode.rate_bps = rate_bps;
  base.topology.circuit_mode.rate_bps = rate_bps;
  // A.4: packet RTT 20us, optical RTT 10us.
  base.topology.packet_mode.propagation = SimTime::Micros(9);
  base.topology.circuit_mode.propagation = SimTime::Micros(4);

  std::printf("\n=== packet/optical bandwidth = %.0f Gbps ===\n", rate_bps / 1e9);
  const std::vector<Variant> variants = {
      Variant::kRetcpDyn, Variant::kTdtcp, Variant::kRetcp,
      Variant::kDctcp,    Variant::kCubic, Variant::kMptcp,
  };
  auto runs = RunVariants(variants, base, args);
  auto voq = VoqSeries(runs);
  PrintSeqTable(voq, 50.0, "packets");

  std::printf("\nmean VOQ occupancy:\n");
  for (const auto& r : runs) {
    double sum = 0;
    for (const auto& p : r.result.voq_curve) sum += p.mean;
    std::printf("  %-10s %6.2f packets (goodput %.2f Gbps)\n",
                VariantName(r.variant),
                r.result.voq_curve.empty() ? 0.0 : sum / r.result.voq_curve.size(),
                r.result.goodput_bps / 1e9);
  }
  WriteSeriesCsv(csv, voq);
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv, 60, SeedUse::kEverySeed);
  std::printf("Figure 14 (A.4): VOQ occupancy, latency-only difference "
              "(RTT 20us vs 10us)\n");
  const std::string out = args.out;
  if (!out.empty()) args.out = out + "_10g";
  RunAtRate(10'000'000'000, args, "fig14a_voq_10g.csv");
  if (!out.empty()) args.out = out + "_100g";
  RunAtRate(100'000'000'000, args, "fig14b_voq_100g.csv");
  std::printf("\nwrote fig14a_voq_10g.csv, fig14b_voq_100g.csv\n");
  return 0;
}
