// Figure 13 (Appendix A.3): ToR VOQ occupancy of single-path CUBIC and
// MPTCP in the motivation configuration (Fig. 2's setup), three weeks.
//
// Expected shape: CUBIC keeps the VOQ near-full during packet days and
// drains it quickly when the optical day starts (service outpaces arrival);
// MPTCP shows the drain-then-refill dip at the optical-to-packet switch.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80, SeedUse::kEverySeed);
  const ExperimentConfig base =
      PaperConfig(Variant::kCubic).WithFlows(8).WithDurationMs(args.duration_ms);

  std::printf("Figure 13 (A.3): ToR VOQ occupancy, motivation config, "
              "%d ms averaged\n", args.duration_ms);

  auto runs = RunVariants({Variant::kCubic, Variant::kMptcp}, base, args);
  auto voq = VoqSeries(runs);
  PrintSeqTable(voq, 50.0, "packets");

  WriteSeriesCsv("fig13_voq.csv", voq);
  std::printf("\nwrote fig13_voq.csv\n");
  return 0;
}
