// Figure 2 (§2.2 motivation): sequence graph of single-path TCP CUBIC and
// MPTCP in the hybrid RDCN over three optical weeks, against the analytic
// optimal and packet-only lines.
//
// Expected shape: both variants parallel the optimal line during packet
// days (unshaded) but fall far below it during the optical day (the
// 1200-1380us window of each 1400us week); MPTCP trails CUBIC.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80, SeedUse::kEverySeed);
  const ExperimentConfig base =
      PaperConfig(Variant::kCubic).WithFlows(8).WithDurationMs(args.duration_ms);

  std::printf("Figure 2: TCP variants in a hybrid RDCN (3 optical weeks, "
              "%d ms averaged)\n", args.duration_ms);
  std::printf("optical day = [1200,1380)us of each 1400us week\n");

  auto runs = RunVariants({Variant::kCubic, Variant::kMptcp}, base, args);
  auto series = SeqSeries(runs);
  PrintSeqTable(series, 100.0);

  PrintGoodputSummary(runs, AnalyticOptimalBps(base),
                      static_cast<double>(base.topology.packet_mode.rate_bps));

  WriteSeriesCsv("fig02_motivation.csv", series);
  std::printf("\nwrote fig02_motivation.csv\n");
  return 0;
}
