// Figure 10 (§5.3): CDFs of (a) reordering events per optical day and
// (b) packets spuriously retransmitted per optical day, for CUBIC, MPTCP,
// and TDTCP. Spurious retransmissions are measured as receiver-side
// duplicate arrivals (ground truth: a retransmission of data that was never
// lost arrives twice). A little fabric jitter provides the intrinsic
// intra-TDN reordering the paper's MPTCP line serves as a baseline for.
//
// Expected shape: TDTCP cuts the tail relative to CUBIC, and most of
// TDTCP's optical days see no spurious retransmission at all.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

void PrintCdf(const char* title, const std::vector<VariantRun>& runs,
              const std::vector<double> VariantRun::*unused,
              std::vector<double> (*extract)(const ExperimentResult&)) {
  (void)unused;
  std::printf("\n--- %s ---\n", title);
  std::printf("%-10s %8s %8s %8s %8s %10s\n", "variant", "p50", "p90", "p99",
              "max", "zero-days");
  for (const auto& r : runs) {
    auto values = extract(r.result);
    int zero_days = 0;
    for (double v : values) zero_days += (v == 0.0);
    std::printf("%-10s %8.1f %8.1f %8.1f %8.1f %9.1f%%\n",
                VariantName(r.variant), Percentile(values, 50),
                Percentile(values, 90), Percentile(values, 99),
                Percentile(values, 100),
                values.empty() ? 0.0
                               : 100.0 * zero_days /
                                     static_cast<double>(values.size()));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 150, SeedUse::kEverySeed);
  const int ms = args.duration_ms;
  ExperimentConfig base = PaperConfig(Variant::kCubic)
                              .WithFlows(8)
                              .WithDuration(SimTime::Millis(ms))
                              .WithWarmup(SimTime::Millis(ms / 10));
  base.topology.fabric_reorder_jitter = SimTime::Micros(2);

  std::printf("Figure 10: reordering and spurious retransmissions per "
              "optical day (%d ms = %d optical days)\n", ms,
              static_cast<int>(ms * 1000 / 1400));

  auto runs = RunVariants({Variant::kCubic, Variant::kMptcp, Variant::kTdtcp},
                          base, args);

  PrintCdf("(a) reordering events per optical day", runs, nullptr,
           [](const ExperimentResult& r) { return r.reorder_events_per_day; });
  PrintCdf("(b) spurious retransmissions per optical day", runs, nullptr,
           [](const ExperimentResult& r) { return r.spurious_rtx_per_day; });

  for (const auto& r : runs) {
    const std::string name = VariantName(r.variant);
    WriteCdfCsv("fig10a_events_" + name + ".csv", "events_per_day",
                MakeCdf(r.result.reorder_events_per_day));
    WriteCdfCsv("fig10b_spurious_" + name + ".csv", "spurious_rtx_per_day",
                MakeCdf(r.result.spurious_rtx_per_day));
  }
  std::printf("\nwrote fig10{a,b}_*.csv\n");
  return 0;
}
