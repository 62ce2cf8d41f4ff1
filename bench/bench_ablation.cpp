// Ablation bench: which TDTCP design decisions carry the win?
//
//   full            — TDTCP as designed
//   -relaxed        — §3.4 relaxed reordering detection off (classic
//                     fast-retransmit marks cross-TDN holes lost)
//   -per_tdn_rtt    — §4.4 RTT sample matching off (type-3 samples pollute)
//   -synth_rto      — §4.4 synthesized timeout off (per-TDN RTO only)
//   -notifications  — single-state CUBIC (no per-TDN modeling at all)
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80);
  const int ms = args.duration_ms;

  struct Row {
    const char* name;
    bool relaxed;
    bool per_tdn_rtt;
    bool synth_rto;
    bool tdtcp;
    bool pacing;
  };
  const Row rows[] = {
      {"full", true, true, true, true, false},
      {"-relaxed", false, true, true, true, false},
      {"-per_tdn_rtt", true, false, true, true, false},
      {"-synth_rto", true, true, false, true, false},
      {"-notifications", true, true, true, false, false},  // = plain cubic
      {"+pacing", true, true, true, true, true},  // §5.2's burst mitigation
  };

  // Rows are a custom axis (engine flags, not the standard grid), so they
  // go to the pool as fully-resolved cases.
  std::vector<SweepCase> cases;
  for (const auto& row : rows) {
    SweepCase c;
    c.label = row.name;
    c.config = PaperConfig(row.tdtcp ? Variant::kTdtcp : Variant::kCubic)
                   .WithFlows(8)
                   .WithDurationMs(ms);
    c.config.workload.base.relaxed_reordering = row.relaxed;
    c.config.workload.base.per_tdn_rtt = row.per_tdn_rtt;
    c.config.workload.base.synthesized_rto = row.synth_rto;
    c.config.workload.base.pacing_enabled = row.pacing;
    ApplyBenchFlags(c.config, args);
    cases.push_back(std::move(c));
  }

  std::printf("TDTCP ablations (%d ms, 8 flows, paper RDCN config)\n\n", ms);
  std::printf("%-16s %10s %8s %8s %8s %8s\n", "config", "goodput", "rtx",
              "rto", "undo", "spur");

  std::vector<ExperimentResult> results;
  const double wall_ns = WallNs([&] { results = RunCases(cases, args.jobs); });
  MaybeWriteSweep(args, CaseSweep(cases, results, args.jobs, wall_ns / 1e9));
  const double full_bps = results.front().goodput_bps;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const ExperimentResult& r = results[i];
    std::printf("%-16s %7.2f Gb %8llu %8llu %8llu %8llu   (%+.1f%% vs full)\n",
                cases[i].label.c_str(), r.goodput_bps / 1e9,
                static_cast<unsigned long long>(r.retransmissions),
                static_cast<unsigned long long>(r.timeouts),
                static_cast<unsigned long long>(r.undo_events),
                static_cast<unsigned long long>(r.duplicate_segments),
                100.0 * (r.goodput_bps / full_bps - 1.0));
  }
  return 0;
}
