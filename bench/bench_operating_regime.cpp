// §3.5 Limitations: "TDTCP is most suitable to operate in networks where
// the periods between TDN changes are 1-100x path RTT."
//
// Two sweeps verify the claimed operating regime:
//   (1) day length from ~1 RTT to ~1000 RTT at the fixed 6:1 ratio — the
//       TDTCP advantage over CUBIC should peak in the paper's band and
//       shrink toward both extremes (fast changes look like per-packet load
//       balancing; slow changes amortize over CUBIC's convergence).
//   (2) packet:optical ratio at the paper's 180us day — the advantage
//       grows with the ratio (rarer circuit days are harder for single-path
//       TCP to exploit).
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

ExperimentConfig PointConfig(Variant v, SimTime day, SimTime night,
                             std::uint32_t num_days, int ms) {
  ExperimentConfig cfg = PaperConfig(v).WithFlows(8).WithDurationMs(ms);
  cfg.schedule.day_length = day;
  cfg.schedule.night_length = night;
  cfg.schedule.num_days = num_days;
  cfg.schedule.circuit_day = num_days - 1;
  cfg.WithSampling(false, false)
      .WithSampleInterval(SimTime::Micros(50))
      .WithPlotWeeks(1);
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 60);
  const int ms = args.duration_ms;

  std::printf("Operating regime sweeps (§3.5), %d ms per point, packet RTT "
              "~100us\n", ms);

  // Both sweeps' points go to one pool as fully-resolved cases (each point
  // has its own schedule AND duration, so the standard grid cross-product
  // does not apply): tdtcp/cubic pairs, day sweep first.
  const std::vector<int> day_sweep = {60, 180, 540, 1800, 6000};
  const std::vector<std::uint32_t> ratio_sweep = {2u, 4u, 7u, 10u, 14u};
  std::vector<SweepCase> cases;
  for (int day_us : day_sweep) {
    const SimTime day = SimTime::Micros(day_us);
    const SimTime night = SimTime::Micros(std::max(2, day_us / 9));
    // At least ~10 weeks of averaging, but bounded for the long-day points.
    const int week_ms = 7 * (day_us + day_us / 9) / 1000;
    const int run_ms = std::max(ms, std::min(10 * std::max(1, week_ms), 500));
    const std::string label = "day" + std::to_string(day_us) + "us";
    cases.push_back({label + "/tdtcp",
                     PointConfig(Variant::kTdtcp, day, night, 7, run_ms)});
    cases.push_back({label + "/cubic",
                     PointConfig(Variant::kCubic, day, night, 7, run_ms)});
  }
  for (std::uint32_t num_days : ratio_sweep) {
    const int run_ms = std::max(ms, static_cast<int>(num_days) * 8);
    const std::string label = "ratio" + std::to_string(num_days - 1);
    cases.push_back({label + "/tdtcp",
                     PointConfig(Variant::kTdtcp, SimTime::Micros(180),
                                 SimTime::Micros(20), num_days, run_ms)});
    cases.push_back({label + "/cubic",
                     PointConfig(Variant::kCubic, SimTime::Micros(180),
                                 SimTime::Micros(20), num_days, run_ms)});
  }

  std::fprintf(stderr, "  %zu points, jobs=%d...\n", cases.size(),
               ResolveJobs(args.jobs));
  for (SweepCase& c : cases) ApplyBenchFlags(c.config, args);
  std::vector<ExperimentResult> results;
  const double wall_ns = WallNs([&] { results = RunCases(cases, args.jobs); });
  MaybeWriteSweep(args, CaseSweep(cases, results, args.jobs, wall_ns / 1e9));

  std::printf("\n--- (1) day length sweep, 6:1 ratio (nights = day/9) ---\n");
  std::printf("%10s %10s | %9s %9s %9s\n", "day_us", "day/RTT", "tdtcp",
              "cubic", "advantage");
  std::size_t idx = 0;
  for (int day_us : day_sweep) {
    const double td = results[idx++].goodput_bps;
    const double cu = results[idx++].goodput_bps;
    std::printf("%10d %10.1f | %6.2f Gb %6.2f Gb %+8.1f%%\n", day_us,
                day_us / 100.0, td / 1e9, cu / 1e9, 100.0 * (td / cu - 1.0));
  }

  std::printf("\n--- (2) packet:optical ratio sweep, 180us days ---\n");
  std::printf("%10s | %9s %9s %9s\n", "ratio", "tdtcp", "cubic", "advantage");
  for (std::uint32_t num_days : ratio_sweep) {
    const double td = results[idx++].goodput_bps;
    const double cu = results[idx++].goodput_bps;
    std::printf("%8u:1 | %6.2f Gb %6.2f Gb %+8.1f%%\n", num_days - 1,
                td / 1e9, cu / 1e9, 100.0 * (td / cu - 1.0));
  }

  std::printf("\nexpectation: the advantage peaks when days are a few RTTs "
              "long and shrinks toward\nboth extremes (§3.5's two extreme "
              "cases).\n");
  return 0;
}
