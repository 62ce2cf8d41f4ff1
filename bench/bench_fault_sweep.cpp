// Robustness sweep: goodput under an unreliable control plane.
//
// Sweeps the TDN-change notification loss rate and added delivery delay
// (fault/fault_plan.hpp) for TDTCP against the CUBIC and reTCP baselines,
// answering §3.2's graceful-degradation question: when the ToR's ICMP
// notifications are lost or late, TDTCP's data-path TDN inference should
// hold goodput near the fault-free level instead of collapsing to whatever
// the stale per-TDN state happens to allow.
//
// Each point is one deterministic experiment; the run also reports the
// fault-injector accounting (faults injected, notifications dropped, stale
// deliveries filtered, inference-recovered switches) so regressions in the
// recovery path show up as counters, not just goodput.
#include "bench_util.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

constexpr double kLossRates[] = {0.0, 0.01, 0.05, 0.10, 0.20};
constexpr int kDelaysUs[] = {0, 10, 50, 200};
constexpr Variant kVariants[] = {Variant::kTdtcp, Variant::kCubic,
                                 Variant::kRetcp};

ExperimentConfig FaultConfig(Variant v, int ms, std::uint64_t seed,
                             double notify_loss, int notify_delay_us) {
  ExperimentConfig cfg = PaperConfig(v)
                             .WithDurationMs(ms)
                             .WithSeed(seed)
                             .WithSampling(false, false);
  cfg.fault.control.notify_loss_rate = notify_loss;
  cfg.fault.control.notify_delay_mean = SimTime::Micros(notify_delay_us);
  return cfg;
}

std::string PointLabel(Variant v, double loss, int delay_us) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s/loss=%g/delay=%dus", VariantName(v), loss,
                delay_us);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 60, SeedUse::kEverySeed);
  const int ms = args.duration_ms;
  const std::vector<std::uint64_t> seeds = args.SeedList();

  std::printf("Fault sweep: goodput vs notification loss / delay\n");

  // One axis at a time (loss with zero delay, delay with zero loss), the
  // grid a paper would plot as two line charts.
  std::vector<SweepCase> cases;
  for (Variant v : kVariants) {
    for (double loss : kLossRates) {
      for (std::uint64_t seed : seeds) {
        cases.push_back(SweepCase{PointLabel(v, loss, 0),
                                  FaultConfig(v, ms, seed, loss, 0)});
      }
    }
    for (int delay : kDelaysUs) {
      if (delay == 0) continue;  // shared fault-free point from the loss axis
      for (std::uint64_t seed : seeds) {
        cases.push_back(SweepCase{PointLabel(v, 0.0, delay),
                                  FaultConfig(v, ms, seed, 0.0, delay)});
      }
    }
  }

  std::fprintf(stderr, "  sweep: %zu points x %d seed%s, jobs=%d...\n",
               cases.size() / seeds.size(), args.seeds,
               args.seeds == 1 ? "" : "s", ResolveJobs(args.jobs));
  for (SweepCase& c : cases) ApplyBenchFlags(c.config, args);
  std::vector<ExperimentResult> results;
  const double wall_ns = WallNs([&] { results = RunCases(cases, args.jobs); });

  // One cell per point, seeds aggregated, so --out gets the standard
  // schema-versioned JSON/CSV.
  const SweepResult sweep = CaseSweep(cases, std::move(results), args.jobs,
                                      wall_ns / 1e9, seeds.size());
  MaybeWriteSweep(args, sweep);

  const auto cell_at = [&](Variant v, double loss,
                           int delay) -> const SweepCell* {
    const std::string label = PointLabel(v, loss, delay);
    for (const SweepCell& c : sweep.cells) {
      if (c.label == label) return &c;
    }
    return nullptr;
  };
  const auto mean_of = [](const SweepCell* c, const char* name) {
    if (!c) return 0.0;
    for (const auto& [n, s] : c->metrics) {
      if (n == name) return s.mean;
    }
    return 0.0;
  };

  std::printf("\n--- goodput (Gbps) vs notification loss rate ---\n");
  std::printf("%-10s", "variant");
  for (double loss : kLossRates) std::printf(" %9.0f%%", loss * 100);
  std::printf("\n");
  for (Variant v : kVariants) {
    std::printf("%-10s", VariantName(v));
    for (double loss : kLossRates) {
      std::printf(" %10.2f", mean_of(cell_at(v, loss, 0), "goodput_bps") / 1e9);
    }
    std::printf("\n");
  }

  std::printf("\n--- goodput (Gbps) vs notification delay ---\n");
  std::printf("%-10s", "variant");
  for (int d : kDelaysUs) std::printf(" %8dus", d);
  std::printf("\n");
  for (Variant v : kVariants) {
    std::printf("%-10s", VariantName(v));
    for (int d : kDelaysUs) {
      std::printf(" %10.2f", mean_of(cell_at(v, 0.0, d), "goodput_bps") / 1e9);
    }
    std::printf("\n");
  }

  std::printf("\n--- TDTCP recovery accounting ---\n");
  std::printf("%-18s %10s %10s %10s %10s\n", "point", "goodput", "dropped",
              "inferred", "stale");
  for (double loss : kLossRates) {
    const SweepCell* c = cell_at(Variant::kTdtcp, loss, 0);
    std::printf("loss=%-12g %7.2f Gb %10.0f %10.0f %10.0f\n", loss,
                mean_of(c, "goodput_bps") / 1e9,
                mean_of(c, "notifications_dropped"),
                mean_of(c, "tdn_inferred_switches"),
                mean_of(c, "stale_notifications"));
  }

  // Headline graceful-degradation figure: TDTCP's retained goodput at the
  // worst loss point relative to fault-free.
  const double base =
      mean_of(cell_at(Variant::kTdtcp, 0.0, 0), "goodput_bps");
  const double worst =
      mean_of(cell_at(Variant::kTdtcp, kLossRates[4], 0), "goodput_bps");
  if (base > 0) {
    std::printf("\n  tdtcp retains %.1f%% of fault-free goodput at %.0f%% "
                "notification loss\n",
                100.0 * worst / base, kLossRates[4] * 100);
  }
  return 0;
}
