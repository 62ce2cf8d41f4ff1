// Figure 11 + §5.4: TDN change notification optimizations.
//
// (1) End-to-end: TDTCP throughput with all three optimizations (cached
//     ICMP construction, pull-model kernel distribution, dedicated control
//     network) versus none — the paper reports +12.7%.
// (2) Component microbenchmarks mirroring §5.4's claims: generation-latency
//     ratio cached-vs-fresh at p50/p99 (8x / 2.7x), and delivery latency
//     control-vs-data network.
//
// Multiple flows per host make the push-model stagger visible.
#include "bench_util.hpp"

#include "net/tor_switch.hpp"
#include "sim/random.hpp"

using namespace tdtcp;
using namespace tdtcp::bench;

namespace {

ExperimentConfig NotifyConfig(int ms, bool optimized) {
  // All rack hosts: the per-host generation loop and push walk hit the
  // tail flows.
  ExperimentConfig cfg =
      PaperConfig(Variant::kTdtcp).WithFlows(16).WithDurationMs(ms);
  if (!optimized) {
    cfg.topology.notify.cached_packet = false;       // fresh construction
    cfg.topology.notify.via_control_network = false; // data-plane ICMP
    cfg.topology.notify_dist.pull_model = false;     // per-flow push walk
    // §5.4: the pull model cut the all-flows update time by three orders of
    // magnitude; the unoptimized kernel walk leaves late flows with a large
    // fraction of the day already gone.
    cfg.topology.notify_dist.push_stagger = SimTime::Micros(12);
  }
  return cfg;
}

void GenerationLatencyMicrobench() {
  Simulator sim;
  Random rng(7);
  NotifyGenConfig cached;
  NotifyGenConfig fresh;
  fresh.cached_packet = false;
  ToRSwitch tor_cached(sim, 0, 1, cached, rng.Fork(0));
  ToRSwitch tor_fresh(sim, 1, 1, fresh, rng.Fork(1));
  Host host(sim, 0);
  tor_cached.AttachHost(0, nullptr, &host);
  tor_fresh.AttachHost(0, nullptr, &host);

  std::vector<double> cached_us, fresh_us;
  for (int i = 0; i < 5000; ++i) {
    tor_cached.NotifyHosts(0);
    cached_us.push_back(tor_cached.last_notify_latency()[0].micros_f());
    tor_fresh.NotifyHosts(0);
    fresh_us.push_back(tor_fresh.last_notify_latency()[0].micros_f());
  }
  const double c50 = Percentile(cached_us, 50), c99 = Percentile(cached_us, 99);
  const double f50 = Percentile(fresh_us, 50), f99 = Percentile(fresh_us, 99);
  std::printf("\n--- ICMP generation latency (per notification) ---\n");
  std::printf("  %-22s p50 %7.2f us   p99 %7.2f us\n", "fresh construction",
              f50, f99);
  std::printf("  %-22s p50 %7.2f us   p99 %7.2f us\n", "cached packet", c50, c99);
  std::printf("  speedup: %.1fx at p50, %.1fx at p99 "
              "(paper: 8x / 2.7x)\n", f50 / c50, f99 / c99);
}

}  // namespace

int main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv, 80);
  const int ms = args.duration_ms;

  std::printf("Figure 11 / §5.4: TDN change notification optimizations\n");

  std::vector<SweepCase> cases = {
      {"optimized", NotifyConfig(ms, true)},
      {"unoptimized", NotifyConfig(ms, false)},
  };
  for (SweepCase& c : cases) ApplyBenchFlags(c.config, args);
  std::vector<ExperimentResult> results;
  const double wall_ns = WallNs([&] { results = RunCases(cases, args.jobs); });
  MaybeWriteSweep(args, CaseSweep(cases, results, args.jobs, wall_ns / 1e9));
  const ExperimentResult& optimized = results[0];
  const ExperimentResult& unoptimized = results[1];

  std::vector<NamedSeries> series = {
      {"optimal", optimized.optimal_curve},
      {"optimized", optimized.seq_curve},
      {"unoptimized", unoptimized.seq_curve},
      {"packet_only", optimized.packet_only_curve},
  };
  PrintSeqTable(series, 100.0);

  std::printf("\n  optimized:   %6.2f Gbps\n", optimized.goodput_bps / 1e9);
  std::printf("  unoptimized: %6.2f Gbps\n", unoptimized.goodput_bps / 1e9);
  std::printf("  improvement: %+.1f%% (paper: +12.7%%)\n",
              100.0 * (optimized.goodput_bps / unoptimized.goodput_bps - 1.0));

  GenerationLatencyMicrobench();

  WriteSeriesCsv("fig11_notification.csv", series);
  std::printf("\nwrote fig11_notification.csv\n");
  return 0;
}
