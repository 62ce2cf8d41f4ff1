// Microbenchmarks (google-benchmark): raw simulator and stack performance,
// backing the paper's engineering claim that the implementation "scales to
// 100 Gbps and supports reconfigurations on microsecond timescales" —
// translated to this substrate: the simulator processes packet events far
// faster than real time would require for protocol research.
// Beyond the console table, `--out=PATH` writes the results as a
// tdtcp-bench/1 JSON document (see app/result_io.hpp) for baseline tracking
// with tools/bench_compare.py, and `--min-items-per-sec=N` turns the run
// into a smoke test: exit nonzero if any item-rate benchmark falls below N.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "app/experiment.hpp"
#include "app/result_io.hpp"
#include "app/sweep.hpp"
#include "cc/registry.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "net/topology.hpp"
#include "rdcn/controller.hpp"

namespace tdtcp {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    Simulator sim;
    int sink = 0;
    for (int i = 0; i < batch; ++i) {
      sim.Schedule(SimTime::Nanos(i % 1000), [&sink] { ++sink; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1024)->Arg(65536);

void BM_SelfReschedulingTimer(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    std::int64_t fires = 0;
    std::function<void()> tick = [&] {
      if (++fires < 100000) sim.Schedule(SimTime::Nanos(100), tick);
    };
    sim.Schedule(SimTime::Nanos(100), tick);
    sim.Run();
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_SelfReschedulingTimer);

// Full 100 Gbps bulk transfer: how many simulated packets per wall second?
void BM_HundredGbpsTransfer(benchmark::State& state) {
  for (auto _ : state) {
    Simulator sim;
    Random rng(1);
    TopologyConfig tc;
    tc.hosts_per_rack = 2;
    tc.packet_mode.rate_bps = 100'000'000'000;
    tc.voq.capacity_packets = 64;
    Topology topo(sim, rng, tc);
    TcpConfig c;
    c.mss = 8940;
    c.cc_factory = MakeCcFactory("cubic");
    TcpConnection server(sim, topo.host(1, 0), 1, topo.host_id(0, 0), c);
    TcpConnection client(sim, topo.host(0, 0), 1, topo.host_id(1, 0), c);
    server.Listen();
    client.Connect();
    client.SetUnlimitedData(true);
    sim.RunUntil(SimTime::Millis(2));
    benchmark::DoNotOptimize(client.bytes_acked());
    state.counters["sim_events"] = static_cast<double>(sim.events_executed());
    state.counters["goodput_gbps"] =
        static_cast<double>(client.bytes_acked()) * 8 / 2e-3 / 1e9;
  }
}
BENCHMARK(BM_HundredGbpsTransfer)->Unit(benchmark::kMillisecond);

// A full paper-config RDCN week with 8 TDTCP flows: microsecond-scale
// reconfigurations under load.
void BM_RdcnWeekTdtcp(benchmark::State& state) {
  for (auto _ : state) {
    ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                               .WithFlows(8)
                               .WithDuration(SimTime::Micros(2800))  // 2 weeks
                               .WithWarmup(SimTime::Micros(1400))
                               .WithSampling(false, false)
                               .WithSampleInterval(SimTime::Micros(100))
                               .WithPlotWeeks(1);
    ExperimentResult r = RunExperiment(cfg);
    benchmark::DoNotOptimize(r.total_bytes);
  }
  state.SetLabel("two 1400us weeks, 8 flows, 14 reconfigurations");
}
BENCHMARK(BM_RdcnWeekTdtcp)->Unit(benchmark::kMillisecond);

// Sweep-engine scaling: the same 4-cell grid at jobs=1 vs jobs=N. On a
// multi-core machine the jobs=N time should approach time/cores.
void BM_SweepGrid(benchmark::State& state) {
  const int jobs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    SweepSpec spec;
    spec.base = PaperConfig(Variant::kTdtcp)
                    .WithFlows(4)
                    .WithDuration(SimTime::Micros(2800))
                    .WithWarmup(SimTime::Micros(1400))
                    .WithSampling(false, false)
                    .WithSampleInterval(SimTime::Micros(100))
                    .WithPlotWeeks(1);
    spec.variants = {Variant::kTdtcp, Variant::kCubic};
    spec.seeds = {1, 2};
    spec.jobs = jobs;
    SweepResult r = RunSweep(spec);
    benchmark::DoNotOptimize(r.cells.size());
  }
  state.SetLabel("2 variants x 2 seeds");
}
BENCHMARK(BM_SweepGrid)->Arg(1)->Arg(0)->Unit(benchmark::kMillisecond);

// ACK-processing hot path: SACK scoreboard + per-TDN accounting.
void BM_AckProcessing(benchmark::State& state) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);
  TcpConfig c;
  c.mss = 8940;
  c.cc_factory = MakeCcFactory("cubic");
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  TcpConnection server(sim, topo.host(1, 0), 1, topo.host_id(0, 0), c);
  TcpConnection client(sim, topo.host(0, 0), 1, topo.host_id(1, 0), c);
  server.Listen();
  client.Connect();
  client.SetUnlimitedData(true);
  sim.RunUntil(SimTime::Millis(1));

  std::int64_t processed = 0;
  for (auto _ : state) {
    // Run the live simulation forward; each iteration processes the next
    // chunk of ack/data events.
    sim.RunFor(SimTime::Micros(100));
    processed = static_cast<std::int64_t>(client.stats().acks_received);
    benchmark::DoNotOptimize(processed);
  }
  state.counters["acks"] = static_cast<double>(processed);
}
BENCHMARK(BM_AckProcessing);

// Same-timestamp cohort dispatch: 64 distinct timestamps, 1024 events each.
// Arg toggles RunBatch (1) vs the sequential RunNext loop (0); the delta is
// the price of re-sifting the heap between same-time events.
void BM_EventBatchDispatch(benchmark::State& state) {
  const bool batched = state.range(0) != 0;
  constexpr int kEvents = 65536;
  for (auto _ : state) {
    Simulator sim;
    sim.set_batched_dispatch(batched);
    int sink = 0;
    for (int i = 0; i < kEvents; ++i) {
      sim.Schedule(SimTime::Nanos(i % 64), [&sink] { ++sink; });
    }
    sim.Run();
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventBatchDispatch)->Arg(0)->Arg(1);

// Scale benchmarks (tracked in BENCH_scale.json): end-to-end simulated
// events per wall second on the two heaviest standing configurations. Items
// are simulator events, so items/s is directly events/s.
void BM_ScaleChurnFault(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    FaultPlan plan;
    plan.fabric.loss_rate = 0.02;
    plan.control.notify_loss_rate = 0.1;
    plan.control.notify_delay_mean = SimTime::Micros(5);
    plan.control.notify_duplicate_rate = 0.05;
    ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                               .WithFlows(8)
                               .WithDuration(SimTime::Millis(5))
                               .WithWarmup(SimTime::Millis(1))
                               .WithSampling(false, false)
                               .WithFault(plan)
                               .WithChurn(50);
    ExperimentResult r = RunExperiment(cfg);
    events += r.sim_events;
    benchmark::DoNotOptimize(r.total_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("2-rack, 8 flows + 50 churn conns, mixed faults");
}
BENCHMARK(BM_ScaleChurnFault)->Unit(benchmark::kMillisecond);

void BM_ScaleIncast(benchmark::State& state) {
  std::uint64_t events = 0;
  for (auto _ : state) {
    ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                               .WithFlows(16)
                               .WithDuration(SimTime::Millis(5))
                               .WithWarmup(SimTime::Millis(1))
                               .WithSampling(false, false);
    ExperimentResult r = RunExperiment(cfg);
    events += r.sim_events;
    benchmark::DoNotOptimize(r.total_bytes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
  state.SetLabel("2-rack, 16-flow cross-rack incast");
}
BENCHMARK(BM_ScaleIncast)->Unit(benchmark::kMillisecond);

// Console output as usual, plus a machine-readable copy of every finished
// run. Counter values arrive already finalized (rates resolved against cpu
// time by the benchmark runner), so they are copied through untouched.
class CollectingReporter : public benchmark::ConsoleReporter {
 public:
  std::vector<BenchRun> collected;

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      BenchRun b;
      b.name = run.benchmark_name();
      b.iterations = static_cast<double>(run.iterations);
      const double iters =
          run.iterations == 0 ? 1.0 : static_cast<double>(run.iterations);
      b.real_time_ns = run.real_accumulated_time / iters * 1e9;
      b.cpu_time_ns = run.cpu_accumulated_time / iters * 1e9;
      for (const auto& [name, c] : run.counters) {
        if (name == "items_per_second") {
          b.items_per_second = c.value;
        } else {
          b.counters[name] = c.value;
        }
      }
      collected.push_back(std::move(b));
    }
    ConsoleReporter::ReportRuns(runs);
  }
};

}  // namespace
}  // namespace tdtcp

int main(int argc, char** argv) {
  std::string out_path;
  double min_items_per_sec = 0;
  // --min-items-per-sec=@FILE[:FRAC] reads per-benchmark floors from a
  // tdtcp-bench/1 baseline: each run must reach FRAC (default 0.5) of the
  // baseline's items/s for the same benchmark name.
  std::string baseline_floor_path;
  double baseline_floor_frac = 0.5;
  // Strip our flags before google-benchmark sees (and rejects) them.
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--min-items-per-sec=", 20) == 0) {
      const char* value = arg + 20;
      if (value[0] == '@') {
        baseline_floor_path = value + 1;
        const std::size_t colon = baseline_floor_path.rfind(':');
        if (colon != std::string::npos) {
          char* end = nullptr;
          const double frac =
              std::strtod(baseline_floor_path.c_str() + colon + 1, &end);
          if (end != nullptr && *end == '\0' && frac > 0) {
            baseline_floor_frac = frac;
            baseline_floor_path.resize(colon);
          }
        }
      } else {
        min_items_per_sec = std::atof(value);
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  tdtcp::CollectingReporter reporter;
  const std::size_t ran = benchmark::RunSpecifiedBenchmarks(&reporter);
  if (ran == 0) {
    std::fprintf(stderr, "bench_micro: no benchmarks matched the filter\n");
    return 1;
  }

  tdtcp::BenchReport report;
  report.context = "bench_micro";
  report.runs = std::move(reporter.collected);

  if (!out_path.empty()) {
    tdtcp::WriteBenchJson(out_path, report);
    // Validate the emitted document by round-tripping it through the reader;
    // a write/parse mismatch here is a bug worth failing the run over.
    try {
      const tdtcp::BenchReport back = tdtcp::ReadBenchJson(out_path);
      if (back.runs.size() != report.runs.size()) {
        throw std::runtime_error("run count changed across round-trip");
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_micro: invalid --out JSON: %s\n", e.what());
      return 1;
    }
    std::printf("wrote %s (%zu runs, schema %s)\n", out_path.c_str(),
                report.runs.size(), tdtcp::kBenchSchemaVersion);
  }

  if (min_items_per_sec > 0) {
    bool ok = false;
    for (const tdtcp::BenchRun& r : report.runs) {
      if (r.items_per_second == 0) continue;  // no item rate reported
      if (r.items_per_second < min_items_per_sec) {
        std::fprintf(stderr, "bench_micro: %s at %.0f items/s is below the %.0f floor\n",
                     r.name.c_str(), r.items_per_second, min_items_per_sec);
        return 1;
      }
      ok = true;
    }
    if (!ok) {
      std::fprintf(stderr,
                   "bench_micro: --min-items-per-sec set but no benchmark "
                   "reported an item rate\n");
      return 1;
    }
  }

  if (!baseline_floor_path.empty()) {
    tdtcp::BenchReport baseline;
    try {
      baseline = tdtcp::ReadBenchJson(baseline_floor_path);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_micro: cannot read baseline %s: %s\n",
                   baseline_floor_path.c_str(), e.what());
      return 1;
    }
    std::size_t checked = 0;
    for (const tdtcp::BenchRun& r : report.runs) {
      if (r.items_per_second == 0) continue;
      for (const tdtcp::BenchRun& b : baseline.runs) {
        if (b.name != r.name || b.items_per_second == 0) continue;
        const double floor = b.items_per_second * baseline_floor_frac;
        if (r.items_per_second < floor) {
          std::fprintf(stderr,
                       "bench_micro: %s at %.0f items/s is below %.2fx of the "
                       "baseline %.0f\n",
                       r.name.c_str(), r.items_per_second, baseline_floor_frac,
                       b.items_per_second);
          return 1;
        }
        ++checked;
        break;
      }
    }
    if (checked == 0) {
      std::fprintf(stderr,
                   "bench_micro: baseline floor set but no benchmark matched "
                   "an entry in %s\n",
                   baseline_floor_path.c_str());
      return 1;
    }
    std::printf("baseline floor: %zu benchmarks >= %.2fx of %s\n", checked,
                baseline_floor_frac, baseline_floor_path.c_str());
  }

  benchmark::Shutdown();
  return 0;
}
