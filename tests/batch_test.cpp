// Batched-execution equivalence (DESIGN.md §11).
//
// Two layers, two contracts:
//  - sim core: RunBatch dispatches in exactly the order the sequential
//    RunNext loop would, including randomized same-timestamp collisions,
//    mid-batch zero-delay arrivals, and cancellations;
//  - experiment level: a seeded churn + fault + trace run is bit-identical
//    (trace_hash / churn_hash / totals) with batched dispatch forced on and
//    forced off.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "app/experiment.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {
namespace {

// ---------------------------------------------------------------------------
// Sim core: randomized firing-order soak
// ---------------------------------------------------------------------------

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// A deterministic generator independent of the mode under test.
struct Lcg {
  std::uint64_t s;
  explicit Lcg(std::uint64_t seed) : s(seed) {}
  std::uint64_t Next() {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    return s >> 17;
  }
};

// Schedules `rounds` wavefronts of events with heavy timestamp collisions;
// handlers re-schedule (same tick at zero delay, and into the future), and
// every third event schedules a victim it then cancels.
// Returns a digest of (now, marker) in firing order.
std::uint64_t RunRandomSoak(std::uint64_t seed, bool batched) {
  Simulator sim;
  sim.set_batched_dispatch(batched);
  Lcg rng(seed);
  Fnv hash;
  std::uint64_t spawned = 0;

  // fanout spawned from inside a handler; bounded so the soak terminates.
  constexpr std::uint64_t kMaxSpawn = 20000;
  std::function<void(std::uint64_t)> fire = [&](std::uint64_t marker) {
    hash.Mix(static_cast<std::uint64_t>(sim.now().picos()));
    hash.Mix(marker);
    if (spawned >= kMaxSpawn) return;
    const std::uint64_t r = rng.Next();
    if (r % 4 == 0) {
      // Same-tick follow-up at zero delay: joins the batch being drained.
      ++spawned;
      const std::uint64_t m = marker * 31 + 1;
      sim.Schedule(SimTime::Zero(), [&fire, m] { fire(m); });
    }
    if (r % 3 == 0) {
      // Future event, colliding with other handlers' picks (mod 7 ticks).
      ++spawned;
      const std::uint64_t m = marker * 31 + 2;
      sim.Schedule(SimTime::Nanos(1 + (r >> 8) % 7), [&fire, m] { fire(m); });
    }
    if (r % 5 == 0) {
      // Schedule-then-cancel: the dead entry must be invisible in both modes.
      EventId victim = sim.Schedule(SimTime::Nanos(1 + (r >> 16) % 5),
                                    [&hash] { hash.Mix(0xdeadu); });
      sim.Cancel(victim);
    }
  };

  for (int i = 0; i < 200; ++i) {
    const std::uint64_t r = rng.Next();
    const std::uint64_t m = 1000000 + i;
    sim.ScheduleAt(SimTime::Nanos(r % 23), [&fire, m] { fire(m); });
  }
  sim.Run();
  hash.Mix(sim.events_executed());
  return hash.h;
}

TEST(BatchSoak, RandomizedFiringOrderMatchesSequential) {
  for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
    const std::uint64_t batched = RunRandomSoak(seed, true);
    const std::uint64_t sequential = RunRandomSoak(seed, false);
    EXPECT_EQ(batched, sequential) << "seed " << seed;
    EXPECT_NE(batched, 0u);
  }
}

// ---------------------------------------------------------------------------
// Experiment level: seeded churn + fault run, batching on vs off
// ---------------------------------------------------------------------------

ExperimentConfig SoakConfig() {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp);
  cfg.duration = SimTime::Millis(10);
  cfg.warmup = SimTime::Millis(2);
  cfg.workload.num_flows = 4;
  cfg.sample_voq = false;
  cfg.sample_reorder = false;
  FaultPlan plan;
  plan.fabric.loss_rate = 0.02;
  plan.control.notify_loss_rate = 0.1;
  plan.control.notify_delay_mean = SimTime::Micros(5);
  plan.control.notify_duplicate_rate = 0.05;
  return cfg.WithFault(plan).WithChurn(30).WithTrace();
}

TEST(BatchSoak, ChurnFaultExperimentBitIdentical) {
  const ExperimentResult batched =
      RunExperiment(SoakConfig().WithBatchedDispatch(true));
  const ExperimentResult sequential =
      RunExperiment(SoakConfig().WithBatchedDispatch(false));
  EXPECT_GT(batched.trace_records, 0u);
  EXPECT_GT(batched.churn.opened, 0u);
  EXPECT_EQ(batched.trace_hash, sequential.trace_hash);
  EXPECT_EQ(batched.churn_hash, sequential.churn_hash);
  EXPECT_EQ(batched.fault_trace_hash, sequential.fault_trace_hash);
  EXPECT_EQ(batched.total_bytes, sequential.total_bytes);
  EXPECT_EQ(batched.retransmissions, sequential.retransmissions);
  EXPECT_DOUBLE_EQ(batched.goodput_bps, sequential.goodput_bps);
  // Identical event streams, whichever loop dispatched them.
  EXPECT_EQ(batched.sim_events, sequential.sim_events);
}

TEST(BatchSoak, SimStatsSurfaceBatchingCounters) {
  const ExperimentResult batched =
      RunExperiment(SoakConfig().WithBatchedDispatch(true));
  const ExperimentResult sequential =
      RunExperiment(SoakConfig().WithBatchedDispatch(false));
  EXPECT_GT(batched.sim_events, 0u);
  EXPECT_GT(batched.sim_batches, 0u);
  EXPECT_GE(batched.sim_max_batch, 1u);
  // Same-tick fan-out exists in any RDCN run: some batch holds > 1 event.
  EXPECT_GT(batched.sim_max_batch, 1u);
  EXPECT_EQ(sequential.sim_batches, 0u);
  EXPECT_EQ(sequential.sim_max_batch, 0u);
}

}  // namespace
}  // namespace tdtcp
