// A churn lifecycle that does not allocate, and what the retained
// connections cost. A ChurnGenerator keeps each slot's two connections and
// reopens them, so once a slot's buffers, the hosts' tables and the event
// core have grown, opening and closing connections touches the global heap
// only when a host table reaches a new high-water mark. What a slot keeps
// is bounded too: a connection holds no per-call scratch, and a completed
// lifecycle leaves only its FCT sample behind. The counting allocator
// (alloc_harness.hpp) replaces the global operator new, so this test is its
// own executable.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "alloc_harness.hpp"
#include "app/flow_cdf.hpp"
#include "app/workload.hpp"
#include "net/topology.hpp"
#include "rdcn/rotor_controller.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {
namespace {

// The rotor_churn shape: an 8-rack rotor fabric, every host a Poisson
// source sending TDTCP to a uniformly drawn host in another rack.
struct RotorChurn {
  RotorChurn(std::uint32_t hosts_per_rack, ChurnConfig cc,
             std::uint32_t target = 6000)
      : topo(sim, Random(7), TopoConfig(hosts_per_rack)),
        rotor(sim, RotorConfig(topo.config()), &topo),
        churn(sim, topo, Churn(std::move(cc), target), 7) {
    rotor.Start();
    churn.Start();
  }

  static TopologyConfig TopoConfig(std::uint32_t hosts_per_rack) {
    TopologyConfig tc;
    tc.num_racks = 8;
    tc.hosts_per_rack = hosts_per_rack;
    return tc;
  }
  static RotorController::Config RotorConfig(const TopologyConfig& tc) {
    RotorController::Config rc;
    rc.packet_mode = tc.packet_mode;
    rc.circuit_mode = tc.circuit_mode;
    rc.seed = 7;
    return rc;
  }
  static ChurnConfig Churn(ChurnConfig cc, std::uint32_t target) {
    cc.enabled = true;
    cc.target_connections = target;
    cc.mean_interarrival = SimTime::Micros(100);
    cc.rack_policy = RackPolicy::kUniform;
    cc.scope_tdn_to_peer = true;
    cc.variant = Variant::kTdtcp;
    return cc;
  }

  void RunUntilClosed(std::uint64_t n) {
    while (churn.stats().closed < n) {
      sim.RunUntil(sim.now() + SimTime::Micros(20));
    }
  }

  // Allocations made by lifecycles [2000, 4000), after 2000 to warm up.
  test::AllocDelta CountWarmLifecycles() {
    RunUntilClosed(2000);
    const std::uint64_t opened = churn.stats().opened;
    const test::AllocDelta d =
        test::CountAllocations([&] { RunUntilClosed(4000); });
    EXPECT_GT(churn.stats().opened - opened, 1900u);
    ::testing::Test::RecordProperty("allocations", std::to_string(d.news));
    return d;
  }

  Simulator sim;
  Topology topo;
  RotorController rotor;
  ChurnGenerator churn;
};

// Building and freeing both connections of every cycle cost about 36
// allocations per lifecycle, 72,000 in this window.
constexpr std::uint64_t kBuildAndFreeAllocs = 2000 * 36;

TEST(ChurnAlloc, ReopenedLifecyclesDoNotAllocate) {
  // One-segment transfers over a 64-slot pool: every slot runs about 30
  // cycles in the warm-up, and every cycle runs the whole lifecycle
  // (handshake, FIN exchange, TIME-WAIT, retire, reopen) with a buffer
  // footprint the warm-up has already seen.
  ChurnConfig cc;
  cc.max_concurrent = 64;
  cc.min_transfer_bytes = cc.max_transfer_bytes = 8940;
  RotorChurn run(4, cc);
  const test::AllocDelta d = run.CountWarmLifecycles();
  // What is left is amortized growth: the hosts' listener lists reaching a
  // new high-water mark. The generator's FCT storage is reserved up front.
  EXPECT_LT(d.news, 16u) << "allocations in 2000 reopened lifecycles";
}

// perfbench's rotor_churn: websearch sizes over a 2048-slot pool.
ChurnConfig WebsearchChurn() {
  ChurnConfig cc;
  cc.max_concurrent = 2048;
  cc.size_cdf = BuiltinFlowSizeCdf("websearch");
  cc.size_scale = 1.0 / 24;
  cc.size_cap_bytes = 2'000'000;
  return cc;
}

TEST(ChurnAlloc, HeavyTailedCyclesOnlyRegrowBuffers) {
  // No lifecycle builds or frees a connection, but a reopen keeps room for
  // only TcpConnection::kMaxKeptOnReset elements per buffer, so a cycle
  // longer than a few segments regrows its scoreboard and out-of-order
  // store.
  RotorChurn run(16, WebsearchChurn());
  const test::AllocDelta d = run.CountWarmLifecycles();
  EXPECT_LT(d.news, kBuildAndFreeAllocs / 4);
}

TEST(ChurnAlloc, EndsOfOneVariantShareOneConfig) {
  // A tenant mix of TDTCP and CUBIC over a 64-slot rotor pool. The
  // generator builds one engine config per (variant, role, peer rack) and
  // every end opened with that key shares it: all sender ends of one
  // variant toward one rack read the same config object, the receiver ends
  // another one.
  ChurnConfig cc;
  cc.max_concurrent = 64;
  cc.min_transfer_bytes = cc.max_transfer_bytes = 8940;
  cc.tenant_mix = {{Variant::kTdtcp, 1.0}, {Variant::kCubic, 1.0}};
  RotorChurn run(4, cc);
  run.RunUntilClosed(500);

  // Key: (TDTCP variant, receiver end, peer rack).
  std::map<std::tuple<bool, bool, RackId>, const TcpConfig*> by_key;
  std::set<const TcpConfig*> distinct;
  std::vector<const TcpConfig*> sender_before(cc.max_concurrent);
  for (std::uint32_t i = 0; i < cc.max_concurrent; ++i) {
    for (const bool sender_end : {true, false}) {
      const TcpConnection* end = run.churn.end(i, sender_end);
      ASSERT_NE(end, nullptr) << "slot " << i << " never ran a cycle";
      const TcpConfig* config = &end->config();
      EXPECT_EQ(config->close_on_peer_fin, !sender_end);
      const auto key = std::make_tuple(config->tdtcp_enabled, !sender_end,
                                       config->peer_rack);
      EXPECT_EQ(by_key.emplace(key, config).first->second, config)
          << "slot " << i << (sender_end ? " sender" : " receiver");
      distinct.insert(config);
      if (sender_end) sender_before[i] = config;
    }
  }
  // Sender and receiver ends, and the two variants, never share.
  EXPECT_EQ(distinct.size(), by_key.size());
  std::set<std::pair<bool, bool>> roles_and_variants;
  for (const auto& [key, config] : by_key) {
    roles_and_variants.emplace(std::get<0>(key), std::get<1>(key));
  }
  EXPECT_EQ(roles_and_variants.size(), 4u);

  // A slot whose next cycles reopened its sender into the other variant
  // now reads that variant's config.
  run.RunUntilClosed(1500);
  std::uint32_t switched = 0;
  for (std::uint32_t i = 0; i < cc.max_concurrent; ++i) {
    const TcpConfig* config = &run.churn.end(i, true)->config();
    if (config->tdtcp_enabled == sender_before[i]->tdtcp_enabled) continue;
    ++switched;
    EXPECT_NE(config, sender_before[i]) << "slot " << i;
    EXPECT_EQ(by_key.at(std::make_tuple(config->tdtcp_enabled, false,
                                        config->peer_rack)),
              config)
        << "slot " << i;
  }
  EXPECT_GT(switched, 0u);
}

// A completed lifecycle leaves one FCT sample and its size bucket behind:
// 9 bytes. Kept as 16-byte records in a doubling vector, they held 26 here.
constexpr std::int64_t kMaxBytesPerCompletedLifecycle = 16;

TEST(ChurnAlloc, CompletedLifecyclesHoldOnlyTheirFctSample) {
  // Two runs that differ only in how many lifecycles they complete: what
  // the longer one holds beyond the shorter is what completions keep.
  ChurnConfig cc;
  cc.max_concurrent = 64;
  cc.min_transfer_bytes = cc.max_transfer_bytes = 8940;
  const auto held_after = [&](std::uint32_t target) {
    const std::int64_t before = test::LiveHeapBytes();
    RotorChurn run(4, cc, target);
    run.RunUntilClosed(target);
    EXPECT_EQ(run.churn.fct_us().size(), run.churn.stats().normal());
    return test::LiveHeapBytes() - before;
  };
  const std::int64_t short_run = held_after(2000);
  const std::int64_t long_run = held_after(6000);
  const std::int64_t per_lifecycle = (long_run - short_run) / 4000;
  RecordProperty("bytes_per_completed_lifecycle",
                 std::to_string(per_lifecycle));
  EXPECT_LE(per_lifecycle, kMaxBytesPerCompletedLifecycle);
}

// Heap bytes per slot of a warmed rotor_churn pool (RetainedBytesPerSlotPair)
// as measured with glibc's allocator: 5,234, and 5,255 once the send queue
// kept a count of its SACKed segments (8 bytes a connection, 16 with the
// allocator's rounding). The bound adds 48 bytes of margin to the first.
// A connection member that holds a heap block costs at
// least 16 bytes of object (the allocator's grain) and a 24-byte block,
// twice per pair, so a per-connection scratch vector fails it, and so does
// a per-connection TcpConfig copy. AddressSanitizer's allocator rounds
// nothing, so it reads lower.
constexpr std::int64_t kMaxBytesPerSlotPair = 5234 + 48;

TEST(ChurnAlloc, RetainedBytesPerSlotPair) {
  // The heap a warmed slot pool holds, per slot: both connections and
  // everything they keep between cycles, plus this run's share of the
  // fabric's and generator's growth. rotor_churn's peak memory is set by
  // these pairs, as its pool stays full.
  const std::int64_t before = test::LiveHeapBytes();
  RotorChurn run(16, WebsearchChurn());
  run.RunUntilClosed(4000);
  ASSERT_GT(run.churn.stats().deferred, 0u)
      << "the pool never filled, so not every slot holds a pair";
  const std::int64_t per_pair =
      (test::LiveHeapBytes() - before) / std::int64_t{2048};
  RecordProperty("bytes_per_slot_pair", std::to_string(per_pair));
  EXPECT_LE(per_pair, kMaxBytesPerSlotPair);
}

}  // namespace
}  // namespace tdtcp
