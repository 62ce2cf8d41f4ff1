// Fault-injection subsystem (src/fault) and the robustness machinery it
// exercises: deterministic fault traces, sweep determinism under a fault
// plan, the hosts' notification sequence filter, data-path TDN inference
// after lost notifications, the runtime TCP invariant checker, drain-then-
// shrink VOQ resizing, and end-to-end graceful degradation. The counting
// allocator (alloc_harness.hpp) replaces the global operator new in this
// executable, for the injector's retained-bytes check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "alloc_harness.hpp"

#include "app/experiment.hpp"
#include "app/sweep.hpp"
#include "cc/registry.hpp"
#include "fault/fault_injector.hpp"
#include "net/queue_disc.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::LoopbackHarness;
using test::TdnCallback;

ExperimentConfig ShortConfig(Variant v, int ms = 10) {
  ExperimentConfig cfg = PaperConfig(v);
  cfg.duration = SimTime::Millis(ms);
  cfg.warmup = SimTime::Millis(ms / 5);
  cfg.workload.num_flows = 4;
  cfg.sample_voq = false;
  cfg.sample_reorder = false;
  return cfg;
}

FaultPlan MixedPlan() {
  FaultPlan plan;
  plan.fabric.loss_rate = 0.02;
  plan.control.notify_loss_rate = 0.1;
  plan.control.notify_delay_mean = SimTime::Micros(5);
  plan.control.notify_duplicate_rate = 0.05;
  return plan;
}

// ---------------------------------------------------------------------------
// Deterministic fault traces
// ---------------------------------------------------------------------------

TEST(FaultTrace, BitIdenticalAcrossRuns) {
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp).WithFault(MixedPlan());
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_GT(a.faults_injected, 0u);
  EXPECT_EQ(a.fault_trace_hash, b.fault_trace_hash);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_DOUBLE_EQ(a.goodput_bps, b.goodput_bps);
}

TEST(FaultTrace, HashIsPinned) {
  // The values the injector gave when it kept every event and hashed the
  // whole list at the end. The running hash folds the same tuples in the
  // same order, and this run records more faults than the ring keeps.
  const ExperimentResult r =
      RunExperiment(ShortConfig(Variant::kTdtcp, 20).WithFault(MixedPlan()));
  EXPECT_EQ(r.faults_injected, 1102u);
  EXPECT_GT(r.faults_injected, FaultInjector::kRecentFaults);
  EXPECT_EQ(r.fault_trace_hash, 0xeec517cfbf8986a4ull);
}

TEST(FaultTrace, SeedChangesTrace) {
  const ExperimentConfig base = ShortConfig(Variant::kTdtcp).WithFault(MixedPlan());
  ExperimentConfig other = base;
  other.seed = 99;
  const ExperimentResult a = RunExperiment(base);
  const ExperimentResult b = RunExperiment(other);
  EXPECT_NE(a.fault_trace_hash, b.fault_trace_hash);
}

TEST(FaultTrace, EmptyPlanInjectsNothing) {
  const ExperimentResult r = RunExperiment(ShortConfig(Variant::kTdtcp));
  EXPECT_EQ(r.faults_injected, 0u);
  EXPECT_EQ(r.fault_trace_hash, 0u);
  EXPECT_EQ(r.notifications_dropped, 0u);
}

TEST(FaultSweep, MetricsIdenticalAtAnyJobCount) {
  // The stacked determinism guarantee: a sweep whose base config carries a
  // fault plan must produce bit-identical metrics (including the fault
  // trace hashes) at --jobs=1 and --jobs=4.
  SweepSpec spec;
  spec.base = ShortConfig(Variant::kTdtcp, 5).WithFault(MixedPlan());
  spec.variants = {Variant::kTdtcp, Variant::kCubic};
  spec.seeds = {1, 2};

  spec.jobs = 1;
  const SweepResult serial = RunSweep(spec);
  spec.jobs = 4;
  const SweepResult parallel = RunSweep(spec);

  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    ASSERT_EQ(serial.cells[c].runs.size(), parallel.cells[c].runs.size());
    for (std::size_t k = 0; k < serial.cells[c].runs.size(); ++k) {
      const ExperimentResult& s = serial.cells[c].runs[k].result;
      const ExperimentResult& p = parallel.cells[c].runs[k].result;
      EXPECT_EQ(s.fault_trace_hash, p.fault_trace_hash);
      const auto sm = ScalarMetrics(s);
      const auto pm = ScalarMetrics(p);
      ASSERT_EQ(sm.size(), pm.size());
      for (std::size_t m = 0; m < sm.size(); ++m) {
        EXPECT_EQ(sm[m].second, pm[m].second)
            << serial.cells[c].label << " metric " << sm[m].first;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Injector mechanics (direct, no workload)
// ---------------------------------------------------------------------------

TEST(FaultInjector, LinkDownWindowTogglesLinkAndRecordsTrace) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);

  FaultPlan plan;
  plan.audit_interval = SimTime::Zero();
  plan.link_downs.push_back(LinkDownWindow{/*rack=*/0, /*uplink=*/true,
                                           SimTime::Micros(100),
                                           SimTime::Micros(50)});
  FaultInjector inj(sim, plan, /*run_seed=*/1);
  inj.Arm(topo);

  sim.RunUntil(SimTime::Micros(120));
  EXPECT_FALSE(topo.rack_uplink(0)->enabled());
  sim.RunUntil(SimTime::Micros(200));
  EXPECT_TRUE(topo.rack_uplink(0)->enabled());

  EXPECT_EQ(inj.stats().link_transitions, 2u);
  const std::vector<FaultEvent> trace = inj.RecentFaults();
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace[0].kind, FaultKind::kLinkDown);
  EXPECT_EQ(trace[0].at, SimTime::Micros(100));
  EXPECT_EQ(trace[1].kind, FaultKind::kLinkUp);
  EXPECT_EQ(trace[1].at, SimTime::Micros(150));
  EXPECT_NE(inj.TraceHash(), 0u);
}

TEST(FaultInjector, SecondArmThrowsAndLeavesTheFirstArmingAlone) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);

  FaultPlan plan;
  plan.audit_interval = SimTime::Zero();
  plan.link_downs.push_back(LinkDownWindow{/*rack=*/0, /*uplink=*/true,
                                           SimTime::Micros(100),
                                           SimTime::Micros(50)});
  FaultInjector inj(sim, plan, /*run_seed=*/1);
  inj.Arm(topo);
  EXPECT_THROW(inj.Arm(topo), std::logic_error);

  sim.RunUntil(SimTime::Micros(200));
  EXPECT_EQ(inj.stats().link_transitions, 2u);  // one window, not two
  EXPECT_EQ(inj.RecentFaults().size(), 2u);
}

TEST(FaultInjector, RetainedBytesDoNotGrowWithFaults) {
  Simulator sim;
  TopologyConfig tc;
  tc.hosts_per_rack = 2;
  Topology topo(sim, Random(1), tc);
  FaultPlan plan;
  plan.fabric.loss_rate = 1.0;  // every packet a fabric port sends
  plan.audit_interval = SimTime::Zero();
  FaultInjector inj(sim, plan, /*run_seed=*/1);
  inj.Arm(topo);

  // One RST a microsecond into port 0->1, each dropped as it starts
  // serializing.
  std::uint64_t sent = 0;
  std::function<void()> send = [&] {
    Packet p;
    p.id = ++sent;
    p.src = topo.host_id(0, 0);
    p.dst = topo.host_id(1, 0);
    p.rst = true;
    p.size_bytes = 500;
    topo.port(0, 1)->Enqueue(std::move(p));
    sim.ScheduleNoCancel(SimTime::Micros(1), [&send] { send(); });
  };
  sim.ScheduleNoCancel(SimTime::Zero(), [&send] { send(); });
  const auto run_to = [&](std::uint64_t faults) {
    while (inj.stats().total() < faults) {
      sim.RunUntil(sim.now() + SimTime::Micros(10));
    }
  };

  run_to(1'000);
  const std::int64_t at_1e3 = test::LiveHeapBytes();
  run_to(100'000);
  const std::int64_t at_1e5 = test::LiveHeapBytes();
  EXPECT_EQ(at_1e5 - at_1e3, 0) << "heap bytes gained over 99,000 faults";

  // The ring holds the latest events, oldest first.
  const std::uint64_t total = inj.stats().total();
  EXPECT_EQ(total, inj.stats().data_dropped);
  const std::vector<FaultEvent> recent = inj.RecentFaults();
  ASSERT_EQ(recent.size(), FaultInjector::kRecentFaults);
  for (std::size_t i = 0; i < recent.size(); ++i) {
    EXPECT_EQ(recent[i].packet_id, total - recent.size() + 1 + i) << i;
    EXPECT_EQ(recent[i].kind, FaultKind::kDataLoss);
  }

  // The invariant report renders the tail and counts every event.
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* out = open_memstream(&buf, &len);
  ASSERT_NE(out, nullptr);
  inj.DumpRecentFaults(out, 32);
  std::fclose(out);
  const std::string dump(buf, len);
  std::free(buf);
  EXPECT_NE(dump.find("(32 of " + std::to_string(total) + " events)"),
            std::string::npos)
      << dump;
  EXPECT_NE(dump.find("packet=" + std::to_string(total) + " "),
            std::string::npos)
      << dump;
  EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 33);
}

TEST(FaultInjector, GilbertElliottBurstsAreDeterministic) {
  FaultPlan plan;
  plan.fabric.gilbert_elliott = true;
  plan.fabric.ge_p_good_to_bad = 0.05;
  plan.fabric.ge_p_bad_to_good = 0.3;
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp).WithFault(plan);
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_GT(a.faults_injected, 0u);       // bursts actually fired
  EXPECT_GT(a.retransmissions, 0u);       // and the transport noticed
  EXPECT_EQ(a.fault_trace_hash, b.fault_trace_hash);
}

// ---------------------------------------------------------------------------
// Host notification sequence filter
// ---------------------------------------------------------------------------

Packet NotifyPacket(std::uint64_t seq, TdnId tdn, RackId peer = kAllRacks) {
  Packet p;
  p.type = PacketType::kTdnNotify;
  p.notify_tdn = tdn;
  p.notify_peer = peer;
  p.notify_seq = seq;
  return p;
}

struct NotifyProbe {
  Simulator sim;
  Host host{sim, 0};
  std::vector<TdnId> applied;
  TdnCallback listener{[this](TdnId tdn, bool) { applied.push_back(tdn); }};

  NotifyProbe() { host.AddTdnListener(&listener); }
};

TEST(NotifySequence, DuplicateStaleAndReorderedAreDropped) {
  NotifyProbe probe;
  probe.host.HandlePacket(NotifyPacket(1, 1));  // applied
  probe.host.HandlePacket(NotifyPacket(1, 1));  // duplicate
  probe.host.HandlePacket(NotifyPacket(3, 0));  // applied (newer)
  probe.host.HandlePacket(NotifyPacket(2, 1));  // reordered straggler
  probe.host.HandlePacket(NotifyPacket(3, 0));  // duplicate of current
  EXPECT_EQ(probe.applied, (std::vector<TdnId>{1, 0}));
  EXPECT_EQ(probe.host.stale_notifications_dropped(), 3u);
}

TEST(NotifySequence, UnsequencedNotificationsAlwaysApply) {
  NotifyProbe probe;
  probe.host.HandlePacket(NotifyPacket(5, 1));
  probe.host.HandlePacket(NotifyPacket(0, 0));  // legacy unsequenced
  probe.host.HandlePacket(NotifyPacket(0, 1));
  EXPECT_EQ(probe.applied, (std::vector<TdnId>{1, 0, 1}));
  EXPECT_EQ(probe.host.stale_notifications_dropped(), 0u);
}

TEST(NotifySequence, ScopesAreIndependentPerPeerRack) {
  // A rotor controller numbers notifications per controller, but scopes
  // them per destination rack: sequence 5 toward rack 1 must not shadow
  // sequence 1 toward rack 2.
  NotifyProbe probe;
  probe.host.HandlePacket(NotifyPacket(5, 1, /*peer=*/1));
  probe.host.HandlePacket(NotifyPacket(1, 0, /*peer=*/2));  // applied
  probe.host.HandlePacket(NotifyPacket(4, 0, /*peer=*/1));  // stale for rack 1
  EXPECT_EQ(probe.applied, (std::vector<TdnId>{1, 0}));
  EXPECT_EQ(probe.host.stale_notifications_dropped(), 1u);
}

// ---------------------------------------------------------------------------
// TCP-level fixtures
// ---------------------------------------------------------------------------

TcpConfig TdtcpConfig() {
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  return c;
}

struct TdtcpFixture {
  explicit TdtcpFixture(TcpConfig config = TdtcpConfig())
      : harness(sim), conn(sim, &harness.host, 1, 99, config) {
    conn.Connect();
    harness.Settle();
    Packet syn = harness.out.Pop();
    conn.HandlePacket(LoopbackHarness::SynAckFor(syn, true, config.num_tdns));
    harness.Settle();
    harness.out.packets.clear();
  }

  std::vector<Packet> TakeData() {
    std::vector<Packet> out;
    while (!harness.out.Empty()) {
      Packet p = harness.out.Pop();
      if (p.payload > 0) out.push_back(std::move(p));
    }
    return out;
  }

  Simulator sim;
  LoopbackHarness harness;
  TcpConnection conn;
};

TEST(NotifySequence, TdnManagerConsistentUnderReplayedDeliveries) {
  // The end-to-end property behind the filter: however the control plane
  // duplicates and reorders deliveries, the connection's TDN view follows
  // the newest sequence number and replays are pure no-ops.
  TdtcpFixture f;
  ASSERT_TRUE(f.conn.tdtcp_active());
  f.harness.host.HandlePacket(NotifyPacket(2, 1));
  EXPECT_EQ(f.conn.tdns().active_id(), 1);
  const std::uint64_t switches = f.conn.stats().tdn_switches;

  f.harness.host.HandlePacket(NotifyPacket(1, 0));  // stale: would regress
  f.harness.host.HandlePacket(NotifyPacket(2, 1));  // duplicate
  f.harness.host.HandlePacket(NotifyPacket(2, 0));  // stale with new payload
  EXPECT_EQ(f.conn.tdns().active_id(), 1);
  EXPECT_EQ(f.conn.stats().tdn_switches, switches);
  EXPECT_EQ(f.conn.tdns().num_tdns(), 2u);

  f.harness.host.HandlePacket(NotifyPacket(3, 0));  // genuinely newer
  EXPECT_EQ(f.conn.tdns().active_id(), 0);
}

// ---------------------------------------------------------------------------
// Data-path TDN inference (§3.2 graceful degradation)
// ---------------------------------------------------------------------------

TEST(TdnInference, ConvergesAfterLostNotification) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  std::vector<Packet> data = f.TakeData();
  ASSERT_GE(data.size(), 6u);

  // The peer switched to TDN 1 but our notification was lost: every ACK now
  // carries ack_tdn=1. Spaced beyond the patience window, the mismatch
  // streak must converge the sender without any notification.
  std::uint64_t inferred = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    f.sim.RunUntil(f.sim.now() + SimTime::Micros(400));
    f.conn.HandlePacket(LoopbackHarness::Ack(
        1, data[i].seq + data[i].payload, {}, /*ack_tdn=*/1));
    inferred = f.conn.stats().tdn_inferred_switches;
    if (inferred > 0) break;
  }
  EXPECT_EQ(inferred, 1u);
  EXPECT_EQ(f.conn.tdns().active_id(), 1);
}

TEST(TdnInference, StragglersAfterGenuineNotificationDoNotFlap) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  std::vector<Packet> data = f.TakeData();
  ASSERT_GE(data.size(), 6u);

  // Genuine switch to TDN 1, then a burst of in-flight ACKs still tagged
  // with the old TDN arrives within the patience window (stragglers drain
  // within about one RTT of a real switch): not a lost notification, so no
  // flap back.
  f.conn.OnTdnChange(1, false);
  ASSERT_EQ(f.conn.tdns().active_id(), 1);
  for (std::size_t i = 0; i < data.size(); ++i) {
    f.sim.RunUntil(f.sim.now() + SimTime::Nanos(100));
    f.conn.HandlePacket(LoopbackHarness::Ack(
        1, data[i].seq + data[i].payload, {}, /*ack_tdn=*/0));
  }
  EXPECT_EQ(f.conn.tdns().active_id(), 1);
  EXPECT_EQ(f.conn.stats().tdn_inferred_switches, 0u);
}

// ---------------------------------------------------------------------------
// Runtime invariant checker
// ---------------------------------------------------------------------------

TEST(InvariantChecker, FiresOnDeliberatelyCorruptedAccounting) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  std::vector<Packet> data = f.TakeData();
  ASSERT_FALSE(data.empty());

  // Corrupt the per-TDN accounting behind the engine's back: the scoreboard
  // recount on the next ACK must detect the divergence and throw.
  f.conn.tdns().state(0).packets_out += 5;
  EXPECT_THROW(f.conn.HandlePacket(LoopbackHarness::Ack(
                   1, data[0].seq + data[0].payload)),
               std::logic_error);
}

TEST(InvariantChecker, CleanRunStaysSilent) {
  // invariant_checks defaults to on, so every experiment in the tier-1
  // suite doubles as a checker run; this one pins the default explicitly.
  ExperimentConfig cfg = ShortConfig(Variant::kTdtcp);
  ASSERT_TRUE(cfg.workload.base.invariant_checks);
  EXPECT_NO_THROW({
    const ExperimentResult r = RunExperiment(cfg);
    EXPECT_GT(r.goodput_bps, 0.0);
  });
}

// ---------------------------------------------------------------------------
// Drain-then-shrink VOQ resizing
// ---------------------------------------------------------------------------

Packet DataPacket() {
  Packet p;
  p.type = PacketType::kData;
  p.size_bytes = 9000;
  return p;
}

TEST(VoqShrink, DrainThenShrinkRetainsAdmittedPackets) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 50});
  for (int i = 0; i < 40; ++i) ASSERT_TRUE(q.Enqueue(DataPacket()));

  // reTCPdyn teardown: 50 -> 16 while holding 40. Admitted packets are
  // retained (dropping them would manufacture loss at every teardown), but
  // admissions stop and the occupancy bound becomes the shrink watermark.
  q.set_capacity(16);
  EXPECT_EQ(q.occupancy(), 40u);
  EXPECT_EQ(q.capacity(), 16u);
  EXPECT_EQ(q.stats().shrink_deferred, 24u);  // 40 held - 16 new capacity
  EXPECT_TRUE(q.WithinBound());
  EXPECT_FALSE(q.Enqueue(DataPacket()));  // over capacity: no admissions
  EXPECT_EQ(q.stats().dropped, 1u);

  // Draining decays the watermark monotonically back to the capacity.
  for (int i = 0; i < 24; ++i) ASSERT_NE(q.Dequeue(SimTime::Zero()), nullptr);
  EXPECT_EQ(q.occupancy(), 16u);
  EXPECT_TRUE(q.WithinBound());
  ASSERT_NE(q.Dequeue(SimTime::Zero()), nullptr);
  EXPECT_TRUE(q.Enqueue(DataPacket()));  // back under capacity: admits again
  EXPECT_TRUE(q.WithinBound());
}

TEST(VoqShrink, ShrinkBelowEmptyQueueIsImmediate) {
  Simulator sim;
  QueueDisc q(sim, QueueDisc::Config{.capacity_packets = 50});
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.Enqueue(DataPacket()));
  q.set_capacity(16);  // occupancy 10 <= 16: plain resize
  EXPECT_EQ(q.stats().shrink_deferred, 0u);
  EXPECT_TRUE(q.WithinBound());
}

// ---------------------------------------------------------------------------
// End-to-end graceful degradation
// ---------------------------------------------------------------------------

TEST(GracefulDegradation, BernoulliFabricLossDegradesNotCollapses) {
  const double clean =
      RunExperiment(ShortConfig(Variant::kTdtcp)).goodput_bps;
  FaultPlan plan;
  plan.fabric.loss_rate = 0.05;
  const ExperimentResult lossy =
      RunExperiment(ShortConfig(Variant::kTdtcp).WithFault(plan));
  EXPECT_GT(lossy.faults_injected, 0u);
  EXPECT_GT(lossy.retransmissions, 0u);
  EXPECT_LT(lossy.goodput_bps, clean);
  EXPECT_GT(lossy.goodput_bps, 0.0);
}

TEST(GracefulDegradation, NotificationLossRecoversViaInference) {
  // ≥1% notification loss: TDTCP must hold most of its fault-free goodput
  // because hosts that miss a notification converge via TD_DATA_ACK tags.
  const double clean =
      RunExperiment(ShortConfig(Variant::kTdtcp, 20)).goodput_bps;
  FaultPlan plan;
  plan.control.notify_loss_rate = 0.01;
  const ExperimentResult r =
      RunExperiment(ShortConfig(Variant::kTdtcp, 20).WithFault(plan));
  EXPECT_GT(r.notifications_dropped, 0u);
  EXPECT_GE(r.goodput_bps, 0.5 * clean);
}

TEST(GracefulDegradation, HeavyNotificationLossExercisesInference) {
  FaultPlan plan;
  plan.control.notify_loss_rate = 0.5;
  const ExperimentResult r =
      RunExperiment(ShortConfig(Variant::kTdtcp, 20).WithFault(plan));
  // With half the per-host notifications lost, some hosts hear about each
  // switch and some don't: the data-path tags disagree and inference must
  // fire. The run still makes solid progress.
  EXPECT_GT(r.notifications_dropped, 0u);
  EXPECT_GT(r.tdn_inferred_switches, 0u);
  EXPECT_GT(r.goodput_bps, 0.0);
}

TEST(GracefulDegradation, ControllerStallSkipsReconfigurationSilently) {
  // The default schedule reconfigures (and notifies) at 1200us and 1380us
  // into each 1400us week; a stall window over [2500us, 2900us) therefore
  // swallows exactly the third week's circuit-up and teardown notifications
  // -- the fabric reconfigures but no host hears about it.
  FaultPlan plan;
  plan.control.stalls.push_back(ControlFaultSpec::StallWindow{
      SimTime::Micros(2500), SimTime::Micros(2900)});
  const ExperimentResult r =
      RunExperiment(ShortConfig(Variant::kTdtcp).WithFault(plan));
  EXPECT_GT(r.faults_injected, 0u);
  EXPECT_GT(r.notifications_dropped, 0u);  // stall drops count as dropped
  EXPECT_GT(r.goodput_bps, 0.0);
}

TEST(GracefulDegradation, DelayedAndDuplicatedNotificationsAreAbsorbed) {
  FaultPlan plan;
  plan.control.notify_delay_mean = SimTime::Micros(20);
  plan.control.notify_delay_jitter = SimTime::Micros(10);
  plan.control.notify_duplicate_rate = 0.3;
  const ExperimentResult r =
      RunExperiment(ShortConfig(Variant::kTdtcp, 20).WithFault(plan));
  // Duplicates arrive with the same sequence number and land in the hosts'
  // stale filter; heavy delay reorders notifications across switches.
  EXPECT_GT(r.stale_notifications, 0u);
  EXPECT_GT(r.goodput_bps, 0.0);
}

TEST(GracefulDegradation, DelayedNotificationsTraceDeterministically) {
  // Regression: jittered notification delivery must stay on the simulated
  // clock only — any wall-clock or iteration-order dependence shows up as a
  // tracepoint stream (and hence hash) difference between identical runs.
  FaultPlan plan;
  plan.control.notify_delay_mean = SimTime::Micros(20);
  plan.control.notify_delay_jitter = SimTime::Micros(10);
  plan.control.notify_duplicate_rate = 0.2;
  const ExperimentConfig cfg =
      ShortConfig(Variant::kTdtcp, 5).WithFault(plan).WithTrace();
  const ExperimentResult a = RunExperiment(cfg);
  const ExperimentResult b = RunExperiment(cfg);
  EXPECT_GT(a.trace_records, 0u);
  EXPECT_EQ(a.trace_hash, b.trace_hash);
  EXPECT_EQ(a.trace_records, b.trace_records);
}

}  // namespace
}  // namespace tdtcp
