// TDTCP core behavior: per-TDN state isolation and switching (§3.1), the
// four state-management classes (§4.3), relaxed reordering detection with
// the appendix-A.1 cross-TDN scenarios (§3.4), per-TDN RTT sample matching
// and the synthesized RTO (§4.4), and runtime TDN growth (§4.2).
#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "cc/reno.hpp"
#include "tcp/tcp_connection.hpp"
#include "tdtcp/reordering.hpp"
#include "tdtcp/tdn_manager.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::LoopbackHarness;

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

// ---------------------------------------------------------------------------
// TdnManager
// ---------------------------------------------------------------------------

TEST(TdnManager, StartsWithRequestedStates) {
  TdnManager mgr(3, test::RenoTcpConfig());
  EXPECT_EQ(mgr.num_tdns(), 3u);
  EXPECT_EQ(mgr.active_id(), 0);
  for (TdnId i = 0; i < 3; ++i) {
    EXPECT_EQ(mgr.state(i).id, i);
    EXPECT_EQ(mgr.state(i).cwnd, 10u);
    ASSERT_NE(mgr.state(i).cc, nullptr);
  }
}

TEST(TdnManager, SwitchPreservesSnapshots) {
  TdnManager mgr(2, test::RenoTcpConfig());
  mgr.state(0).cwnd = 5;
  mgr.state(1).cwnd = 77;
  EXPECT_TRUE(mgr.SwitchTo(1));
  EXPECT_EQ(mgr.active().cwnd, 77u);
  mgr.active().cwnd = 80;
  mgr.SwitchTo(0);
  EXPECT_EQ(mgr.active().cwnd, 5u);  // untouched while inactive
  mgr.SwitchTo(1);
  EXPECT_EQ(mgr.active().cwnd, 80u);  // resumed from checkpoint
}

TEST(TdnManager, SwitchToSameIsNoOp) {
  TdnManager mgr(2, test::RenoTcpConfig());
  EXPECT_FALSE(mgr.SwitchTo(0));
}

TEST(TdnManager, RuntimeGrowthAllocatesFreshState) {
  TdnManager mgr(2, test::RenoTcpConfig());
  mgr.SwitchTo(4);  // §4.2: new TDN seen for the first time
  EXPECT_EQ(mgr.num_tdns(), 5u);
  EXPECT_EQ(mgr.active_id(), 4);
  EXPECT_EQ(mgr.active().cwnd, 10u);
}

TEST(TdnManager, AllTdnsAggregation) {
  TdnManager mgr(3, test::RenoTcpConfig());
  mgr.state(0).packets_out = 3;
  mgr.state(1).packets_out = 4;
  mgr.state(2).packets_out = 5;
  mgr.state(1).sacked_out = 2;
  EXPECT_EQ(mgr.TotalPacketsOut(), 12u);
  EXPECT_EQ(mgr.TotalPipe(), 10u);
}

TEST(TdnManager, AnyTdnRetransmitRule) {
  TdnManager mgr(2, test::RenoTcpConfig());
  EXPECT_FALSE(mgr.AnyRetransmitPending());
  // lost_out alone is not enough: the state machine must be recovering.
  mgr.state(1).lost_out = 1;
  EXPECT_FALSE(mgr.AnyRetransmitPending());
  mgr.state(1).ca_state = CaState::kRecovery;
  EXPECT_TRUE(mgr.AnyRetransmitPending());
  mgr.state(1).ca_state = CaState::kLoss;
  EXPECT_TRUE(mgr.AnyRetransmitPending());
}

// ---------------------------------------------------------------------------
// Relaxed reordering decision function
// ---------------------------------------------------------------------------

TEST(RelaxedReordering, MatchingTdnIsNotSuspect) {
  TxSegment seg;
  seg.tdn = 1;
  TdnChangePointer ptr;
  ptr.Advance(1000, 1);
  EXPECT_FALSE(SuspectCrossTdnReordering(seg, /*trigger=*/1, ptr));
}

TEST(RelaxedReordering, MismatchedTdnIsSuspect) {
  TxSegment seg;
  seg.tdn = 0;
  TdnChangePointer ptr;
  ptr.Advance(1000, 1);
  EXPECT_TRUE(SuspectCrossTdnReordering(seg, /*trigger=*/1, ptr));
}

// ---------------------------------------------------------------------------
// Per-TDN engine behavior
// ---------------------------------------------------------------------------

TEST(Tdtcp, SegmentsTaggedWithActiveTdn) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  for (auto& p : f.TakeData()) EXPECT_EQ(p.data_tdn, 0);
  // Ack everything, switch TDN, send more: new tags.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt(), {}, 0));
  f.harness.Settle();
  f.TakeData();
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  auto data = f.TakeData();
  ASSERT_FALSE(data.empty());
  for (auto& p : data) EXPECT_EQ(p.data_tdn, 1);
  EXPECT_EQ(f.conn.stats().tdn_switches, 1u);
}

TEST(Tdtcp, PipeAccountedPerTdn) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  EXPECT_EQ(f.conn.tdns().state(0).packets_in_flight(), 10u);
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  // TDN 1 opens its own window on top of TDN 0's outstanding data.
  EXPECT_EQ(f.conn.tdns().state(0).packets_in_flight(), 10u);
  EXPECT_EQ(f.conn.tdns().state(1).packets_in_flight(), 10u);
  EXPECT_EQ(f.conn.tdns().TotalPipe(), 20u);
}

TEST(Tdtcp, AckOnNewTdnCreditsOriginTdn) {
  // §3.1's example: a packet sent on TDN 0 whose ACK returns on TDN 1 must
  // decrement TDN 0's in-flight count even though TDN 1 is active.
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  f.TakeData();
  ASSERT_EQ(f.conn.tdns().state(0).packets_out, 10u);
  // ACK the first two TDN-0 segments, arriving tagged TDN 1.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 2001, {}, /*ack_tdn=*/1));
  EXPECT_EQ(f.conn.tdns().state(0).packets_out, 8u);
}

TEST(Tdtcp, TdnChangePointerAdvancesAtFirstSendOnNewTdn) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt(), {}, 0));
  f.harness.Settle();
  f.TakeData();
  const auto boundary = f.conn.snd_nxt();
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  auto data = f.TakeData();
  ASSERT_FALSE(data.empty());
  EXPECT_EQ(data.front().seq, boundary);
}

TEST(Tdtcp, RelaxedDetectionExemptsCrossTdnHoles) {
  // Appendix A.1 scenario (a): the tail of a high-latency (TDN 0) sending
  // episode is overtaken by low-latency (TDN 1) segments. SACKs for the
  // TDN 1 segments must NOT mark the TDN 0 segments lost.
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();  // 10 TDN-0 segments outstanding (seq 1..10000)
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  f.TakeData();  // 10 TDN-1 segments outstanding (seq 10001..20000)
  // ACKs for the TDN 1 segments arrive first (SACK above the TDN-0 hole).
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{10001, 14001}}, 1));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{10001, 18001}}, 1));
  EXPECT_GT(f.conn.stats().cross_tdn_exemptions, 0u);
  EXPECT_EQ(f.conn.stats().retransmissions, 0u);
  EXPECT_EQ(f.conn.tdns().state(0).lost_out, 0u);
  // TDN 0 remains Open (Fig. 4): it is allowed to keep sending full speed.
  EXPECT_NE(f.conn.tdns().state(0).ca_state, CaState::kRecovery);
  // The delayed TDN-0 ACK then arrives: everything resolves, no loss.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 10001, {{10001, 18001}}, 0));
  EXPECT_EQ(f.conn.stats().retransmissions, 0u);
}

TEST(Tdtcp, SameTdnHolesStillMarkedLost) {
  // A hole whose segments share the ACK's TDN is a genuine loss candidate;
  // the relaxed heuristic only exempts mismatched TDNs (Fig. 4's pink
  // segment enters Recovery).
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}, 0));
  EXPECT_GT(f.conn.tdns().state(0).lost_out +
                f.conn.send_queue().CountRetrans(), 0u);
  EXPECT_EQ(f.conn.tdns().state(0).ca_state, CaState::kRecovery);
}

TEST(Tdtcp, RelaxedDetectionDisabledByAblation) {
  TcpConfig c = TdtcpConfig();
  c.relaxed_reordering = false;
  TdtcpFixture f(c);
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  f.TakeData();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{10001, 14001}}, 1));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{10001, 18001}}, 1));
  f.harness.Settle();
  // Without the heuristic the cross-TDN hole is declared lost immediately.
  EXPECT_EQ(f.conn.stats().cross_tdn_exemptions, 0u);
  EXPECT_GT(f.conn.stats().retransmissions, 0u);
}

TEST(Tdtcp, CrossTdnTrueTailLossEventuallyRecovered) {
  // §3.4: "for cases where lost segments with a different TDN ID are true
  // tail losses, TDTCP relies on RACK-TLP to recover".
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();  // TDN-0 segments 1..10000 — and they really are lost
  f.conn.OnTdnChange(1, false);
  f.harness.Settle();
  f.TakeData();
  // Establish RTT so patience windows are meaningful.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{10001, 18001}}, 1));
  const auto before = f.sim.now();
  f.sim.RunUntil(before + SimTime::Millis(12));
  // The TDN-0 data was genuinely lost; some recovery (timeout- or
  // patience-driven) must have retransmitted it.
  EXPECT_GT(f.conn.stats().retransmissions, 0u);
}

TEST(Tdtcp, PerTdnRttSampleMatching) {
  // §4.4: type-1/2 samples (data and ACK on the same TDN) feed that TDN's
  // estimator; type-3 mixed samples are dropped.
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  // ACK two segments on TDN 0 after 100us: valid type-1 samples.
  f.sim.RunUntil(SimTime::Micros(100) + f.sim.now());
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 2001, {}, 0));
  EXPECT_TRUE(f.conn.tdns().state(0).rtt.has_sample());
  const auto samples_before = f.conn.tdns().state(0).rtt.samples();
  // Next ACK returns on TDN 1: type-3, discarded.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 4001, {}, 1));
  EXPECT_EQ(f.conn.tdns().state(0).rtt.samples(), samples_before);
  EXPECT_FALSE(f.conn.tdns().state(1).rtt.has_sample());
  EXPECT_GT(f.conn.stats().rtt_samples_dropped, 0u);
}

TEST(Tdtcp, RttMatchingDisabledByAblation) {
  TcpConfig c = TdtcpConfig();
  c.per_tdn_rtt = false;
  TdtcpFixture f(c);
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.sim.RunUntil(SimTime::Micros(100) + f.sim.now());
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 2001, {}, 1));  // mixed
  // Ablated: the sample is taken anyway (credited to the data's TDN).
  EXPECT_TRUE(f.conn.tdns().state(0).rtt.has_sample());
  EXPECT_EQ(f.conn.stats().rtt_samples_dropped, 0u);
}

TEST(Tdtcp, ImminentNoticeDoesNotSwitchState) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.OnTdnChange(1, /*imminent=*/true);
  EXPECT_EQ(f.conn.tdns().active_id(), 0);
  EXPECT_EQ(f.conn.stats().tdn_switches, 0u);
}

TEST(Tdtcp, NotificationForUnknownTdnGrowsStateSet) {
  TdtcpFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.OnTdnChange(5, false);
  EXPECT_EQ(f.conn.tdns().num_tdns(), 6u);
  EXPECT_EQ(f.conn.tdns().active_id(), 5);
}

TEST(Tdtcp, NonTdtcpConnectionIgnoresNotifications) {
  TcpConfig c = TdtcpConfig();
  c.tdtcp_enabled = false;
  c.num_tdns = 1;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  h.Settle();
  Packet syn = h.out.Pop();
  conn.HandlePacket(LoopbackHarness::SynAckFor(syn, false, 0));
  conn.OnTdnChange(1, false);
  EXPECT_EQ(conn.tdns().active_id(), 0);
  EXPECT_EQ(conn.tdns().num_tdns(), 1u);
}

TEST(Tdtcp, SynthesizedRtoSurvivesCrossTdnAckDelay) {
  // A segment sent on the fast TDN right before a switch has its ACK
  // delayed by the slow TDN. The synthesized RTO must not fire spuriously.
  TcpConfig c = TdtcpConfig();
  c.rtt.min_rto = SimTime::Micros(50);  // make the RTO floor irrelevant
  TdtcpFixture f(c);
  // Train both estimators: TDN 0 slow (200us), TDN 1 fast (40us).
  for (int i = 0; i < 60; ++i) {
    f.conn.tdns().state(0).rtt.AddSample(SimTime::Micros(200));
    f.conn.tdns().state(1).rtt.AddSample(SimTime::Micros(40));
  }
  f.conn.OnTdnChange(1, false);
  f.conn.AddAppData(5000);  // only TDN-1 segments in flight
  f.harness.Settle();
  f.TakeData();
  const auto timeouts_before = f.conn.stats().timeouts;
  // 110us passes: more than TDN 1's own RTO (~40-90us) but less than the
  // synthesized ½*40 + ½*200 = 120us + variance guard.
  f.sim.RunUntil(f.sim.now() + SimTime::Micros(110));
  EXPECT_EQ(f.conn.stats().timeouts, timeouts_before);
}

TEST(Tdtcp, AblatedSynthesizedRtoFiresEarly) {
  TcpConfig c = TdtcpConfig();
  c.rtt.min_rto = SimTime::Micros(50);
  c.synthesized_rto = false;
  c.tlp_enabled = false;
  TdtcpFixture f(c);
  for (int i = 0; i < 60; ++i) {
    f.conn.tdns().state(0).rtt.AddSample(SimTime::Micros(200));
    f.conn.tdns().state(1).rtt.AddSample(SimTime::Micros(40));
  }
  f.conn.OnTdnChange(1, false);
  f.conn.AddAppData(5000);
  f.harness.Settle();
  f.TakeData();
  const auto timeouts_before = f.conn.stats().timeouts;
  f.sim.RunUntil(f.sim.now() + SimTime::Micros(110));
  // Without synthesis the fast TDN's own RTO fires before the delayed ACK
  // could possibly arrive.
  EXPECT_GT(f.conn.stats().timeouts, timeouts_before);
}

}  // namespace
}  // namespace tdtcp
