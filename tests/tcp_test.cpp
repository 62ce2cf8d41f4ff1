// TCP engine behavior: handshake + TD_CAPABLE negotiation, transfer,
// SACK-based loss detection, recovery state machine, DSACK undo, RTO with
// backoff, TLP, ECN/CWR, flow control.
#include <gtest/gtest.h>

#include <stdexcept>

#include "cc/reno.hpp"
#include "cc/registry.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::CaptureSink;
using test::LoopbackHarness;
using test::PairHarness;

TcpConfig BaseConfig() {
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  return c;
}

// Drives the client side of the handshake against hand-crafted packets.
struct ClientFixture {
  explicit ClientFixture(TcpConfig config = BaseConfig())
      : harness(sim), conn(sim, &harness.host, 1, 99, config) {
    Establish();
  }

  void Establish() {
    conn.Connect();
    harness.Settle();
    ASSERT_FALSE(harness.out.Empty());
    Packet syn = harness.out.Pop();
    ASSERT_TRUE(syn.syn);
    conn.HandlePacket(LoopbackHarness::SynAckFor(
        syn, conn.config().tdtcp_enabled, conn.config().num_tdns));
    harness.Settle();
    harness.out.packets.clear();  // drop the final handshake ACK
    ASSERT_EQ(conn.state(), TcpConnection::State::kEstablished);
  }

  // Collects the data segments currently captured.
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

TEST(Construction, NullHostThrows) {
  Simulator sim;
  EXPECT_THROW(TcpConnection(sim, nullptr, 1, 99, BaseConfig()),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Handshake and negotiation
// ---------------------------------------------------------------------------

TEST(Handshake, SynCarriesTdCapable) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  h.Settle();
  Packet syn = h.out.Pop();
  EXPECT_TRUE(syn.syn);
  EXPECT_TRUE(syn.td_capable);
  EXPECT_EQ(syn.td_num_tdns, 2);
  EXPECT_EQ(conn.state(), TcpConnection::State::kSynSent);
}

TEST(Handshake, TdtcpNegotiationSucceeds) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  ClientFixture f(c);
  EXPECT_TRUE(f.conn.tdtcp_active());
}

TEST(Handshake, MismatchedTdnCountDowngrades) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  h.Settle();
  Packet syn = h.out.Pop();
  conn.HandlePacket(LoopbackHarness::SynAckFor(syn, true, 3));  // peer has 3
  EXPECT_EQ(conn.state(), TcpConnection::State::kEstablished);
  EXPECT_FALSE(conn.tdtcp_active());
}

TEST(Handshake, NonCapablePeerDowngrades) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  h.Settle();
  Packet syn = h.out.Pop();
  conn.HandlePacket(LoopbackHarness::SynAckFor(syn, false, 0));
  EXPECT_FALSE(conn.tdtcp_active());
}

TEST(Handshake, SynAccountedOnTdnZero) {
  // Appendix A.2: the SYN is always tracked under TDN 0.
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  EXPECT_EQ(conn.tdns().state(0).packets_out, 1u);
  EXPECT_EQ(conn.tdns().state(1).packets_out, 0u);
}

TEST(Handshake, SynRetransmittedOnTimeout) {
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, BaseConfig());
  conn.Connect();
  sim.RunUntil(SimTime::Millis(5));  // several initial RTOs (1ms base)
  int syns = 0;
  for (auto& p : h.out.packets) {
    if (p.syn) ++syns;
  }
  EXPECT_GE(syns, 2);
  EXPECT_EQ(conn.state(), TcpConnection::State::kSynSent);
  // The late SYN/ACK still completes the handshake cleanly.
  conn.HandlePacket(
      LoopbackHarness::SynAckFor(h.out.packets.front(), false, 0));
  EXPECT_EQ(conn.state(), TcpConnection::State::kEstablished);
  EXPECT_EQ(conn.tdns().state(0).packets_out, 0u);
  EXPECT_EQ(conn.tdns().state(0).packets_in_flight(), 0u);
}

TEST(Handshake, ServerSideListenAcceptsSyn) {
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection server(sim, &h.host, 1, 99, BaseConfig());
  server.Listen();
  Packet syn;
  syn.type = PacketType::kData;
  syn.flow = 1;
  syn.syn = true;
  syn.src = 99;
  syn.size_bytes = 60;
  server.HandlePacket(std::move(syn));
  h.Settle();
  EXPECT_EQ(server.state(), TcpConnection::State::kSynReceived);
  Packet synack = h.out.Pop();
  EXPECT_TRUE(synack.syn);
  EXPECT_EQ(synack.ack, 1u);
  // Final ACK establishes.
  server.HandlePacket(LoopbackHarness::Ack(1, 1));
  EXPECT_EQ(server.state(), TcpConnection::State::kEstablished);
}

// ---------------------------------------------------------------------------
// Sending and ACK processing
// ---------------------------------------------------------------------------

TEST(Transfer, InitialWindowLimitsBurst) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  EXPECT_EQ(f.TakeData().size(), 10u);  // initial cwnd
  EXPECT_EQ(f.conn.tdns().active().packets_in_flight(), 10u);
}

TEST(Transfer, AckAdvancesAndReleasesMore) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1 + 2 * 1000));
  f.harness.Settle();
  EXPECT_EQ(f.conn.snd_una(), 2001u);
  EXPECT_EQ(f.conn.bytes_acked(), 2000u);
  // Slow start: 2 acked -> cwnd 12 -> 4 new segments (2 freed + 2 growth).
  EXPECT_EQ(f.TakeData().size(), 4u);
}

TEST(Transfer, FiniteDataStopsAtEnd) {
  ClientFixture f;
  f.conn.AddAppData(2500);  // 2.5 segments
  f.harness.Settle();
  auto data = f.TakeData();
  ASSERT_EQ(data.size(), 3u);
  EXPECT_EQ(data[2].payload, 500u);
  EXPECT_EQ(f.conn.snd_nxt(), 2501u);
}

TEST(Transfer, StaleAckIgnored) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 3001));
  const auto una = f.conn.snd_una();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 2001));  // old
  EXPECT_EQ(f.conn.snd_una(), una);
}

TEST(Transfer, AckBeyondSndNxtIgnored) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1'000'000));
  EXPECT_EQ(f.conn.snd_una(), 1u);
}

TEST(Transfer, RwndZeroStallsSender) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  Packet ack = LoopbackHarness::Ack(1, 10'001);
  ack.rcv_window = 0;  // close the window
  f.conn.HandlePacket(std::move(ack));
  f.harness.Settle();
  EXPECT_TRUE(f.TakeData().empty());
  // Window reopens.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 10'001));
  f.harness.Settle();
  EXPECT_FALSE(f.TakeData().empty());
}

// ---------------------------------------------------------------------------
// Loss detection and recovery
// ---------------------------------------------------------------------------

TEST(Recovery, SackTriggersFastRetransmit) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  // Segment 1 (seq 1..1001) lost; SACKs accumulate above it.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 2001}}));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 3001}}));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 4001}}));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  f.harness.Settle();
  EXPECT_EQ(f.conn.tdns().active().ca_state, CaState::kRecovery);
  EXPECT_GE(f.conn.stats().retransmissions, 1u);
  // The head was retransmitted (limited transmit may interleave new data).
  auto sent = f.TakeData();
  bool head_retransmitted = false;
  for (auto& p : sent) head_retransmitted |= (p.seq == 1);
  EXPECT_TRUE(head_retransmitted);
}

TEST(Recovery, PrrReducesWindowTowardSsthresh) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  const auto before = f.conn.tdns().active().cwnd;
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  // Reno ssthresh is half; PRR holds cwnd near pipe+1 rather than jumping.
  EXPECT_EQ(f.conn.tdns().active().ssthresh, before / 2);
  EXPECT_LT(f.conn.tdns().active().cwnd, before);
  EXPECT_GE(f.conn.tdns().active().cwnd,
            f.conn.tdns().active().packets_in_flight());
}

TEST(Recovery, ExitsWhenHighSeqAcked) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  ASSERT_EQ(f.conn.tdns().active().ca_state, CaState::kRecovery);
  const auto high = f.conn.snd_nxt();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, high));
  EXPECT_EQ(f.conn.tdns().active().ca_state, CaState::kOpen);
  // tcp_end_cwnd_reduction: the window lands at (or near, after the exit
  // ACK's growth step) ssthresh.
  EXPECT_LE(f.conn.tdns().active().cwnd,
            f.conn.tdns().active().ssthresh + 2);
}

TEST(Recovery, PipeAccountingConsistentThroughRecovery) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  f.harness.Settle();
  const auto& st = f.conn.tdns().active();
  EXPECT_EQ(st.sacked_out, f.conn.send_queue().CountSacked());
  EXPECT_EQ(st.lost_out, f.conn.send_queue().CountLost());
  EXPECT_EQ(st.retrans_out, f.conn.send_queue().CountRetrans());
  EXPECT_EQ(st.packets_out, f.conn.send_queue().size());
}

TEST(Recovery, RetransmissionNotRemarkedWhileInFlight) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  f.harness.Settle();
  const auto rtx_after_first = f.conn.stats().retransmissions;
  EXPECT_GE(rtx_after_first, 1u);
  // More SACKs arrive; the head's retransmission is in flight and must not
  // be resent on every ACK.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 6001}}));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 7001}}));
  EXPECT_EQ(f.conn.stats().retransmissions, rtx_after_first);
}

TEST(Rtt, SackedSegmentFeedsEstimator) {
  // Linux sack_rtt: a newly SACKed, never-retransmitted segment is a valid
  // RTT sample even when the cumulative ACK does not move. Without it a
  // sender whose in-order head is lost but whose later segments are SACKed
  // keeps RTO at initial_rto with no feedback from the live path.
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  const SimTime before = f.conn.tdns().active().rtt.srtt();
  // The segment sat in flight for 400us before the SACK-only dupACK.
  f.sim.RunUntil(f.sim.now() + SimTime::Micros(400));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 2001}}));
  EXPECT_GT(f.conn.tdns().active().rtt.srtt(), before);
}

TEST(Rtt, SackSampleRespectsKarn) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  // Fast-retransmit the head, then let plenty of time pass.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  f.harness.Settle();
  ASSERT_GE(f.conn.stats().retransmissions, 1u);
  const SimTime before = f.conn.tdns().active().rtt.srtt();
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(5));
  // A SACK finally covering the retransmitted head is ambiguous (original
  // or retransmission?): Karn says no sample.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1, 1001}}));
  EXPECT_EQ(f.conn.tdns().active().rtt.srtt(), before);
}

TEST(Undo, DsackRestoresWindowAfterSpuriousRecovery) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  const auto cwnd_before = f.conn.tdns().active().cwnd;
  // Spurious loss detection: segment 1 was merely delayed.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  f.harness.Settle();
  ASSERT_GE(f.conn.stats().retransmissions, 1u);
  // The original arrives: cumulative ACK advances.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 5001));
  // The retransmission arrives as a duplicate: DSACK proves it spurious.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 5001, {{1, 1001}}));
  EXPECT_GE(f.conn.stats().undo_events, 1u);
  EXPECT_GE(f.conn.tdns().active().cwnd, cwnd_before);
  EXPECT_NE(f.conn.tdns().active().ca_state, CaState::kRecovery);
}

TEST(Rto, FiresAndEntersLoss) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(3));
  EXPECT_GE(f.conn.stats().timeouts, 1u);
  EXPECT_EQ(f.conn.tdns().active().ca_state, CaState::kLoss);
  auto rtx = f.TakeData();
  ASSERT_GE(rtx.size(), 1u);
  EXPECT_EQ(rtx[0].seq, 1u);
}

TEST(Rto, ExponentialBackoff) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(3));
  const auto timeouts_3ms = f.conn.stats().timeouts;
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(60));
  const auto timeouts_60ms = f.conn.stats().timeouts;
  // Backoff doubles the interval, so 20x more time yields far fewer than
  // 20x more timeouts.
  EXPECT_LT(timeouts_60ms, timeouts_3ms + 8);
}

TEST(Rto, RecoversAfterLoss) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(3));  // RTO fired
  // Receiver now acks everything outstanding.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt()));
  f.harness.Settle();
  EXPECT_EQ(f.conn.tdns().active().ca_state, CaState::kOpen);
  EXPECT_FALSE(f.TakeData().empty());  // transmission resumed
}

TEST(Rto, RepeatedTimeoutWithSackedRetransmissionKeepsPipeSane) {
  // Regression: a segment whose retransmission was in flight when its
  // original got SACKed must not be double-counted (sacked + lost) by a
  // repeated timeout — that underflows the pipe and deadlocks the flow.
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  // Head marked lost and retransmitted.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1001, 5001}}));
  f.harness.Settle();
  ASSERT_GE(f.conn.stats().retransmissions, 1u);
  // The "lost" original now gets SACKed (it was only delayed).
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1, {{1, 1001}}));
  // Silence: RTO fires repeatedly (first and repeated timeouts).
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(40));
  EXPECT_GE(f.conn.stats().timeouts, 2u);
  for (std::size_t i = 0; i < f.conn.tdns().num_tdns(); ++i) {
    EXPECT_LT(f.conn.tdns().state(static_cast<TdnId>(i)).packets_in_flight(),
              1u << 30);
  }
  // The flow can still finish once connectivity "returns".
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt()));
  f.harness.Settle();
  EXPECT_FALSE(f.TakeData().empty());
}

TEST(Tlp, ProbesTailLoss) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  // ACK all but the last segment; the tail is "lost" (no further SACKs).
  f.conn.HandlePacket(LoopbackHarness::Ack(1, 1 + 9 * 1000));
  f.harness.Settle();
  f.TakeData();
  // TLP (2*srtt floor 300us) fires well before the RTO.
  f.sim.RunUntil(f.sim.now() + SimTime::Micros(450));
  EXPECT_GE(f.conn.stats().tlp_probes, 1u);
  EXPECT_EQ(f.conn.stats().timeouts, 0u);
}

TEST(Tlp, RtoCancelsPendingProbe) {
  // Regression: with a converged low-variance RTT, the RTO (srtt + 4*rttvar)
  // fires before the TLP's 2*srtt deadline. The timeout must cancel the
  // armed probe — a TLP left pending would fire mid-Loss and inject a stray
  // retransmission into the reduced pipe.
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  // Converge srtt to ~600us with negligible variance: each ACK arrives
  // 600us after the segments it covers were sent.
  for (int i = 0; i < 20; ++i) {
    f.sim.RunUntil(f.sim.now() + SimTime::Micros(600));
    f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt()));
  }
  // Final partial ACK leaves a tail outstanding, so this ACK arms a TLP
  // (2*srtt ~ 1.2ms). The unacked tail is already ~600us old, putting its
  // RTO deadline well before the probe's.
  f.sim.RunUntil(f.sim.now() + SimTime::Micros(600));
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt() - 5000));
  f.TakeData();
  ASSERT_EQ(f.conn.stats().timeouts, 0u);
  ASSERT_EQ(f.conn.stats().tlp_probes, 0u);
  // Silence. The RTO fires first and must supersede the armed TLP.
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(5));
  EXPECT_GE(f.conn.stats().timeouts, 1u);
  EXPECT_EQ(f.conn.stats().tlp_probes, 0u)
      << "a stale TLP fired after the RTO took over";
}

// ---------------------------------------------------------------------------
// Zero-window persist
// ---------------------------------------------------------------------------

TEST(Persist, ZeroWindowProbesWithBackoffUntilReopen) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  f.TakeData();
  // Everything delivered, but the receiver's buffer is full: without a
  // persist timer both sides would now wait on each other forever (the
  // reopening window update is a pure ACK and is not retransmitted).
  Packet ack = LoopbackHarness::Ack(1, f.conn.snd_nxt());
  ack.rcv_window = 0;
  f.conn.HandlePacket(std::move(ack));
  f.harness.Settle();
  EXPECT_TRUE(f.TakeData().empty());
  ASSERT_TRUE(f.conn.persist_timer_armed());

  // First 1-byte window probe after about one RTO.
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(2));
  EXPECT_GE(f.conn.stats().persist_probes, 1u);
  auto probes = f.TakeData();
  ASSERT_FALSE(probes.empty());
  EXPECT_EQ(probes.front().payload, 1u);
  const auto probe_seq = probes.front().seq;

  // The probe is real new data, so once it is outstanding the RTO machinery
  // owns the clock: the probe byte is re-offered with the RTO's exponential
  // backoff (RFC 9293's "increase exponentially the interval between
  // successive probes"), not once per RTO.
  const auto timeouts_before = f.conn.stats().timeouts;
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(60));
  const auto rexmits = f.conn.stats().timeouts - timeouts_before;
  EXPECT_GE(rexmits, 2u);
  EXPECT_LT(rexmits, 10u);
  auto reprobes = f.TakeData();
  ASSERT_FALSE(reprobes.empty());
  for (const Packet& p : reprobes) {
    EXPECT_EQ(p.payload, 1u);
    EXPECT_EQ(p.seq, probe_seq);  // always the same single byte
  }

  // The window reopens: persist mode ends and the transfer resumes.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt()));
  f.harness.Settle();
  EXPECT_FALSE(f.conn.persist_timer_armed());
  EXPECT_FALSE(f.TakeData().empty());
  // And stays quiet: no further probes once the window is open.
  const auto settled = f.conn.stats().persist_probes;
  f.sim.RunUntil(f.sim.now() + SimTime::Millis(20));
  EXPECT_EQ(f.conn.stats().persist_probes, settled);
}

// ---------------------------------------------------------------------------
// ECN
// ---------------------------------------------------------------------------

TEST(Ecn, EceEntersCwrOncePerWindow) {
  TcpConfig c = BaseConfig();
  c.ecn_enabled = true;
  ClientFixture f(c);
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  auto data = f.TakeData();
  EXPECT_EQ(data[0].ecn, Ecn::kEct0);
  const auto before = f.conn.tdns().active().cwnd;
  Packet e1 = LoopbackHarness::Ack(1, 1001);
  e1.ece = true;
  f.conn.HandlePacket(std::move(e1));
  EXPECT_EQ(f.conn.tdns().active().ca_state, CaState::kCwr);
  const auto ssthresh = f.conn.tdns().active().ssthresh;
  EXPECT_EQ(ssthresh, before / 2);  // reno reduction target
  // A second ECE within the same window must not re-reduce ssthresh.
  Packet e2 = LoopbackHarness::Ack(1, 2001);
  e2.ece = true;
  f.conn.HandlePacket(std::move(e2));
  EXPECT_EQ(f.conn.tdns().active().ssthresh, ssthresh);
  // Window completes -> back to Open with cwnd at the reduction target.
  f.conn.HandlePacket(LoopbackHarness::Ack(1, f.conn.snd_nxt()));
  EXPECT_EQ(f.conn.tdns().active().ca_state, CaState::kOpen);
  EXPECT_LE(f.conn.tdns().active().cwnd, ssthresh + 1);
}

TEST(Ecn, DataNotEctWhenDisabled) {
  ClientFixture f;
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  EXPECT_EQ(f.TakeData()[0].ecn, Ecn::kNotEct);
}

// ---------------------------------------------------------------------------
// End-to-end over real links (PairHarness)
// ---------------------------------------------------------------------------

TEST(EndToEnd, HandshakeAndBulkTransfer) {
  Simulator sim;
  PairHarness net(sim);
  TcpConfig c = BaseConfig();
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  server.Listen();
  client.Connect();
  client.AddAppData(500'000);
  sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(client.bytes_acked(), 500'000u);
  EXPECT_EQ(server.stats().bytes_received, 500'000u);
  EXPECT_EQ(server.rcv_nxt(), 500'001u);
}

TEST(EndToEnd, DeliveryExactlyOnceUnderHeavyLoss) {
  Simulator sim;
  PairHarness::Options opt;
  opt.queue_capacity = 3;  // brutal: frequent tail drops
  PairHarness net(sim, opt);
  TcpConfig c = BaseConfig();
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  std::uint64_t delivered = 0;
  std::uint64_t max_seq_end = 0;
  server.SetDeliverCallback([&](const TcpConnection::DeliverInfo& d) {
    delivered += d.len;
    EXPECT_EQ(d.stream_seq, max_seq_end + 1);  // strictly in-order
    max_seq_end = d.stream_seq + d.len - 1;
  });
  server.Listen();
  client.Connect();
  client.AddAppData(300'000);
  sim.RunUntil(SimTime::Millis(200));
  EXPECT_EQ(delivered, 300'000u);
  EXPECT_EQ(client.bytes_acked(), 300'000u);
  EXPECT_GT(client.stats().retransmissions, 0u);
}

TEST(EndToEnd, ThroughputApproachesLineRate) {
  Simulator sim;
  PairHarness::Options opt;
  opt.rate_bps = 1'000'000'000;  // 1 Gbps, 10us one-way delay
  opt.queue_capacity = 64;
  PairHarness net(sim, opt);
  TcpConfig c = BaseConfig();
  c.mss = 9000;
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  server.Listen();
  client.Connect();
  client.SetUnlimitedData(true);
  sim.RunUntil(SimTime::Millis(50));
  const double goodput = static_cast<double>(client.bytes_acked()) * 8 / 50e-3;
  EXPECT_GT(goodput, 0.85e9);
  EXPECT_LT(goodput, 1.01e9);
}

TEST(EndToEnd, DowngradeMidConnectionKeepsWorking) {
  Simulator sim;
  PairHarness net(sim);
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  server.Listen();
  client.Connect();
  client.SetUnlimitedData(true);
  sim.RunUntil(SimTime::Millis(5));
  ASSERT_TRUE(client.tdtcp_active());
  const auto at_downgrade = client.bytes_acked();
  EXPECT_GT(at_downgrade, 0u);
  client.DowngradeToRegularTcp();  // §4.2 debugging feature
  EXPECT_FALSE(client.tdtcp_active());
  sim.RunUntil(SimTime::Millis(10));
  EXPECT_GT(client.bytes_acked(), at_downgrade);
}

}  // namespace
}  // namespace tdtcp
