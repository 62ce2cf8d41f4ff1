// RTT estimation, the TDTCP synthesized timeout (§4.4), and Karn's rules
// for the exponential RTO backoff.
#include <gtest/gtest.h>

#include "cc/registry.hpp"
#include "cc/reno.hpp"
#include "tcp/rtt_estimator.hpp"
#include "tcp/tcp_connection.hpp"
#include "tdtcp/tdn_manager.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::LoopbackHarness;

TEST(RttEstimator, FirstSampleInitializes) {
  RttEstimator e;
  EXPECT_FALSE(e.has_sample());
  e.AddSample(SimTime::Micros(100));
  EXPECT_TRUE(e.has_sample());
  EXPECT_EQ(e.srtt(), SimTime::Micros(100));
  EXPECT_EQ(e.rttvar(), SimTime::Micros(50));
  EXPECT_EQ(e.min_rtt(), SimTime::Micros(100));
}

TEST(RttEstimator, ConvergesToStableRtt) {
  RttEstimator e;
  for (int i = 0; i < 200; ++i) e.AddSample(SimTime::Micros(100));
  EXPECT_EQ(e.srtt(), SimTime::Micros(100));
  EXPECT_LT(e.rttvar(), SimTime::Micros(2));
}

TEST(RttEstimator, TracksShiftingRtt) {
  RttEstimator e;
  for (int i = 0; i < 50; ++i) e.AddSample(SimTime::Micros(40));
  for (int i = 0; i < 200; ++i) e.AddSample(SimTime::Micros(120));
  EXPECT_GT(e.srtt(), SimTime::Micros(110));
  EXPECT_EQ(e.min_rtt(), SimTime::Micros(40));
}

TEST(RttEstimator, MixedSamplesLandBetween) {
  // The failure mode §3.1 describes: merging two TDNs' samples yields an
  // estimate wrong for both.
  RttEstimator e;
  for (int i = 0; i < 300; ++i) {
    e.AddSample(SimTime::Micros(i % 2 == 0 ? 40 : 100));
  }
  EXPECT_GT(e.srtt(), SimTime::Micros(50));
  EXPECT_LT(e.srtt(), SimTime::Micros(90));
}

TEST(RttEstimator, RtoBeforeSamplesIsInitial) {
  RttEstimator e;
  EXPECT_EQ(e.Rto(), RttEstimator::Config{}.initial_rto);
}

TEST(RttEstimator, RtoFormulaAndClamp) {
  RttEstimator::Config cfg;
  cfg.min_rto = SimTime::Micros(500);
  cfg.max_rto = SimTime::Millis(2);
  RttEstimator e(cfg);
  for (int i = 0; i < 200; ++i) e.AddSample(SimTime::Micros(50));
  // srtt + 4*rttvar ~ 50us -> clamped up to min_rto.
  EXPECT_EQ(e.Rto(), SimTime::Micros(500));

  RttEstimator big(cfg);
  for (int i = 0; i < 10; ++i) big.AddSample(SimTime::Millis(5));
  EXPECT_EQ(big.Rto(), SimTime::Millis(2));  // clamped down to max
}

TEST(RttEstimator, IgnoresNonPositiveSamples) {
  RttEstimator e;
  e.AddSample(SimTime::Zero());
  e.AddSample(SimTime::Micros(-5));
  EXPECT_FALSE(e.has_sample());
}

TEST(RttEstimator, SynthesizedRtoUsesSlowestTdn) {
  RttEstimator::Config cfg;
  cfg.min_rto = SimTime::Micros(10);
  RttEstimator fast(cfg), slow(cfg);
  for (int i = 0; i < 300; ++i) {
    fast.AddSample(SimTime::Micros(40));
    slow.AddSample(SimTime::Micros(200));
  }
  // ½*40 + ½*200 = 120us plus variance guard.
  const SimTime rto = fast.SynthesizedRto(slow);
  EXPECT_GE(rto, SimTime::Micros(120));
  EXPECT_LT(rto, SimTime::Micros(200));
  // Synthesizing against itself reduces to the plain formula's scale.
  EXPECT_LT(fast.SynthesizedRto(fast), SimTime::Micros(60));
}

TEST(RttEstimator, SynthesizedRtoWithoutSlowSamplesFallsBack) {
  RttEstimator fast, empty;
  for (int i = 0; i < 10; ++i) fast.AddSample(SimTime::Micros(40));
  EXPECT_EQ(fast.SynthesizedRto(empty), fast.SynthesizedRto(fast));
}

// ---------------------------------------------------------------------------
// TdnManager RTT plumbing
// ---------------------------------------------------------------------------

TEST(TdnManager, SlowestRttSelection) {
  TdnManager mgr(3, test::RenoTcpConfig());
  for (int i = 0; i < 50; ++i) {
    mgr.state(0).rtt.AddSample(SimTime::Micros(100));
    mgr.state(1).rtt.AddSample(SimTime::Micros(40));
    mgr.state(2).rtt.AddSample(SimTime::Micros(150));
  }
  EXPECT_EQ(&mgr.SlowestRtt(0), &mgr.state(2).rtt);
}

TEST(TdnManager, SlowestRttIgnoresEmptyEstimators) {
  TdnManager mgr(2, test::RenoTcpConfig());
  for (int i = 0; i < 50; ++i) mgr.state(0).rtt.AddSample(SimTime::Micros(40));
  EXPECT_EQ(&mgr.SlowestRtt(0), &mgr.state(0).rtt);
}

TEST(TdnManager, RtoForSynthesizedVsPlain) {
  TcpConfig cfg = test::RenoTcpConfig();
  cfg.rtt.min_rto = SimTime::Micros(10);
  TdnManager mgr(2, cfg);
  for (int i = 0; i < 300; ++i) {
    mgr.state(0).rtt.AddSample(SimTime::Micros(200));
    mgr.state(1).rtt.AddSample(SimTime::Micros(40));
  }
  // Plain RTO for the fast TDN is small; synthesized is pessimistic.
  EXPECT_LT(mgr.RtoFor(1, false), SimTime::Micros(80));
  EXPECT_GE(mgr.RtoFor(1, true), SimTime::Micros(120));
}

// ---------------------------------------------------------------------------
// Karn's algorithm and the RTO backoff
// ---------------------------------------------------------------------------

TEST(Karn, BackoffOnlyResetByAckOfFreshData) {
  // An ACK that covers only retransmitted data is ambiguous — it may
  // acknowledge the original transmission, so it proves nothing about the
  // current path delay and must not reset the exponential backoff. Only an
  // ACK of never-retransmitted data may.
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  Simulator sim;
  LoopbackHarness harness(sim);
  TcpConnection conn(sim, &harness.host, 1, 99, c);
  conn.Connect();
  harness.Settle();
  Packet syn = harness.out.Pop();
  conn.HandlePacket(LoopbackHarness::SynAckFor(syn, false, 1));
  harness.Settle();
  conn.SetUnlimitedData(true);
  harness.Settle();
  harness.out.packets.clear();

  // Silence long enough for repeated timeouts: the head is retransmitted on
  // each, and the backoff climbs.
  sim.RunUntil(sim.now() + SimTime::Millis(4));
  const std::uint32_t backoff = conn.rto_backoff();
  ASSERT_GE(conn.stats().timeouts, 2u);
  ASSERT_GE(backoff, 2u);

  // Cumulative ACK of exactly the (retransmitted) head: Karn says hold.
  conn.HandlePacket(LoopbackHarness::Ack(1, 1001));
  harness.Settle();
  EXPECT_EQ(conn.rto_backoff(), backoff)
      << "backoff reset by an ACK of retransmitted-only data";

  // Cumulative ACK through data that was never retransmitted: the path is
  // demonstrably live, so the backoff resets.
  conn.HandlePacket(LoopbackHarness::Ack(1, conn.snd_nxt()));
  EXPECT_EQ(conn.rto_backoff(), 0u);
}

}  // namespace
}  // namespace tdtcp
