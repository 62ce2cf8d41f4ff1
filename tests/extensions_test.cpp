// Extensions beyond the paper's evaluation testbed: sender pacing (§5.2's
// suggested mitigation), per-TDN congestion-control mixing (§3.5), the
// multi-rack RotorNet controller with per-destination notifications (§6),
// and the full appendix-A.1 cross-TDN arrival scenario catalogue.
#include <gtest/gtest.h>

#include "app/workload.hpp"
#include "cc/registry.hpp"
#include "rdcn/rotor_controller.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::LoopbackHarness;
using test::TdnCallback;

TcpConfig BaseConfig() {
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  return c;
}

// ---------------------------------------------------------------------------
// Sender pacing
// ---------------------------------------------------------------------------

struct PacedFixture {
  explicit PacedFixture(TcpConfig config)
      : harness(sim), conn(sim, &harness.host, 1, 99, config) {
    conn.Connect();
    harness.Settle();
    Packet syn = harness.out.Pop();
    conn.HandlePacket(LoopbackHarness::SynAckFor(syn, false, 0));
    harness.Settle();
    harness.out.packets.clear();
  }
  Simulator sim;
  LoopbackHarness harness;
  TcpConnection conn;
};

TEST(Pacing, SpreadsWindowOverSrtt) {
  TcpConfig c = BaseConfig();
  c.pacing_enabled = true;
  c.pacing_gain = 1.0;
  PacedFixture f(c);
  // Train srtt to 100us, then release a 10-segment window.
  f.conn.tdns().active().rtt.AddSample(SimTime::Micros(100));
  const SimTime start = f.sim.now();
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  // With gain 1 and cwnd 10 over 100us srtt, 10 segments take ~100us, so
  // barely anything escapes within the first microsecond.
  EXPECT_LE(f.harness.out.packets.size(), 3u);
  f.sim.RunUntil(start + SimTime::Micros(150));
  EXPECT_EQ(f.conn.tdns().active().packets_in_flight(), 10u);
  // Inter-packet spacing ~ srtt / cwnd = 10us.
  ASSERT_GE(f.harness.out.packets.size(), 10u);
  const SimTime gap = f.harness.out.packets[5].sent_time -
                      f.harness.out.packets[4].sent_time;
  EXPECT_GE(gap, SimTime::Micros(5));
  EXPECT_LE(gap, SimTime::Micros(20));
}

TEST(Pacing, DisabledSendsBackToBack) {
  PacedFixture f(BaseConfig());
  f.conn.tdns().active().rtt.AddSample(SimTime::Micros(100));
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  EXPECT_EQ(f.harness.out.packets.size(), 10u);  // whole window at once
}

TEST(Pacing, NoRttSampleMeansNoPacing) {
  TcpConfig c = BaseConfig();
  c.pacing_enabled = true;
  PacedFixture f(c);
  f.conn.SetUnlimitedData(true);
  f.harness.Settle();
  EXPECT_EQ(f.harness.out.packets.size(), 10u);
}

TEST(Pacing, StillReachesFullThroughput) {
  Simulator sim;
  test::PairHarness net(sim);
  TcpConfig c = BaseConfig();
  c.pacing_enabled = true;
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  server.Listen();
  client.Connect();
  client.AddAppData(400'000);
  sim.RunUntil(SimTime::Millis(40));
  EXPECT_EQ(client.bytes_acked(), 400'000u);
}

// ---------------------------------------------------------------------------
// Per-TDN congestion control (§3.5)
// ---------------------------------------------------------------------------

TEST(MixedCca, DifferentAlgorithmPerTdn) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  c.per_tdn_cc = {MakeCcFactory("cubic"), MakeCcFactory("dctcp")};
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  EXPECT_STREQ(conn.tdns().state(0).cc->name(), "cubic");
  EXPECT_STREQ(conn.tdns().state(1).cc->name(), "dctcp");
}

TEST(MixedCca, ExtraTdnsReuseLastFactory) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 4;
  c.per_tdn_cc = {MakeCcFactory("cubic"), MakeCcFactory("reno")};
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  EXPECT_STREQ(conn.tdns().state(0).cc->name(), "cubic");
  EXPECT_STREQ(conn.tdns().state(1).cc->name(), "reno");
  EXPECT_STREQ(conn.tdns().state(2).cc->name(), "reno");
  EXPECT_STREQ(conn.tdns().state(3).cc->name(), "reno");
}

TEST(MixedCca, TransfersCleanly) {
  Simulator sim;
  test::PairHarness net(sim);
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  c.per_tdn_cc = {MakeCcFactory("cubic"), MakeCcFactory("reno")};
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  server.Listen();
  client.Connect();
  client.AddAppData(200'000);
  sim.RunUntil(SimTime::Millis(20));
  EXPECT_EQ(client.bytes_acked(), 200'000u);
}

// ---------------------------------------------------------------------------
// Per-destination notifications
// ---------------------------------------------------------------------------

TEST(PerDestNotify, ListenerFiltersByPeerRack) {
  Simulator sim;
  Host host(sim, 0);
  int to_rack1 = 0, to_rack2 = 0, unfiltered = 0;
  TdnCallback l1([&](TdnId, bool) { ++to_rack1; });
  TdnCallback l2([&](TdnId, bool) { ++to_rack2; });
  TdnCallback l3([&](TdnId, bool) { ++unfiltered; });
  host.AddTdnListener(&l1, 1);
  host.AddTdnListener(&l2, 2);
  host.AddTdnListener(&l3);

  Packet for_rack1;
  for_rack1.type = PacketType::kTdnNotify;
  for_rack1.notify_tdn = 1;
  for_rack1.notify_peer = 1;
  host.HandlePacket(std::move(for_rack1));
  EXPECT_EQ(to_rack1, 1);
  EXPECT_EQ(to_rack2, 0);
  EXPECT_EQ(unfiltered, 1);  // kAllRacks listeners hear everything

  Packet fabric_wide;
  fabric_wide.type = PacketType::kTdnNotify;
  fabric_wide.notify_tdn = 0;
  host.HandlePacket(std::move(fabric_wide));
  EXPECT_EQ(to_rack1, 2);  // fabric-wide reaches filtered listeners too
  EXPECT_EQ(to_rack2, 1);
  EXPECT_EQ(unfiltered, 2);
}

// ---------------------------------------------------------------------------
// RotorController (multi-rack)
// ---------------------------------------------------------------------------

TEST(Rotor, MatchingsArePerfectAndCoverAllPairs) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 6;
  tc.hosts_per_rack = 1;
  Topology topo(sim, rng, tc);
  RotorController::Config rc;
  rc.packet_mode = tc.packet_mode;
  rc.circuit_mode = tc.circuit_mode;
  RotorController rotor(sim, rc, &topo);

  EXPECT_EQ(rotor.num_matchings(), 5u);
  std::set<std::pair<RackId, RackId>> seen;
  for (std::uint32_t d = 0; d < rotor.num_matchings(); ++d) {
    for (RackId r = 0; r < 6; ++r) {
      const RackId p = rotor.PartnerOf(d, r);
      EXPECT_NE(p, r);                        // no self-matching
      EXPECT_EQ(rotor.PartnerOf(d, p), r);    // symmetric
      seen.insert({std::min(r, p), std::max(r, p)});
    }
  }
  EXPECT_EQ(seen.size(), 15u);  // C(6,2): every pair met exactly once
}

TEST(Rotor, DrivesCircuitsPerMatching) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 4;
  tc.hosts_per_rack = 1;
  Topology topo(sim, rng, tc);
  RotorController::Config rc;
  rc.packet_mode = tc.packet_mode;
  rc.circuit_mode = tc.circuit_mode;
  RotorController rotor(sim, rc, &topo);
  rotor.Start();
  sim.RunUntil(SimTime::Micros(50));  // inside day 0
  int circuits = 0;
  for (RackId a = 0; a < 4; ++a) {
    for (RackId b = 0; b < 4; ++b) {
      if (a == b) continue;
      if (topo.port(a, b)->mode().circuit) {
        ++circuits;
        EXPECT_EQ(rotor.PartnerOf(0, a), b);
      }
    }
  }
  EXPECT_EQ(circuits, 4);  // two pairs, both directions
  // Nights black everything out.
  sim.RunUntil(SimTime::Micros(190));
  EXPECT_TRUE(topo.port(0, 1)->blackout());
}

TEST(Rotor, FlowsOnDistinctPairsKeepIndependentTdnViews) {
  // A 4-rack rotor with TDTCP flows 0->1 and 0->2: per-destination
  // notifications must keep the two flows' TDN views independent even
  // though they share the sending host's rack.
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 4;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);
  RotorController::Config rc;
  rc.packet_mode = tc.packet_mode;
  rc.circuit_mode = tc.circuit_mode;
  RotorController rotor(sim, rc, &topo);

  TcpConfig c;
  c.mss = 8940;
  c.cc_factory = MakeCcFactory("cubic");
  c.tdtcp_enabled = true;
  c.num_tdns = 2;

  auto make_flow = [&](FlowId id, std::uint32_t src_idx, RackId dst_rack) {
    TcpConfig fc = c;
    fc.peer_rack = dst_rack;
    auto rx = std::make_unique<TcpConnection>(
        sim, topo.host(dst_rack, src_idx), id,
        topo.host_id(0, src_idx), fc);
    TcpConfig sc = c;
    sc.peer_rack = dst_rack;
    auto tx = std::make_unique<TcpConnection>(
        sim, topo.host(0, src_idx), id, topo.host_id(dst_rack, src_idx), sc);
    rx->Listen();
    tx->Connect();
    tx->SetUnlimitedData(true);
    return std::make_pair(std::move(tx), std::move(rx));
  };

  auto [tx1, rx1] = make_flow(1, 0, 1);
  auto [tx2, rx2] = make_flow(2, 1, 2);
  rotor.Start();

  // Walk several weeks; whenever a flow's active TDN is 1, its pair must
  // actually be circuit-connected.
  for (int step = 0; step < 120; ++step) {
    sim.RunFor(SimTime::Micros(37));
    if (tx1->tdns().active_id() == 1) {
      EXPECT_TRUE(topo.port(0, 1)->mode().circuit) << "flow 0->1 desynced";
    }
    if (tx2->tdns().active_id() == 1) {
      EXPECT_TRUE(topo.port(0, 2)->mode().circuit) << "flow 0->2 desynced";
    }
  }
  // Both flows made progress and both saw optical service.
  EXPECT_GT(tx1->bytes_acked(), 0u);
  EXPECT_GT(tx2->bytes_acked(), 0u);
  EXPECT_GT(tx1->tdns().state(1).bytes_acked, 0u);
  EXPECT_GT(tx2->tdns().state(1).bytes_acked, 0u);
  EXPECT_GT(tx1->stats().tdn_switches, 4u);
}

// ---------------------------------------------------------------------------
// Appendix A.1: the full cross-TDN arrival scenario catalogue. Each scenario
// is an arrival order of data ACKs/SACKs around a high->low latency switch;
// none of them represents loss, so TDTCP must emit no retransmission and
// end with everything acknowledged and the connection in Open state.
// ---------------------------------------------------------------------------

struct A1Scenario {
  const char* name;
  // Arrival order of ACK events. Positive k: cumulative ACK covering the
  // first k segments. Negative k: SACK of segments (4..3+|k|) while the
  // cumulative ACK stays at the TDN boundary.
  std::vector<int> arrivals;
};

// Prints the arrival order rather than the raw bytes gtest would dump by
// default, which hold addresses and so change from run to run.
void PrintTo(const A1Scenario& s, std::ostream* os) {
  *os << ::testing::PrintToString(s.arrivals);
}

class AppendixA1 : public ::testing::TestWithParam<A1Scenario> {};

TEST_P(AppendixA1, NoSpuriousRetransmission) {
  TcpConfig c = BaseConfig();
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  Simulator sim;
  LoopbackHarness h(sim);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  h.Settle();
  Packet syn = h.out.Pop();
  conn.HandlePacket(LoopbackHarness::SynAckFor(syn, true, 2));
  h.Settle();
  h.out.packets.clear();

  // Segments 1..3 (seq 1..3000) on TDN 0, segments 4..6 on TDN 1.
  conn.AddAppData(3000);
  h.Settle();
  conn.OnTdnChange(1, false);
  conn.AddAppData(3000);
  h.Settle();
  h.out.packets.clear();
  ASSERT_EQ(conn.snd_nxt(), 6001u);

  for (int k : GetParam().arrivals) {
    if (k > 0) {
      conn.HandlePacket(LoopbackHarness::Ack(
          1, 1 + static_cast<std::uint64_t>(k) * 1000, {},
          /*ack_tdn=*/k > 3 ? 1 : 0));
    } else {
      conn.HandlePacket(LoopbackHarness::Ack(
          1, 3001, {{3001, 3001 + static_cast<std::uint64_t>(-k) * 1000}},
          /*ack_tdn=*/1));
    }
    h.Settle();
  }
  // Final state: everything acknowledged, no retransmissions, both TDNs
  // healthy.
  EXPECT_EQ(conn.snd_una(), 6001u) << GetParam().name;
  EXPECT_EQ(conn.stats().retransmissions, 0u) << GetParam().name;
  EXPECT_NE(conn.tdns().state(0).ca_state, CaState::kRecovery);
  EXPECT_NE(conn.tdns().state(1).ca_state, CaState::kRecovery);
  EXPECT_EQ(conn.tdns().TotalPacketsOut(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, AppendixA1,
    ::testing::Values(
        // (a)-(c) data crossing: TDN-1 data overtakes, the receiver SACKs it
        // above the TDN-0 hole before the delayed cumulative ACKs land.
        A1Scenario{"a_data_cross_full", {-3, 3, 6}},
        A1Scenario{"b_data_cross_partial", {-2, -3, 3, 6}},
        A1Scenario{"c_data_cross_late", {1, -3, 3, 6}},
        // (d)-(f) ACK crossing: later cumulative ACKs arrive first; stale
        // lower ACKs follow and are discarded harmlessly.
        A1Scenario{"d_ack_cross_full", {6, 3}},
        A1Scenario{"e_ack_cross_partial", {4, 6, 2, 3}},
        A1Scenario{"f_ack_cross_single", {6, 1, 2, 3}},
        // (g)-(h) double crossing: both directions swap, arrivals end up in
        // sent order — no anomaly visible at the sender.
        A1Scenario{"g_double_cross", {3, 6}},
        A1Scenario{"h_double_cross_interleaved", {1, 2, 3, 4, 5, 6}}),
    [](const ::testing::TestParamInfo<A1Scenario>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tdtcp
