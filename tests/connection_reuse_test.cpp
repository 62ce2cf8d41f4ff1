// A reopened connection behaves like a freshly constructed one.
//
// Each test first drives a pair through a dirty lifecycle on hosts a/b:
// SACK holes and out-of-order data through a shallow queue, RTO backoff
// while the receiver's NIC is down, a zero-window persist probe, TDN
// switches up to a third TDN that a reconfiguration then retires, and an
// abort. The pair is retired, as ChurnGenerator::Reclaim does. Then one
// scripted lifecycle runs on hosts c/d in two identical simulations: one
// reopens the dirty pair, the other constructs a fresh one. Trace records,
// TcpStats, per-TDN state and close reasons must be equal.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "cc/registry.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_util.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {
namespace {

using test::LoopbackHarness;

// Two independent host pairs (a<->b, c<->d) over shallow-queued links, so
// bursts tail-drop and leave SACK holes.
struct TwoPairs {
  explicit TwoPairs(Simulator& sim)
      : a(sim, 0), b(sim, 1), c(sim, 2), d(sim, 3) {
    Wire(sim, a, b);
    Wire(sim, c, d);
  }

  void Wire(Simulator& sim, Host& x, Host& y) {
    Link::Config lc;
    lc.rate_bps = 10'000'000'000;
    lc.propagation = SimTime::Micros(10);
    lc.queue.capacity_packets = 6;
    links.push_back(std::make_unique<Link>(sim, lc, &y));
    x.AttachUplink(links.back().get());
    links.push_back(std::make_unique<Link>(sim, lc, &x));
    y.AttachUplink(links.back().get());
  }

  Host a, b, c, d;
  std::vector<std::unique_ptr<Link>> links;
};

TcpConfig TdtcpConfig(const char* cc) {
  TcpConfig c;
  c.mss = 1000;
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  c.cc_factory = MakeCcFactory(cc);
  return c;
}

struct Pair {
  std::unique_ptr<TcpConnection> sender;
  std::unique_ptr<TcpConnection> receiver;
};

// The dirty lifecycle on a/b (flow 1). Leaves both ends closed and retired.
Pair DirtyLifecycle(Simulator& sim, TwoPairs& net, const TcpConfig& config) {
  TcpConfig rc = config;
  rc.close_on_peer_fin = true;
  Pair p;
  p.receiver = std::make_unique<TcpConnection>(sim, &net.b, 1, 0, rc);
  p.sender = std::make_unique<TcpConnection>(sim, &net.a, 1, 1, config);
  TcpConnection& tx = *p.sender;
  TcpConnection& rx = *p.receiver;
  rx.Listen();
  tx.Connect();
  tx.AddAppData(200'000);
  sim.RunUntil(sim.now() + SimTime::Micros(600));
  // A circuit-imminent notice (reTCPdyn pre-ramps on it), then TDN switches
  // on both ends, up to a third TDN the schedule then drops.
  tx.OnTdnChange(1, true);
  tx.OnTdnChange(1, false);
  rx.OnTdnChange(1, false);
  sim.RunUntil(sim.now() + SimTime::Micros(300));
  tx.OnTdnChange(2, false);
  rx.OnTdnChange(2, false);
  sim.RunUntil(sim.now() + SimTime::Micros(300));
  tx.OnTdnReconfig(2);
  rx.OnTdnReconfig(2);
  EXPECT_TRUE(tx.tdns().retired(2));
  EXPECT_EQ(tx.tdns().num_tdns(), 3u);
  sim.RunUntil(sim.now() + SimTime::Millis(3));
  // The receiver's NIC dies with data in flight: RTOs back off.
  net.b.set_nic_enabled(false);
  tx.AddAppData(20'000);
  sim.RunUntil(sim.now() + SimTime::Millis(3));
  EXPECT_GT(tx.rto_backoff(), 0u);
  net.b.set_nic_enabled(true);
  sim.RunUntil(sim.now() + SimTime::Millis(20));
  EXPECT_EQ(tx.snd_una(), tx.snd_nxt()) << "the transfer should have drained";
  // A zero-window update with nothing in flight: the next write probes.
  Packet zero = LoopbackHarness::Ack(1, tx.snd_nxt());
  zero.rcv_window = 0;
  tx.HandlePacket(std::move(zero));
  tx.AddAppData(5'000);
  sim.RunUntil(sim.now() + SimTime::Millis(3));
  EXPECT_GT(tx.stats().persist_probes, 0u);
  // More data, then an abort mid-transfer; the RST takes the receiver down.
  tx.AddAppData(50'000);
  sim.RunUntil(sim.now() + SimTime::Micros(200));
  tx.Abort();
  sim.RunUntil(sim.now() + SimTime::Millis(2));
  EXPECT_EQ(tx.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(rx.state(), TcpConnection::State::kClosed);
  EXPECT_GT(tx.stats().retransmissions, 0u);
  EXPECT_GT(tx.stats().timeouts, 0u);
  EXPECT_GT(rx.stats().duplicate_segments + tx.stats().dsacks_received +
                tx.stats().reorder_events,
            0u);
  p.sender->Retire();
  p.receiver->Retire();
  return p;
}

// Per-TDN values a reopen must restore, one row per state set.
struct TdnRow {
  std::uint32_t packets_out, sacked_out, lost_out, retrans_out, cwnd,
      ssthresh, prior_cwnd, prior_ssthresh, cwnd_cnt, fast_recoveries,
      timeouts, undo_events;
  CaState ca_state;
  std::uint64_t high_seq, undo_marker, bytes_acked, segments_sent, samples;
  SimTime srtt, rttvar, min_rtt;
  std::string cc;
  bool retired;

  friend bool operator==(const TdnRow&, const TdnRow&) = default;
};

std::vector<TdnRow> TdnRows(const TcpConnection& conn) {
  std::vector<TdnRow> rows;
  const TdnManager& m = conn.tdns();
  for (std::size_t i = 0; i < m.num_tdns(); ++i) {
    const TdnState& s = m.state(static_cast<TdnId>(i));
    rows.push_back(TdnRow{s.packets_out, s.sacked_out, s.lost_out,
                          s.retrans_out, s.cwnd, s.ssthresh, s.prior_cwnd,
                          s.prior_ssthresh, s.cwnd_cnt, s.fast_recoveries,
                          s.timeouts, s.undo_events, s.ca_state, s.high_seq,
                          s.undo_marker, s.bytes_acked, s.segments_sent,
                          s.rtt.samples(), s.rtt.srtt(), s.rtt.rttvar(),
                          s.rtt.min_rtt(), s.cc->name(),
                          m.retired(static_cast<TdnId>(i))});
  }
  return rows;
}

static_assert(std::has_unique_object_representations_v<TcpStats>,
              "TcpStats is compared bytewise");

bool SameStats(const TcpStats& x, const TcpStats& y) {
  return std::memcmp(&x, &y, sizeof(TcpStats)) == 0;
}

struct Outcome {
  std::vector<TraceRecord> trace;
  TcpStats tx_stats, rx_stats;
  std::vector<TdnRow> tx_tdns, rx_tdns;
  CloseReason tx_reason, rx_reason;
  std::uint64_t bytes_acked;
};

// Runs the dirty lifecycle, then the scripted one on c/d (flow 2) with
// either the reopened dirty pair or a freshly constructed one.
Outcome RunScripted(const TcpConfig& dirty_config, const TcpConfig& config,
                    bool reopen) {
  Simulator sim;
  TwoPairs net(sim);
  Pair dirty = DirtyLifecycle(sim, net, dirty_config);

  TcpConfig rc = config;
  rc.close_on_peer_fin = true;
  Pair fresh;
  TcpConnection* tx;
  TcpConnection* rx;
  if (reopen) {
    dirty.receiver->Reopen(&net.d, 2, net.c.id(),
                           std::make_shared<const TcpConfig>(rc));
    dirty.sender->Reopen(&net.c, 2, net.d.id(),
                         std::make_shared<const TcpConfig>(config));
    rx = dirty.receiver.get();
    tx = dirty.sender.get();
  } else {
    fresh.receiver =
        std::make_unique<TcpConnection>(sim, &net.d, 2, net.c.id(), rc);
    fresh.sender =
        std::make_unique<TcpConnection>(sim, &net.c, 2, net.d.id(), config);
    rx = fresh.receiver.get();
    tx = fresh.sender.get();
  }
  Outcome out;
  tx->SetClosedCallback([&out](CloseReason r) { out.tx_reason = r; });
  rx->SetClosedCallback([&out](CloseReason r) { out.rx_reason = r; });
  TraceRing ring(1u << 14);
  rx->SetTraceRing(&ring);
  tx->SetTraceRing(&ring);
  rx->Listen();
  tx->Connect();
  tx->AddAppData(120'000);
  sim.RunUntil(sim.now() + SimTime::Micros(800));
  tx->OnTdnChange(1, true);
  tx->OnTdnChange(1, false);
  rx->OnTdnChange(1, false);
  sim.RunUntil(sim.now() + SimTime::Micros(800));
  tx->OnTdnChange(0, false);
  rx->OnTdnChange(0, false);
  tx->Close();
  sim.RunUntil(sim.now() + SimTime::Millis(30));
  EXPECT_EQ(tx->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(rx->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(ring.total_emitted(), ring.size()) << "ring too small";
  out.trace = ring.Snapshot();
  out.tx_stats = tx->stats();
  out.rx_stats = rx->stats();
  out.tx_tdns = TdnRows(*tx);
  out.rx_tdns = TdnRows(*rx);
  out.bytes_acked = tx->bytes_acked();
  return out;
}

void ExpectSameOutcome(const TcpConfig& dirty_config,
                       const TcpConfig& config) {
  const Outcome fresh = RunScripted(dirty_config, config, /*reopen=*/false);
  const Outcome reopened = RunScripted(dirty_config, config, /*reopen=*/true);
  EXPECT_EQ(fresh.tx_reason, CloseReason::kNormal);
  EXPECT_EQ(fresh.rx_reason, CloseReason::kNormal);
  EXPECT_EQ(fresh.bytes_acked, 120'000u);
  // The scripted lifecycle itself is not clean: the shallow queue drops.
  EXPECT_GT(fresh.tx_stats.retransmissions, 0u);
  EXPECT_GT(fresh.tx_stats.tdn_switches, 0u);

  EXPECT_EQ(reopened.tx_reason, fresh.tx_reason);
  EXPECT_EQ(reopened.rx_reason, fresh.rx_reason);
  EXPECT_EQ(reopened.bytes_acked, fresh.bytes_acked);
  EXPECT_TRUE(SameStats(reopened.tx_stats, fresh.tx_stats));
  EXPECT_TRUE(SameStats(reopened.rx_stats, fresh.rx_stats));
  EXPECT_TRUE(reopened.tx_tdns == fresh.tx_tdns);
  EXPECT_TRUE(reopened.rx_tdns == fresh.rx_tdns);
  ASSERT_EQ(reopened.trace.size(), fresh.trace.size());
  for (std::size_t i = 0; i < fresh.trace.size(); ++i) {
    ASSERT_EQ(reopened.trace[i], fresh.trace[i]) << "trace record " << i;
  }
  EXPECT_GT(fresh.trace.size(), 100u);
}

TEST(ConnectionReuse, ReopenedPairMatchesFreshPair) {
  // Same congestion control: every TDN keeps its module, reset in place.
  ExpectSameOutcome(TdtcpConfig("cubic"), TdtcpConfig("cubic"));
}

TEST(ConnectionReuse, ReopenedModuleForgetsItsRamp) {
  // reTCPdyn keeps its pre-ramp window in the module, where the TDN state
  // reset cannot reach it: only the module's own Reset() clears it.
  ExpectSameOutcome(TdtcpConfig("retcpdyn"), TdtcpConfig("retcpdyn"));
}

TEST(ConnectionReuse, ReopenWithAnotherCcBuildsFreshModules) {
  // The class changes, so every TDN's module is rebuilt by the factory.
  ExpectSameOutcome(TdtcpConfig("dctcp"), TdtcpConfig("reno"));
}

TEST(ConnectionReuse, ReopenFromPerTdnCcToOneCc) {
  // A per-TDN list (§3.5) before, one factory after: TDN 0 keeps its
  // CUBIC module, TDN 1 swaps DCTCP for CUBIC.
  TcpConfig dirty = TdtcpConfig("cubic");
  dirty.per_tdn_cc = {MakeCcFactory("cubic"), MakeCcFactory("dctcp")};
  ExpectSameOutcome(dirty, TdtcpConfig("cubic"));
}

TEST(ConnectionReuse, ConfigFromTemporaryOutlivesCaller) {
  // A connection built from a temporary TcpConfig owns its config, and a
  // reopen with a config nobody else holds any more keeps that one alive:
  // the connection and its TdnManager read it through the whole next
  // lifecycle (the switch to TDN 2 builds a state set from it). Under
  // AddressSanitizer a read of a released config fails here.
  Simulator sim;
  TwoPairs net(sim);
  TcpConfig rc = TdtcpConfig("cubic");
  rc.close_on_peer_fin = true;
  Pair p;
  p.receiver = std::make_unique<TcpConnection>(sim, &net.b, 1, 0, rc);
  p.sender =
      std::make_unique<TcpConnection>(sim, &net.a, 1, 1, TdtcpConfig("reno"));
  const auto lifecycle = [&sim](TcpConnection& tx, TcpConnection& rx) {
    rx.Listen();
    tx.Connect();
    tx.AddAppData(20'000);
    sim.RunUntil(sim.now() + SimTime::Micros(300));
    tx.OnTdnChange(2, false);
    rx.OnTdnChange(2, false);
    tx.Close();
    sim.RunUntil(sim.now() + SimTime::Millis(10));
    EXPECT_EQ(tx.close_reason(), CloseReason::kNormal);
    EXPECT_EQ(rx.close_reason(), CloseReason::kNormal);
    EXPECT_EQ(tx.bytes_acked(), 20'000u);
    EXPECT_EQ(tx.tdns().num_tdns(), 3u);
  };
  lifecycle(*p.sender, *p.receiver);
  EXPECT_STREQ(p.sender->tdns().state(2).cc->name(), "reno");
  p.sender->Retire();
  p.receiver->Retire();

  {
    TcpConfig reopened = TdtcpConfig("dctcp");
    reopened.close_on_peer_fin = true;
    p.receiver->Reopen(&net.d, 2, net.c.id(),
                       std::make_shared<const TcpConfig>(reopened));
    p.sender->Reopen(&net.c, 2, net.d.id(),
                     std::make_shared<const TcpConfig>(TdtcpConfig("dctcp")));
  }
  lifecycle(*p.sender, *p.receiver);
  EXPECT_STREQ(p.sender->tdns().state(2).cc->name(), "dctcp");
  EXPECT_TRUE(p.receiver->config().close_on_peer_fin);
  EXPECT_FALSE(p.sender->config().close_on_peer_fin);
}

TEST(ConnectionReuse, ReopenRefusesALiveOrUnretiredConnection) {
  Simulator sim;
  TwoPairs net(sim);
  TcpConnection conn(sim, &net.a, 1, 1, TdtcpConfig("cubic"));
  const auto config = std::make_shared<const TcpConfig>(TdtcpConfig("cubic"));
  // Closed but still registered with the host: not retired.
  EXPECT_THROW(conn.Reopen(&net.c, 2, 3, config),
               std::logic_error);
  conn.Connect();
  conn.Retire();
  EXPECT_THROW(conn.Reopen(&net.c, 2, 3, config),
               std::logic_error);
  conn.Abort();
  conn.Retire();
  EXPECT_THROW(conn.Reopen(nullptr, 2, 3, config),
               std::invalid_argument);
  conn.Reopen(&net.c, 2, 3, config);
  EXPECT_EQ(conn.state(), TcpConnection::State::kClosed);
  EXPECT_EQ(conn.close_reason(), CloseReason::kNone);
  EXPECT_EQ(net.a.num_endpoints(), 0u);
  EXPECT_EQ(net.c.num_endpoints(), 1u);
  EXPECT_EQ(net.c.num_tdn_listeners(), 1u);
  // The reopened connection is a fresh one; closing it again still leaves
  // it closed for good.
  conn.Connect();
  conn.Abort();
  EXPECT_THROW(conn.Connect(), std::logic_error);
}

}  // namespace
}  // namespace tdtcp
