// MPTCP: tdm_schd steering, DSS reassembly and dedup, pinned-path stalls,
// connection-level reinjection, shared meta receive window.
#include <gtest/gtest.h>

#include <stdexcept>

#include "app/experiment.hpp"
#include "mptcp/mptcp_connection.hpp"
#include "net/topology.hpp"
#include "rdcn/controller.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

// One packet seen by a subflow's tap: which meta (0 = sender, 1 =
// receiver), which subflow index, and the direction.
struct WirePacket {
  SimTime t;
  int side;
  std::uint32_t index;
  TcpConnection::TapDirection dir;
  Packet p;
};

// Full two-rack RDCN with one MPTCP flow. With `record_wire`, every subflow
// packet of both metas is logged to `wire`, from the first SYN on.
struct MptcpFixture {
  explicit MptcpFixture(bool record_wire = false)
      : rng(1), topo(sim, rng, TopoCfg()) {
    RdcnController::Config rc;
    rc.packet_mode = topo.config().packet_mode;
    rc.circuit_mode = topo.config().circuit_mode;
    controller = std::make_unique<RdcnController>(
        sim, rc,
        std::vector<FabricPort*>{topo.port(0, 1), topo.port(1, 0)},
        std::vector<ToRSwitch*>{topo.tor(0), topo.tor(1)});

    MptcpConnection::Config mc;
    mc.subflow.mss = 8940;
    receiver = std::make_unique<MptcpConnection>(sim, topo.host(1, 0), 1,
                                                 topo.host_id(0, 0), mc);
    sender = std::make_unique<MptcpConnection>(sim, topo.host(0, 0), 1,
                                               topo.host_id(1, 0), mc);
    if (record_wire) {
      for (int side = 0; side < 2; ++side) {
        MptcpConnection* meta = side == 0 ? sender.get() : receiver.get();
        for (std::uint32_t i = 0; i < mc.num_subflows; ++i) {
          meta->subflow(i)->SetPacketTap(
              [this, side, i](TcpConnection::TapDirection dir,
                              const Packet& p) {
                wire.push_back(WirePacket{sim.now(), side, i, dir, p});
              });
        }
      }
    }
    receiver->Listen();
    controller->Start();
    sender->Connect();
    sender->SetUnlimitedData(true);
  }

  static TopologyConfig TopoCfg() {
    TopologyConfig tc;
    tc.hosts_per_rack = 2;
    return tc;
  }

  Simulator sim;
  Random rng;
  Topology topo;
  std::unique_ptr<RdcnController> controller;
  std::unique_ptr<MptcpConnection> sender;
  std::unique_ptr<MptcpConnection> receiver;
  std::vector<WirePacket> wire;
};

TEST(Mptcp, SubflowZeroEstablishesImmediately) {
  MptcpFixture f;
  f.sim.RunUntil(SimTime::Millis(1));
  EXPECT_EQ(f.sender->subflow(0)->state(), TcpConnection::State::kEstablished);
  // Subflow 1's SYN is pinned to the circuit: it waits for the first
  // optical day (1200us).
  EXPECT_NE(f.sender->subflow(1)->state(), TcpConnection::State::kEstablished);
  f.sim.RunUntil(SimTime::Millis(2));
  EXPECT_EQ(f.sender->subflow(1)->state(), TcpConnection::State::kEstablished);
}

TEST(Mptcp, SubflowCountOutsideOneToEightThrows) {
  Simulator sim;
  Host host(sim, 0);
  for (std::uint32_t n : {0u, 9u}) {
    MptcpConnection::Config mc;
    mc.num_subflows = n;
    EXPECT_THROW(MptcpConnection(sim, &host, 1, 99, mc), std::invalid_argument)
        << "num_subflows " << n;
  }
  MptcpConnection::Config mc;
  mc.num_subflows = 8;
  MptcpConnection eight(sim, &host, 1, 99, mc);
  EXPECT_EQ(eight.subflow(7)->flow(), 1u);
}

TEST(Mptcp, SchedulerSteersByActiveTdn) {
  MptcpFixture f;
  f.sim.RunUntil(SimTime::Micros(1100));  // packet day
  EXPECT_EQ(f.sender->active_subflow(), 0u);
  f.sim.RunUntil(SimTime::Micros(1300));  // optical day
  EXPECT_EQ(f.sender->active_subflow(), 1u);
  f.sim.RunUntil(SimTime::Micros(1500));  // back on packet
  EXPECT_EQ(f.sender->active_subflow(), 0u);
}

TEST(Mptcp, MetaProgressSpansBothSubflows) {
  MptcpFixture f;
  f.sim.RunUntil(SimTime::Millis(4));  // a couple of weeks
  EXPECT_GT(f.sender->meta_bytes_acked(), 0u);
  // Both subflows carried data.
  EXPECT_GT(f.sender->subflow(0)->bytes_acked(), 0u);
  EXPECT_GT(f.sender->subflow(1)->bytes_acked(), 0u);
  // Receiver-side in-order delivery tracks the sender.
  EXPECT_GT(f.receiver->meta_bytes_delivered(), 0u);
  EXPECT_GE(f.sender->meta_bytes_acked(), f.receiver->meta_bytes_delivered() / 2);
}

TEST(Mptcp, MetaDeliveryIsExactlyOnce) {
  MptcpFixture f;
  f.sim.RunUntil(SimTime::Millis(6));
  // Delivered meta bytes never exceed scheduled bytes even with
  // reinjection duplicates; duplicates are counted and discarded.
  const auto scheduled = f.sender->stats().scheduled_segments * 8940;
  EXPECT_LE(f.receiver->meta_bytes_delivered(), scheduled);
}

TEST(Mptcp, MetaReassemblesInsideSubflowDeliveryLoop) {
  // A receiving meta fed by hand. Subflow 1 carries data sequence
  // [1001, 4001), which the meta must hold out of order. Subflow 0 carries
  // [1, 1001) and then [4001, 7001), and the latter arrive first. The one
  // in-order segment on subflow 0 then releases its three buffered
  // segments, and the meta reassembles all of them from inside subflow 0's
  // delivery loop: its own release (four segments) must not disturb the
  // subflow's delivered view.
  Simulator sim;
  test::LoopbackHarness h(sim);
  MptcpConnection rx(sim, &h.host, 7, 99, MptcpConnection::Config());
  rx.Listen();
  const auto packet = [](std::uint8_t subflow) {
    Packet p;
    p.type = PacketType::kData;
    p.flow = 7;
    p.subflow = subflow;
    p.is_mptcp = true;
    p.size_bytes = 60;
    return p;
  };
  for (std::uint8_t i : {0, 1}) {
    Packet syn = packet(i);
    syn.syn = true;
    rx.HandlePacket(std::move(syn));
  }
  std::vector<std::uint64_t> meta_delivered;
  const auto data = [&](std::uint8_t subflow, std::uint64_t seq,
                        std::uint64_t dss) {
    Packet d = packet(subflow);
    d.seq = seq;
    d.payload = 1000;
    d.size_bytes = 1060;
    d.has_dss = true;
    d.dss_seq = dss;
    rx.HandlePacket(std::move(d));
    meta_delivered.push_back(rx.meta_bytes_delivered());
  };
  data(1, 1, 1001);
  data(1, 1001, 2001);
  data(1, 2001, 3001);
  data(0, 1001, 4001);
  data(0, 2001, 5001);
  data(0, 3001, 6001);
  data(0, 1, 1);
  EXPECT_EQ(meta_delivered,
            (std::vector<std::uint64_t>{0, 0, 0, 0, 0, 0, 7000}));
  EXPECT_EQ(rx.subflow(0)->rcv_nxt(), 4001u);
  EXPECT_EQ(rx.subflow(0)->stats().bytes_received, 4000u);
  EXPECT_EQ(rx.subflow(1)->rcv_nxt(), 3001u);
  EXPECT_EQ(rx.stats().meta_duplicates, 0u);
  // Subflow 0's ACK of that segment carries the whole reassembled range.
  h.Settle();
  ASSERT_FALSE(h.out.Empty());
  EXPECT_EQ(h.out.packets.back().subflow, 0u);
  EXPECT_EQ(h.out.packets.back().ack, 4001u);
  EXPECT_EQ(h.out.packets.back().dss_ack, 7001u);
}

TEST(Mptcp, PinnedPacketsStrandAtToR) {
  MptcpFixture f;
  // During the optical day, subflow-0 traffic (pinned to the packet
  // network) strands in the ToR stashes — the strict subflow/path isolation
  // of §2.2.
  f.sim.RunUntil(SimTime::Micros(1300));
  EXPECT_GT(f.topo.port(1, 0)->pinned_waiting() +
                f.topo.port(0, 1)->pinned_waiting(), 0u);
}

TEST(Mptcp, ReinjectionRepairsStrandedTailUnderContention) {
  // With a rack of flows sharing the 16-packet VOQ, optical-tail data is
  // regularly stranded/dropped; the metas must reinject, and the receivers
  // see the resulting meta-level duplicates.
  Experiment exp(
      PaperConfig(Variant::kMptcp).WithFlows(16).WithSampling(false, false));
  exp.RunUntil(SimTime::Millis(20));
  std::uint64_t reinjections = 0, dups = 0, delivered = 0;
  for (auto& f : exp.workload().flows()) {
    reinjections += f.mptcp_sender->stats().reinjections;
    dups += f.mptcp_receiver->stats().meta_duplicates;
    delivered += f.mptcp_receiver->meta_bytes_delivered();
  }
  EXPECT_GT(reinjections, 0u);
  EXPECT_GT(dups, 0u);
  EXPECT_GT(delivered, 10'000'000u);  // progress despite the stalls
}

TEST(Mptcp, ThroughputBelowTdtcp) {
  // The paper's headline ordering: MPTCP is the weakest of the multi-TDN
  // aware transports (41% below TDTCP in the paper's setting).
  ExperimentConfig mp = PaperConfig(Variant::kMptcp);
  mp.duration = SimTime::Millis(30);
  mp.warmup = SimTime::Millis(5);
  mp.workload.num_flows = 8;
  ExperimentConfig td = PaperConfig(Variant::kTdtcp);
  td.duration = mp.duration;
  td.warmup = mp.warmup;
  td.workload.num_flows = 8;
  const double mptcp_bps = RunExperiment(mp).goodput_bps;
  const double tdtcp_bps = RunExperiment(td).goodput_bps;
  EXPECT_LT(mptcp_bps, tdtcp_bps);
}

TEST(Mptcp, SubflowPacketsCarryPinAndDss) {
  // Every packet either meta's subflows send is stamped with its subflow's
  // path pin and index; data carries its DSS mapping, and the receiver's
  // ACKs carry the meta DATA_ACK and meta window.
  MptcpFixture f(/*record_wire=*/true);
  f.sim.RunUntil(SimTime::Millis(2));
  enum Kind { kSyn, kSynAck, kHandshakeAck, kData, kAck, kNumKinds };
  std::uint64_t seen[2][kNumKinds] = {};
  for (const WirePacket& w : f.wire) {
    if (w.dir != TcpConnection::TapDirection::kTx) continue;
    const Packet& p = w.p;
    SCOPED_TRACE(testing::Message() << "side " << w.side << " subflow "
                                    << w.index << " t=" << w.t.picos());
    EXPECT_EQ(p.pinned_path, static_cast<std::int8_t>(w.index));
    EXPECT_EQ(p.subflow, w.index);
    EXPECT_TRUE(p.is_mptcp);
    Kind kind;
    if (p.syn) {
      kind = w.side == 0 ? kSyn : kSynAck;
      EXPECT_EQ(p.ack, w.side == 0 ? 0u : 1u);
    } else if (w.side == 0 && p.type == PacketType::kAck) {
      kind = kHandshakeAck;
      EXPECT_EQ(p.ack, 1u);
    } else if (w.side == 0) {
      kind = kData;
      ASSERT_GT(p.payload, 0u);
      EXPECT_TRUE(p.has_dss);
      EXPECT_GE(p.dss_seq, 1u);
    } else {
      kind = kAck;
      ASSERT_EQ(p.type, PacketType::kAck);
      EXPECT_TRUE(p.has_dss);
      EXPECT_GE(p.dss_ack, 1u);
      EXPECT_GT(p.dss_rwnd, 0u);
    }
    ++seen[w.index][kind];
  }
  // Both subflows completed a handshake and carried data inside 2 ms.
  for (std::uint32_t i = 0; i < 2; ++i) {
    for (int k = 0; k < kNumKinds; ++k) {
      EXPECT_GT(seen[i][k], 0u) << "subflow " << i << " kind " << k;
    }
  }
}

TEST(Mptcp, WireDigestIsPinned) {
  // Pins the MPTCP wire behaviour: an order-sensitive digest of every
  // subflow packet both metas send and receive over 20 ms, plus both metas'
  // stats. No benchmark baseline runs MPTCP, and subflows are not on the
  // trace ring, so this is the regression oracle for the subflow/meta
  // interface.
  MptcpFixture f(/*record_wire=*/true);
  f.sim.RunUntil(SimTime::Millis(20));
  Fnv1a64 h;
  h.Mix(f.wire.size());
  for (const WirePacket& w : f.wire) {
    const Packet& p = w.p;
    h.Mix(static_cast<std::uint64_t>(w.t.picos()));
    h.Mix(static_cast<std::uint64_t>(w.side) << 8 |
          static_cast<std::uint64_t>(w.dir));
    h.Mix(w.index);
    h.Mix(p.subflow);
    h.Mix(p.seq);
    h.Mix(p.ack);
    h.Mix(p.payload);
    h.Mix(static_cast<std::uint64_t>(p.syn) | std::uint64_t{p.fin} << 1 |
          std::uint64_t{p.rst} << 2 | std::uint64_t{p.has_dss} << 3 |
          std::uint64_t{p.is_mptcp} << 4 |
          static_cast<std::uint64_t>(p.type) << 8 |
          static_cast<std::uint64_t>(static_cast<std::uint8_t>(p.pinned_path))
              << 16);
    h.Mix(p.rcv_window);
    h.Mix(p.dss_seq);
    h.Mix(p.dss_ack);
    h.Mix(p.dss_rwnd);
  }
  for (const MptcpConnection* meta : {f.sender.get(), f.receiver.get()}) {
    const MptcpConnection::Stats& s = meta->stats();
    for (std::uint64_t v :
         {s.scheduled_segments, s.reinjections, s.reinjected_bytes,
          s.stall_checks, s.meta_duplicates, s.zero_window_acks,
          s.subflow_aborts, s.abort_reinjections, s.unrescued_ranges,
          s.unrescued_bytes}) {
      h.Mix(v);
    }
    h.Mix(meta->meta_bytes_acked());
    h.Mix(meta->meta_bytes_delivered());
  }
  // Enough happened for the pin to mean something: both subflows moved
  // data, and the DATA_ACK advanced the sender's meta.
  EXPECT_GT(f.sender->subflow(0)->bytes_acked(), 0u);
  EXPECT_GT(f.sender->subflow(1)->bytes_acked(), 0u);
  EXPECT_GT(f.sender->meta_bytes_acked(), 0u);
  // Computed on the engine with per-hook std::function callbacks, before
  // the subflow/meta interface became SubflowOwner. The digest re-pinned
  // when the ToRs' notification delays moved to per-ToR counter-based
  // streams (DESIGN.md §14).
  EXPECT_EQ(f.wire.size(), 14460u);
  EXPECT_EQ(h.value(), 3867132650869219455ull);
}

}  // namespace
}  // namespace tdtcp
