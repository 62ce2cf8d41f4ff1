// Shared test scaffolding.
//
// `LoopbackHarness` wires a sender-side Host whose uplink feeds a capture
// sink, so tests can inspect every packet a TcpConnection emits and inject
// hand-crafted responses with exact timing — the packet formats are plain
// structs, which makes the appendix-A.1 reordering scenarios directly
// constructible.
//
// `PairHarness` wires two hosts back-to-back through real links for
// end-to-end transfers without the full RDCN topology.
//
// `TdnCallback` is a Host::TdnListener over a callable, for tests that
// watch a host's TDN changes.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cc/registry.hpp"
#include "net/host.hpp"
#include "net/link.hpp"
#include "net/node.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp::test {

// An engine config whose TDNs all run Reno, with the default RTT
// parameters and initial window: what a standalone TdnManager reads. A
// manager keeps a pointer to its config, so this one lives for the program.
inline const TcpConfig& RenoTcpConfig() {
  static const TcpConfig config = [] {
    TcpConfig c;
    c.cc_factory = MakeCcFactory("reno");
    return c;
  }();
  return config;
}

class CaptureSink : public PacketSink {
 public:
  void HandlePacket(Packet&& p) override { packets.push_back(std::move(p)); }

  // Pops the oldest captured packet.
  Packet Pop() {
    Packet p = std::move(packets.front());
    packets.pop_front();
    return p;
  }
  bool Empty() const { return packets.empty(); }

  std::deque<Packet> packets;
};

// Forwards OnTdnChange to `fn`; OnTdnReconfig keeps the interface's no-op.
class TdnCallback : public Host::TdnListener {
 public:
  explicit TdnCallback(std::function<void(TdnId, bool)> fn)
      : fn_(std::move(fn)) {}
  void OnTdnChange(TdnId tdn, bool imminent) override { fn_(tdn, imminent); }

 private:
  std::function<void(TdnId, bool)> fn_;
};

// A sender host whose transmissions land in `out` (after a tiny, exact link
// delay), plus helpers to synthesize the receiver side by hand.
class LoopbackHarness {
 public:
  explicit LoopbackHarness(Simulator& sim, NodeId host_id = 0)
      : sim_(sim), host(sim, host_id) {
    Link::Config lc;
    lc.rate_bps = 1'000'000'000'000;  // effectively instant serialization
    lc.propagation = SimTime::Nanos(1);
    lc.queue.capacity_packets = 10'000;
    uplink_ = std::make_unique<Link>(sim, lc, &out);
    host.AttachUplink(uplink_.get());
  }

  // Drains pending events so captured packets materialize.
  void Settle() { sim_.RunUntil(sim_.now() + SimTime::Micros(1)); }

  // A minimal SYN/ACK matching a client SYN.
  static Packet SynAckFor(const Packet& syn, bool td_capable, std::uint8_t tdns) {
    Packet p;
    p.type = PacketType::kData;
    p.flow = syn.flow;
    p.src = syn.dst;
    p.dst = syn.src;
    p.syn = true;
    p.ack = 1;
    p.size_bytes = 60;
    p.td_capable = td_capable;
    p.td_num_tdns = tdns;
    return p;
  }

  // A pure cumulative ACK (optionally with SACK blocks and a TDN tag).
  static Packet Ack(FlowId flow, std::uint64_t ack,
                    std::vector<SackBlock> sacks = {}, TdnId ack_tdn = kNoTdn) {
    Packet p;
    p.type = PacketType::kAck;
    p.flow = flow;
    p.ack = ack;
    p.size_bytes = 60;
    p.rcv_window = 1u << 30;
    p.has_rwnd = true;
    p.ack_tdn = ack_tdn;
    p.num_sack = static_cast<std::uint8_t>(sacks.size());
    for (std::size_t i = 0; i < sacks.size() && i < kMaxSackBlocks; ++i) {
      p.sack[i] = sacks[i];
    }
    return p;
  }

  Simulator& sim_;
  Host host;
  CaptureSink out;

 private:
  std::unique_ptr<Link> uplink_;
};

// Two hosts joined by symmetric links (no ToR, no schedule): enough for
// end-to-end handshake/transfer tests with controllable loss via tiny
// queues.
struct PairOptions {
  std::uint64_t rate_bps = 10'000'000'000;
  SimTime delay = SimTime::Micros(10);
  std::uint32_t queue_capacity = 1000;
};

class PairHarness {
 public:
  using Options = PairOptions;

  explicit PairHarness(Simulator& sim, Options opt = Options())
      : a(sim, 0), b(sim, 1) {
    Link::Config ab;
    ab.rate_bps = opt.rate_bps;
    ab.propagation = opt.delay;
    ab.queue.capacity_packets = opt.queue_capacity;
    ab.name = "a->b";
    Link::Config ba = ab;
    ba.name = "b->a";
    ab_link = std::make_unique<Link>(sim, ab, &b);
    ba_link = std::make_unique<Link>(sim, ba, &a);
    a.AttachUplink(ab_link.get());
    b.AttachUplink(ba_link.get());
  }

  Host a;
  Host b;
  std::unique_ptr<Link> ab_link;
  std::unique_ptr<Link> ba_link;
};

}  // namespace tdtcp::test
