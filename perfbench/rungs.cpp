#include "rungs.hpp"

#include <cmath>
#include <functional>
#include <memory>
#include <stdexcept>
#include <vector>

#include "app/experiment.hpp"
#include "composed.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/timer_wheel.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace tdtcp;

namespace {

// Runs `trial` once to warm caches, then repeatedly until `budget_s` has
// passed (at least three trials); each call appends its samples.
template <typename Trial>
void Repeat(double budget_s, Trial&& trial) {
  trial(false);
  const Clock::time_point t0 = Clock::now();
  int n = 0;
  do {
    trial(true);
    ++n;
  } while (n < 3 || SecondsSince(t0) < budget_s);
}

Rung MedianRung(const std::vector<double>& v) {
  return Rung{Median(v), static_cast<int>(v.size())};
}

// Events per occupied timestamp for Poisson arrivals with mean `lambda`
// per tick: lambda / (1 - e^-lambda). Inverted by bisection.
double LambdaForBatch(double events_per_batch) {
  if (events_per_batch <= 1.000001) return 1e-6;
  double lo = 1e-9;
  double hi = 64;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (mid / (1 - std::exp(-mid)) < events_per_batch ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// `chains` self-rescheduling events with delays drawn from a precomputed
// table (so the rung times the simulator, not the random generator). With
// probability `cancel_share` a firing also replaces a far-future event of
// its chain, cancelling the previous one, as connections cancel timeouts.
class EventChains {
 public:
  EventChains(std::uint32_t chains, double lambda, double cancel_share,
              std::uint64_t target)
      : pending_cancel_(chains, kInvalidEventId), target_(target) {
    Random rng(7);
    const double mean_ticks = static_cast<double>(chains) / lambda;
    const auto hi = static_cast<std::int64_t>(std::max(1.0, 2 * mean_ticks - 1));
    for (std::size_t i = 0; i < kTable; ++i) {
      delays_ps_[i] = kTickPs * rng.UniformInt(1, hi);
      cancels_[i] = rng.Bernoulli(cancel_share);
    }
    far_ = SimTime::Picos(kTickPs * hi * 64);
    for (std::uint32_t c = 0; c < chains; ++c) {
      sim_.Schedule(SimTime::Picos(delays_ps_[(c * 7919u) % kTable]),
                    [this, c] { Fire(c); });
    }
  }

  // Nanoseconds per executed event.
  double Time() {
    const std::uint64_t e0 = sim_.events_executed();
    const Clock::time_point t0 = Clock::now();
    sim_.Run();  // Fire() stops the simulator at the target
    const double s = SecondsSince(t0);
    return s * 1e9 / static_cast<double>(sim_.events_executed() - e0);
  }

 private:
  static constexpr std::size_t kTable = 4096;
  static constexpr std::int64_t kTickPs = 1000;

  void Fire(std::uint32_t chain) {
    const std::size_t k = next_++ & (kTable - 1);
    ++fired_;
    if (cancels_[k]) {
      EventId& prev = pending_cancel_[chain];
      if (prev != kInvalidEventId) sim_.Cancel(prev);
      prev = sim_.Schedule(far_, [] {});
    }
    if (fired_ < target_) {
      sim_.Schedule(SimTime::Picos(delays_ps_[k]), [this, chain] { Fire(chain); });
    } else {
      sim_.Stop();
    }
  }

  Simulator sim_;
  std::int64_t delays_ps_[kTable] = {};
  bool cancels_[kTable] = {};
  std::vector<EventId> pending_cancel_;
  SimTime far_;
  std::uint64_t target_;
  std::uint64_t fired_ = 0;
  std::size_t next_ = 0;
};

class CountingSink final : public PacketSink {
 public:
  void HandlePacket(Packet&&) override { ++count; }
  std::uint64_t count = 0;
};

// The same TDTCP engine configuration the workloads run.
TcpConfig EngineConfig() {
  return MakeVariantConfig(Variant::kTdtcp,
                           PaperConfig(Variant::kTdtcp).workload.base);
}

std::uint64_t TorForwarded(Topology& topo) {
  return topo.tor(0)->forwarded() + topo.tor(1)->forwarded();
}

}  // namespace

Rung SimNsPerEvent(double events_per_batch, double cancel_share,
                   double pending, double budget_s) {
  const auto chains = static_cast<std::uint32_t>(
      std::clamp(std::lround(pending), 16L, 1L << 20));
  const double lambda = LambdaForBatch(events_per_batch);
  std::vector<double> ns;
  Repeat(budget_s, [&](bool keep) {
    EventChains ec(chains, lambda, cancel_share, 200'000);
    const double v = ec.Time();
    if (keep) ns.push_back(v);
  });
  return MedianRung(ns);
}

Rung WheelNsPerRearm(double budget_s) {
  constexpr std::size_t kTimers = 1024;
  constexpr std::size_t kTable = 4096;
  constexpr int kRearms = 200'000;
  std::vector<double> ns;
  Repeat(budget_s, [&](bool keep) {
    Simulator sim;
    TimerWheel wheel(sim);
    auto timers = std::make_unique<TimerWheel::Timer[]>(kTimers);
    Random rng(11);
    std::vector<SimTime> deadlines(kTable);
    for (SimTime& d : deadlines) {
      d = rng.UniformTime(SimTime::Micros(200), SimTime::Micros(400));
    }
    for (std::size_t i = 0; i < kTimers; ++i) {
      timers[i].Init(nullptr, [](void*) {});
      wheel.Arm(timers[i], deadlines[i]);
    }
    const Clock::time_point t0 = Clock::now();
    for (int j = 0; j < kRearms; ++j) {
      wheel.Arm(timers[static_cast<std::size_t>(j) & (kTimers - 1)],
                deadlines[static_cast<std::size_t>(j) & (kTable - 1)]);
    }
    const double v = SecondsSince(t0) * 1e9 / kRearms;
    if (keep) ns.push_back(v);
  });
  return MedianRung(ns);
}

HopRung HopNs(std::uint32_t endpoints, double budget_s) {
  constexpr std::uint64_t kPackets = 20'000;
  constexpr FlowId kFirstFlow = 1;
  HopRung out;
  std::vector<double> ns;
  Repeat(budget_s, [&](bool keep) {
    Simulator sim;
    Random rng(3);
    Topology topo(sim, rng, TopologyConfig{});
    CountingSink sink;
    Host* dst = topo.host(1, 0);
    for (std::uint32_t e = 0; e < endpoints; ++e) {
      dst->RegisterEndpoint(kFirstFlow + e, &sink);
    }
    Link* uplink = topo.rack_uplink(0);
    Packet tmpl;
    tmpl.type = PacketType::kData;
    tmpl.src = topo.host_id(0, 0);
    tmpl.dst = dst->id();
    tmpl.payload = 8940;
    tmpl.size_bytes = 9000;
    // One jumbo segment every 8 us: slower than the 10 Gbps packet-network
    // fabric serializes it (7.2 us), so no queue ever drops.
    std::uint64_t sent = 0;
    std::function<void()> send = [&] {
      Packet p = tmpl;
      p.id = sim.NextPacketId();
      p.flow = kFirstFlow + static_cast<FlowId>(sent % endpoints);
      p.seq = 1 + sent * 8940;
      p.sent_time = sim.now();
      uplink->Enqueue(std::move(p));
      if (++sent < kPackets) sim.ScheduleNoCancel(SimTime::Micros(8), send);
    };
    sim.ScheduleNoCancel(SimTime::Zero(), send);
    const Clock::time_point t0 = Clock::now();
    sim.Run();
    const double v = SecondsSince(t0) * 1e9 / kPackets;
    if (sink.count != kPackets) {
      throw std::runtime_error("hop rung: packets lost on a lossless path");
    }
    out.events_per_pkt =
        static_cast<double>(sim.events_executed()) / kPackets;
    if (keep) ns.push_back(v);
  });
  out.ns_per_pkt = MedianRung(ns);
  return out;
}

AckRung AckNs(bool lossy, bool invariant_checks, double window_segments,
              double budget_s) {
  std::vector<double> ack_ns;
  std::vector<double> data_ns;
  Repeat(budget_s, [&](bool keep) {
    Simulator sim;
    Random rng(5);
    TopologyConfig tc;
    tc.voq.capacity_packets = 1u << 20;
    tc.host_queue.capacity_packets = 1u << 20;
    Topology topo(sim, rng, tc);
    Host* src = topo.host(0, 0);
    Host* dst = topo.host(1, 0);
    TcpConfig cfg = EngineConfig();
    cfg.invariant_checks = invariant_checks;
    cfg.rcv_buf_bytes = static_cast<std::uint64_t>(
        std::max(4.0, window_segments) * cfg.mss);
    auto receiver = std::make_unique<TcpConnection>(sim, dst, 1, src->id(), cfg);
    auto sender = std::make_unique<TcpConnection>(sim, src, 1, dst->id(), cfg);
    EndpointTiming at_sender;
    EndpointTiming at_receiver;
    EndpointShim sender_shim(src, sender.get(), &at_sender);
    EndpointShim receiver_shim(dst, receiver.get(), &at_receiver);
    src->RegisterEndpoint(1, &sender_shim);
    dst->RegisterEndpoint(1, &receiver_shim);
    if (lossy) {
      std::uint64_t data = 0;
      topo.port(0, 1)->SetFaultFilter([data](const Packet& p) mutable {
        return p.payload > 0 && ++data % 50 == 0;
      });
    }
    receiver->Listen();
    sender->Connect();
    sender->SetUnlimitedData(true);
    sim.RunUntil(SimTime::Millis(2));
    at_sender = EndpointTiming{};
    at_receiver = EndpointTiming{};
    sim.RunUntil(SimTime::Millis(22));
    if (!lossy && sender->stats().retransmissions != 0) {
      throw std::runtime_error("clean ACK rung retransmitted");
    }
    const double ack = lossy ? at_sender.sack_ns / std::max<std::uint64_t>(
                                                       1, at_sender.sack_acks)
                             : at_sender.ack_ns / std::max<std::uint64_t>(
                                                      1, at_sender.acks);
    const double data =
        at_receiver.total_ns / std::max<std::uint64_t>(1, at_receiver.packets);
    if (keep) {
      ack_ns.push_back(ack);
      data_ns.push_back(data);
    }
  });
  return AckRung{MedianRung(ack_ns), MedianRung(data_ns)};
}

LifecycleRung LifecycleUs(double budget_s) {
  constexpr int kLifecycles = 1000;
  LifecycleRung out;
  std::vector<double> us;
  Repeat(budget_s, [&](bool keep) {
    Simulator sim;
    Random rng(9);
    Topology topo(sim, rng, TopologyConfig{});
    const TcpConfig cfg = EngineConfig();
    TcpConfig rc = cfg;
    rc.close_on_peer_fin = true;
    const std::uint32_t hosts = topo.config().hosts_per_rack;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kLifecycles; ++i) {
      const FlowId flow = 1'000'000 + static_cast<FlowId>(i);
      Host* src = topo.host(0, static_cast<std::uint32_t>(i) % hosts);
      Host* dst = topo.host(1, static_cast<std::uint32_t>(i) % hosts);
      int closed = 0;
      int normal = 0;
      auto on_closed = [&](CloseReason r) {
        ++closed;
        if (r == CloseReason::kNormal) ++normal;
      };
      auto receiver =
          std::make_unique<TcpConnection>(sim, dst, flow, src->id(), rc);
      receiver->SetClosedCallback(on_closed);
      receiver->Listen();
      auto sender =
          std::make_unique<TcpConnection>(sim, src, flow, dst->id(), cfg);
      sender->SetClosedCallback(on_closed);
      sender->Connect();
      sender->AddAppData(8940);
      sender->Close();
      while (closed < 2) sim.RunUntil(sim.now() + SimTime::Micros(100));
      if (normal != 2) {
        throw std::runtime_error("lifecycle rung: a close was not kNormal");
      }
    }
    const double v = SecondsSince(t0) * 1e6 / kLifecycles;
    out.events = static_cast<double>(sim.events_executed()) / kLifecycles;
    // Every packet crosses both ToRs.
    out.packets = static_cast<double>(TorForwarded(topo)) / 2 / kLifecycles;
    if (keep) us.push_back(v);
  });
  out.us = MedianRung(us);
  return out;
}

}  // namespace perfbench
