#include "composed.hpp"

#include <cstdio>
#include <memory>
#include <stdexcept>

#include "fault/fault_injector.hpp"
#include "rdcn/controller.hpp"
#include "rdcn/rotor_controller.hpp"
#include "reference.hpp"
#include "sim/simulator.hpp"
#include "trace/samplers.hpp"

namespace perfbench {

using namespace tdtcp;

int SpanLog::Begin(std::string name, int parent) {
  const double now = SecondsSince(origin_);
  spans_.push_back(Span{std::move(name), parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}\n",
                 i, s.name.c_str(), s.parent, s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

std::string Fingerprint::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "churn_hash=%016llx bytes_acked=%llu retransmissions=%llu "
                "sim_events=%llu abnormal=%llu",
                static_cast<unsigned long long>(churn_hash),
                static_cast<unsigned long long>(bytes_acked),
                static_cast<unsigned long long>(retransmissions),
                static_cast<unsigned long long>(sim_events),
                static_cast<unsigned long long>(abnormal));
  return buf;
}

void EndpointShim::HandlePacket(Packet&& p) {
  if (conn_->state() == TcpConnection::State::kClosed) {
    host_->UnregisterEndpoint(conn_->flow(), this);
    host_->HandlePacket(std::move(p));
    return;
  }
  const bool pure_ack = p.type == PacketType::kAck;
  const bool sack = p.num_sack > 0;
  const Clock::time_point t0 = Clock::now();
  conn_->HandlePacket(std::move(p));
  const double ns =
      std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  ++timing_->packets;
  timing_->total_ns += ns;
  if (pure_ack) {
    ++timing_->acks;
    timing_->ack_ns += ns;
    if (sack) {
      ++timing_->sack_acks;
      timing_->sack_ns += ns;
    }
  }
}

Fingerprint FingerprintOf(const ExperimentResult& r) {
  return Fingerprint{r.churn_hash, r.total_bytes, r.retransmissions,
                     r.sim_events, r.churn.abnormal()};
}

namespace {

// Opens a span when a log is present; a no-op otherwise.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, int parent = -1)
      : log_(log), id_(log ? log->Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// RunExperiment's wiring, restricted to what the benchmark's workloads use.
// Members are declared in RunExperiment's local order, so they are destroyed
// in the same order too.
class ComposedRun {
 public:
  ComposedRun(const ExperimentConfig& config, const RunOptions& options)
      : config_(config), options_(options) {
    if (!config.perturb.Empty() || config.recovery != RecoveryMode::kRack ||
        config.trace.enabled || !config.batched_dispatch ||
        config.sample_voq || config.sample_reorder ||
        config.workload.variant == Variant::kMptcp) {
      throw std::invalid_argument(
          "composed run: config uses a feature the benchmark does not "
          "mirror (perturbation, recovery mode, trace options, sequential "
          "dispatch, VOQ/reorder sampling or MPTCP)");
    }
  }

  void Setup(RunResult& out, int parent) {
    SpanLog* log = options_.spans;
    const Clock::time_point t0 = Clock::now();
    const RackId a = config_.workload.src_rack;
    const RackId b = config_.workload.dst_rack;
    {
      ScopedSpan s(log, "setup.topology", parent);
      sim_ = std::make_unique<Simulator>();
      rng_ = std::make_unique<Random>(config_.seed);
      topo_ = std::make_unique<Topology>(*sim_, *rng_, config_.topology);
    }
    out.topology_s = SecondsSince(t0);

    const Clock::time_point t1 = Clock::now();
    {
      ScopedSpan s(log, "setup.controller", parent);
      if (config_.fabric == FabricKind::kRotor) {
        RotorController::Config rrc;
        rrc.day_length = config_.schedule.day_length;
        rrc.night_length = config_.schedule.night_length;
        rrc.packet_mode = config_.topology.packet_mode;
        rrc.circuit_mode = config_.topology.circuit_mode;
        rrc.perturb = config_.perturb;
        rrc.seed = config_.seed;
        rotor_ = std::make_unique<RotorController>(*sim_, rrc, topo_.get());
      } else {
        RdcnController::Config rc;
        rc.schedule = config_.schedule;
        rc.packet_mode = config_.topology.packet_mode;
        rc.circuit_mode = config_.topology.circuit_mode;
        rc.dynamic_voq = config_.dynamic_voq;
        rc.perturb = config_.perturb;
        rc.seed = config_.seed;
        controller_ = std::make_unique<RdcnController>(
            *sim_, rc,
            std::vector<FabricPort*>{topo_->port(a, b), topo_->port(b, a)},
            std::vector<ToRSwitch*>{topo_->tor(a), topo_->tor(b)});
      }
    }
    out.controller_s = SecondsSince(t1);

    const Clock::time_point t2 = Clock::now();
    {
      ScopedSpan s(log, "setup.generators", parent);
      {
        ScopedSpan w(log, "setup.workload", s.id());
        workload_ = std::make_unique<Workload>(*sim_, *topo_, config_.workload);
      }
      if (config_.churn.enabled) {
        ScopedSpan c(log, "setup.churn", s.id());
        ChurnConfig cc = config_.churn;
        if (cc.inherit_base) {
          cc.base = config_.workload.base;
          cc.variant = config_.workload.variant;
        }
        churn_ = std::make_unique<ChurnGenerator>(*sim_, *topo_, cc,
                                                  config_.seed);
      }
      if (!config_.fault.Empty()) {
        ScopedSpan f(log, "setup.fault", s.id());
        injector_ = std::make_unique<FaultInjector>(*sim_, config_.fault,
                                                    config_.seed);
        injector_->Arm(*topo_);
        for (auto& flow : workload_->flows()) {
          flow.tcp_sender->SetFaultTraceSource(injector_.get());
          flow.tcp_receiver->SetFaultTraceSource(injector_.get());
        }
      }
      if (options_.attach_ring) AttachRing();
      if (log != nullptr) AttachShims(out.endpoints);
    }
    out.generators_s = SecondsSince(t2);

    {
      ScopedSpan s(log, "setup.start", parent);
      if (rotor_) {
        rotor_->Start();
      } else {
        controller_->Start();
      }
      workload_->Start();
      if (churn_) churn_->Start();
      Workload* w = workload_.get();
      seq_ = std::make_unique<SeriesSampler>(
          *sim_, config_.sample_interval,
          [w] { return static_cast<double>(w->total_bytes_acked()); });
      seq_->Start();
      // RunExperiment's goodput-window event: kept so that both paths
      // schedule exactly the same events.
      sim_->ScheduleNoCancel(config_.warmup, [this] {
        bytes_at_warmup_ = workload_->total_bytes_acked();
      });
    }
    out.setup_s = SecondsSince(t0);
  }

  void Run(RunResult& out, int parent) {
    SpanLog* log = options_.spans;
    std::vector<double>* slices = log == nullptr ? options_.slice_s : nullptr;
    // Advances the simulation to `until`, as one timed slice when asked.
    auto advance = [&](SimTime until) {
      if (slices == nullptr) {
        sim_->RunUntil(until);
        return;
      }
      const Clock::time_point s0 = Clock::now();
      sim_->RunUntil(until);
      slices->push_back(SecondsSince(s0));
      if (options_.reference != nullptr &&
          slices->size() % kSlicesPerChunk == 0) {
        options_.reference->TimeChunk();
      }
    };
    const Clock::time_point t0 = Clock::now();
    if (slices != nullptr) {
      for (int k = 1; k <= kTimedSlices; ++k) {
        advance(config_.duration * k / kTimedSlices);
      }
    } else if (log == nullptr) {
      sim_->RunUntil(config_.duration);
    } else {
      constexpr int n = 20;
      const auto& flows = workload_->flows();
      const std::uint32_t racks = config_.topology.num_racks;
      const std::uint32_t hpr = config_.topology.hosts_per_rack;
      double pending = 0;
      double endpoints = 0;
      double inflight = 0;
      for (int k = 1; k <= n; ++k) {
        {
          ScopedSpan s(log, "run.slice", parent);
          sim_->RunUntil(config_.duration * k / n);
        }
        pending += static_cast<double>(sim_->pending_events());
        for (RackId r = 0; r < racks; ++r) {
          for (std::uint32_t i = 0; i < hpr; ++i) {
            endpoints += static_cast<double>(topo_->host(r, i)->num_endpoints());
          }
        }
        for (const Flow& f : flows) {
          inflight += static_cast<double>(f.tcp_sender->outstanding_bytes()) /
                      config_.workload.base.mss;
        }
      }
      out.mean_pending_events = pending / n;
      out.mean_endpoints_per_host = endpoints / (n * static_cast<double>(racks) * hpr);
      if (!flows.empty()) {
        out.mean_inflight_segments =
            inflight / (n * static_cast<double>(flows.size()));
      }
    }
    bytes_at_end_ = workload_->total_bytes_acked();
    if (churn_) {
      // RunExperiment's drain: step until the generator reached its target
      // and every cycle closed.
      ScopedSpan s(log, "run.drain", parent);
      const SimTime step = config_.churn.slot_timeout + SimTime::Millis(1);
      for (int i = 0; i < 100000 && !(churn_->stats().opened >=
                                          config_.churn.target_connections &&
                                      churn_->AllClosed());
           ++i) {
        const SimTime from = sim_->now();
        const int pieces = slices != nullptr ? kDrainPieces : 1;
        for (int j = 1; j <= pieces; ++j) advance(from + step * j / pieces);
      }
    }
    out.run_s = SecondsSince(t0);
  }

  void Collect(RunResult& out) const {
    LayerCounts& c = out.counts;
    const Simulator::Stats ss = sim_->GetStats();
    c.events = ss.events_executed;
    c.batches = ss.batches;
    c.dead_dropped = ss.dead_dropped;
    c.compactions = ss.compactions;

    const std::uint32_t racks = config_.topology.num_racks;
    const std::uint32_t hpr = config_.topology.hosts_per_rack;
    QueueDisc::Stats sojourn;
    for (RackId r = 0; r < racks; ++r) {
      const ToRSwitch* tor = topo_->tor(r);
      c.tor_forwarded += tor->forwarded();
      c.notifications_sent += tor->notifications_sent();
      c.fault_dropped += topo_->rack_uplink(r)->fault_dropped() +
                         topo_->rack_downlink(r)->fault_dropped();
      for (RackId d = 0; d < racks; ++d) {
        if (d == r) continue;
        const FabricPort* port = topo_->port(r, d);
        const QueueDisc::Stats& q = port->voq().stats();
        c.voq_drops += q.dropped;
        c.fault_dropped += port->fault_dropped();
        sojourn.sojourn_count += q.sojourn_count;
        for (std::size_t k = 0; k < QueueDisc::Stats::kSojournBuckets; ++k) {
          sojourn.sojourn_hist[k] += q.sojourn_hist[k];
        }
      }
      for (std::uint32_t i = 0; i < hpr; ++i) {
        const Host* h = topo_->host(r, i);
        c.no_endpoint_drops += h->dropped_no_endpoint();
        c.rsts_sent += h->rsts_sent();
        c.stale_notifications += h->stale_notifications_dropped();
      }
    }
    c.voq_sojourn_p99_us = sojourn.SojournPercentileUs(99);

    std::uint64_t retransmissions = 0;
    for (const Flow& f : workload_->flows()) {
      retransmissions += f.retransmissions();
      if (f.bytes_acked() == 0) ++c.idle_long_flows;
      for (const TcpConnection* conn :
           {f.tcp_sender.get(), f.tcp_receiver.get()}) {
        const TcpStats& s = conn->stats();
        c.acks += s.acks_received;
        c.segments_sent += s.segments_sent;
        c.retransmissions += s.retransmissions;
        c.timeouts += s.timeouts;
        c.tlp_probes += s.tlp_probes;
        c.tdn_switches += s.tdn_switches;
      }
    }

    if (churn_) {
      const ChurnStats& s = churn_->stats();
      c.opened = s.opened;
      c.closed = s.closed;
      c.abnormal = s.abnormal();
      c.deferred = s.deferred;
      c.app_timeouts = s.app_timeouts;
      const std::uint64_t target = config_.churn.target_connections;
      c.leaked = (s.closed < target ? target - s.closed : 0) +
                 s.reasons[static_cast<std::size_t>(CloseReason::kNone)];
    }
    if (injector_) c.fault_injected = injector_->stats().total();
    if (ring_) c.trace_records = ring_->total_emitted();

    out.fp = Fingerprint{churn_ ? churn_->hash() : 0, bytes_at_end_,
                         retransmissions, c.events, c.abnormal};
  }

 private:
  // As RunExperiment does for ExperimentConfig::WithTrace(): one ring shared
  // by the pair controller, every host, the churn generator and both ends
  // of every long flow.
  void AttachRing() {
    ring_ = std::make_unique<TraceRing>(config_.trace.ring_capacity);
    if (controller_) controller_->SetTraceRing(ring_.get());
    for (RackId r = 0; r < config_.topology.num_racks; ++r) {
      for (std::uint32_t i = 0; i < config_.topology.hosts_per_rack; ++i) {
        topo_->host(r, i)->SetTraceRing(ring_.get());
      }
    }
    if (churn_) churn_->SetTraceRing(ring_.get());
    for (auto& f : workload_->flows()) {
      f.tcp_sender->SetTraceRing(ring_.get());
      f.tcp_receiver->SetTraceRing(ring_.get());
    }
  }

  void AttachShims(EndpointTiming& timing) {
    const WorkloadConfig& wc = config_.workload;
    for (std::uint32_t i = 0; i < workload_->flows().size(); ++i) {
      Flow& f = workload_->flows()[i];
      const FlowId id = wc.first_flow_id + i;
      Host* src = topo_->host(wc.src_rack, i);
      Host* dst = topo_->host(wc.dst_rack, i);
      shims_.push_back(
          std::make_unique<EndpointShim>(src, f.tcp_sender.get(), &timing));
      src->RegisterEndpoint(id, shims_.back().get());
      shims_.push_back(
          std::make_unique<EndpointShim>(dst, f.tcp_receiver.get(), &timing));
      dst->RegisterEndpoint(id, shims_.back().get());
    }
  }

  const ExperimentConfig& config_;
  RunOptions options_;
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Random> rng_;
  std::unique_ptr<Topology> topo_;
  std::unique_ptr<RdcnController> controller_;
  std::unique_ptr<RotorController> rotor_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<ChurnGenerator> churn_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<TraceRing> ring_;
  std::vector<std::unique_ptr<EndpointShim>> shims_;
  std::unique_ptr<SeriesSampler> seq_;
  std::uint64_t bytes_at_warmup_ = 0;
  std::uint64_t bytes_at_end_ = 0;
};

}  // namespace

RunResult RunComposed(const ExperimentConfig& config,
                      const RunOptions& options) {
  RunResult out;
  SpanLog* log = options.spans;
  ScopedSpan pass(log, "pass");
  auto run = std::make_unique<ComposedRun>(config, options);
  run->Setup(out, pass.id());
  run->Run(out, pass.id());
  {
    ScopedSpan s(log, "collect", pass.id());
    run->Collect(out);
  }
  ScopedSpan s(log, "teardown", pass.id());
  run.reset();
  return out;
}

double SetupOnly(const ExperimentConfig& config) {
  RunResult out;
  ComposedRun run(config, RunOptions{});
  run.Setup(out, -1);
  return out.setup_s;
}

}  // namespace perfbench
