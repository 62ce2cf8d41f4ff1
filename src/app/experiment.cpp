#include "app/experiment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "fault/fault_injector.hpp"
#include "rdcn/rotor_controller.hpp"
#include "trace/convergence.hpp"
#include "trace/replayer.hpp"

namespace tdtcp {

ExperimentConfig& ExperimentConfig::WithVariant(Variant v) {
  workload.variant = v;
  // Reset engine state a previous variant may have left behind so any
  // variant derives cleanly from any base (the workload layer re-enables
  // TDTCP/MPTCP machinery from `variant`).
  workload.base.tdtcp_enabled = false;
  workload.base.num_tdns = 1;
  // DCTCP marks at a shallow threshold (half the VOQ with jumbo frames);
  // everything else never marks.
  topology.voq.ecn_threshold_packets =
      v == Variant::kDctcp ? 12 : std::numeric_limits<std::uint32_t>::max();
  dynamic_voq = (v == Variant::kRetcpDyn);
  return *this;
}

ExperimentConfig& ExperimentConfig::WithQdisc(QdiscKind kind) {
  topology.voq.kind = kind;
  if (kind == QdiscKind::kSharedPool) {
    // Let the dynamic threshold govern admission: the per-queue cap opens up
    // to the whole pool and alpha * free_pool becomes the binding bound.
    topology.voq.capacity_packets = kSharedPoolPackets;
  }
  return *this;
}

ExperimentConfig PaperConfig(Variant v) {
  ExperimentConfig cfg;
  cfg.workload.num_flows = 8;
  cfg.topology.hosts_per_rack = 16;

  // §5.1 jumbo frames; BDPs: packet ~14 segments, optical ~62.
  cfg.workload.base.mss = 8940;
  cfg.workload.base.initial_cwnd = 10;

  return cfg.WithVariant(v);
}

Experiment::Experiment(const ExperimentConfig& config)
    : config_(config), rng_(config.seed), topo_(sim_, rng_, config.topology) {
  sim_.set_batched_dispatch(config_.batched_dispatch);
  // Rack-pair sanity up front, before any port/host lookup can index past
  // the rack array (the Workload/ChurnGenerator constructors re-validate,
  // but the pair controller dereferences ports first).
  const RackId a = config_.workload.src_rack;
  const RackId b = config_.workload.dst_rack;
  if (a >= config_.topology.num_racks || b >= config_.topology.num_racks ||
      a == b) {
    throw std::invalid_argument(
        "Experiment: invalid workload rack pair (src=" + std::to_string(a) +
        ", dst=" + std::to_string(b) + ", num_racks=" +
        std::to_string(config_.topology.num_racks) + ")");
  }

  // Fabric scheduler: the paper's pair controller, or the RotorNet-style
  // rotation over every fabric port.
  if (config_.fabric == FabricKind::kRotor) {
    RotorController::Config rrc;
    rrc.day_length = config_.schedule.day_length;
    rrc.night_length = config_.schedule.night_length;
    rrc.packet_mode = config_.topology.packet_mode;
    rrc.circuit_mode = config_.topology.circuit_mode;
    rrc.perturb = config_.perturb;
    rrc.seed = config_.seed;
    scheduler_ = std::make_unique<RotorController>(sim_, rrc, &topo_);
  } else {
    RdcnController::Config rc;
    rc.schedule = config_.schedule;
    rc.packet_mode = config_.topology.packet_mode;
    rc.circuit_mode = config_.topology.circuit_mode;
    rc.dynamic_voq = config_.dynamic_voq;
    rc.perturb = config_.perturb;
    rc.seed = config_.seed;
    scheduler_ = std::make_unique<RdcnController>(
        sim_, rc, std::vector<FabricPort*>{topo_.port(a, b), topo_.port(b, a)},
        std::vector<ToRSwitch*>{topo_.tor(a), topo_.tor(b)});
  }
  // TDN-count changes travel the management plane: the scheduler's reconfig
  // hook fans out to every host synchronously (not via the lossy ICMP path),
  // and each listening connection retires its surplus per-TDN state sets.
  if (!config_.perturb.Empty()) {
    scheduler_->SetReconfigHook([this](std::uint32_t live_tdns) {
      for (NodeId id = 0; id < topo_.num_hosts(); ++id) {
        topo_.host_by_id(id)->DistributeTdnReconfig(live_tdns);
      }
    });
  }

  // The recovery axis edits the effective transport config (kOff strips
  // RACK and TLP for a pure-RTO baseline) and, for kAgent, plants one agent
  // per host. Agents are created before any connection so constructors find
  // them via Host::recovery_agent(), and declared before the workload/churn
  // so connections deregister from a live agent during teardown.
  WorkloadConfig effective_workload = config_.workload;
  if (config_.recovery == RecoveryMode::kOff) {
    effective_workload.base.rack_enabled = false;
    effective_workload.base.tlp_enabled = false;
  }
  if (config_.recovery == RecoveryMode::kAgent) {
    for (NodeId id = 0; id < topo_.num_hosts(); ++id) {
      agents_.push_back(std::make_unique<RecoveryAgent>(
          sim_, *topo_.host_by_id(id)));
    }
  }

  workload_ = std::make_unique<Workload>(sim_, topo_, effective_workload);
  Workload& workload = *workload_;

  if (config_.churn.enabled) {
    ChurnConfig cc = config_.churn;
    if (cc.inherit_base) {
      cc.base = effective_workload.base;
      // Churn cycles are plain TcpConnection pairs; an MPTCP experiment's
      // churn traffic runs the subflow transport instead.
      cc.variant = config_.workload.variant == Variant::kMptcp
                       ? Variant::kCubic
                       : config_.workload.variant;
    }
    churn_ = std::make_unique<ChurnGenerator>(sim_, topo_, cc, config_.seed);
  }

  // Arm the fault injector (if any) after the flows exist but before the
  // controller's synchronous t=0 notification, so the very first NotifyHosts
  // already passes through the control-plane fault hook.
  if (!config_.fault.Empty()) {
    injector_ =
        std::make_unique<FaultInjector>(sim_, config_.fault, config_.seed);
    injector_->Arm(topo_);
    for (auto& f : workload.flows()) {
      if (f.tcp_sender) f.tcp_sender->SetFaultTraceSource(injector_.get());
      if (f.tcp_receiver) f.tcp_receiver->SetFaultTraceSource(injector_.get());
    }
  }

  // Tracepoint ring: one per run, shared by the scheduler, every host, and
  // every plain-TCP endpoint. Wired before scheduler_->Start() so the t=0
  // day boundary and its notifications are already on the record.
  if (config_.trace.enabled) {
    trace_ring_ = std::make_unique<TraceRing>(config_.trace.ring_capacity);
    // Only the pair scheduler traces; under the rotor, hosts and endpoints
    // still put every notification/lifecycle event on the record.
    if (config_.fabric == FabricKind::kPair) {
      scheduler_->SetTraceRing(trace_ring_.get());
    }
    for (NodeId id = 0; id < topo_.num_hosts(); ++id) {
      topo_.host_by_id(id)->SetTraceRing(trace_ring_.get());
    }
    if (churn_) churn_->SetTraceRing(trace_ring_.get());
    for (auto& f : workload.flows()) {
      if (f.tcp_sender) f.tcp_sender->SetTraceRing(trace_ring_.get());
      // Both endpoints of a flow share its FlowId, but replay recreates only
      // the sender; the recorded flow's receiver stays off the ring so the
      // flow-filtered stream holds exactly what replay can reproduce.
      if (f.tcp_receiver &&
          f.tcp_receiver->flow() != config_.trace.record_flow) {
        f.tcp_receiver->SetTraceRing(trace_ring_.get());
      }
    }
    if (config_.trace.record_flow != 0) {
      const FlowId first = config_.workload.first_flow_id;
      const std::uint32_t idx = config_.trace.record_flow - first;
      if (config_.trace.record_flow >= first && idx < workload.flows().size() &&
          workload.flows()[idx].tcp_sender) {
        recorder_ = std::make_unique<TraceRecorder>(
            sim_, *workload.flows()[idx].tcp_sender, *topo_.host(a, idx));
      }
    }
  }

  scheduler_->Start();
  workload.Start();
  if (churn_) churn_->Start();
  if (recorder_) {
    // Workload::Start just called Connect()/SetUnlimitedData(true) on every
    // sender; mirror them into the recording after the t=0 notification the
    // controller already delivered, preserving invocation order.
    recorder_->NoteConnect();
    recorder_->NoteUnlimited();
  }

  const auto sample = [this](std::function<double()> probe) {
    auto s = std::make_unique<SeriesSampler>(sim_, config_.sample_interval,
                                             std::move(probe));
    s->Start();
    return s;
  };
  seq_ = sample([&workload] {
    return static_cast<double>(workload.total_bytes_acked());
  });
  if (config_.sample_voq) {
    FabricPort* fwd = topo_.port(a, b);
    voq_ = sample(
        [fwd] { return static_cast<double>(fwd->voq().occupancy()); });
  }
  if (config_.sample_reorder) {
    reorder_ev_ = sample([&workload] {
      return static_cast<double>(workload.total_reorder_events());
    });
    reorder_mk_ = sample([&workload] {
      return static_cast<double>(workload.total_reorder_marked_lost());
    });
    dup_segs_ = sample([&workload] {
      return static_cast<double>(workload.total_duplicate_segments());
    });
  }

  sim_.ScheduleNoCancel(config_.warmup, [this] {
    bytes_at_warmup_ = workload_->total_bytes_acked();
  });
}

Experiment::~Experiment() = default;

void Experiment::RunUntil(SimTime t) {
  if (finished_) throw std::logic_error("Experiment: the run has finished");
  if (bytes_at_end_) return;
  sim_.RunUntil(std::min(t, config_.duration));
  // Freeze the goodput window before any churn drain extends the run.
  if (t >= config_.duration) bytes_at_end_ = workload_->total_bytes_acked();
}

ExperimentResult Experiment::Finish() {
  RunUntil(config_.duration);
  finished_ = true;
  const int plot_weeks = config_.plot_weeks;
  const RackId a = config_.workload.src_rack;
  const RackId b = config_.workload.dst_rack;

  if (churn_) {
    // Drain: the arrival process runs until it reaches its target — arrivals
    // deferred behind busy slots spill past `duration` — and every open cycle
    // then resolves within slot_timeout of its opening (the app-level abort
    // guarantees it). Step the clock until the generator reports done; the
    // iteration bound is a backstop against misconfiguration, generous enough
    // that hitting it means something is genuinely wedged (which the
    // churn_all_closed result flag then records).
    const SimTime step = config_.churn.slot_timeout + SimTime::Millis(1);
    for (int i = 0;
         i < 100000 && !(churn_->stats().opened >=
                             config_.churn.target_connections &&
                         churn_->AllClosed());
         ++i) {
      sim_.RunUntil(sim_.now() + step);
    }
  }

  const Schedule schedule(config_.schedule);

  ExperimentResult r;
  r.variant = config_.workload.variant;
  // The pair reports its nominal week, the rotor its current one.
  r.week = config_.fabric == FabricKind::kRotor ? scheduler_->week_length()
                                               : schedule.week_length();
  r.duration = config_.duration;
  r.warmup = config_.warmup;
  r.total_bytes = *bytes_at_end_;
  const double window_s = (config_.duration - config_.warmup).seconds();
  if (window_s > 0) {
    r.goodput_bps =
        static_cast<double>(r.total_bytes - bytes_at_warmup_) * 8.0 / window_s;
  }

  r.seq_samples = seq_->samples();
  r.seq_curve = FoldWeeks(r.seq_samples, r.week, config_.warmup, plot_weeks);
  if (voq_) {
    r.voq_samples = voq_->samples();
    r.voq_curve = FoldLevels(r.voq_samples, r.week, config_.warmup, plot_weeks);
  }

  if (reorder_ev_) {
    r.reorder_event_samples = reorder_ev_->samples();
    r.reorder_marked_samples = reorder_mk_->samples();
    r.reorder_events_per_day =
        PerWeekDeltas(r.reorder_event_samples, r.week, config_.warmup);
    r.reorder_marked_per_day =
        PerWeekDeltas(r.reorder_marked_samples, r.week, config_.warmup);
    r.spurious_rtx_per_day =
        PerWeekDeltas(dup_segs_->samples(), r.week, config_.warmup);
  }

  // Analytic reference lines over the plotted window. The "optimal" flow
  // uses the full fabric rate of whichever TDN is active (nights idle); the
  // "packet only" flow holds the packet rate continuously (no blackouts).
  {
    const std::uint64_t pkt = config_.topology.packet_mode.rate_bps;
    const std::uint64_t opt = config_.topology.circuit_mode.rate_bps;
    const SimTime step = config_.sample_interval;
    const SimTime window = r.week * plot_weeks;
    for (SimTime t = SimTime::Zero(); t <= window; t += step) {
      FoldedPoint po;
      po.offset_us = t.micros_f();
      po.mean = schedule.OptimalBits(t, pkt, opt) / 8.0;
      r.optimal_curve.push_back(po);
      FoldedPoint pp;
      pp.offset_us = t.micros_f();
      pp.mean = schedule.PacketOnlyBits(t, pkt) / 8.0;
      r.packet_only_curve.push_back(pp);
    }
  }

  // Aggregate stats.
  for (auto& f : workload_->flows()) {
    r.retransmissions += f.retransmissions();
    r.reorder_events += f.reorder_events();
    r.reorder_marked_lost += f.reorder_marked_lost();
    r.duplicate_segments += f.duplicate_segments();
    if (f.tcp_sender) {
      r.undo_events += f.tcp_sender->stats().undo_events;
      r.timeouts += f.tcp_sender->stats().timeouts;
      r.cross_tdn_exemptions += f.tcp_sender->stats().cross_tdn_exemptions;
      r.tdn_inferred_switches += f.tcp_sender->stats().tdn_inferred_switches;
      r.tdn_reconfigs += f.tcp_sender->stats().tdn_reconfigs;
    }
    if (f.tcp_receiver) {
      r.tdn_inferred_switches += f.tcp_receiver->stats().tdn_inferred_switches;
      r.tdn_reconfigs += f.tcp_receiver->stats().tdn_reconfigs;
    }
  }

  // Schedule-perturbation accounting.
  r.schedule_changes = scheduler_->schedule_changes_applied();
  r.restart_holds = scheduler_->restart_holds();

  // Connection-churn accounting.
  if (churn_) {
    r.churn = churn_->stats();
    r.churn_hash = churn_->hash();
    r.churn_all_closed = churn_->AllClosed();
    // Per-size-bucket FCT tails (nearest-rank: the tail of a small bucket
    // is an observed sample, not an interpolation), one bucket's copy at a
    // time, then every completion, handed over without a copy.
    const std::vector<double>& fct_us = churn_->fct_us();
    const std::vector<std::uint8_t>& fct_buckets = churn_->fct_buckets();
    for (std::size_t bkt = 0; bkt < kNumFctBuckets; ++bkt) {
      auto& out = r.churn_fct_bucket[bkt];
      out.count = static_cast<std::uint64_t>(
          std::count(fct_buckets.begin(), fct_buckets.end(), bkt));
      std::vector<double> bucket_us;
      bucket_us.reserve(out.count);
      for (std::size_t i = 0; i < fct_us.size(); ++i) {
        if (fct_buckets[i] == bkt) bucket_us.push_back(fct_us[i]);
      }
      const std::vector<double> tails =
          PercentilesNearestRank(std::move(bucket_us), {50, 99, 99.9});
      out.p50_us = tails[0];
      out.p99_us = tails[1];
      out.p999_us = tails[2];
    }
    r.churn_fct_us = churn_->TakeFctUs();
  }

  // Host recovery agent accounting.
  for (const auto& agent : agents_) {
    r.recovery_forced += agent->stats().forced;
    r.recovery_rescued += agent->stats().rescued;
    r.recovery_spurious += agent->stats().spurious;
  }

  // Fault/robustness accounting.
  if (injector_) {
    r.faults_injected = injector_->stats().total();
    r.fault_trace_hash = injector_->TraceHash();
    r.notifications_dropped =
        injector_->stats().notifications_dropped +
        injector_->stats().stall_dropped;
  }
  for (NodeId id = 0; id < topo_.num_hosts(); ++id) {
    r.stale_notifications +=
        topo_.host_by_id(id)->stale_notifications_dropped();
  }
  {
    const QueueDisc::Stats& qf = topo_.port(a, b)->voq().stats();
    const QueueDisc::Stats& qr = topo_.port(b, a)->voq().stats();
    r.voq_shrink_deferred = qf.shrink_deferred + qr.shrink_deferred;
    r.voq_drops = qf.dropped + qr.dropped;
    r.voq_ce_marked = qf.ce_marked + qr.ce_marked;
    r.voq_codel_drops = qf.codel_drops + qr.codel_drops;
    r.voq_codel_marks = qf.codel_marks + qr.codel_marks;
    r.voq_delay_marked = qf.delay_marked + qr.delay_marked;
    r.voq_shared_rejected = qf.shared_rejected + qr.shared_rejected;
    // Merge the two ports' sojourn histograms so the percentile reflects
    // every serviced packet on the observed pair.
    QueueDisc::Stats merged;
    merged.sojourn_count = qf.sojourn_count + qr.sojourn_count;
    merged.sojourn_sum_us = qf.sojourn_sum_us + qr.sojourn_sum_us;
    for (std::size_t bkt = 0; bkt < QueueDisc::Stats::kSojournBuckets; ++bkt) {
      merged.sojourn_hist[bkt] = qf.sojourn_hist[bkt] + qr.sojourn_hist[bkt];
    }
    r.voq_sojourn_mean_us = merged.mean_sojourn_us();
    r.voq_sojourn_p99_us = merged.SojournPercentileUs(99);
    r.voq_sojourn_max_us =
        std::max(qf.max_sojourn, qr.max_sojourn).micros_f();
  }
  {
    const Simulator::Stats ss = sim_.GetStats();
    r.sim_events = ss.events_executed;
    r.sim_batches = ss.batches;
    r.sim_max_batch = ss.max_batch;
    r.sim_cohort_hits = ss.cohort_hits;
    r.sim_dead_dropped = ss.dead_dropped;
    r.sim_compactions = ss.compactions;
  }
  if (trace_ring_) {
    r.trace_hash = trace_ring_->Hash();
    r.trace_records = trace_ring_->total_emitted();
    if (recorder_) {
      r.recorded =
          std::make_shared<RecordedConnection>(recorder_->Finish(*trace_ring_));
    }
    // Convergence oracle over the post-warmup cwnd evolution of every traced
    // flow (long-lived and churned alike — both emit kTcpCwndUpdate).
    const ConvergenceReport report = ClassifyConvergence(
        trace_ring_->Snapshot(), ConvergenceConfig{config_.warmup.picos()});
    r.stability_converged = report.flows_converged;
    r.stability_oscillating = report.flows_oscillating;
    r.stability_starved = report.flows_starved;
    r.stability_insufficient = report.flows_insufficient;
    r.stability_worst_amplitude = report.worst_amplitude;
    r.stability_worst_period_us = report.worst_period_us;
  }
  return r;
}


ExperimentResult RunExperiment(const ExperimentConfig& config) {
  return Experiment(config).Finish();
}

}  // namespace tdtcp
