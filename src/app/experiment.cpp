#include "app/experiment.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "fault/fault_injector.hpp"
#include "rdcn/rotor_controller.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
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
    topology.voq.capacity_packets = topology.voq.shared_pool_packets;
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

ExperimentResult RunExperiment(const ExperimentConfig& config) {
  const int plot_weeks = config.plot_weeks;
  // Rack-pair sanity up front, before any port/host lookup can index past
  // the rack array (the Workload/ChurnGenerator constructors re-validate,
  // but the pair controller dereferences ports first).
  const RackId a = config.workload.src_rack;
  const RackId b = config.workload.dst_rack;
  if (a >= config.topology.num_racks || b >= config.topology.num_racks ||
      a == b) {
    throw std::invalid_argument(
        "RunExperiment: invalid workload rack pair (src=" + std::to_string(a) +
        ", dst=" + std::to_string(b) + ", num_racks=" +
        std::to_string(config.topology.num_racks) + ")");
  }
  Simulator sim;
  sim.set_batched_dispatch(config.batched_dispatch);
  Random rng(config.seed);

  Topology topo(sim, rng, config.topology);

  // Fabric scheduler: the paper's pair controller, or the RotorNet-style
  // rotation over every fabric port.
  std::unique_ptr<FabricScheduler> scheduler;
  if (config.fabric == FabricKind::kRotor) {
    RotorController::Config rrc;
    rrc.day_length = config.schedule.day_length;
    rrc.night_length = config.schedule.night_length;
    rrc.packet_mode = config.topology.packet_mode;
    rrc.circuit_mode = config.topology.circuit_mode;
    rrc.perturb = config.perturb;
    rrc.seed = config.seed;
    scheduler = std::make_unique<RotorController>(sim, rrc, &topo);
  } else {
    RdcnController::Config rc;
    rc.schedule = config.schedule;
    rc.packet_mode = config.topology.packet_mode;
    rc.circuit_mode = config.topology.circuit_mode;
    rc.dynamic_voq = config.dynamic_voq;
    rc.perturb = config.perturb;
    rc.seed = config.seed;
    scheduler = std::make_unique<RdcnController>(
        sim, rc, std::vector<FabricPort*>{topo.port(a, b), topo.port(b, a)},
        std::vector<ToRSwitch*>{topo.tor(a), topo.tor(b)});
  }
  // TDN-count changes travel the management plane: the scheduler's reconfig
  // hook fans out to every host synchronously (not via the lossy ICMP path),
  // and each listening connection retires its surplus per-TDN state sets.
  if (!config.perturb.Empty()) {
    scheduler->SetReconfigHook([&topo, &config](std::uint32_t live_tdns) {
      for (RackId rack = 0; rack < config.topology.num_racks; ++rack) {
        for (std::uint32_t i = 0; i < config.topology.hosts_per_rack; ++i) {
          topo.host(rack, i)->DistributeTdnReconfig(live_tdns);
        }
      }
    });
  }

  // The recovery axis edits the effective transport config (kOff strips
  // RACK and TLP for a pure-RTO baseline) and, for kAgent, plants one agent
  // per host. Agents are created before any connection so constructors find
  // them via Host::recovery_agent(), and declared before the workload/churn
  // so connections deregister from a live agent during teardown.
  WorkloadConfig effective_workload = config.workload;
  if (config.recovery == RecoveryMode::kOff) {
    effective_workload.base.rack_enabled = false;
    effective_workload.base.tlp_enabled = false;
  }
  std::vector<std::unique_ptr<RecoveryAgent>> agents;
  if (config.recovery == RecoveryMode::kAgent) {
    for (RackId rack = 0; rack < config.topology.num_racks; ++rack) {
      for (std::uint32_t i = 0; i < config.topology.hosts_per_rack; ++i) {
        agents.push_back(std::make_unique<RecoveryAgent>(
            sim, *topo.host(rack, i), config.recovery_config));
      }
    }
  }

  Workload workload(sim, topo, effective_workload);

  std::unique_ptr<ChurnGenerator> churn;
  if (config.churn.enabled) {
    ChurnConfig cc = config.churn;
    if (cc.inherit_base) {
      cc.base = effective_workload.base;
      // Churn cycles are plain TcpConnection pairs; an MPTCP experiment's
      // churn traffic runs the subflow transport instead.
      cc.variant = config.workload.variant == Variant::kMptcp
                       ? Variant::kCubic
                       : config.workload.variant;
    }
    churn = std::make_unique<ChurnGenerator>(sim, topo, cc, config.seed);
  }

  // Arm the fault injector (if any) after the flows exist but before the
  // controller's synchronous t=0 notification, so the very first NotifyHosts
  // already passes through the control-plane fault hook.
  std::unique_ptr<FaultInjector> injector;
  if (!config.fault.Empty()) {
    injector = std::make_unique<FaultInjector>(sim, config.fault, config.seed);
    injector->Arm(topo);
    for (auto& f : workload.flows()) {
      if (f.tcp_sender) f.tcp_sender->SetFaultTraceSource(injector.get());
      if (f.tcp_receiver) f.tcp_receiver->SetFaultTraceSource(injector.get());
    }
  }

  // Tracepoint ring: one per run, shared by the scheduler, every host, and
  // every plain-TCP endpoint. Wired before scheduler->Start() so the t=0
  // day boundary and its notifications are already on the record.
  std::unique_ptr<TraceRing> trace_ring;
  std::unique_ptr<TraceRecorder> recorder;
  if (config.trace.enabled) {
    trace_ring = std::make_unique<TraceRing>(config.trace.ring_capacity);
    // Only the pair scheduler traces; under the rotor, hosts and endpoints
    // still put every notification/lifecycle event on the record.
    if (config.fabric == FabricKind::kPair) {
      scheduler->SetTraceRing(trace_ring.get());
    }
    for (RackId rack = 0; rack < config.topology.num_racks; ++rack) {
      for (std::uint32_t i = 0; i < config.topology.hosts_per_rack; ++i) {
        topo.host(rack, i)->SetTraceRing(trace_ring.get());
      }
    }
    if (churn) churn->SetTraceRing(trace_ring.get());
    for (auto& f : workload.flows()) {
      if (f.tcp_sender) f.tcp_sender->SetTraceRing(trace_ring.get());
      // Both endpoints of a flow share its FlowId, but replay recreates only
      // the sender; the recorded flow's receiver stays off the ring so the
      // flow-filtered stream holds exactly what replay can reproduce.
      if (f.tcp_receiver &&
          f.tcp_receiver->flow() != config.trace.record_flow) {
        f.tcp_receiver->SetTraceRing(trace_ring.get());
      }
    }
    if (config.trace.record_flow != 0) {
      const FlowId first = config.workload.first_flow_id;
      const std::uint32_t idx = config.trace.record_flow - first;
      if (config.trace.record_flow >= first && idx < workload.flows().size() &&
          workload.flows()[idx].tcp_sender) {
        recorder = std::make_unique<TraceRecorder>(
            sim, *workload.flows()[idx].tcp_sender,
            *topo.host(config.workload.src_rack, idx));
      }
    }
  }

  scheduler->Start();
  workload.Start();
  if (churn) churn->Start();
  if (recorder) {
    // Workload::Start just called Connect()/SetUnlimitedData(true) on every
    // sender; mirror them into the recording after the t=0 notification the
    // controller already delivered, preserving invocation order.
    recorder->NoteConnect();
    recorder->NoteUnlimited();
  }

  SeriesSampler seq(sim, config.sample_interval,
                    [&workload] { return static_cast<double>(workload.total_bytes_acked()); });
  seq.Start();

  std::unique_ptr<SeriesSampler> voq;
  if (config.sample_voq) {
    FabricPort* fwd = topo.port(a, b);
    voq = std::make_unique<SeriesSampler>(
        sim, config.sample_interval,
        [fwd] { return static_cast<double>(fwd->voq().occupancy()); });
    voq->Start();
  }

  std::unique_ptr<SeriesSampler> reorder_ev;
  std::unique_ptr<SeriesSampler> reorder_mk;
  std::unique_ptr<SeriesSampler> dup_segs;
  if (config.sample_reorder) {
    reorder_ev = std::make_unique<SeriesSampler>(
        sim, config.sample_interval,
        [&workload] { return static_cast<double>(workload.total_reorder_events()); });
    reorder_ev->Start();
    reorder_mk = std::make_unique<SeriesSampler>(
        sim, config.sample_interval,
        [&workload] { return static_cast<double>(workload.total_reorder_marked_lost()); });
    reorder_mk->Start();
    dup_segs = std::make_unique<SeriesSampler>(
        sim, config.sample_interval,
        [&workload] { return static_cast<double>(workload.total_duplicate_segments()); });
    dup_segs->Start();
  }

  // Goodput measurement window: [warmup, duration].
  std::uint64_t bytes_at_warmup = 0;
  sim.ScheduleNoCancel(config.warmup, [&] { bytes_at_warmup = workload.total_bytes_acked(); });

  sim.RunUntil(config.duration);
  // Freeze the goodput window before any churn drain extends the run.
  const std::uint64_t bytes_at_end = workload.total_bytes_acked();

  if (churn) {
    // Drain: the arrival process runs until it reaches its target — arrivals
    // deferred behind busy slots spill past `duration` — and every open cycle
    // then resolves within slot_timeout of its opening (the app-level abort
    // guarantees it). Step the clock until the generator reports done; the
    // iteration bound is a backstop against misconfiguration, generous enough
    // that hitting it means something is genuinely wedged (which the
    // churn_all_closed result flag then records).
    const SimTime step = config.churn.slot_timeout + SimTime::Millis(1);
    for (int i = 0;
         i < 100000 && !(churn->stats().opened >=
                             config.churn.target_connections &&
                         churn->AllClosed());
         ++i) {
      sim.RunUntil(sim.now() + step);
    }
  }

  const Schedule schedule(config.schedule);

  ExperimentResult r;
  r.variant = config.workload.variant;
  // The pair reports its nominal week, the rotor its current one.
  r.week = config.fabric == FabricKind::kRotor ? scheduler->week_length()
                                               : schedule.week_length();
  r.duration = config.duration;
  r.warmup = config.warmup;
  r.total_bytes = bytes_at_end;
  const double window_s = (config.duration - config.warmup).seconds();
  if (window_s > 0) {
    r.goodput_bps =
        static_cast<double>(r.total_bytes - bytes_at_warmup) * 8.0 / window_s;
  }

  r.seq_samples = seq.samples();
  r.seq_curve = FoldWeeks(r.seq_samples, r.week, config.warmup, plot_weeks);
  if (voq) {
    r.voq_samples = voq->samples();
    r.voq_curve = FoldLevels(r.voq_samples, r.week, config.warmup, plot_weeks);
  }

  if (reorder_ev) {
    r.reorder_event_samples = reorder_ev->samples();
    r.reorder_marked_samples = reorder_mk->samples();
    r.reorder_events_per_day =
        PerWeekDeltas(r.reorder_event_samples, r.week, config.warmup);
    r.reorder_marked_per_day =
        PerWeekDeltas(r.reorder_marked_samples, r.week, config.warmup);
    r.spurious_rtx_per_day =
        PerWeekDeltas(dup_segs->samples(), r.week, config.warmup);
  }

  // Analytic reference lines over the plotted window. The "optimal" flow
  // uses the full fabric rate of whichever TDN is active (nights idle); the
  // "packet only" flow holds the packet rate continuously (no blackouts).
  {
    const std::uint64_t pkt = config.topology.packet_mode.rate_bps;
    const std::uint64_t opt = config.topology.circuit_mode.rate_bps;
    const SimTime step = config.sample_interval;
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
  for (auto& f : workload.flows()) {
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
  r.schedule_changes = scheduler->schedule_changes_applied();
  r.restart_holds = scheduler->restart_holds();

  // Connection-churn accounting.
  if (churn) {
    r.churn = churn->stats();
    r.churn_hash = churn->hash();
    r.churn_all_closed = churn->AllClosed();
    r.churn_fct_us.reserve(churn->fcts().size());
    for (SimTime fct : churn->fcts()) r.churn_fct_us.push_back(fct.micros_f());
    // Per-size-bucket FCT tails over the same completions (nearest-rank: the
    // tail of a small bucket is an observed sample, not an interpolation).
    std::vector<double> bucket_us[kNumFctBuckets];
    for (const SizedFct& sf : churn->sized_fcts()) {
      bucket_us[FctBucketOf(sf.bytes)].push_back(sf.fct.micros_f());
    }
    for (std::size_t bkt = 0; bkt < kNumFctBuckets; ++bkt) {
      auto& out = r.churn_fct_bucket[bkt];
      out.count = bucket_us[bkt].size();
      out.p50_us = PercentileNearestRank(bucket_us[bkt], 50);
      out.p99_us = PercentileNearestRank(bucket_us[bkt], 99);
      out.p999_us = PercentileNearestRank(bucket_us[bkt], 99.9);
    }
  }

  // Host recovery agent accounting.
  for (const auto& agent : agents) {
    r.recovery_forced += agent->stats().forced;
    r.recovery_rescued += agent->stats().rescued;
    r.recovery_spurious += agent->stats().spurious;
  }

  // Fault/robustness accounting.
  if (injector) {
    r.faults_injected = injector->stats().total();
    r.fault_trace_hash = injector->TraceHash();
    r.notifications_dropped =
        injector->stats().notifications_dropped + injector->stats().stall_dropped;
  }
  for (RackId rack = 0; rack < config.topology.num_racks; ++rack) {
    for (std::uint32_t i = 0; i < config.topology.hosts_per_rack; ++i) {
      r.stale_notifications += topo.host(rack, i)->stale_notifications_dropped();
    }
  }
  {
    const QueueDisc::Stats& qf = topo.port(a, b)->voq().stats();
    const QueueDisc::Stats& qr = topo.port(b, a)->voq().stats();
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
    const Simulator::Stats ss = sim.GetStats();
    r.sim_events = ss.events_executed;
    r.sim_batches = ss.batches;
    r.sim_max_batch = ss.max_batch;
    r.sim_cohort_hits = ss.cohort_hits;
    r.sim_dead_dropped = ss.dead_dropped;
    r.sim_compactions = ss.compactions;
  }
  if (trace_ring) {
    r.trace_hash = trace_ring->Hash();
    r.trace_records = trace_ring->total_emitted();
    if (recorder) {
      r.recorded =
          std::make_shared<RecordedConnection>(recorder->Finish(*trace_ring));
    }
    // Convergence oracle over the post-warmup cwnd evolution of every traced
    // flow (long-lived and churned alike — both emit kTcpCwndUpdate).
    ConvergenceConfig oracle = config.stability;
    oracle.from_ps = config.warmup.picos();
    const ConvergenceReport report =
        ClassifyConvergence(trace_ring->Snapshot(), oracle);
    r.stability_converged = report.flows_converged;
    r.stability_oscillating = report.flows_oscillating;
    r.stability_starved = report.flows_starved;
    r.stability_insufficient = report.flows_insufficient;
    r.stability_worst_amplitude = report.worst_amplitude;
    r.stability_worst_period_us = report.worst_period_us;
  }
  return r;
}

}  // namespace tdtcp
