// End-to-end experiment harness. An Experiment wires an RDCN topology, its
// fabric scheduler (the paper's pair controller or the N-rack rotor), the
// long-lived flows, churn, faults and tracing from one ExperimentConfig;
// runs the simulation, slice by slice if the caller wants; and collects the
// series/statistics every figure in the paper is built from. RunExperiment
// is the one-call form. Defaults reproduce the Etalon testbed configuration
// of §5.1 (10 Gbps/~100 µs packet TDN, 100 Gbps/~40 µs optical TDN, 180 µs
// days, 20 µs nights, 6:1 packet:optical, 16-packet jumbo-frame VOQs).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "app/workload.hpp"
#include "fault/fault_plan.hpp"
#include "tcp/recovery_agent.hpp"
#include "net/topology.hpp"
#include "rdcn/controller.hpp"
#include "rdcn/perturbation.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trace/samplers.hpp"
#include "trace/trace_io.hpp"

namespace tdtcp {

// Tracepoint observability for a run (trace/tracepoints.hpp). Disabled by
// default: every instrumented component then pays one predictable branch
// per site and the perf baselines are unchanged. When enabled, the
// controller, every host, and every plain-TCP endpoint share one ring;
// `record_flow` additionally attaches a TraceRecorder to that flow's sender
// so the result carries a replayable RecordedConnection.
struct TraceOptions {
  bool enabled = false;
  std::size_t ring_capacity = 1u << 16;  // records; rounded up to a power of 2
  FlowId record_flow = 0;                // 0 = trace only, no recording
};

// Which scheduler drives the fabric ports.
enum class FabricKind {
  // The paper's two-rack evaluation: an RdcnController on the
  // (workload.src_rack, workload.dst_rack) port pair.
  kPair,
  // RotorNet-style N-rack rotation: a RotorController cycling every fabric
  // port through the N-1 round-robin perfect matchings. Requires an even
  // topology.num_racks >= 2; connections get per-peer TDN scoping.
  kRotor,
};

// Experiment description. The struct doubles as a fluent builder: every
// field stays public (existing field-poking code keeps working verbatim),
// and the chainable `With*` setters are the preferred way to express a
// configuration:
//
//   ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
//                              .WithFlows(8)
//                              .WithDuration(SimTime::Millis(50))
//                              .WithSeed(3);
struct ExperimentConfig {
  TopologyConfig topology;
  ScheduleConfig schedule;
  WorkloadConfig workload;
  // Connection churn riding alongside (or instead of) the long-lived flows;
  // disabled by default. When churn.inherit_base is set (the default) the
  // generator adopts workload.base/variant at run time.
  ChurnConfig churn;
  // Fault scenario; an empty plan (the default) arms no injector.
  FaultPlan fault;
  // Adversarial-schedule perturbations (rdcn/perturbation.hpp): day skew,
  // boundary jitter, mid-flow schedule changes, controller-restart windows.
  // Empty (the default) arms nothing. Composes with `fault`.
  PerturbationConfig perturb;
  // Tail-recovery axis. kRack is the stack's default (RACK + TLP, no agent);
  // kOff disables both on every connection (pure RTO recovery); kAgent
  // additionally runs one shared RecoveryAgent per host, scanning every
  // connection off the host's timer wheel and forcing early retransmits for
  // flows quiet past the adaptive threshold.
  RecoveryMode recovery = RecoveryMode::kRack;
  // Tracepoint ring / replay recording; disabled by default.
  TraceOptions trace;
  // Fabric scheduler; see FabricKind. Set via WithRotorFabric().
  FabricKind fabric = FabricKind::kPair;
  bool dynamic_voq = false;  // reTCPdyn switch cooperation
  SimTime duration = SimTime::Millis(200);
  SimTime warmup = SimTime::Millis(20);
  SimTime sample_interval = SimTime::Micros(5);
  std::uint64_t seed = 1;
  bool sample_voq = true;
  bool sample_reorder = true;
  // Simulator event-dispatch batching (Simulator::set_batched_dispatch).
  // On by default; the sequential path exists for A/B bit-identity checks
  // (tests/batch_test) and as an escape hatch, not as a tuning knob.
  bool batched_dispatch = true;
  // How many optical weeks the folded curves span (the paper's Fig. 2/7
  // windows show ~3 weeks).
  int plot_weeks = 3;

  // --- fluent builder -------------------------------------------------------

  // Switches the transport variant, re-applying the paper's variant-specific
  // knobs (DCTCP's shallow ECN threshold, reTCPdyn's dynamic VOQ) and
  // resetting per-variant engine state so any variant can be derived from
  // any base config.
  ExperimentConfig& WithVariant(Variant v);

  // Swaps the VOQ queue discipline (one line: WithQdisc(QdiscKind::kCodel)),
  // keeping every other queue knob — including the variant's ECN threshold —
  // as configured. kSharedPool sizes each VOQ's raw capacity to the pool so
  // the dynamic threshold, not the per-queue cap, governs admission.
  ExperimentConfig& WithQdisc(QdiscKind kind);
  // Full queue-discipline configuration for every fabric VOQ. Apply before
  // WithVariant if the variant's ECN threshold should win (the sweep engine
  // composes them in that order).
  ExperimentConfig& WithQdiscConfig(const QueueDisc::Config& q) {
    topology.voq = q;
    return *this;
  }

  ExperimentConfig& WithFlows(std::uint32_t n) {
    workload.num_flows = n;
    return *this;
  }
  ExperimentConfig& WithDuration(SimTime d) {
    duration = d;
    return *this;
  }
  // Duration with the bench-standard warmup (one eighth of the run).
  ExperimentConfig& WithDurationMs(int ms) {
    duration = SimTime::Millis(ms);
    warmup = SimTime::Millis(ms / 8);
    return *this;
  }
  ExperimentConfig& WithWarmup(SimTime w) {
    warmup = w;
    return *this;
  }
  ExperimentConfig& WithSeed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ExperimentConfig& WithSchedule(const ScheduleConfig& s) {
    schedule = s;
    return *this;
  }
  ExperimentConfig& WithSampleInterval(SimTime i) {
    sample_interval = i;
    return *this;
  }
  ExperimentConfig& WithSampling(bool voq, bool reorder) {
    sample_voq = voq;
    sample_reorder = reorder;
    return *this;
  }
  ExperimentConfig& WithPlotWeeks(int weeks) {
    plot_weeks = weeks;
    return *this;
  }
  ExperimentConfig& WithFault(const FaultPlan& plan) {
    fault = plan;
    return *this;
  }
  ExperimentConfig& WithRecovery(RecoveryMode m) {
    recovery = m;
    return *this;
  }
  // Adds a churn workload of `connections` open/transfer/close cycles with
  // Poisson arrivals, inheriting the experiment's transport configuration.
  ExperimentConfig& WithChurn(std::uint32_t connections,
                              SimTime mean_interarrival = SimTime::Micros(100)) {
    churn.enabled = true;
    churn.target_connections = connections;
    churn.mean_interarrival = mean_interarrival;
    return *this;
  }
  // Full-control churn configuration (enabled implicitly).
  ExperimentConfig& WithChurnConfig(ChurnConfig c) {
    churn = std::move(c);
    churn.enabled = true;
    return *this;
  }
  // N-rack RotorNet-style fabric: `num_racks` racks (even, >= 2) driven by a
  // RotorController, with every connection's TDN notifications scoped to its
  // peer's rack (each rack pair has its own day/night phase, so fabric-wide
  // notifications would corrupt unrelated flows' TDN views).
  ExperimentConfig& WithRotorFabric(std::uint32_t num_racks) {
    fabric = FabricKind::kRotor;
    topology.num_racks = num_racks;
    workload.scope_tdn_to_peer = true;
    churn.scope_tdn_to_peer = true;
    return *this;
  }
  // Churn rack-selection policy (see RackPolicy). kHotspot aims
  // `hotspot_fraction` of arrivals at `hotspot_rack`.
  ExperimentConfig& WithRackPolicy(RackPolicy p) {
    churn.rack_policy = p;
    return *this;
  }
  // Heavy-tailed churn transfer sizes from a flow-size CDF, optionally
  // scaled (bytes = max(1, round(sample * scale))).
  ExperimentConfig& WithFlowSizeCdf(std::shared_ptr<const FlowSizeCdf> cdf,
                                    double scale = 1.0) {
    churn.size_cdf = std::move(cdf);
    churn.size_scale = scale;
    return *this;
  }
  ExperimentConfig& WithTrace(std::size_t ring_capacity = 1u << 16) {
    trace.enabled = true;
    trace.ring_capacity = ring_capacity;
    return *this;
  }
  // Tracing plus a replayable recording of `flow`'s sender.
  ExperimentConfig& WithTraceRecording(FlowId flow) {
    trace.enabled = true;
    trace.record_flow = flow;
    return *this;
  }
  ExperimentConfig& WithBatchedDispatch(bool batched) {
    batched_dispatch = batched;
    return *this;
  }
  // Adversarial schedule: perturb the controller's day/night timing and/or
  // inject mid-flow schedule changes and restart windows.
  ExperimentConfig& WithSchedulePerturbation(PerturbationConfig p) {
    perturb = std::move(p);
    return *this;
  }
  // Mixed tenant population: each churn arrival draws its transport variant
  // from this weighted mix instead of using churn.variant uniformly, so
  // TDTCP, cubic, and DCTCP tenants coexist on the same fabric. Implies
  // churn; weights need not sum to 1.
  ExperimentConfig& WithTenantMix(std::vector<TenantShare> mix) {
    churn.enabled = true;
    churn.tenant_mix = std::move(mix);
    return *this;
  }
};

// The paper's baseline configuration for a given variant (DCTCP gets a
// shallow ECN threshold, reTCPdyn enables dynamic VOQ resizing, MPTCP uses
// two pinned subflows).
ExperimentConfig PaperConfig(Variant v);

struct ExperimentResult {
  Variant variant;
  SimTime week;
  SimTime duration;
  SimTime warmup;

  // Aggregate post-warmup goodput (transport-delivered payload bits/s).
  double goodput_bps = 0;

  // Raw sampled series (aggregate across flows).
  std::vector<Sample> seq_samples;        // bytes acked
  std::vector<Sample> voq_samples;        // forward-direction VOQ occupancy
  std::vector<Sample> reorder_event_samples;
  std::vector<Sample> reorder_marked_samples;

  // Folded into the paper's expected-progress form.
  std::vector<FoldedPoint> seq_curve;     // bytes vs offset in plotted window
  std::vector<FoldedPoint> voq_curve;

  // Analytic reference lines over the same window (aggregate fabric bytes).
  std::vector<FoldedPoint> optimal_curve;
  std::vector<FoldedPoint> packet_only_curve;

  // Totals.
  std::uint64_t total_bytes = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t reorder_events = 0;
  std::uint64_t reorder_marked_lost = 0;
  std::uint64_t undo_events = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t cross_tdn_exemptions = 0;

  // Per-optical-day deltas (Fig. 10). "Spurious rtx" uses receiver-side
  // duplicate arrivals: the ground truth for retransmissions of data that
  // was never lost.
  std::vector<double> reorder_events_per_day;
  std::vector<double> reorder_marked_per_day;
  std::vector<double> spurious_rtx_per_day;
  std::uint64_t duplicate_segments = 0;

  // Connection-churn accounting (all zero when churn was disabled). After a
  // churn run Experiment::Finish drains past `duration` until in-flight
  // cycles finish; churn_all_closed then asserts that every opened
  // connection reached kClosed with a definite CloseReason.
  ChurnStats churn;
  std::uint64_t churn_hash = 0;   // ChurnGenerator::hash() fingerprint
  bool churn_all_closed = true;
  // Per-cycle flow completion times (µs) of kNormal churn closes, in
  // completion order; empty when churn was disabled.
  std::vector<double> churn_fct_us;
  // Per-size-bucket FCT tails (nearest-rank percentiles of the same
  // completions, split by requested transfer size — see kFctBucketNames /
  // kFctBucketUpperBytes). Empty buckets report zero percentiles.
  struct FctBucketSummary {
    std::uint64_t count = 0;
    double p50_us = 0;
    double p99_us = 0;
    double p999_us = 0;
  };
  FctBucketSummary churn_fct_bucket[kNumFctBuckets];

  // Host recovery agent accounting, summed over every host's agent (all
  // zero unless the run used RecoveryMode::kAgent).
  std::uint64_t recovery_forced = 0;
  std::uint64_t recovery_rescued = 0;
  std::uint64_t recovery_spurious = 0;

  // Fault-injection accounting (all zero when the plan was empty).
  std::uint64_t faults_injected = 0;       // every recorded fault event
  std::uint64_t fault_trace_hash = 0;      // FNV-1a of the ordered trace
  std::uint64_t notifications_dropped = 0; // control-plane drops + stalls
  std::uint64_t stale_notifications = 0;   // host-side dup/stale filter hits
  std::uint64_t tdn_inferred_switches = 0; // data-path inference recoveries
  std::uint64_t voq_shrink_deferred = 0;   // drain-then-shrink retained pkts

  // Queue-discipline accounting, summed over the two observed fabric VOQs
  // (port a->b and b->a). The breakdown counters are zero under plain
  // drop-tail; the sojourn summary is populated for every discipline.
  std::uint64_t voq_drops = 0;             // all-cause VOQ drops
  std::uint64_t voq_ce_marked = 0;         // all-cause CE marks
  std::uint64_t voq_codel_drops = 0;
  std::uint64_t voq_codel_marks = 0;
  std::uint64_t voq_delay_marked = 0;
  std::uint64_t voq_shared_rejected = 0;
  double voq_sojourn_mean_us = 0;
  double voq_sojourn_p99_us = 0;           // histogram-bucket upper edge
  double voq_sojourn_max_us = 0;

  // Simulator event-core accounting (Simulator::GetStats): total events
  // executed, batch counters from the batched dispatch loop, and the event
  // queue's dead-entry/compaction bookkeeping. sim_batches/sim_max_batch are
  // zero when the run disabled batched dispatch.
  std::uint64_t sim_events = 0;
  std::uint64_t sim_batches = 0;
  std::uint64_t sim_max_batch = 0;
  std::uint64_t sim_cohort_hits = 0;
  std::uint64_t sim_dead_dropped = 0;
  std::uint64_t sim_compactions = 0;

  // Tracing (all zero/null when TraceOptions::enabled was false). The hash
  // is order-sensitive over the whole ring, so two runs of the same config
  // match iff their tracepoint streams are bit-identical — the sweep
  // engine's jobs=1 == jobs=N determinism check compares exactly this.
  std::uint64_t trace_hash = 0;
  std::uint64_t trace_records = 0;  // total emitted (may exceed ring capacity)
  std::shared_ptr<RecordedConnection> recorded;  // set when record_flow != 0

  // Convergence-oracle verdicts (trace/convergence.hpp) over the post-warmup
  // trace ring; all zero when tracing was disabled. Flow-level rollups: a
  // flow oscillates if any of its TDN series does.
  std::uint64_t stability_converged = 0;
  std::uint64_t stability_oscillating = 0;
  std::uint64_t stability_starved = 0;
  std::uint64_t stability_insufficient = 0;
  double stability_worst_amplitude = 0;
  double stability_worst_period_us = 0;
  // Schedule-perturbation accounting (zero when perturb was empty).
  std::uint64_t schedule_changes = 0;
  std::uint64_t restart_holds = 0;
  std::uint64_t tdn_reconfigs = 0;  // summed TcpStats::tdn_reconfigs
};

class FaultInjector;
class TraceRecorder;

// One deterministic experiment; everything about it lives in its (copied)
// config. The constructor builds the run and starts it at t=0, RunUntil
// advances it, and Finish drains churn and collects the result. A caller
// with its own traffic or a mid-run reading schedules it on sim() in
// between. Experiments share no mutable state, so concurrent ones on
// different threads are bit-identical to serial ones.
class Experiment {
 public:
  // Throws std::invalid_argument on an invalid workload rack pair.
  explicit Experiment(const ExperimentConfig& config);
  ~Experiment();
  // Not copyable or movable: scheduled events point into it.
  Experiment(const Experiment&) = delete;
  Experiment& operator=(const Experiment&) = delete;

  // Runs to min(t, config.duration). The call that reaches `duration`
  // freezes the goodput window, so slicing never changes the result; only
  // Finish's churn drain runs past `duration`.
  void RunUntil(SimTime t);
  // Runs to `duration`, drains churn and collects the result. Once only: a
  // second Finish, or a RunUntil after it, throws std::logic_error.
  ExperimentResult Finish();

  Simulator& sim() { return sim_; }
  Topology& topology() { return topo_; }
  Workload& workload() { return *workload_; }
  // The churn generator, or null when churn is off. Finish takes its
  // fct_us() for the result.
  const ChurnGenerator* churn() const { return churn_.get(); }

 private:
  // In wiring order, so teardown runs in reverse: connections go before
  // the recovery agents they deregister from.
  const ExperimentConfig config_;
  Simulator sim_;
  Random rng_;
  Topology topo_;
  std::unique_ptr<FabricScheduler> scheduler_;
  std::vector<std::unique_ptr<RecoveryAgent>> agents_;
  std::unique_ptr<Workload> workload_;
  std::unique_ptr<ChurnGenerator> churn_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<TraceRing> trace_ring_;
  std::unique_ptr<TraceRecorder> recorder_;
  std::unique_ptr<SeriesSampler> seq_, voq_;
  std::unique_ptr<SeriesSampler> reorder_ev_, reorder_mk_, dup_segs_;
  // The goodput window's ends; the second is set on reaching `duration`.
  std::uint64_t bytes_at_warmup_ = 0;
  std::optional<std::uint64_t> bytes_at_end_;
  bool finished_ = false;
};

// Runs one experiment to completion: Experiment(config).Finish().
ExperimentResult RunExperiment(const ExperimentConfig& config);

}  // namespace tdtcp
