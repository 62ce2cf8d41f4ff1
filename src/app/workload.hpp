// Workload construction: long-lived bulk flows between a rack pair, one per
// host pair, in any of the paper's transport variants (§5.1: flowgrind-style
// bulk transfers, all flows starting together).
#pragma once

#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "app/flow_cdf.hpp"
#include "mptcp/mptcp_connection.hpp"
#include "net/topology.hpp"
#include "sim/hash.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp {

enum class Variant {
  kReno,
  kCubic,
  kDctcp,
  kRetcp,
  kRetcpDyn,
  kMptcp,
  kTdtcp,
};

inline constexpr std::size_t kNumVariants = 7;

const char* VariantName(Variant v);
Variant VariantFromName(std::string_view name);

// Translates a variant into engine configuration on top of `base`.
TcpConfig MakeVariantConfig(Variant v, TcpConfig base);

// One tenant class in a mixed churn population: `weight` is the relative
// probability an arrival belongs to this tenant (weights need not sum to 1).
struct TenantShare {
  Variant variant = Variant::kTdtcp;
  double weight = 1.0;
};

struct WorkloadConfig {
  Variant variant = Variant::kTdtcp;
  std::uint32_t num_flows = 8;
  RackId src_rack = 0;
  RackId dst_rack = 1;
  TcpConfig base;  // shared engine parameters (mss, timers, ...)
  FlowId first_flow_id = 1;
  // Scope each connection's TDN notifications to its peer's rack instead of
  // the fabric-wide kAllRacks default. Required on rotor fabrics, where each
  // rack pair runs its own day/night phase.
  bool scope_tdn_to_peer = false;
};

// --- flow-size buckets -------------------------------------------------------
// Per-size FCT reporting splits completions into four buckets by requested
// transfer size: s <= 10 KB < m <= 100 KB < l <= 1 MB < xl. The edges follow
// the short/medium/long split the DC literature reports tails over (10 KB
// mice, 1 MB+ elephants).

inline constexpr std::size_t kNumFctBuckets = 4;
inline constexpr const char* kFctBucketNames[kNumFctBuckets] = {"s", "m", "l",
                                                                "xl"};
inline constexpr std::uint64_t kFctBucketUpperBytes[kNumFctBuckets - 1] = {
    10'000, 100'000, 1'000'000};

// Bucket index for a transfer of `bytes` (upper edges inclusive).
std::size_t FctBucketOf(std::uint64_t bytes);

// One sender/receiver pair. Exactly one of (tcp_*, mptcp_*) is populated.
struct Flow {
  std::unique_ptr<TcpConnection> tcp_sender;
  std::unique_ptr<TcpConnection> tcp_receiver;
  std::unique_ptr<MptcpConnection> mptcp_sender;
  std::unique_ptr<MptcpConnection> mptcp_receiver;

  // Sender-side bytes the transport has reliably delivered (the quantity
  // the paper's sequence graphs plot).
  std::uint64_t bytes_acked() const;
  std::uint64_t reorder_events() const;
  std::uint64_t reorder_marked_lost() const;
  std::uint64_t retransmissions() const;
  // Receiver-side duplicate arrivals: ground truth for spurious
  // retransmissions (a retransmission of data that was never lost shows up
  // as a duplicate; Fig. 10b counts exactly these).
  std::uint64_t duplicate_segments() const;
};

class Workload {
 public:
  Workload(Simulator& sim, Topology& topo, WorkloadConfig config);

  // Connects every flow and switches senders to unlimited data.
  void Start();

  std::uint64_t total_bytes_acked() const;
  std::uint64_t total_reorder_events() const;
  std::uint64_t total_reorder_marked_lost() const;
  std::uint64_t total_duplicate_segments() const;

  std::vector<Flow>& flows() { return flows_; }
  const WorkloadConfig& config() const { return config_; }

 private:
  WorkloadConfig config_;
  std::vector<Flow> flows_;
};

// --- connection churn --------------------------------------------------------
// Open → transfer → close cycles with Poisson arrivals: the workload shape
// that exercises the full lifecycle machinery (handshake, lingering close,
// FIN/ACK teardown, TIME_WAIT reclamation, and — under fault injection —
// every abort path). Each cycle runs a sender/receiver TcpConnection pair
// that starts out as fresh as a newly constructed one: the sender does
// Connect() + AddAppData(transfer) + Close() and the FIN rides out behind
// the data; the receiver runs with close_on_peer_fin so consuming the FIN
// triggers its own half of the handshake. A slot builds its pair on first
// use and reopens the same two objects for every later cycle (DESIGN.md,
// "Churn slots reopen their connections").

// How churned connections pick their (src_rack, dst_rack) pair.
enum class RackPolicy {
  // The classic two-rack shape: every cycle runs config.src_rack ->
  // config.dst_rack from a single arrival process (the paper's setup).
  kFixedPair,
  // Every host in every rack is an independent Poisson source; destination
  // rack uniform over the other racks, destination host uniform in-rack.
  kUniform,
  // Like kUniform, but each run draws one cyclic rack shift k in [1, n-1]
  // and every source in rack r sends only to rack (r + k) mod n — the
  // permutation-traffic pattern rotor fabrics are provisioned for.
  kPermutation,
  // Like kUniform, but each arrival targets `hotspot_rack` with probability
  // `hotspot_fraction` (falling back to uniform when the source sits in the
  // hotspot rack itself) — the skewed pattern that stresses one rack's VOQs.
  kHotspot,
};

const char* RackPolicyName(RackPolicy p);
RackPolicy RackPolicyFromName(std::string_view name);

// Keys, with the experiment seed, the churn generator's own stream. The
// value equals kFaultSeedSalt (fault/fault_plan.hpp): both fork from one
// parent key, and stay disjoint only because every churn source forks with
// StreamKind::kChurnSource while the fault injector uses kLinkFault and
// kNotifyFault and never draws from the parent (DESIGN.md §14).
inline constexpr std::uint64_t kChurnSeedSalt = 0x9e3779b97f4a7c15ull;

struct ChurnConfig {
  bool enabled = false;
  // Stop opening new connections once this many have been opened.
  std::uint32_t target_connections = 1000;
  // Poisson arrival process (exponential inter-arrival gaps). Under
  // kFixedPair this is the rate of the single generator; under the
  // multi-source policies it is the per-source-host mean gap, so the
  // aggregate arrival rate scales with the fabric size.
  SimTime mean_interarrival = SimTime::Micros(100);
  // Per-connection transfer size, uniform in [min, max] — unless `size_cdf`
  // is set, in which case sizes come from the CDF instead.
  std::uint64_t min_transfer_bytes = 8940;
  std::uint64_t max_transfer_bytes = 10 * 8940;
  // Heavy-tailed flow sizes: when non-null, each arrival draws its transfer
  // size from this distribution (one uniform draw per arrival). Shared
  // immutable table — cheap to copy across a sweep grid.
  std::shared_ptr<const FlowSizeCdf> size_cdf;
  // Applied to every CDF draw: bytes = max(1, round(sample * size_scale)),
  // then clamped to size_cap_bytes when nonzero. Lets a bench run the true
  // distribution shape at a wall-time-feasible byte volume.
  double size_scale = 1.0;
  std::uint64_t size_cap_bytes = 0;
  // Concurrency bound: arrivals finding every slot busy are deferred (the
  // arrival process keeps running, so the target is still reached once
  // slots drain).
  std::uint32_t max_concurrent = 16;
  // Application-level patience: a connection not fully closed this long
  // after opening is Abort()ed on both ends. This is what guarantees every
  // opened connection reaches kClosed with a definite reason even when a
  // kHostDown window silently kills an endpoint mid-handshake (a pure
  // receiver with nothing in flight has no retransmission machinery to
  // notice a dead peer — exactly like a real server without keepalives).
  SimTime slot_timeout = SimTime::Millis(40);
  // Rack selection. kFixedPair uses (src_rack, dst_rack); the multi-source
  // policies ignore them and draw per arrival.
  RackPolicy rack_policy = RackPolicy::kFixedPair;
  RackId src_rack = 0;
  RackId dst_rack = 1;
  // kHotspot knobs: target rack and the probability an arrival aims at it.
  RackId hotspot_rack = 0;
  double hotspot_fraction = 0.5;
  // Scope each connection's TDN notifications to its peer's rack (see
  // WorkloadConfig::scope_tdn_to_peer). Required on rotor fabrics.
  bool scope_tdn_to_peer = false;
  Variant variant = Variant::kCubic;  // any non-MPTCP variant
  // Mixed tenant population: when non-empty, each arrival draws its variant
  // from this weighted mix (one draw from the arrival's own stream) instead
  // of using `variant` uniformly. kMptcp entries are rejected (churn cycles
  // are single-subflow TcpConnections). Drawn from the same stream as the
  // arrival's other randomness, so the mix is deterministic per seed.
  std::vector<TenantShare> tenant_mix;
  TcpConfig base;
  // When set, RunExperiment copies workload.base/variant over base/variant
  // so `.WithChurn(n)` inherits the experiment's transport configuration.
  bool inherit_base = true;
  // Churn flows live in their own id range so they never collide with the
  // long-lived workload flows sharing the hosts.
  FlowId first_flow_id = 1'000'000;
};

struct ChurnStats {
  std::uint64_t opened = 0;
  std::uint64_t closed = 0;        // both endpoints reached kClosed
  std::uint64_t deferred = 0;      // arrivals skipped: all slots busy
  std::uint64_t app_timeouts = 0;  // slot_timeout fired, endpoints aborted
  std::uint64_t bytes_completed = 0;  // sender bytes acked at close
  // Sender-side close reasons, indexed by CloseReason.
  std::uint64_t reasons[kNumCloseReasons] = {};
  // Opens per transport variant (meaningful under a tenant mix; with a
  // uniform population everything lands on the configured variant).
  std::uint64_t opened_by_variant[kNumVariants] = {};

  std::uint64_t normal() const {
    return reasons[static_cast<std::size_t>(CloseReason::kNormal)];
  }
  std::uint64_t abnormal() const { return closed - normal(); }
};

class ChurnGenerator {
 public:
  // `seed` is the experiment seed; the generator draws from its own stream
  // (keyed by seed and kChurnSeedSalt) so adding churn never perturbs other
  // seeded draws. Every arrival process (one per host under the
  // multi-source policies) forks its own stream from it, so a source's draw
  // sequence is independent of how arrivals interleave across the fabric.
  // Throws std::invalid_argument when the rack configuration does not fit
  // the topology (out-of-range racks, src == dst, too few racks).
  ChurnGenerator(Simulator& sim, Topology& topo, ChurnConfig config,
                 std::uint64_t seed);
  ~ChurnGenerator() = default;
  ChurnGenerator(const ChurnGenerator&) = delete;
  ChurnGenerator& operator=(const ChurnGenerator&) = delete;

  void Start();

  // Attach a trace ring before Start(): every churned connection emits its
  // lifecycle tracepoints into it (same ring the experiment attaches to the
  // long-lived flows, hosts, and controller).
  void SetTraceRing(TraceRing* ring) { trace_ring_ = ring; }

  // True once every opened connection reached kClosed (slots may still be
  // awaiting their deferred reclamation event).
  bool AllClosed() const { return active_ == 0; }
  const ChurnStats& stats() const { return stats_; }
  // Flow completion time in µs (open -> both ends closed) of every cycle
  // whose sender closed kNormal, in completion order, and the size bucket
  // (FctBucketOf its requested bytes) of each. The short-flow tail
  // percentiles the recovery benches gate on, overall and per size bucket,
  // are computed from these. Both are reserved for target_connections
  // completions up front: 9 bytes each, never regrown.
  const std::vector<double>& fct_us() const { return fct_us_; }
  const std::vector<std::uint8_t>& fct_buckets() const { return fct_buckets_; }
  // Hands fct_us() over without a copy, leaving it empty.
  std::vector<double> TakeFctUs() { return std::exchange(fct_us_, {}); }
  // Order-sensitive FNV-1a over every completed connection's
  // (flow, open time, close time, close reasons) — the determinism
  // fingerprint the sweep engine's jobs=1 == jobs=N check compares.
  std::uint64_t hash() const { return hash_.value(); }
  // The sender or receiver end slot `idx` holds: null before the slot's
  // first cycle, retired between cycles. For inspection only.
  const TcpConnection* end(std::uint32_t idx, bool sender_end) const {
    const Slot& slot = slots_[idx];
    return sender_end ? slot.sender.get() : slot.receiver.get();
  }

 private:
  struct Slot {
    // Built on the slot's first cycle; retired by Reclaim, reopened by the
    // next OpenSlot.
    std::unique_ptr<TcpConnection> sender;
    std::unique_ptr<TcpConnection> receiver;
    FlowId flow = 0;
    NodeId src_node = 0;
    NodeId dst_node = 0;
    std::uint64_t bytes = 0;
    SimTime opened_at;
    EventId timeout = kInvalidEventId;
    std::uint8_t closed_ends = 0;
    CloseReason sender_reason = CloseReason::kNone;
    CloseReason receiver_reason = CloseReason::kNone;
    bool in_use = false;
  };

  // A Poisson arrival process: one per host under the multi-source
  // policies, one for the whole rack pair under kFixedPair.
  struct Source {
    RackId rack = 0;
    std::uint32_t host = 0;
    Random rng;
  };

  void ScheduleArrival(std::uint32_t s);
  void OnArrival(std::uint32_t s);
  RackId PickDstRack(RackId src_rack, Random& rng);
  std::uint64_t DrawBytes(Random& rng);
  Variant DrawVariant(Random& rng);
  void OpenSlot(RackId src_rack, std::uint32_t src_host, RackId dst_rack,
                std::uint32_t dst_host, std::uint64_t bytes, Variant variant);
  // The engine config of one end of a `variant` cycle:
  // MakeVariantConfig(variant, base) with the end's peer rack (when
  // scope_tdn_to_peer) and close_on_peer_fin (the receiver's) written in.
  // Built on first use and shared, immutable, by every end opened with the
  // same variant, role and peer rack.
  const std::shared_ptr<const TcpConfig>& EndConfig(Variant variant,
                                                    RackId peer_rack,
                                                    bool receiver);
  // Builds the slot's end on first use, reopens it after, and wires its
  // closed callback and trace ring.
  TcpConnection& OpenEnd(std::unique_ptr<TcpConnection>& end, Host* host,
                         NodeId peer,
                         const std::shared_ptr<const TcpConfig>& config,
                         std::uint32_t idx, bool sender_end);
  void OnEndClosed(std::uint32_t idx, bool sender_end, CloseReason reason);
  void OnSlotTimeout(std::uint32_t idx);
  void Reclaim(std::uint32_t idx);

  Simulator& sim_;
  Topology& topo_;
  ChurnConfig config_;
  // EndConfig's table, one entry per (variant, role, peer rack); a single
  // rack column unless scope_tdn_to_peer. Null until first used.
  std::vector<std::shared_ptr<const TcpConfig>> end_configs_;
  TraceRing* trace_ring_ = nullptr;
  std::vector<Source> sources_;
  double mix_weight_ = 0.0;  // sum of tenant_mix weights
  RackId permutation_shift_ = 1;
  std::vector<Slot> slots_;
  EventQueue::Stream timeouts_;  // every slot's pending slot_timeout
  std::vector<std::uint32_t> free_;
  std::uint32_t active_ = 0;
  FlowId next_flow_;
  ChurnStats stats_;
  std::vector<double> fct_us_;
  std::vector<std::uint8_t> fct_buckets_;
  Fnv1a64 hash_;
};

}  // namespace tdtcp
