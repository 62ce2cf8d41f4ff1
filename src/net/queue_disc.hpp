// Pluggable queue disciplines for the ToR VOQ (and every other bounded
// packet queue in the simulator).
//
// One concrete class, QueueDisc, provides a stable
// enqueue/dequeue/peek/resize contract and dispatches the discipline-
// specific behavior through an enum switch: no virtual calls, no hot-path
// allocation, so PR 3's zero-steady-state-allocation contract and the
// jobs=1 == jobs=N bit-identity guarantee both survive. The disciplines:
//
//  * kDropTail   — the paper's VOQ: bounded in packets, instantaneous-
//                  occupancy CE marking above a threshold K, and runtime-
//                  resizable capacity with drain-then-shrink semantics
//                  (reTCPdyn enlarges the VOQ to 50 packets ahead of a
//                  circuit day). Bit-identical to the pre-refactor Queue.
//  * kCodel      — CoDel (RFC 8289): drop at dequeue when the per-packet
//                  sojourn time has stayed above `codel_target` for a full
//                  `codel_interval`, then again at interval/sqrt(count)
//                  until the standing queue dissolves. `codel_ecn` marks
//                  ECN-capable packets instead of dropping them.
//  * kDelayMark  — delay-based ECN: CE-mark any ECN-capable packet whose
//                  instantaneous sojourn at dequeue exceeds a threshold
//                  (a sojourn analogue of DCTCP's occupancy marking).
//  * kSharedPool — dynamic threshold (DT) buffer sharing: every VOQ on a
//                  ToR draws from one SharedBufferPool, and a queue may
//                  admit only while occupancy < alpha * free_pool. A queue
//                  with no pool attached degrades to drop-tail.
//
// The occupancy-threshold ECN marker runs under every discipline (DCTCP's
// marking composes with any buffer-management policy); CoDel and delay-mark
// add dequeue-side behavior on top.
//
// Sojourn accounting: owners stamp Packet::enqueue_time at admission (Link
// and FabricPort already do) and pass the current time to Dequeue(now),
// which records the sojourn summary and gives the time-based disciplines
// their signal. DrainRawInto()/Restore() are the structural escape hatches
// for FabricPort's mode-flip repack: they move packets without touching the
// sojourn stats or the AQM state, so a repack is invisible to the
// discipline (the packets' admission promises already happened).
//
// Packet ownership: the ring holds handles from the Simulator's packet pool
// (Simulator::StashPacket), one pointer per slot, never Packet values. A
// packet is copied into the pool once, when it is admitted; a rejected
// packet is never copied. From then on the queue owns the handle until
// Dequeue() or DrainRawInto() hands it to the caller, who must pass it on
// or ReleasePacket() it. Every drop the queue decides on (tail, DT, CoDel)
// releases the handle inside the queue. Handles still queued when the queue
// is destroyed are not released: the pool's storage dies with the
// Simulator, which outlives every queue built on it.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace tdtcp {

enum class QdiscKind : std::uint8_t {
  kDropTail,
  kCodel,
  kDelayMark,
  kSharedPool,
};

// Stable lowercase names for flags, sweep labels, and JSON.
const char* QdiscKindName(QdiscKind kind);
// Throws std::invalid_argument on an unknown name.
QdiscKind QdiscKindFromName(const std::string& name);

// The buffer pool a ToR's VOQs share under kSharedPool. Owned by the
// ToRSwitch; queues hold a non-owning pointer and keep `used` current as
// they admit and release packets. The next release wakes every waiter in
// one scheduled event, never from inside the releasing queue's Dequeue.
// A ToR provisions its pool to kSharedPoolPackets once a port shares it.
inline constexpr std::uint32_t kSharedPoolPackets = 64;
struct SharedBufferPool {
  std::uint32_t total_packets = 0;
  std::uint32_t used = 0;
  std::vector<std::function<void()>> waiters{};

  std::uint32_t free_packets() const {
    return used < total_packets ? total_packets - used : 0;
  }
};

class QueueDisc {
 public:
  struct Config {
    QdiscKind kind = QdiscKind::kDropTail;
    std::uint32_t capacity_packets = 16;
    // CE-mark packets admitted while occupancy >= threshold. The default
    // (max) disables marking; DCTCP configs set a small K. Applies under
    // every discipline.
    std::uint32_t ecn_threshold_packets = std::numeric_limits<std::uint32_t>::max();

    // --- kCodel ------------------------------------------------------------
    // Defaults scale RFC 8289's 5ms/100ms to the RDCN's microsecond RTTs:
    // interval ~ the worst-case packet-TDN RTT (~100 us), target ~ 5% of
    // the interval (the RFC's own ratio).
    SimTime codel_target = SimTime::Micros(5);
    SimTime codel_interval = SimTime::Micros(100);
    // Mark ECN-capable packets instead of dropping them (the state machine
    // advances identically; NotEct packets are still dropped).
    bool codel_ecn = false;

    // --- kDelayMark --------------------------------------------------------
    SimTime delay_mark_threshold = SimTime::Micros(50);

    // --- kSharedPool -------------------------------------------------------
    // Per-queue DT threshold factor: admit while occupancy < alpha * free.
    // The pool itself holds kSharedPoolPackets.
    double shared_alpha = 1.0;
  };

  struct Stats {
    std::uint64_t enqueued = 0;
    std::uint64_t dropped = 0;    // all causes (tail, DT rejection, CoDel)
    std::uint64_t ce_marked = 0;  // all causes (threshold, CoDel, delay)
    std::uint32_t max_occupancy = 0;
    // Packets retained above capacity by a drain-then-shrink resize
    // (reTCPdyn 50 -> 16 at circuit teardown while the VOQ is still deep).
    std::uint64_t shrink_deferred = 0;

    // Per-discipline breakdowns (each also counted in dropped/ce_marked).
    std::uint64_t codel_drops = 0;
    std::uint64_t codel_marks = 0;
    std::uint64_t delay_marked = 0;
    std::uint64_t shared_rejected = 0;  // DT rejections below raw capacity

    // Sojourn summary over every packet Dequeue() *delivered* (a packet
    // CoDel consumed is a drop, not a delivery, so the distribution always
    // describes the delay the forwarded traffic experienced).
    // Histogram bucket b counts sojourns in [2^(b-1), 2^b) microseconds
    // (bucket 0: < 1 us; the last bucket absorbs the tail).
    static constexpr std::size_t kSojournBuckets = 22;
    std::uint64_t sojourn_count = 0;
    std::uint64_t sojourn_sum_us = 0;
    SimTime max_sojourn = SimTime::Zero();
    std::array<std::uint64_t, kSojournBuckets> sojourn_hist{};

    double mean_sojourn_us() const {
      return sojourn_count == 0
                 ? 0.0
                 : static_cast<double>(sojourn_sum_us) /
                       static_cast<double>(sojourn_count);
    }
    // Upper edge (us) of the histogram bucket containing the p-th
    // percentile sojourn (p in [0, 100]); 0 when nothing was dequeued.
    double SojournPercentileUs(double p) const;
  };

  // `sim` provides the packet pool the queue's handles come from.
  QueueDisc(Simulator& sim, Config config) : sim_(sim), config_(config) {}

  QueueDisc(const QueueDisc&) = delete;
  QueueDisc& operator=(const QueueDisc&) = delete;

  // Admission. Returns false (and counts a drop) when the discipline
  // rejects the packet: occupancy at raw capacity, or — under kSharedPool —
  // at the dynamic threshold. Applies occupancy-threshold CE marking to
  // ECN-capable packets admitted above the threshold. The by-value form
  // stashes `p` in the pool only once it is admitted; the handle form takes
  // ownership of `p` and releases it on a drop.
  bool Enqueue(Packet&& p);
  bool Enqueue(Packet* p);

  // Would Enqueue admit a packet right now? (No mutation, no stats.)
  bool CanEnqueue() const;

  // Service. `now` drives the sojourn accounting and the time-based
  // disciplines; under kCodel the call may consume queued packets (counting
  // codel_drops and releasing their handles) before returning one, or
  // return nullptr if the drops emptied the queue. The returned handle
  // belongs to the caller.
  Packet* Dequeue(SimTime now);

  // Structural bulk drain: moves every queued handle into `out` (appending)
  // with the pool and watermark accounting applied but no sojourn stats and
  // no AQM. The handles then belong to the caller. For owners repacking a
  // queue (FabricPort's mode flip) — not a service path.
  void DrainRawInto(std::vector<Packet*>& out);

  // Structural push, the inverse of DrainRawInto: re-admits a handle whose
  // admission promise was already given, bypassing the admission test (a
  // repack must never manufacture drops). Occupancy may transiently exceed
  // capacity here only if it already did before the repack; the
  // drain-then-shrink watermark is extended to keep WithinBound() honest.
  void Restore(Packet* p);

  bool Empty() const { return count_ == 0; }
  std::uint32_t occupancy() const { return static_cast<std::uint32_t>(count_); }
  std::uint32_t capacity() const { return config_.capacity_packets; }
  QdiscKind kind() const { return config_.kind; }

  // Runtime resize (reTCPdyn, paper section 5.2). Shrinking below the current
  // occupancy performs a drain-then-shrink: admissions stop immediately (the
  // queue is over capacity), but the excess packets were legitimately
  // admitted under the enlarged promise and are retained until they drain
  // naturally -- dropping them would manufacture loss at every circuit
  // teardown. The retained excess is counted in Stats::shrink_deferred, and
  // occupancy is bounded by the pre-shrink watermark until it decays (see
  // WithinBound()). Identical semantics under every discipline.
  void set_capacity(std::uint32_t packets);
  void set_ecn_threshold(std::uint32_t packets) { config_.ecn_threshold_packets = packets; }

  // The VOQ occupancy invariant: occupancy <= capacity, except transiently
  // after a drain-then-shrink where the bound is the occupancy at shrink
  // time (monotonically non-increasing until it reaches capacity again).
  bool WithinBound() const {
    return count_ <= std::max(config_.capacity_packets, shrink_watermark_);
  }

  // Joins this queue to a ToR-level pool (kSharedPool only; ignored — and
  // harmless — under other kinds). Attach before any packet is admitted.
  void AttachSharedPool(SharedBufferPool* pool) { pool_ = pool; }
  const SharedBufferPool* shared_pool() const { return pool_; }
  // Runs `wake` (from a scheduled event) after the next release of pool
  // space by any queue on the pool. No-op without a pool.
  void WaitForPoolSpace(std::function<void()> wake) {
    if (pool_ != nullptr) pool_->waiters.push_back(std::move(wake));
  }

  const Config& config() const { return config_; }
  const Stats& stats() const { return stats_; }

 private:
  // Grows the circular buffer (power-of-two sizes). Called only when
  // occupancy reaches a new high-water mark; steady state never allocates.
  void Grow();
  // The admission test; counts the drop when it fails.
  bool Admit();
  // Occupancy-threshold CE marking of an admitted packet.
  void MarkOnAdmit(Packet& p);
  void Push(Packet* p);
  void ReleasePoolSpace(std::uint32_t packets);
  void RecordSojourn(SimTime sojourn);
  // CoDel per-dequeue decision. Returns false when `p` was consumed as a
  // CoDel drop; may CE-mark `p` in codel_ecn mode.
  bool CodelDeliver(Packet& p, SimTime sojourn, SimTime now);
  bool CodelOkToDrop(SimTime sojourn, SimTime now);
  SimTime CodelControlLaw(SimTime t) const;

  Simulator& sim_;
  Config config_;
  // Circular storage of pooled handles; a slot is one pointer, so growing
  // or cycling the ring never copies a Packet.
  std::vector<Packet*> ring_;
  static_assert(sizeof(decltype(ring_)::value_type) == sizeof(void*),
                "a QueueDisc ring slot must stay one pointer");
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  Stats stats_;
  // Non-zero only while draining after a shrink below occupancy.
  std::uint32_t shrink_watermark_ = 0;

  // kSharedPool: non-owning; null = degrade to drop-tail.
  SharedBufferPool* pool_ = nullptr;

  // kCodel state machine (RFC 8289 names).
  SimTime codel_first_above_ = SimTime::Zero();
  SimTime codel_drop_next_ = SimTime::Zero();
  std::uint32_t codel_count_ = 0;
  bool codel_dropping_ = false;
};

}  // namespace tdtcp
