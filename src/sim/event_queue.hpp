// A deterministic, allocation-free future-event list.
//
// Events scheduled for the same instant fire in scheduling order (FIFO),
// which makes simulations reproducible regardless of heap internals. The
// core is allocation-free in steady state:
//
//  * Callbacks are stored in InlineEvent, a type-erased functor with a
//    fixed-capacity inline buffer (no std::function, no heap). Captures
//    larger than kInlineEventCapacity fail to compile.
//  * Callback slots live in a recycled slab of fixed-size blocks (stable
//    addresses, one cache line per slot); the 4-ary min-heap orders 16-byte
//    POD entries {time, key}.
//  * Same-time events are batched into COHORTS: the heap holds one entry per
//    distinct timestamp, and all events sharing that timestamp hang off it
//    as a FIFO chain through a recycled node pool. A direct-mapped
//    time->tail cache makes the append O(1) — no sift — so draining N
//    same-time events costs one sift-down total instead of N. The cache is
//    a pure accelerator: a missed hit merely creates a second heap entry
//    ("twin cohort") at the same time, and because appends only ever go to
//    the most recently cached cohort while sequence numbers are globally
//    monotonic, every seq in an older twin is smaller than every seq in a
//    newer one — the per-entry first-seq key keeps twins in exact FIFO
//    order.
//  * Cancellation is sequence-tagged: an EventId packs {seq, slot}, where
//    seq is the event's globally unique schedule sequence number. A chain
//    node whose seq no longer matches its slot's live seq is dead, so
//    Cancel() is O(1) with zero hashing, and a stale id can never alias a
//    later event (sequence numbers are monotonic, never recycled). Dead
//    nodes are skipped at the head and compacted wholesale when they exceed
//    half the pending chain nodes.
//  * Zero-delay events (Schedule(0, ...) via the Simulator — the dominant
//    pattern in link/queue handoff) bypass the heap entirely through a FIFO
//    lane, while the shared sequence counter keeps the combined firing
//    order identical to a single heap keyed on (time, schedule order).
//
// RunBatch() drains every event sharing the earliest timestamp (heap cohort
// twins + same-time lane arrivals, merged in seq order) in one call.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace tdtcp {

// Packs {seq, slot}: slot in the low kSlotIndexBits, the event's unique
// schedule sequence number above it. Sequence numbers start at 1, so no
// valid id ever equals kInvalidEventId.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Maximum capture size of a scheduled callback. Raise deliberately: every
// event slot carries this many bytes inline, and big captures usually mean a
// Packet is being copied into a lambda instead of going through the
// Simulator's packet freelist.
inline constexpr std::size_t kInlineEventCapacity = 48;

// A move-only type-erased callable with inline storage — the allocation-free
// replacement for std::function<void()> in the event core.
class InlineEvent {
 public:
  InlineEvent() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent>>>
  InlineEvent(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  InlineEvent(InlineEvent&& o) noexcept {
    if (o.ops_ != nullptr) {
      ops_ = o.ops_;
      ops_->relocate(buf_, o.buf_);
      o.ops_ = nullptr;
    }
  }

  InlineEvent& operator=(InlineEvent&& o) noexcept {
    if (this != &o) {
      Reset();
      if (o.ops_ != nullptr) {
        ops_ = o.ops_;
        ops_->relocate(buf_, o.buf_);
        o.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { Reset(); }

  template <typename F>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kInlineEventCapacity,
                  "event capture exceeds kInlineEventCapacity — shrink the "
                  "lambda capture (stash Packets via Simulator::StashPacket)");
    static_assert(alignof(Fn) <= alignof(void*),
                  "over-aligned event capture");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "event callables must be nothrow-movable");
    Reset();
    ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
    ops_ = &OpsFor<Fn>::kOps;
  }

  void operator()() { ops_->invoke(buf_); }

  // Single-indirect-call invoke-then-destroy, for the run loop's in-place
  // dispatch (the capture is destroyed even if the callback throws).
  void InvokeAndReset() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->invoke_destroy(buf_);
  }

  explicit operator bool() const { return ops_ != nullptr; }

  void Reset() {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    void (*invoke_destroy)(void*);
    void (*relocate)(void* dst, void* src);  // move-construct + destroy src
    void (*destroy)(void*);
  };

  template <typename Fn>
  struct OpsFor {
    static constexpr Ops kOps = {
        [](void* p) { (*static_cast<Fn*>(p))(); },
        [](void* p) {
          Fn* f = static_cast<Fn*>(p);
          struct Guard {
            Fn* f;
            ~Guard() { f->~Fn(); }
          } guard{f};
          (*f)();
        },
        [](void* dst, void* src) {
          Fn* s = static_cast<Fn*>(src);
          ::new (dst) Fn(std::move(*s));
          s->~Fn();
        },
        [](void* p) { static_cast<Fn*>(p)->~Fn(); },
    };
  };

  // Pointer alignment (not max_align_t) keeps a whole Slot — buffer, ops,
  // live tag — inside one 64-byte cache line; captures are pointers and
  // small integers, never over-aligned SIMD types.
  alignas(void*) unsigned char buf_[kInlineEventCapacity];
  const Ops* ops_ = nullptr;
};

class EventQueue {
 public:
  // Slot-index width inside an EventId. 2^20 concurrent pending events; the
  // remaining 43 sequence bits never overflow in any realistic run (checked
  // — Schedule throws rather than corrupting order).
  static constexpr std::uint32_t kSlotIndexBits = 20;
  static constexpr std::uint32_t kMaxSlots = 1u << kSlotIndexBits;
  static constexpr std::uint64_t kMaxSeq =
      (std::uint64_t{1} << (63 - kSlotIndexBits)) - 1;

  EventQueue();

  // Schedules through the time-ordered heap. `ScheduleImmediate` is the
  // zero-delay fast lane: the caller (the Simulator) guarantees `at` equals
  // the current simulation time, so the entry can skip the heap and drain
  // FIFO. Both share one sequence counter, so the combined firing order is
  // exactly (time, schedule order).
  template <typename F>
  EventId Schedule(SimTime at, F&& fn) {
    const std::uint32_t slot = AcquireSlot(std::forward<F>(fn));
    return ScheduleHeap(at, slot);
  }

  template <typename F>
  EventId ScheduleImmediate(SimTime at, F&& fn) {
    const std::uint32_t slot = AcquireSlot(std::forward<F>(fn));
    const std::uint64_t seq = NextSeq();
    SlotRef(slot).live = seq | kLaneFlag;
    LanePush(LaneEntry{at, MakeKey(seq, slot)});
    ++live_count_;
    return MakeKey(seq, slot);
  }

  // Cancels a pending event. Cancelling an already-fired, already-cancelled,
  // or invalid id is a harmless no-op, which simplifies timer management in
  // protocol code. O(1): the slot's live tag is cleared so the queued entry
  // no longer matches, and the callback is destroyed eagerly.
  void Cancel(EventId id);

  bool Empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }

  // Time of the earliest live event; SimTime::Max() when empty.
  SimTime NextTime();

  // Pops the earliest live event and invokes it in place: one indirect call,
  // no relocation. `now_out` is set to the event's time before the callback
  // runs. Safe against reentrant Schedule/Cancel because slots live in
  // fixed-size blocks that never move, and the entry's live tag is retired
  // before invocation. Precondition: !Empty().
  void RunNext(SimTime& now_out);

  // Drains EVERY live event sharing the earliest timestamp — the heap
  // cohort, its twins, and lane entries at the same instant, merged in
  // schedule-sequence order — and invokes each in place. Events the
  // callbacks schedule at the same instant (zero-delay chains through the
  // lane) join the batch, exactly as repeated RunNext calls would take
  // them. `now_out` is set to the batch timestamp before the first callback
  // runs; `stop` is re-checked between events so Simulator::Stop() keeps
  // its between-events semantics. Returns the number of events dispatched
  // (0 when empty). The dispatch order is bit-identical to calling
  // RunNext() in a loop.
  std::size_t RunBatch(SimTime& now_out, const bool& stop);

  // Monotonic internals counters (batching / cancellation observability).
  struct Counters {
    std::uint64_t batches = 0;       // RunBatch invocations that dispatched
    std::uint64_t max_batch = 0;     // largest single batch
    std::uint64_t cohort_hits = 0;   // O(1) same-time appends (sift skipped)
    std::uint64_t dead_dropped = 0;  // cancelled entries reclaimed lazily
    std::uint64_t compactions = 0;   // whole-heap compaction passes
  };
  const Counters& counters() const { return counters_; }

  // --- introspection / test hooks -------------------------------------------
  static std::uint32_t SlotOf(EventId id) {
    return static_cast<std::uint32_t>(id & (kMaxSlots - 1));
  }
  static std::uint64_t SeqOf(EventId id) { return id >> kSlotIndexBits; }
  // Backing-store sizes, for compaction tests. heap_storage counts heap
  // entries (one per distinct pending timestamp, dead cohorts included).
  std::size_t heap_storage_for_test() const { return heap_.size(); }
  std::size_t slab_size_for_test() const {
    return slot_blocks_.size() * kSlotBlock;
  }
  // Forces the global sequence counter, to exercise the overflow guard
  // without scheduling 2^43 events. Monotonicity must be preserved.
  void ForceNextSeqForTest(std::uint64_t seq) {
    assert(seq >= seq_);
    seq_ = seq;
  }

 private:
  // POD heap entry: 16 bytes, one per distinct pending timestamp. `key` is
  // (first_seq << kNodeIndexBits) | head_node: comparing keys compares the
  // chain head's FIFO sequence number (unique, so the node bits below never
  // decide), which both orders twin cohorts correctly and recovers the
  // chain head in O(1).
  struct Entry {
    SimTime at;
    std::uint64_t key;
  };

  // Lane entries reuse the 16-byte shape but their `key` is the EventId
  // (seq << kSlotIndexBits | slot) directly — the lane never mixes into the
  // heap, and the one lane-vs-heap merge point compares seqs explicitly.
  struct LaneEntry {
    SimTime at;
    std::uint64_t key;
  };

  // Chain node: the event's id plus the next node of its cohort (kNilNode
  // terminates). Free nodes thread the freelist through `next`.
  struct Node {
    std::uint64_t ev;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNilNode = 0xffffffffu;
  // Node-index width inside a heap key. One bit wider than the slot space:
  // cancelled events free their slot immediately but leave the chain node
  // in place until compaction, and compaction (triggered at >50% dead)
  // bounds dead nodes by live ones — so the pool never exceeds 2x slots.
  static constexpr std::uint32_t kNodeIndexBits = kSlotIndexBits + 1;
  static constexpr std::uint32_t kMaxNodes = 1u << kNodeIndexBits;
  static constexpr std::uint64_t kNodeIndexMask = kMaxNodes - 1;
  static_assert(kNodeIndexBits + 43 <= 64, "heap key overflow");

  // One cache line: 48B capture + ops pointer + live tag.
  struct Slot {
    InlineEvent fn;
    // Sequence number of the pending event occupying this slot (bit 63 set
    // when the entry is in the zero-delay lane, not the heap); 0 when free
    // or dead.
    std::uint64_t live = 0;
  };
  static constexpr std::uint64_t kLaneFlag = std::uint64_t{1} << 63;

  static EventId MakeKey(std::uint64_t seq, std::uint32_t slot) {
    return (seq << kSlotIndexBits) | slot;
  }
  static std::uint64_t HeapKey(std::uint64_t seq, std::uint32_t node) {
    return (seq << kNodeIndexBits) | node;
  }
  static std::uint64_t HeapFirstSeq(const Entry& e) {
    return e.key >> kNodeIndexBits;
  }

  // Fires-after ordering for the min-heap. Deliberately bitwise rather than
  // short-circuit: the sift loops compare essentially random entries, and a
  // flag-combine + cmov beats a ~50% mispredicted branch pair.
  static bool After(const Entry& a, const Entry& b) {
    const std::int64_t at_a = a.at.picos();
    const std::int64_t at_b = b.at.picos();
    return (at_a > at_b) | ((at_a == at_b) & (a.key > b.key));
  }

  std::uint64_t NextSeq() {
    if (seq_ > kMaxSeq) ThrowSeqExhausted();
    return seq_++;
  }
  [[noreturn]] void ThrowSeqExhausted() const;

  // Slots live in fixed-size blocks so growth never relocates a live slot —
  // the run loop invokes callbacks in place, and a callback scheduling new
  // events must not move the functor under its own feet.
  static constexpr std::size_t kSlotBlockShift = 6;
  static constexpr std::size_t kSlotBlock = std::size_t{1} << kSlotBlockShift;

  Slot& SlotRef(std::uint32_t i) {
    return slot_blocks_[i >> kSlotBlockShift][i & (kSlotBlock - 1)];
  }
  const Slot& SlotRef(std::uint32_t i) const {
    return slot_blocks_[i >> kSlotBlockShift][i & (kSlotBlock - 1)];
  }

  template <typename F>
  std::uint32_t AcquireSlot(F&& fn) {
    if (free_slots_.empty()) GrowSlab();
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    SlotRef(slot).fn.Emplace(std::forward<F>(fn));
    return slot;
  }

  void GrowSlab();

  bool EventDead(std::uint64_t ev) const {
    return (SlotRef(SlotOf(ev)).live & ~kLaneFlag) != (ev >> kSlotIndexBits);
  }

  // --- cohort plumbing -------------------------------------------------------
  // Set-associative time -> chain-tail cache, the O(1) append accelerator.
  // 4 ways of 16 bytes fill exactly one cache line per set, and 512 sets
  // (32 KiB) hold ~2000 distinct pending timestamps before conflicts start
  // — a direct-mapped table thrashes badly at the event core's typical
  // ~1000 live timestamps. Eviction and wholesale invalidation are always
  // CORRECT (the next same-time schedule just opens a twin cohort); the one
  // mandatory maintenance point is clearing the entry when its cohort fully
  // drains — a stale hit would append to a freed node and lose the event.
  static constexpr std::uint32_t kCohortSetBits = 9;
  static constexpr std::size_t kCohortSets = std::size_t{1} << kCohortSetBits;
  static constexpr std::size_t kCohortWays = 4;
  struct CohortRef {
    std::int64_t at_ps;  // -1 = empty (negative times are never cached)
    std::uint32_t tail;
    std::uint32_t pad;
  };
  struct alignas(64) CohortSet {
    CohortRef way[kCohortWays];
  };
  static std::size_t CohortIndex(std::int64_t ps) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(ps) * 0x9E3779B97F4A7C15ull) >>
        (64 - kCohortSetBits));
  }
  void ClearCohortRef(SimTime at) {
    CohortSet& set = cohort_cache_[CohortIndex(at.picos())];
    for (std::size_t w = 0; w < kCohortWays; ++w) {
      if (set.way[w].at_ps == at.picos()) {
        set.way[w].at_ps = -1;
        return;
      }
    }
  }
  void InvalidateCohortCache();

  EventId ScheduleHeap(SimTime at, std::uint32_t slot);
  std::uint32_t AllocNode(std::uint64_t ev);
  void FreeNode(std::uint32_t n) {
    nodes_[n].next = node_free_;
    node_free_ = n;
  }
  // Detaches and frees the heap front's chain head (advancing the cohort or
  // popping the entry) and returns the event id. Precondition: the head
  // node's event is live.
  std::uint64_t TakeHeapHead();

  static constexpr std::size_t kHeapArity = 4;

  // Growable POD entry buffer, 64-byte-aligned with the data pointer offset
  // by 3 entries: the 4-child group of node i (indices 4i+1..4i+4, 64 bytes)
  // then starts at byte 64(i+1) — exactly one cache line per sift level.
  class EntryBuf {
   public:
    EntryBuf() = default;
    ~EntryBuf();
    EntryBuf(const EntryBuf&) = delete;
    EntryBuf& operator=(const EntryBuf&) = delete;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    Entry& operator[](std::size_t i) { return data_[i]; }
    const Entry& operator[](std::size_t i) const { return data_[i]; }
    Entry& front() { return data_[0]; }
    const Entry& front() const { return data_[0]; }
    Entry& back() { return data_[size_ - 1]; }
    void push_back(const Entry& e) {
      if (size_ == cap_) Grow();
      data_[size_++] = e;
    }
    void pop_back() { --size_; }
    void resize_down(std::size_t n) { size_ = n; }  // compaction pack

   private:
    static constexpr std::size_t kPad = kHeapArity - 1;
    void Grow();

    void* raw_ = nullptr;
    Entry* data_ = nullptr;
    std::size_t size_ = 0;
    std::size_t cap_ = 0;
  };

  struct Taken {
    SimTime at;
    EventId ev;
  };
  Taken TakeNextEntry();
  void SiftUp(std::size_t i);
  void SiftDown(std::size_t i);
  void HeapPopTop();
  void DropDeadHeads();
  // Rebuilds the heap without dead chain nodes once they exceed half the
  // pending pool, so cancel-heavy workloads (RTO timers under low loss)
  // stay bounded.
  void MaybeCompact();
  void Compact();

  void LanePush(const LaneEntry& e);
  void LanePop();
  const LaneEntry* LaneFront() const {
    return lane_count_ == 0 ? nullptr : &lane_[lane_head_];
  }

  std::vector<std::unique_ptr<Slot[]>> slot_blocks_;
  std::vector<std::uint32_t> free_slots_;
  EntryBuf heap_;
  std::vector<Node> nodes_;
  std::uint32_t node_free_ = kNilNode;
  std::unique_ptr<CohortSet[]> cohort_cache_;
  std::uint32_t cohort_rr_ = 0;  // round-robin way replacement cursor
  std::vector<LaneEntry> lane_;  // circular; size is a power of two
  std::size_t lane_head_ = 0;
  std::size_t lane_count_ = 0;
  std::uint64_t seq_ = 1;
  std::size_t live_count_ = 0;
  std::size_t heap_nodes_ = 0;  // chain nodes linked into the heap (incl. dead)
  std::size_t heap_dead_ = 0;   // dead chain nodes
  std::size_t lane_dead_ = 0;
  Counters counters_;
};

}  // namespace tdtcp
