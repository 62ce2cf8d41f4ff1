#include "sim/event_queue.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace tdtcp {
namespace {

// Below this many chain nodes a compaction pass costs more than it saves.
constexpr std::size_t kCompactMinNodes = 64;

}  // namespace

EventQueue::EventQueue()
    // Plain array-new: CohortSet is trivial, so the storage stays
    // uninitialized until the one memset below (make_unique would zero it
    // first and touch the 32 KiB twice per Simulator construction).
    : cohort_cache_(new CohortSet[kCohortSets]) {
  InvalidateCohortCache();
}

void EventQueue::InvalidateCohortCache() {
  // 0xff bytes give at_ps = -1 (empty) in one memset; tail is never read
  // while at_ps is the sentinel.
  static_assert(std::is_trivially_copyable_v<CohortSet>);
  std::memset(cohort_cache_.get(), 0xff, kCohortSets * sizeof(CohortSet));
}

EventQueue::EntryBuf::~EntryBuf() {
  if (raw_ != nullptr) ::operator delete(raw_, std::align_val_t{64});
}

void EventQueue::EntryBuf::Grow() {
  static_assert(sizeof(Entry) == 16 && std::is_trivially_copyable_v<Entry>);
  const std::size_t ncap = std::max<std::size_t>(64, cap_ * 2);
  void* nraw = ::operator new((kPad + ncap) * sizeof(Entry), std::align_val_t{64});
  Entry* ndata = static_cast<Entry*>(nraw) + kPad;
  if (size_ != 0) std::memcpy(ndata, data_, size_ * sizeof(Entry));
  if (raw_ != nullptr) ::operator delete(raw_, std::align_val_t{64});
  raw_ = nraw;
  data_ = ndata;
  cap_ = ncap;
}

void EventQueue::GrowSlab() {
  if (slot_blocks_.size() * kSlotBlock >= kMaxSlots) {
    throw std::length_error(
        "EventQueue: too many concurrent pending events (kMaxSlots)");
  }
  auto block = std::make_unique<Slot[]>(kSlotBlock);
  const std::uint32_t base =
      static_cast<std::uint32_t>(slot_blocks_.size() * kSlotBlock);
  slot_blocks_.push_back(std::move(block));
  free_slots_.reserve(slot_blocks_.size() * kSlotBlock);
  for (std::size_t i = kSlotBlock; i-- > 0;) {
    free_slots_.push_back(base + static_cast<std::uint32_t>(i));
  }
}

void EventQueue::ThrowSeqExhausted() const {
  throw std::length_error("EventQueue: schedule sequence space exhausted");
}

std::uint32_t EventQueue::AllocNode(std::uint64_t ev) {
  std::uint32_t n = node_free_;
  if (n == kNilNode) {
    if (nodes_.size() >= kMaxNodes) {
      throw std::length_error("EventQueue: chain node pool exhausted");
    }
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{ev, kNilNode});
    return n;
  }
  node_free_ = nodes_[n].next;
  nodes_[n] = Node{ev, kNilNode};
  return n;
}

EventId EventQueue::ScheduleHeap(SimTime at, std::uint32_t slot) {
  const std::uint64_t seq = NextSeq();
  SlotRef(slot).live = seq;
  const EventId id = MakeKey(seq, slot);
  const std::uint32_t node = AllocNode(id);
  const std::int64_t ps = at.picos();
  CohortSet& set = cohort_cache_[CohortIndex(ps)];
  // One fused pass over the set's four ways (one cache line): find the hit
  // and, failing that, the first empty way to insert into.
  CohortRef* hit = nullptr;
  CohortRef* empty = nullptr;
  for (std::size_t w = 0; w < kCohortWays; ++w) {
    CohortRef& c = set.way[w];
    if (c.at_ps == ps) {
      hit = &c;
      break;
    }
    if (empty == nullptr && c.at_ps < 0) empty = &c;
  }
  if (hit != nullptr) {
    // Same-time append: chain onto the cached cohort's tail, no heap
    // traffic at all. Sequence monotonicity keeps the chain FIFO-sorted.
    nodes_[hit->tail].next = node;
    hit->tail = node;
    ++counters_.cohort_hits;
  } else {
    heap_.push_back(Entry{at, HeapKey(seq, node)});
    SiftUp(heap_.size() - 1);
    if (ps >= 0) {
      // No empty way: replace round-robin. Replacement is deterministic (a
      // counter, not wall-clock or randomness) and only ever costs
      // performance: an evicted time just reopens as a twin.
      if (empty == nullptr) empty = &set.way[cohort_rr_++ & (kCohortWays - 1)];
      *empty = CohortRef{ps, node, 0};
    }
  }
  ++heap_nodes_;
  ++live_count_;
  return id;
}

void EventQueue::Cancel(EventId id) {
  const std::uint32_t slot = SlotOf(id);
  if (slot >= slab_size_for_test()) return;  // never existed
  Slot& s = SlotRef(slot);
  // A live slot's tag equals the id's sequence number; anything else means
  // the event already fired, was already cancelled, or the id is bogus. A
  // free slot's tag is 0, which only the (invalid) zero sequence matches.
  const std::uint64_t seq = SeqOf(id);
  if (seq == 0 || (s.live & ~kLaneFlag) != seq) return;
  const bool was_lane = (s.live & kLaneFlag) != 0;
  s.fn.Reset();  // destroy the capture eagerly; the entry is now dead
  s.live = 0;
  free_slots_.push_back(slot);
  --live_count_;
  if (was_lane) {
    ++lane_dead_;
  } else {
    // The chain node stays linked (O(1) cancel); drain skips it lazily and
    // compaction reclaims it wholesale.
    ++heap_dead_;
    MaybeCompact();
  }
}

// The heap is 4-ary: half the dependent levels of a binary heap, and the
// four 16-byte children of a node share one cache line, so the
// deeper-but-narrower compare fan costs less than it saves in latency on
// large heaps. Arity is invisible to firing order — (at, key) is a strict
// total order, so any valid heap pops the same sequence.
void EventQueue::SiftUp(std::size_t i) {
  Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!After(heap_[parent], e)) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::SiftDown(std::size_t i) {
  // Bottom-up sift (Floyd): walk the hole down the min-child path to a leaf,
  // then bubble the displaced element back up. HeapPopTop feeds this a leaf
  // element that nearly always belongs back near the bottom, so the
  // bubble-up is short and the early-exit compare per level is saved.
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  std::size_t hole = i;
  for (;;) {
    const std::size_t first = kHeapArity * hole + 1;
    if (first >= n) break;
    std::size_t best;
    if (first + kHeapArity <= n) {
      // Full node: tournament min — the two pair-compares are independent,
      // and with the branchless comparator each pick is a cmov.
      const std::size_t a = After(heap_[first], heap_[first + 1])
                                ? first + 1 : first;
      const std::size_t b = After(heap_[first + 2], heap_[first + 3])
                                ? first + 3 : first + 2;
      best = After(heap_[a], heap_[b]) ? b : a;
    } else {
      best = first;
      for (std::size_t c = first + 1; c < n; ++c) {
        if (After(heap_[best], heap_[c])) best = c;
      }
    }
    heap_[hole] = heap_[best];
    hole = best;
  }
  while (hole > i) {
    const std::size_t parent = (hole - 1) / kHeapArity;
    if (!After(heap_[parent], e)) break;
    heap_[hole] = heap_[parent];
    hole = parent;
  }
  heap_[hole] = e;
}

void EventQueue::HeapPopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
}

void EventQueue::DropDeadHeads() {
  // The dead counters gate the slot probes: with no pending cancellations
  // (the common case) this is two compare-to-zero branches, no slab reads.
  if (lane_dead_ != 0) {
    while (lane_count_ != 0 && EventDead(lane_[lane_head_].key)) {
      LanePop();
      --lane_dead_;
      ++counters_.dead_dropped;
    }
  }
  if (heap_dead_ != 0) {
    while (!heap_.empty()) {
      Entry& front = heap_.front();
      const std::uint32_t head =
          static_cast<std::uint32_t>(front.key & kNodeIndexMask);
      if (!EventDead(nodes_[head].ev)) break;
      const std::uint32_t next = nodes_[head].next;
      FreeNode(head);
      --heap_nodes_;
      --heap_dead_;
      ++counters_.dead_dropped;
      if (next == kNilNode) {
        // Whole cohort gone: the cache entry (if still ours) must die with
        // it, or a later same-time schedule would append to a freed node.
        ClearCohortRef(front.at);
        HeapPopTop();
      } else {
        // Advance the cohort in place. The front stays the true minimum:
        // within the chain seqs ascend, and any same-time twin was created
        // strictly later, so all its seqs are larger than the whole chain.
        front.key = HeapKey(nodes_[next].ev >> kSlotIndexBits, next);
      }
      if (heap_dead_ == 0) break;
    }
  }
}

void EventQueue::MaybeCompact() {
  if (heap_nodes_ >= kCompactMinNodes && heap_dead_ * 2 > heap_nodes_) {
    Compact();
  }
}

void EventQueue::Compact() {
  // Filter every cohort chain (dead nodes can sit mid-chain), drop cohorts
  // that end up empty, then Floyd-heapify the packed entries: O(nodes), and
  // the pass runs at most once per half-pool of cancellations.
  std::size_t w = 0;
  for (std::size_t r = 0; r < heap_.size(); ++r) {
    const Entry e = heap_[r];
    std::uint32_t head = kNilNode;
    std::uint32_t tail = kNilNode;
    std::uint32_t cur = static_cast<std::uint32_t>(e.key & kNodeIndexMask);
    while (cur != kNilNode) {
      const std::uint32_t next = nodes_[cur].next;
      if (EventDead(nodes_[cur].ev)) {
        FreeNode(cur);
        --heap_nodes_;
        --heap_dead_;
        ++counters_.dead_dropped;
      } else {
        if (head == kNilNode) {
          head = cur;
        } else {
          nodes_[tail].next = cur;
        }
        tail = cur;
      }
      cur = next;
    }
    if (head != kNilNode) {
      nodes_[tail].next = kNilNode;
      heap_[w++] = Entry{e.at, HeapKey(nodes_[head].ev >> kSlotIndexBits, head)};
    }
  }
  heap_.resize_down(w);
  for (std::size_t i = heap_.size() / kHeapArity + 1; i-- > 0;) {
    if (i < heap_.size()) SiftDown(i);
  }
  // Chain tails may have moved or died; a wholesale wipe is always safe.
  InvalidateCohortCache();
  ++counters_.compactions;
}

SimTime EventQueue::NextTime() {
  DropDeadHeads();
  const LaneEntry* lane = LaneFront();
  if (lane == nullptr) {
    return heap_.empty() ? SimTime::Max() : heap_.front().at;
  }
  // Lane entries were scheduled at what was then "now", which can only be at
  // or before every heap entry's time.
  return lane->at;
}

std::uint64_t EventQueue::TakeHeapHead() {
  Entry& front = heap_.front();
  const std::uint32_t head =
      static_cast<std::uint32_t>(front.key & kNodeIndexMask);
  Node& nd = nodes_[head];
  const std::uint64_t ev = nd.ev;
  // The winner's slot line is needed right after the structural pop;
  // kicking the fetch off here hides it behind the sift-down / advance.
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(&SlotRef(SlotOf(ev)), 1 /*write*/);
#endif
  const std::uint32_t next = nd.next;
  FreeNode(head);
  --heap_nodes_;
  if (next == kNilNode) {
    ClearCohortRef(front.at);
    HeapPopTop();
  } else {
    front.key = HeapKey(nodes_[next].ev >> kSlotIndexBits, next);
  }
  return ev;
}

EventQueue::Taken EventQueue::TakeNextEntry() {
  DropDeadHeads();
  assert(live_count_ > 0);
  const LaneEntry* lane = LaneFront();
  if (lane != nullptr) {
    // A heap cohort at the same instant whose head has a smaller sequence
    // number was scheduled earlier and must keep its FIFO position. Lane
    // keys and heap keys use different layouts, so compare seqs explicitly.
    const bool lane_first =
        heap_.empty() || lane->at < heap_.front().at ||
        (lane->at == heap_.front().at &&
         SeqOf(lane->key) < HeapFirstSeq(heap_.front()));
    if (lane_first) {
      const Taken t{lane->at, lane->key};
      LanePop();
      return t;
    }
  }
  const SimTime at = heap_.front().at;
  return Taken{at, TakeHeapHead()};
}

void EventQueue::RunNext(SimTime& now_out) {
  const Taken t = TakeNextEntry();
  const std::uint32_t slot = SlotOf(t.ev);
  Slot& s = SlotRef(slot);
  // Retire the entry before running: a reentrant Cancel of this id is a
  // no-op, and the slot stays off the freelist until the callback returns,
  // so reentrant Schedules can never emplace over the running functor
  // (slot blocks never relocate, see GrowSlab).
  s.live = 0;
  --live_count_;
  now_out = t.at;
  s.fn.InvokeAndReset();
  free_slots_.push_back(slot);
}

std::size_t EventQueue::RunBatch(SimTime& now_out, const bool& stop) {
  DropDeadHeads();
  if (live_count_ == 0) return 0;
  const LaneEntry* lf = LaneFront();
  SimTime t = lf != nullptr ? lf->at : heap_.front().at;
  if (lf != nullptr && !heap_.empty() && heap_.front().at < t) {
    t = heap_.front().at;
  }
  now_out = t;
  std::size_t n = 0;
  while (!stop) {
    DropDeadHeads();
    const LaneEntry* lane = LaneFront();
    const bool heap_ready = !heap_.empty() && heap_.front().at == t;
    std::uint64_t ev;
    if (lane != nullptr && lane->at == t &&
        (!heap_ready || SeqOf(lane->key) < HeapFirstSeq(heap_.front()))) {
      ev = lane->key;
      LanePop();
    } else if (heap_ready) {
      ev = TakeHeapHead();
    } else {
      break;  // nothing live left at t — the batch boundary
    }
    const std::uint32_t slot = SlotOf(ev);
    Slot& s = SlotRef(slot);
    s.live = 0;
    --live_count_;
    s.fn.InvokeAndReset();
    free_slots_.push_back(slot);
    ++n;
  }
  if (n != 0) {
    ++counters_.batches;
    if (n > counters_.max_batch) counters_.max_batch = n;
  }
  return n;
}

void EventQueue::LanePush(const LaneEntry& e) {
  if (lane_count_ == lane_.size()) {
    // Grow and re-linearize (power-of-two sizes keep the index mask cheap).
    std::vector<LaneEntry> bigger(std::max<std::size_t>(8, lane_.size() * 2));
    for (std::size_t i = 0; i < lane_count_; ++i) {
      bigger[i] = lane_[(lane_head_ + i) & (lane_.size() - 1)];
    }
    lane_ = std::move(bigger);
    lane_head_ = 0;
  }
  lane_[(lane_head_ + lane_count_) & (lane_.size() - 1)] = e;
  ++lane_count_;
}

void EventQueue::LanePop() {
  lane_head_ = (lane_head_ + 1) & (lane_.size() - 1);
  --lane_count_;
}

}  // namespace tdtcp
