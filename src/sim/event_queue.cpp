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

std::uint32_t EventQueue::AllocNode(std::uint64_t ev, SimTime at) {
  std::uint32_t n = node_free_;
  if (n == kNilNode) {
    if (nodes_.size() >= kMaxNodes) {
      throw std::length_error("EventQueue: chain node pool exhausted");
    }
    n = static_cast<std::uint32_t>(nodes_.size());
    nodes_.push_back(Node{ev, at, kNilNode});
    return n;
  }
  node_free_ = nodes_[n].next;
  nodes_[n] = Node{ev, at, kNilNode};
  return n;
}

EventId EventQueue::ScheduleHeap(SimTime at, std::uint32_t slot) {
  const EventId id = TagLive(slot);
  const std::uint32_t node = AllocNode(id, at);
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
    PushChain(at, SeqOf(id), node);
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

EventId EventQueue::AppendToStream(Stream& stream, SimTime at,
                                   std::uint32_t slot) {
  const EventId id = TagLive(slot);
  const std::uint32_t node = AllocNode(id, at);
  // The tail node still holding the tail's id means it is still linked as
  // its chain's last node (freed nodes have ev == 0, and a reused node
  // holds a different, never-recycled id). Appending a time no earlier
  // than the tail's keeps the chain sorted by (time, seq).
  const std::uint32_t tail = stream.tail_node_;
  if (tail < nodes_.size() && nodes_[tail].ev == stream.tail_ev_ &&
      at >= stream.tail_at_) {
    nodes_[tail].next = node;
  } else {
    PushChain(at, SeqOf(id), node);
  }
  stream.tail_node_ = node;
  stream.tail_ev_ = id;
  stream.tail_at_ = at;
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

std::size_t EventQueue::MinChild(std::size_t first, std::size_t n) const {
  if (first + kHeapArity <= n) {
    // Full node: tournament min — the two pair-compares are independent,
    // and with the branchless comparator each pick is a cmov.
    const std::size_t a = After(heap_[first], heap_[first + 1])
                              ? first + 1 : first;
    const std::size_t b = After(heap_[first + 2], heap_[first + 3])
                              ? first + 3 : first + 2;
    return After(heap_[a], heap_[b]) ? b : a;
  }
  std::size_t best = first;
  for (std::size_t c = first + 1; c < n; ++c) {
    if (After(heap_[best], heap_[c])) best = c;
  }
  return best;
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
    const std::size_t best = MinChild(first, n);
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

void EventQueue::SiftDownShort(std::size_t i) {
  const std::size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    const std::size_t best = MinChild(first, n);
    if (!After(e, heap_[best])) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
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
      const std::uint32_t head =
          static_cast<std::uint32_t>(heap_.front().key & kNodeIndexMask);
      if (!EventDead(nodes_[head].ev)) break;
      TakeHeapHead();
      --heap_dead_;
      ++counters_.dead_dropped;
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
      heap_[w++] = Entry{nodes_[head].at,
                         HeapKey(nodes_[head].ev >> kSlotIndexBits, head)};
    }
  }
  heap_.resize_down(w);
  for (std::size_t i = heap_.size() / kHeapArity + 1; i-- > 0;) {
    if (i < heap_.size()) SiftDown(i);
  }
  // Chain tails may have moved or died; a wholesale wipe is always safe.
  // (Streams need nothing: a surviving tail is still its chain's last node,
  // and a freed one no longer holds the stream's tail id.)
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
    // Whole chain gone: a cache way naming this node as its tail must die
    // with it, or a later same-time schedule would append to a freed node.
    ClearCohortRef(front.at, head);
    HeapPopTop();
  } else {
    // The next head can sort after another chain's head (a later time in a
    // stream, or a seq interleaved with a same-time chain), so re-sift.
    front.at = nodes_[next].at;
    front.key = HeapKey(nodes_[next].ev >> kSlotIndexBits, next);
    SiftDownShort(0);
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

std::size_t EventQueue::RunBatch(SimTime& now_out, const bool& stop,
                                 SimTime until) {
  // One dead-head sweep fixes a LIVE batch time; inside the batch each
  // popped entry is checked once, against the slot line the dispatch reads
  // anyway.
  DropDeadHeads();
  if (live_count_ == 0) return 0;
  const LaneEntry* lf = LaneFront();
  SimTime t = lf != nullptr ? lf->at : heap_.front().at;
  if (lf != nullptr && !heap_.empty() && heap_.front().at < t) {
    t = heap_.front().at;
  }
  if (t > until) return 0;
  now_out = t;
  std::size_t n = 0;
  while (!stop) {
    const LaneEntry* lane = LaneFront();
    const bool heap_ready = !heap_.empty() && heap_.front().at == t;
    std::uint64_t ev;
    bool from_lane;
    if (lane != nullptr && lane->at == t &&
        (!heap_ready || SeqOf(lane->key) < HeapFirstSeq(heap_.front()))) {
      ev = lane->key;
      from_lane = true;
      LanePop();
    } else if (heap_ready) {
      ev = TakeHeapHead();
      from_lane = false;
    } else {
      break;  // nothing left at t — the batch boundary
    }
    const std::uint32_t slot = SlotOf(ev);
    Slot& s = SlotRef(slot);
    if ((s.live & ~kLaneFlag) != SeqOf(ev)) {
      // Cancelled while pending: its slot is already back on the freelist.
      if (from_lane) {
        --lane_dead_;
      } else {
        --heap_dead_;
      }
      ++counters_.dead_dropped;
      continue;
    }
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
