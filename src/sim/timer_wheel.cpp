#include "sim/timer_wheel.hpp"

#include <bit>

namespace tdtcp {

TimerWheel::~TimerWheel() {
  if (driver_ != kInvalidEventId) sim_.Cancel(driver_);
  // Orphan any still-armed entries so their destructors (which may run after
  // this wheel is gone) see an unarmed timer instead of a dangling pointer.
  // Only the occupied slots are visited; the others were never written.
  for (int level = 0; level < kLevels; ++level) {
    for (std::uint64_t bits = occupied_[level]; bits != 0; bits &= bits - 1) {
      for (Timer* t = slots_[level][std::countr_zero(bits)].head;
           t != nullptr;) {
        Timer* next = t->next_;
        t->wheel_ = nullptr;
        t->prev_ = t->next_ = nullptr;
        t = next;
      }
    }
  }
}

SimTime TimerWheel::Arm(Timer& t, SimTime at) {
  assert(t.fn_ != nullptr && "Timer::Init before Arm");
  if (t.wheel_ != nullptr) {
    assert(t.wheel_ == this);
    Unlink(t);
    --armed_;
  }
  // With nothing armed the cursor is free to fast-forward to now; tight
  // deltas keep entries at the lowest level and cascades rare.
  if (armed_ == 0 && !firing_) {
    current_tick_ = sim_.now().picos() >> kTickShift;
  }
  std::int64_t tick = CeilTick(at.picos());
  const std::int64_t now_ceil = CeilTick(sim_.now().picos());
  if (tick < now_ceil) tick = now_ceil;
  // Outside the driver, tick == current_tick_ would name a slot the cursor
  // already passed; push it to the next tick (inside the driver the firing
  // loop re-checks the current slot, so "due this tick" is fine).
  if (!firing_ && tick <= current_tick_) tick = current_tick_ + 1;
  t.tick_ = tick;
  t.wheel_ = this;
  Insert(t);
  ++armed_;
  if (!firing_) ScheduleDriver();
  return SimTime::Picos(tick << kTickShift);
}

void TimerWheel::DisarmArmed(Timer& t) {
  assert(t.wheel_ == this);
  Unlink(t);
  t.wheel_ = nullptr;
  --armed_;
  // The driver event is left in place: a stale wake finds nothing due and
  // reschedules, which is cheaper than cancel churn on every disarm.
}

void TimerWheel::Insert(Timer& t) {
  const std::int64_t delta = t.tick_ - current_tick_;
  assert(delta >= 0);
  int level = 0;
  while (level < kLevels - 1 &&
         (delta >> (kSlotBits * (level + 1))) != 0) {
    ++level;
  }
  const int slot =
      static_cast<int>((t.tick_ >> (kSlotBits * level)) & (kSlots - 1));
  t.level_ = static_cast<std::int8_t>(level);
  t.slot_ = static_cast<std::int8_t>(slot);
  Slot& s = slots_[level][slot];
  const std::uint64_t bit = std::uint64_t{1} << slot;
  t.next_ = nullptr;
  if ((occupied_[level] & bit) != 0) {
    t.prev_ = s.tail;
    s.tail->next_ = &t;
  } else {
    // An empty slot's pointers are stale or were never written.
    t.prev_ = nullptr;
    s.head = &t;
    occupied_[level] |= bit;
  }
  s.tail = &t;
}

void TimerWheel::Unlink(Timer& t) {
  Slot& s = slots_[t.level_][t.slot_];
  if (t.prev_ != nullptr) {
    t.prev_->next_ = t.next_;
  } else {
    s.head = t.next_;
  }
  if (t.next_ != nullptr) {
    t.next_->prev_ = t.prev_;
  } else {
    s.tail = t.prev_;
  }
  t.prev_ = t.next_ = nullptr;
  if (s.head == nullptr) {
    occupied_[t.level_] &= ~(std::uint64_t{1} << t.slot_);
  }
}

std::int64_t TimerWheel::NextOccupiedTick() const {
  std::int64_t best = -1;
  for (int level = 0; level < kLevels; ++level) {
    const std::uint64_t bits = occupied_[level];
    if (bits == 0) continue;
    const int cursor =
        static_cast<int>((current_tick_ >> (kSlotBits * level)) & (kSlots - 1));
    // Cyclic distance 1..64 to the next occupied slot. The cursor's own slot
    // counts as a full lap: at level 0 it was just fired, at coarser levels
    // it was cascaded on range entry, so anything (re)inserted there belongs
    // to the next wrap.
    const std::uint64_t rot = std::rotr(bits, (cursor + 1) & (kSlots - 1));
    const int dist = std::countr_zero(rot) + 1;
    std::int64_t cand;
    if (level == 0) {
      cand = current_tick_ + dist;
    } else {
      cand = ((current_tick_ >> (kSlotBits * level)) + dist)
             << (kSlotBits * level);
    }
    if (best < 0 || cand < best) best = cand;
  }
  return best;
}

void TimerWheel::ScheduleDriver() {
  const std::int64_t next = NextOccupiedTick();
  if (next == driver_tick_) return;
  if (driver_ != kInvalidEventId) {
    sim_.Cancel(driver_);
    driver_ = kInvalidEventId;
  }
  driver_tick_ = next;
  if (next < 0) return;  // idle
  // A coarse-level candidate is the slot-range *start*, which can lie in the
  // past when the cursor is stale; wake now and let the driver cascade its
  // way down to the real deadlines.
  SimTime at = SimTime::Picos(next << kTickShift);
  if (at < sim_.now()) at = sim_.now();
  driver_ = sim_.ScheduleAt(at, [this] { OnDriver(); });
}

void TimerWheel::OnDriver() {
  driver_ = kInvalidEventId;
  driver_tick_ = -1;
  firing_ = true;
  const std::int64_t now_tick = sim_.now().picos() >> kTickShift;
  while (true) {
    const std::int64_t next = NextOccupiedTick();
    if (next < 0 || next > now_tick) break;
    // Enter `next`'s range at every level (coarse first, so re-inserted
    // entries land below and are themselves cascaded/fired this pass).
    const std::int64_t prev = current_tick_;
    current_tick_ = next;
    for (int level = kLevels - 1; level >= 1; --level) {
      if ((next >> (kSlotBits * level)) != (prev >> (kSlotBits * level))) {
        Cascade(level, static_cast<int>((next >> (kSlotBits * level)) &
                                        (kSlots - 1)));
      }
    }
    FireCurrentSlot();
  }
  if (current_tick_ < now_tick) current_tick_ = now_tick;
  firing_ = false;
  ScheduleDriver();
}

void TimerWheel::Cascade(int level, int slot) {
  const std::uint64_t bit = std::uint64_t{1} << slot;
  if ((occupied_[level] & bit) == 0) return;
  occupied_[level] &= ~bit;
  Timer* t = slots_[level][slot].head;
  std::uint64_t moved = 0;
  while (t != nullptr) {
    Timer* next = t->next_;
    t->prev_ = t->next_ = nullptr;
    Insert(*t);  // re-place by remaining delta (list order preserved)
    ++moved;
    t = next;
  }
  ++cascades_;
  if (trace_ != nullptr) {
    trace_->Emit(sim_.now().picos(), TracePoint::kWheelCascade, 0,
                 static_cast<std::uint64_t>(level),
                 static_cast<std::uint64_t>(slot), moved, scope_);
  }
}

void TimerWheel::FireCurrentSlot() {
  const int slot = static_cast<int>(current_tick_ & (kSlots - 1));
  const std::uint64_t bit = std::uint64_t{1} << slot;
  Slot& s = slots_[0][slot];
  // Pop-and-fire one entry at a time: a callback may disarm or rearm any
  // other pending entry — including ones due this very tick — so the list
  // must stay intact (and disarmable) between callbacks. New arms for this
  // tick append at the tail (setting the bit again if the slot had
  // emptied) and are drained by the same loop.
  while ((occupied_[0] & bit) != 0) {
    Timer* t = s.head;
    assert(t->tick_ == current_tick_);
    Unlink(*t);
    t->wheel_ = nullptr;
    --armed_;
    ++fired_;
    t->fn_(t->ctx_);
  }
}

}  // namespace tdtcp
