// Hierarchical timer wheel: one per host, servicing every connection's
// RTO/TLP/persist/TimeWait timers with O(1) arm/disarm/rearm and zero
// steady-state allocation.
//
// Why not the event heap? A churning host re-arms its RTO on every ACK; with
// per-connection heap events that is four live heap slots per connection and
// a log(n) sift per rearm. The wheel replaces them with an intrusive
// doubly-linked entry embedded in the connection: arming is a list append
// into a pow2 slot, disarming is an unlink, and a single Simulator event (the
// "driver") services the whole wheel, so 10k connections cost one heap entry
// instead of 40k.
//
// Determinism contract (the jobs=1 == jobs=N and trace-replay invariants
// both lean on it):
//  - Deadlines are quantized UP to the wheel tick (2^20 ps ~ 1.05 us) at Arm
//    time, and Arm returns the quantized fire time, so traced deadlines are
//    exactly the times callbacks later run at.
//  - Timers sharing a tick fire in deterministic order; timers armed from
//    the same instant fire in FIFO arm order (cascades splice lists in
//    order, inserts append at the tail).
//  - Nothing here reads wall clocks or addresses: firing order is a pure
//    function of (arm time, deadline) sequences.
//
// Levels are 64 slots wide; level L's slots are 64^L ticks apart. An entry
// further out than level 0's horizon parks at the coarsest level that can
// hold it and *cascades* down (re-inserts by its remaining delta) when the
// wheel's cursor enters its slot's range — the classic hashed hierarchical
// wheel, except the cursor jumps straight to the next occupied tick (via
// per-level occupancy bitmaps) instead of ticking through empty slots.
//
// The bitmaps are the only record of which slots hold entries. A slot's
// head/tail are written when an entry lands in an empty slot and are read
// only while its bit is set; an emptied slot keeps stale pointers, and a slot
// never used holds uninitialised storage. So constructing a wheel writes
// none of its 6 KB slot table, and destroying one visits only the occupied
// slots: both cost O(occupied slots), not O(kLevels * kSlots).
#pragma once

#include <cassert>
#include <cstdint>

#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

class TimerWheel {
 public:
  static constexpr int kTickShift = 20;  // tick = 2^20 ps ~ 1.05 us
  static constexpr int kSlotBits = 6;
  static constexpr int kSlots = 1 << kSlotBits;  // 64 slots per level
  static constexpr int kLevels = 6;              // 64^6 ticks ~ 20 h horizon

  // Intrusive entry. Embed one per logical timer (a connection embeds four);
  // Init once with a trampoline + context, then Arm/Disarm freely. Must not
  // be moved while armed (the wheel holds its address).
  class Timer {
    friend class TimerWheel;

   public:
    Timer() = default;
    ~Timer() {
      if (wheel_ != nullptr) wheel_->Disarm(*this);
    }
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;

    void Init(void* ctx, void (*fn)(void*)) {
      ctx_ = ctx;
      fn_ = fn;
    }
    bool armed() const { return wheel_ != nullptr; }
    // Quantized fire time; meaningful only while armed.
    SimTime deadline() const {
      return SimTime::Picos(tick_ << TimerWheel::kTickShift);
    }

   private:
    Timer* prev_ = nullptr;
    Timer* next_ = nullptr;
    TimerWheel* wheel_ = nullptr;  // non-null while armed
    std::int64_t tick_ = 0;
    std::int8_t level_ = 0;
    std::int8_t slot_ = 0;
    void (*fn_)(void*) = nullptr;
    void* ctx_ = nullptr;
  };

  explicit TimerWheel(Simulator& sim) : sim_(sim) {}
  ~TimerWheel();
  TimerWheel(const TimerWheel&) = delete;
  TimerWheel& operator=(const TimerWheel&) = delete;

  // Arms (or rearms — the pending deadline is replaced) `t` to fire at `at`,
  // rounded up to the next wheel tick, never earlier than the next tick
  // boundary at or after now. Returns the quantized fire time. O(1).
  SimTime Arm(Timer& t, SimTime at);

  // O(1) and idempotent: disarming an unarmed timer is a no-op, so teardown
  // paths may disarm unconditionally (and repeatedly) without bookkeeping.
  // Most calls find the timer unarmed, so that check is inline.
  void Disarm(Timer& t) {
    if (t.wheel_ != nullptr) DisarmArmed(t);
  }

  std::size_t armed_count() const { return armed_; }
  std::uint64_t cascades() const { return cascades_; }
  std::uint64_t fired() const { return fired_; }

  // Cascade observability: emits kWheelCascade (flow 0, `scope` in a3 — the
  // owning host's NodeId) whenever a slot's entries re-insert downward.
  void SetTrace(TraceRing* ring, std::uint64_t scope) {
    trace_ = ring;
    scope_ = scope;
  }

 private:
  // Valid only while the slot's occupied_ bit is set (see the file comment).
  struct Slot {
    Timer* head;
    Timer* tail;
  };

  static std::int64_t CeilTick(std::int64_t picos) {
    return (picos + ((std::int64_t{1} << kTickShift) - 1)) >> kTickShift;
  }

  void DisarmArmed(Timer& t);
  void Insert(Timer& t);
  void Unlink(Timer& t);
  void Cascade(int level, int slot);
  // Earliest tick at which anything could be due (exact for level 0, the
  // slot-range start for coarser levels), or -1 when the wheel is idle.
  std::int64_t NextOccupiedTick() const;
  void ScheduleDriver();
  void OnDriver();
  void FireCurrentSlot();

  Simulator& sim_;
  Slot slots_[kLevels][kSlots];  // left uninitialised
  // Bit s set <=> slots_[L][s] is nonempty; a clear bit means the slot's
  // pointers must not be read.
  std::uint64_t occupied_[kLevels] = {};
  // Wheel cursor: every entry's tick is >= current_tick_, and level-0 slots
  // hold only ticks within (current_tick_, current_tick_ + kSlots).
  std::int64_t current_tick_ = 0;
  std::size_t armed_ = 0;
  bool firing_ = false;
  EventId driver_ = kInvalidEventId;
  std::int64_t driver_tick_ = -1;
  std::uint64_t cascades_ = 0;
  std::uint64_t fired_ = 0;
  TraceRing* trace_ = nullptr;
  std::uint64_t scope_ = 0;
};

}  // namespace tdtcp
