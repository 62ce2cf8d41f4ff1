// The simulation driver: a clock plus the future-event list.
//
// All model components hold a Simulator& and schedule callbacks through it;
// nothing in the simulator blocks or uses wall-clock time. The event core is
// allocation-free in steady state (see event_queue.hpp); the Simulator adds
// a recycled per-simulation Packet freelist: queues hold packets as handles
// into it, so the packet path copies a Packet once per hop (at admission)
// and never touches the heap per hop.
#pragma once

#include <cstdint>
#include <memory>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"

namespace tdtcp {

struct Packet;

class Simulator {
 public:
  Simulator();
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime now() const { return now_; }

  // Schedules `fn` to run `delay` after the current time. The delay may be
  // zero: such an event runs after the current event completes, behind every
  // event already pending for this instant.
  template <typename F>
  EventId Schedule(SimTime delay, F&& fn) {
    return ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  // Schedules `fn` at absolute time `at`. Scheduling in the past throws
  // std::logic_error in every build type (not just debug builds): a stale
  // event would corrupt the event order silently otherwise.
  template <typename F>
  EventId ScheduleAt(SimTime at, F&& fn) {
    if (at < now_) ThrowScheduledInPast(at);
    return queue_.Schedule(at, std::forward<F>(fn));
  }

  // Schedules `fn` `delay` from now through a caller-owned monotone stream
  // (see EventQueue::Stream): for producers whose successive events never
  // go back in time, e.g. a link's propagation pipeline. Like ScheduleAt it
  // throws on a past time.
  template <typename F>
  EventId ScheduleInStream(EventQueue::Stream& stream, SimTime delay, F&& fn) {
    const SimTime at = now_ + delay;
    if (at < now_) ThrowScheduledInPast(at);
    return queue_.ScheduleInStream(stream, at, std::forward<F>(fn));
  }

  // Fire-once scheduling for "schedule and forget" call sites: never assigns
  // the caller an EventId, so the event cannot be cancelled and no liveness
  // handle escapes. (With sequence-tagged slots the bookkeeping itself is
  // already O(1) and hash-free; this overload exists so the dominant call
  // sites state their intent and never pay for or misuse a dead id.)
  template <typename F>
  void ScheduleNoCancel(SimTime delay, F&& fn) {
    (void)Schedule(delay, std::forward<F>(fn));
  }
  template <typename F>
  void ScheduleAtNoCancel(SimTime at, F&& fn) {
    (void)ScheduleAt(at, std::forward<F>(fn));
  }

  void Cancel(EventId id) { queue_.Cancel(id); }

  // Runs until the event list drains or Stop() is called.
  void Run();

  // Runs events with time <= `until`, then advances the clock to `until`.
  void RunUntil(SimTime until);

  void RunFor(SimTime duration) { RunUntil(now_ + duration); }

  // Stops Run()/RunUntil() after the current event returns.
  void Stop() { stopped_ = true; }

  // Batched dispatch (default on): the run loops drain all events sharing a
  // timestamp through EventQueue::RunBatch — one heap interaction per
  // distinct time instead of per event. The dispatch order is bit-identical
  // to event-at-a-time execution (the batch is the same merged seq-ordered
  // stream RunNext would produce); the switch exists so the
  // batched-vs-sequential soak can prove that, not because behaviour
  // differs.
  void set_batched_dispatch(bool on) { batched_dispatch_ = on; }
  bool batched_dispatch() const { return batched_dispatch_; }

  std::uint64_t events_executed() const { return events_executed_; }
  std::size_t pending_events() const { return queue_.size(); }
  // Heap entries (pending chains), for tests that pin stream usage.
  std::size_t heap_storage_for_test() const {
    return queue_.heap_storage_for_test();
  }

  // Event-core internals counters, surfaced as sim_* sweep metrics.
  struct Stats {
    std::uint64_t events_executed = 0;
    std::uint64_t batches = 0;       // RunBatch calls that dispatched
    std::uint64_t max_batch = 0;     // largest same-timestamp batch
    std::uint64_t cohort_hits = 0;   // O(1) same-time appends (no sift)
    std::uint64_t dead_dropped = 0;  // cancelled entries reclaimed lazily
    std::uint64_t compactions = 0;   // whole-heap compaction passes
  };
  Stats GetStats() const {
    const EventQueue::Counters& c = queue_.counters();
    return Stats{events_executed_, c.batches,      c.max_batch,
                 c.cohort_hits,    c.dead_dropped, c.compactions};
  }

  // Per-simulation packet id source (for tracing; never affects protocol
  // behaviour). Owned by the Simulator so concurrent simulations on
  // different threads never share mutable state and ids replay
  // deterministically for a given (config, seed).
  std::uint64_t NextPacketId() { return next_packet_id_++; }

  // --- packet freelist --------------------------------------------------------
  // Parks a packet in recycled per-simulation storage and returns a stable
  // pointer (a handle): queue stages hold and hand on packets as handles, and
  // in-flight packets ride event captures as one pointer instead of a
  // by-value Packet copy. Every StashPacket is paired with at most one
  // ReleasePacket, after the packet has been moved out (or dropped); handles
  // still held when the Simulator dies are freed with it.
  Packet* StashPacket(Packet&& p);
  void ReleasePacket(Packet* p);
  std::size_t stashed_packets() const;  // currently outstanding (for tests)

 private:
  struct PacketPool;

  [[noreturn]] void ThrowScheduledInPast(SimTime at) const;

  EventQueue queue_;
  SimTime now_ = SimTime::Zero();
  bool stopped_ = false;
  bool batched_dispatch_ = true;
  std::uint64_t events_executed_ = 0;
  std::uint64_t next_packet_id_ = 1;
  std::unique_ptr<PacketPool> packet_pool_;
};

}  // namespace tdtcp
