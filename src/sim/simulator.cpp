#include "sim/simulator.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include "net/packet.hpp"

namespace tdtcp {

// Chunked slab + freelist: pointers stay stable across growth, blocks are
// recycled for the simulation's lifetime, and steady state never allocates.
struct Simulator::PacketPool {
  static constexpr std::size_t kBlockPackets = 64;
  std::vector<std::unique_ptr<Packet[]>> blocks;
  std::vector<Packet*> free;
  std::size_t outstanding = 0;
};

Simulator::Simulator() : packet_pool_(std::make_unique<PacketPool>()) {}
Simulator::~Simulator() = default;

Packet* Simulator::StashPacket(Packet&& p) {
  PacketPool& pool = *packet_pool_;
  if (pool.free.empty()) {
    pool.blocks.push_back(std::make_unique<Packet[]>(PacketPool::kBlockPackets));
    Packet* base = pool.blocks.back().get();
    pool.free.reserve(pool.blocks.size() * PacketPool::kBlockPackets);
    for (std::size_t i = PacketPool::kBlockPackets; i-- > 0;) {
      pool.free.push_back(base + i);
    }
  }
  Packet* slot = pool.free.back();
  pool.free.pop_back();
  ++pool.outstanding;
  *slot = std::move(p);
  return slot;
}

void Simulator::ReleasePacket(Packet* p) {
  packet_pool_->free.push_back(p);
  --packet_pool_->outstanding;
}

std::size_t Simulator::stashed_packets() const {
  return packet_pool_->outstanding;
}

void Simulator::ThrowScheduledInPast(SimTime at) const {
  // A past-time event would silently reorder the event list in release
  // builds (the queue pops it "next" with a stale timestamp), corrupting
  // every downstream measurement. Fail loudly in every build type.
  throw std::logic_error("Simulator::ScheduleAt: event scheduled in the past (at=" +
                         std::to_string(at.picos()) + "ps, now=" +
                         std::to_string(now_.picos()) + "ps)");
}

void Simulator::Run() {
  stopped_ = false;
  if (batched_dispatch_) {
    // RunBatch advances the clock before the first callback and drains the
    // whole timestamp; Stop() is honored between events via the reference.
    while (!stopped_ && !queue_.Empty()) {
      events_executed_ += queue_.RunBatch(now_, stopped_, SimTime::Max());
    }
    return;
  }
  while (!stopped_ && !queue_.Empty()) {
    // RunNext advances the clock before running the callback so that
    // everything the callback does (including relative scheduling) sees the
    // event's time.
    queue_.RunNext(now_);
    ++events_executed_;
  }
}

void Simulator::RunUntil(SimTime until) {
  stopped_ = false;
  if (batched_dispatch_) {
    // A batch never crosses a timestamp and RunBatch refuses one later than
    // `until`, so this runs exactly the events the event-at-a-time loop
    // does; 0 means empty, past `until`, or stopped.
    while (!stopped_) {
      const std::size_t n = queue_.RunBatch(now_, stopped_, until);
      if (n == 0) break;
      events_executed_ += n;
    }
  } else {
    while (!stopped_ && !queue_.Empty() && queue_.NextTime() <= until) {
      queue_.RunNext(now_);
      ++events_executed_;
    }
  }
  if (!stopped_ && now_ < until) now_ = until;
}

}  // namespace tdtcp
