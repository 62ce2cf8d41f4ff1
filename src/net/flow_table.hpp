// A flat open-addressed FlowId -> PacketSink* table: a host's socket demux.
//
// Linear probing over a power-of-two array of {flow, sink} slots, at most
// half full, with backward-shift deletion (no tombstones, so a lookup after
// any amount of churn still stops at the first empty slot). FlowIds are
// assigned by the simulator, often consecutively, so the home slot takes
// the top bits of a Fibonacci (multiplicative) hash rather than the low
// bits of the id. The table allocates nothing until the first insert and
// never iterates, so its slot order cannot leak into event order.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "net/node.hpp"
#include "net/packet.hpp"

namespace tdtcp {

class FlowTable {
 public:
  // The sink registered for `flow`, or nullptr.
  PacketSink* Find(FlowId flow) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = Home(flow, shift_);; i = Next(i)) {
      const Slot& s = slots_[i];
      if (s.sink == nullptr) return nullptr;
      if (s.flow == flow) return s.sink;
    }
  }

  // Inserts or overwrites. Throws std::invalid_argument on a null sink
  // (null marks an empty slot).
  void Insert(FlowId flow, PacketSink* sink) {
    if (sink == nullptr) {
      throw std::invalid_argument("FlowTable: null endpoint");
    }
    if ((size_ + 1) * 2 > slots_.size()) Grow();
    for (std::size_t i = Home(flow, shift_);; i = Next(i)) {
      Slot& s = slots_[i];
      if (s.sink == nullptr) {
        s = Slot{flow, sink};
        ++size_;
        return;
      }
      if (s.flow == flow) {
        s.sink = sink;
        return;
      }
    }
  }

  // Removes `flow` if it is present and, when `owner` is non-null, mapped
  // to `owner`. Returns whether an entry was removed.
  bool Erase(FlowId flow, const PacketSink* owner = nullptr) {
    if (slots_.empty()) return false;
    std::size_t hole = Home(flow, shift_);
    for (;; hole = Next(hole)) {
      const Slot& s = slots_[hole];
      if (s.sink == nullptr) return false;
      if (s.flow == flow) break;
    }
    if (owner != nullptr && slots_[hole].sink != owner) return false;
    // Backward shift: pull each later member of the probe run into the hole
    // unless that would move it before its home slot.
    for (std::size_t j = Next(hole);; j = Next(j)) {
      Slot& s = slots_[j];
      if (s.sink == nullptr) break;
      const std::size_t home = Home(s.flow, shift_);
      if (((j - home) & Mask()) >= ((j - hole) & Mask())) {
        slots_[hole] = s;
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }

  // Home slot of `flow` in a table of 2^(64 - shift) slots, shift < 64
  // (exposed so tests can construct colliding ids).
  static std::size_t Home(FlowId flow, unsigned shift) {
    return static_cast<std::size_t>(
        (static_cast<std::uint64_t>(flow) * 0x9E3779B97F4A7C15ull) >> shift);
  }

 private:
  struct Slot {
    FlowId flow = 0;
    PacketSink* sink = nullptr;  // null = empty
  };

  std::size_t Mask() const { return slots_.size() - 1; }
  std::size_t Next(std::size_t i) const { return (i + 1) & Mask(); }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t capacity = old.empty() ? 16 : old.size() * 2;
    slots_.assign(capacity, Slot{});
    shift_ = 64u - static_cast<unsigned>(std::countr_zero(capacity));
    for (const Slot& s : old) {
      if (s.sink == nullptr) continue;
      std::size_t i = Home(s.flow, shift_);
      while (slots_[i].sink != nullptr) i = Next(i);
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
  unsigned shift_ = 64;
};

}  // namespace tdtcp
