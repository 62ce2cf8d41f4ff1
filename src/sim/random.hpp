// Seeded, counter-based pseudo-random streams for workloads, latency models
// and faults.
//
// A Random is a key and a counter: 16 bytes, no state table. Draw n of a
// stream is the SplitMix64 finalizer applied to key + n * gamma (the
// SplitMix64 sequence started at `key`), so making a stream costs one hash
// and a draw costs one finalizer; there is no seeding loop and no refill.
// Every experiment takes an explicit seed and replays bit-for-bit.
//
// Streams belong to components. Fork(id) derives a child stream by hashing
// (this stream's key, id) and does not advance this stream, so a child's
// draws follow only its own calls: a change in how one component's events
// interleave with another's moves no draw of the other. Ids come from
// StreamId(kind, index) so two kinds of component never share one, and a
// key is never the parent key plus an id, so no two streams are shifted
// copies of each other. DESIGN.md §14 lists the streams.
//
// The distributions are written out here rather than taken from <random>,
// whose algorithms are implementation-defined: a seed gives the same run
// under every standard library.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>

#include "sim/time.hpp"

namespace tdtcp {

// The SplitMix64 output finalizer: a bijection on 64-bit values.
inline constexpr std::uint64_t SplitMix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// The kinds of component that own a stream (DESIGN.md §14).
enum class StreamKind : std::uint32_t {
  kToR = 1,      // Topology: notification generation delay; index = rack
  kFabricPort,   // a ToR's port jitter; index = remote rack
  kRackUplink,   // Topology: rack NIC jitter; index = rack
  kRackDownlink,
  kLinkFault,    // FaultInjector: one data-link filter; index = subject
  kNotifyFault,  // FaultInjector: one ToR's notification hook; index = rack
  kChurnSource,  // ChurnGenerator: one arrival process; index = source
};

inline constexpr std::uint64_t StreamId(StreamKind kind, std::uint32_t index) {
  return std::uint64_t{static_cast<std::uint32_t>(kind)} << 32 | index;
}

class Random {
 public:
  explicit Random(std::uint64_t seed = 1) : key_(SplitMix64(seed + kGamma)) {}

  // The stream of component `id` under this one, by hash; this stream does
  // not advance. Distinct ids give distinct keys (every step is a
  // bijection in `id`), hence distinct first draws.
  Random Fork(std::uint64_t id) const {
    Random child;
    child.key_ = SplitMix64(key_ ^ SplitMix64(id + 2 * kGamma));
    return child;
  }

  // Uniform in [lo, hi] inclusive (Lemire's multiply-shift with rejection,
  // so every value is equally likely).
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    const std::uint64_t off = span == 0 ? Next() : Below(span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + off);
  }

  double UniformDouble(double lo, double hi) {
    return lo + (hi - lo) * Canonical();
  }

  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return Canonical() < p;
  }

  double Exponential(double mean) { return -mean * std::log1p(-Canonical()); }

  // Lognormal with given median and sigma of the underlying normal; used by
  // the notification-latency model (heavy upper tail, like packet
  // construction cost in a software switch). The normal is one Box-Muller
  // draw: two uniforms per call.
  SimTime LognormalTime(SimTime median, double sigma) {
    const double radius = std::sqrt(-2.0 * std::log(1.0 - Canonical()));
    const double normal =
        radius * std::cos(2.0 * std::numbers::pi * Canonical());
    return SimTime::Picos(static_cast<std::int64_t>(
        static_cast<double>(median.picos()) * std::exp(sigma * normal)));
  }

  SimTime UniformTime(SimTime lo, SimTime hi) {
    return SimTime::Picos(UniformInt(lo.picos(), hi.picos()));
  }

 private:
  static constexpr std::uint64_t kGamma = 0x9e3779b97f4a7c15ull;

  std::uint64_t Next() { return SplitMix64(key_ + ++counter_ * kGamma); }

  // Uniform in [0, 1) with 53 random bits.
  double Canonical() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform in [0, n), n > 0.
  std::uint64_t Below(std::uint64_t n) {
    __extension__ using U128 = unsigned __int128;
    U128 m = static_cast<U128>(Next()) * n;
    if (static_cast<std::uint64_t>(m) < n) {
      const std::uint64_t threshold = (0 - n) % n;
      while (static_cast<std::uint64_t>(m) < threshold) {
        m = static_cast<U128>(Next()) * n;
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  std::uint64_t key_;
  std::uint64_t counter_ = 0;
};

static_assert(sizeof(Random) == 16, "a stream is a key and a counter");

}  // namespace tdtcp
