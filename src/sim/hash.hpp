// Order-sensitive FNV-1a 64 accumulator, for compact determinism
// fingerprints: fault traces (FaultInjector::TraceHash), churn lifecycles
// (ChurnGenerator::hash) and packet-tap hashes in tests digest event
// streams to one comparable value.
#pragma once

#include <cstdint>

namespace tdtcp {

class Fnv1a64 {
 public:
  // Mixes the 8 bytes of `v` (little-endian) into the running hash.
  void Mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;  // FNV offset basis
};

// The low 53 bits of `h`: a double holds them exactly, so the fingerprint
// survives a JSON round trip. 53 bits is ample for an equality check.
inline constexpr std::uint64_t Fingerprint53(std::uint64_t h) {
  return h & ((1ull << 53) - 1);
}

}  // namespace tdtcp
