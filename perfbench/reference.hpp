// The reference kernel: a fixed piece of work that reads how fast the host
// runs code like the simulator's at the moment, so that timings can be put
// in the units of a calm host (see EndToEnd in main.cpp).
//
// It is a small discrete-event loop of its own, frozen with the benchmark: a
// binary heap of timestamped events over 4 MB of per-object state, each
// event dispatched through a switch that reads and writes one or two
// objects and schedules the next. Like the simulator it is bound by
// dependent loads, branches and the heap, over a working set of a few MB
// that lives in the last-level cache the host shares, so a busy sibling
// hyperthread or a cache-hungry neighbour slows both by a similar factor.
// On a 4-vCPU Xeon KVM guest, over runs of one seed whose quiet run time
// varied by 1.47x, this kernel's quiet chunk time varied by 1.44x; with
// 128 KB of state (which stays in the core's own caches) only by 1.23x.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class ReferenceKernel {
 public:
  ReferenceKernel();
  // Runs one chunk (the same work every time, about 0.5 ms on a calm host)
  // and records its wall time.
  void TimeChunk();
  const std::vector<double>& chunk_s() const { return chunk_s_; }

 private:
  struct Object {
    std::uint64_t a, b, c, d;
    std::uint32_t next, peer;
    std::uint32_t pad[6];  // one object per 64-byte line
  };
  std::vector<Object> objects_;
  std::vector<double> chunk_s_;
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
