#include "tcp/send_queue.hpp"

#include <algorithm>

namespace tdtcp {

TxSegment* SendQueue::Find(std::uint64_t seq) {
  for (auto& seg : segs_) {
    if (seq >= seg.seq && seq < seg.end_seq()) return &seg;
  }
  return nullptr;
}

std::uint32_t SendQueue::CountSacked() const {
  return static_cast<std::uint32_t>(
      std::count_if(segs_.begin(), segs_.end(), [](auto& s) { return s.sacked; }));
}
std::uint32_t SendQueue::CountLost() const {
  return static_cast<std::uint32_t>(
      std::count_if(segs_.begin(), segs_.end(), [](auto& s) { return s.lost; }));
}
std::uint32_t SendQueue::CountRetrans() const {
  return static_cast<std::uint32_t>(
      std::count_if(segs_.begin(), segs_.end(), [](auto& s) { return s.retrans; }));
}

}  // namespace tdtcp
