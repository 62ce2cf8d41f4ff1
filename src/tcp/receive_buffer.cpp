#include "tcp/receive_buffer.hpp"

#include <algorithm>
#include <utility>

namespace tdtcp {

ReceiveBuffer::Result ReceiveBuffer::OnData(std::uint64_t seq, std::uint32_t len,
                                            bool has_dss, std::uint64_t dss_seq,
                                            SimTime now) {
  Result result;
  const std::uint64_t end = seq + len;

  // Fully old data: duplicate; report a DSACK block (RFC 2883).
  const auto at = std::ranges::lower_bound(ooo_, seq, {}, &OooSegment::seq);
  if (end <= rcv_nxt_ || (at != ooo_.end() && at->seq == seq)) {
    result.duplicate = true;
    result.dsack = SackBlock{seq, end};
    return result;
  }
  if (seq < rcv_nxt_) {
    // Partial overlap with delivered data; trim the stale prefix.
    const std::uint64_t trim = rcv_nxt_ - seq;
    seq = rcv_nxt_;
    len -= static_cast<std::uint32_t>(trim);
    if (has_dss) dss_seq += trim;
  }

  if (seq == rcv_nxt_) {
    // In-order: deliver it plus any now-contiguous buffered segments.
    delivered_scratch_.clear();
    delivered_scratch_.push_back(Delivered{seq, len, has_dss, dss_seq});
    rcv_nxt_ = seq + len;
    auto it = ooo_.begin();
    while (it != ooo_.end() && it->seq == rcv_nxt_) {
      delivered_scratch_.push_back(
          Delivered{it->seq, it->len, it->has_dss, it->dss_seq});
      rcv_nxt_ += it->len;
      ooo_bytes_ -= it->len;
      ++it;
    }
    ooo_.erase(ooo_.begin(), it);
    // Drop ranges that are now fully delivered.
    std::erase_if(ranges_, [this](const Range& r) { return r.end <= rcv_nxt_; });
    for (auto& r : ranges_) r.start = std::max(r.start, rcv_nxt_);
    result.delivered = delivered_scratch_;
    return result;
  }

  // Out of order: buffer and record for SACK.
  result.out_of_order = true;
  ooo_.insert(at, OooSegment{seq, len, has_dss, dss_seq});
  ooo_bytes_ += len;
  TouchRange(seq, seq + len, now);
  return result;
}

void ReceiveBuffer::Reset(std::size_t max_kept) {
  std::vector<OooSegment> ooo = std::move(ooo_);
  std::vector<Range> ranges = std::move(ranges_);
  std::vector<Delivered> delivered = std::move(delivered_scratch_);
  std::vector<Range> sorted = std::move(sorted_scratch_);
  *this = ReceiveBuffer();
  ooo_ = std::move(ooo);
  ranges_ = std::move(ranges);
  delivered_scratch_ = std::move(delivered);
  sorted_scratch_ = std::move(sorted);
  ClearKeepingAtMost(ooo_, max_kept);
  ClearKeepingAtMost(ranges_, max_kept);
  ClearKeepingAtMost(delivered_scratch_, max_kept);
  ClearKeepingAtMost(sorted_scratch_, max_kept);
}

void ReceiveBuffer::TouchRange(std::uint64_t start, std::uint64_t end, SimTime now) {
  // Merge with any adjacent/overlapping ranges; the merged range is "most
  // recent" per RFC 2018's guidance to report the newest block first.
  Range merged{start, end, now};
  std::erase_if(ranges_, [&merged](const Range& r) {
    if (r.end < merged.start || r.start > merged.end) return false;
    merged.start = std::min(merged.start, r.start);
    merged.end = std::max(merged.end, r.end);
    return true;
  });
  ranges_.push_back(merged);
}

std::span<const SackBlock> ReceiveBuffer::BuildSackBlocks(const Result& last) {
  std::size_t n = 0;
  if (last.duplicate) sack_scratch_[n++] = last.dsack;

  sorted_scratch_.assign(ranges_.begin(), ranges_.end());
  std::sort(sorted_scratch_.begin(), sorted_scratch_.end(),
            [](const Range& a, const Range& b) { return a.last_touch > b.last_touch; });
  for (const auto& r : sorted_scratch_) {
    if (n >= kMaxSackBlocks) break;
    sack_scratch_[n++] = SackBlock{r.start, r.end};
  }
  return {sack_scratch_.data(), n};
}

}  // namespace tdtcp
