#include "tcp/receive_buffer.hpp"

#include <algorithm>
#include <utility>

namespace tdtcp {

ReceiveBuffer::Result ReceiveBuffer::OnData(std::uint64_t seq, std::uint32_t len,
                                            bool has_dss, std::uint64_t dss_seq,
                                            SimTime now) {
  Result result;
  const std::uint64_t end = seq + len;
  if (ooo_.empty()) ooo_.emplace_back();  // the delivery slot
  ooo_.erase(ooo_.begin() + 1,
             ooo_.begin() + 1 + static_cast<std::ptrdiff_t>(released_));
  released_ = 0;

  // Fully old data: duplicate; report a DSACK block (RFC 2883).
  const auto at = std::ranges::lower_bound(ooo_.begin() + 1, ooo_.end(), seq,
                                           {}, &Delivered::seq);
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
    // In-order: deliver it plus any now-contiguous buffered segments. Every
    // buffered segment lies above rcv_nxt_, so with the arrival in the slot
    // in front of them the delivered run is the store's prefix.
    ooo_.front() = Delivered{seq, len, has_dss, dss_seq};
    rcv_nxt_ = seq + len;
    std::size_t n = 1;
    while (n < ooo_.size() && ooo_[n].seq == rcv_nxt_) {
      rcv_nxt_ += ooo_[n].len;
      ooo_bytes_ -= ooo_[n].len;
      ++n;
    }
    released_ = n - 1;
    // Drop ranges that are now fully delivered.
    std::erase_if(ranges_, [this](const Range& r) { return r.end <= rcv_nxt_; });
    for (auto& r : ranges_) r.start = std::max(r.start, rcv_nxt_);
    result.delivered = std::span<const Delivered>(ooo_.data(), n);
    return result;
  }

  // Out of order: buffer and record for SACK.
  result.out_of_order = true;
  ooo_.insert(at, Delivered{seq, len, has_dss, dss_seq});
  ooo_bytes_ += len;
  TouchRange(seq, seq + len, now);
  return result;
}

void ReceiveBuffer::Reset(std::size_t max_kept) {
  std::vector<Delivered> ooo = std::move(ooo_);
  std::vector<Range> ranges = std::move(ranges_);
  *this = ReceiveBuffer();
  ooo_ = std::move(ooo);
  ranges_ = std::move(ranges);
  ClearKeepingAtMost(ooo_, max_kept);
  ClearKeepingAtMost(ranges_, max_kept);
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

std::size_t ReceiveBuffer::BuildSackBlocks(
    const Result& last, std::span<SackBlock, kMaxSackBlocks> out) const {
  std::size_t n = 0;
  if (last.duplicate) out[n++] = last.dsack;

  // ranges_ is in last_touch order, so newest first is back to front. Ranges
  // that grew at the same instant form one run, emitted front to back.
  std::size_t run_end = ranges_.size();
  while (run_end > 0 && n < kMaxSackBlocks) {
    std::size_t run_begin = run_end - 1;
    while (run_begin > 0 &&
           ranges_[run_begin - 1].last_touch == ranges_[run_end - 1].last_touch) {
      --run_begin;
    }
    for (std::size_t i = run_begin; i < run_end && n < kMaxSackBlocks; ++i) {
      out[n++] = SackBlock{ranges_[i].start, ranges_[i].end};
    }
    run_end = run_begin;
  }
  return n;
}

}  // namespace tdtcp
