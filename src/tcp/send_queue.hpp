// The sender's retransmission queue and SACK scoreboard.
//
// Each entry is one transmitted segment, tagged with the TDN it was (last)
// sent on — the per-segment tagging §3.1 adds so ACK processing can credit
// the right TDN ("specific TDN" class, §4.3) and the relaxed reordering
// heuristic (§3.4) can tell delayed cross-TDN traffic from true loss.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <span>
#include <utility>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "sim/vector_fifo.hpp"

namespace tdtcp {

// Field order and the flag bit-fields keep the struct at 48 bytes: the
// scoreboard walks (SACK marking, loss detection, the invariant recount)
// touch every segment on every ACK, so its size is their cache footprint.
struct TxSegment {
  std::uint64_t seq = 0;
  std::uint32_t len = 0;           // payload bytes (SYN: 1 virtual byte)
  std::uint32_t transmissions = 1;
  SimTime first_sent;
  SimTime last_sent;
  // MPTCP data-sequence mapping of the first payload byte (valid if has_dss).
  std::uint64_t dss_seq = 0;
  TdnId tdn = 0;                   // TDN of the most recent transmission
  // TDN whose recovery episode retransmitted this segment (DSACK undo
  // credits that TDN's undo_retrans).
  TdnId undo_tdn = 0;
  bool syn : 1 = false;
  bool fin : 1 = false;  // sequence-occupying FIN (1 virtual byte, like the SYN)
  bool sacked : 1 = false;
  bool lost : 1 = false;
  bool retrans : 1 = false;       // a retransmission is currently in flight
  bool ever_retrans : 1 = false;  // Karn: never RTT-sample this segment
  // The host RecoveryAgent forced this segment's (re)transmission; cleared
  // when the forcing is resolved (cumulative ACK = rescued, DSACK =
  // spurious) so each forcing is counted exactly once.
  bool forced_rtx : 1 = false;
  bool has_dss : 1 = false;

  std::uint64_t end_seq() const { return seq + len; }
};
static_assert(sizeof(TxSegment) <= 48,
              "TxSegment grew past 48 bytes: every scoreboard walk pays for it");

// The segments live in one contiguous FIFO (VectorFifo): Append may move
// the whole scoreboard, so it invalidates every TxSegment& and every span
// from segments(); AckThrough and Clear invalidate only the segments they
// remove, and ApplySack invalidates nothing.
class SendQueue {
 public:
  // Appends a newly transmitted segment (in sequence order).
  void Append(const TxSegment& seg) {
    assert(segs_.empty() || seg.seq >= segs_.back().end_seq());
    segs_.push_back(seg);
  }

  bool Empty() const { return segs_.empty(); }
  std::size_t size() const { return segs_.size(); }
  const TxSegment& front() const { return segs_.front(); }
  TxSegment& front() { return segs_.front(); }

  // Removes segments fully covered by cumulative `ack` and invokes
  // `fn(const TxSegment&)` on each before removal (per-TDN accounting, RTT
  // sampling).
  template <typename Fn>
  void AckThrough(std::uint64_t ack, Fn&& fn) {
    while (!segs_.empty() && segs_.front().end_seq() <= ack) {
      fn(static_cast<const TxSegment&>(segs_.front()));
      if (segs_.front().sacked) --sacked_;
      segs_.pop_front();
    }
  }

  // Marks segments fully covered by the SACK blocks; invokes
  // `fn(TxSegment&)` for each segment that transitions to sacked, in
  // sequence order. Returns the count newly sacked.
  template <typename Fn>
  std::uint32_t ApplySack(std::span<const SackBlock> blocks, Fn&& fn) {
    // Blocks by ascending start: a segment a later block newly covers lies
    // past every segment an earlier one did (it would be covered by the
    // earlier block otherwise), so the visits come in sequence order.
    std::array<SackBlock, kMaxSackBlocks> sorted;
    assert(blocks.size() <= sorted.size());
    const std::size_t n = std::min(blocks.size(), sorted.size());
    for (std::size_t i = 0; i < n; ++i) {  // insertion sort of <= 4 blocks
      std::size_t j = i;
      for (; j > 0 && sorted[j - 1].start > blocks[i].start; --j) {
        sorted[j] = sorted[j - 1];
      }
      sorted[j] = blocks[i];
    }
    std::uint32_t newly = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const SackBlock& b = sorted[i];
      // The segments wholly inside the block: sequence order makes both
      // their starts and their ends ascend.
      TxSegment* seg = std::lower_bound(
          segs_.begin(), segs_.end(), b.start,
          [](const TxSegment& s, std::uint64_t v) { return s.seq < v; });
      for (; seg != segs_.end() && seg->end_seq() <= b.end; ++seg) {
        if (seg->sacked) continue;
        seg->sacked = true;
        highest_sacked_ = std::max(highest_sacked_, seg->end_seq());
        fn(*seg);
        ++newly;
      }
    }
    sacked_ += newly;
    return newly;
  }

  // Highest sequence that has ever been SACKed (0 if none).
  std::uint64_t highest_sacked() const { return highest_sacked_; }
  // Segments in the queue marked SACKed (CountSacked() without the walk).
  std::uint32_t sacked() const { return sacked_; }

  // Every segment, oldest first (loss marking, retransmit scans).
  std::span<TxSegment> segments() { return {segs_.begin(), segs_.end()}; }
  std::span<const TxSegment> segments() const {
    return {segs_.begin(), segs_.end()};
  }

  // Drops every segment (the caller retires their per-TDN accounting).
  void Clear() {
    segs_.clear();
    sacked_ = 0;
  }

  // Starts over as a fresh, empty queue that keeps its buffer when it has
  // room for at most `max_kept` segments.
  void Reset(std::size_t max_kept) {
    VectorFifo<TxSegment> segs = std::move(segs_);
    *this = SendQueue();
    segs_ = std::move(segs);
    segs_.Reset(max_kept);
  }

  // The first segment covering `seq`, or nullptr.
  TxSegment* Find(std::uint64_t seq);

  // Sum of per-flag counts (consistency checking in tests).
  std::uint32_t CountSacked() const;
  std::uint32_t CountLost() const;
  std::uint32_t CountRetrans() const;

 private:
  VectorFifo<TxSegment> segs_;
  std::uint64_t highest_sacked_ = 0;
  std::uint32_t sacked_ = 0;  // only ApplySack sets the flag
};

}  // namespace tdtcp
