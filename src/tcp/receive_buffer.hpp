// Receiver-side reassembly and SACK/DSACK generation (RFC 2018 / 2883).
//
// TDTCP deliberately keeps the receiver almost unmodified (§3.3); this
// buffer is plain TCP. It tracks out-of-order segments, generates SACK
// blocks most-recent-first, emits a DSACK block when a duplicate arrives
// (which the sender's undo machinery uses to detect spurious
// retransmissions), and preserves MPTCP data-sequence mappings so the
// meta-level can reassemble.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"
#include "sim/vector_fifo.hpp"

namespace tdtcp {

class ReceiveBuffer {
 public:
  struct Delivered {
    std::uint64_t seq = 0;
    std::uint32_t len = 0;
    bool has_dss = false;
    std::uint64_t dss_seq = 0;
  };

  struct Result {
    // In-order segments released to the application by this arrival. Views
    // the buffer's scratch storage: valid until the next OnData call.
    std::span<const Delivered> delivered;
    bool duplicate = false;   // arrival was (fully) already-received data
    SackBlock dsack;          // valid when duplicate
    bool out_of_order = false;
  };

  explicit ReceiveBuffer(std::uint64_t rcv_nxt = 1) : rcv_nxt_(rcv_nxt) {}

  // Starts over as ReceiveBuffer() (rcv_nxt 1, nothing buffered), keeping
  // each vector's buffer when it has room for at most `max_kept` elements.
  void Reset(std::size_t max_kept);

  Result OnData(std::uint64_t seq, std::uint32_t len, bool has_dss,
                std::uint64_t dss_seq, SimTime now);

  std::uint64_t rcv_nxt() const { return rcv_nxt_; }
  std::uint64_t ooo_bytes() const { return ooo_bytes_; }

  // Builds up to kMaxSackBlocks SACK blocks: the optional DSACK first, then
  // out-of-order ranges ordered by how recently they grew. The returned view
  // is valid until the next BuildSackBlocks call.
  std::span<const SackBlock> BuildSackBlocks(const Result& last);

 private:
  struct OooSegment {
    std::uint64_t seq;
    std::uint32_t len;
    bool has_dss;
    std::uint64_t dss_seq;
  };
  struct Range {
    std::uint64_t start;
    std::uint64_t end;
    SimTime last_touch;
  };

  void TouchRange(std::uint64_t start, std::uint64_t end, SimTime now);

  std::uint64_t rcv_nxt_;
  std::uint64_t ooo_bytes_ = 0;
  // Buffered out-of-order segments, sorted by seq with at most one per seq:
  // a flat store that keeps its capacity instead of a node per segment.
  std::vector<OooSegment> ooo_;
  std::vector<Range> ranges_;  // coalesced OOO ranges with recency
  // Scratch reused per call, so the per-segment receive path never
  // allocates once warm.
  std::vector<Delivered> delivered_scratch_;
  std::vector<Range> sorted_scratch_;
  std::array<SackBlock, kMaxSackBlocks> sack_scratch_{};
};

}  // namespace tdtcp
