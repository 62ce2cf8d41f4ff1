// Receiver-side reassembly and SACK/DSACK generation (RFC 2018 / 2883).
//
// TDTCP deliberately keeps the receiver almost unmodified (§3.3); this
// buffer is plain TCP. It tracks out-of-order segments, generates SACK
// blocks most-recent-first, emits a DSACK block when a duplicate arrives
// (which the sender's undo machinery uses to detect spurious
// retransmissions), and preserves MPTCP data-sequence mappings so the
// meta-level can reassemble.
#pragma once

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
    // In-order segments released to the application by this arrival: the
    // arrival itself, then the buffered segments it made contiguous. Views
    // the buffer's own out-of-order store (no copy): valid until the next
    // OnData or Reset call. Every other piece of buffer state is already
    // final, so a caller may hand these segments to code that feeds another
    // ReceiveBuffer (MPTCP's meta buffer) while it iterates.
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

  // Writes up to kMaxSackBlocks SACK blocks into `out` (an outgoing ACK's
  // block array) and returns how many: the optional DSACK first, then
  // out-of-order ranges ordered by how recently they grew, newest first
  // (ranges grown at the same instant in the order they are stored).
  std::size_t BuildSackBlocks(const Result& last,
                              std::span<SackBlock, kMaxSackBlocks> out) const;

 private:
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
  // Once data has arrived, ooo_[0] is the delivery slot, not a buffered
  // segment: an in-order arrival is written there, so it and the buffered
  // segments it released form one run, Result::delivered. Those
  // `released_` segments (from ooo_[1]) stay until the next call erases
  // them, just as the run's view stays valid until then.
  std::vector<Delivered> ooo_;
  std::size_t released_ = 0;
  // Coalesced OOO ranges in the order they last grew: TouchRange appends the
  // merged range, and delivery only erases and trims, so last_touch never
  // decreases along the vector.
  std::vector<Range> ranges_;
};

}  // namespace tdtcp
