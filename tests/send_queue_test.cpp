// Sender retransmission queue / SACK scoreboard.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <vector>

#include "tcp/send_queue.hpp"

namespace tdtcp {
namespace {

TxSegment Seg(std::uint64_t seq, std::uint32_t len, TdnId tdn = 0) {
  TxSegment s;
  s.seq = seq;
  s.len = len;
  s.tdn = tdn;
  return s;
}

TEST(SendQueue, AppendAndFront) {
  SendQueue q;
  EXPECT_TRUE(q.Empty());
  q.Append(Seg(1, 100));
  q.Append(Seg(101, 100));
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.front().seq, 1u);
}

TEST(SendQueue, AckThroughRemovesCovered) {
  SendQueue q;
  q.Append(Seg(1, 100));
  q.Append(Seg(101, 100));
  q.Append(Seg(201, 100));
  std::vector<std::uint64_t> acked;
  q.AckThrough(201, [&](const TxSegment& s) { acked.push_back(s.seq); });
  EXPECT_EQ(acked, (std::vector<std::uint64_t>{1, 101}));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front().seq, 201u);
}

TEST(SendQueue, AckThroughPartialCoverageKeepsSegment) {
  SendQueue q;
  q.Append(Seg(1, 100));
  int called = 0;
  q.AckThrough(50, [&](const TxSegment&) { ++called; });
  EXPECT_EQ(called, 0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(SendQueue, ApplySackMarksFullyCovered) {
  SendQueue q;
  q.Append(Seg(1, 100));
  q.Append(Seg(101, 100));
  q.Append(Seg(201, 100));
  SackBlock blocks[] = {{101, 201}};
  const auto newly = q.ApplySack(blocks, [](TxSegment&) {});
  EXPECT_EQ(newly, 1u);
  EXPECT_FALSE(q.segments()[0].sacked);
  EXPECT_TRUE(q.segments()[1].sacked);
  EXPECT_FALSE(q.segments()[2].sacked);
  EXPECT_EQ(q.highest_sacked(), 201u);
}

TEST(SendQueue, ApplySackIgnoresPartialCoverage) {
  SendQueue q;
  q.Append(Seg(1, 100));
  SackBlock blocks[] = {{1, 50}};
  EXPECT_EQ(q.ApplySack(blocks, [](TxSegment&) {}), 0u);
  EXPECT_FALSE(q.segments()[0].sacked);
}

TEST(SendQueue, ApplySackIdempotent) {
  SendQueue q;
  q.Append(Seg(1, 100));
  SackBlock blocks[] = {{1, 101}};
  EXPECT_EQ(q.ApplySack(blocks, [](TxSegment&) {}), 1u);
  EXPECT_EQ(q.ApplySack(blocks, [](TxSegment&) {}), 0u);  // already sacked
}

TEST(SendQueue, ApplySackMultipleBlocks) {
  SendQueue q;
  for (int i = 0; i < 6; ++i) q.Append(Seg(1 + i * 100, 100));
  SackBlock blocks[] = {{101, 201}, {301, 501}};
  EXPECT_EQ(q.ApplySack(blocks, [](TxSegment&) {}), 3u);
  EXPECT_EQ(q.highest_sacked(), 501u);
}

TEST(SendQueue, FindLocatesCoveringSegment) {
  SendQueue q;
  q.Append(Seg(1, 100));
  q.Append(Seg(101, 100));
  EXPECT_EQ(q.Find(150)->seq, 101u);
  EXPECT_EQ(q.Find(1)->seq, 1u);
  EXPECT_EQ(q.Find(100)->seq, 1u);   // last byte of first segment
  EXPECT_EQ(q.Find(201), nullptr);   // past the end
}

TEST(SendQueue, FlagCounters) {
  SendQueue q;
  q.Append(Seg(1, 100));
  q.Append(Seg(101, 100));
  q.Append(Seg(201, 100));
  q.segments()[0].lost = true;
  q.segments()[1].sacked = true;
  q.segments()[2].retrans = true;
  EXPECT_EQ(q.CountLost(), 1u);
  EXPECT_EQ(q.CountSacked(), 1u);
  EXPECT_EQ(q.CountRetrans(), 1u);
}

TEST(SendQueue, PerSegmentTdnTagsPreserved) {
  SendQueue q;
  q.Append(Seg(1, 100, 0));
  q.Append(Seg(101, 100, 1));
  std::vector<TdnId> tdns;
  q.AckThrough(201, [&](const TxSegment& s) { tdns.push_back(s.tdn); });
  EXPECT_EQ(tdns, (std::vector<TdnId>{0, 1}));
}

// Differential check of the contiguous scoreboard against the std::deque it
// replaced: random interleavings of Append, AckThrough and ApplySack, with a
// window that keeps sliding so the FIFO's dead prefix is reclaimed many
// times. Visit order, every segment's flags and highest_sacked must match
// the reference model after every operation.
TEST(SendQueue, MatchesDequeModelAcrossCompactions) {
  struct Model {
    std::deque<TxSegment> segs;
    std::uint64_t highest_sacked = 0;
  };
  std::mt19937_64 rng(20240611);
  auto uniform = [&rng](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  SendQueue q;
  Model m;
  std::uint64_t next_seq = 1;
  std::uint64_t una = 1;
  std::size_t relocations = 0;  // front moved by an Append, not by a pop
  for (int op = 0; op < 40000; ++op) {
    const std::uint64_t kind = uniform(0, 9);
    if (kind < 5 || m.segs.empty()) {
      const TxSegment* front_before = q.Empty() ? nullptr : &q.front();
      TxSegment seg = Seg(next_seq, static_cast<std::uint32_t>(uniform(1, 3) * 100),
                          static_cast<TdnId>(uniform(0, 2)));
      seg.ever_retrans = uniform(0, 3) == 0;
      seg.has_dss = uniform(0, 1) == 1;
      seg.dss_seq = next_seq * 7;
      next_seq = seg.end_seq();
      q.Append(seg);
      m.segs.push_back(seg);
      if (front_before != nullptr && &q.front() != front_before) ++relocations;
    } else if (kind < 7) {
      // Cumulative ACK somewhere inside the outstanding window.
      const std::uint64_t ack = uniform(una, next_seq);
      std::vector<std::uint64_t> got;
      std::vector<std::uint64_t> want;
      q.AckThrough(ack, [&got](const TxSegment& s) { got.push_back(s.seq); });
      while (!m.segs.empty() && m.segs.front().end_seq() <= ack) {
        want.push_back(m.segs.front().seq);
        m.segs.pop_front();
      }
      ASSERT_EQ(got, want) << "op " << op;
      una = std::max(una, ack);
    } else {
      // Up to kMaxSackBlocks random blocks over the window, some of them
      // cutting segments in half (partial coverage must not mark).
      std::vector<SackBlock> blocks(uniform(1, kMaxSackBlocks));
      for (SackBlock& b : blocks) {
        b.start = uniform(una, next_seq);
        b.end = uniform(b.start, std::min(next_seq, b.start + 1000));
      }
      std::vector<std::uint64_t> got;
      std::vector<std::uint64_t> want;
      const std::uint32_t newly = q.ApplySack(
          blocks, [&got](TxSegment& s) { got.push_back(s.seq); });
      for (TxSegment& seg : m.segs) {
        if (seg.sacked) continue;
        for (const SackBlock& b : blocks) {
          if (seg.seq >= b.start && seg.end_seq() <= b.end) {
            seg.sacked = true;
            m.highest_sacked = std::max(m.highest_sacked, seg.end_seq());
            want.push_back(seg.seq);
            break;
          }
        }
      }
      ASSERT_EQ(got, want) << "op " << op;
      ASSERT_EQ(newly, want.size()) << "op " << op;
    }
    // Occasionally mark a loss through the mutable view, as DetectLosses
    // does, on both sides.
    if (!m.segs.empty() && uniform(0, 7) == 0) {
      const std::size_t i = uniform(0, m.segs.size() - 1);
      if (!m.segs[i].sacked) {
        m.segs[i].lost = true;
        q.segments()[i].lost = true;
      }
    }
    ASSERT_EQ(q.size(), m.segs.size()) << "op " << op;
    ASSERT_EQ(q.highest_sacked(), m.highest_sacked) << "op " << op;
    ASSERT_EQ(q.sacked(), q.CountSacked()) << "op " << op;
    std::size_t i = 0;
    for (const TxSegment& seg : q.segments()) {
      const TxSegment& ref = m.segs[i++];
      ASSERT_EQ(seg.seq, ref.seq) << "op " << op;
      ASSERT_EQ(seg.len, ref.len) << "op " << op;
      ASSERT_EQ(seg.tdn, ref.tdn) << "op " << op;
      ASSERT_EQ(seg.sacked, ref.sacked) << "op " << op;
      ASSERT_EQ(seg.lost, ref.lost) << "op " << op;
      ASSERT_EQ(seg.ever_retrans, ref.ever_retrans) << "op " << op;
      ASSERT_EQ(seg.has_dss, ref.has_dss) << "op " << op;
      ASSERT_EQ(seg.dss_seq, ref.dss_seq) << "op " << op;
    }
  }
  // Growth reallocates only O(log window) times; the rest are compactions.
  EXPECT_GT(relocations, 100u);
}

TEST(SendQueue, ClearEmptiesAndAppendStartsOver) {
  SendQueue q;
  for (int i = 0; i < 5; ++i) q.Append(Seg(1 + i * 100, 100));
  SackBlock blocks[] = {{101, 301}};
  EXPECT_EQ(q.ApplySack(blocks, [](TxSegment&) {}), 2u);
  EXPECT_EQ(q.sacked(), 2u);
  q.Clear();
  EXPECT_EQ(q.sacked(), 0u);
  EXPECT_TRUE(q.Empty());
  EXPECT_TRUE(q.segments().empty());
  q.Append(Seg(501, 100));
  EXPECT_EQ(q.front().seq, 501u);
}

}  // namespace
}  // namespace tdtcp
