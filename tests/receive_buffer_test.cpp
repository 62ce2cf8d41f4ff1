// Receiver reassembly, SACK generation (RFC 2018), DSACK (RFC 2883).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "tcp/receive_buffer.hpp"

namespace tdtcp {
namespace {

SimTime T(int us) { return SimTime::Micros(us); }

// The blocks an ACK answering `last` would carry.
std::vector<SackBlock> Blocks(const ReceiveBuffer& rb,
                              const ReceiveBuffer::Result& last) {
  std::array<SackBlock, kMaxSackBlocks> out{};
  const std::size_t n = rb.BuildSackBlocks(last, out);
  return std::vector<SackBlock>(out.begin(), out.begin() + n);
}

TEST(ReceiveBuffer, InOrderDelivery) {
  ReceiveBuffer rb;
  auto r = rb.OnData(1, 100, false, 0, T(0));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].seq, 1u);
  EXPECT_EQ(rb.rcv_nxt(), 101u);
  EXPECT_FALSE(r.out_of_order);
  EXPECT_FALSE(r.duplicate);
}

TEST(ReceiveBuffer, OutOfOrderBuffersAndReleases) {
  ReceiveBuffer rb;
  auto r1 = rb.OnData(101, 100, false, 0, T(0));
  EXPECT_TRUE(r1.out_of_order);
  EXPECT_TRUE(r1.delivered.empty());
  EXPECT_EQ(rb.rcv_nxt(), 1u);
  EXPECT_EQ(rb.ooo_bytes(), 100u);

  auto r2 = rb.OnData(1, 100, false, 0, T(1));
  ASSERT_EQ(r2.delivered.size(), 2u);
  EXPECT_EQ(r2.delivered[0].seq, 1u);
  EXPECT_EQ(r2.delivered[1].seq, 101u);
  EXPECT_EQ(rb.rcv_nxt(), 201u);
  EXPECT_EQ(rb.ooo_bytes(), 0u);
}

TEST(ReceiveBuffer, DuplicateSignalsDsack) {
  ReceiveBuffer rb;
  rb.OnData(1, 100, false, 0, T(0));
  auto r = rb.OnData(1, 100, false, 0, T(1));
  EXPECT_TRUE(r.duplicate);
  EXPECT_TRUE(r.delivered.empty());
  EXPECT_EQ(r.dsack.start, 1u);
  EXPECT_EQ(r.dsack.end, 101u);
  // The DSACK is the first SACK block.
  auto blocks = Blocks(rb, r);
  ASSERT_GE(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (SackBlock{1, 101}));
}

TEST(ReceiveBuffer, DuplicateOfBufferedOooIsDsack) {
  ReceiveBuffer rb;
  rb.OnData(201, 100, false, 0, T(0));
  auto r = rb.OnData(201, 100, false, 0, T(1));
  EXPECT_TRUE(r.duplicate);
}

TEST(ReceiveBuffer, PartialOverlapTrimsStalePrefix) {
  ReceiveBuffer rb;
  rb.OnData(1, 100, false, 0, T(0));
  // Segment [51, 151): first 50 bytes already delivered.
  auto r = rb.OnData(51, 100, false, 0, T(1));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].seq, 101u);
  EXPECT_EQ(r.delivered[0].len, 50u);
  EXPECT_EQ(rb.rcv_nxt(), 151u);
}

TEST(ReceiveBuffer, SackBlocksMostRecentFirst) {
  ReceiveBuffer rb;
  ReceiveBuffer::Result last;
  rb.OnData(201, 100, false, 0, T(0));   // range A (older)
  last = rb.OnData(401, 100, false, 0, T(1));  // range B (newer)
  auto blocks = Blocks(rb, last);
  ASSERT_EQ(blocks.size(), 2u);
  EXPECT_EQ(blocks[0], (SackBlock{401, 501}));
  EXPECT_EQ(blocks[1], (SackBlock{201, 301}));
}

TEST(ReceiveBuffer, AdjacentOooSegmentsCoalesce) {
  ReceiveBuffer rb;
  rb.OnData(201, 100, false, 0, T(0));
  auto last = rb.OnData(301, 100, false, 0, T(1));
  auto blocks = Blocks(rb, last);
  ASSERT_EQ(blocks.size(), 1u);
  EXPECT_EQ(blocks[0], (SackBlock{201, 401}));
}

TEST(ReceiveBuffer, SackBlockLimit) {
  ReceiveBuffer rb;
  ReceiveBuffer::Result last;
  // Six disjoint ranges; only kMaxSackBlocks are reported.
  for (int i = 0; i < 6; ++i) {
    last = rb.OnData(201 + i * 200, 100, false, 0, T(i));
  }
  auto blocks = Blocks(rb, last);
  EXPECT_EQ(blocks.size(), static_cast<std::size_t>(kMaxSackBlocks));
  // Most recent range first.
  EXPECT_EQ(blocks[0].start, 201u + 5 * 200);
}

TEST(ReceiveBuffer, DeliveryClearsSackRanges) {
  ReceiveBuffer rb;
  rb.OnData(101, 100, false, 0, T(0));
  auto r = rb.OnData(1, 100, false, 0, T(1));
  auto blocks = Blocks(rb, r);
  EXPECT_TRUE(blocks.empty());
}

TEST(ReceiveBuffer, DssMappingPreserved) {
  ReceiveBuffer rb;
  auto r = rb.OnData(1, 100, true, 5000, T(0));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_TRUE(r.delivered[0].has_dss);
  EXPECT_EQ(r.delivered[0].dss_seq, 5000u);
}

TEST(ReceiveBuffer, DssAdjustedOnTrim) {
  ReceiveBuffer rb;
  rb.OnData(1, 100, false, 0, T(0));
  auto r = rb.OnData(51, 100, true, 9000, T(1));
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].dss_seq, 9050u);
}

TEST(ReceiveBuffer, ManyInterleavedSegmentsAllDeliveredOnce) {
  ReceiveBuffer rb;
  // Even segments first (out of order), then odd ones.
  std::uint64_t delivered_bytes = 0;
  for (int i = 0; i < 20; i += 2) {
    auto r = rb.OnData(1 + i * 100, 100, false, 0, T(i));
    for (auto& d : r.delivered) delivered_bytes += d.len;
  }
  for (int i = 1; i < 20; i += 2) {
    auto r = rb.OnData(1 + i * 100, 100, false, 0, T(20 + i));
    for (auto& d : r.delivered) delivered_bytes += d.len;
  }
  EXPECT_EQ(delivered_bytes, 2000u);
  EXPECT_EQ(rb.rcv_nxt(), 2001u);
  EXPECT_EQ(rb.ooo_bytes(), 0u);
}

TEST(ReceiveBuffer, SackOrderAcrossTwentyRanges) {
  // Range k is [201 + 200k, 301 + 200k). Twenty of them, grown one per
  // microsecond in an order unrelated to their sequence order.
  const auto start = [](int k) { return 201u + 200u * static_cast<unsigned>(k); };
  const auto block = [&](int k) { return SackBlock{start(k), start(k) + 100}; };
  ReceiveBuffer rb;
  ReceiveBuffer::Result last;
  const int order[20] = {7, 2, 15, 0, 19, 11, 4, 9, 13, 1,
                         17, 5, 8, 18, 3, 12, 6, 16, 10, 14};
  for (int i = 0; i < 20; ++i) {
    last = rb.OnData(start(order[i]), 100, false, 0, T(i));
  }
  EXPECT_EQ(Blocks(rb, last), (std::vector<SackBlock>{
                                  block(14), block(10), block(16), block(6)}));

  // Two ranges grown at one instant come out in the order they were stored.
  rb.OnData(start(25), 100, false, 0, T(30));
  last = rb.OnData(start(22), 100, false, 0, T(30));
  EXPECT_EQ(Blocks(rb, last), (std::vector<SackBlock>{
                                  block(25), block(22), block(14), block(10)}));

  // Filling the gap between ranges 7 and 8 merges them into the newest range.
  last = rb.OnData(start(7) + 100, 100, false, 0, T(40));
  EXPECT_EQ(Blocks(rb, last),
            (std::vector<SackBlock>{SackBlock{start(7), start(8) + 100},
                                    block(25), block(22), block(14)}));

  // In-order delivery drops range 0 and keeps the others' order; a DSACK
  // leads and pushes the oldest of them out.
  last = rb.OnData(1, 200, false, 0, T(50));
  ASSERT_EQ(last.delivered.size(), 2u);
  EXPECT_EQ(rb.rcv_nxt(), start(0) + 100);
  last = rb.OnData(1, 100, false, 0, T(51));
  ASSERT_TRUE(last.duplicate);
  EXPECT_EQ(Blocks(rb, last),
            (std::vector<SackBlock>{SackBlock{1, 101},
                                    SackBlock{start(7), start(8) + 100},
                                    block(25), block(22)}));
}

TEST(ReceiveBuffer, DeliveredViewSurvivesFeedingAnotherBuffer) {
  // MPTCP's shape: each segment a subflow's buffer releases is fed, inside
  // the delivery loop, to the meta buffer, whose own release must not
  // disturb the subflow's view.
  ReceiveBuffer subflow;
  ReceiveBuffer meta;
  for (std::uint64_t dss : {101u, 201u, 301u}) {
    meta.OnData(dss, 100, false, 0, T(0));
  }
  subflow.OnData(101, 100, true, 401, T(1));
  subflow.OnData(201, 100, true, 501, T(2));
  subflow.OnData(301, 100, true, 601, T(3));
  const ReceiveBuffer::Result r = subflow.OnData(1, 100, true, 1, T(4));
  std::vector<std::uint64_t> seqs;
  std::vector<std::uint64_t> dss_seqs;
  std::vector<std::size_t> meta_released;
  for (const ReceiveBuffer::Delivered& d : r.delivered) {
    seqs.push_back(d.seq);
    dss_seqs.push_back(d.dss_seq);
    meta_released.push_back(
        meta.OnData(d.dss_seq, d.len, false, 0, T(4)).delivered.size());
  }
  EXPECT_EQ(seqs, (std::vector<std::uint64_t>{1, 101, 201, 301}));
  EXPECT_EQ(dss_seqs, (std::vector<std::uint64_t>{1, 401, 501, 601}));
  EXPECT_EQ(meta_released, (std::vector<std::size_t>{4, 1, 1, 1}));
  EXPECT_EQ(meta.rcv_nxt(), 701u);
  EXPECT_EQ(subflow.rcv_nxt(), 401u);
  EXPECT_EQ(subflow.ooo_bytes(), 0u);
}

}  // namespace
}  // namespace tdtcp
