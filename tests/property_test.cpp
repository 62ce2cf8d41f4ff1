// Property-style parameterized sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P):
// invariants that must hold across seeds, loss patterns, schedules, and
// engine configurations.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "app/experiment.hpp"
#include "cc/registry.hpp"
#include "rdcn/schedule.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

using test::PairHarness;

// ---------------------------------------------------------------------------
// Reliability: every byte delivered exactly once, in order, under any
// combination of queue pressure and link jitter.
// ---------------------------------------------------------------------------

struct LossParams {
  std::uint32_t queue_capacity;
  int jitter_us;
  std::uint64_t seed;
};

class ReliabilitySweep : public ::testing::TestWithParam<LossParams> {};

TEST_P(ReliabilitySweep, AllBytesDeliveredInOrderExactlyOnce) {
  const LossParams p = GetParam();
  Simulator sim;
  Random rng(p.seed);

  PairHarness::Options opt;
  opt.queue_capacity = p.queue_capacity;
  PairHarness net(sim);
  // Rebuild links with jitter + tight queues.
  Link::Config ab;
  ab.rate_bps = 10'000'000'000;
  ab.propagation = SimTime::Micros(10);
  ab.queue.capacity_packets = p.queue_capacity;
  ab.reorder_jitter = SimTime::Micros(p.jitter_us);
  net.ab_link = std::make_unique<Link>(sim, ab, &net.b, rng.Fork(0));
  net.ba_link = std::make_unique<Link>(sim, ab, &net.a, rng.Fork(1));
  net.a.AttachUplink(net.ab_link.get());
  net.b.AttachUplink(net.ba_link.get());

  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);

  std::uint64_t delivered = 0;
  std::uint64_t next_expected = 1;
  bool in_order = true;
  server.SetDeliverCallback([&](const TcpConnection::DeliverInfo& d) {
    delivered += d.len;
    in_order &= (d.stream_seq == next_expected);
    next_expected = d.stream_seq + d.len;
  });

  server.Listen();
  client.Connect();
  constexpr std::uint64_t kBytes = 150'000;
  client.AddAppData(kBytes);
  sim.RunUntil(SimTime::Millis(400));

  EXPECT_EQ(delivered, kBytes) << "queue=" << p.queue_capacity
                               << " jitter=" << p.jitter_us;
  EXPECT_TRUE(in_order);
  EXPECT_EQ(client.bytes_acked(), kBytes);
}

INSTANTIATE_TEST_SUITE_P(
    LossAndJitterGrid, ReliabilitySweep,
    ::testing::Values(
        LossParams{2, 0, 1}, LossParams{2, 50, 2}, LossParams{4, 0, 3},
        LossParams{4, 30, 4}, LossParams{8, 100, 5}, LossParams{16, 0, 6},
        LossParams{3, 20, 7}, LossParams{5, 80, 8}, LossParams{2, 10, 9},
        LossParams{6, 60, 10}));

// ---------------------------------------------------------------------------
// Schedule invariants across parameter grids.
// ---------------------------------------------------------------------------

class ScheduleSweep
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ScheduleSweep, SlotsPartitionTimeExactly) {
  const auto [day_us, night_us, num_days] = GetParam();
  ScheduleConfig sc;
  sc.day_length = SimTime::Micros(day_us);
  sc.night_length = SimTime::Micros(night_us);
  sc.num_days = static_cast<std::uint32_t>(num_days);
  sc.circuit_day = static_cast<std::uint32_t>(num_days - 1);
  Schedule s(sc);

  EXPECT_EQ(s.week_length().micros(),
            static_cast<std::int64_t>(num_days) * (day_us + night_us));

  // Walk two weeks in odd steps: slots must tile time with no gaps, the
  // circuit TDN must appear only inside the circuit day, and OptimalBits
  // must be monotone.
  double prev_bits = -1;
  SimTime prev_end = SimTime::Zero();
  for (SimTime t = SimTime::Zero(); t < s.week_length() * 2;
       t += SimTime::Micros(7)) {
    const auto slot = s.SlotAt(t);
    EXPECT_GE(t, slot.start);
    EXPECT_LT(t, slot.end);
    if (slot.start > prev_end) ADD_FAILURE() << "gap in schedule";
    prev_end = slot.end > prev_end ? slot.end : prev_end;
    if (s.TdnAt(t) == 1) {
      EXPECT_TRUE(slot.circuit);
      EXPECT_FALSE(slot.night);
    }
    const double bits = s.OptimalBits(t, 10e9, 100e9);
    // Tolerate float ulps between the full-week product and the
    // partial-week walk at week boundaries.
    EXPECT_GE(bits, prev_bits - std::max(1.0, prev_bits * 1e-9));
    prev_bits = bits;
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScheduleGrid, ScheduleSweep,
    ::testing::Combine(::testing::Values(90, 180, 400),
                       ::testing::Values(10, 20, 50),
                       ::testing::Values(2, 3, 7)));

// ---------------------------------------------------------------------------
// Per-TDN accounting invariants across TDN counts and switch patterns.
// ---------------------------------------------------------------------------

class TdnCountSweep : public ::testing::TestWithParam<int> {};

TEST_P(TdnCountSweep, AccountingStaysConsistentAcrossSwitches) {
  const int num_tdns = GetParam();
  Simulator sim;
  test::LoopbackHarness h(sim);
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("cubic");
  c.tdtcp_enabled = true;
  c.num_tdns = static_cast<std::uint8_t>(num_tdns);
  TcpConnection conn(sim, &h.host, 1, 99, c);
  conn.Connect();
  h.Settle();
  Packet syn = h.out.Pop();
  conn.HandlePacket(test::LoopbackHarness::SynAckFor(
      syn, true, static_cast<std::uint8_t>(num_tdns)));
  conn.SetUnlimitedData(true);
  h.Settle();

  Random rng(static_cast<std::uint64_t>(num_tdns));
  std::uint64_t acked = 1;
  for (int round = 0; round < 200; ++round) {
    // Random TDN switch.
    conn.OnTdnChange(static_cast<TdnId>(rng.UniformInt(0, num_tdns - 1)),
                     false);
    h.Settle();
    h.out.packets.clear();
    // ACK a random amount of outstanding data on a random TDN.
    const std::uint64_t outstanding = conn.snd_nxt() - acked;
    if (outstanding > 0) {
      acked += 1000 * rng.UniformInt(0, static_cast<std::int64_t>(
                                            outstanding / 1000));
      conn.HandlePacket(test::LoopbackHarness::Ack(
          1, acked, {}, static_cast<TdnId>(rng.UniformInt(0, num_tdns - 1))));
      h.Settle();
      h.out.packets.clear();
    }

    // Invariants: per-TDN sums match the retransmission queue exactly.
    std::uint32_t packets = 0, sacked = 0, lost = 0, retrans = 0;
    for (int t = 0; t < num_tdns; ++t) {
      const TdnState& st = conn.tdns().state(static_cast<TdnId>(t));
      packets += st.packets_out;
      sacked += st.sacked_out;
      lost += st.lost_out;
      retrans += st.retrans_out;
      EXPECT_GE(st.cwnd, 1u);
    }
    EXPECT_EQ(packets, conn.send_queue().size());
    EXPECT_EQ(sacked, conn.send_queue().CountSacked());
    EXPECT_EQ(lost, conn.send_queue().CountLost());
    EXPECT_EQ(retrans, conn.send_queue().CountRetrans());
    // Flag exclusivity: a segment is never both SACKed and lost, and the
    // aggregate pipe can never underflow.
    for (const auto& seg : conn.send_queue().segments()) {
      EXPECT_FALSE(seg.sacked && seg.lost);
    }
    EXPECT_LE(sacked + lost, packets + retrans);
    EXPECT_LT(conn.tdns().TotalPipe(), 1u << 30);
  }
}

INSTANTIATE_TEST_SUITE_P(TdnCounts, TdnCountSweep, ::testing::Values(1, 2, 3, 4, 8));

// ---------------------------------------------------------------------------
// End-to-end RDCN invariants across seeds and variants.
// ---------------------------------------------------------------------------

// The variant name is a std::string, not a const char*, so the printed
// parameter (and so the test's name) holds no address.
class VariantSweep
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {};

TEST_P(VariantSweep, ProgressWithinPhysicalBounds) {
  const auto [name, seed] = GetParam();
  ExperimentConfig cfg = PaperConfig(VariantFromName(name));
  cfg.duration = SimTime::Millis(12);
  cfg.warmup = SimTime::Millis(2);
  cfg.workload.num_flows = 4;
  cfg.seed = seed;
  ExperimentResult r = RunExperiment(cfg);

  const Schedule schedule(cfg.schedule);
  const double optimal =
      schedule.OptimalBits(schedule.week_length(), 10e9, 100e9) /
      schedule.week_length().seconds();
  EXPECT_GT(r.goodput_bps, 0.0) << name;
  EXPECT_LE(r.goodput_bps, optimal * 1.05) << name;
  // VOQ bounded by its configured capacity (50 for retcpdyn).
  const double cap = name == "retcpdyn" ? 50.0 : 16.0;
  for (const auto& s : r.voq_samples) EXPECT_LE(s.value, cap) << name;
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, VariantSweep,
    ::testing::Combine(::testing::Values("tdtcp", "cubic", "dctcp", "reno",
                                         "retcp", "retcpdyn", "mptcp"),
                       ::testing::Values(1u, 42u)));

// ---------------------------------------------------------------------------
// CC module properties.
// ---------------------------------------------------------------------------

class CcSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(CcSweep, WindowNeverBelowFloorAcrossEvents) {
  auto cc = MakeCcFactory(GetParam())();
  TdnState s;
  s.cwnd = 10;
  s.ssthresh = 0x7fffffff;
  s.cwnd_limited = true;
  cc->Init(s);
  Random rng(7);
  SimTime now = SimTime::Zero();
  for (int i = 0; i < 2000; ++i) {
    now += SimTime::Micros(rng.UniformInt(10, 200));
    switch (rng.UniformInt(0, 3)) {
      case 0:
        cc->CongAvoid(s, static_cast<std::uint32_t>(rng.UniformInt(1, 4)), now);
        break;
      case 1:
        s.ssthresh = std::max(2u, cc->SsThresh(s));
        s.cwnd = s.ssthresh;
        break;
      case 2:
        cc->OnRetransmitTimeout(s);
        s.cwnd = 1;  // engine sets cwnd on RTO
        break;
      case 3: {
        AckContext ctx;
        ctx.event.newly_acked_packets = 1;
        ctx.event.newly_acked_bytes = 8940;
        ctx.event.rtt_sample = SimTime::Micros(rng.UniformInt(20, 300));
        ctx.event.ece = rng.Bernoulli(0.2);
        ctx.now = now;
        ctx.snd_una = static_cast<std::uint64_t>(i) * 1000 + 1;
        ctx.snd_nxt = ctx.snd_una + 50'000;
        cc->OnAck(s, ctx);
        cc->CongAvoid(s, 1, now);
        break;
      }
    }
    EXPECT_GE(s.cwnd, 1u) << GetParam();
    EXPECT_LT(s.cwnd, 1'000'000u) << GetParam();  // no runaway
  }
}

INSTANTIATE_TEST_SUITE_P(AllCcs, CcSweep,
                         ::testing::Values("reno", "cubic", "dctcp", "retcp",
                                           "retcpdyn"));

// ---------------------------------------------------------------------------
// MSS sweep: segmentation and delivery integrity for any segment size.
// ---------------------------------------------------------------------------

class MssSweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(MssSweep, TransferIntactAtAnyMss) {
  const std::uint32_t mss = GetParam();
  Simulator sim;
  PairHarness::Options opt;
  opt.queue_capacity = 6;  // some loss
  PairHarness net(sim, opt);
  TcpConfig c;
  c.mss = mss;
  c.cc_factory = MakeCcFactory("cubic");
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  server.Listen();
  client.Connect();
  const std::uint64_t bytes = 50 * mss + mss / 3 + 1;  // non-aligned tail
  client.AddAppData(bytes);
  sim.RunUntil(SimTime::Millis(100));
  EXPECT_EQ(client.bytes_acked(), bytes) << "mss=" << mss;
  EXPECT_EQ(server.stats().bytes_received, bytes) << "mss=" << mss;
}

INSTANTIATE_TEST_SUITE_P(MssGrid, MssSweep,
                         ::testing::Values(536u, 1000u, 1448u, 8940u, 8999u));

// ---------------------------------------------------------------------------
// Full-RDCN schedule sweep: TDTCP invariants across day/night geometries.
// ---------------------------------------------------------------------------

class RdcnScheduleSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RdcnScheduleSweep, TdtcpRemainsSaneAndBeatsNothingWeird) {
  const auto [day_us, num_days] = GetParam();
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp);
  cfg.schedule.day_length = SimTime::Micros(day_us);
  cfg.schedule.night_length = SimTime::Micros(std::max(2, day_us / 9));
  cfg.schedule.num_days = static_cast<std::uint32_t>(num_days);
  cfg.schedule.circuit_day = static_cast<std::uint32_t>(num_days - 1);
  cfg.WithDuration(SimTime::Millis(15))
      .WithWarmup(SimTime::Millis(3))
      .WithFlows(4)
      .WithSampling(false, false)
      .WithPlotWeeks(1);
  ExperimentResult r = RunExperiment(cfg);

  const Schedule schedule(cfg.schedule);
  const double optimal =
      schedule.OptimalBits(schedule.week_length(), 10e9, 100e9) /
      schedule.week_length().seconds();
  EXPECT_GT(r.goodput_bps, 0.3 * optimal)
      << "day=" << day_us << " days=" << num_days;
  EXPECT_LE(r.goodput_bps, optimal * 1.02);
}

INSTANTIATE_TEST_SUITE_P(ScheduleGeometries, RdcnScheduleSweep,
                         ::testing::Combine(::testing::Values(90, 180, 500),
                                            ::testing::Values(2, 4, 7)));

// ---------------------------------------------------------------------------
// CUBIC closed form: K = cbrt(W_max * (1-beta) / C) — after a loss at
// W_max, the window returns to the origin point at t ~= K.
// ---------------------------------------------------------------------------

TEST(CubicClosedForm, ReturnsToOriginNearK) {
  // Use a window large enough that the cubic curve (K ~ W^(1/3)) dominates
  // the Reno-friendliness floor (time ~ W) — the regime CUBIC was built for.
  auto cc = MakeCcFactory("cubic")();
  TdnState s;
  s.cwnd = 6'000;
  s.ssthresh = 0x7fffffff;
  s.cwnd_limited = true;
  cc->Init(s);
  // Loss at W_max = 6000 (first SsThresh records last_max).
  s.ssthresh = std::max(2u, cc->SsThresh(s));
  s.cwnd = s.ssthresh;  // ~4200 (beta = 0.7)
  const double wmax = 6'000.0, beta = 717.0 / 1024.0, C = 0.4;
  const double k = std::cbrt(wmax * (1.0 - beta) / C);  // ~16.4 s

  // Drive per-ACK events (two segments per ACK, like a delayed-ACK
  // receiver) at a 10ms RTT; find when cwnd crosses W_max again.
  SimTime t = SimTime::Millis(10);
  double crossed_at_s = -1;
  for (int rtt = 0; rtt < 2500 && crossed_at_s < 0; ++rtt) {
    AckContext ctx;
    ctx.event.newly_acked_packets = 2;
    ctx.event.newly_acked_bytes = 2 * 8940;
    ctx.event.rtt_sample = SimTime::Millis(10);
    ctx.now = t;
    cc->OnAck(s, ctx);
    const std::uint32_t events = s.cwnd / 2;
    for (std::uint32_t e = 0; e < events; ++e) cc->CongAvoid(s, 2, t);
    if (s.cwnd >= wmax) crossed_at_s = t.seconds();
    t += SimTime::Millis(10);
  }
  ASSERT_GT(crossed_at_s, 0.0);
  EXPECT_NEAR(crossed_at_s, k, k * 0.35);
}

}  // namespace
}  // namespace tdtcp
