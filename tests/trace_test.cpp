// Instrumentation: samplers, week folding, per-day deltas, CDFs, CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "cc/registry.hpp"
#include "sim/simulator.hpp"
#include "trace/flow_logger.hpp"
#include "trace/samplers.hpp"
#include "test_util.hpp"

namespace tdtcp {
namespace {

TEST(SeriesSampler, SamplesAtFixedInterval) {
  Simulator sim;
  double value = 0;
  SeriesSampler s(sim, SimTime::Micros(10), [&] { return value; });
  s.Start();
  sim.Schedule(SimTime::Micros(25), [&] { value = 7; });
  sim.RunUntil(SimTime::Micros(100));
  ASSERT_GE(s.samples().size(), 10u);
  EXPECT_EQ(s.samples()[0].t, SimTime::Zero());
  EXPECT_EQ(s.samples()[1].t, SimTime::Micros(10));
  EXPECT_EQ(s.samples()[2].value, 0.0);
  EXPECT_EQ(s.samples()[3].value, 7.0);  // t=30 > 25
}

std::vector<Sample> LinearCounter(SimTime interval, int n, double slope) {
  std::vector<Sample> out;
  for (int i = 0; i < n; ++i) {
    out.push_back(Sample{interval * i, slope * i});
  }
  return out;
}

TEST(FoldWeeks, LinearSeriesFoldsToLinearCurve) {
  // 10-sample weeks, value grows 2 per sample.
  auto samples = LinearCounter(SimTime::Micros(10), 101, 2.0);
  auto curve = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  ASSERT_EQ(curve.size(), 11u);
  EXPECT_DOUBLE_EQ(curve.front().mean, 0.0);
  EXPECT_DOUBLE_EQ(curve.back().mean, 20.0);
  EXPECT_DOUBLE_EQ(curve[5].offset_us, 50.0);
  EXPECT_DOUBLE_EQ(curve[5].mean, 10.0);
}

TEST(FoldWeeks, AveragesAcrossWeeks) {
  // Alternate weeks with slope 1 and slope 3: the folded mean is slope 2.
  std::vector<Sample> samples;
  double v = 0;
  for (int i = 0; i < 200; ++i) {
    const int week = i / 10;
    samples.push_back(Sample{SimTime::Micros(10) * i, v});
    v += (week % 2 == 0) ? 1.0 : 3.0;
  }
  auto curve = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.back().mean, 20.0, 1.0);
}

TEST(FoldWeeks, WarmupSkipsEarlySamples) {
  // First week is garbage (slope 100), remaining weeks slope 1.
  std::vector<Sample> samples;
  double v = 0;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(Sample{SimTime::Micros(10) * i, v});
    v += (i < 10) ? 100.0 : 1.0;
  }
  auto curve = FoldWeeks(samples, SimTime::Micros(100), SimTime::Micros(100), 1);
  ASSERT_FALSE(curve.empty());
  EXPECT_NEAR(curve.back().mean, 10.0, 0.5);
}

TEST(FoldWeeks, PlotWeeksTilesExpectedGain) {
  auto samples = LinearCounter(SimTime::Micros(10), 101, 1.0);
  auto one = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 1);
  auto three = FoldWeeks(samples, SimTime::Micros(100), SimTime::Zero(), 3);
  ASSERT_FALSE(three.empty());
  EXPECT_NEAR(three.back().mean, 3 * one.back().mean, 1e-9);
  EXPECT_NEAR(three.back().offset_us, 300.0, 1e-9);
}

TEST(FoldWeeks, DegenerateInputsReturnEmpty) {
  EXPECT_TRUE(FoldWeeks({}, SimTime::Micros(100), SimTime::Zero()).empty());
  auto two = LinearCounter(SimTime::Micros(10), 2, 1.0);
  EXPECT_TRUE(FoldWeeks(two, SimTime::Micros(1), SimTime::Zero()).empty());
}

TEST(PerWeekDeltas, CountsPerWeek) {
  // Counter grows by 5 per week (10 samples of 10us each).
  std::vector<Sample> samples;
  for (int i = 0; i < 100; ++i) {
    samples.push_back(Sample{SimTime::Micros(10) * i, 0.5 * i});
  }
  auto deltas = PerWeekDeltas(samples, SimTime::Micros(100), SimTime::Zero());
  ASSERT_GE(deltas.size(), 8u);
  for (double d : deltas) EXPECT_NEAR(d, 5.0, 1e-9);
}

TEST(MakeCdf, SortedWithCorrectProbabilities) {
  auto cdf = MakeCdf({3.0, 1.0, 2.0, 2.0});
  ASSERT_EQ(cdf.size(), 4u);
  EXPECT_DOUBLE_EQ(cdf[0].value, 1.0);
  EXPECT_DOUBLE_EQ(cdf[0].probability, 0.25);
  EXPECT_DOUBLE_EQ(cdf[3].value, 3.0);
  EXPECT_DOUBLE_EQ(cdf[3].probability, 1.0);
}

TEST(MakeCdf, EmptyInput) {
  EXPECT_TRUE(MakeCdf({}).empty());
}

TEST(Percentile, InterpolatesBetweenValues) {
  std::vector<double> v{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 50.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 90.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 100.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 95), 95.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

TEST(Csv, WritesSeriesFile) {
  const std::string path = "/tmp/tdtcp_trace_test_series.csv";
  NamedSeries a{"alpha", {{0.0, 1.0}, {1.0, 2.0}}};
  NamedSeries b{"beta", {{0.0, 3.0}, {1.0, 4.0}}};
  WriteSeriesCsv(path, {a, b});
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "offset_us,alpha,beta");
  std::getline(f, line);
  EXPECT_EQ(line, "0,1,3");
  std::remove(path.c_str());
}

TEST(Csv, WritesCdfFile) {
  const std::string path = "/tmp/tdtcp_trace_test_cdf.csv";
  WriteCdfCsv(path, "events", MakeCdf({1.0, 2.0}));
  std::ifstream f(path);
  ASSERT_TRUE(f.good());
  std::string line;
  std::getline(f, line);
  EXPECT_EQ(line, "events,cdf");
  std::getline(f, line);
  EXPECT_EQ(line, "1,0.5");
  std::remove(path.c_str());
}

// A figure bench pointed at a missing directory must fail, not report
// success with no file written.
TEST(Csv, SeriesThrowsWhenFileCannotBeOpened) {
  NamedSeries a{"alpha", {{0.0, 1.0}}};
  EXPECT_THROW(WriteSeriesCsv("/nonexistent_tdtcp_dir/series.csv", {a}),
               std::runtime_error);
}

TEST(Csv, CdfThrowsWhenFileCannotBeOpened) {
  EXPECT_THROW(WriteCdfCsv("/nonexistent_tdtcp_dir/cdf.csv", "events",
                           MakeCdf({1.0})),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// FlowLogger (the artifact's Wireshark-dissector analogue)
// ---------------------------------------------------------------------------

TEST(FlowLogger, DecodesHandshakeDataAndOptions) {
  Simulator sim;
  test::PairHarness net(sim);
  TcpConfig c;
  c.mss = 1000;
  c.cc_factory = MakeCcFactory("reno");
  c.tdtcp_enabled = true;
  c.num_tdns = 2;
  TcpConnection server(sim, &net.b, 1, 0, c);
  TcpConnection client(sim, &net.a, 1, 1, c);
  FlowLogger log(sim);
  log.Attach(client);
  server.Listen();
  client.Connect();
  client.AddAppData(5000);
  sim.RunUntil(SimTime::Millis(5));

  const std::string dump = log.Dump();
  EXPECT_NE(dump.find("SYN <TD_CAPABLE tdns=2>"), std::string::npos);
  EXPECT_NE(dump.find("SYN/ACK"), std::string::npos);
  EXPECT_NE(dump.find("DATA seq=1 len=1000 <TD_DATA_ACK D tdn=0>"),
            std::string::npos);
  EXPECT_NE(dump.find("<TD_DATA_ACK A tdn="), std::string::npos);
  EXPECT_NE(dump.find("ACK "), std::string::npos);
}

TEST(FlowLogger, FormatsNotificationAndSack) {
  Packet icmp;
  icmp.type = PacketType::kTdnNotify;
  icmp.notify_tdn = 1;
  icmp.circuit_imminent = true;
  icmp.notify_peer = 3;
  const std::string line = FormatPacketLine(
      SimTime::Micros(7), TcpConnection::TapDirection::kRx, icmp);
  EXPECT_NE(line.find("ICMP tdn-change active_tdn=1"), std::string::npos);
  EXPECT_NE(line.find("[circuit imminent]"), std::string::npos);
  EXPECT_NE(line.find("peer_rack=3"), std::string::npos);

  Packet ack;
  ack.type = PacketType::kAck;
  ack.ack = 500;
  ack.num_sack = 1;
  ack.sack[0] = {1000, 2000};
  ack.ece = true;
  ack.circuit_echo = true;
  const std::string aline = FormatPacketLine(
      SimTime::Micros(8), TcpConnection::TapDirection::kTx, ack);
  EXPECT_NE(aline.find("ACK 500 sack[1000,2000)"), std::string::npos);
  EXPECT_NE(aline.find("ECE"), std::string::npos);
  EXPECT_NE(aline.find("[circuit-echo]"), std::string::npos);
}

TEST(FlowLogger, RingBufferBounds) {
  Simulator sim;
  FlowLogger log(sim, /*max_lines=*/10);
  Packet p;
  p.type = PacketType::kAck;
  for (int i = 0; i < 50; ++i) {
    p.ack = static_cast<std::uint64_t>(i);
    log.Record(TcpConnection::TapDirection::kRx, p);
  }
  EXPECT_EQ(log.lines().size(), 10u);
  EXPECT_NE(log.lines().back().find("ACK 49"), std::string::npos);
}

}  // namespace
}  // namespace tdtcp
