// Instrumentation: samplers, week folding, per-day deltas, CDFs, CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "sim/simulator.hpp"
#include "trace/samplers.hpp"

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
  // The first two samples share a time: no sampling interval to fold on.
  const std::vector<Sample> same_time = {{SimTime::Zero(), 0.0},
                                         {SimTime::Zero(), 1.0},
                                         {SimTime::Micros(10), 2.0}};
  EXPECT_TRUE(
      FoldWeeks(same_time, SimTime::Micros(100), SimTime::Zero()).empty());
}

// Week k holds level i + 2 * (k % 2) at sample offset i: offset i averages
// to i + 1 over an even number of weeks.
std::vector<Sample> AlternatingLevels(int weeks) {
  std::vector<Sample> out;
  for (int n = 0; n < weeks * 10; ++n) {
    out.push_back(Sample{SimTime::Micros(10) * n,
                         static_cast<double>(n % 10 + 2 * (n / 10 % 2))});
  }
  return out;
}

TEST(FoldLevels, AveragesRawLevelsPerOffset) {
  // Unlike FoldWeeks, the last week needs no closing sample: 100 samples
  // make 10 weeks of 10 points each.
  const auto curve = FoldLevels(AlternatingLevels(10), SimTime::Micros(100),
                                SimTime::Zero(), 1);
  ASSERT_EQ(curve.size(), 10u);
  for (std::size_t i = 0; i < curve.size(); ++i) {
    EXPECT_DOUBLE_EQ(curve[i].offset_us, 10.0 * i);
    EXPECT_DOUBLE_EQ(curve[i].mean, i + 1.0);
  }
  // Tiles repeat the week, shifted by one week, with no added gain.
  const auto two = FoldLevels(AlternatingLevels(10), SimTime::Micros(100),
                              SimTime::Zero(), 2);
  ASSERT_EQ(two.size(), 20u);
  EXPECT_DOUBLE_EQ(two[13].offset_us, 130.0);
  EXPECT_DOUBLE_EQ(two[13].mean, two[3].mean);
  // A one-week warmup drops week 0: offset i averages to i + 10/9 over
  // weeks 1..9, five of them odd.
  const auto warm = FoldLevels(AlternatingLevels(10), SimTime::Micros(100),
                               SimTime::Micros(100), 1);
  ASSERT_EQ(warm.size(), 10u);
  EXPECT_NEAR(warm[0].mean, 10.0 / 9, 1e-12);
}

TEST(FoldLevels, DegenerateInputsReturnEmpty) {
  EXPECT_TRUE(FoldLevels({}, SimTime::Micros(100), SimTime::Zero()).empty());
  const auto levels = AlternatingLevels(2);
  EXPECT_TRUE(FoldLevels(levels, SimTime::Micros(1), SimTime::Zero()).empty());
  EXPECT_TRUE(FoldLevels(levels, SimTime::Zero(), SimTime::Zero()).empty());
  // Warmup past the last sample leaves no complete week.
  EXPECT_TRUE(
      FoldLevels(levels, SimTime::Micros(100), SimTime::Micros(200)).empty());
  const std::vector<Sample> same_time = {{SimTime::Zero(), 0.0},
                                         {SimTime::Zero(), 1.0},
                                         {SimTime::Micros(10), 2.0}};
  EXPECT_TRUE(
      FoldLevels(same_time, SimTime::Micros(100), SimTime::Zero()).empty());
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

TEST(PerWeekDeltas, DegenerateInputsReturnEmpty) {
  EXPECT_TRUE(PerWeekDeltas({}, SimTime::Micros(100), SimTime::Zero()).empty());
  // The first two samples share a time: no sampling interval (this divided
  // by zero before the shared alignment guard).
  const std::vector<Sample> same_time = {{SimTime::Zero(), 0.0},
                                         {SimTime::Zero(), 1.0},
                                         {SimTime::Micros(10), 2.0}};
  EXPECT_TRUE(
      PerWeekDeltas(same_time, SimTime::Micros(100), SimTime::Zero()).empty());
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

}  // namespace
}  // namespace tdtcp
