// Random streams: the distributions' shapes (Kolmogorov-Smirnov against the
// exact CDFs), the flow-size sampler's means, the per-component stream
// layout (forks are independent of draw order, distinct ids start apart),
// and what that layout buys: one link's fault draws do not move when
// another link carries traffic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <set>
#include <tuple>
#include <vector>

#include "app/flow_cdf.hpp"
#include "fault/fault_injector.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace tdtcp {
namespace {

constexpr int kSamples = 20'000;

// One-sample Kolmogorov-Smirnov statistic of `xs` against `cdf`. For a
// discrete distribution pass its right-continuous CDF; the statistic can
// then only read high (a test of it fails more easily, never less).
double KsStatistic(std::vector<double> xs,
                   const std::function<double(double)>& cdf) {
  std::sort(xs.begin(), xs.end());
  const double n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Ties: the empirical CDF jumps to the last copy of a value.
    if (i + 1 < xs.size() && xs[i + 1] == xs[i]) continue;
    d = std::max(d, static_cast<double>(i + 1) / n - cdf(xs[i]));
  }
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i > 0 && xs[i - 1] == xs[i]) continue;
    // Just below xs[i] the empirical CDF is i/n and the true CDF at most
    // cdf(xs[i]).
    d = std::max(d, cdf(xs[i]) - static_cast<double>(i) / n);
  }
  return d;
}

// The 0.1% critical value of the KS statistic for n samples.
double KsCritical(std::size_t n) {
  return 1.949 / std::sqrt(static_cast<double>(n));
}

TEST(RandomKs, UniformDouble) {
  Random rng(11);
  std::vector<double> xs;
  for (int i = 0; i < kSamples; ++i) {
    xs.push_back(rng.UniformDouble(-2.0, 5.0));
  }
  for (double x : xs) {
    ASSERT_GE(x, -2.0);
    ASSERT_LT(x, 5.0);
  }
  const double d = KsStatistic(
      xs, [](double x) { return std::clamp((x + 2.0) / 7.0, 0.0, 1.0); });
  EXPECT_LT(d, KsCritical(xs.size()));
}

TEST(RandomKs, UniformInt) {
  Random rng(12);
  std::vector<double> xs;
  for (int i = 0; i < kSamples; ++i) {
    xs.push_back(static_cast<double>(rng.UniformInt(-300, 699)));
  }
  const double d = KsStatistic(xs, [](double x) {
    return std::clamp((std::floor(x) + 301.0) / 1000.0, 0.0, 1.0);
  });
  EXPECT_LT(d, KsCritical(xs.size()));
  // Both ends are reachable.
  EXPECT_EQ(*std::min_element(xs.begin(), xs.end()), -300.0);
  EXPECT_EQ(*std::max_element(xs.begin(), xs.end()), 699.0);
}

TEST(RandomKs, Exponential) {
  Random rng(13);
  const double mean = 150.0;
  std::vector<double> xs;
  for (int i = 0; i < kSamples; ++i) xs.push_back(rng.Exponential(mean));
  const double d = KsStatistic(xs, [&](double x) {
    return x <= 0.0 ? 0.0 : -std::expm1(-x / mean);
  });
  EXPECT_LT(d, KsCritical(xs.size()));
}

TEST(RandomKs, LognormalTime) {
  // log(t / median) / sigma is standard normal.
  Random rng(14);
  const double median_ps = 1e9;
  const double sigma = 0.35;
  std::vector<double> zs;
  for (int i = 0; i < kSamples; ++i) {
    const SimTime t = rng.LognormalTime(SimTime::Picos(1'000'000'000), sigma);
    zs.push_back(std::log(static_cast<double>(t.picos()) / median_ps) / sigma);
  }
  const double d = KsStatistic(
      zs, [](double z) { return 0.5 * std::erfc(-z / std::sqrt(2.0)); });
  EXPECT_LT(d, KsCritical(zs.size()));
}

TEST(Random, UniformIntFullRangeIsARawDraw) {
  // A span of 2^64 (lo = INT64_MIN, hi = INT64_MAX) takes a raw draw; the
  // sign bit is then a fair coin.
  Random rng(15);
  int negative = 0;
  for (int i = 0; i < kSamples; ++i) {
    negative += rng.UniformInt(INT64_MIN, INT64_MAX) < 0;
  }
  EXPECT_NEAR(negative / static_cast<double>(kSamples), 0.5, 0.02);
}

TEST(FlowSizeCdf, SampleMeanMatchesAnalyticMean) {
  for (const char* name : {"websearch", "datamining"}) {
    const auto cdf = BuiltinFlowSizeCdf(name);
    Random rng(7);
    const int n = 200'000;
    double sum = 0;
    for (int i = 0; i < n; ++i) {
      sum += static_cast<double>(cdf->Sample(rng));
    }
    const double sample_mean = sum / n;
    const double analytic = cdf->MeanBytes();
    // Generous tolerance: datamining's tail reaches 1 GB, so even 200k
    // draws leave a few percent of sampling noise.
    EXPECT_NEAR(sample_mean / analytic, 1.0, 0.10) << name;
  }
  // Websearch's documented mean is ~1.71 MB.
  EXPECT_NEAR(BuiltinFlowSizeCdf("websearch")->MeanBytes(), 1.71e6, 0.1e6);
}

TEST(Random, DeterministicAcrossInstances) {
  Random a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1'000'000), b.UniformInt(0, 1'000'000));
  }
}

TEST(Random, UniformIntWithinBounds) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.UniformInt(5, 9);
    EXPECT_GE(v, 5);
    EXPECT_LE(v, 9);
  }
}

TEST(Random, BernoulliExtremes) {
  Random r(1);
  EXPECT_FALSE(r.Bernoulli(0.0));
  EXPECT_TRUE(r.Bernoulli(1.0));
}

TEST(Random, LognormalTimePositiveAndScales) {
  Random r(3);
  double sum = 0;
  for (int i = 0; i < 2000; ++i) {
    const SimTime t = r.LognormalTime(SimTime::Micros(4), 0.7);
    EXPECT_GT(t, SimTime::Zero());
    sum += t.micros_f();
  }
  // Mean of lognormal(median m, sigma) = m * exp(sigma^2/2) ~ 5.1 us.
  EXPECT_NEAR(sum / 2000.0, 5.1, 1.0);
}

TEST(Random, UniformTimeWithinRange) {
  Random r(5);
  for (int i = 0; i < 100; ++i) {
    const SimTime t = r.UniformTime(SimTime::Micros(1), SimTime::Micros(2));
    EXPECT_GE(t, SimTime::Micros(1));
    EXPECT_LE(t, SimTime::Micros(2));
  }
}

TEST(Random, ForksDrawTheSameWhateverTheInterleaving) {
  const Random root(2022);
  const std::uint64_t ids[] = {StreamId(StreamKind::kToR, 0),
                               StreamId(StreamKind::kToR, 1)};
  // Sequential: all of stream 0, then all of stream 1.
  std::vector<std::int64_t> want[2];
  for (int s = 0; s < 2; ++s) {
    Random r = root.Fork(ids[s]);
    for (int i = 0; i < 200; ++i) {
      want[s].push_back(r.UniformInt(0, 1 << 30));
    }
  }
  // Interleaved by a third stream's coin flips, with draws on the root in
  // between: neither moves a fork's sequence.
  Random a = root.Fork(ids[0]), b = root.Fork(ids[1]);
  Random coin(9), busy = root;
  std::vector<std::int64_t> got[2];
  while (got[0].size() < 200 || got[1].size() < 200) {
    const int s = got[0].size() == 200   ? 1
                  : got[1].size() == 200 ? 0
                                         : coin.Bernoulli(0.5);
    got[s].push_back((s == 0 ? a : b).UniformInt(0, 1 << 30));
    busy.UniformDouble(0.0, 1.0);
  }
  EXPECT_EQ(got[0], want[0]);
  EXPECT_EQ(got[1], want[1]);
  EXPECT_NE(want[0], want[1]);
  // A fork depends on the key alone: the root's draws above changed nothing.
  Random again = busy.Fork(ids[0]);
  EXPECT_EQ(again.UniformInt(0, 1 << 30), want[0][0]);
}

TEST(Random, DistinctIdsGiveDistinctFirstDraws) {
  const Random root(1);
  std::set<std::int64_t> first;
  std::size_t ids = 0;
  for (std::uint32_t kind = 1; kind <= 7; ++kind) {
    for (std::uint32_t index = 0; index < 1000; ++index, ++ids) {
      Random r = root.Fork(StreamId(static_cast<StreamKind>(kind), index));
      first.insert(r.UniformInt(INT64_MIN, INT64_MAX));
    }
  }
  // Raw ids and seeds, including neighbours of the tagged ones above.
  for (std::uint64_t id = 0; id < 1000; ++id, ++ids) {
    Random r = root.Fork(id);
    first.insert(r.UniformInt(INT64_MIN, INT64_MAX));
  }
  for (std::uint64_t seed = 0; seed < 1000; ++seed, ++ids) {
    Random r(seed);
    first.insert(r.UniformInt(INT64_MIN, INT64_MAX));
  }
  EXPECT_EQ(first.size(), ids);
}

// Drops on the fabric ports 0->1 and 1->0 under 10% loss, as
// (subject, time, kind) in trace order, with or without traffic on 0->2.
// The injected packets are RSTs, which hosts drop silently, so no other
// traffic arises.
std::vector<std::tuple<std::uint32_t, std::int64_t, FaultKind>> PairDrops(
    bool third_link_busy) {
  Simulator sim;
  TopologyConfig tc;
  tc.num_racks = 3;
  tc.hosts_per_rack = 2;
  Topology topo(sim, Random(5), tc);
  FaultPlan plan;
  plan.fabric.loss_rate = 0.1;
  plan.fabric.corrupt_rate = 0.02;
  plan.audit_interval = SimTime::Zero();
  FaultInjector inj(sim, plan, /*run_seed=*/5);
  inj.Arm(topo);

  std::vector<std::pair<RackId, RackId>> links = {{0, 1}, {1, 0}};
  if (third_link_busy) links.emplace_back(0, 2);
  for (int i = 0; i < 2000; ++i) {
    for (const auto& [a, b] : links) {
      sim.ScheduleAtNoCancel(SimTime::Nanos(700 * i), [&topo, a, b, i] {
        Packet p;
        p.id = static_cast<std::uint64_t>(i) + 1;
        p.src = topo.host_id(a, 0);
        p.dst = topo.host_id(b, static_cast<std::uint32_t>(i) % 2);
        p.rst = true;
        p.size_bytes = 500 + 7 * static_cast<std::uint32_t>(i % 100);
        topo.port(a, b)->Enqueue(std::move(p));
      });
    }
  }
  sim.Run();
  // The injector keeps only its latest faults: every one of this run's must
  // still be there.
  EXPECT_LE(inj.stats().total(), FaultInjector::kRecentFaults);
  // Fault subjects number fabric ports src-major: 0->1 is 0, 0->2 is 1,
  // 1->0 is 2.
  std::vector<std::tuple<std::uint32_t, std::int64_t, FaultKind>> drops;
  for (const FaultEvent& e : inj.RecentFaults()) {
    if (e.subject == 0 || e.subject == 2) {
      drops.emplace_back(e.subject, e.at.picos(), e.kind);
    }
  }
  return drops;
}

TEST(StreamOrderIndependence, LinkDropsIgnoreAnotherLinksTraffic) {
  const auto quiet = PairDrops(/*third_link_busy=*/false);
  const auto busy = PairDrops(/*third_link_busy=*/true);
  // Both links dropped, in both ways.
  for (std::uint32_t subject : {0u, 2u}) {
    for (FaultKind kind : {FaultKind::kDataLoss, FaultKind::kDataCorrupt}) {
      EXPECT_GT(std::count_if(quiet.begin(), quiet.end(),
                              [&](const auto& d) {
                                return std::get<0>(d) == subject &&
                                       std::get<2>(d) == kind;
                              }),
                0)
          << subject;
    }
  }
  EXPECT_EQ(quiet, busy);
}

}  // namespace
}  // namespace tdtcp
