// Scale-out workload engine: flow-size CDF sampling, rack-selection
// policies, rack validation (the NDEBUG-silent-assert bugfixes), per-size
// FCT bucketing, nearest-rank percentile semantics, and the N-rack rotor
// sweep's jobs=1 == jobs=N bit-identity contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "app/experiment.hpp"
#include "app/flow_cdf.hpp"
#include "app/result_io.hpp"
#include "app/sweep.hpp"
#include "app/workload.hpp"
#include "rdcn/rotor_controller.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "trace/samplers.hpp"

namespace tdtcp {
namespace {

// ---------------------------------------------------------------------------
// FlowSizeCdf
// ---------------------------------------------------------------------------

TEST(FlowSizeCdf, ValidatesTable) {
  using P = FlowSizeCdf::Point;
  EXPECT_THROW(FlowSizeCdf("x", {}), std::invalid_argument);
  EXPECT_THROW(FlowSizeCdf("x", {P{0, 0}}), std::invalid_argument);
  // cum decreasing.
  EXPECT_THROW(FlowSizeCdf("x", {P{0, 0.5}, P{10, 0.2}, P{20, 1.0}}),
               std::invalid_argument);
  // bytes decreasing.
  EXPECT_THROW(FlowSizeCdf("x", {P{10, 0}, P{5, 0.5}, P{20, 1.0}}),
               std::invalid_argument);
  // last row must close at 1.
  EXPECT_THROW(FlowSizeCdf("x", {P{0, 0}, P{10, 0.9}}), std::invalid_argument);
  // cum out of range.
  EXPECT_THROW(FlowSizeCdf("x", {P{0, 0}, P{10, 1.5}}), std::invalid_argument);
  EXPECT_NO_THROW(FlowSizeCdf("x", {P{0, 0}, P{10, 1.0}}));
}

TEST(FlowSizeCdf, PinnedQuantiles) {
  const FlowSizeCdf ws = FlowSizeCdf::Websearch();
  EXPECT_DOUBLE_EQ(ws.BytesAtQuantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(ws.BytesAtQuantile(0.15), 10'000.0);
  // Interpolated halfway between (10000, .15) and (20000, .20).
  EXPECT_DOUBLE_EQ(ws.BytesAtQuantile(0.175), 15'000.0);
  EXPECT_DOUBLE_EQ(ws.BytesAtQuantile(1.0), 30'000'000.0);
  // u below the first row's cum sticks to the first row's size.
  const FlowSizeCdf dm = FlowSizeCdf::Datamining();
  EXPECT_DOUBLE_EQ(dm.BytesAtQuantile(0.0), 80.0);
  EXPECT_DOUBLE_EQ(dm.BytesAtQuantile(1.0), 1'000'000'000.0);
}

TEST(FlowSizeCdf, DeterministicSampleStream) {
  const FlowSizeCdf ws = FlowSizeCdf::Websearch();
  Random a(42), b(42), c(43);
  std::vector<std::uint64_t> sa, sb, sc;
  for (int i = 0; i < 1000; ++i) {
    sa.push_back(ws.Sample(a));
    sb.push_back(ws.Sample(b));
    sc.push_back(ws.Sample(c));
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(FlowSizeCdf, FromFileParsesCdfFormat) {
  const std::string path = testing::TempDir() + "/tdtcp_cdf_test.txt";
  {
    std::ofstream f(path);
    f << "# classic three-column cdf.h file: size, unused, cum\n";
    f << "100 1 0\n";
    f << "1000 2 0.5   # trailing comment\n";
    f << "\n";
    f << "10000 3 1\n";
  }
  const FlowSizeCdf cdf = FlowSizeCdf::FromFile(path);
  ASSERT_EQ(cdf.points().size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.BytesAtQuantile(0.0), 100.0);
  EXPECT_DOUBLE_EQ(cdf.BytesAtQuantile(0.5), 1000.0);
  EXPECT_DOUBLE_EQ(cdf.BytesAtQuantile(1.0), 10'000.0);
  std::remove(path.c_str());
  EXPECT_THROW(FlowSizeCdf::FromFile("/nonexistent/cdf.txt"),
               std::invalid_argument);
}

TEST(FlowSizeCdf, BuiltinLookup) {
  EXPECT_EQ(BuiltinFlowSizeCdf("websearch")->name(), "websearch");
  EXPECT_EQ(BuiltinFlowSizeCdf("datamining")->name(), "datamining");
  EXPECT_THROW(BuiltinFlowSizeCdf("nope"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Size buckets and percentile semantics (the off-by-one audit)
// ---------------------------------------------------------------------------

TEST(FctBuckets, PinnedEdges) {
  EXPECT_EQ(FctBucketOf(1), 0u);
  EXPECT_EQ(FctBucketOf(10'000), 0u);    // upper edges are inclusive
  EXPECT_EQ(FctBucketOf(10'001), 1u);
  EXPECT_EQ(FctBucketOf(100'000), 1u);
  EXPECT_EQ(FctBucketOf(100'001), 2u);
  EXPECT_EQ(FctBucketOf(1'000'000), 2u);
  EXPECT_EQ(FctBucketOf(1'000'001), 3u);
  EXPECT_EQ(FctBucketOf(1ull << 40), 3u);
}

TEST(Percentiles, NearestRankSmallN) {
  // Empty: defined as 0 (an empty bucket reports zero percentiles).
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 50), 0.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank({}, 99.9), 0.0);
  // N=1: every percentile is the lone sample.
  const std::vector<double> one{42};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(one, 0), 42.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(one, 50), 42.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(one, 100), 42.0);
  // N=2: rank = ceil(p/100 * 2), so p50 is the first sample (rank 1) and
  // everything above p50 is the second.
  const std::vector<double> two{1, 2};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(two, 0), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(two, 50), 1.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(two, 51), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(two, 99), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(two, 100), 2.0);
  // N=4 and an unsorted input: p99 must be an observed sample (the max),
  // never an interpolation.
  const std::vector<double> four{4, 1, 3, 2};
  EXPECT_DOUBLE_EQ(PercentileNearestRank(four, 50), 2.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(four, 75), 3.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(four, 99), 4.0);
  EXPECT_DOUBLE_EQ(PercentileNearestRank(four, 99.9), 4.0);
}

TEST(Percentiles, InterpolatedSmallNForContrast) {
  // The linear-interpolated Percentile (plotting curves) averages between
  // order statistics — exactly why the FCT tails use nearest-rank instead.
  const std::vector<double> two{1, 2};
  EXPECT_DOUBLE_EQ(Percentile(two, 50), 1.5);
  EXPECT_DOUBLE_EQ(Percentile(two, 100), 2.0);
  EXPECT_DOUBLE_EQ(Percentile(two, 0), 1.0);
  const std::vector<double> one{42};
  EXPECT_DOUBLE_EQ(Percentile(one, 99), 42.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0.0);
}

// ---------------------------------------------------------------------------
// Rack validation (NDEBUG builds must throw, not corrupt)
// ---------------------------------------------------------------------------

TEST(RotorValidation, OddRackCountThrows) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 3;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);
  RotorController::Config rc;
  EXPECT_THROW(RotorController(sim, rc, &topo), std::invalid_argument);
}

TEST(RotorValidation, EvenRackCountConstructs) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 4;
  tc.hosts_per_rack = 2;
  Topology topo(sim, rng, tc);
  RotorController::Config rc;
  RotorController rotor(sim, rc, &topo);
  EXPECT_EQ(rotor.num_matchings(), 3u);
}

TEST(RackValidation, WorkloadRejectsBadPairs) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 2;
  tc.hosts_per_rack = 4;
  Topology topo(sim, rng, tc);
  WorkloadConfig same;
  same.num_flows = 1;
  same.src_rack = 1;
  same.dst_rack = 1;
  EXPECT_THROW(Workload(sim, topo, same), std::invalid_argument);
  WorkloadConfig oob;
  oob.num_flows = 1;
  oob.src_rack = 0;
  oob.dst_rack = 5;
  EXPECT_THROW(Workload(sim, topo, oob), std::invalid_argument);
  WorkloadConfig too_many;
  too_many.num_flows = 5;  // > hosts_per_rack
  EXPECT_THROW(Workload(sim, topo, too_many), std::invalid_argument);
}

TEST(RackValidation, ChurnRejectsBadConfigs) {
  Simulator sim;
  Random rng(1);
  TopologyConfig tc;
  tc.num_racks = 2;
  tc.hosts_per_rack = 4;
  Topology topo(sim, rng, tc);
  ChurnConfig same;
  same.src_rack = 0;
  same.dst_rack = 0;
  EXPECT_THROW(ChurnGenerator(sim, topo, same, 1), std::invalid_argument);
  ChurnConfig oob;
  oob.src_rack = 9;
  EXPECT_THROW(ChurnGenerator(sim, topo, oob, 1), std::invalid_argument);
  ChurnConfig hotspot;
  hotspot.rack_policy = RackPolicy::kHotspot;
  hotspot.hotspot_rack = 7;
  EXPECT_THROW(ChurnGenerator(sim, topo, hotspot, 1), std::invalid_argument);
  ChurnConfig bad_frac;
  bad_frac.rack_policy = RackPolicy::kHotspot;
  bad_frac.hotspot_fraction = 1.5;
  EXPECT_THROW(ChurnGenerator(sim, topo, bad_frac, 1), std::invalid_argument);
}

TEST(RackValidation, RunExperimentRejectsBadWorkloadPair) {
  ExperimentConfig cfg = PaperConfig(Variant::kCubic);
  cfg.workload.src_rack = 5;  // 2-rack default topology
  EXPECT_THROW(RunExperiment(cfg), std::invalid_argument);
  EXPECT_THROW(Experiment{cfg}, std::invalid_argument);
  ExperimentConfig same = PaperConfig(Variant::kCubic);
  same.workload.dst_rack = same.workload.src_rack;
  EXPECT_THROW(RunExperiment(same), std::invalid_argument);
  EXPECT_THROW(Experiment{same}, std::invalid_argument);
}

TEST(RackPolicy, NameRoundTrip) {
  for (const RackPolicy p :
       {RackPolicy::kFixedPair, RackPolicy::kUniform, RackPolicy::kPermutation,
        RackPolicy::kHotspot}) {
    EXPECT_EQ(RackPolicyFromName(RackPolicyName(p)), p);
  }
  EXPECT_THROW(RackPolicyFromName("bogus"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// N-rack rotor sweep: determinism and per-bucket FCT reporting
// ---------------------------------------------------------------------------

ExperimentConfig RotorChurnConfig(RackPolicy policy) {
  ExperimentConfig cfg = PaperConfig(Variant::kTdtcp)
                             .WithRotorFabric(4)
                             .WithDurationMs(8)
                             .WithSampling(false, false)
                             .WithSampleInterval(SimTime::Millis(1))
                             .WithRackPolicy(policy)
                             .WithFlowSizeCdf(BuiltinFlowSizeCdf("websearch"),
                                              1.0 / 64)
                             .WithTrace();
  cfg.workload.num_flows = 0;
  cfg.churn.enabled = true;
  cfg.churn.target_connections = 600;
  cfg.churn.mean_interarrival = SimTime::Micros(150);
  cfg.churn.max_concurrent = 128;
  cfg.churn.size_cap_bytes = 2'000'000;
  return cfg;
}

TEST(RotorSweep, BitIdenticalAcrossJobs) {
  const std::vector<RackPolicy> policies{
      RackPolicy::kUniform, RackPolicy::kPermutation, RackPolicy::kHotspot};
  std::vector<ExperimentResult> serial(policies.size());
  std::vector<ExperimentResult> parallel(policies.size());
  ParallelFor(1, policies.size(), [&](std::size_t i) {
    serial[i] = RunExperiment(RotorChurnConfig(policies[i]));
  });
  ParallelFor(4, policies.size(), [&](std::size_t i) {
    parallel[i] = RunExperiment(RotorChurnConfig(policies[i]));
  });
  for (std::size_t i = 0; i < policies.size(); ++i) {
    SCOPED_TRACE(RackPolicyName(policies[i]));
    EXPECT_EQ(serial[i].churn_hash, parallel[i].churn_hash);
    EXPECT_EQ(serial[i].trace_hash, parallel[i].trace_hash);
    EXPECT_NE(serial[i].churn_hash, 0u);
    EXPECT_NE(serial[i].trace_hash, 0u);
    // Every lifecycle resolves.
    EXPECT_TRUE(serial[i].churn_all_closed);
    EXPECT_EQ(serial[i].churn.opened, 600u);
    EXPECT_EQ(serial[i].churn.closed, serial[i].churn.opened);
  }
  // Distinct policies route differently, so their fingerprints differ.
  EXPECT_NE(serial[0].churn_hash, serial[1].churn_hash);
  EXPECT_NE(serial[0].churn_hash, serial[2].churn_hash);
}

TEST(RotorSweep, PerBucketFctsPartitionCompletions) {
  const ExperimentResult r = RunExperiment(RotorChurnConfig(RackPolicy::kUniform));
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kNumFctBuckets; ++b) {
    const auto& bucket = r.churn_fct_bucket[b];
    total += bucket.count;
    if (bucket.count > 0) {
      EXPECT_GT(bucket.p50_us, 0.0);
      EXPECT_LE(bucket.p50_us, bucket.p99_us);
      EXPECT_LE(bucket.p99_us, bucket.p999_us);
    } else {
      EXPECT_DOUBLE_EQ(bucket.p50_us, 0.0);
    }
  }
  // The buckets partition exactly the kNormal completions.
  EXPECT_EQ(total, r.churn_fct_us.size());
  EXPECT_GT(total, 0u);
  // Websearch/64 under a 2 MB cap spans at least the first three buckets.
  EXPECT_GT(r.churn_fct_bucket[0].count, 0u);
  EXPECT_GT(r.churn_fct_bucket[1].count, 0u);
}

TEST(RotorSweep, BucketTailsMatchCopyAndSortReference) {
  // Long enough that every lifecycle closes before `duration`, so the
  // generator holds every completion before Finish drains nothing.
  ExperimentConfig cfg = RotorChurnConfig(RackPolicy::kUniform);
  cfg.duration = SimTime::Millis(40);
  Experiment exp(cfg);
  exp.RunUntil(cfg.duration);
  const ChurnGenerator& churn = *exp.churn();
  ASSERT_TRUE(churn.AllClosed());
  ASSERT_EQ(churn.stats().opened, cfg.churn.target_connections);
  const std::vector<double> fct_us = churn.fct_us();
  const std::vector<std::uint8_t> fct_buckets = churn.fct_buckets();
  ASSERT_EQ(fct_buckets.size(), fct_us.size());
  const ExperimentResult r = exp.Finish();

  EXPECT_EQ(r.churn_fct_us, fct_us);
  for (std::size_t b = 0; b < kNumFctBuckets; ++b) {
    SCOPED_TRACE(kFctBucketNames[b]);
    std::vector<double> sorted;
    for (std::size_t i = 0; i < fct_us.size(); ++i) {
      if (fct_buckets[i] == b) sorted.push_back(fct_us[i]);
    }
    std::sort(sorted.begin(), sorted.end());
    const auto nearest_rank = [&](double p) {
      if (sorted.empty()) return 0.0;
      const auto rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(sorted.size())));
      return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
    };
    const auto& bucket = r.churn_fct_bucket[b];
    EXPECT_EQ(bucket.count, sorted.size());
    EXPECT_EQ(bucket.p50_us, nearest_rank(50));
    EXPECT_EQ(bucket.p99_us, nearest_rank(99));
    EXPECT_EQ(bucket.p999_us, nearest_rank(99.9));
  }
  // The check covered more than one non-empty bucket.
  EXPECT_GT(r.churn_fct_bucket[0].count, 0u);
  EXPECT_GT(r.churn_fct_bucket[1].count, 0u);
}

TEST(RotorSweep, BucketMetricsRoundTripThroughSweepJson) {
  SweepResult sweep;
  sweep.jobs = 1;
  SweepCell cell;
  cell.label = "tdtcp";
  cell.variant = Variant::kTdtcp;
  SweepRun run;
  run.seed = 1;
  run.result = RunExperiment(RotorChurnConfig(RackPolicy::kUniform));
  cell.duration = run.result.duration;
  cell.runs.push_back(std::move(run));
  cell.metrics = AggregateRuns(cell.runs);
  sweep.cells.push_back(std::move(cell));

  const std::string json = SweepToJson(sweep);
  // The per-bucket family is on the wire...
  EXPECT_NE(json.find("churn_fct_s_p99_us"), std::string::npos);
  EXPECT_NE(json.find("churn_fct_xl_count"), std::string::npos);
  // ...and SweepFromJson reads it back through the metric table.
  const SweepResult parsed = SweepFromJson(json);
  ASSERT_EQ(parsed.cells.size(), 1u);
  ASSERT_EQ(parsed.cells[0].runs.size(), 1u);
  const ExperimentResult& orig = sweep.cells[0].runs[0].result;
  const ExperimentResult& back = parsed.cells[0].runs[0].result;
  for (std::size_t b = 0; b < kNumFctBuckets; ++b) {
    SCOPED_TRACE(kFctBucketNames[b]);
    EXPECT_EQ(back.churn_fct_bucket[b].count, orig.churn_fct_bucket[b].count);
    EXPECT_DOUBLE_EQ(back.churn_fct_bucket[b].p50_us,
                     orig.churn_fct_bucket[b].p50_us);
    EXPECT_DOUBLE_EQ(back.churn_fct_bucket[b].p99_us,
                     orig.churn_fct_bucket[b].p99_us);
    EXPECT_DOUBLE_EQ(back.churn_fct_bucket[b].p999_us,
                     orig.churn_fct_bucket[b].p999_us);
  }
}

TEST(RotorSweep, FixedPairChurnStillRunsOnPairFabric) {
  // The legacy single-process fixed-pair path must keep working untouched
  // (the paper's two-rack churn benches ride on it).
  ExperimentConfig cfg = PaperConfig(Variant::kCubic)
                             .WithDurationMs(8)
                             .WithSampling(false, false)
                             .WithChurn(200);
  const ExperimentResult r = RunExperiment(cfg);
  EXPECT_TRUE(r.churn_all_closed);
  EXPECT_EQ(r.churn.opened, 200u);
  // Uniform 1..10-segment transfers span the s and m buckets.
  EXPECT_EQ(r.churn_fct_bucket[0].count + r.churn_fct_bucket[1].count,
            r.churn_fct_us.size());
}

}  // namespace
}  // namespace tdtcp
