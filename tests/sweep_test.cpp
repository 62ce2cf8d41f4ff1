// The thread-parallel sweep engine (app/sweep) and its result emission
// (app/result_io): determinism across job counts, aggregation math, grid
// expansion, and the tdtcp-sweep/1 JSON round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "app/result_io.hpp"
#include "app/sweep.hpp"

namespace tdtcp {
namespace {

// A short paper-config run: two 1400us optical weeks, no sampling overhead.
ExperimentConfig TinyConfig(Variant v) {
  return PaperConfig(v)
      .WithFlows(2)
      .WithDuration(SimTime::Micros(2800))
      .WithWarmup(SimTime::Micros(1400))
      .WithSampling(false, false)
      .WithSampleInterval(SimTime::Micros(100))
      .WithPlotWeeks(1);
}

SweepSpec TinySpec(int jobs) {
  SweepSpec spec;
  spec.base = TinyConfig(Variant::kTdtcp);
  spec.variants = {Variant::kTdtcp, Variant::kCubic};
  spec.seeds = {1, 2, 3};
  spec.jobs = jobs;
  return spec;
}

// ---------------------------------------------------------------------------
// ParallelFor / ResolveJobs
// ---------------------------------------------------------------------------

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(257);
  for (auto& h : hits) h = 0;
  ParallelFor(4, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, RunsInlineWithOneJob) {
  int sum = 0;  // no atomics needed: jobs=1 must not spawn threads
  ParallelFor(1, 10, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelFor, PropagatesFirstException) {
  EXPECT_THROW(ParallelFor(4, 64,
                           [](std::size_t i) {
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
}

TEST(ResolveJobs, PositivePassesThroughZeroMeansHardware) {
  EXPECT_EQ(ResolveJobs(3), 3);
  EXPECT_GE(ResolveJobs(0), 1);
}

// ---------------------------------------------------------------------------
// Aggregation math, against hand-computed fixtures
// ---------------------------------------------------------------------------

TEST(ComputeStats, HandComputedFixture) {
  // {4, 8, 6, 2}: mean 5, sample variance (1+9+1+9)/3 = 20/3.
  const MetricStats s = ComputeStats({4, 8, 6, 2});
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(20.0 / 3.0), 1e-12);
  // 95% CI half-width with t_{0.975, df=3} = 3.182.
  EXPECT_NEAR(s.ci95, 3.182 * std::sqrt(20.0 / 3.0) / 2.0, 1e-9);
}

TEST(ComputeStats, SingleValueHasNoSpread) {
  const MetricStats s = ComputeStats({42.0});
  EXPECT_EQ(s.n, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 42.0);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(ComputeStats, LargeSampleUsesNormalCritical) {
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(i % 2 ? 1.0 : -1.0);
  const MetricStats s = ComputeStats(v);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
  const double stddev = std::sqrt(100.0 / 99.0);
  EXPECT_NEAR(s.stddev, stddev, 1e-12);
  EXPECT_NEAR(s.ci95, 1.96 * stddev / 10.0, 1e-9);  // df=99 -> z
}

TEST(AggregateRuns, AggregatesEveryScalarMetricAcrossSeeds) {
  SweepRun a, b;
  a.seed = 1;
  a.result.goodput_bps = 10e9;
  a.result.retransmissions = 100;
  b.seed = 2;
  b.result.goodput_bps = 20e9;
  b.result.retransmissions = 300;
  const auto metrics = AggregateRuns({a, b});
  ASSERT_EQ(metrics.size(), ScalarMetrics(a.result).size());
  EXPECT_EQ(metrics[0].first, "goodput_bps");
  EXPECT_DOUBLE_EQ(metrics[0].second.mean, 15e9);
  bool found_rtx = false;
  for (const auto& [name, st] : metrics) {
    if (name == "retransmissions") {
      found_rtx = true;
      EXPECT_DOUBLE_EQ(st.mean, 200.0);
      EXPECT_NEAR(st.stddev, std::sqrt(2.0) * 100.0, 1e-9);
      // t_{0.975, df=1} = 12.706.
      EXPECT_NEAR(st.ci95, 12.706 * std::sqrt(2.0) * 100.0 / std::sqrt(2.0),
                  1e-6);
    }
  }
  EXPECT_TRUE(found_rtx);
}

// ---------------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------------

TEST(ExpandGrid, VariantMajorOrderAndSeedBlocks) {
  SweepSpec spec = TinySpec(1);
  spec.schedules.push_back({"relaxed", spec.base.schedule});
  const auto cases = ExpandGrid(spec);
  // 2 variants x 1 schedule x 1 duration x 3 seeds.
  ASSERT_EQ(cases.size(), 6u);
  EXPECT_EQ(cases[0].label, "tdtcp/relaxed");
  EXPECT_EQ(cases[3].label, "cubic/relaxed");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(cases[static_cast<std::size_t>(i)].config.seed,
              static_cast<std::uint64_t>(i + 1));
    EXPECT_EQ(cases[static_cast<std::size_t>(i)].config.workload.variant,
              Variant::kTdtcp);
    EXPECT_EQ(cases[static_cast<std::size_t>(i + 3)].config.workload.variant,
              Variant::kCubic);
  }
}

TEST(ExpandGrid, EmptyAxesFallBackToBase) {
  SweepSpec spec;
  spec.base = TinyConfig(Variant::kDctcp);
  spec.base.seed = 7;
  const auto cases = ExpandGrid(spec);
  ASSERT_EQ(cases.size(), 1u);
  EXPECT_EQ(cases[0].config.seed, 7u);
  EXPECT_EQ(cases[0].config.workload.variant, Variant::kDctcp);
  EXPECT_EQ(cases[0].config.duration, spec.base.duration);
}

// ---------------------------------------------------------------------------
// Determinism: jobs=1 and jobs=4 must be bit-identical per seed
// ---------------------------------------------------------------------------

void ExpectIdenticalResults(const ExperimentResult& a,
                            const ExperimentResult& b) {
  // goodput_bps is a double computed from event-exact byte counts: bitwise
  // equality is the contract, not approximate equality.
  EXPECT_EQ(a.goodput_bps, b.goodput_bps);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
  EXPECT_EQ(a.retransmissions, b.retransmissions);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.reorder_events, b.reorder_events);
  EXPECT_EQ(a.duplicate_segments, b.duplicate_segments);
  EXPECT_EQ(a.cross_tdn_exemptions, b.cross_tdn_exemptions);
  ASSERT_EQ(a.seq_samples.size(), b.seq_samples.size());
  for (std::size_t i = 0; i < a.seq_samples.size(); ++i) {
    EXPECT_EQ(a.seq_samples[i].t, b.seq_samples[i].t);
    EXPECT_EQ(a.seq_samples[i].value, b.seq_samples[i].value);
  }
}

TEST(RunSweep, BitIdenticalAcrossJobCounts) {
  const SweepResult serial = RunSweep(TinySpec(1));
  const SweepResult parallel = RunSweep(TinySpec(4));
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  EXPECT_EQ(serial.jobs, 1);
  EXPECT_EQ(parallel.jobs, 4);
  for (std::size_t c = 0; c < serial.cells.size(); ++c) {
    const SweepCell& sc = serial.cells[c];
    const SweepCell& pc = parallel.cells[c];
    EXPECT_EQ(sc.label, pc.label);
    ASSERT_EQ(sc.runs.size(), 3u);
    ASSERT_EQ(pc.runs.size(), 3u);
    for (std::size_t r = 0; r < sc.runs.size(); ++r) {
      EXPECT_EQ(sc.runs[r].seed, pc.runs[r].seed);
      ExpectIdenticalResults(sc.runs[r].result, pc.runs[r].result);
    }
    // Aggregates derive from identical inputs in identical order.
    ASSERT_EQ(sc.metrics.size(), pc.metrics.size());
    for (std::size_t m = 0; m < sc.metrics.size(); ++m) {
      EXPECT_EQ(sc.metrics[m].first, pc.metrics[m].first);
      EXPECT_EQ(sc.metrics[m].second.mean, pc.metrics[m].second.mean);
      EXPECT_EQ(sc.metrics[m].second.ci95, pc.metrics[m].second.ci95);
    }
  }
}

TEST(RunCases, ResultsArriveInInputOrder) {
  std::vector<SweepCase> cases = {
      {"tdtcp", TinyConfig(Variant::kTdtcp)},
      {"cubic", TinyConfig(Variant::kCubic)},
      {"dctcp", TinyConfig(Variant::kDctcp)},
  };
  const auto results = RunCases(cases, 3);
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(results[0].variant, Variant::kTdtcp);
  EXPECT_EQ(results[1].variant, Variant::kCubic);
  EXPECT_EQ(results[2].variant, Variant::kDctcp);
  for (const auto& r : results) EXPECT_GT(r.total_bytes, 0u);
}

// ---------------------------------------------------------------------------
// tdtcp-sweep/1 JSON round-trip
// ---------------------------------------------------------------------------

TEST(ResultIo, JsonRoundTripPreservesScalars) {
  SweepSpec spec = TinySpec(2);
  spec.seeds = {1, 2};
  const SweepResult sweep = RunSweep(spec);
  const std::string json = SweepToJson(sweep);
  EXPECT_NE(json.find(kSweepSchemaVersion), std::string::npos);

  const SweepResult back = SweepFromJson(json);
  EXPECT_EQ(back.jobs, sweep.jobs);
  ASSERT_EQ(back.cells.size(), sweep.cells.size());
  for (std::size_t c = 0; c < sweep.cells.size(); ++c) {
    const SweepCell& orig = sweep.cells[c];
    const SweepCell& rt = back.cells[c];
    EXPECT_EQ(rt.label, orig.label);
    EXPECT_EQ(rt.variant, orig.variant);
    EXPECT_EQ(rt.duration, orig.duration);
    ASSERT_EQ(rt.runs.size(), orig.runs.size());
    for (std::size_t r = 0; r < orig.runs.size(); ++r) {
      EXPECT_EQ(rt.runs[r].seed, orig.runs[r].seed);
      // %.17g round-trips doubles exactly.
      for (const auto& [name, value] : ScalarMetrics(orig.runs[r].result)) {
        bool matched = false;
        for (const auto& [rn, rv] : ScalarMetrics(rt.runs[r].result)) {
          if (rn == name) {
            matched = true;
            EXPECT_EQ(rv, value) << name;
          }
        }
        EXPECT_TRUE(matched) << name;
      }
    }
    ASSERT_EQ(rt.metrics.size(), orig.metrics.size());
    for (std::size_t m = 0; m < orig.metrics.size(); ++m) {
      EXPECT_EQ(rt.metrics[m].first, orig.metrics[m].first);
      EXPECT_EQ(rt.metrics[m].second.mean, orig.metrics[m].second.mean);
      EXPECT_EQ(rt.metrics[m].second.stddev, orig.metrics[m].second.stddev);
      EXPECT_EQ(rt.metrics[m].second.ci95, orig.metrics[m].second.ci95);
      EXPECT_EQ(rt.metrics[m].second.n, orig.metrics[m].second.n);
    }
  }
}

TEST(ResultIo, RejectsWrongSchema) {
  EXPECT_THROW(SweepFromJson("{\"schema\":\"tdtcp-sweep/999\",\"cells\":[]}"),
               std::runtime_error);
  EXPECT_THROW(SweepFromJson("not json at all"), std::runtime_error);
}

TEST(ResultIo, ParseJsonHandlesWriterSubset) {
  const JsonValue v = ParseJson(
      "{\"a\": [1, 2.5, -3e2], \"b\": \"x\\\"y\", \"c\": {\"d\": null}}");
  ASSERT_EQ(v.type, JsonValue::Type::kObject);
  const JsonValue* a = v.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -300.0);
  EXPECT_EQ(v.Find("b")->string, "x\"y");
  EXPECT_EQ(v.Find("c")->Find("d")->type, JsonValue::Type::kNull);
}

TEST(ResultIo, MalformedInputIsRejectedNotUndefinedBehavior) {
  // Each of these used to be UB or an uncaught std::stod/stoi exception;
  // all must surface as a clear runtime_error.
  const char* bad[] = {
      "",                         // empty input
      "{",                        // truncated object
      "[1, 2",                    // truncated array
      "{\"a\": }",                // missing value
      "{\"a\" 1}",                // missing colon
      "\"unterminated",           // unterminated string
      "{\"a\": 1} trailing",      // trailing characters
      "1e",                       // malformed number (stod would throw)
      "-",                        // sign with no digits
      "1.2.3",                    // number with junk suffix
      "1e999999",                 // overflow
      "\"\\uzzzz\"",              // non-hex \u escape
      "\"\\u12",                  // truncated \u escape
      "\"\\q\"",                  // unsupported escape
      "nul",                      // truncated literal
  };
  for (const char* text : bad) {
    EXPECT_THROW(ParseJson(text), std::runtime_error) << "input: " << text;
  }
}

TEST(ResultIo, DeeplyNestedInputFailsInsteadOfOverflowingStack) {
  // "[[[[..." would recurse once per byte without a depth limit.
  const std::string bomb(100'000, '[');
  EXPECT_THROW(ParseJson(bomb), std::runtime_error);
  const std::string obj_bomb = [] {
    std::string s;
    for (int i = 0; i < 10'000; ++i) s += "{\"a\":";
    return s;
  }();
  EXPECT_THROW(ParseJson(obj_bomb), std::runtime_error);
}

TEST(ResultIo, TruncatedSweepJsonAlwaysThrowsCleanly) {
  // Fuzz-ish: every prefix of a real sweep document must either parse (only
  // the full document can) or throw runtime_error — never crash or return
  // garbage silently.
  SweepSpec spec = TinySpec(1);
  spec.variants = {Variant::kTdtcp};
  spec.seeds = {1};
  const std::string json = SweepToJson(RunSweep(spec));
  // Step through prefixes coarsely (every 7th byte) to keep runtime small,
  // plus the last 32 one-byte steps where the structure closes.
  std::vector<std::size_t> cuts;
  for (std::size_t n = 0; n < json.size(); n += 7) cuts.push_back(n);
  for (std::size_t n = json.size() > 32 ? json.size() - 32 : 0;
       n < json.size(); ++n) {
    cuts.push_back(n);
  }
  for (std::size_t n : cuts) {
    EXPECT_THROW(SweepFromJson(json.substr(0, n)), std::runtime_error)
        << "prefix length " << n;
  }
  // Corrupted interior bytes: flip structural characters to junk. Any
  // outcome is fine except UB: either it still parses (benign mutation) or
  // it throws a clear exception (parse error, unknown variant name, ...).
  for (std::size_t i = 0; i < json.size(); i += 11) {
    std::string mutated = json;
    mutated[i] = '?';
    try {
      SweepFromJson(mutated);
    } catch (const std::exception&) {
      // expected for structural corruption
    }
  }
  // The intact document still parses.
  EXPECT_NO_THROW(SweepFromJson(json));
}

// ---------------------------------------------------------------------------
// The metric table
// ---------------------------------------------------------------------------

// Every settable entry moved off its default: a bool flipped, every other
// entry a distinct nonzero value. Values fall along the table, so
// churn_closed (earlier) exceeds churn_reason_normal (later) and the
// derived churn_abnormal is a plain positive count.
ExperimentResult EveryMetricSet() {
  const std::vector<MetricDef>& table = MetricTable();
  const ExperimentResult def{};
  ExperimentResult r;
  for (std::size_t i = 0; i < table.size(); ++i) {
    if (!table[i].set) continue;
    table[i].set(r, table[i].get(def) != 0
                        ? 0
                        : static_cast<double>(table.size() - i));
  }
  // Bits above the 53-bit fingerprint must not reach the output.
  r.trace_hash |= 1ull << 60;
  r.churn_hash |= 1ull << 60;
  return r;
}

std::vector<std::string> SplitCsv(const std::string& line) {
  std::vector<std::string> out(1);
  for (char c : line) {
    if (c == ',') out.emplace_back();
    else if (c != '\n') out.back() += c;
  }
  return out;
}

TEST(MetricTable, EveryEntryRoundTripsThroughJsonAndCsv) {
  const std::vector<MetricDef>& table = MetricTable();
  SweepCell cell;
  cell.label = "tdtcp";
  cell.duration = SimTime::Micros(2800);
  cell.runs.push_back(SweepRun{7, EveryMetricSet()});
  cell.metrics = AggregateRuns(cell.runs);
  SweepResult sweep;
  sweep.cells.push_back(cell);
  const ExperimentResult& orig = cell.runs[0].result;

  const SweepResult back = SweepFromJson(SweepToJson(sweep));
  ASSERT_EQ(back.cells.size(), 1u);
  ASSERT_EQ(back.cells[0].runs.size(), 1u);
  ASSERT_EQ(back.cells[0].metrics.size(), table.size());
  const ExperimentResult& rt = back.cells[0].runs[0].result;
  std::vector<std::string> lost;
  for (std::size_t i = 0; i < table.size(); ++i) {
    const MetricDef& m = table[i];
    const double want = m.get(orig);
    EXPECT_NE(want, m.get(ExperimentResult{})) << m.name;
    if (m.get(rt) != want) lost.push_back(m.name);
    EXPECT_EQ(back.cells[0].metrics[i].first, m.name);
    EXPECT_EQ(back.cells[0].metrics[i].second.mean, want) << m.name;
    EXPECT_EQ(back.cells[0].metrics[i].second.n, 1u) << m.name;
  }
  EXPECT_TRUE(lost.empty()) << "lost in the JSON round trip: " << [&] {
    std::string s;
    for (const std::string& name : lost) s += name + " ";
    return s;
  }();

  const std::string path = ::testing::TempDir() + "/metric_table.csv";
  WriteSweepCsv(path, sweep);
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::vector<std::vector<std::string>> rows;
  char line[16384];
  while (std::fgets(line, sizeof line, f)) rows.push_back(SplitCsv(line));
  std::fclose(f);
  std::remove(path.c_str());
  ASSERT_EQ(rows.size(), 1u + 1u + 3u);  // header, one run, mean/stddev/ci95
  const std::size_t kLead = 6;  // label,variant,schedule,qdisc,duration,seed
  ASSERT_EQ(rows[0].size(), kLead + table.size());
  for (const auto& row : rows) EXPECT_EQ(row.size(), rows[0].size());
  for (std::size_t i = 0; i < table.size(); ++i) {
    const double want = table[i].get(orig);
    EXPECT_EQ(rows[0][kLead + i], table[i].name);
    EXPECT_EQ(std::strtod(rows[1][kLead + i].c_str(), nullptr), want)
        << table[i].name;
    EXPECT_EQ(std::strtod(rows[2][kLead + i].c_str(), nullptr), want)
        << table[i].name;
  }
}

TEST(MetricTable, CloseReasonHistogramIsAppendedInReasonOrder) {
  const std::vector<MetricDef>& table = MetricTable();
  ASSERT_GE(table.size(), kNumCloseReasons);
  EXPECT_EQ(table[0].name, "goodput_bps");
  EXPECT_EQ(table[table.size() - kNumCloseReasons - 1].name, "tdn_reconfigs");
  const char* expected[kNumCloseReasons] = {
      "none",            "normal",      "peer_reset",      "connect_timeout",
      "syn_ack_timeout", "retry_limit", "persist_timeout", "user_abort"};
  for (std::size_t i = 0; i < kNumCloseReasons; ++i) {
    const MetricDef& m = table[table.size() - kNumCloseReasons + i];
    EXPECT_EQ(m.name, std::string("churn_reason_") + expected[i]);
    ExperimentResult r;
    r.churn.reasons[i] = 3;
    EXPECT_EQ(m.get(r), 3.0) << m.name;
  }
}

// A one-cell document with `field` replaced by `value`.
std::string OneCellDoc(const std::string& field, const std::string& value) {
  std::map<std::string, std::string> v = {{"jobs", "2"},
                                          {"duration_ps", "2800000000"},
                                          {"seed", "9"},
                                          {"n", "1"},
                                          {"timeouts", "5"}};
  if (!field.empty()) v[field] = value;
  return "{\"schema\":\"tdtcp-sweep/1\",\"jobs\":" + v["jobs"] +
         ",\"wall_seconds\":0,\"cells\":[{\"label\":\"tdtcp\","
         "\"variant\":\"tdtcp\",\"duration_ps\":" + v["duration_ps"] +
         ",\"runs\":[{\"seed\":" + v["seed"] +
         ",\"metrics\":{\"timeouts\":" + v["timeouts"] +
         ",\"no_such_metric\":\"ignored\"}}],\"aggregates\":{"
         "\"timeouts\":{\"mean\":5,\"stddev\":0,\"ci95\":0,\"n\":" +
         v["n"] + "},\"no_such_metric\":{}}}]}";
}

TEST(ResultIo, IntegerFieldsRejectNegativeFractionalAndHugeValues) {
  const SweepResult ok = SweepFromJson(OneCellDoc("", ""));
  EXPECT_EQ(ok.jobs, 2);
  ASSERT_EQ(ok.cells.size(), 1u);
  EXPECT_EQ(ok.cells[0].duration, SimTime::Micros(2800));
  ASSERT_EQ(ok.cells[0].runs.size(), 1u);
  EXPECT_EQ(ok.cells[0].runs[0].seed, 9u);
  EXPECT_EQ(ok.cells[0].runs[0].result.timeouts, 5u);
  ASSERT_EQ(ok.cells[0].metrics.size(), 1u);  // unknown names are ignored
  EXPECT_EQ(ok.cells[0].metrics[0].second.n, 1u);

  // 2^31 is one past INT_MAX (jobs); 2^63 one past INT64_MAX (duration_ps).
  const std::vector<std::pair<std::string, std::vector<std::string>>> bad = {
      {"jobs", {"-1", "1.5", "2147483648", "1e300"}},
      {"duration_ps", {"-1", "0.5", "9223372036854775808", "1e300"}},
      {"seed", {"-1", "2.5", "18446744073709551616", "1e300"}},
      {"n", {"-5", "1.5", "1e300"}},
      {"timeouts", {"-1", "0.5", "1e300", "\"5\""}},
  };
  for (const auto& [field, values] : bad) {
    for (const std::string& value : values) {
      EXPECT_THROW(SweepFromJson(OneCellDoc(field, value)), std::runtime_error)
          << field << "=" << value;
    }
  }
}

TEST(ResultIo, FileRoundTripAndCsv) {
  SweepSpec spec = TinySpec(2);
  spec.variants = {Variant::kTdtcp};
  spec.seeds = {1, 2};
  const SweepResult sweep = RunSweep(spec);
  const std::string json_path = ::testing::TempDir() + "/sweep_test.json";
  const std::string csv_path = ::testing::TempDir() + "/sweep_test.csv";
  WriteSweepJson(json_path, sweep);
  WriteSweepCsv(csv_path, sweep);
  const SweepResult back = ReadSweepJson(json_path);
  ASSERT_EQ(back.cells.size(), 1u);
  EXPECT_EQ(back.cells[0].runs.size(), 2u);
  // CSV has a header plus at least per-seed and aggregate rows.
  FILE* f = std::fopen(csv_path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[4096];
  ASSERT_NE(std::fgets(line, sizeof line, f), nullptr);
  EXPECT_EQ(std::string(line).rfind("label,variant,schedule,qdisc,duration_ms,seed",
                                    0), 0u);
  int rows = 0;
  while (std::fgets(line, sizeof line, f)) ++rows;
  std::fclose(f);
  EXPECT_GE(rows, 2 + 3);  // 2 seeds + mean/stddev/ci95
  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

}  // namespace
}  // namespace tdtcp
