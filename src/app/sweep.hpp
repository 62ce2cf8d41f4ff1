// Thread-parallel experiment sweep engine.
//
// Every figure in the paper is "dozens-to-hundreds of deterministic optical
// weeks" per configuration point, and points are embarrassingly parallel:
// RunExperiment shares no mutable state between calls, so a sweep is a grid
// of (variant x schedule x duration x seed) cells executed by a fixed-size
// thread pool where each worker owns a private Simulator/Random/Topology
// (constructed inside RunExperiment). Determinism is a hard contract:
// results for a given (config, seed) are bit-identical at jobs=1 and
// jobs=N — cells are expanded in a fixed order up front and each task
// writes only its own preassigned slot.
//
// Cross-seed aggregation (mean, stddev, 95% CI per scalar metric) turns the
// per-seed results into the statistics the paper's averaged figures need.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "app/experiment.hpp"

namespace tdtcp {

// --- generic parallel driver ------------------------------------------------

// Resolves a --jobs value: n > 0 is taken literally, 0 means "one worker
// per hardware thread".
int ResolveJobs(int jobs);

// Runs fn(0..n-1) on `jobs` worker threads (capped at n; jobs <= 1 runs
// inline). fn must be safe to call concurrently for distinct indices. The
// first exception thrown by any task is rethrown after all workers join.
void ParallelFor(int jobs, std::size_t n,
                 const std::function<void(std::size_t)>& fn);

// --- cross-seed statistics --------------------------------------------------

struct MetricStats {
  double mean = 0;
  double stddev = 0;  // sample standard deviation (n-1 denominator)
  double ci95 = 0;    // half-width: t_{0.975, n-1} * stddev / sqrt(n)
  std::size_t n = 0;
};

MetricStats ComputeStats(const std::vector<double>& values);

// One scalar metric of an ExperimentResult: how to read it and, unless it
// is derived from other entries (churn_abnormal), how to write it back.
struct MetricDef {
  std::string name;
  std::function<double(const ExperimentResult&)> get;
  std::function<void(ExperimentResult&, double)> set;  // empty if derived
};

// The only list of the metrics a sweep reports. Aggregation, the
// tdtcp-sweep/1 writer and reader, and the CSV columns all iterate it, in
// this order. New entries go at the end: fixtures pin the leading ones.
const std::vector<MetricDef>& MetricTable();

// The table's values for one result, as (name, value) pairs.
std::vector<std::pair<std::string, double>> ScalarMetrics(
    const ExperimentResult& r);

// --- the sweep grid ---------------------------------------------------------

// One named schedule variation (the "schedule override" axis).
struct SchedulePoint {
  std::string label;
  ScheduleConfig schedule;
};

// One named queue-discipline variation (the "qdisc override" axis). The
// config is applied to the base *before* WithVariant, so a variant's own
// queue knobs (DCTCP's ECN threshold) compose with any discipline.
struct QdiscPoint {
  std::string label;
  QueueDisc::Config qdisc;
};

struct SweepSpec {
  // Shared defaults; each cell derives from a copy of this.
  ExperimentConfig base;

  // Grid axes. An empty axis means "just the base config's value".
  std::vector<Variant> variants;
  std::vector<std::uint64_t> seeds;
  std::vector<SimTime> durations;
  std::vector<SchedulePoint> schedules;
  std::vector<QdiscPoint> qdiscs;

  // Worker threads; 0 = hardware concurrency.
  int jobs = 1;
};

// A fully-resolved run: the unit of work the pool executes. Label is free
// text for tables/CSV ("tdtcp", "-relaxed", ...); the axis labels are also
// carried individually so downstream grouping never parses the label.
struct SweepCase {
  std::string label;
  ExperimentConfig config;
  // Axis labels (after `config` so the common {label, config} aggregate
  // init keeps working, warning-free): empty for the base schedule/qdisc.
  std::string schedule_label{};
  std::string qdisc_label{};
};

// One grid cell = one (variant, schedule, duration) point, holding the
// per-seed results (ordered exactly as spec.seeds) plus cross-seed
// aggregates keyed by metric name.
struct SweepRun {
  std::uint64_t seed = 0;
  ExperimentResult result;
};

struct SweepCell {
  std::string label;            // variant name (+ "/schedule" + "/qdisc")
  Variant variant = Variant::kTdtcp;
  std::string schedule_label;   // empty for the base schedule
  std::string qdisc_label;      // empty for the base qdisc
  SimTime duration;
  std::vector<SweepRun> runs;
  std::vector<std::pair<std::string, MetricStats>> metrics;
};

struct SweepResult {
  std::vector<SweepCell> cells;  // fixed grid order: variant-major
  int jobs = 1;                  // resolved worker count actually used
  double wall_seconds = 0;
};

// Expands the grid in deterministic order (variant-major, then schedule,
// then qdisc, then duration): cell i covers seeds [i*K, (i+1)*K).
std::vector<SweepCase> ExpandGrid(const SweepSpec& spec);

// Runs the whole grid on the pool and aggregates across seeds.
SweepResult RunSweep(const SweepSpec& spec);

// Lower-level entry for benches whose axis is not expressible as the
// standard grid (ablation rows, notification on/off, ...): runs each
// fully-resolved case on the pool; results arrive in input order.
std::vector<ExperimentResult> RunCases(const std::vector<SweepCase>& cases,
                                       int jobs);

// Groups RunCases output (results in case order) into cells: each run of
// `seeds_per_cell` consecutive cases is one cell, labelled by its first case
// and aggregated across those cases' seeds.
std::vector<SweepCell> GroupCells(const std::vector<SweepCase>& cases,
                                  std::vector<ExperimentResult> results,
                                  std::size_t seeds_per_cell);

// Re-aggregates a cell's runs (exposed for tests and custom pipelines).
std::vector<std::pair<std::string, MetricStats>> AggregateRuns(
    const std::vector<SweepRun>& runs);

}  // namespace tdtcp
