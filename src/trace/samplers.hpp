// Instrumentation: periodic probes, week-folded averaging for the paper's
// "expected TCP sequence number" graphs, per-day counters for Fig. 10's
// CDFs, and CSV/console output helpers.
#pragma once

#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace tdtcp {

struct Sample {
  SimTime t;
  double value;
};

// Samples `probe` every `interval` until stopped (or forever).
class SeriesSampler {
 public:
  SeriesSampler(Simulator& sim, SimTime interval, std::function<double()> probe)
      : sim_(sim), interval_(interval), probe_(std::move(probe)) {}

  void Start() { Tick(); }

  const std::vector<Sample>& samples() const { return samples_; }

 private:
  void Tick() {
    samples_.push_back(Sample{sim_.now(), probe_()});
    sim_.ScheduleNoCancel(interval_, [this] { Tick(); });
  }

  Simulator& sim_;
  SimTime interval_;
  std::function<double()> probe_;
  std::vector<Sample> samples_;
};

// The paper's sequence graphs average "results across thousands of optical
// weeks". FoldWeeks aligns samples to week boundaries after `warmup`, takes
// each week's progress relative to its own start, and averages per offset:
// the result is the expected progress curve over one (or `plot_weeks`)
// week(s), re-expanded by tiling the expected weekly gain.
struct FoldedPoint {
  double offset_us;  // time since the start of the plotted window
  double mean;       // expected value delta since window start
};

std::vector<FoldedPoint> FoldWeeks(const std::vector<Sample>& samples,
                                   SimTime week, SimTime warmup,
                                   int plot_weeks = 1);

// FoldWeeks for a level (a queue occupancy), not a counter: averages the raw
// value at each offset over complete weeks, one point per sample of the week
// (no closing boundary point), tiled `plot_weeks` times without a gain.
std::vector<FoldedPoint> FoldLevels(const std::vector<Sample>& samples,
                                    SimTime week, SimTime warmup,
                                    int plot_weeks = 1);

// Per-week deltas of a monotonically increasing counter, aligned to week
// boundaries after `warmup` (Fig. 10 bins its counters per optical day; with
// one optical day per week the two are the same).
std::vector<double> PerWeekDeltas(const std::vector<Sample>& samples,
                                  SimTime week, SimTime warmup);

// Empirical CDF rows: (value, cumulative probability), values ascending.
struct CdfPoint {
  double value;
  double probability;
};
std::vector<CdfPoint> MakeCdf(std::vector<double> values);
// Linear-interpolated percentile (matplotlib-style): idx = p/100 * (N-1),
// lerp between the bracketing order statistics. Smooth for plotting curves.
double Percentile(const std::vector<double>& values, double p);
// Nearest-rank percentile: the ceil(p/100 * N)-th order statistic (1-based),
// clamped to [1, N]; empty input returns 0. Always an observed sample — the
// right semantics for tail gating (p99 of N=2 is the max, not an average),
// and what the FCT reporting uses.
double PercentileNearestRank(const std::vector<double>& values, double p);
// The nearest-rank percentiles of `values` at each of `ps`, in order, from
// one sort: the values PercentileNearestRank returns one call at a time.
// Move `values` in to sort the caller's storage instead of a copy.
std::vector<double> PercentilesNearestRank(std::vector<double> values,
                                           std::initializer_list<double> ps);

// --- output helpers ---------------------------------------------------------

// Writes "col1,col2,..." rows; each series is a named column sharing the x
// grid of the first.
struct NamedSeries {
  std::string name;
  std::vector<FoldedPoint> points;
};

void WriteSeriesCsv(const std::string& path, const std::vector<NamedSeries>& series);
void WriteCdfCsv(const std::string& path, const std::string& name,
                 const std::vector<CdfPoint>& cdf);

}  // namespace tdtcp
