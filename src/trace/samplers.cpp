#include "trace/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace tdtcp {

namespace {

// Where week folding starts: the fixed sampling interval (SeriesSampler
// guarantees one), whole samples per week, and the index of the first sample
// at or after the first week boundary past `warmup`. per_week is 0 when the
// input cannot be folded.
struct WeekGrid {
  SimTime interval;
  std::size_t per_week = 0;
  std::size_t start = 0;
};

WeekGrid AlignWeeks(const std::vector<Sample>& samples, SimTime week,
                    SimTime warmup) {
  WeekGrid g;
  if (samples.size() < 2 || week <= SimTime::Zero()) return g;
  g.interval = samples[1].t - samples[0].t;
  if (g.interval <= SimTime::Zero()) return g;
  g.per_week = static_cast<std::size_t>(week / g.interval);
  if (g.per_week == 0) return g;

  SimTime aligned_start = samples.front().t + warmup;
  const SimTime rem = aligned_start % week;
  if (!rem.IsZero()) aligned_start += week - rem;
  while (g.start < samples.size() && samples[g.start].t < aligned_start) {
    ++g.start;
  }
  return g;
}

// Averages each offset over the complete weeks from g.start and tiles the
// result `plot_weeks` times. A counter is taken relative to its week's first
// sample, and its week closes on the next week's first sample: that closing
// point is the weekly gain each later tile adds, and tiles share it.
std::vector<FoldedPoint> Fold(const std::vector<Sample>& samples, SimTime week,
                              SimTime warmup, int plot_weeks, bool counter) {
  std::vector<FoldedPoint> out;
  const WeekGrid g = AlignWeeks(samples, week, warmup);
  if (g.per_week == 0) return out;
  const std::size_t points = g.per_week + (counter ? 1 : 0);
  std::vector<double> sums(points, 0.0);
  std::size_t weeks = 0;
  for (std::size_t w = g.start; w + points <= samples.size();
       w += g.per_week) {
    const double base = counter ? samples[w].value : 0.0;
    for (std::size_t k = 0; k < points; ++k) {
      sums[k] += samples[w + k].value - base;
    }
    ++weeks;
  }
  if (weeks == 0) return out;

  const double weekly_gain = counter ? sums[g.per_week] / weeks : 0.0;
  for (int pw = 0; pw < plot_weeks; ++pw) {
    for (std::size_t k = counter && pw > 0 ? 1 : 0; k < points; ++k) {
      FoldedPoint p;
      p.offset_us = (g.interval * static_cast<std::int64_t>(k)).micros_f() +
                    week.micros_f() * pw;
      p.mean = sums[k] / weeks + weekly_gain * pw;
      out.push_back(p);
    }
  }
  return out;
}

}  // namespace

std::vector<FoldedPoint> FoldWeeks(const std::vector<Sample>& samples,
                                   SimTime week, SimTime warmup,
                                   int plot_weeks) {
  return Fold(samples, week, warmup, plot_weeks, /*counter=*/true);
}

std::vector<FoldedPoint> FoldLevels(const std::vector<Sample>& samples,
                                    SimTime week, SimTime warmup,
                                    int plot_weeks) {
  return Fold(samples, week, warmup, plot_weeks, /*counter=*/false);
}

std::vector<double> PerWeekDeltas(const std::vector<Sample>& samples,
                                  SimTime week, SimTime warmup) {
  std::vector<double> out;
  const WeekGrid g = AlignWeeks(samples, week, warmup);
  if (g.per_week == 0) return out;
  for (std::size_t w = g.start; w + g.per_week < samples.size();
       w += g.per_week) {
    out.push_back(samples[w + g.per_week].value - samples[w].value);
  }
  return out;
}

std::vector<CdfPoint> MakeCdf(std::vector<double> values) {
  std::vector<CdfPoint> out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    out.push_back(CdfPoint{values[i], static_cast<double>(i + 1) / n});
  }
  return out;
}

double Percentile(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double idx = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(idx));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(idx));
  if (lo == hi) return sorted[lo];
  const double frac = idx - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<double> PercentilesNearestRank(std::vector<double> values,
                                           std::initializer_list<double> ps) {
  if (values.empty()) return std::vector<double>(ps.size(), 0.0);
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  std::vector<double> out;
  out.reserve(ps.size());
  for (const double p : ps) {
    std::size_t rank =
        static_cast<std::size_t>(std::ceil(p / 100.0 * n));  // 1-based
    if (rank < 1) rank = 1;
    if (rank > values.size()) rank = values.size();
    out.push_back(values[rank - 1]);
  }
  return out;
}

double PercentileNearestRank(const std::vector<double>& values, double p) {
  return PercentilesNearestRank(values, {p})[0];
}

void WriteSeriesCsv(const std::string& path,
                    const std::vector<NamedSeries>& series) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  f << "offset_us";
  for (const auto& s : series) f << "," << s.name;
  f << "\n";
  if (series.empty()) return;
  const std::size_t rows = series.front().points.size();
  for (std::size_t i = 0; i < rows; ++i) {
    f << series.front().points[i].offset_us;
    for (const auto& s : series) {
      f << ",";
      if (i < s.points.size()) f << s.points[i].mean;
    }
    f << "\n";
  }
}

void WriteCdfCsv(const std::string& path, const std::string& name,
                 const std::vector<CdfPoint>& cdf) {
  std::ofstream f(path);
  if (!f) throw std::runtime_error("cannot open " + path);
  f << name << ",cdf\n";
  for (const auto& p : cdf) f << p.value << "," << p.probability << "\n";
}

}  // namespace tdtcp
