#include "trace/samplers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace tdtcp {

std::vector<FoldedPoint> FoldWeeks(const std::vector<Sample>& samples,
                                   SimTime week, SimTime warmup,
                                   int plot_weeks) {
  std::vector<FoldedPoint> out;
  if (samples.size() < 2 || week <= SimTime::Zero()) return out;

  // Assume a fixed sampling interval (SeriesSampler guarantees it).
  const SimTime interval = samples[1].t - samples[0].t;
  if (interval <= SimTime::Zero()) return out;
  const std::int64_t per_week = week / interval;
  if (per_week <= 0) return out;

  // First sample index at/after the first week boundary past warmup.
  const SimTime t0 = samples.front().t;
  SimTime aligned_start = t0 + warmup;
  const SimTime rem = aligned_start % week;
  if (!rem.IsZero()) aligned_start += week - rem;
  std::size_t start = 0;
  while (start < samples.size() && samples[start].t < aligned_start) ++start;

  // Average per-offset progress across complete weeks.
  std::vector<double> sums(static_cast<std::size_t>(per_week) + 1, 0.0);
  std::size_t weeks = 0;
  for (std::size_t w = start;
       w + static_cast<std::size_t>(per_week) < samples.size();
       w += static_cast<std::size_t>(per_week)) {
    const double base = samples[w].value;
    for (std::int64_t k = 0; k <= per_week; ++k) {
      sums[static_cast<std::size_t>(k)] += samples[w + static_cast<std::size_t>(k)].value - base;
    }
    ++weeks;
  }
  if (weeks == 0) return out;

  const double weekly_gain = sums[static_cast<std::size_t>(per_week)] / weeks;
  for (int pw = 0; pw < plot_weeks; ++pw) {
    // Skip the duplicated boundary point on subsequent tiles.
    const std::int64_t first = pw == 0 ? 0 : 1;
    for (std::int64_t k = first; k <= per_week; ++k) {
      FoldedPoint p;
      p.offset_us = (interval * k).micros_f() + week.micros_f() * pw;
      p.mean = sums[static_cast<std::size_t>(k)] / weeks + weekly_gain * pw;
      out.push_back(p);
    }
  }
  return out;
}

std::vector<double> PerWeekDeltas(const std::vector<Sample>& samples,
                                  SimTime week, SimTime warmup) {
  std::vector<double> out;
  if (samples.size() < 2 || week <= SimTime::Zero()) return out;
  const SimTime interval = samples[1].t - samples[0].t;
  const std::int64_t per_week = week / interval;
  if (per_week <= 0) return out;

  const SimTime t0 = samples.front().t;
  SimTime aligned_start = t0 + warmup;
  const SimTime rem = aligned_start % week;
  if (!rem.IsZero()) aligned_start += week - rem;
  std::size_t start = 0;
  while (start < samples.size() && samples[start].t < aligned_start) ++start;

  for (std::size_t w = start;
       w + static_cast<std::size_t>(per_week) < samples.size();
       w += static_cast<std::size_t>(per_week)) {
    out.push_back(samples[w + static_cast<std::size_t>(per_week)].value -
                  samples[w].value);
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

double PercentileNearestRank(const std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const double n = static_cast<double>(sorted.size());
  std::size_t rank =
      static_cast<std::size_t>(std::ceil(p / 100.0 * n));  // 1-based
  if (rank < 1) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
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
