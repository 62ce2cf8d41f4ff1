#include "trace/convergence.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <map>
#include <utility>

namespace tdtcp {

const char* ConvergenceVerdictName(ConvergenceVerdict v) {
  switch (v) {
    case ConvergenceVerdict::kInsufficient: return "insufficient";
    case ConvergenceVerdict::kConverged: return "converged";
    case ConvergenceVerdict::kOscillating: return "oscillating";
    case ConvergenceVerdict::kStarved: return "starved";
  }
  return "?";
}

SeriesVerdict ClassifySeries(const std::vector<CwndSample>& samples,
                             const ConvergenceConfig& config) {
  SeriesVerdict out;
  double sum = 0.0;
  std::uint32_t lo = 0, hi = 0;
  bool first = true;
  // Cycle detection state: one cycle = the series drops into the bottom
  // quarter of its range and later climbs into the top quarter. Two passes —
  // the bands depend on min/max, which need the full series first.
  std::vector<std::int64_t> kept_times;
  std::vector<std::uint32_t> kept_cwnds;
  for (const CwndSample& s : samples) {
    if (s.time_ps < config.from_ps) continue;
    kept_times.push_back(s.time_ps);
    kept_cwnds.push_back(s.cwnd);
    sum += s.cwnd;
    if (first) {
      lo = hi = s.cwnd;
      first = false;
    } else {
      lo = std::min(lo, s.cwnd);
      hi = std::max(hi, s.cwnd);
    }
  }
  out.num_points = kept_cwnds.size();
  if (out.num_points < kConvergenceMinPoints) {
    out.verdict = ConvergenceVerdict::kInsufficient;
    return out;
  }
  out.mean_cwnd = sum / static_cast<double>(out.num_points);
  const double range = static_cast<double>(hi) - static_cast<double>(lo);
  out.amplitude = hi > 0 ? range / static_cast<double>(hi) : 0.0;

  // Hysteresis-band traversals low -> high, recording when each cycle tops
  // out so period regularity can be judged.
  const double band_lo = static_cast<double>(lo) + 0.25 * range;
  const double band_hi = static_cast<double>(hi) - 0.25 * range;
  std::vector<std::int64_t> cycle_tops;
  bool armed = false;  // saw the bottom band since the last top
  for (std::size_t i = 0; i < kept_cwnds.size(); ++i) {
    const double c = kept_cwnds[i];
    if (c <= band_lo) armed = true;
    if (armed && c >= band_hi) {
      cycle_tops.push_back(kept_times[i]);
      armed = false;
    }
  }
  out.cycles = cycle_tops.size();
  double period_cv = 0.0;
  if (cycle_tops.size() >= 2) {
    std::vector<double> periods;
    periods.reserve(cycle_tops.size() - 1);
    for (std::size_t i = 1; i < cycle_tops.size(); ++i) {
      periods.push_back(static_cast<double>(cycle_tops[i] - cycle_tops[i - 1]));
    }
    double psum = 0.0;
    for (double p : periods) psum += p;
    const double pmean = psum / static_cast<double>(periods.size());
    double var = 0.0;
    for (double p : periods) var += (p - pmean) * (p - pmean);
    var /= static_cast<double>(periods.size());
    period_cv = pmean > 0.0 ? std::sqrt(var) / pmean : 0.0;
    out.period_us = pmean / 1e6;  // ps -> us
  }

  const bool oscillating = out.amplitude >= kOscAmplitude &&
                           out.cycles >= kOscMinCycles &&
                           period_cv <= kOscMaxPeriodCv;
  if (oscillating) {
    out.verdict = ConvergenceVerdict::kOscillating;
  } else if (out.mean_cwnd <= kStarvedCwnd) {
    out.verdict = ConvergenceVerdict::kStarved;
  } else {
    out.verdict = ConvergenceVerdict::kConverged;
  }
  return out;
}

ConvergenceReport ClassifyConvergence(const std::vector<TraceRecord>& records,
                                      const ConvergenceConfig& config) {
  // std::map: deterministic (flow, tdn) iteration order, so the report rows
  // (and the scalar rollups fed into result hashes) never depend on hash
  // seeding.
  std::map<std::pair<FlowId, TdnId>, std::vector<CwndSample>> by_series;
  for (const TraceRecord& r : records) {
    const auto p = static_cast<TracePoint>(r.point);
    if (p != TracePoint::kTcpCwndUpdate && p != TracePoint::kTcpUndo) continue;
    if (r.flow == 0) continue;
    by_series[{static_cast<FlowId>(r.flow), static_cast<TdnId>(r.a0)}]
        .push_back({r.time_ps, static_cast<std::uint32_t>(r.a1)});
  }

  ConvergenceReport report;
  FlowId current_flow = 0;
  bool have_flow = false;
  // Per-flow rollup accumulators.
  bool any_osc = false, any_starved = false, any_judged = false;
  auto flush_flow = [&] {
    if (!have_flow) return;
    if (any_osc) {
      ++report.flows_oscillating;
    } else if (any_starved) {
      ++report.flows_starved;
    } else if (any_judged) {
      ++report.flows_converged;
    } else {
      ++report.flows_insufficient;
    }
    any_osc = any_starved = any_judged = false;
  };
  for (auto& [key, samples] : by_series) {
    if (!have_flow || key.first != current_flow) {
      flush_flow();
      current_flow = key.first;
      have_flow = true;
    }
    SeriesVerdict v = ClassifySeries(samples, config);
    v.flow = key.first;
    v.tdn = key.second;
    switch (v.verdict) {
      case ConvergenceVerdict::kOscillating:
        any_osc = true;
        any_judged = true;
        if (v.amplitude > report.worst_amplitude) {
          report.worst_amplitude = v.amplitude;
          report.worst_period_us = v.period_us;
        }
        break;
      case ConvergenceVerdict::kStarved:
        any_starved = true;
        any_judged = true;
        break;
      case ConvergenceVerdict::kConverged:
        any_judged = true;
        break;
      case ConvergenceVerdict::kInsufficient:
        break;
    }
    report.series.push_back(v);
  }
  flush_flow();
  return report;
}

}  // namespace tdtcp
