// Convergence oracle: classifies each flow's cwnd evolution as converged,
// oscillating (limit cycle), or starved, from the same kTcpCwndUpdate /
// kTcpUndo records ExtractCwndEvolution consumes. bench_stability's phase
// diagrams and the stability_* scalar metrics are built on these verdicts,
// so "the schedule destabilized the transport" is a machine-checked claim,
// not an eyeballed plot.
//
// Algorithm (per (flow, tdn) series, post-warmup):
//   1. Fewer than kConvergenceMinPoints samples -> insufficient (too short
//      to judge).
//   2. Oscillating: relative amplitude (max-min)/max >= kOscAmplitude AND at
//      least kOscMinCycles full low->high traversals of a 25% hysteresis band
//      AND the inter-cycle periods are regular (CV <= kOscMaxPeriodCv). The
//      hysteresis band rejects one-off loss episodes; the period-regularity
//      test rejects ordinary AIMD sawtooth noise and keeps only schedule-
//      locked limit cycles.
//   3. Starved: mean cwnd <= kStarvedCwnd (the window never grows).
//   4. Otherwise converged.
// Oscillation is tested BEFORE starvation so a periodic-collapse limit
// cycle (RTO backoff phase-locked with the rotation week: cwnd ramps then
// collapses to 1 every week) classifies as oscillating, not starved.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

enum class ConvergenceVerdict : std::uint8_t {
  kInsufficient = 0,  // too few post-warmup samples to judge
  kConverged = 1,
  kOscillating = 2,
  kStarved = 3,
};

const char* ConvergenceVerdictName(ConvergenceVerdict v);

inline constexpr std::size_t kConvergenceMinPoints = 8;
// Starvation threshold: mean cwnd at or below this many segments.
inline constexpr double kStarvedCwnd = 2.0;
// Oscillation tests (see file comment).
inline constexpr double kOscAmplitude = 0.6;
inline constexpr std::size_t kOscMinCycles = 3;
inline constexpr double kOscMaxPeriodCv = 0.55;

struct ConvergenceConfig {
  // Ignore samples before this time (slow-start and ramp-up are expected to
  // look wild; the oracle judges steady state).
  std::int64_t from_ps = 0;
};

// One (flow, tdn) cwnd series' verdict.
struct SeriesVerdict {
  FlowId flow = 0;
  TdnId tdn = 0;
  ConvergenceVerdict verdict = ConvergenceVerdict::kInsufficient;
  std::size_t num_points = 0;
  double mean_cwnd = 0.0;
  double amplitude = 0.0;   // (max-min)/max, 0 when max == 0
  double period_us = 0.0;   // mean inter-cycle period (0 if < 2 cycles)
  std::size_t cycles = 0;   // full low->high band traversals
};

struct ConvergenceReport {
  std::vector<SeriesVerdict> series;
  // Flow-level rollup: a flow is oscillating if any of its TDN series
  // oscillates, else starved if any starves, else converged if any series
  // had enough samples, else insufficient.
  std::uint64_t flows_converged = 0;
  std::uint64_t flows_oscillating = 0;
  std::uint64_t flows_starved = 0;
  std::uint64_t flows_insufficient = 0;
  // Worst certified oscillator across all series (phase-diagram cells);
  // zero when nothing oscillates.
  double worst_amplitude = 0.0;
  double worst_period_us = 0.0;  // period of the highest-amplitude oscillator
};

// Classify one already-extracted series of (time_ps, cwnd) samples. The
// samples must be in emission order (TraceRing order qualifies).
struct CwndSample {
  std::int64_t time_ps = 0;
  std::uint32_t cwnd = 0;
};
SeriesVerdict ClassifySeries(const std::vector<CwndSample>& samples,
                             const ConvergenceConfig& config);

// Scan a trace snapshot, group kTcpCwndUpdate/kTcpUndo by (flow, tdn), and
// classify everything.
ConvergenceReport ClassifyConvergence(const std::vector<TraceRecord>& records,
                                      const ConvergenceConfig& config);

}  // namespace tdtcp
