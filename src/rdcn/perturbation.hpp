// Adversarial-schedule perturbations for the RDCN controllers.
//
// A PerturbationConfig is pure data, mirroring fault/fault_plan.hpp: skewed
// day lengths, jittered day/night boundaries, mid-flow schedule changes
// (rotation-period change, matching reshuffle, TDN-count change), and
// controller-restart windows during which the fabric freezes in place. The
// SchedulePerturbation engine executes a config with a dedicated Random
// stream (keyed by seed and kPerturbationSeedSalt, like the fault injector),
// so the same (config, seed) always produces the same perturbed schedule no
// matter what the workload's own randomness does.
//
// The week clock both fabrics share (FabricScheduler, the base of
// RdcnController and RotorController) owns the engine and consults it at
// every day/night boundary; the fabric itself only applies the change
// fields marked as its own below. ExperimentConfig::WithSchedulePerturbation
// wires it end to end, and the convergence oracle (trace/convergence.hpp)
// classifies what the transport did underneath.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace tdtcp {

// One mid-flow schedule change. Changes are applied at the first day
// boundary at-or-after `at` (a real controller rolls a new schedule out at a
// reconfiguration point, never mid-day), in config order; fields at their
// sentinel values keep the current setting. All perturbation times (`at`,
// RestartWindow::at) are relative to the scheduler's Start() time.
struct ScheduleChange {
  SimTime at = SimTime::Zero();
  SimTime day_length = SimTime::Zero();    // zero = keep
  SimTime night_length = SimTime::Zero();  // zero = keep
  std::int32_t circuit_day = -1;           // pair fabric only; -1 = keep
  // TDN-count change: hosts retire per-TDN state sets with id >= this count
  // (TdnManager::RetireAbove semantics — surviving TDNs carry their state,
  // retired sets drain in place and re-initialize on revival). -1 = keep.
  std::int32_t live_tdns = -1;
  // Rotor fabric only: relabel the round-robin matchings with a fresh random
  // rack permutation (every day is still a perfect matching and all pairs
  // still meet once per week, but who meets whom on which day changes).
  bool reshuffle_matchings = false;
};

// Controller-restart window: a boundary falling inside [at, at + duration)
// is deferred to the window's end — the fabric freezes in whatever state the
// previous segment left it and no notifications are generated, composing
// with (but distinct from) FaultInjector stalls, which reconfigure the
// fabric on schedule and swallow only the notifications.
struct RestartWindow {
  SimTime at = SimTime::Zero();
  SimTime duration = SimTime::Zero();
};

// Keys, with the experiment seed, the engine's dedicated Random stream.
// Distinct from kFaultSeedSalt so an experiment running both never
// correlates fault and schedule draws.
inline constexpr std::uint64_t kPerturbationSeedSalt = 0xc2b2ae3d27d4eb4full;

struct PerturbationConfig {
  // Skewed day lengths: even-indexed days stretch to (1 + day_skew) x
  // nominal, odd-indexed days shrink to (1 - day_skew) x nominal. Must be in
  // [0, 1).
  double day_skew = 0.0;

  // Jittered boundaries: every day and night length additionally gets an
  // independent uniform draw in [-jitter, +jitter] (clamped so a segment
  // never collapses below a quarter of its nominal length).
  SimTime jitter = SimTime::Zero();

  std::vector<ScheduleChange> changes;
  std::vector<RestartWindow> restarts;

  bool Empty() const {
    return day_skew == 0.0 && jitter.IsZero() && changes.empty() &&
           restarts.empty();
  }
};

class SchedulePerturbation {
 public:
  struct Stats {
    std::uint64_t skewed_days = 0;
    std::uint64_t jittered_boundaries = 0;
    std::uint64_t changes_applied = 0;
    std::uint64_t restart_holds = 0;
  };

  // Throws std::invalid_argument on day_skew outside [0, 1), negative
  // jitter, or a change/restart with a negative time.
  SchedulePerturbation(PerturbationConfig config, std::uint64_t seed);

  // Perturbed length of day `day_index` (skew + jitter over `base`). Draws
  // are consumed in call order from the dedicated stream, so a controller
  // walking boundaries in simulated-time order is deterministic.
  SimTime PerturbDay(std::uint32_t day_index, SimTime base);
  // Perturbed night length (jitter only; skew is a day-length property).
  SimTime PerturbNight(SimTime base);

  // The next unapplied ScheduleChange due at-or-before `now`, or nullptr.
  // The caller applies it and then MarkApplied()s it; changes are consumed
  // strictly in config order.
  const ScheduleChange* PendingChange(SimTime now) const;
  void MarkApplied();

  // Nonzero when `now` falls inside a restart window: the remaining hold the
  // controller must defer its boundary by.
  SimTime RestartHold(SimTime now);

  Random& rng() { return rng_; }
  const Stats& stats() const { return stats_; }

 private:
  SimTime Jitter(SimTime length, SimTime base);

  PerturbationConfig config_;
  Random rng_;
  std::size_t next_change_ = 0;
  Stats stats_;
};

}  // namespace tdtcp
