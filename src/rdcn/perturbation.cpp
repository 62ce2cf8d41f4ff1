#include "rdcn/perturbation.hpp"

#include <stdexcept>
#include <string>

namespace tdtcp {

SchedulePerturbation::SchedulePerturbation(PerturbationConfig config,
                                           std::uint64_t seed)
    : config_(std::move(config)),
      rng_(Random(seed).Fork(kPerturbationSeedSalt)) {
  if (config_.day_skew < 0.0 || config_.day_skew >= 1.0) {
    throw std::invalid_argument(
        "SchedulePerturbation: day_skew must be in [0, 1) (got " +
        std::to_string(config_.day_skew) + ")");
  }
  if (config_.jitter < SimTime::Zero()) {
    throw std::invalid_argument(
        "SchedulePerturbation: jitter must be non-negative (got " +
        std::to_string(config_.jitter.picos()) + " ps)");
  }
  for (const ScheduleChange& ch : config_.changes) {
    if (ch.at < SimTime::Zero() || ch.day_length < SimTime::Zero() ||
        ch.night_length < SimTime::Zero()) {
      throw std::invalid_argument(
          "SchedulePerturbation: ScheduleChange times must be non-negative");
    }
    if (ch.live_tdns == 0) {
      throw std::invalid_argument(
          "SchedulePerturbation: live_tdns must be >= 1 (a schedule with "
          "zero TDNs has no network to notify)");
    }
  }
  for (const RestartWindow& w : config_.restarts) {
    if (w.at < SimTime::Zero() || w.duration < SimTime::Zero()) {
      throw std::invalid_argument(
          "SchedulePerturbation: RestartWindow times must be non-negative");
    }
  }
}

SimTime SchedulePerturbation::Jitter(SimTime length, SimTime base) {
  if (config_.jitter.IsZero()) return length;
  ++stats_.jittered_boundaries;
  const SimTime draw =
      rng_.UniformTime(SimTime::Zero(), config_.jitter * 2) - config_.jitter;
  SimTime jittered = length + draw;
  // A segment never collapses below a quarter of its nominal length: the
  // fabric still makes forward progress through the week under any jitter.
  const SimTime floor = base / 4;
  if (jittered < floor) jittered = floor;
  return jittered;
}

SimTime SchedulePerturbation::PerturbDay(std::uint32_t day_index,
                                         SimTime base) {
  SimTime length = base;
  if (config_.day_skew > 0.0) {
    ++stats_.skewed_days;
    const double factor = (day_index % 2 == 0) ? 1.0 + config_.day_skew
                                               : 1.0 - config_.day_skew;
    length = SimTime::Picos(static_cast<std::int64_t>(
        static_cast<double>(base.picos()) * factor));
  }
  return Jitter(length, base);
}

SimTime SchedulePerturbation::PerturbNight(SimTime base) {
  if (base.IsZero()) return base;  // no blackout to jitter
  return Jitter(base, base);
}

const ScheduleChange* SchedulePerturbation::PendingChange(SimTime now) const {
  if (next_change_ >= config_.changes.size()) return nullptr;
  const ScheduleChange& ch = config_.changes[next_change_];
  return ch.at <= now ? &ch : nullptr;
}

void SchedulePerturbation::MarkApplied() {
  if (next_change_ < config_.changes.size()) {
    ++next_change_;
    ++stats_.changes_applied;
  }
}

SimTime SchedulePerturbation::RestartHold(SimTime now) {
  for (const RestartWindow& w : config_.restarts) {
    if (now >= w.at && now < w.at + w.duration) {
      ++stats_.restart_holds;
      return w.at + w.duration - now;
    }
  }
  return SimTime::Zero();
}

}  // namespace tdtcp
