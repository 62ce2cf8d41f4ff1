#include "rdcn/fabric_scheduler.hpp"

namespace tdtcp {

FabricScheduler::FabricScheduler(Simulator& sim, const CommonConfig& config,
                                 SimTime day_length, SimTime night_length,
                                 std::uint32_t num_days)
    : sim_(sim), packet_mode_(config.packet_mode),
      circuit_mode_(config.circuit_mode), day_length_(day_length),
      night_length_(night_length), num_days_(num_days) {
  if (!config.perturb.Empty()) {
    perturb_ = std::make_unique<SchedulePerturbation>(config.perturb,
                                                      config.seed);
  }
}

void FabricScheduler::Start() {
  start_time_ = sim_.now();
  RunDay(0);
}

bool FabricScheduler::DeferForRestart(std::uint32_t day, bool night) {
  if (!perturb_) return false;
  const SimTime hold = perturb_->RestartHold(Elapsed(sim_.now()));
  if (hold.IsZero()) return false;
  // Controller restart: the fabric freezes in whatever state the previous
  // segment left it (ports keep their mode/blackout), nothing is notified,
  // and the boundary re-fires once the controller comes back.
  Trace(TracePoint::kSchedRestartHold, static_cast<std::uint64_t>(hold.picos()),
        day, night);
  sim_.ScheduleNoCancel(hold, [this, day, night] {
    night ? RunNight(day) : RunDay(day);
  });
  return true;
}

void FabricScheduler::ApplyChange(const ScheduleChange& change) {
  if (!change.day_length.IsZero()) day_length_ = change.day_length;
  if (!change.night_length.IsZero()) night_length_ = change.night_length;
  ApplyFabricChange(change);
  Trace(TracePoint::kSchedChange,
        static_cast<std::uint64_t>(day_length_.picos()),
        static_cast<std::uint64_t>(night_length_.picos()),
        change.live_tdns >= 0 ? static_cast<std::uint64_t>(change.live_tdns)
                              : 0);
  if (change.live_tdns >= 0 && reconfig_) {
    reconfig_(static_cast<std::uint32_t>(change.live_tdns));
  }
}

void FabricScheduler::RunDay(std::uint32_t day) {
  if (DeferForRestart(day, /*night=*/false)) return;
  SimTime length = day_length_;
  if (perturb_) {
    // Schedule changes roll out at day boundaries, in config order.
    while (const ScheduleChange* ch =
               perturb_->PendingChange(Elapsed(sim_.now()))) {
      ApplyChange(*ch);
      perturb_->MarkApplied();
    }
    length = perturb_->PerturbDay(day, day_length_);
  }
  BeginDay(day, length);
  sim_.ScheduleNoCancel(length, [this, day] { RunNight(day); });
}

void FabricScheduler::RunNight(std::uint32_t day) {
  if (DeferForRestart(day, /*night=*/true)) return;
  BeginNight(day);
  const std::uint32_t next = (day + 1) % num_days_;
  const SimTime length =
      perturb_ ? perturb_->PerturbNight(night_length_) : night_length_;
  sim_.ScheduleNoCancel(length, [this, next] { RunDay(next); });
}

}  // namespace tdtcp
