// The week clock both fabrics run (§2.1, §5.1): days, each followed by a
// reconfiguration night, one scheduled event per boundary. It owns what a
// boundary does on any fabric (restart-window deferral, in-order mid-flow
// ScheduleChanges, perturbed lengths, the reconfig hook, the scheduler
// tracepoints); a fabric (RdcnController, RotorController) adds what a
// boundary does to its own ports and ToRs, and its own ScheduleChange fields.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>

#include "net/fabric_port.hpp"
#include "rdcn/perturbation.hpp"
#include "sim/simulator.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

class FabricScheduler {
 public:
  struct CommonConfig {  // the fields both fabrics' Configs share
    NetworkMode packet_mode;
    NetworkMode circuit_mode;
    // Adversarial-schedule perturbations (empty = the nominal schedule) and
    // the experiment seed their dedicated Random stream derives from.
    PerturbationConfig perturb;
    std::uint64_t seed = 1;
  };

  virtual ~FabricScheduler() = default;
  // Scheduled boundary events hold `this`.
  FabricScheduler(const FabricScheduler&) = delete;
  FabricScheduler& operator=(const FabricScheduler&) = delete;

  // Begins executing the schedule at the current simulation time, which
  // becomes the start of week 0, day 0 (perturbation times count from it).
  void Start();

  // Perturbation accounting (zeros when no perturbation is configured).
  std::uint64_t schedule_changes_applied() const {
    return perturb_ ? perturb_->stats().changes_applied : 0;
  }
  std::uint64_t restart_holds() const {
    return perturb_ ? perturb_->stats().restart_holds : 0;
  }

  // The week the current segment lengths make (after any applied
  // ScheduleChange, before per-segment skew and jitter).
  SimTime week_length() const {
    return (day_length_ + night_length_) * static_cast<std::int64_t>(num_days_);
  }

  // Management-plane hook for TDN-count changes, called synchronously with
  // the new live count at the day boundary that applies a live_tdns change
  // (not over the lossy per-day ICMP channel — see DESIGN.md §13).
  using ReconfigFn = std::function<void(std::uint32_t live_tdns)>;
  void SetReconfigHook(ReconfigFn fn) { reconfig_ = std::move(fn); }

  // Tracepoint sink, flow 0: kSchedChange per applied ScheduleChange and
  // kSchedRestartHold per deferred boundary, plus whatever the fabric emits.
  void SetTraceRing(TraceRing* ring) { trace_ = ring; }

 protected:
  // Throws std::invalid_argument when the perturbation config is malformed.
  FabricScheduler(Simulator& sim, const CommonConfig& config,
                  SimTime day_length, SimTime night_length,
                  std::uint32_t num_days);

  // What day `day` does to the fabric, after the day's ScheduleChanges;
  // `length` is its perturbed length. Runs before the night is scheduled.
  virtual void BeginDay(std::uint32_t day, SimTime length) = 0;
  // What the night after day `day` does to the fabric.
  virtual void BeginNight(std::uint32_t day) = 0;
  // The fabric's own ScheduleChange fields, applied after the shared ones
  // and before the change's kSchedChange tracepoint.
  virtual void ApplyFabricChange(const ScheduleChange& change) = 0;

  SimTime night_length() const { return night_length_; }  // before jitter
  SimTime Elapsed(SimTime t) const { return t - start_time_; }
  Random& perturbation_rng() { return perturb_->rng(); }
  void Trace(TracePoint point, std::uint64_t a0, std::uint64_t a1,
             std::uint64_t a2 = 0) {
    if (trace_) trace_->Emit(sim_.now().picos(), point, /*flow=*/0, a0, a1, a2);
  }

  Simulator& sim_;
  NetworkMode packet_mode_;
  NetworkMode circuit_mode_;

 private:
  void RunDay(std::uint32_t day);
  void RunNight(std::uint32_t day);
  void ApplyChange(const ScheduleChange& change);
  // True when the boundary was deferred into a restart window (the caller
  // returns immediately; the boundary re-fires at the window's end).
  bool DeferForRestart(std::uint32_t day, bool night);

  SimTime day_length_;
  SimTime night_length_;
  std::uint32_t num_days_;
  std::unique_ptr<SchedulePerturbation> perturb_;  // null: the nominal week
  ReconfigFn reconfig_;
  SimTime start_time_;
  TraceRing* trace_ = nullptr;
};

}  // namespace tdtcp
