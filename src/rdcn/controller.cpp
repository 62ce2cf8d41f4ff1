#include "rdcn/controller.hpp"

#include <stdexcept>
#include <utility>

namespace tdtcp {

RdcnController::RdcnController(Simulator& sim, Config config,
                               std::vector<FabricPort*> ports,
                               std::vector<ToRSwitch*> tors)
    : FabricScheduler(sim, config, config.schedule.day_length,
                      config.schedule.night_length, config.schedule.num_days),
      schedule_(config.schedule), circuit_day_(config.schedule.circuit_day),
      dynamic_voq_(config.dynamic_voq), ports_(std::move(ports)),
      tors_(std::move(tors)) {
  if (ports_.empty()) {
    // Was an NDEBUG-silent assert: a portless controller would dereference
    // ports_.front() at the first dynamic-VOQ resize or imminent notice.
    throw std::invalid_argument(
        "RdcnController: needs at least one fabric port to drive");
  }
  normal_voq_packets_ = ports_.front()->voq().capacity();
}

void RdcnController::ApplyFabricChange(const ScheduleChange& change) {
  if (change.circuit_day >= 0) {
    circuit_day_ = static_cast<std::uint32_t>(change.circuit_day) %
                   schedule_.config().num_days;
  }
}

void RdcnController::BeginDay(std::uint32_t day, SimTime length) {
  const bool circuit = (day == circuit_day_);
  const NetworkMode& mode = circuit ? circuit_mode_ : packet_mode_;

  ++reconfigurations_;
  Trace(TracePoint::kRdcnDayStart, mode.tdn, day, circuit);
  for (FabricPort* p : ports_) {
    p->SetMode(mode);
    p->SetBlackout(false);
  }
  // ToRs proactively notify hosts when the path actually changes. Identical
  // consecutive packet days produce no notification (the TDN is unchanged),
  // and circuit teardown is announced at night start by BeginNight.
  if (mode.tdn != last_notified_tdn_) NotifyAll(mode.tdn);

  // reTCPdyn: ahead of the next circuit day, enlarge VOQs and warn senders.
  if (dynamic_voq_ &&
      (day + 1) % schedule_.config().num_days == circuit_day_) {
    const SimTime until_next_day = length + night_length();
    if (until_next_day > kResizeAdvance) {
      sim_.ScheduleNoCancel(until_next_day - kResizeAdvance, [this] {
        ResizeVoqs(kEnlargedVoqPackets);
        NotifyAll(ports_.front()->mode().tdn, /*imminent=*/true);
      });
    }
  }
}

void RdcnController::BeginNight(std::uint32_t day) {
  const bool was_circuit = (day == circuit_day_);
  Trace(TracePoint::kRdcnNightStart, day, was_circuit);
  for (FabricPort* p : ports_) p->SetBlackout(true);
  if (was_circuit) {
    // Circuit teardown: the hosts' next packets must be modeled on TDN 0.
    NotifyAll(packet_mode_.tdn);
    if (dynamic_voq_) ResizeVoqs(normal_voq_packets_);
  }
}

void RdcnController::NotifyAll(TdnId tdn, bool imminent) {
  if (!imminent) last_notified_tdn_ = tdn;
  const std::uint64_t seq = ++notify_seq_;
  for (ToRSwitch* tor : tors_) tor->NotifyHosts(tdn, imminent, kAllRacks, seq);
}

void RdcnController::ResizeVoqs(std::uint32_t packets) {
  // Shrinking back to the normal capacity at circuit teardown while the
  // enlarged VOQ is still deep performs a drain-then-shrink (§5.2): the
  // queue stops admitting but retains the excess until it drains at packet
  // speed; QueueDisc::Stats::shrink_deferred counts the retained packets.
  for (FabricPort* p : ports_) p->voq().set_capacity(packets);
}

}  // namespace tdtcp
