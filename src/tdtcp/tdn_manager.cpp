#include "tdtcp/tdn_manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cc/cubic.hpp"

namespace tdtcp {

namespace {

void CheckTdnCount(std::uint32_t num_tdns) {
  if (num_tdns < 1) {
    // Was an NDEBUG-silent assert: a zero-TDN manager has no active() state
    // and the first tag/switch would index an empty vector.
    throw std::invalid_argument(
        "TdnManager: num_tdns must be >= 1 (got " + std::to_string(num_tdns) +
        ")");
  }
}

}  // namespace

TdnManager::TdnManager(std::uint32_t num_tdns, const TcpConfig& config)
    : TdnManager(config) {
  CheckTdnCount(num_tdns);
  states_.reserve(num_tdns);
  EnsureTdn(static_cast<TdnId>(num_tdns - 1));
}

void TdnManager::Reopen(std::uint32_t num_tdns, const TcpConfig& config) {
  CheckTdnCount(num_tdns);
  std::vector<TdnState> states = std::move(states_);
  *this = TdnManager(config);
  states_ = std::move(states);
  if (states_.size() > num_tdns) states_.resize(num_tdns);
  for (std::size_t id = 0; id < states_.size(); ++id) {
    InitState(static_cast<TdnId>(id));
  }
  EnsureTdn(static_cast<TdnId>(num_tdns - 1));
}

const CcFactory& TdnManager::CcFactoryFor(TdnId id) const {
  const std::vector<CcFactory>& per_tdn = config_->per_tdn_cc;
  if (!per_tdn.empty()) {
    return per_tdn[std::min<std::size_t>(id, per_tdn.size() - 1)];
  }
  if (config_->cc_factory) return config_->cc_factory;
  static const CcFactory kCubic = MakeCubic;
  return kCubic;
}

void TdnManager::InitState(TdnId id) {
  TdnState& s = states_[id];
  const CcFactory& factory = CcFactoryFor(id);
  const CcMaker* maker = factory.target<CcMaker>();
  std::unique_ptr<CongestionControl> cc = std::move(s.cc);
  const CcMaker built_by = s.maker;
  s = TdnState();
  s.id = id;
  s.cwnd = config_->initial_cwnd;
  s.rtt = RttEstimator(config_->rtt);
  if (cc != nullptr && maker != nullptr && built_by == *maker) {
    cc->Reset();
    s.cc = std::move(cc);
    s.maker = built_by;
  } else {
    s.cc = factory();
    s.maker = maker != nullptr ? *maker : nullptr;
  }
  s.cc->Init(s);
}

void TdnManager::EnsureTdn(TdnId id, const TdnTraceSink& trace) {
  while (states_.size() <= id) {
    const auto next = static_cast<TdnId>(states_.size());
    states_.emplace_back();
    InitState(next);
    if (trace.ring != nullptr) {
      trace.ring->Emit(trace.now_ps, TracePoint::kTdnStateSelect, trace.flow,
                       next);
    }
  }
}

void TdnManager::ReviveIfDrained(TdnState& s) {
  // A revived set starts fresh only once its in-flight data has fully
  // drained; with segments still on the scoreboard the old accounting (and
  // CC episode state) must carry over or the invariant checker's recount
  // diverges.
  if (s.packets_out != 0 || s.retrans_out != 0) return;
  InitState(s.id);
}

bool TdnManager::SwitchTo(TdnId id, const TdnTraceSink& trace) {
  EnsureTdn(id, trace);
  if (id == active_) return false;
  if (states_[id].retired) {
    // Reviving a retired TDN (the schedule grew back): reset to fresh
    // connection state if it drained while parked, carry over otherwise.
    states_[id].retired = false;
    ReviveIfDrained(states_[id]);
  }
  const TdnId prev = active_;
  active_ = id;
  TdnState& s = states_[active_];
  s.cc->OnCwndEvent(s, CwndEvent::kTdnResume);
  if (trace.ring != nullptr) {
    trace.ring->Emit(trace.now_ps, TracePoint::kTdnSwitch, trace.flow, prev,
                     id);
  }
  return true;
}

bool TdnManager::RetireAbove(std::uint32_t live, const TdnTraceSink& trace) {
  if (live == 0) {
    throw std::invalid_argument(
        "TdnManager::RetireAbove: a reconfiguration must leave at least one "
        "live TDN (got live=0)");
  }
  ++retire_events_;
  std::uint64_t newly_retired = 0;
  for (std::size_t id = 0; id < states_.size(); ++id) {
    TdnState& s = states_[id];
    const bool retire = id >= live;
    if (retire && !s.retired) ++newly_retired;
    if (!retire && s.retired) {
      // The schedule grew back: ids below the new count are live again.
      s.retired = false;
      ReviveIfDrained(s);
    } else {
      s.retired = retire;
    }
  }
  bool moved = false;
  if (states_[active_].retired) {
    // Never leave the connection tagging new data with a retired TDN; TDN 0
    // always survives (live >= 1).
    moved = SwitchTo(0, trace);
  }
  if (trace.ring != nullptr) {
    trace.ring->Emit(trace.now_ps, TracePoint::kTdnRetire, trace.flow, live,
                     newly_retired, moved);
  }
  return moved;
}

std::uint32_t TdnManager::TotalPacketsOut() const {
  std::uint32_t total = 0;
  for (const auto& s : states_) total += s.packets_out;
  return total;
}

std::uint32_t TdnManager::TotalPipe() const {
  std::uint32_t total = 0;
  for (const auto& s : states_) total += s.packets_in_flight();
  return total;
}

bool TdnManager::AnyRetransmitPending() const {
  for (const auto& s : states_) {
    if (s.lost_out > 0 &&
        (s.ca_state == CaState::kRecovery || s.ca_state == CaState::kLoss)) {
      return true;
    }
  }
  return false;
}

const RttEstimator& TdnManager::SlowestRtt(TdnId fallback) const {
  const RttEstimator* slowest = &states_[fallback].rtt;
  for (const auto& s : states_) {
    if (!s.rtt.has_sample()) continue;
    if (!slowest->has_sample() || s.rtt.srtt() > slowest->srtt()) {
      slowest = &s.rtt;
    }
  }
  return *slowest;
}

SimTime TdnManager::RtoFor(TdnId id, bool synthesized) const {
  const TdnState& s = states_[id];
  if (!synthesized) return s.rtt.Rto();
  return s.rtt.SynthesizedRto(SlowestRtt(id));
}

}  // namespace tdtcp
