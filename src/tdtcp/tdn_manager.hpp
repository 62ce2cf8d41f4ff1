// TdnManager: owns the per-TDN state copies and implements the four state
// management semantics of §4.3:
//   * current TDN  — active() for tagging new transmissions,
//   * all TDNs     — TotalPacketsOut() for ACK validation,
//   * any TDN      — AnyRetransmitPending() ORs ca_state/lost_out,
//   * specific TDN — state(id) so ACK processing credits each segment's TDN.
// It also provides §4.4's pessimistic synthesized RTO against the slowest
// TDN, and supports runtime schedule growth (§4.2: "TDTCP automatically
// initializes a new set of state variables upon being notified of a new TDN
// for the first time").
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "tcp/rtt_estimator.hpp"
#include "tdtcp/congestion_control.hpp"
#include "tdtcp/tdn_state.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {
class Simulator;
}

namespace tdtcp {

class TdnManager {
 public:
  // §3.5: each TDN could in principle run a different CCA, so the factory
  // is chosen per TDN id. The manager calls the returned factory at once and
  // keeps no reference to it (a connection returns one from its config).
  using IndexedCcFactory = std::function<const CcFactory&(TdnId)>;

  TdnManager(std::uint32_t num_tdns, IndexedCcFactory factory,
             RttEstimator::Config rtt_config, std::uint32_t initial_cwnd);

  // Convenience: the same CCA on every TDN.
  TdnManager(std::uint32_t num_tdns, const CcFactory& factory,
             RttEstimator::Config rtt_config, std::uint32_t initial_cwnd)
      : TdnManager(num_tdns,
                   IndexedCcFactory([factory](TdnId) -> const CcFactory& {
                     return factory;
                   }),
                   rtt_config, initial_cwnd) {}

  // Starts over as the manager the constructor builds for these arguments
  // (same factory): num_tdns fresh state sets, TDN 0 active, nothing
  // retired, no trace sink. The state vector keeps its capacity, and a TDN
  // keeps its congestion-control module, reset to a fresh instance's state,
  // when its factory is a plain maker function and the same one that built
  // the module (TdnState::maker; the class is unchanged).
  void Reopen(std::uint32_t num_tdns, RttEstimator::Config rtt_config,
              std::uint32_t initial_cwnd);

  TdnId active_id() const { return active_; }
  TdnState& active() { return states_[active_]; }
  const TdnState& active() const { return states_[active_]; }

  TdnState& state(TdnId id) { return states_[id]; }
  const TdnState& state(TdnId id) const { return states_[id]; }
  std::size_t num_tdns() const { return states_.size(); }

  // §3.1: swap the active set of state variables. The new set "already
  // contains a snapshot view of the new TDN when it was last active", so the
  // switch itself only flips an index and notifies the new TDN's CC module.
  // Unknown ids allocate fresh state (runtime schedule change). Returns
  // false if the id was already active.
  bool SwitchTo(TdnId id);

  void EnsureTdn(TdnId id);

  // Schedule reconfiguration (TDN-count change): retire every state set with
  // id >= `live`. Semantics (DESIGN.md §13):
  //   * surviving TDNs carry their state over unchanged;
  //   * a retired set keeps its accounting — segments tagged with it are
  //     still on the scoreboard and drain through the normal ACK/loss paths,
  //     so the invariant checker's recount stays consistent;
  //   * the active TDN is never left retired: it falls back to TDN 0 (which
  //     a reconfiguration can never retire, live >= 1);
  //   * a later SwitchTo on a retired id revives it — with freshly
  //     initialized CC/RTT/cwnd state if it had fully drained, in place (a
  //     carry-over, the data is still in flight) otherwise.
  // Returns true when the active TDN moved. Throws std::invalid_argument on
  // live == 0.
  bool RetireAbove(std::uint32_t live);
  bool retired(TdnId id) const {
    return id < states_.size() && states_[id].retired;
  }
  std::uint32_t live_tdns() const {
    std::uint32_t live = 0;
    for (const TdnState& s : states_) live += s.retired ? 0 : 1;
    return live;
  }
  std::uint64_t retire_events() const { return retire_events_; }

  // §4.3 "all TDNs": an ACK can acknowledge data from any TDN, so validity
  // checks must use the sum.
  std::uint32_t TotalPacketsOut() const;
  std::uint32_t TotalPipe() const;

  // §4.3 "any TDN": retransmissions are scheduled if any TDN is in
  // Recovery/Loss with unrecovered losses.
  bool AnyRetransmitPending() const;

  // §4.4: the TDN whose smoothed RTT is currently largest (for pessimistic
  // timeout synthesis). Falls back to `fallback` when nothing has samples.
  const RttEstimator& SlowestRtt(TdnId fallback) const;

  // RTO for a segment sent on `id`: synthesized against the slowest TDN
  // when `synthesized` (TDTCP), the TDN's own RTO otherwise.
  SimTime RtoFor(TdnId id, bool synthesized) const;

  // Tracepoint sink: SwitchTo emits kTdnSwitch, EnsureTdn emits
  // kTdnStateSelect when it lazily allocates a new state set.
  void SetTrace(TraceRing* ring, const Simulator* sim, FlowId flow) {
    trace_ = ring;
    trace_sim_ = sim;
    trace_flow_ = flow;
    has_trace_ = ring != nullptr && sim != nullptr;
  }

 private:
  // Everything but the state sets: Reopen's fresh start.
  TdnManager(IndexedCcFactory factory, RttEstimator::Config rtt_config,
             std::uint32_t initial_cwnd);
  void ReviveIfDrained(TdnState& s);
  // (Re)initializes state set `id` to a fresh, live TDN's values, keeping
  // its module when the same plain maker would build it again.
  void InitState(TdnId id);

  std::vector<TdnState> states_;
  std::uint64_t retire_events_ = 0;
  IndexedCcFactory factory_;
  RttEstimator::Config rtt_config_;
  std::uint32_t initial_cwnd_;
  TdnId active_ = 0;
  TraceRing* trace_ = nullptr;
  const Simulator* trace_sim_ = nullptr;
  FlowId trace_flow_ = 0;
  bool has_trace_ = false;
};

}  // namespace tdtcp
