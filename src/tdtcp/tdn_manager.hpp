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
#include <vector>

#include "tcp/tcp_config.hpp"
#include "tdtcp/congestion_control.hpp"
#include "tdtcp/tdn_state.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

// Where a TdnManager call emits its tracepoints: SwitchTo emits kTdnSwitch,
// EnsureTdn kTdnStateSelect for each state set it lazily allocates, and
// RetireAbove kTdnRetire. The caller passes its ring, clock and flow per
// call (a null ring emits nothing), so the manager keeps no sink.
struct TdnTraceSink {
  TraceRing* ring = nullptr;
  std::int64_t now_ps = 0;
  FlowId flow = 0;
};

class TdnManager {
 public:
  // `config` gives every state set its congestion-control factory (§3.5:
  // TDN i runs per_tdn_cc[min(i, size-1)] when that list is non-empty, else
  // cc_factory, else CUBIC), its RTT estimator parameters and its initial
  // window. The manager reads it through a pointer and copies nothing, so
  // it must outlive the manager (or the next Reopen); a connection passes
  // the config it shares.
  TdnManager(std::uint32_t num_tdns, const TcpConfig& config);
  TdnManager(std::uint32_t num_tdns, const TcpConfig&& config) = delete;

  // Starts over as the manager the constructor builds for these arguments:
  // num_tdns fresh state sets, TDN 0 active, nothing retired. The state
  // vector keeps its capacity, and a TDN keeps its congestion-control
  // module, reset to a fresh instance's state, when its factory is a plain
  // maker function and the same one that built the module (TdnState::maker;
  // the class is unchanged).
  void Reopen(std::uint32_t num_tdns, const TcpConfig& config);
  void Reopen(std::uint32_t num_tdns, const TcpConfig&& config) = delete;

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
  bool SwitchTo(TdnId id, const TdnTraceSink& trace = {});

  void EnsureTdn(TdnId id, const TdnTraceSink& trace = {});

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
  bool RetireAbove(std::uint32_t live, const TdnTraceSink& trace = {});
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

 private:
  // Everything but the state sets: Reopen's fresh start.
  explicit TdnManager(const TcpConfig& config) : config_(&config) {}
  // TDN `id`'s congestion-control factory (see the constructor).
  const CcFactory& CcFactoryFor(TdnId id) const;
  void ReviveIfDrained(TdnState& s);
  // (Re)initializes state set `id` to a fresh, live TDN's values, keeping
  // its module when the same plain maker would build it again.
  void InitState(TdnId id);

  std::vector<TdnState> states_;
  const TcpConfig* config_;
  std::uint64_t retire_events_ = 0;
  TdnId active_ = 0;
};

}  // namespace tdtcp
