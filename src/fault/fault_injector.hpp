// Executes a FaultPlan against a Topology.
//
// The injector installs fault filters on every fabric port and rack NIC
// link, a notification fault hook on every ToR, and schedules link-down
// windows plus a periodic network-invariant audit. Every link filter and
// every ToR's notification hook draws from its own Random stream, forked
// from one keyed by (run seed, plan salt): the trace is bit-identical across
// runs of the same (plan, seed), independent of workload randomness, and one
// link's decisions do not depend on any other link's traffic. This composes
// with the sweep engine's jobs=1 == jobs=N determinism guarantee.
//
// Every injected fault is appended to an ordered trace; TraceHash() folds
// it into a single value tests can compare across runs, and
// DumpRecentFaults() renders the tail into TCP invariant-violation reports
// (the FaultTraceSource interface from tcp/invariant_checker.hpp).
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/topology.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tcp/invariant_checker.hpp"

namespace tdtcp {

enum class FaultKind : std::uint8_t {
  kDataLoss,         // Bernoulli drop on a data link
  kDataCorrupt,      // corruption (dropped at checksum)
  kBurstLoss,        // Gilbert-Elliott bad-state drop
  kNotifyDrop,       // control-plane notification lost
  kNotifyDelay,      // notification delivered late
  kNotifyDuplicate,  // notification delivered twice
  kStallDrop,        // swallowed by a controller stall window
  kLinkDown,
  kLinkUp,
  kHostDown,         // one host's NIC dies silently (subject = NodeId)
  kHostUp,
};

const char* FaultKindName(FaultKind kind);

struct FaultEvent {
  SimTime at = SimTime::Zero();
  FaultKind kind = FaultKind::kDataLoss;
  std::uint64_t packet_id = 0;  // zero for link up/down events
  std::uint32_t subject = 0;    // link index or rack id
};

struct FaultStats {
  std::uint64_t data_dropped = 0;
  std::uint64_t data_corrupted = 0;
  std::uint64_t burst_dropped = 0;
  std::uint64_t notifications_dropped = 0;
  std::uint64_t notifications_delayed = 0;
  std::uint64_t notifications_duplicated = 0;
  std::uint64_t stall_dropped = 0;
  std::uint64_t link_transitions = 0;
  std::uint64_t host_transitions = 0;

  std::uint64_t total() const {
    return data_dropped + data_corrupted + burst_dropped +
           notifications_dropped + notifications_delayed +
           notifications_duplicated + stall_dropped + link_transitions +
           host_transitions;
  }
};

class FaultInjector final : public FaultTraceSource {
 public:
  FaultInjector(Simulator& sim, FaultPlan plan, std::uint64_t run_seed);

  // Installs all hooks on `topo` and schedules the plan's link windows and
  // periodic audits. Call once, before the simulation starts (the topology
  // must outlive the injector's hooks, i.e. the injector). Throws
  // std::logic_error on a second call.
  void Arm(Topology& topo);

  const FaultPlan& plan() const { return plan_; }
  const FaultStats& stats() const { return stats_; }
  const std::vector<FaultEvent>& trace() const { return trace_; }

  // FNV-1a over the ordered (time, kind, packet, subject) tuples: two runs
  // with identical fault behaviour hash identically.
  std::uint64_t TraceHash() const;

  // FaultTraceSource: render the last `last_n` fault events.
  void DumpRecentFaults(std::FILE* out, std::size_t last_n) const override;

 private:
  // One faulted link: its Gilbert-Elliott state and its own stream.
  struct LinkState {
    bool bad = false;
    Random rng;
  };

  // Returns true when the packet should be dropped; records the fault at
  // `at`, when the packet started serializing.
  bool RollLink(const LinkFaultSpec& spec, LinkState& link, const Packet& p,
                std::uint32_t subject, SimTime at);
  void OnNotify(const Packet& icmp, SimTime base_delay,
                std::vector<SimTime>& delays_out, std::uint32_t rack);
  bool InStall(SimTime t) const;
  void Record(FaultKind kind, std::uint64_t packet_id, std::uint32_t subject,
              SimTime at);
  void Record(FaultKind kind, std::uint64_t packet_id, std::uint32_t subject) {
    Record(kind, packet_id, subject, sim_.now());
  }
  void ScheduleAudit();
  void Audit() const;

  Simulator& sim_;
  FaultPlan plan_;
  Random streams_;  // never drawn from: every filter forks its own
  std::vector<LinkState> links_;  // by subject
  std::vector<Random> notify_rngs_;  // by rack
  std::vector<const FabricPort*> audited_ports_;
  std::vector<FaultEvent> trace_;
  FaultStats stats_;
  bool armed_ = false;
};

}  // namespace tdtcp
