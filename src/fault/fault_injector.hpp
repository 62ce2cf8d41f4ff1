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
// Every injected fault is folded, in order, into a running hash that tests
// compare across runs (TraceHash()), and only the most recent
// kRecentFaults are kept: RecentFaults() returns them, and
// DumpRecentFaults() renders the tail into TCP invariant-violation reports
// (the FaultTraceSource interface from tcp/invariant_checker.hpp). The
// injector's memory does not grow with the number of faults.
#pragma once

#include <cstdint>
#include <cstdio>
#include <vector>

#include "fault/fault_plan.hpp"
#include "net/topology.hpp"
#include "sim/hash.hpp"
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

  // How many of the latest fault events are kept (32 KB).
  static constexpr std::size_t kRecentFaults = 1024;
  // The last min(stats().total(), kRecentFaults) fault events, oldest first.
  std::vector<FaultEvent> RecentFaults() const;

  // FNV-1a over every recorded (time, kind, packet, subject) tuple in
  // order: two runs with identical fault behaviour hash identically.
  std::uint64_t TraceHash() const { return hash_.value(); }

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
  // Ring of the latest events: grows to kRecentFaults, then event n
  // overwrites entry n % kRecentFaults.
  std::vector<FaultEvent> recent_;
  std::uint64_t recorded_ = 0;  // events recorded so far
  Fnv1a64 hash_;
  FaultStats stats_;
  bool armed_ = false;
};

}  // namespace tdtcp
