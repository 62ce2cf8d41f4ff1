// Declarative fault scenarios for the simulator.
//
// A FaultPlan is pure data: which links lose or corrupt packets (i.i.d. or
// Gilbert-Elliott bursts), when links go down, and how the control plane
// misbehaves (notification drop / delay / duplication / reordering, and
// controller stalls that skip a reconfiguration entirely). The FaultInjector
// executes a plan against a Topology with dedicated Random streams, so the
// same (plan, seed) always produces a bit-identical fault trace regardless
// of what the workload's own randomness does.
#pragma once

#include <cstdint>
#include <vector>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace tdtcp {

// Per-link random loss and corruption. Bernoulli and Gilbert-Elliott can be
// combined; a packet is dropped when either process fires. Corruption is
// modeled as a drop counted separately: a corrupted packet fails the
// receiver's checksum, which is indistinguishable from loss end to end.
struct LinkFaultSpec {
  double loss_rate = 0.0;     // i.i.d. per-packet drop probability
  double corrupt_rate = 0.0;  // i.i.d. per-packet corruption probability

  // Gilbert-Elliott burst loss: a two-state Markov chain advanced once per
  // packet. The bad state drops with high probability, producing the
  // correlated bursts that i.i.d. loss cannot.
  bool gilbert_elliott = false;
  double ge_p_good_to_bad = 0.0;
  double ge_p_bad_to_good = 0.1;
  double ge_loss_good = 0.0;
  double ge_loss_bad = 1.0;

  bool Empty() const {
    return loss_rate <= 0.0 && corrupt_rate <= 0.0 && !gilbert_elliott;
  }
};

// Scheduled full outage of one rack NIC link (maintenance window, flapping
// transceiver). The in-flight transmission completes; queued packets wait.
struct LinkDownWindow {
  RackId rack = 0;
  bool uplink = true;  // false = the ToR -> hosts downlink
  SimTime down_at = SimTime::Zero();
  SimTime duration = SimTime::Zero();
};

// Scheduled death of one host's NIC (kernel panic mid-connection, hard
// power-off). Both directions drop silently at the host — no RST, no link
// carrier event — so its peers only discover the death through their own
// bounded-retry machinery (SYN caps, max_rto_retries, persist give-up),
// while the downed host's local timers keep running and abort its side too.
struct HostDownWindow {
  RackId rack = 0;
  std::uint32_t host_index = 0;
  SimTime down_at = SimTime::Zero();
  SimTime duration = SimTime::Zero();  // zero = never comes back
};

// Control-plane faults, applied independently to every per-host ICMP
// notification a ToR generates (§3.2's unreliable notification channel).
struct ControlFaultSpec {
  double notify_loss_rate = 0.0;       // drop the notification outright
  double notify_duplicate_rate = 0.0;  // deliver it twice

  // Extra delivery latency: exponential with this mean (zero disables),
  // plus uniform jitter in [0, notify_delay_jitter]. Large draws reorder
  // notifications relative to each other and to the data path; the hosts'
  // sequence filter must absorb the stale arrivals.
  SimTime notify_delay_mean = SimTime::Zero();
  SimTime notify_delay_jitter = SimTime::Zero();

  // Controller stall: every notification generated inside a window is
  // swallowed -- the fabric reconfigures on schedule but no host hears
  // about it, exactly the "skipped reconfiguration" failure mode.
  struct StallWindow {
    SimTime from = SimTime::Zero();
    SimTime until = SimTime::Zero();
  };
  std::vector<StallWindow> stalls;

  bool Empty() const {
    return notify_loss_rate <= 0.0 && notify_duplicate_rate <= 0.0 &&
           notify_delay_mean.IsZero() && notify_delay_jitter.IsZero() &&
           stalls.empty();
  }
};

// Keys, with the experiment seed, the injector's dedicated Random streams
// (fault decisions never consume workload randomness). The value equals
// kChurnSeedSalt (app/workload.hpp), so the injector and the churn generator
// fork from one parent key. Their streams stay disjoint only through their
// StreamKinds (kLinkFault/kNotifyFault here, kChurnSource there) and because
// the injector never draws from the parent itself (DESIGN.md §14).
inline constexpr std::uint64_t kFaultSeedSalt = 0x9e3779b97f4a7c15ull;

struct FaultPlan {
  LinkFaultSpec fabric;      // every ToR-to-ToR fabric port
  LinkFaultSpec host_links;  // every rack NIC link (up and down)
  std::vector<LinkDownWindow> link_downs;
  std::vector<HostDownWindow> host_downs;
  ControlFaultSpec control;

  // Period of the injector's network-invariant audit (VOQ occupancy within
  // bound on every fabric port). Zero disables the audit.
  SimTime audit_interval = SimTime::Micros(50);

  bool Empty() const {
    return fabric.Empty() && host_links.Empty() && link_downs.empty() &&
           host_downs.empty() && control.Empty();
  }
};

}  // namespace tdtcp
