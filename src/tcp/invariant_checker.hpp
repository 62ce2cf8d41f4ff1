// Runtime TCP invariant checker.
//
// Linux's TCP accounting is notoriously easy to corrupt one counter at a
// time — the pipe identity (packets_out == sacked_out + lost_out +
// in_flight - retrans_out) is exactly what the kernel's tcp_verify_left_out
// warns about, and TDTCP multiplies the surface by keeping one copy per
// TDN (§3.1/§4.3). The checker recomputes every per-TDN counter from the
// scoreboard after each ACK, loss-marking pass, RTO, and TDN switch, and
// validates sequence monotonicity, window floors, and per-TDN isolation
// across switches. On violation it dumps the scoreboard, every TDN's
// congestion state, and the recent fault trace (when a FaultInjector is
// armed), then throws std::logic_error so tests fail immediately at the
// first corrupt state instead of ten seconds of simulated time later.
//
// Enabled by default on every connection (TcpConfig::invariant_checks);
// cost is O(scoreboard) per checked event.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace tdtcp {

class TcpConnection;

// Implemented by the fault layer (FaultInjector) so a violation report can
// include the fault history that led up to the broken state. Declared here,
// not in src/fault/, so the TCP stack never depends on the fault library.
class FaultTraceSource {
 public:
  virtual ~FaultTraceSource() = default;
  virtual void DumpRecentFaults(std::FILE* out, std::size_t last_n) const = 0;
};

class TcpInvariantChecker {
 public:
  enum class Event : std::uint8_t { kAck, kLoss, kTdnSwitch, kRto, kClose };
  static const char* EventName(Event ev);

  // Validates the connection's full accounting state; throws
  // std::logic_error (after dumping diagnostics to stderr) on violation.
  void Check(TcpConnection& conn, Event ev);

  // Snapshot per-TDN congestion windows immediately before a TDN switch so
  // the kTdnSwitch check can verify isolation: switching TDNs must not
  // touch any non-active TDN's cwnd/ssthresh (§3.1's "snapshot view").
  void WillSwitchTdn(const TcpConnection& conn);

  std::uint64_t checks_run() const { return checks_run_; }

  // Starts over as a fresh checker (a reopened connection's) that keeps its
  // scratch vectors' capacity.
  void Reset();

 private:
  // Per-TDN counters recomputed from the scoreboard (the ground truth).
  struct Recount {
    std::uint32_t packets_out = 0;
    std::uint32_t sacked_out = 0;
    std::uint32_t lost_out = 0;
    std::uint32_t retrans_out = 0;
  };

  [[noreturn]] void Violate(TcpConnection& conn, Event ev,
                            const std::string& what);

  std::uint64_t checks_run_ = 0;
  // Recount scratch: Check runs on every ACK, so the recount buffer is a
  // member rather than a fresh per-call vector.
  std::vector<Recount> recount_scratch_;
  // Monotonicity watermarks.
  std::uint64_t last_snd_una_ = 0;
  std::uint64_t last_rcv_nxt_ = 0;
  // Pre-switch (cwnd, ssthresh) per TDN, captured by WillSwitchTdn.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pre_switch_windows_;
  std::uint8_t pre_switch_active_ = 0;
  bool have_switch_snapshot_ = false;
};

}  // namespace tdtcp
