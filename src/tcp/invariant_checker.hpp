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
  // touch any non-active TDN's cwnd/ssthresh (§3.1's "snapshot view"). The
  // snapshot lives in per-thread scratch, tagged with this checker, so the
  // kTdnSwitch Check must follow its own WillSwitchTdn synchronously, with
  // no other connection's switch in between (both TcpConnection call sites
  // do). A kTdnSwitch check that finds another checker's snapshot skips the
  // isolation comparison.
  void WillSwitchTdn(const TcpConnection& conn);

  std::uint64_t checks_run() const { return checks_run_; }

  // Starts over as a fresh checker (a reopened connection's).
  void Reset();

 private:
  [[noreturn]] void Violate(TcpConnection& conn, Event ev,
                            const std::string& what);

  // The checker holds only what outlives a call: the recount and the
  // pre-switch snapshot are per-thread scratch (invariant_checker.cpp).
  std::uint64_t checks_run_ = 0;
  // Monotonicity watermarks.
  std::uint64_t last_snd_una_ = 0;
  std::uint64_t last_rcv_nxt_ = 0;
};

}  // namespace tdtcp
