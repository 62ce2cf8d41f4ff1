// Tracepoint observability layer.
//
// Instrumented components (TcpConnection, TdnManager, Host, RdcnController)
// emit fixed-size binary TraceRecords into a per-Simulator TraceRing. The
// design goals, in order:
//
//  1. Zero overhead when disabled. Every instrumented component keeps a
//     hoisted `bool has_trace_` next to its hot state (the same pattern as
//     the TapFn packet hooks), so the disabled fast path is one predictable
//     branch — no virtual call, no allocation, no lock.
//  2. Deterministic. Records carry simulated time and integer arguments
//     only; two runs of the same config produce bit-identical streams, which
//     is what the replay oracle (trace/replayer.hpp) asserts and what the
//     order-sensitive ring hash summarizes for jobs=1 == jobs=N checks.
//  3. Allocation-free in steady state. The ring preallocates its buffer at
//     construction and overwrites the oldest record on wraparound.
//
// This header is intentionally self-contained (no link-time dependency) so
// lower layers like tdtcp_stack can include it without linking tdtcp_trace;
// only the cold name table (TracePointName) lives in tracepoints.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/hash.hpp"

namespace tdtcp {

// Every instrumented site. Values are stable serialization IDs: they appear
// in tdtcp-trace/1 documents and checked-in replay fixtures, so append new
// points at the end and never renumber.
enum class TracePoint : std::uint32_t {
  // TCP connection (a0..a3 meanings in trace_io.cpp's argument tables).
  kTcpStateChange = 0,    // a0=old TcpState, a1=new TcpState
  kTcpCaStateChange = 1,  // a0=tdn, a1=old CaState, a2=new CaState
  kTcpCwndUpdate = 2,     // a0=tdn, a1=cwnd (segments), a2=ssthresh
  kTcpTimerArm = 3,       // a0=TraceTimer, a1=deadline ps
  kTcpTimerCancel = 4,    // a0=TraceTimer
  kTcpTimerFire = 5,      // a0=TraceTimer
  kTcpSackEdit = 6,       // a0=TraceSackEdit, a1=seq, a2=len
  kTcpUndo = 7,           // a0=tdn, a1=restored cwnd, a2=restored ssthresh
  // TDTCP.
  kTdnSwitch = 8,         // a0=old tdn, a1=new tdn
  kTdnStateSelect = 9,    // a0=tdn (first use: lazily created per-TDN state)
  // Host notification path.
  kHostNotifyRx = 10,     // a0=tdn, a1=notify_seq, a2=imminent
  kHostNotifyStale = 11,  // a0=tdn, a1=notify_seq (dropped as stale/dup)
  // RDCN controller day/night schedule.
  kRdcnDayStart = 12,     // a0=tdn, a1=day index, a2=is circuit day
  kRdcnNightStart = 13,   // a0=day index, a1=was circuit day
  // Connection lifecycle (teardown / abort paths).
  kTcpClose = 14,         // local Close(): a0=state when called
  kTcpClosed = 15,        // reached kClosed: a0=CloseReason
  kTcpRstOut = 16,        // RST sent: a0=state when generated
  kTcpRstIn = 17,         // RST received: a0=state when it landed
  kTcpFinRx = 18,         // peer FIN consumed in order: a0=fin seq
  // Host NIC state (FaultKind::kHostDown windows).
  kHostNicState = 19,     // a0=enabled (0/1), a3=host NodeId
  // Host recovery agent + timer wheel.
  kRecoveryForced = 20,   // a0=seq, a1=tdn, a2=quiet ps, a3=threshold ps
  kWheelCascade = 21,     // a0=level, a1=slot, a2=entries moved, a3=host NodeId
  // Adversarial-schedule perturbations (rdcn/perturbation.hpp).
  kSchedChange = 22,      // a0=day_length ps, a1=night_length ps, a2=live tdns
  kSchedRestartHold = 23, // a0=hold ps, a1=day index, a2=was night (0/1)
  kTdnRetire = 24,        // a0=live tdn count, a1=sets retired, a2=active moved
};
// One past the last point: bump it with every appended point.
inline constexpr std::uint32_t kNumTracePoints = 25;

// Timer identity for kTcpTimer{Arm,Cancel,Fire}.
enum class TraceTimer : std::uint64_t {
  kRto = 0,
  kTlp = 1,
  kPace = 2,
  kPersist = 3,
  kTimeWait = 4,
};

// Scoreboard edit kinds for kTcpSackEdit.
enum class TraceSackEdit : std::uint64_t {
  kSacked = 0,   // segment newly marked sacked
  kLost = 1,     // segment newly marked lost
  kRetrans = 2,  // segment (re)transmitted from the scoreboard
  kAcked = 3,    // segment cumulatively acked and retired
  kUndo = 4,     // DSACK proved a retransmission spurious
};

// One fixed-size binary record. 48 bytes, no padding, trivially copyable —
// fixture comparison and the ring hash are plain memberwise operations.
struct TraceRecord {
  std::int64_t time_ps = 0;   // simulated time of emission
  std::uint32_t point = 0;    // TracePoint
  std::uint32_t flow = 0;     // FlowId, or 0 for host/controller scope
  std::uint64_t a0 = 0;
  std::uint64_t a1 = 0;
  std::uint64_t a2 = 0;
  std::uint64_t a3 = 0;

  friend bool operator==(const TraceRecord& x, const TraceRecord& y) {
    return x.time_ps == y.time_ps && x.point == y.point && x.flow == y.flow &&
           x.a0 == y.a0 && x.a1 == y.a1 && x.a2 == y.a2 && x.a3 == y.a3;
  }
  friend bool operator!=(const TraceRecord& x, const TraceRecord& y) {
    return !(x == y);
  }
};

static_assert(sizeof(TraceRecord) == 48, "TraceRecord must stay fixed-size");

// Preallocated power-of-two ring. Emit is the only hot entry point: one
// store per field plus a masked increment, no branches on capacity.
class TraceRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2) so the wraparound
  // index is a mask, not a modulo.
  explicit TraceRing(std::size_t capacity = 1u << 16) {
    std::size_t cap = 2;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    ring_.resize(cap);
  }

  void Emit(std::int64_t time_ps, TracePoint point, std::uint32_t flow,
            std::uint64_t a0 = 0, std::uint64_t a1 = 0, std::uint64_t a2 = 0,
            std::uint64_t a3 = 0) {
    TraceRecord& r = ring_[total_ & mask_];
    r.time_ps = time_ps;
    r.point = static_cast<std::uint32_t>(point);
    r.flow = flow;
    r.a0 = a0;
    r.a1 = a1;
    r.a2 = a2;
    r.a3 = a3;
    ++total_;
  }

  std::size_t capacity() const { return mask_ + 1; }
  // Total records ever emitted; min(total, capacity) survive in the ring.
  std::uint64_t total_emitted() const { return total_; }
  std::size_t size() const {
    return total_ < capacity() ? static_cast<std::size_t>(total_)
                               : capacity();
  }

  // Surviving records, oldest first. Allocates — debug/serialization only.
  std::vector<TraceRecord> Snapshot() const {
    std::vector<TraceRecord> out;
    out.reserve(size());
    const std::uint64_t begin = total_ < capacity() ? 0 : total_ - capacity();
    for (std::uint64_t i = begin; i < total_; ++i) {
      out.push_back(ring_[i & mask_]);
    }
    return out;
  }

  // Order-sensitive FNV-1a over every surviving record plus the emission
  // count. Identical streams hash identically regardless of how the sweep
  // engine scheduled the runs, which is what the `trace_hash` metric checks.
  std::uint64_t Hash() const {
    Fnv1a64 h;
    h.Mix(total_);
    const std::uint64_t begin = total_ < capacity() ? 0 : total_ - capacity();
    for (std::uint64_t i = begin; i < total_; ++i) {
      const TraceRecord& r = ring_[i & mask_];
      h.Mix(static_cast<std::uint64_t>(r.time_ps));
      h.Mix((static_cast<std::uint64_t>(r.point) << 32) | r.flow);
      h.Mix(r.a0);
      h.Mix(r.a1);
      h.Mix(r.a2);
      h.Mix(r.a3);
    }
    return h.value();
  }

  void Clear() { total_ = 0; }

 private:
  std::vector<TraceRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t total_ = 0;
};

// Human-readable name for a point ("tcp_state_change", ...); defined in
// tracepoints.cpp so the table stays out of instrumented objects.
const char* TracePointName(TracePoint p);
const char* TraceTimerName(TraceTimer t);
const char* TraceSackEditName(TraceSackEdit e);

}  // namespace tdtcp
