#include "tcp/invariant_checker.hpp"

#include <cinttypes>
#include <stdexcept>
#include <utility>
#include <vector>

#include "tcp/tcp_connection.hpp"

namespace tdtcp {

const char* TcpInvariantChecker::EventName(Event ev) {
  switch (ev) {
    case Event::kAck: return "ack";
    case Event::kLoss: return "loss";
    case Event::kTdnSwitch: return "tdn-switch";
    case Event::kRto: return "rto";
    case Event::kClose: return "close";
  }
  return "?";
}

namespace {

// Per-TDN counters recomputed from the scoreboard (the ground truth).
struct Recount {
  std::uint32_t packets_out = 0;
  std::uint32_t sacked_out = 0;
  std::uint32_t lost_out = 0;
  std::uint32_t retrans_out = 0;
};

// Pre-switch (cwnd, ssthresh) per TDN, captured by WillSwitchTdn for the
// checker in `owner` and consumed by that checker's next kTdnSwitch Check.
struct SwitchSnapshot {
  const TcpInvariantChecker* owner = nullptr;
  std::uint8_t active = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> windows;
};

// Per-thread scratch, shared by every checker on the thread: Check runs on
// every ACK, and none of it is live once Check returns (the snapshot lives
// from WillSwitchTdn to the Check that follows it synchronously).
thread_local std::vector<Recount> t_recount;
thread_local SwitchSnapshot t_switch;

}  // namespace

void TcpInvariantChecker::Reset() {
  *this = TcpInvariantChecker();
  if (t_switch.owner == this) t_switch.owner = nullptr;
}

void TcpInvariantChecker::WillSwitchTdn(const TcpConnection& conn) {
  const TdnManager& tdns = conn.tdns();
  SwitchSnapshot& snap = t_switch;
  snap.windows.clear();
  for (std::size_t i = 0; i < tdns.num_tdns(); ++i) {
    const TdnState& st = tdns.state(static_cast<TdnId>(i));
    snap.windows.emplace_back(st.cwnd, st.ssthresh);
  }
  snap.active = tdns.active_id();
  snap.owner = this;
}

void TcpInvariantChecker::Check(TcpConnection& conn, Event ev) {
  ++checks_run_;
  TdnManager& tdns = conn.tdns();
  const std::size_t n = tdns.num_tdns();

  // Recompute every pipe counter from the scoreboard and compare with the
  // per-TDN state the fast paths maintain incrementally.
  std::vector<Recount>& actual = t_recount;
  actual.assign(n, Recount{});
  for (const TxSegment& seg : conn.send_queue().segments()) {
    if (seg.tdn >= n) {
      Violate(conn, ev,
              "segment seq=" + std::to_string(seg.seq) +
                  " tagged with unknown TDN " + std::to_string(seg.tdn));
    }
    Recount& c = actual[seg.tdn];
    ++c.packets_out;
    if (seg.sacked) ++c.sacked_out;
    if (seg.lost) ++c.lost_out;
    if (seg.retrans) ++c.retrans_out;
  }
  // The queue's own SACKed count, which loss detection reads.
  std::uint64_t sacked = 0;
  for (const Recount& c : actual) sacked += c.sacked_out;
  if (sacked != conn.send_queue().sacked()) {
    Violate(conn, ev,
            "send queue counts " + std::to_string(conn.send_queue().sacked()) +
                " SACKed segments but scoreboard holds " +
                std::to_string(sacked));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const TdnState& st = tdns.state(static_cast<TdnId>(i));
    const Recount& c = actual[i];
    // The message prefix is built only on the violation path: Check runs
    // after every ACK and must not allocate when the invariants hold.
    const auto tdn = [i] { return "TDN " + std::to_string(i) + ": "; };
    if (st.packets_out != c.packets_out) {
      Violate(conn, ev,
              tdn() + "packets_out=" + std::to_string(st.packets_out) +
                  " but scoreboard holds " + std::to_string(c.packets_out));
    }
    if (st.sacked_out != c.sacked_out) {
      Violate(conn, ev,
              tdn() + "sacked_out=" + std::to_string(st.sacked_out) +
                  " but scoreboard holds " + std::to_string(c.sacked_out));
    }
    if (st.lost_out != c.lost_out) {
      Violate(conn, ev,
              tdn() + "lost_out=" + std::to_string(st.lost_out) +
                  " but scoreboard holds " + std::to_string(c.lost_out));
    }
    if (st.retrans_out != c.retrans_out) {
      Violate(conn, ev,
              tdn() + "retrans_out=" + std::to_string(st.retrans_out) +
                  " but scoreboard holds " + std::to_string(c.retrans_out));
    }
    // Linux tcp_verify_left_out: left_out (sacked + lost) never exceeds
    // packets_out, and the pipe identity
    //   packets_out == sacked_out + lost_out + in_flight - retrans_out
    // holds by construction of packets_in_flight(); verify the inputs.
    if (st.sacked_out + st.lost_out > st.packets_out) {
      Violate(conn, ev,
              tdn() + "left_out " + std::to_string(st.sacked_out + st.lost_out) +
                  " > packets_out " + std::to_string(st.packets_out));
    }
    if (st.retrans_out > st.packets_out) {
      Violate(conn, ev,
              tdn() + "retrans_out " + std::to_string(st.retrans_out) +
                  " > packets_out " + std::to_string(st.packets_out));
    }
    if (st.cwnd < 1) Violate(conn, ev, tdn() + "cwnd below floor of 1");
    if (st.ssthresh < 2) {
      Violate(conn, ev,
              tdn() + "ssthresh " + std::to_string(st.ssthresh) +
                  " below floor of 2");
    }
  }

  // Sequence-space sanity and monotonicity.
  if (conn.snd_una() > conn.snd_nxt()) {
    Violate(conn, ev,
            "snd_una " + std::to_string(conn.snd_una()) + " > snd_nxt " +
                std::to_string(conn.snd_nxt()));
  }
  if (conn.snd_una() < last_snd_una_) {
    Violate(conn, ev,
            "snd_una moved backwards: " + std::to_string(last_snd_una_) +
                " -> " + std::to_string(conn.snd_una()));
  }
  if (conn.rcv_nxt() < last_rcv_nxt_) {
    Violate(conn, ev,
            "rcv_nxt moved backwards: " + std::to_string(last_rcv_nxt_) +
                " -> " + std::to_string(conn.rcv_nxt()));
  }
  last_snd_una_ = conn.snd_una();
  last_rcv_nxt_ = conn.rcv_nxt();

  // Per-TDN isolation across a switch (§3.1): only the TDN being resumed
  // may see its congestion window touched by the switch itself.
  SwitchSnapshot& snap = t_switch;
  if (ev == Event::kTdnSwitch && snap.owner == this) {
    snap.owner = nullptr;
    const auto& pre = snap.windows;
    for (std::size_t i = 0; i < pre.size() && i < n; ++i) {
      if (i == tdns.active_id()) continue;
      const TdnState& st = tdns.state(static_cast<TdnId>(i));
      if (st.cwnd != pre[i].first || st.ssthresh != pre[i].second) {
        Violate(conn, ev,
                "TDN switch " + std::to_string(snap.active) + " -> " +
                    std::to_string(tdns.active_id()) +
                    " modified inactive TDN " + std::to_string(i) +
                    " (cwnd " + std::to_string(pre[i].first) + " -> " +
                    std::to_string(st.cwnd) + ")");
      }
    }
  }
}

void TcpInvariantChecker::Violate(TcpConnection& conn, Event ev,
                                  const std::string& what) {
  std::FILE* out = stderr;
  std::fprintf(out,
               "\n=== TCP invariant violation (flow %u, event %s) ===\n%s\n",
               conn.flow(), EventName(ev), what.c_str());
  std::fprintf(out,
               "snd_una=%" PRIu64 " snd_nxt=%" PRIu64 " rcv_nxt=%" PRIu64
               " tdtcp=%d active_tdn=%u\n",
               conn.snd_una(), conn.snd_nxt(), conn.rcv_nxt(),
               conn.tdtcp_active() ? 1 : 0,
               static_cast<unsigned>(conn.tdns().active_id()));
  const TdnManager& tdns = conn.tdns();
  for (std::size_t i = 0; i < tdns.num_tdns(); ++i) {
    const TdnState& st = tdns.state(static_cast<TdnId>(i));
    std::fprintf(out,
                 "  TDN %zu: ca=%s cwnd=%u ssthresh=%u packets_out=%u "
                 "sacked=%u lost=%u retrans=%u high_seq=%" PRIu64 "\n",
                 i, CaStateName(st.ca_state), st.cwnd, st.ssthresh,
                 st.packets_out, st.sacked_out, st.lost_out, st.retrans_out,
                 st.high_seq);
  }
  const auto& segs = conn.send_queue().segments();
  std::fprintf(out, "scoreboard (%zu segments%s):\n", segs.size(),
               segs.size() > 64 ? ", first 64" : "");
  std::size_t shown = 0;
  for (const TxSegment& seg : segs) {
    if (++shown > 64) break;
    std::fprintf(out,
                 "  seq=%" PRIu64 " len=%u tdn=%u tx=%u%s%s%s%s%s\n",
                 seg.seq, seg.len, static_cast<unsigned>(seg.tdn),
                 seg.transmissions, seg.syn ? " SYN" : "",
                 seg.fin ? " FIN" : "", seg.sacked ? " SACKED" : "",
                 seg.lost ? " LOST" : "", seg.retrans ? " RETRANS" : "");
  }
  if (const FaultTraceSource* faults = conn.fault_trace()) {
    faults->DumpRecentFaults(out, 32);
  }
  std::fprintf(out, "=== end violation report ===\n");
  throw std::logic_error("TCP invariant violated (flow " +
                         std::to_string(conn.flow()) + ", " + EventName(ev) +
                         "): " + what);
}

}  // namespace tdtcp
