// Deterministic trace replay oracle.
//
// TraceRecorder captures everything a live TcpConnection consumes — its
// lifecycle calls, every packet it receives, every TDN notification its
// host delivers — alongside the tracepoint stream it emitted.
// ReplayConnection re-executes those ingress events against a fresh
// engine (fresh Simulator, a host whose uplink discards transmissions)
// and asserts that the re-emitted tracepoint stream is bit-identical.
//
// What this catches: any nondeterminism in the TCP/TDTCP state machines
// (iteration-order dependence, uninitialized reads, hidden wall-clock or
// RNG inputs) and any behavioral drift against checked-in fixtures — a
// code change that alters a recorded connection's decisions fails replay
// even if every aggregate statistic happens to come out the same.
//
// Scope: plain TCP/TDTCP senders (no MPTCP meta-connection plumbing), and
// hosts using the pull notification model — under the push model the
// recorder's listener hears notifications at its own stagger slot, not the
// connection's.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_connection.hpp"
#include "trace/trace_io.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

// Attach to a live connection before it connects; the recorder installs the
// connection's packet tap (rx direction) and registers a host TDN listener
// with the connection's rack filter. Lifecycle calls the harness makes on
// the connection (Connect, SetUnlimitedData, AddAppData) are not
// interceptable, so the harness mirrors them through Note*() at the moment
// it makes them.
class TraceRecorder : private Host::TdnListener {
 public:
  // Throws std::invalid_argument when `conn` is an MPTCP subflow.
  TraceRecorder(Simulator& sim, TcpConnection& conn, Host& host);
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void NoteConnect();
  void NoteUnlimited();
  void NoteAppData(std::uint64_t bytes);
  void NoteClose();

  // Snapshot: engine config + ingress events + the ring's records for this
  // connection's flow, hashed. Call after the simulation finished (the
  // current sim time becomes the replay horizon).
  RecordedConnection Finish(const TraceRing& ring) const;

 private:
  // Host::TdnListener: records the notification as an ingress event.
  void OnTdnChange(TdnId tdn, bool imminent) override;

  Simulator& sim_;
  TcpConnection& conn_;
  Host& host_;
  std::vector<RecordedEvent> events_;
};

struct ReplayResult {
  bool ok = false;
  std::size_t record_count = 0;   // records compared
  std::size_t mismatch_index = 0; // first divergence (valid when !ok)
  std::string message;            // human-readable verdict
  std::uint64_t hash = 0;         // hash of the replayed stream
};

// Re-executes `rec` and compares tracepoint streams record by record.
ReplayResult ReplayConnection(const RecordedConnection& rec);

// Formats one record for diagnostics: "t=... point=tcp_timer_arm ...".
std::string FormatTraceRecord(const TraceRecord& r);

}  // namespace tdtcp
