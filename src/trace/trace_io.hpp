// Serialization for the tracepoint layer: the `tdtcp-trace/1` JSON schema.
//
// Two document shapes share the schema:
//   * a plain ring dump — header + `records` array (tools/trace2tsv.py
//     consumes these for time-sequence / cwnd-evolution extraction);
//   * a replay fixture — the same plus a `recorded` section holding the
//     RecordedConnection (engine config snapshot + ordered ingress events)
//     that trace/replayer.hpp re-executes and asserts bit-identical.
//
// Each serialized struct (TcpConfig with its cc names, Packet, RecordedEvent,
// TraceRecord, the recorded section) has one ordered field list in
// trace_io.cpp; the writer and the reader both walk it, so the two cannot
// drift apart. A struct field left off its list is not replayed, so a field
// that influences sender behavior needs a line there. The reader starts from
// the struct's own defaults and rejects a present value of the wrong shape (a
// string for a number, a bool other than 0/1, an enum past its last
// enumerator) naming the key. A new key must stay optional on read, so
// fixtures written before it still load.
//
// JSON numbers are doubles, so every serialized integer must stay below
// 2^53. Times (picoseconds), sequence numbers, and tracepoint arguments all
// do for any run the fixtures cover; the full 64-bit ring hash does not and
// is therefore written as a hex string.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "tcp/tcp_connection.hpp"
#include "trace/tracepoints.hpp"

namespace tdtcp {

// One ingress event the recorded connection consumed, in wall (simulated)
// order. Replay re-schedules these at their absolute times; everything else
// the connection did (timers, transmissions) re-derives deterministically.
struct RecordedEvent {
  enum class Kind : std::uint8_t {
    kConnect,    // TcpConnection::Connect()
    kUnlimited,  // SetUnlimitedData(true)
    kAppData,    // AddAppData(app_bytes)
    kPacket,     // HandlePacket(packet)
    kNotify,     // OnTdnChange(tdn, imminent)
    kClose,      // TcpConnection::Close()
  };
  std::int64_t t_ps = 0;
  Kind kind = Kind::kConnect;
  std::uint64_t app_bytes = 0;   // kAppData
  Packet packet{};               // kPacket
  TdnId tdn = 0;                 // kNotify
  bool imminent = false;         // kNotify
};

// Everything needed to re-execute one connection and check its tracepoint
// stream: the engine config (cc modules by registry name so documents can
// rebuild the factory), the ordered ingress events, and the expected
// records (this connection's flow only, oldest first).
struct RecordedConnection {
  FlowId flow = 0;
  NodeId host = 0;
  NodeId peer = 0;
  std::int64_t end_ps = 0;  // sim time of the snapshot; replay runs to here
  TcpConfig config;         // cc_factory/per_tdn_cc rebuilt from names on load
  std::string cc_name = "cubic";
  std::vector<std::string> per_tdn_cc;
  std::vector<RecordedEvent> events;
  std::vector<TraceRecord> records;
  std::uint64_t hash = 0;  // HashTraceRecords(records)
  // True when the ring overwrote older records before the snapshot: the
  // stream is a suffix, so it cannot anchor a from-the-start replay.
  bool wrapped = false;
};

// Order-sensitive FNV-1a over a record sequence (the same mix as
// TraceRing::Hash, applied to an already-extracted vector).
std::uint64_t HashTraceRecords(const std::vector<TraceRecord>& records);

// Plain ring dump (no replay section). `records` should come from
// TraceRing::Snapshot().
std::string TraceToJson(const std::vector<TraceRecord>& records);

// Replay fixture round-trip. Readers throw std::runtime_error on schema
// mismatch or malformed input.
std::string RecordedConnectionToJson(const RecordedConnection& rec);
RecordedConnection RecordedConnectionFromJson(const std::string& text);
void WriteRecordedConnection(const std::string& path,
                             const RecordedConnection& rec);
RecordedConnection ReadRecordedConnection(const std::string& path);

// --- analysis extractions ---------------------------------------------------
// The C++ twins of tools/trace2tsv.py's --cwnd / --timeseq modes, so tests
// can assert on the same views the plotting pipeline consumes.

// cwnd/ssthresh evolution: every kTcpCwndUpdate / kTcpUndo for `flow`.
struct CwndPoint {
  std::int64_t time_ps = 0;
  TdnId tdn = 0;
  std::uint32_t cwnd = 0;
  std::uint32_t ssthresh = 0;
};
std::vector<CwndPoint> ExtractCwndEvolution(
    const std::vector<TraceRecord>& records, FlowId flow);

// Sender-side time-sequence: cumulative highest byte retired, from the
// kTcpSackEdit/kAcked records (a1=seq, a2=len).
struct TimeSeqPoint {
  std::int64_t time_ps = 0;
  std::uint64_t acked_through = 0;  // first unretired byte
};
std::vector<TimeSeqPoint> ExtractTimeSequence(
    const std::vector<TraceRecord>& records, FlowId flow);

}  // namespace tdtcp
