#include "trace/trace_io.hpp"

#include <algorithm>
#include <cinttypes>
#include <concepts>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "cc/registry.hpp"
#include "sim/json.hpp"

namespace tdtcp {

namespace {

constexpr const char* kTraceSchema = "tdtcp-trace/1";

// Event kind names, indexed by RecordedEvent::Kind.
constexpr const char* kEventKindNames[] = {"connect", "unlimited", "appdata",
                                           "packet",  "notify",    "close"};

// The last enumerator of each enum serialized as a number: larger is corrupt.
constexpr PacketType LastEnumerator(PacketType) { return PacketType::kTdnNotify; }
constexpr Ecn LastEnumerator(Ecn) { return Ecn::kCe; }

template <typename T>
concept Integer = std::integral<T> && !std::same_as<T, bool>;

std::string U64ToHex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t HexToU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

// A packet's SACK option as one value: the block array and its live count.
template <typename Blocks, typename Count>
struct SackList {
  Blocks& blocks;
  Count& count;
  bool operator==(const SackList& o) const {
    return count == o.count &&
           std::equal(blocks.begin(), blocks.begin() + count, o.blocks.begin());
  }
};

// A retired TcpConfig key whose value the engine now fixes (tcp_config.hpp).
// The writer still emits it, so documents keep their keys. The reader throws,
// naming the key, on any other value: the recording ran with a switch this
// engine no longer has, and would replay as if it were at its fixed value.
template <typename T>
struct Fixed {
  T value;
};

// The `config` object: TcpConfig plus the cc registry names that rebuild its
// factories, which RecordedConnection keeps beside it.
template <typename R>
struct ConfigObject {
  R& rec;
};

// --- field lists --------------------------------------------------------------
// One ordered list per serialized struct, walked by both the writer and the
// reader: f(key, field, ...) once per field, in document order. Keys are the
// tdtcp-trace/1 schema: never rename one, and read a new one as optional
// (absent keeps the struct's default) so older fixtures still load.

// Only fields that influence sender behavior are serialized. TcpConfig holds
// no MPTCP state (a subflow is a connection built with a SubflowOwner), and
// the recorder refuses subflows.
//
// A new TcpConfig field must also get a line here, or a recording made with
// it at a non-default value replays with the default. The assert (the size
// under libstdc++ on a 64-bit target) trips on any change to the struct's
// layout as that reminder; update it together with the list.
static_assert(sizeof(TcpConfig) == 168,
              "TcpConfig changed: add its new fields to ConfigFields");
template <typename R, typename F>
void ConfigFields(R& rec, F&& f) {
  auto& c = rec.config;
  f("mss", c.mss);
  f("header_bytes", Fixed{kHeaderBytes});
  f("ack_bytes", Fixed{kAckBytes});
  f("initial_cwnd", c.initial_cwnd);
  f("snd_buf_bytes", c.snd_buf_bytes);
  f("rcv_buf_bytes", c.rcv_buf_bytes);
  f("tdtcp_enabled", c.tdtcp_enabled);
  f("num_tdns", c.num_tdns);
  f("relaxed_reordering", c.relaxed_reordering);
  f("per_tdn_rtt", c.per_tdn_rtt);
  f("synthesized_rto", c.synthesized_rto);
  f("invariant_checks", c.invariant_checks);
  f("tdn_inference", Fixed{true});
  f("tdn_infer_packets", Fixed{kTdnInferPackets});
  f("sack_enabled", Fixed{true});
  f("sack_rtt", c.sack_rtt);
  f("dupack_threshold", Fixed{kDupAckThreshold});
  f("rack_enabled", c.rack_enabled);
  f("tlp_enabled", c.tlp_enabled);
  f("ecn_enabled", c.ecn_enabled);
  f("initial_rto_ps", c.rtt.initial_rto);
  f("min_rto_ps", c.rtt.min_rto);
  f("max_rto_ps", c.rtt.max_rto);
  f("max_syn_retries", c.max_syn_retries);
  f("max_synack_retries", c.max_synack_retries);
  f("max_rto_retries", c.max_rto_retries);
  f("max_persist_retries", c.max_persist_retries);
  f("time_wait_ps", c.time_wait_duration);
  f("close_on_peer_fin", c.close_on_peer_fin);
  f("pacing_enabled", c.pacing_enabled);
  f("pacing_gain", c.pacing_gain);
  f("cc", rec.cc_name);
  f("per_tdn_cc", rec.per_tdn_cc);
  f("peer_rack", c.peer_rack);
}

// f(key, field, default, bounds...): `d` is a default Packet, whose fields
// the writer omits so ACK-heavy fixtures stay small.
template <typename P, typename F>
void PacketFields(P& p, const Packet& d, F&& f) {
  f("flow", p.flow, d.flow);
  f("src", p.src, d.src);
  f("dst", p.dst, d.dst);
  f("type", p.type, d.type);
  f("size", p.size_bytes, d.size_bytes);
  f("pin", p.pinned_path, d.pinned_path, kUnpinned, 1);
  f("seq", p.seq, d.seq);
  f("ack", p.ack, d.ack);
  f("payload", p.payload, d.payload);
  f("rwnd", p.rcv_window, d.rcv_window);
  f("has_rwnd", p.has_rwnd, d.has_rwnd);
  f("syn", p.syn, d.syn);
  f("fin", p.fin, d.fin);
  f("rst", p.rst, d.rst);
  f("ece", p.ece, d.ece);
  f("cwr", p.cwr, d.cwr);
  f("sack", SackList{p.sack, p.num_sack}, SackList{d.sack, d.num_sack});
  f("ecn", p.ecn, d.ecn);
  f("cmark", p.circuit_mark, d.circuit_mark);
  f("cecho", p.circuit_echo, d.circuit_echo);
  f("td_capable", p.td_capable, d.td_capable);
  f("td_num_tdns", p.td_num_tdns, d.td_num_tdns);
  f("data_tdn", p.data_tdn, d.data_tdn);
  f("ack_tdn", p.ack_tdn, d.ack_tdn);
  f("notify_tdn", p.notify_tdn, d.notify_tdn);
  f("imminent", p.circuit_imminent, d.circuit_imminent);
  f("notify_peer", p.notify_peer, d.notify_peer);
  f("notify_seq", p.notify_seq, d.notify_seq);
  f("subflow", p.subflow, d.subflow);
  f("has_dss", p.has_dss, d.has_dss);
  f("dss_seq", p.dss_seq, d.dss_seq);
  f("dss_ack", p.dss_ack, d.dss_ack);
  f("dss_rwnd", p.dss_rwnd, d.dss_rwnd);
  f("is_mptcp", p.is_mptcp, d.is_mptcp);
  f("sent_ps", p.sent_time, d.sent_time);
  f("enq_ps", p.enqueue_time, d.enqueue_time);
}

// The kind decides which payload fields follow; the reader has already read
// it when it reaches them.
template <typename E, typename F>
void EventFields(E& ev, F&& f) {
  using Kind = RecordedEvent::Kind;
  f("t", ev.t_ps);
  f("kind", ev.kind);
  if (ev.kind == Kind::kAppData) f("bytes", ev.app_bytes);
  if (ev.kind == Kind::kPacket) f("pkt", ev.packet);
  if (ev.kind == Kind::kNotify) {
    f("tdn", ev.tdn);
    f("imminent", ev.imminent);
  }
}

// A record is a positional array, not an object: the keys name its fields
// in errors only.
template <typename T, typename F>
void RecordFields(T& r, F&& f) {
  f("time_ps", r.time_ps);
  f("point", r.point);
  f("flow", r.flow);
  f("a0", r.a0);
  f("a1", r.a1);
  f("a2", r.a2);
  f("a3", r.a3);
}

// The `recorded` section. The records and their hash live at the document's
// top level, shared with plain ring dumps.
template <typename R, typename F>
void RecordedFields(R& rec, F&& f) {
  f("flow", rec.flow);
  f("host", rec.host);
  f("peer", rec.peer);
  f("end_ps", rec.end_ps);
  f("wrapped", rec.wrapped);
  f("config", ConfigObject{rec});
  f("events", rec.events);
}

// --- writer -------------------------------------------------------------------

// Appends one JSON object: `"key":value` pairs, one Value overload per value
// shape.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::string& out) : out_(out) { out_ += '{'; }
  template <typename T>
  void Field(const char* key, const T& v) {
    Key(key);
    Value(v);
  }
  // An empty string list is omitted; the reader takes absent as empty.
  void Field(const char* key, const std::vector<std::string>& v) {
    if (v.empty()) return;
    Key(key);
    Value(v);
  }
  void Raw(const char* key, const std::string& json) {
    Key(key);
    out_ += json;
  }
  void Close() { out_ += '}'; }

 private:
  void Key(const char* key) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }

  template <std::same_as<bool> B>
  void Value(B v) {
    out_ += v ? "true" : "false";
  }
  template <Integer Int>
  void Value(Int v) {
    out_ += NumberToJson(static_cast<double>(v));
  }
  template <typename E>
    requires std::is_enum_v<E>
  void Value(E v) {
    Value(static_cast<std::underlying_type_t<E>>(v));
  }
  void Value(RecordedEvent::Kind k) {
    Value(std::string(kEventKindNames[static_cast<std::size_t>(k)]));
  }
  void Value(double v) { out_ += NumberToJson(v); }
  void Value(SimTime t) { Value(t.picos()); }
  template <typename T>
  void Value(const Fixed<T>& v) {
    Value(v.value);
  }
  void Value(const std::string& s) {
    out_ += '"';
    out_ += EscapeJson(s);
    out_ += '"';
  }
  template <typename T>
  void Value(const std::vector<T>& v) {
    out_ += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i) out_ += ',';
      Value(v[i]);
    }
    out_ += ']';
  }
  template <typename B, typename C>
  void Value(const SackList<B, C>& s) {
    out_ += '[';
    for (std::size_t i = 0; i < s.count; ++i) {
      if (i) out_ += ',';
      out_ += '[';
      Value(s.blocks[i].start);
      out_ += ',';
      Value(s.blocks[i].end);
      out_ += ']';
    }
    out_ += ']';
  }
  void Value(const TraceRecord& r) {
    char sep = '[';
    RecordFields(r, [&](const char*, const auto& v) {
      out_ += sep;
      sep = ',';
      Value(v);
    });
    out_ += ']';
  }
  void Value(const Packet& p) {
    ObjectWriter w(out_);
    PacketFields(p, Packet{},
                 [&](const char* key, const auto& v, const auto& def, auto...) {
                   if (!(v == def)) w.Field(key, v);
                 });
    w.Close();
  }
  template <typename T>
  void Object(const T& v, auto fields) {
    ObjectWriter w(out_);
    fields(v, [&](const char* key, const auto& field) { w.Field(key, field); });
    w.Close();
  }
  void Value(const ConfigObject<const RecordedConnection>& c) {
    Object(c.rec, [](const auto& r, auto&& f) { ConfigFields(r, f); });
  }
  void Value(const RecordedEvent& ev) {
    Object(ev, [](const auto& e, auto&& f) { EventFields(e, f); });
  }
  void Value(const RecordedConnection& rec) {
    Object(rec, [](const auto& r, auto&& f) { RecordedFields(r, f); });
  }

  std::string& out_;
  bool first_ = true;
};

// --- reader -------------------------------------------------------------------

// Reads one JSON object into a struct that already holds its defaults: an
// absent key keeps the default, and a present value of the wrong shape
// throws naming the key.
class ObjectReader {
 public:
  ObjectReader(const JsonValue& obj, const std::string& what) : obj_(obj) {
    Expect(obj, JsonValue::Type::kObject, what);
  }
  template <typename T, typename... Bounds>
  void Field(const char* key, T&& v, Bounds... bounds) const {
    if (const JsonValue* j = obj_.Find(key)) {
      Read(*j, std::string("tdtcp-trace: ") + key, v, bounds...);
    }
  }

 private:
  // `j` itself, or a throw naming `what` when it is not of `type`.
  static const JsonValue& Expect(const JsonValue& j, JsonValue::Type type,
                                 const std::string& what) {
    // Indexed by JsonValue::Type.
    static constexpr const char* kWant[] = {"null", "a number", "a string",
                                            "an array", "an object"};
    if (j.type != type) {
      throw std::runtime_error(what + " is not " +
                               kWant[static_cast<std::size_t>(type)]);
    }
    return j;
  }
  // An integer in [lo, hi], checked before any cast.
  template <typename Int>
  static Int ToInt(const JsonValue& j, const std::string& what,
                   std::type_identity_t<Int> lo = std::numeric_limits<Int>::min(),
                   std::type_identity_t<Int> hi = std::numeric_limits<Int>::max()) {
    const double n = Expect(j, JsonValue::Type::kNumber, what).number;
    Int v;
    if constexpr (std::numeric_limits<Int>::is_signed) {
      v = JsonToSignedInt<Int>(n, what);
    } else {
      v = JsonToInt<Int>(n, what);
    }
    if (v < lo || v > hi) {
      throw std::runtime_error(what + " is outside [" + std::to_string(lo) +
                               ", " + std::to_string(hi) + "]");
    }
    return v;
  }
  static void Read(const JsonValue& j, const std::string& what, bool& v) {
    // ParseJson models true/false as numbers 1/0.
    v = ToInt<std::uint8_t>(j, what, 0, 1) != 0;
  }
  template <Integer Int, typename... Bounds>
  static void Read(const JsonValue& j, const std::string& what, Int& v,
                   Bounds... bounds) {
    v = ToInt<Int>(j, what, bounds...);
  }
  template <typename E>
    requires std::is_enum_v<E>
  static void Read(const JsonValue& j, const std::string& what, E& v) {
    using U = std::underlying_type_t<E>;
    v = static_cast<E>(ToInt<U>(j, what, 0, static_cast<U>(LastEnumerator(E{}))));
  }
  static void Read(const JsonValue& j, const std::string& what,
                   RecordedEvent::Kind& v) {
    std::string name;
    Read(j, what, name);
    const auto* it = std::find(std::begin(kEventKindNames),
                               std::end(kEventKindNames), name);
    if (it == std::end(kEventKindNames)) {
      throw std::runtime_error("tdtcp-trace: unknown event kind " + name);
    }
    v = static_cast<RecordedEvent::Kind>(it - std::begin(kEventKindNames));
  }
  static void Read(const JsonValue& j, const std::string& what, double& v) {
    v = Expect(j, JsonValue::Type::kNumber, what).number;
  }
  static void Read(const JsonValue& j, const std::string& what, SimTime& v) {
    v = SimTime::Picos(ToInt<std::int64_t>(j, what));
  }
  static void Read(const JsonValue& j, const std::string& what, std::string& v) {
    v = Expect(j, JsonValue::Type::kString, what).string;
  }
  template <typename T>
  static void Read(const JsonValue& j, const std::string& what,
                   const Fixed<T>& fixed) {
    T v{};
    Read(j, what, v);
    if (v == fixed.value) return;
    std::string want;
    if constexpr (std::is_same_v<T, bool>) {
      want = fixed.value ? "true" : "false";
    } else {
      want = std::to_string(fixed.value);
    }
    throw std::runtime_error(what + " must be " + want +
                             ": the engine no longer has this switch");
  }
  template <typename T>
  static void Read(const JsonValue& j, const std::string& what,
                   std::vector<T>& v) {
    const std::vector<JsonValue>& items =
        Expect(j, JsonValue::Type::kArray, what).array;
    v.assign(items.size(), T{});
    for (std::size_t i = 0; i < items.size(); ++i) Read(items[i], what, v[i]);
  }
  template <typename B, typename C>
  static void Read(const JsonValue& j, const std::string& what,
                   const SackList<B, C>& s) {
    const std::vector<JsonValue>& blocks =
        Expect(j, JsonValue::Type::kArray, what).array;
    if (blocks.size() > s.blocks.size()) {
      throw std::runtime_error(what + " has more than " +
                               std::to_string(s.blocks.size()) + " blocks");
    }
    s.count = static_cast<C>(blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::vector<JsonValue>& b =
          Expect(blocks[i], JsonValue::Type::kArray, what).array;
      if (b.size() != 2) {
        throw std::runtime_error("tdtcp-trace: malformed sack block");
      }
      s.blocks[i].start = ToInt<std::uint64_t>(b[0], what + " start");
      s.blocks[i].end = ToInt<std::uint64_t>(b[1], what + " end");
    }
  }
  static void Read(const JsonValue& j, const std::string&, TraceRecord& r) {
    if (j.type != JsonValue::Type::kArray || j.array.size() != 7) {
      throw std::runtime_error("tdtcp-trace: malformed record");
    }
    std::size_t i = 0;
    RecordFields(r, [&](const char* name, auto& v) {
      Read(j.array[i++], std::string("tdtcp-trace: record ") + name, v);
    });
  }
  static void Read(const JsonValue& j, const std::string& what, Packet& p) {
    const ObjectReader r(j, what);
    // The defaults go unused: p starts as a default Packet.
    PacketFields(p, p, [&](const char* key, auto&& v, const auto&,
                           auto... bounds) { r.Field(key, v, bounds...); });
  }
  template <typename T>
  static void Object(const JsonValue& j, const std::string& what, T& v,
                     auto fields) {
    const ObjectReader r(j, what);
    fields(v, [&](const char* key, auto&& field) { r.Field(key, field); });
  }
  static void Read(const JsonValue& j, const std::string& what,
                   const ConfigObject<RecordedConnection>& c) {
    Object(j, what, c.rec, [](auto& r, auto&& f) { ConfigFields(r, f); });
    TcpConfig& config = c.rec.config;
    config.cc_factory = MakeCcFactory(c.rec.cc_name);
    for (const std::string& name : c.rec.per_tdn_cc) {
      config.per_tdn_cc.push_back(MakeCcFactory(name));
    }
  }
  static void Read(const JsonValue& j, const std::string& what,
                   RecordedEvent& ev) {
    if (j.Find("kind") == nullptr) {
      throw std::runtime_error("tdtcp-trace: event without kind");
    }
    Object(j, what, ev, [](auto& e, auto&& f) { EventFields(e, f); });
  }
  static void Read(const JsonValue& j, const std::string& what,
                   RecordedConnection& rec) {
    Object(j, what, rec, [](auto& r, auto&& f) { RecordedFields(r, f); });
  }

  const JsonValue& obj_;
};

// The point-name map keeps trace2tsv.py in sync with the enum without a
// duplicated table on the Python side.
std::string PointNamesJson() {
  std::string out = "{";
  for (std::uint32_t p = 0; p < kNumTracePoints; ++p) {
    if (p) out += ',';
    out += '"';
    out += std::to_string(p);
    out += "\":\"";
    out += TracePointName(static_cast<TracePoint>(p));
    out += '"';
  }
  out += '}';
  return out;
}

// The document both shapes share; `rec` adds the replay section.
std::string TraceDocument(std::uint64_t hash,
                          const std::vector<TraceRecord>& records,
                          const RecordedConnection* rec) {
  std::string out;
  ObjectWriter w(out);
  w.Field("schema", std::string(kTraceSchema));
  w.Field("hash", U64ToHex(hash));
  w.Raw("points", PointNamesJson());
  if (rec != nullptr) w.Field("recorded", *rec);
  w.Field("records", records);
  w.Close();
  return out;
}

}  // namespace

std::uint64_t HashTraceRecords(const std::vector<TraceRecord>& records) {
  Fnv1a64 h;
  h.Mix(records.size());
  for (const TraceRecord& r : records) {
    h.Mix(static_cast<std::uint64_t>(r.time_ps));
    h.Mix((static_cast<std::uint64_t>(r.point) << 32) | r.flow);
    h.Mix(r.a0);
    h.Mix(r.a1);
    h.Mix(r.a2);
    h.Mix(r.a3);
  }
  return h.value();
}

std::string TraceToJson(const std::vector<TraceRecord>& records) {
  return TraceDocument(HashTraceRecords(records), records, nullptr);
}

std::string RecordedConnectionToJson(const RecordedConnection& rec) {
  return TraceDocument(rec.hash, rec.records, &rec);
}

RecordedConnection RecordedConnectionFromJson(const std::string& text) {
  const JsonValue doc = ParseJson(text);
  const JsonValue* schema = doc.Find("schema");
  if (!schema || schema->string != kTraceSchema) {
    throw std::runtime_error("tdtcp-trace: unsupported schema");
  }
  if (!doc.Find("recorded")) {
    throw std::runtime_error("tdtcp-trace: document has no recorded section");
  }
  RecordedConnection rec;
  const ObjectReader r(doc, "tdtcp-trace: document");
  r.Field("recorded", rec);
  r.Field("records", rec.records);
  rec.hash = HashTraceRecords(rec.records);
  const JsonValue* hash = doc.Find("hash");
  if (hash && HexToU64(hash->string) != rec.hash) {
    throw std::runtime_error(
        "tdtcp-trace: stored hash does not match records (corrupt fixture?)");
  }
  return rec;
}

void WriteRecordedConnection(const std::string& path,
                             const RecordedConnection& rec) {
  WriteTextFile(path, RecordedConnectionToJson(rec));
}

RecordedConnection ReadRecordedConnection(const std::string& path) {
  return RecordedConnectionFromJson(ReadTextFile(path));
}

std::vector<CwndPoint> ExtractCwndEvolution(
    const std::vector<TraceRecord>& records, FlowId flow) {
  std::vector<CwndPoint> out;
  for (const TraceRecord& r : records) {
    if (r.flow != flow) continue;
    const auto p = static_cast<TracePoint>(r.point);
    if (p != TracePoint::kTcpCwndUpdate && p != TracePoint::kTcpUndo) continue;
    CwndPoint c;
    c.time_ps = r.time_ps;
    c.tdn = static_cast<TdnId>(r.a0);
    c.cwnd = static_cast<std::uint32_t>(r.a1);
    c.ssthresh = static_cast<std::uint32_t>(r.a2);
    out.push_back(c);
  }
  return out;
}

std::vector<TimeSeqPoint> ExtractTimeSequence(
    const std::vector<TraceRecord>& records, FlowId flow) {
  std::vector<TimeSeqPoint> out;
  std::uint64_t high = 0;
  for (const TraceRecord& r : records) {
    if (r.flow != flow) continue;
    if (static_cast<TracePoint>(r.point) != TracePoint::kTcpSackEdit) continue;
    if (static_cast<TraceSackEdit>(r.a0) != TraceSackEdit::kAcked) continue;
    const std::uint64_t through = r.a1 + r.a2;
    if (through <= high) continue;
    high = through;
    out.push_back(TimeSeqPoint{r.time_ps, high});
  }
  return out;
}

}  // namespace tdtcp
