#include "trace/trace_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "cc/registry.hpp"
#include "sim/json.hpp"

namespace tdtcp {

namespace {

constexpr const char* kTraceSchema = "tdtcp-trace/1";

std::string U64ToHex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

std::uint64_t HexToU64(const std::string& s) {
  return std::strtoull(s.c_str(), nullptr, 16);
}

// Writer helper: appends `"key":value` pairs, inserting commas as needed.
class ObjectWriter {
 public:
  explicit ObjectWriter(std::string& out) : out_(out) { out_ += '{'; }
  void Num(const char* key, double v) {
    Key(key);
    out_ += NumberToJson(v);
  }
  void Int(const char* key, std::int64_t v) { Num(key, static_cast<double>(v)); }
  void U64(const char* key, std::uint64_t v) {
    Num(key, static_cast<double>(v));
  }
  void Bool(const char* key, bool v) {
    Key(key);
    out_ += v ? "true" : "false";
  }
  void Str(const char* key, const std::string& v) {
    Key(key);
    out_ += '"';
    out_ += EscapeJson(v);
    out_ += '"';
  }
  void Raw(const char* key, const std::string& v) {
    Key(key);
    out_ += v;
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
  std::string& out_;
  bool first_ = true;
};

std::string RecordsToJsonArray(const std::vector<TraceRecord>& records) {
  std::string out = "[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const TraceRecord& r = records[i];
    if (i) out += ',';
    out += '[';
    out += NumberToJson(static_cast<double>(r.time_ps));
    out += ',';
    out += NumberToJson(r.point);
    out += ',';
    out += NumberToJson(r.flow);
    out += ',';
    out += NumberToJson(static_cast<double>(r.a0));
    out += ',';
    out += NumberToJson(static_cast<double>(r.a1));
    out += ',';
    out += NumberToJson(static_cast<double>(r.a2));
    out += ',';
    out += NumberToJson(static_cast<double>(r.a3));
    out += ']';
  }
  out += ']';
  return out;
}

std::vector<TraceRecord> RecordsFromJsonArray(const JsonValue& arr) {
  if (arr.type != JsonValue::Type::kArray) {
    throw std::runtime_error("tdtcp-trace: records must be an array");
  }
  std::vector<TraceRecord> out;
  out.reserve(arr.array.size());
  for (const JsonValue& jr : arr.array) {
    if (jr.type != JsonValue::Type::kArray || jr.array.size() != 7) {
      throw std::runtime_error("tdtcp-trace: malformed record");
    }
    static const std::string kField[7] = {
        "tdtcp-trace: record time_ps", "tdtcp-trace: record point",
        "tdtcp-trace: record flow",    "tdtcp-trace: record a0",
        "tdtcp-trace: record a1",      "tdtcp-trace: record a2",
        "tdtcp-trace: record a3"};
    TraceRecord r;
    r.time_ps = JsonToSignedInt<std::int64_t>(jr.array[0].number, kField[0]);
    r.point = JsonToInt<std::uint32_t>(jr.array[1].number, kField[1]);
    r.flow = JsonToInt<std::uint32_t>(jr.array[2].number, kField[2]);
    r.a0 = JsonToInt<std::uint64_t>(jr.array[3].number, kField[3]);
    r.a1 = JsonToInt<std::uint64_t>(jr.array[4].number, kField[4]);
    r.a2 = JsonToInt<std::uint64_t>(jr.array[5].number, kField[5]);
    r.a3 = JsonToInt<std::uint64_t>(jr.array[6].number, kField[6]);
    out.push_back(r);
  }
  return out;
}

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

// Packet serialization: defaults are omitted so ACK-heavy fixtures stay
// small. The reader starts from a default-constructed Packet, which makes
// the omission lossless.
std::string PacketToJson(const Packet& p) {
  std::string out;
  ObjectWriter w(out);
  const Packet d;
  if (p.flow != d.flow) w.U64("flow", p.flow);
  if (p.src != d.src) w.U64("src", p.src);
  if (p.dst != d.dst) w.U64("dst", p.dst);
  if (p.type != d.type) w.Int("type", static_cast<int>(p.type));
  if (p.size_bytes != d.size_bytes) w.U64("size", p.size_bytes);
  if (p.pinned_path != d.pinned_path) w.Int("pin", p.pinned_path);
  if (p.seq != d.seq) w.U64("seq", p.seq);
  if (p.ack != d.ack) w.U64("ack", p.ack);
  if (p.payload != d.payload) w.U64("payload", p.payload);
  if (p.rcv_window != d.rcv_window) w.U64("rwnd", p.rcv_window);
  if (p.has_rwnd != d.has_rwnd) w.Bool("has_rwnd", p.has_rwnd);
  if (p.syn != d.syn) w.Bool("syn", p.syn);
  if (p.fin != d.fin) w.Bool("fin", p.fin);
  if (p.rst != d.rst) w.Bool("rst", p.rst);
  if (p.ece != d.ece) w.Bool("ece", p.ece);
  if (p.cwr != d.cwr) w.Bool("cwr", p.cwr);
  if (p.num_sack > 0) {
    std::string sacks = "[";
    for (std::uint8_t i = 0; i < p.num_sack; ++i) {
      if (i) sacks += ',';
      sacks += '[';
      sacks += NumberToJson(static_cast<double>(p.sack[i].start));
      sacks += ',';
      sacks += NumberToJson(static_cast<double>(p.sack[i].end));
      sacks += ']';
    }
    sacks += ']';
    w.Raw("sack", sacks);
  }
  if (p.ecn != d.ecn) w.Int("ecn", static_cast<int>(p.ecn));
  if (p.circuit_mark != d.circuit_mark) w.Bool("cmark", p.circuit_mark);
  if (p.circuit_echo != d.circuit_echo) w.Bool("cecho", p.circuit_echo);
  if (p.td_capable != d.td_capable) w.Bool("td_capable", p.td_capable);
  if (p.td_num_tdns != d.td_num_tdns) w.Int("td_num_tdns", p.td_num_tdns);
  if (p.data_tdn != d.data_tdn) w.Int("data_tdn", p.data_tdn);
  if (p.ack_tdn != d.ack_tdn) w.Int("ack_tdn", p.ack_tdn);
  if (p.notify_tdn != d.notify_tdn) w.Int("notify_tdn", p.notify_tdn);
  if (p.circuit_imminent != d.circuit_imminent) {
    w.Bool("imminent", p.circuit_imminent);
  }
  if (p.notify_peer != d.notify_peer) w.U64("notify_peer", p.notify_peer);
  if (p.notify_seq != d.notify_seq) w.U64("notify_seq", p.notify_seq);
  if (p.subflow != d.subflow) w.Int("subflow", p.subflow);
  if (p.has_dss != d.has_dss) w.Bool("has_dss", p.has_dss);
  if (p.dss_seq != d.dss_seq) w.U64("dss_seq", p.dss_seq);
  if (p.dss_ack != d.dss_ack) w.U64("dss_ack", p.dss_ack);
  if (p.dss_rwnd != d.dss_rwnd) w.U64("dss_rwnd", p.dss_rwnd);
  if (p.is_mptcp != d.is_mptcp) w.Bool("is_mptcp", p.is_mptcp);
  if (!p.sent_time.IsZero()) w.Int("sent_ps", p.sent_time.picos());
  if (!p.enqueue_time.IsZero()) w.Int("enq_ps", p.enqueue_time.picos());
  w.Close();
  return out;
}

double NumOr(const JsonValue& obj, const char* key, double def) {
  const JsonValue* v = obj.Find(key);
  return v ? v->NumberOr(def) : def;
}

// An integer field, `def` when absent; a present value must be an exact
// integer in Int's range (JsonToInt), so a corrupt fixture throws instead of
// truncating or overflowing the cast.
template <typename Int>
Int IntOr(const JsonValue& obj, const char* key, Int def) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->type != JsonValue::Type::kNumber) return def;
  const std::string what = std::string("tdtcp-trace: ") + key;
  if constexpr (std::numeric_limits<Int>::is_signed) {
    return JsonToSignedInt<Int>(v->number, what);
  } else {
    return JsonToInt<Int>(v->number, what);
  }
}

SimTime PicosOr(const JsonValue& obj, const char* key, SimTime def) {
  return SimTime::Picos(IntOr<std::int64_t>(obj, key, def.picos()));
}

bool BoolOr(const JsonValue& obj, const char* key, bool def) {
  // ParseJson models true/false as numbers 1/0.
  const JsonValue* v = obj.Find(key);
  return v ? v->NumberOr(def ? 1 : 0) != 0 : def;
}

Packet PacketFromJson(const JsonValue& j) {
  Packet p;
  p.flow = IntOr<FlowId>(j, "flow", p.flow);
  p.src = IntOr<NodeId>(j, "src", p.src);
  p.dst = IntOr<NodeId>(j, "dst", p.dst);
  p.type = static_cast<PacketType>(
      IntOr<std::uint8_t>(j, "type", static_cast<std::uint8_t>(p.type)));
  p.size_bytes = IntOr<std::uint32_t>(j, "size", p.size_bytes);
  p.pinned_path = IntOr<std::int8_t>(j, "pin", p.pinned_path);
  p.seq = IntOr<std::uint64_t>(j, "seq", 0);
  p.ack = IntOr<std::uint64_t>(j, "ack", 0);
  p.payload = IntOr<std::uint32_t>(j, "payload", 0);
  p.rcv_window = IntOr<std::uint32_t>(j, "rwnd", 0);
  p.has_rwnd = BoolOr(j, "has_rwnd", false);
  p.syn = BoolOr(j, "syn", false);
  p.fin = BoolOr(j, "fin", false);
  p.rst = BoolOr(j, "rst", false);
  p.ece = BoolOr(j, "ece", false);
  p.cwr = BoolOr(j, "cwr", false);
  if (const JsonValue* sacks = j.Find("sack")) {
    for (const JsonValue& b : sacks->array) {
      if (p.num_sack >= kMaxSackBlocks) break;
      if (b.array.size() != 2) {
        throw std::runtime_error("tdtcp-trace: malformed sack block");
      }
      p.sack[p.num_sack].start = JsonToInt<std::uint64_t>(
          b.array[0].number, "tdtcp-trace: sack start");
      p.sack[p.num_sack].end = JsonToInt<std::uint64_t>(
          b.array[1].number, "tdtcp-trace: sack end");
      ++p.num_sack;
    }
  }
  p.ecn = static_cast<Ecn>(IntOr<std::uint8_t>(j, "ecn", 0));
  p.circuit_mark = BoolOr(j, "cmark", false);
  p.circuit_echo = BoolOr(j, "cecho", false);
  p.td_capable = BoolOr(j, "td_capable", false);
  p.td_num_tdns = IntOr<std::uint8_t>(j, "td_num_tdns", 0);
  p.data_tdn = IntOr<TdnId>(j, "data_tdn", kNoTdn);
  p.ack_tdn = IntOr<TdnId>(j, "ack_tdn", kNoTdn);
  p.notify_tdn = IntOr<TdnId>(j, "notify_tdn", kNoTdn);
  p.circuit_imminent = BoolOr(j, "imminent", false);
  p.notify_peer = IntOr<RackId>(j, "notify_peer", p.notify_peer);
  p.notify_seq = IntOr<std::uint64_t>(j, "notify_seq", 0);
  p.subflow = IntOr<std::uint8_t>(j, "subflow", 0);
  p.has_dss = BoolOr(j, "has_dss", false);
  p.dss_seq = IntOr<std::uint64_t>(j, "dss_seq", 0);
  p.dss_ack = IntOr<std::uint64_t>(j, "dss_ack", 0);
  p.dss_rwnd = IntOr<std::uint64_t>(j, "dss_rwnd", 0);
  p.is_mptcp = BoolOr(j, "is_mptcp", false);
  p.sent_time = PicosOr(j, "sent_ps", SimTime::Zero());
  p.enqueue_time = PicosOr(j, "enq_ps", SimTime::Zero());
  return p;
}

const char* EventKindName(RecordedEvent::Kind k) {
  switch (k) {
    case RecordedEvent::Kind::kConnect: return "connect";
    case RecordedEvent::Kind::kUnlimited: return "unlimited";
    case RecordedEvent::Kind::kAppData: return "appdata";
    case RecordedEvent::Kind::kPacket: return "packet";
    case RecordedEvent::Kind::kNotify: return "notify";
    case RecordedEvent::Kind::kClose: return "close";
  }
  return "?";
}

RecordedEvent::Kind EventKindFromName(const std::string& name) {
  if (name == "connect") return RecordedEvent::Kind::kConnect;
  if (name == "unlimited") return RecordedEvent::Kind::kUnlimited;
  if (name == "appdata") return RecordedEvent::Kind::kAppData;
  if (name == "packet") return RecordedEvent::Kind::kPacket;
  if (name == "notify") return RecordedEvent::Kind::kNotify;
  if (name == "close") return RecordedEvent::Kind::kClose;
  throw std::runtime_error("tdtcp-trace: unknown event kind " + name);
}

std::string EventToJson(const RecordedEvent& ev) {
  std::string out;
  ObjectWriter w(out);
  w.Int("t", ev.t_ps);
  w.Str("kind", EventKindName(ev.kind));
  switch (ev.kind) {
    case RecordedEvent::Kind::kAppData:
      w.U64("bytes", ev.app_bytes);
      break;
    case RecordedEvent::Kind::kPacket:
      w.Raw("pkt", PacketToJson(ev.packet));
      break;
    case RecordedEvent::Kind::kNotify:
      w.Int("tdn", ev.tdn);
      w.Bool("imminent", ev.imminent);
      break;
    default:
      break;
  }
  w.Close();
  return out;
}

RecordedEvent EventFromJson(const JsonValue& j) {
  RecordedEvent ev;
  ev.t_ps = IntOr<std::int64_t>(j, "t", 0);
  const JsonValue* kind = j.Find("kind");
  if (!kind) throw std::runtime_error("tdtcp-trace: event without kind");
  ev.kind = EventKindFromName(kind->string);
  ev.app_bytes = IntOr<std::uint64_t>(j, "bytes", 0);
  if (const JsonValue* pkt = j.Find("pkt")) ev.packet = PacketFromJson(*pkt);
  ev.tdn = IntOr<TdnId>(j, "tdn", 0);
  ev.imminent = BoolOr(j, "imminent", false);
  return ev;
}

// Engine-config snapshot. Only fields that influence sender behavior are
// serialized. TcpConfig holds no MPTCP state (a subflow is a connection
// built with a SubflowOwner), and the recorder refuses subflows.
std::string ConfigToJson(const RecordedConnection& rec) {
  const TcpConfig& c = rec.config;
  std::string out;
  ObjectWriter w(out);
  w.U64("mss", c.mss);
  w.U64("header_bytes", c.header_bytes);
  w.U64("ack_bytes", c.ack_bytes);
  w.U64("initial_cwnd", c.initial_cwnd);
  w.U64("snd_buf_bytes", c.snd_buf_bytes);
  w.U64("rcv_buf_bytes", c.rcv_buf_bytes);
  w.Bool("tdtcp_enabled", c.tdtcp_enabled);
  w.Int("num_tdns", c.num_tdns);
  w.Bool("relaxed_reordering", c.relaxed_reordering);
  w.Bool("per_tdn_rtt", c.per_tdn_rtt);
  w.Bool("synthesized_rto", c.synthesized_rto);
  w.Bool("invariant_checks", c.invariant_checks);
  w.Bool("tdn_inference", c.tdn_inference);
  w.U64("tdn_infer_packets", c.tdn_infer_packets);
  w.Bool("sack_enabled", c.sack_enabled);
  w.U64("dupack_threshold", c.dupack_threshold);
  w.Bool("rack_enabled", c.rack_enabled);
  w.Bool("tlp_enabled", c.tlp_enabled);
  w.Bool("ecn_enabled", c.ecn_enabled);
  w.Int("initial_rto_ps", c.rtt.initial_rto.picos());
  w.Int("min_rto_ps", c.rtt.min_rto.picos());
  w.Int("max_rto_ps", c.rtt.max_rto.picos());
  w.U64("max_syn_retries", c.max_syn_retries);
  w.U64("max_synack_retries", c.max_synack_retries);
  w.U64("max_rto_retries", c.max_rto_retries);
  w.U64("max_persist_retries", c.max_persist_retries);
  w.Int("time_wait_ps", c.time_wait_duration.picos());
  w.Bool("close_on_peer_fin", c.close_on_peer_fin);
  w.Bool("pacing_enabled", c.pacing_enabled);
  w.Num("pacing_gain", c.pacing_gain);
  w.Str("cc", rec.cc_name);
  if (!rec.per_tdn_cc.empty()) {
    std::string arr = "[";
    for (std::size_t i = 0; i < rec.per_tdn_cc.size(); ++i) {
      if (i) arr += ',';
      arr += '"';
      arr += EscapeJson(rec.per_tdn_cc[i]);
      arr += '"';
    }
    arr += ']';
    w.Raw("per_tdn_cc", arr);
  }
  w.U64("peer_rack", c.peer_rack);
  w.Close();
  return out;
}

void ConfigFromJson(const JsonValue& j, RecordedConnection& rec) {
  TcpConfig c;
  c.mss = IntOr(j, "mss", c.mss);
  c.header_bytes = IntOr(j, "header_bytes", c.header_bytes);
  c.ack_bytes = IntOr(j, "ack_bytes", c.ack_bytes);
  c.initial_cwnd = IntOr(j, "initial_cwnd", c.initial_cwnd);
  c.snd_buf_bytes = IntOr(j, "snd_buf_bytes", c.snd_buf_bytes);
  c.rcv_buf_bytes = IntOr(j, "rcv_buf_bytes", c.rcv_buf_bytes);
  c.tdtcp_enabled = BoolOr(j, "tdtcp_enabled", c.tdtcp_enabled);
  c.num_tdns = IntOr(j, "num_tdns", c.num_tdns);
  c.relaxed_reordering = BoolOr(j, "relaxed_reordering", c.relaxed_reordering);
  c.per_tdn_rtt = BoolOr(j, "per_tdn_rtt", c.per_tdn_rtt);
  c.synthesized_rto = BoolOr(j, "synthesized_rto", c.synthesized_rto);
  c.invariant_checks = BoolOr(j, "invariant_checks", c.invariant_checks);
  c.tdn_inference = BoolOr(j, "tdn_inference", c.tdn_inference);
  c.tdn_infer_packets = IntOr(j, "tdn_infer_packets", c.tdn_infer_packets);
  c.sack_enabled = BoolOr(j, "sack_enabled", c.sack_enabled);
  c.dupack_threshold = IntOr(j, "dupack_threshold", c.dupack_threshold);
  c.rack_enabled = BoolOr(j, "rack_enabled", c.rack_enabled);
  c.tlp_enabled = BoolOr(j, "tlp_enabled", c.tlp_enabled);
  c.ecn_enabled = BoolOr(j, "ecn_enabled", c.ecn_enabled);
  c.rtt.initial_rto = PicosOr(j, "initial_rto_ps", c.rtt.initial_rto);
  c.rtt.min_rto = PicosOr(j, "min_rto_ps", c.rtt.min_rto);
  c.rtt.max_rto = PicosOr(j, "max_rto_ps", c.rtt.max_rto);
  c.max_syn_retries = IntOr(j, "max_syn_retries", c.max_syn_retries);
  c.max_synack_retries = IntOr(j, "max_synack_retries", c.max_synack_retries);
  c.max_rto_retries = IntOr(j, "max_rto_retries", c.max_rto_retries);
  c.max_persist_retries =
      IntOr(j, "max_persist_retries", c.max_persist_retries);
  c.time_wait_duration = PicosOr(j, "time_wait_ps", c.time_wait_duration);
  c.close_on_peer_fin = BoolOr(j, "close_on_peer_fin", c.close_on_peer_fin);
  c.pacing_enabled = BoolOr(j, "pacing_enabled", c.pacing_enabled);
  c.pacing_gain = NumOr(j, "pacing_gain", c.pacing_gain);
  c.peer_rack = IntOr(j, "peer_rack", c.peer_rack);

  rec.cc_name = "cubic";
  if (const JsonValue* cc = j.Find("cc")) rec.cc_name = cc->string;
  c.cc_factory = MakeCcFactory(rec.cc_name);
  rec.per_tdn_cc.clear();
  if (const JsonValue* per = j.Find("per_tdn_cc")) {
    for (const JsonValue& name : per->array) {
      rec.per_tdn_cc.push_back(name.string);
      c.per_tdn_cc.push_back(MakeCcFactory(name.string));
    }
  }
  rec.config = std::move(c);
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
  std::string out;
  ObjectWriter w(out);
  w.Str("schema", kTraceSchema);
  w.Str("hash", U64ToHex(HashTraceRecords(records)));
  w.Raw("points", PointNamesJson());
  w.Raw("records", RecordsToJsonArray(records));
  w.Close();
  return out;
}

std::string RecordedConnectionToJson(const RecordedConnection& rec) {
  std::string out;
  ObjectWriter w(out);
  w.Str("schema", kTraceSchema);
  w.Str("hash", U64ToHex(rec.hash));
  w.Raw("points", PointNamesJson());
  {
    std::string r;
    ObjectWriter rw(r);
    rw.U64("flow", rec.flow);
    rw.U64("host", rec.host);
    rw.U64("peer", rec.peer);
    rw.Int("end_ps", rec.end_ps);
    rw.Bool("wrapped", rec.wrapped);
    rw.Raw("config", ConfigToJson(rec));
    std::string evs = "[";
    for (std::size_t i = 0; i < rec.events.size(); ++i) {
      if (i) evs += ',';
      evs += EventToJson(rec.events[i]);
    }
    evs += ']';
    rw.Raw("events", evs);
    rw.Close();
    w.Raw("recorded", r);
  }
  w.Raw("records", RecordsToJsonArray(rec.records));
  w.Close();
  return out;
}

RecordedConnection RecordedConnectionFromJson(const std::string& text) {
  const JsonValue doc = ParseJson(text);
  const JsonValue* schema = doc.Find("schema");
  if (!schema || schema->string != kTraceSchema) {
    throw std::runtime_error("tdtcp-trace: unsupported schema");
  }
  const JsonValue* recorded = doc.Find("recorded");
  if (!recorded) {
    throw std::runtime_error("tdtcp-trace: document has no recorded section");
  }
  RecordedConnection rec;
  rec.flow = IntOr<FlowId>(*recorded, "flow", 0);
  rec.host = IntOr<NodeId>(*recorded, "host", 0);
  rec.peer = IntOr<NodeId>(*recorded, "peer", 0);
  rec.end_ps = IntOr<std::int64_t>(*recorded, "end_ps", 0);
  rec.wrapped = BoolOr(*recorded, "wrapped", false);
  if (const JsonValue* cfg = recorded->Find("config")) {
    ConfigFromJson(*cfg, rec);
  }
  if (const JsonValue* evs = recorded->Find("events")) {
    for (const JsonValue& je : evs->array) {
      rec.events.push_back(EventFromJson(je));
    }
  }
  if (const JsonValue* records = doc.Find("records")) {
    rec.records = RecordsFromJsonArray(*records);
  }
  rec.hash = HashTraceRecords(rec.records);
  if (const JsonValue* h = doc.Find("hash")) {
    if (HexToU64(h->string) != rec.hash) {
      throw std::runtime_error(
          "tdtcp-trace: stored hash does not match records (corrupt fixture?)");
    }
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
