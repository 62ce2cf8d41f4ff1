#include "trace/replayer.hpp"

#include <cinttypes>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "net/link.hpp"

namespace tdtcp {

namespace {

// Replay runs the sender against a void: transmissions vanish, and every
// response the sender ever saw arrives from the recording instead.
struct DiscardSink : PacketSink {
  void HandlePacket(Packet&&) override {}
};

}  // namespace

TraceRecorder::TraceRecorder(Simulator& sim, TcpConnection& conn, Host& host)
    : sim_(sim), conn_(conn), host_(host) {
  if (conn.is_subflow()) {
    throw std::invalid_argument(
        "TraceRecorder: recording MPTCP subflows is unsupported");
  }
  conn_.SetPacketTap([this](TcpConnection::TapDirection dir, const Packet& p) {
    if (dir != TcpConnection::TapDirection::kRx) return;
    RecordedEvent ev;
    ev.t_ps = sim_.now().picos();
    ev.kind = RecordedEvent::Kind::kPacket;
    ev.packet = p;
    events_.push_back(std::move(ev));
  });
  // Registered after the connection's own listener, so under the pull model
  // both hear a notification synchronously at the same sim time and the
  // recorded order matches the connection's processing order.
  host_.AddTdnListener(this, conn_.config().peer_rack);
}

TraceRecorder::~TraceRecorder() {
  host_.RemoveTdnListener(this);
  conn_.SetPacketTap(nullptr);
}

void TraceRecorder::OnTdnChange(TdnId tdn, bool imminent) {
  RecordedEvent ev;
  ev.t_ps = sim_.now().picos();
  ev.kind = RecordedEvent::Kind::kNotify;
  ev.tdn = tdn;
  ev.imminent = imminent;
  events_.push_back(ev);
}

void TraceRecorder::NoteConnect() {
  events_.push_back(
      RecordedEvent{sim_.now().picos(), RecordedEvent::Kind::kConnect});
}

void TraceRecorder::NoteUnlimited() {
  events_.push_back(
      RecordedEvent{sim_.now().picos(), RecordedEvent::Kind::kUnlimited});
}

void TraceRecorder::NoteAppData(std::uint64_t bytes) {
  RecordedEvent ev;
  ev.t_ps = sim_.now().picos();
  ev.kind = RecordedEvent::Kind::kAppData;
  ev.app_bytes = bytes;
  events_.push_back(ev);
}

void TraceRecorder::NoteClose() {
  events_.push_back(
      RecordedEvent{sim_.now().picos(), RecordedEvent::Kind::kClose});
}

RecordedConnection TraceRecorder::Finish(const TraceRing& ring) const {
  RecordedConnection rec;
  rec.flow = conn_.flow();
  rec.host = host_.id();
  rec.peer = 0;  // informational; replay addresses nothing by peer id
  rec.end_ps = sim_.now().picos();
  rec.config = conn_.config();
  rec.cc_name =
      rec.config.cc_factory ? rec.config.cc_factory()->name() : "cubic";
  for (const CcFactory& f : rec.config.per_tdn_cc) {
    rec.per_tdn_cc.push_back(f ? f()->name() : "cubic");
  }
  rec.events = events_;
  rec.wrapped = ring.total_emitted() > ring.capacity();
  for (const TraceRecord& r : ring.Snapshot()) {
    if (r.flow == rec.flow) rec.records.push_back(r);
  }
  rec.hash = HashTraceRecords(rec.records);
  return rec;
}

std::string FormatTraceRecord(const TraceRecord& r) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "t=%" PRId64 "ps point=%s flow=%u a0=%" PRIu64 " a1=%" PRIu64
                " a2=%" PRIu64 " a3=%" PRIu64,
                r.time_ps, TracePointName(static_cast<TracePoint>(r.point)),
                r.flow, r.a0, r.a1, r.a2, r.a3);
  return buf;
}

ReplayResult ReplayConnection(const RecordedConnection& rec) {
  ReplayResult out;
  if (rec.wrapped) {
    out.message =
        "recording wrapped its ring: the stream is a suffix and cannot "
        "anchor a from-the-start replay (raise TraceOptions::ring_capacity)";
    return out;
  }

  Simulator sim;
  DiscardSink discard;
  Link::Config lc;
  lc.rate_bps = 1'000'000'000'000;  // effectively instant; tx is discarded
  lc.propagation = SimTime::Nanos(1);
  lc.queue.capacity_packets = 1u << 16;
  Link uplink(sim, lc, &discard);
  Host host(sim, rec.host);
  host.AttachUplink(&uplink);

  // The ring must hold the whole replayed stream: wraparound here would
  // silently drop the prefix the comparison anchors on.
  TraceRing ring(std::max<std::size_t>(1u << 16, 2 * rec.records.size() + 16));

  TcpConnection conn(sim, &host, rec.flow, rec.peer, rec.config);
  conn.SetTraceRing(&ring);

  // Pre-schedule every ingress event at its recorded absolute time. Events
  // sharing a timestamp fire in schedule order, which is the recorded order.
  // Events are captured by pointer into rec.events (alive for the whole
  // replay) to keep the lambda within the inline event capture budget.
  for (const RecordedEvent& ev : rec.events) {
    const RecordedEvent* evp = &ev;
    sim.ScheduleAtNoCancel(SimTime::Picos(ev.t_ps), [&conn, evp] {
      switch (evp->kind) {
        case RecordedEvent::Kind::kConnect:
          conn.Connect();
          break;
        case RecordedEvent::Kind::kUnlimited:
          conn.SetUnlimitedData(true);
          break;
        case RecordedEvent::Kind::kAppData:
          conn.AddAppData(evp->app_bytes);
          break;
        case RecordedEvent::Kind::kPacket:
          conn.HandlePacket(Packet(evp->packet));
          break;
        case RecordedEvent::Kind::kNotify:
          conn.OnTdnChange(evp->tdn, evp->imminent);
          break;
        case RecordedEvent::Kind::kClose:
          conn.Close();
          break;
      }
    });
  }

  sim.RunUntil(SimTime::Picos(rec.end_ps));

  std::vector<TraceRecord> got;
  for (const TraceRecord& r : ring.Snapshot()) {
    if (r.flow == rec.flow) got.push_back(r);
  }
  out.hash = HashTraceRecords(got);
  out.record_count = got.size();

  const std::size_t n = std::min(got.size(), rec.records.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (got[i] != rec.records[i]) {
      out.mismatch_index = i;
      out.message = "record " + std::to_string(i) +
                    " diverged:\n  expected " + FormatTraceRecord(rec.records[i]) +
                    "\n  replayed " + FormatTraceRecord(got[i]);
      return out;
    }
  }
  if (got.size() != rec.records.size()) {
    out.mismatch_index = n;
    out.message = "stream length diverged: expected " +
                  std::to_string(rec.records.size()) + " records, replay emitted " +
                  std::to_string(got.size());
    if (got.size() > rec.records.size()) {
      out.message += "\n  first extra " + FormatTraceRecord(got[n]);
    } else {
      out.message += "\n  first missing " + FormatTraceRecord(rec.records[n]);
    }
    return out;
  }

  out.ok = true;
  out.message = "replayed " + std::to_string(out.record_count) +
                " records bit-identically";
  return out;
}

}  // namespace tdtcp
