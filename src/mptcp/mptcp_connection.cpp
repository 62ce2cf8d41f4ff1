#include "mptcp/mptcp_connection.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace tdtcp {

MptcpConnection::MptcpConnection(Simulator& sim, Host* host, FlowId flow,
                                 NodeId peer, Config config)
    : sim_(sim), host_(host), flow_(flow), config_(config),
      last_progress_(sim.now()) {
  if (config_.num_subflows < 1 || config_.num_subflows > 8) {
    throw std::invalid_argument(
        "MptcpConnection: num_subflows must be 1-8, got " +
        std::to_string(config_.num_subflows));
  }
  // Every subflow shares one engine config.
  TcpConfig subflow_config = config_.subflow;
  subflow_config.tdtcp_enabled = false;
  const auto sc =
      std::make_shared<const TcpConfig>(std::move(subflow_config));
  SubflowOwner* owner = this;  // the base is private: convert here
  for (std::uint32_t i = 0; i < config_.num_subflows; ++i) {
    auto sub = std::make_unique<TcpConnection>(
        sim_, host_, flow_, peer, sc, owner, static_cast<std::uint8_t>(i));
    TcpConnection* raw = sub.get();
    raw->SetDeliverCallback([this](const TcpConnection::DeliverInfo& info) {
      OnSubflowDeliver(info);
    });
    raw->SetClosedCallback([this, i](CloseReason reason) {
      OnSubflowClosed(i, reason);
    });
    subflows_.push_back(std::move(sub));
  }
  host_->RegisterEndpoint(flow_, this);
  host_->AddTdnListener(this);
}

MptcpConnection::~MptcpConnection() {
  if (reinject_timer_ != kInvalidEventId) sim_.Cancel(reinject_timer_);
  host_->UnregisterEndpoint(flow_, this);  // sink-checked: no-op after close
  host_->RemoveTdnListener(this);
}

void MptcpConnection::Listen() {
  for (auto& s : subflows_) s->Listen();
}

void MptcpConnection::Connect() {
  for (auto& s : subflows_) s->Connect();
  ArmReinjectTimer();
}

void MptcpConnection::SetUnlimitedData(bool unlimited) {
  unlimited_ = unlimited;
  TrySchedule();
}

void MptcpConnection::Close() {
  unlimited_ = false;  // no new mappings; queued data drains ahead of FINs
  for (auto& s : subflows_) s->Close();
}

void MptcpConnection::Abort(CloseReason reason) {
  unlimited_ = false;
  for (auto& s : subflows_) s->Abort(reason);
}

CloseReason MptcpConnection::close_reason() const {
  if (!closed()) return CloseReason::kNone;
  return abnormal_reason_ != CloseReason::kNone ? abnormal_reason_
                                                : CloseReason::kNormal;
}

TcpConnection* MptcpConnection::FindSurvivor(std::uint32_t excluding) {
  // Prefer an established survivor; fall back to one still handshaking or
  // draining (its queue is preserved either way). A subflow whose FIN is
  // already on the wire has no stream bytes left — AddMappedData refuses —
  // so it cannot carry a reinjection.
  TcpConnection* fallback = nullptr;
  for (std::uint32_t i = 0; i < subflows_.size(); ++i) {
    if (i == excluding) continue;
    TcpConnection* s = subflows_[i].get();
    if (s->state() == TcpConnection::State::kClosed || s->fin_sent()) continue;
    if (s->state() == TcpConnection::State::kEstablished) return s;
    if (fallback == nullptr) fallback = s;
  }
  return fallback;
}

void MptcpConnection::ReinjectOrphans(std::uint32_t dead_idx) {
  TcpConnection* target = FindSurvivor(dead_idx);
  // UnackedDssRanges() on a closed subflow returns the snapshot its abort
  // took before releasing the scoreboard (scheduled-but-unsent included).
  // Only ranges the survivor actually accepted count as rescued; the rest
  // are recorded as lost so the stats never claim a rescue that no-op'd.
  for (const auto& r : subflows_[dead_idx]->UnackedDssRanges()) {
    if (r.dss_seq + r.len <= dss_una_) continue;  // already meta-acked
    if (target != nullptr && target->AddMappedData(r.len, r.dss_seq)) {
      ++mp_stats_.reinjections;
      ++mp_stats_.abort_reinjections;
      mp_stats_.reinjected_bytes += r.len;
    } else {
      ++mp_stats_.unrescued_ranges;
      mp_stats_.unrescued_bytes += r.len;
    }
  }
}

void MptcpConnection::OnSubflowClosed(std::uint32_t idx, CloseReason reason) {
  ++closed_subflows_;
  if (reason != CloseReason::kNormal) {
    ++mp_stats_.subflow_aborts;
    if (abnormal_reason_ == CloseReason::kNone) abnormal_reason_ = reason;
    // Fail over before reinjecting so the rescue lands on a live subflow,
    // then rescue whatever DSS ranges died with this one.
    if (idx == active_subflow_) {
      for (std::uint32_t i = 0; i < subflows_.size(); ++i) {
        if (i != idx &&
            subflows_[i]->state() != TcpConnection::State::kClosed) {
          active_subflow_ = i;
          break;
        }
      }
    }
    ReinjectOrphans(idx);
    TrySchedule();
  }
  if (!closed()) return;
  // Last subflow down: the meta-connection is gone. Release the demux entry
  // and listener now (not at destruction) so churned metas never dangle.
  if (reinject_timer_ != kInvalidEventId) {
    sim_.Cancel(reinject_timer_);
    reinject_timer_ = kInvalidEventId;
  }
  host_->UnregisterEndpoint(flow_, this);
  host_->RemoveTdnListener(this);
  if (on_closed_) on_closed_(close_reason());
}

void MptcpConnection::HandlePacket(Packet&& p) {
  const std::uint32_t idx = p.subflow;
  if (idx >= subflows_.size()) return;
  subflows_[idx]->HandlePacket(std::move(p));
}

void MptcpConnection::OnTdnChange(TdnId tdn, bool imminent) {
  if (imminent) return;
  // tdm_schd: subflow i is pinned to network i; steer to the active one.
  const std::uint32_t target = std::min<std::uint32_t>(
      tdn, static_cast<std::uint32_t>(subflows_.size() - 1));
  if (target != active_subflow_) {
    active_subflow_ = target;
    TrySchedule();
  }
}

void MptcpConnection::TrySchedule() {
  if (!unlimited_) return;
  TcpConnection* sub = subflows_[active_subflow_].get();
  if (sub->state() != TcpConnection::State::kEstablished) return;

  const std::uint64_t mss = config_.subflow.mss;
  const std::uint64_t queue_target = kSubflowQueueSegments * mss;

  while (sub->unsent_buffered_bytes() < queue_target &&
         MetaWindowUsed() + mss <= kMetaSndBufBytes &&
         MetaWindowUsed() + mss <= peer_meta_wnd_) {
    sub->AddMappedData(static_cast<std::uint32_t>(mss), dss_next_);
    dss_next_ += mss;
    ++mp_stats_.scheduled_segments;
  }
}

std::uint64_t MptcpConnection::MetaWindow() const {
  const std::uint64_t used = meta_rcv_.ooo_bytes();
  return kMetaRcvBufBytes > used ? kMetaRcvBufBytes - used : 0;
}

void MptcpConnection::OnMetaAck(std::uint64_t dss_ack, std::uint64_t dss_rwnd) {
  peer_meta_wnd_ = dss_rwnd;
  if (peer_meta_wnd_ == 0) ++mp_stats_.zero_window_acks;
  if (dss_ack <= dss_una_) {
    TrySchedule();  // the window may have reopened
    return;
  }
  dss_una_ = dss_ack;
  last_progress_ = sim_.now();
  TrySchedule();
}

void MptcpConnection::OnSubflowDeliver(const TcpConnection::DeliverInfo& info) {
  if (!info.has_dss) return;
  auto result = meta_rcv_.OnData(info.dss_seq, info.len, false, 0, sim_.now());
  if (result.duplicate) ++mp_stats_.meta_duplicates;
}

void MptcpConnection::ArmReinjectTimer() {
  reinject_timer_ = sim_.Schedule(kReinjectDelay, [this] {
    reinject_timer_ = kInvalidEventId;
    MaybeReinject();
    ArmReinjectTimer();
  });
}

void MptcpConnection::MaybeReinject() {
  ++mp_stats_.stall_checks;
  if (!unlimited_) return;
  // A stall: no meta progress for a full reinjection delay while data-level
  // sequence space is outstanding (the hole is parked on a subflow whose
  // path is gone, closing the meta window / filling the meta send buffer).
  if (sim_.now() - last_progress_ < kReinjectDelay) return;
  if (MetaWindowUsed() == 0) return;

  TcpConnection* active = subflows_[active_subflow_].get();
  if (active->state() != TcpConnection::State::kEstablished) return;

  // Find the lowest unacked (or stranded-unsent) DSS range held by another
  // subflow and remap it onto the active one (Raiciu et al.'s
  // connection-level reinjection).
  std::uint64_t best_dss = ~0ull;
  std::uint32_t best_len = 0;
  for (std::uint32_t i = 0; i < subflows_.size(); ++i) {
    if (i == active_subflow_) continue;
    for (const auto& r : subflows_[i]->UnackedDssRanges()) {
      if (r.dss_seq < best_dss && r.dss_seq >= dss_una_) {
        best_dss = r.dss_seq;
        best_len = r.len;
      }
    }
    for (const auto& r : subflows_[i]->PendingDssRanges()) {
      if (r.dss_seq < best_dss && r.dss_seq >= dss_una_) {
        best_dss = r.dss_seq;
        best_len = std::min<std::uint32_t>(r.len, config_.subflow.mss);
      }
    }
  }
  if (best_len == 0) return;

  std::uint32_t budget = kReinjectBurstSegments;
  std::uint64_t dss = best_dss;
  while (budget-- > 0 && dss < dss_next_) {
    if (!active->AddMappedData(best_len, dss)) break;
    ++mp_stats_.reinjections;
    mp_stats_.reinjected_bytes += best_len;
    dss += best_len;
  }
}

std::uint64_t MptcpConnection::reorder_events() const {
  std::uint64_t total = 0;
  for (const auto& s : subflows_) total += s->stats().reorder_events;
  return total;
}

std::uint64_t MptcpConnection::reorder_marked_lost() const {
  std::uint64_t total = 0;
  for (const auto& s : subflows_) total += s->stats().reorder_marked_lost;
  return total;
}

std::uint64_t MptcpConnection::retransmissions() const {
  std::uint64_t total = 0;
  for (const auto& s : subflows_) total += s->stats().retransmissions;
  return total;
}

std::uint64_t MptcpConnection::duplicate_segments() const {
  std::uint64_t total = 0;
  for (const auto& s : subflows_) total += s->stats().duplicate_segments;
  return total;
}

}  // namespace tdtcp
