#include "tcp/recovery_agent.hpp"

#include <algorithm>

#include "net/host.hpp"
#include "tcp/tcp_connection.hpp"

namespace tdtcp {

const char* RecoveryModeName(RecoveryMode m) {
  switch (m) {
    case RecoveryMode::kOff: return "off";
    case RecoveryMode::kRack: return "rack";
    case RecoveryMode::kAgent: return "agent";
  }
  return "unknown";
}

RecoveryMode RecoveryModeFromName(const std::string& name) {
  if (name == "off") return RecoveryMode::kOff;
  if (name == "rack") return RecoveryMode::kRack;
  if (name == "agent") return RecoveryMode::kAgent;
  throw std::invalid_argument("unknown recovery mode '" + name +
                              "' (expected off | rack | agent)");
}

RecoveryAgent::RecoveryAgent(Simulator& sim, Host& host, RecoveryConfig cfg)
    : sim_(sim), host_(host), cfg_(cfg) {
  epoch_timer_.Init(this, &EpochTrampoline);
  host_.SetRecoveryAgent(this);
  host_.wheel().Arm(epoch_timer_, sim_.now() + cfg_.epoch);
}

RecoveryAgent::~RecoveryAgent() {
  host_.wheel().Disarm(epoch_timer_);
  if (host_.recovery_agent() == this) host_.SetRecoveryAgent(nullptr);
  // Orphan any still-registered nodes so late Deregister calls (connection
  // teardown after the agent is gone) are no-ops instead of dangling walks.
  for (Node* n = head_; n != nullptr;) {
    Node* next = n->next;
    n->prev = n->next = nullptr;
    n->agent = nullptr;
    n = next;
  }
  head_ = tail_ = nullptr;
  registered_ = 0;
}

void RecoveryAgent::Register(TcpConnection& conn, Node& node) {
  if (node.agent != nullptr) return;
  node.conn = &conn;
  node.agent = this;
  node.last_progress = sim_.now();
  node.prev = tail_;
  node.next = nullptr;
  if (tail_ != nullptr) {
    tail_->next = &node;
  } else {
    head_ = &node;
  }
  tail_ = &node;
  ++registered_;
}

void RecoveryAgent::Deregister(Node& node) {
  if (node.agent == nullptr) return;
  if (node.prev != nullptr) {
    node.prev->next = node.next;
  } else {
    head_ = node.next;
  }
  if (node.next != nullptr) {
    node.next->prev = node.prev;
  } else {
    tail_ = node.prev;
  }
  node.prev = node.next = nullptr;
  node.agent = nullptr;
  --registered_;
}

void RecoveryAgent::NoteSpurious() {
  ++stats_.spurious;
  scale_ = std::min(scale_ * kRecoverySpuriousGrowth, kRecoveryMaxScale);
}

SimTime RecoveryAgent::ThresholdFor(const TcpConnection& conn) const {
  const double srtt_ps = static_cast<double>(conn.RecoveryRttHint().picos());
  double t = std::max(static_cast<double>(cfg_.min_linger.picos()),
                      kRecoverySrttMult * srtt_ps) *
             scale_;
  t = std::clamp(t, static_cast<double>(cfg_.min_linger.picos()),
                 static_cast<double>(cfg_.max_linger.picos()));
  return SimTime::Picos(static_cast<std::int64_t>(t));
}

void RecoveryAgent::OnEpoch() {
  ++stats_.epochs;
  const SimTime now = sim_.now();
  for (Node* n = head_; n != nullptr;) {
    Node* next = n->next;  // forcing may deregister n (never other nodes)
    TcpConnection& c = *n->conn;
    if (!c.RecoveryOutstanding()) {
      // Idle, not quiet: the quiet clock starts when data is in flight.
      n->last_progress = now;
    } else if (now - n->last_progress >= ThresholdFor(c)) {
      const SimTime quiet = now - n->last_progress;
      if (c.ForceRecoveryRetransmit(quiet, ThresholdFor(c))) {
        ++stats_.forced;
      }
      // Pace the next attempt by a fresh threshold whether or not a segment
      // was eligible (a retransmission may already be in flight).
      n->last_progress = now;
    }
    n = next;
  }
  scale_ = std::max(1.0, scale_ * kRecoveryDecay);
  host_.wheel().Arm(epoch_timer_, now + cfg_.epoch);
}

}  // namespace tdtcp
