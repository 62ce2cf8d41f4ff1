#include "net/queue_disc.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace tdtcp {

const char* QdiscKindName(QdiscKind kind) {
  switch (kind) {
    case QdiscKind::kDropTail: return "droptail";
    case QdiscKind::kCodel: return "codel";
    case QdiscKind::kDelayMark: return "delaymark";
    case QdiscKind::kSharedPool: return "sharedpool";
  }
  return "?";
}

QdiscKind QdiscKindFromName(const std::string& name) {
  if (name == "droptail") return QdiscKind::kDropTail;
  if (name == "codel") return QdiscKind::kCodel;
  if (name == "delaymark") return QdiscKind::kDelayMark;
  if (name == "sharedpool") return QdiscKind::kSharedPool;
  throw std::invalid_argument("unknown qdisc: " + name);
}

double QueueDisc::Stats::SojournPercentileUs(double p) const {
  if (sojourn_count == 0) return 0.0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  std::uint64_t rank = static_cast<std::uint64_t>(
      std::ceil(clamped / 100.0 * static_cast<double>(sojourn_count)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t b = 0; b < kSojournBuckets; ++b) {
    cum += sojourn_hist[b];
    if (cum >= rank) {
      // Upper edge of bucket b: 1 us for b=0, else 2^b us.
      return static_cast<double>(std::uint64_t{1} << b);
    }
  }
  return static_cast<double>(std::uint64_t{1} << (kSojournBuckets - 1));
}

void QueueDisc::Grow() {
  std::vector<Packet*> bigger(std::max<std::size_t>(8, ring_.size() * 2));
  for (std::size_t i = 0; i < count_; ++i) {
    bigger[i] = ring_[(head_ + i) & (ring_.size() - 1)];
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

void QueueDisc::Push(Packet* p) {
  if (count_ == ring_.size()) Grow();
  ring_[(head_ + count_) & (ring_.size() - 1)] = p;
  ++count_;
  ++stats_.enqueued;
  stats_.max_occupancy =
      std::max(stats_.max_occupancy, static_cast<std::uint32_t>(count_));
  if (config_.kind == QdiscKind::kSharedPool && pool_ != nullptr) ++pool_->used;
}

void QueueDisc::ReleasePoolSpace(std::uint32_t packets) {
  pool_->used -= std::min(pool_->used, packets);
  if (pool_->waiters.empty()) return;
  sim_.ScheduleNoCancel(SimTime::Zero(),
                        [waiters = std::move(pool_->waiters)] {
                          for (const auto& wake : waiters) wake();
                        });
  pool_->waiters.clear();
}

bool QueueDisc::CanEnqueue() const {
  if (count_ >= config_.capacity_packets) return false;
  if (config_.kind == QdiscKind::kSharedPool && pool_ != nullptr) {
    // Dynamic threshold (DT): admit while occupancy < alpha * free pool.
    // A full pool admits nothing; a lone queue on a large pool behaves
    // like drop-tail at its own capacity.
    if (pool_->used >= pool_->total_packets) return false;
    if (static_cast<double>(count_) >=
        config_.shared_alpha * static_cast<double>(pool_->free_packets())) {
      return false;
    }
  }
  return true;
}

bool QueueDisc::Admit() {
  if (count_ >= config_.capacity_packets) {
    ++stats_.dropped;
    return false;
  }
  if (config_.kind == QdiscKind::kSharedPool && pool_ != nullptr &&
      !CanEnqueue()) {
    ++stats_.dropped;
    ++stats_.shared_rejected;
    return false;
  }
  return true;
}

void QueueDisc::MarkOnAdmit(Packet& p) {
  if (count_ >= config_.ecn_threshold_packets && p.ecn == Ecn::kEct0) {
    p.ecn = Ecn::kCe;
    ++stats_.ce_marked;
  }
}

bool QueueDisc::Enqueue(Packet&& p) {
  if (!Admit()) return false;
  MarkOnAdmit(p);
  Push(sim_.StashPacket(std::move(p)));
  return true;
}

bool QueueDisc::Enqueue(Packet* p) {
  if (!Admit()) {
    sim_.ReleasePacket(p);
    return false;
  }
  MarkOnAdmit(*p);
  Push(p);
  return true;
}

void QueueDisc::Restore(Packet* p) {
  Push(p);
  if (count_ > config_.capacity_packets) {
    shrink_watermark_ =
        std::max(shrink_watermark_, static_cast<std::uint32_t>(count_));
  }
}

void QueueDisc::RecordSojourn(SimTime sojourn) {
  if (sojourn < SimTime::Zero()) sojourn = SimTime::Zero();
  ++stats_.sojourn_count;
  const std::uint64_t us = static_cast<std::uint64_t>(sojourn.micros());
  stats_.sojourn_sum_us += us;
  if (sojourn > stats_.max_sojourn) stats_.max_sojourn = sojourn;
  std::size_t bucket = us == 0 ? 0 : static_cast<std::size_t>(std::bit_width(us));
  if (bucket >= Stats::kSojournBuckets) bucket = Stats::kSojournBuckets - 1;
  ++stats_.sojourn_hist[bucket];
}

SimTime QueueDisc::CodelControlLaw(SimTime t) const {
  // interval / sqrt(count): same-binary IEEE-754 sqrt over small integers
  // is deterministic, preserving jobs=1 == jobs=N bit-identity.
  return t + SimTime::Picos(static_cast<std::int64_t>(
                 static_cast<double>(config_.codel_interval.picos()) /
                 std::sqrt(static_cast<double>(codel_count_))));
}

bool QueueDisc::CodelOkToDrop(SimTime sojourn, SimTime now) {
  // Below target — or nothing left behind this packet worth defending the
  // target with — resets the above-target tracking (RFC 8289 §4.2 plus the
  // MAXPACKET backlog guard, expressed in packets).
  if (sojourn < config_.codel_target || count_ == 0) {
    codel_first_above_ = SimTime::Zero();
    return false;
  }
  if (codel_first_above_.IsZero()) {
    codel_first_above_ = now + config_.codel_interval;
    return false;
  }
  return now >= codel_first_above_;
}

bool QueueDisc::CodelDeliver(Packet& p, SimTime sojourn, SimTime now) {
  const bool ok_to_drop = CodelOkToDrop(sojourn, now);
  if (codel_dropping_) {
    if (!ok_to_drop) {
      codel_dropping_ = false;
      return true;
    }
    if (now >= codel_drop_next_) {
      ++codel_count_;
      codel_drop_next_ = CodelControlLaw(codel_drop_next_);
      if (config_.codel_ecn && p.ecn == Ecn::kEct0) {
        p.ecn = Ecn::kCe;
        ++stats_.ce_marked;
        ++stats_.codel_marks;
        return true;
      }
      ++stats_.dropped;
      ++stats_.codel_drops;
      return false;
    }
    return true;
  }
  if (ok_to_drop) {
    // Enter the dropping state. Re-entry soon after leaving it resumes at
    // the previous drop rate instead of restarting from one per interval;
    // the 16-interval recency window matches Linux sch_codel (a 1-interval
    // window forgets the rate on every sawtooth and never re-converges
    // against a persistent overload).
    codel_dropping_ = true;
    const bool recent = now - codel_drop_next_ < config_.codel_interval * 16;
    codel_count_ = recent && codel_count_ > 2 ? codel_count_ - 2 : 1;
    codel_drop_next_ = CodelControlLaw(now);
    if (config_.codel_ecn && p.ecn == Ecn::kEct0) {
      p.ecn = Ecn::kCe;
      ++stats_.ce_marked;
      ++stats_.codel_marks;
      return true;
    }
    ++stats_.dropped;
    ++stats_.codel_drops;
    return false;
  }
  return true;
}

Packet* QueueDisc::Dequeue(SimTime now) {
  for (;;) {
    if (count_ == 0) {
      codel_dropping_ = false;
      return nullptr;
    }
    Packet* p = ring_[head_];
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
    if (config_.kind == QdiscKind::kSharedPool && pool_ != nullptr) {
      ReleasePoolSpace(1);
    }
    if (shrink_watermark_ != 0) {
      // The post-shrink overshoot only ever drains: tighten the watermark
      // with the occupancy and clear it once we are back within capacity.
      if (count_ <= config_.capacity_packets) {
        shrink_watermark_ = 0;
      } else {
        shrink_watermark_ =
            std::min(shrink_watermark_, static_cast<std::uint32_t>(count_));
      }
    }
    const SimTime sojourn = now - p->enqueue_time;
    switch (config_.kind) {
      case QdiscKind::kDropTail:
      case QdiscKind::kSharedPool:
        break;
      case QdiscKind::kDelayMark:
        if (sojourn >= config_.delay_mark_threshold && p->ecn == Ecn::kEct0) {
          p->ecn = Ecn::kCe;
          ++stats_.ce_marked;
          ++stats_.delay_marked;
        }
        break;
      case QdiscKind::kCodel:
        if (!CodelDeliver(*p, sojourn, now)) {  // a CoDel drop
          sim_.ReleasePacket(p);
          continue;
        }
        break;
    }
    // Only delivered packets enter the sojourn telemetry: a CoDel-consumed
    // packet is a drop, and its (deliberately long) wait must not pollute
    // the delay distribution the forwarded traffic actually experienced.
    RecordSojourn(sojourn);
    return p;
  }
}

void QueueDisc::DrainRawInto(std::vector<Packet*>& out) {
  if (count_ == 0) return;
  const std::uint32_t popped = static_cast<std::uint32_t>(count_);
  while (count_ != 0) {
    out.push_back(ring_[head_]);
    head_ = (head_ + 1) & (ring_.size() - 1);
    --count_;
  }
  if (config_.kind == QdiscKind::kSharedPool && pool_ != nullptr) {
    ReleasePoolSpace(popped);
  }
  // Occupancy is zero, so any post-shrink overshoot has fully drained.
  shrink_watermark_ = 0;
}

void QueueDisc::set_capacity(std::uint32_t packets) {
  if (count_ > packets) {
    stats_.shrink_deferred += count_ - packets;
    shrink_watermark_ = static_cast<std::uint32_t>(count_);
  } else {
    shrink_watermark_ = 0;
  }
  config_.capacity_packets = packets;
}

}  // namespace tdtcp
