#include "app/workload.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "cc/registry.hpp"

namespace tdtcp {

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kReno: return "reno";
    case Variant::kCubic: return "cubic";
    case Variant::kDctcp: return "dctcp";
    case Variant::kRetcp: return "retcp";
    case Variant::kRetcpDyn: return "retcpdyn";
    case Variant::kMptcp: return "mptcp";
    case Variant::kTdtcp: return "tdtcp";
  }
  return "?";
}

Variant VariantFromName(std::string_view name) {
  if (name == "reno") return Variant::kReno;
  if (name == "cubic") return Variant::kCubic;
  if (name == "dctcp") return Variant::kDctcp;
  if (name == "retcp") return Variant::kRetcp;
  if (name == "retcpdyn") return Variant::kRetcpDyn;
  if (name == "mptcp") return Variant::kMptcp;
  if (name == "tdtcp") return Variant::kTdtcp;
  throw std::invalid_argument("unknown variant: " + std::string(name));
}

std::size_t FctBucketOf(std::uint64_t bytes) {
  for (std::size_t b = 0; b + 1 < kNumFctBuckets; ++b) {
    if (bytes <= kFctBucketUpperBytes[b]) return b;
  }
  return kNumFctBuckets - 1;
}

const char* RackPolicyName(RackPolicy p) {
  switch (p) {
    case RackPolicy::kFixedPair: return "pair";
    case RackPolicy::kUniform: return "uniform";
    case RackPolicy::kPermutation: return "permutation";
    case RackPolicy::kHotspot: return "hotspot";
  }
  return "?";
}

RackPolicy RackPolicyFromName(std::string_view name) {
  if (name == "pair") return RackPolicy::kFixedPair;
  if (name == "uniform") return RackPolicy::kUniform;
  if (name == "permutation") return RackPolicy::kPermutation;
  if (name == "hotspot") return RackPolicy::kHotspot;
  throw std::invalid_argument("unknown rack policy: " + std::string(name));
}

TcpConfig MakeVariantConfig(Variant v, TcpConfig base) {
  switch (v) {
    case Variant::kReno:
      base.cc_factory = MakeCcFactory("reno");
      break;
    case Variant::kCubic:
      base.cc_factory = MakeCcFactory("cubic");
      break;
    case Variant::kDctcp:
      base.cc_factory = MakeCcFactory("dctcp");
      base.ecn_enabled = true;
      break;
    case Variant::kRetcp:
      base.cc_factory = MakeCcFactory("retcp");
      break;
    case Variant::kRetcpDyn:
      base.cc_factory = MakeCcFactory("retcpdyn");
      break;
    case Variant::kMptcp:
      // Subflow config; the MptcpConnection fills in pinning/DSS fields.
      base.cc_factory = MakeCcFactory("cubic");
      break;
    case Variant::kTdtcp:
      base.cc_factory = MakeCcFactory("cubic");  // §3.5: CUBIC in every TDN
      base.tdtcp_enabled = true;
      if (base.num_tdns < 2) base.num_tdns = 2;
      break;
  }
  return base;
}

std::uint64_t Flow::bytes_acked() const {
  if (tcp_sender) return tcp_sender->bytes_acked();
  if (mptcp_sender) return mptcp_sender->meta_bytes_acked();
  return 0;
}

std::uint64_t Flow::reorder_events() const {
  if (tcp_sender) return tcp_sender->stats().reorder_events;
  if (mptcp_sender) return mptcp_sender->reorder_events();
  return 0;
}

std::uint64_t Flow::reorder_marked_lost() const {
  if (tcp_sender) return tcp_sender->stats().reorder_marked_lost;
  if (mptcp_sender) return mptcp_sender->reorder_marked_lost();
  return 0;
}

std::uint64_t Flow::retransmissions() const {
  if (tcp_sender) return tcp_sender->stats().retransmissions;
  if (mptcp_sender) return mptcp_sender->retransmissions();
  return 0;
}

std::uint64_t Flow::duplicate_segments() const {
  if (tcp_receiver) return tcp_receiver->stats().duplicate_segments;
  if (mptcp_receiver) return mptcp_receiver->duplicate_segments();
  return 0;
}

namespace {

// Rack-pair sanity shared by Workload and fixed-pair churn. Throws (not
// assert): the default RelWithDebInfo build defines NDEBUG, and a bad rack
// index must not silently read past the rack array.
void ValidateRackPair(const Topology& topo, RackId src, RackId dst,
                      const char* what) {
  const std::uint32_t racks = topo.config().num_racks;
  if (src >= racks || dst >= racks) {
    throw std::invalid_argument(
        std::string(what) + ": rack out of range (src=" + std::to_string(src) +
        ", dst=" + std::to_string(dst) + ", num_racks=" +
        std::to_string(racks) + ")");
  }
  if (src == dst) {
    throw std::invalid_argument(
        std::string(what) + ": src_rack == dst_rack (" + std::to_string(src) +
        ") — intra-rack traffic never touches a fabric port");
  }
}

}  // namespace

Workload::Workload(Simulator& sim, Topology& topo, WorkloadConfig config)
    : config_(std::move(config)) {
  ValidateRackPair(topo, config_.src_rack, config_.dst_rack, "Workload");
  if (config_.num_flows > topo.config().hosts_per_rack) {
    throw std::invalid_argument(
        "Workload: num_flows (" + std::to_string(config_.num_flows) +
        ") exceeds hosts_per_rack (" +
        std::to_string(topo.config().hosts_per_rack) + ")");
  }
  // Every long flow's sender shares one engine config, and every receiver
  // another.
  std::shared_ptr<const TcpConfig> sender_config;
  std::shared_ptr<const TcpConfig> receiver_config;
  if (config_.variant != Variant::kMptcp) {
    TcpConfig tc = MakeVariantConfig(config_.variant, config_.base);
    TcpConfig rc = tc;
    if (config_.scope_tdn_to_peer) {
      tc.peer_rack = config_.dst_rack;
      rc.peer_rack = config_.src_rack;
    }
    sender_config = std::make_shared<const TcpConfig>(std::move(tc));
    receiver_config = std::make_shared<const TcpConfig>(std::move(rc));
  }
  for (std::uint32_t i = 0; i < config_.num_flows; ++i) {
    const FlowId id = config_.first_flow_id + i;
    Host* src = topo.host(config_.src_rack, i);
    Host* dst = topo.host(config_.dst_rack, i);
    Flow flow;
    if (config_.variant == Variant::kMptcp) {
      MptcpConnection::Config mc;
      mc.subflow = MakeVariantConfig(config_.variant, config_.base);
      flow.mptcp_receiver = std::make_unique<MptcpConnection>(
          sim, dst, id, src->id(), mc);
      flow.mptcp_sender = std::make_unique<MptcpConnection>(
          sim, src, id, dst->id(), mc);
    } else {
      flow.tcp_receiver = std::make_unique<TcpConnection>(
          sim, dst, id, src->id(), receiver_config);
      flow.tcp_sender = std::make_unique<TcpConnection>(
          sim, src, id, dst->id(), sender_config);
    }
    flows_.push_back(std::move(flow));
  }
}

void Workload::Start() {
  for (auto& f : flows_) {
    if (f.tcp_sender) {
      f.tcp_receiver->Listen();
      f.tcp_sender->Connect();
      f.tcp_sender->SetUnlimitedData(true);
    } else {
      f.mptcp_receiver->Listen();
      f.mptcp_sender->Connect();
      f.mptcp_sender->SetUnlimitedData(true);
    }
  }
}

std::uint64_t Workload::total_bytes_acked() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f.bytes_acked();
  return total;
}

std::uint64_t Workload::total_reorder_events() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f.reorder_events();
  return total;
}

std::uint64_t Workload::total_reorder_marked_lost() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f.reorder_marked_lost();
  return total;
}

std::uint64_t Workload::total_duplicate_segments() const {
  std::uint64_t total = 0;
  for (const auto& f : flows_) total += f.duplicate_segments();
  return total;
}

// --- connection churn --------------------------------------------------------

ChurnGenerator::ChurnGenerator(Simulator& sim, Topology& topo,
                               ChurnConfig config, std::uint64_t seed)
    : sim_(sim),
      topo_(topo),
      config_(std::move(config)),
      end_configs_(kNumVariants * 2 *
                   (config_.scope_tdn_to_peer ? topo.config().num_racks : 1)),
      slots_(config_.max_concurrent),
      next_flow_(config_.first_flow_id) {
  if (config_.variant == Variant::kMptcp) {
    throw std::invalid_argument(
        "churn uses plain TcpConnection pairs; pick a non-MPTCP variant");
  }
  double mix_weight = 0.0;
  for (const TenantShare& t : config_.tenant_mix) {
    if (t.variant == Variant::kMptcp) {
      throw std::invalid_argument(
          "churn tenant mix: kMptcp tenants are not supported (churn cycles "
          "are single-subflow TcpConnection pairs)");
    }
    if (!(t.weight > 0.0)) {
      throw std::invalid_argument(
          "churn tenant mix: every tenant weight must be > 0");
    }
    mix_weight += t.weight;
  }
  mix_weight_ = mix_weight;
  if (config_.max_concurrent == 0) {
    throw std::invalid_argument("churn: max_concurrent must be > 0");
  }
  if (config_.min_transfer_bytes == 0 ||
      config_.min_transfer_bytes > config_.max_transfer_bytes) {
    throw std::invalid_argument(
        "churn: need 0 < min_transfer_bytes <= max_transfer_bytes");
  }
  const std::uint32_t racks = topo_.config().num_racks;
  // The generator's own stream: a permutation run draws its rack shift
  // from it, and every source forks its stream from it by source index.
  Random rng = Random(seed).Fork(kChurnSeedSalt);
  if (config_.rack_policy == RackPolicy::kFixedPair) {
    ValidateRackPair(topo_, config_.src_rack, config_.dst_rack, "churn");
    // One arrival process for the pair; each cycle's host comes from its
    // slot (see OnArrival).
    sources_.push_back(
        Source{config_.src_rack, 0,
               rng.Fork(StreamId(StreamKind::kChurnSource, 0))});
  } else {
    if (racks < 2) {
      throw std::invalid_argument(
          "churn: multi-source rack policies need num_racks >= 2 (got " +
          std::to_string(racks) + ")");
    }
    if (config_.rack_policy == RackPolicy::kHotspot) {
      if (config_.hotspot_rack >= racks) {
        throw std::invalid_argument(
            "churn: hotspot_rack " + std::to_string(config_.hotspot_rack) +
            " out of range (num_racks=" + std::to_string(racks) + ")");
      }
      if (config_.hotspot_fraction < 0.0 || config_.hotspot_fraction > 1.0) {
        throw std::invalid_argument(
            "churn: hotspot_fraction must be in [0, 1]");
      }
    }
    // Every host in every rack is an independent source, numbered by host
    // id, so a source's draws do not depend on how its arrivals interleave
    // with other sources'.
    sources_.reserve(static_cast<std::size_t>(racks) *
                     topo_.config().hosts_per_rack);
    for (RackId r = 0; r < racks; ++r) {
      for (std::uint32_t h = 0; h < topo_.config().hosts_per_rack; ++h) {
        Source s;
        s.rack = r;
        s.host = h;
        s.rng = rng.Fork(
            StreamId(StreamKind::kChurnSource, topo_.host_id(r, h)));
        sources_.push_back(std::move(s));
      }
    }
    if (config_.rack_policy == RackPolicy::kPermutation) {
      permutation_shift_ = static_cast<RackId>(
          rng.UniformInt(1, static_cast<std::int64_t>(racks) - 1));
    }
  }
  // Lowest index pops first.
  free_.reserve(slots_.size());
  for (std::uint32_t i = static_cast<std::uint32_t>(slots_.size()); i > 0; --i) {
    free_.push_back(i - 1);
  }
  fct_us_.reserve(config_.target_connections);
  fct_buckets_.reserve(config_.target_connections);
}

void ChurnGenerator::Start() {
  for (std::uint32_t s = 0; s < sources_.size(); ++s) ScheduleArrival(s);
}

void ChurnGenerator::ScheduleArrival(std::uint32_t s) {
  if (stats_.opened >= config_.target_connections) return;
  const double mean_ps =
      static_cast<double>(config_.mean_interarrival.picos());
  const auto gap_ps = std::max<std::int64_t>(
      1, std::llround(sources_[s].rng.Exponential(mean_ps)));
  sim_.Schedule(SimTime::Picos(gap_ps), [this, s] { OnArrival(s); });
}

void ChurnGenerator::OnArrival(std::uint32_t s) {
  if (stats_.opened >= config_.target_connections) return;
  Source& src = sources_[s];
  if (free_.empty()) {
    ++stats_.deferred;
    ScheduleArrival(s);
    return;
  }
  const RackId dst_rack = PickDstRack(src.rack, src.rng);
  std::uint32_t src_host = src.host;
  std::uint32_t dst_host;
  if (config_.rack_policy == RackPolicy::kFixedPair) {
    // Host i of the source rack talks to host i of the destination rack,
    // i taken from the slot the cycle will occupy; nothing is drawn.
    src_host = dst_host = free_.back() % topo_.config().hosts_per_rack;
  } else {
    dst_host = static_cast<std::uint32_t>(src.rng.UniformInt(
        0, static_cast<std::int64_t>(topo_.config().hosts_per_rack) - 1));
  }
  const std::uint64_t bytes = DrawBytes(src.rng);
  const Variant variant = DrawVariant(src.rng);
  OpenSlot(src.rack, src_host, dst_rack, dst_host, bytes, variant);
  ScheduleArrival(s);
}

RackId ChurnGenerator::PickDstRack(RackId src_rack, Random& rng) {
  const std::uint32_t racks = topo_.config().num_racks;
  switch (config_.rack_policy) {
    case RackPolicy::kFixedPair:
      return config_.dst_rack;
    case RackPolicy::kPermutation:
      return (src_rack + permutation_shift_) % racks;
    case RackPolicy::kHotspot:
      if (src_rack != config_.hotspot_rack &&
          rng.Bernoulli(config_.hotspot_fraction)) {
        return config_.hotspot_rack;
      }
      break;  // fall through to uniform-excluding-self
    case RackPolicy::kUniform:
      break;
  }
  const RackId r = static_cast<RackId>(
      rng.UniformInt(0, static_cast<std::int64_t>(racks) - 2));
  return r >= src_rack ? r + 1 : r;
}

Variant ChurnGenerator::DrawVariant(Random& rng) {
  if (config_.tenant_mix.empty()) return config_.variant;
  // One weighted draw from the arrival's own stream, so the tenant sequence
  // is deterministic per seed and independent of other sources' interleaving.
  double x = rng.UniformDouble(0.0, mix_weight_);
  for (const TenantShare& t : config_.tenant_mix) {
    if (x < t.weight) return t.variant;
    x -= t.weight;
  }
  return config_.tenant_mix.back().variant;  // FP-edge fallback
}

std::uint64_t ChurnGenerator::DrawBytes(Random& rng) {
  if (config_.size_cdf == nullptr) {
    return static_cast<std::uint64_t>(rng.UniformInt(
        static_cast<std::int64_t>(config_.min_transfer_bytes),
        static_cast<std::int64_t>(config_.max_transfer_bytes)));
  }
  std::uint64_t bytes = config_.size_cdf->Sample(rng);
  if (config_.size_scale != 1.0) {
    bytes = static_cast<std::uint64_t>(std::max<double>(
        1.0, std::llround(static_cast<double>(bytes) * config_.size_scale)));
  }
  if (config_.size_cap_bytes != 0) {
    bytes = std::min(bytes, config_.size_cap_bytes);
  }
  return bytes;
}

void ChurnGenerator::OpenSlot(RackId src_rack, std::uint32_t src_host,
                              RackId dst_rack, std::uint32_t dst_host,
                              std::uint64_t bytes, Variant variant) {
  const std::uint32_t idx = free_.back();
  free_.pop_back();
  Slot& slot = slots_[idx];
  slot.flow = next_flow_++;
  slot.opened_at = sim_.now();
  slot.closed_ends = 0;
  slot.sender_reason = CloseReason::kNone;
  slot.receiver_reason = CloseReason::kNone;
  slot.in_use = true;
  slot.bytes = bytes;

  Host* src = topo_.host(src_rack, src_host);
  Host* dst = topo_.host(dst_rack, dst_host);
  slot.src_node = src->id();
  slot.dst_node = dst->id();

  // Receiver first, then sender: the order a host's listener list and the
  // recovery agent's list see them in.
  OpenEnd(slot.receiver, dst, src->id(),
          EndConfig(variant, src_rack, /*receiver=*/true), idx,
          /*sender_end=*/false)
      .Listen();
  TcpConnection& sender =
      OpenEnd(slot.sender, src, dst->id(),
              EndConfig(variant, dst_rack, /*receiver=*/false), idx,
              /*sender_end=*/true);
  sender.Connect();
  sender.AddAppData(bytes);
  sender.Close();  // lingering close: the FIN rides behind the data

  // A fixed delay from a nondecreasing clock: every slot's timeout rides
  // one stream.
  slot.timeout = sim_.ScheduleInStream(timeouts_, config_.slot_timeout,
                                       [this, idx] { OnSlotTimeout(idx); });
  ++stats_.opened;
  ++stats_.opened_by_variant[static_cast<std::size_t>(variant)];
  ++active_;
}

const std::shared_ptr<const TcpConfig>& ChurnGenerator::EndConfig(
    Variant variant, RackId peer_rack, bool receiver) {
  const std::size_t racks = end_configs_.size() / (kNumVariants * 2);
  const std::size_t rack = config_.scope_tdn_to_peer ? peer_rack : 0;
  std::shared_ptr<const TcpConfig>& shared =
      end_configs_[(static_cast<std::size_t>(variant) * 2 + receiver) * racks +
                   rack];
  if (shared == nullptr) {
    TcpConfig config = MakeVariantConfig(variant, config_.base);
    if (config_.scope_tdn_to_peer) config.peer_rack = peer_rack;
    // The server closes as soon as the request ends.
    config.close_on_peer_fin = receiver || config_.base.close_on_peer_fin;
    shared = std::make_shared<const TcpConfig>(std::move(config));
  }
  return shared;
}

TcpConnection& ChurnGenerator::OpenEnd(
    std::unique_ptr<TcpConnection>& end, Host* host, NodeId peer,
    const std::shared_ptr<const TcpConfig>& config, std::uint32_t idx,
    bool sender_end) {
  const FlowId flow = slots_[idx].flow;
  if (end == nullptr) {
    end = std::make_unique<TcpConnection>(sim_, host, flow, peer, config);
  } else {
    end->Reopen(host, flow, peer, config);
  }
  end->SetClosedCallback([this, idx, sender_end](CloseReason reason) {
    OnEndClosed(idx, sender_end, reason);
  });
  if (trace_ring_ != nullptr) end->SetTraceRing(trace_ring_);
  return *end;
}

void ChurnGenerator::OnEndClosed(std::uint32_t idx, bool sender_end,
                                 CloseReason reason) {
  Slot& slot = slots_[idx];
  assert(slot.in_use);
  if (sender_end) {
    slot.sender_reason = reason;
  } else {
    slot.receiver_reason = reason;
  }
  if (++slot.closed_ends < 2) return;

  // Both endpoints reached kClosed: the cycle is complete.
  if (slot.timeout != kInvalidEventId) {
    sim_.Cancel(slot.timeout);
    slot.timeout = kInvalidEventId;
  }
  ++stats_.closed;
  ++stats_.reasons[static_cast<std::size_t>(slot.sender_reason)];
  stats_.bytes_completed += slot.sender->bytes_acked();
  if (slot.sender_reason == CloseReason::kNormal) {
    fct_us_.push_back((sim_.now() - slot.opened_at).micros_f());
    fct_buckets_.push_back(static_cast<std::uint8_t>(FctBucketOf(slot.bytes)));
  }
  hash_.Mix(slot.flow);
  hash_.Mix(slot.src_node);
  hash_.Mix(slot.dst_node);
  hash_.Mix(slot.bytes);
  hash_.Mix(static_cast<std::uint64_t>(slot.opened_at.picos()));
  hash_.Mix(static_cast<std::uint64_t>(sim_.now().picos()));
  hash_.Mix((static_cast<std::uint64_t>(slot.sender_reason) << 8) |
       static_cast<std::uint64_t>(slot.receiver_reason));
  --active_;
  // We are inside the second endpoint's ToClosed: its ClosedFn must not
  // destroy the connection synchronously. Reclaim on the next event.
  sim_.Schedule(SimTime::Zero(), [this, idx] { Reclaim(idx); });
}

void ChurnGenerator::OnSlotTimeout(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  slot.timeout = kInvalidEventId;
  if (!slot.in_use || slot.closed_ends >= 2) return;
  ++stats_.app_timeouts;
  // Abort whichever ends are still open; each Abort fires OnEndClosed
  // synchronously, and the second one schedules the reclamation.
  if (slot.sender->state() != TcpConnection::State::kClosed) {
    slot.sender->Abort(CloseReason::kUserAbort);
  }
  if (slot.receiver->state() != TcpConnection::State::kClosed) {
    slot.receiver->Abort(CloseReason::kUserAbort);
  }
}

void ChurnGenerator::Reclaim(std::uint32_t idx) {
  Slot& slot = slots_[idx];
  // What destroying the pair did, in the same order; the next OpenSlot on
  // this slot reopens both.
  slot.sender->Retire();
  slot.receiver->Retire();
  slot.in_use = false;
  free_.push_back(idx);
}

}  // namespace tdtcp
