#include "rdcn/rotor_controller.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace tdtcp {

// The rotation's day count, N-1 for N racks. Throws, doesn't assert: the
// default build defines NDEBUG, and an odd rack count would silently build
// garbage matchings (the circle method pairs slot i with slot n-1-i, which
// only covers everyone for even n).
static std::uint32_t RoundRobinDays(const Topology& topo) {
  const std::uint32_t racks = topo.config().num_racks;
  if (racks < 2 || racks % 2 != 0) {
    throw std::invalid_argument(
        "RotorController: round-robin matchings need an even rack count >= 2 "
        "(got " + std::to_string(racks) + ")");
  }
  return racks - 1;
}

RotorController::RotorController(Simulator& sim, Config config, Topology* topo)
    : FabricScheduler(sim, config, config.day_length, config.night_length,
                      RoundRobinDays(*topo)),
      topo_(topo) {
  BuildMatchings();
}

void RotorController::BuildMatchings() {
  // Classic round-robin tournament ("circle method"): rack 0 is fixed, the
  // others rotate; every day is a perfect matching and all pairs meet once
  // per week.
  const std::uint32_t n = topo_->config().num_racks;
  const std::uint32_t days = n - 1;
  matchings_.assign(days, std::vector<RackId>(n, 0));
  for (std::uint32_t d = 0; d < days; ++d) {
    auto& m = matchings_[d];
    // Position table: slot 0 holds rack 0; slots 1..n-1 hold the rotated rest.
    std::vector<RackId> slots(n);
    slots[0] = 0;
    for (std::uint32_t i = 1; i < n; ++i) {
      slots[i] = 1 + (d + i - 1) % (n - 1);
    }
    // Pair slot i with slot n-1-i.
    for (std::uint32_t i = 0; i < n / 2; ++i) {
      const RackId a = slots[i];
      const RackId b = slots[n - 1 - i];
      m[a] = b;
      m[b] = a;
    }
  }
}

void RotorController::ReshuffleMatchings() {
  // Relabel the racks with a fresh random permutation: every day is still a
  // perfect matching and all pairs still meet once per week, but who meets
  // whom on which day changes — the "matching reshuffle" mid-flow change.
  const std::uint32_t n = topo_->config().num_racks;
  std::vector<RackId> perm(n);
  for (std::uint32_t i = 0; i < n; ++i) perm[i] = i;
  Random& rng = perturbation_rng();
  for (std::uint32_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::uint32_t>(rng.UniformInt(0, i));
    std::swap(perm[i], perm[j]);
  }
  std::vector<std::vector<RackId>> shuffled(matchings_.size(),
                                            std::vector<RackId>(n, 0));
  for (std::size_t d = 0; d < matchings_.size(); ++d) {
    for (std::uint32_t r = 0; r < n; ++r) {
      shuffled[d][perm[r]] = perm[matchings_[d][r]];
    }
  }
  matchings_ = std::move(shuffled);
}

void RotorController::ApplyFabricChange(const ScheduleChange& change) {
  if (change.reshuffle_matchings) ReshuffleMatchings();
}

void RotorController::BeginDay(std::uint32_t day, SimTime /*length*/) {
  const std::uint32_t n = topo_->config().num_racks;
  const auto& matching = matchings_[day];
  for (RackId a = 0; a < n; ++a) {
    const RackId partner = matching[a];
    for (RackId b = 0; b < n; ++b) {
      if (a == b) continue;
      FabricPort* port = topo_->port(a, b);
      const bool circuit = (b == partner);
      const NetworkMode& mode = circuit ? circuit_mode_ : packet_mode_;
      const bool changed = port->mode().tdn != mode.tdn;
      port->SetMode(mode);
      port->SetBlackout(false);
      if (changed) {
        topo_->tor(a)->NotifyHosts(mode.tdn, /*imminent=*/false, /*peer=*/b,
                                   ++notify_seq_);
      }
    }
  }
}

void RotorController::BeginNight(std::uint32_t day) {
  const std::uint32_t n = topo_->config().num_racks;
  const auto& matching = matchings_[day];
  for (RackId a = 0; a < n; ++a) {
    for (RackId b = 0; b < n; ++b) {
      if (a == b) continue;
      topo_->port(a, b)->SetBlackout(true);
    }
    // Circuit teardown notice for the pair that was connected.
    topo_->tor(a)->NotifyHosts(packet_mode_.tdn, /*imminent=*/false,
                               /*peer=*/matching[a], ++notify_seq_);
  }
}

}  // namespace tdtcp
