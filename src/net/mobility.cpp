#include "net/mobility.hpp"

#include <algorithm>
#include <cmath>

namespace pgrid::net {

WaypointMobility::WaypointMobility(Network& network,
                                   std::vector<NodeId> walkers,
                                   WaypointConfig config, common::Rng rng)
    : network_(network), config_(config), rng_(rng) {
  walkers_.reserve(walkers.size());
  for (NodeId node : walkers) {
    walkers_.push_back(Walker{node, network_.node(node).pos, 1.0});
  }
}

void WaypointMobility::start() {
  for (std::size_t i = 0; i < walkers_.size(); ++i) begin_leg(i);
}

void WaypointMobility::begin_leg(std::size_t index) {
  auto& sim = network_.simulator();
  if (config_.horizon.us > 0 && sim.now() > config_.horizon) return;
  Walker& walker = walkers_[index];
  walker.target = Vec3{rng_.uniform(0.0, config_.width_m),
                       rng_.uniform(0.0, config_.height_m), 0.0};
  walker.speed_m_s =
      rng_.uniform(config_.min_speed_m_s, config_.max_speed_m_s);
  tick_leg(index);
}

void WaypointMobility::tick_leg(std::size_t index) {
  auto& sim = network_.simulator();
  if (config_.horizon.us > 0 && sim.now() > config_.horizon) return;
  Walker& walker = walkers_[index];
  const Vec3 at = network_.node(walker.node).pos;
  const Vec3 to_target = walker.target - at;
  const double remaining = to_target.norm();
  const double step = walker.speed_m_s * config_.tick.to_seconds();

  if (remaining <= step) {
    // Arrive, pause, then pick the next waypoint.
    network_.move_node(walker.node, walker.target);
    ++moves_;
    ++legs_;
    const auto pause = sim::SimTime::seconds(rng_.uniform(
        config_.min_pause.to_seconds(), config_.max_pause.to_seconds()));
    sim.schedule(pause, [this, index] { begin_leg(index); });
    return;
  }
  const Vec3 next = at + to_target * (step / remaining);
  network_.move_node(walker.node, next);
  ++moves_;
  sim.schedule(config_.tick, [this, index] { tick_leg(index); });
}

}  // namespace pgrid::net
