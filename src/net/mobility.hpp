// Random-waypoint mobility: mobile nodes (handhelds, field units, mobile
// labs) pick a destination, travel at constant speed, pause, repeat.
//
// Section 1 frames pervasive computing around "mobile & embedded devices,
// coupled with ad-hoc, short range wireless networking"; Section 3 requires
// that "a distributed service composition platform should follow the
// mobility pattern of a set of services".  Movement here updates positions
// in simulated time and bumps the topology version so routing trees,
// discovery and composition all observe the change.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {

struct WaypointConfig {
  /// Bounding box the walkers stay inside.
  double width_m = 100.0;
  double height_m = 100.0;
  double min_speed_m_s = 0.5;
  double max_speed_m_s = 2.0;
  sim::SimTime min_pause = sim::SimTime::seconds(1.0);
  sim::SimTime max_pause = sim::SimTime::seconds(10.0);
  /// Position-update granularity while moving.
  sim::SimTime tick = sim::SimTime::seconds(1.0);
  /// Stop scheduling after this time (zero = forever).
  sim::SimTime horizon = sim::SimTime::zero();
};

/// Drives random-waypoint movement for a set of nodes.  Deterministic given
/// the rng.  Position changes mark the topology dirty only when a node
/// actually moves (paused nodes are free).
class WaypointMobility {
 public:
  WaypointMobility(Network& network, std::vector<NodeId> walkers,
                   WaypointConfig config, common::Rng rng);

  /// Schedules the first legs.
  void start();

  std::size_t legs_completed() const { return legs_; }

  /// Number of actual position updates issued (move_node calls).  Each one
  /// is a topology change the incremental-epoch machinery must absorb, so
  /// benches use this to normalise cache-survival rates.
  std::uint64_t moves() const { return moves_; }

 private:
  struct Walker {
    NodeId node;
    Vec3 target;
    double speed_m_s = 1.0;
  };

  void begin_leg(std::size_t index);
  void tick_leg(std::size_t index);

  Network& network_;
  WaypointConfig config_;
  common::Rng rng_;
  std::vector<Walker> walkers_;
  std::size_t legs_ = 0;
  std::uint64_t moves_ = 0;
};

}  // namespace pgrid::net
