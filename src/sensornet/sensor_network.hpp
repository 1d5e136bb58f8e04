// The deployed sensor network and its data-collection solution models.
//
// Implements the in-network side of Section 4's "different solution models
// ... to gather data and perform the computation required to answer a
// query":
//   - all-to-base ("all sensors would send their data to the base station.
//     The base station would then perform the computation"),
//   - cluster heads ("Cluster heads aggregate information from the sensors
//     in individual clusters and send it to the base station"),
//   - aggregation trees ("Another way to perform in-network aggregation is
//     to use aggregation trees", TAG [21]),
//   - region averages ("instead of sending each sensor reading to the grid,
//     one might only send the average reading from a region"), the
//     in-network half of the hybrid grid model.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sensornet/aggregation.hpp"
#include "sensornet/clustering.hpp"
#include "sensornet/field.hpp"

namespace pgrid::sensornet {

struct SensorNetworkConfig {
  /// Sensors deployed PER FLOOR; the network holds sensor_count * floors.
  std::size_t sensor_count = 100;
  double width_m = 100.0;
  double height_m = 100.0;
  /// Multi-storey buildings: floors are stacked along z.  The paper's
  /// Complex Query needs "a 3D partial differential equation" — a building
  /// with several instrumented floors is where that matters.
  std::size_t floors = 1;
  double floor_height_m = 4.0;
  /// Grid placement (deterministic) or uniform random.
  bool grid_placement = true;
  net::LinkClass radio = net::LinkClass::sensor_radio();
  double battery_j = 2.0;
  /// Base station position; it gets the same radio but mains power.
  net::Vec3 base_pos{0.0, 0.0, 0.0};
  /// World-placement offset applied to every node (sensors and base).  The
  /// deployment is laid out in local coordinates and then translated by
  /// this vector, so multi-region sharded deployments (core/sharded.hpp)
  /// can place each region's building at its own spot in a shared world
  /// frame without touching the per-region placement streams.  Zero = the
  /// legacy single-region layout, byte for byte.
  net::Vec3 origin{0.0, 0.0, 0.0};
  /// Gaussian sampling noise (sensor measurement error).
  double noise_std = 0.5;
  /// Bytes of one raw reading on the wire (value + id + framing).
  std::uint64_t sample_bytes = 16;
  /// Bytes of one partial aggregate state on the wire (incl. framing).
  /// TAG ships only the fields the aggregate needs, so the default is close
  /// to a raw sample; richer state records (multi-aggregate, authenticated)
  /// grow this — and past ~2x the sample size, cluster collection starts
  /// beating the tree (see bench_ablation_state).
  std::uint64_t state_bytes = 24;
  /// Floor-plan room edge; rooms are square cells numbered
  /// 100*(row+1) + (col+1) so the paper's "room # 210" is row 1, col 9.
  /// Zero disables rooms (everything is room 101).
  double room_size_m = 50.0;
};

/// One reading delivered raw to the base station: sensor position (or
/// region centroid) plus value — the inputs a downstream PDE solve needs.
struct RawReading {
  net::NodeId sensor = net::kInvalidNode;  ///< kInvalidNode for region points
  net::Vec3 pos;
  double value = 0.0;
};

/// Outcome of one collection round.
struct CollectionResult {
  bool complete = true;       ///< every alive, connected sensor reported
  std::size_t reports = 0;    ///< readings represented in the aggregate
  std::size_t expected = 0;   ///< alive sensors at round start
  AggregateState aggregate;   ///< merged at the base station
  /// Raw readings; filled only by raw-collection strategies (all-to-base,
  /// region averages) since aggregation discards them.
  std::vector<RawReading> raw;
  double energy_j = 0.0;      ///< battery energy this round consumed
  double elapsed_s = 0.0;     ///< simulated wall clock this round took
};

/// Outcome of a single-sensor read.
struct ReadResult {
  bool ok = false;
  double value = 0.0;
  double elapsed_s = 0.0;
  double energy_j = 0.0;
};

class SensorNetwork {
 public:
  using CollectCallback = std::function<void(CollectionResult)>;
  using ReadCallback = std::function<void(ReadResult)>;
  /// Selection predicate applied where sampling happens: sensors whose
  /// (identity, reading) fail the filter neither transmit nor count.  This
  /// is TAG's WHERE semantics — qualification in the network, not at the
  /// base.  Null accepts everything.
  using SensorFilter = std::function<bool(net::NodeId, double value)>;

  SensorNetwork(net::Network& network, SensorNetworkConfig config,
                common::Rng rng);

  const std::vector<net::NodeId>& sensors() const { return sensors_; }
  net::NodeId base_station() const { return base_; }
  net::Network& network() { return network_; }
  const SensorNetworkConfig& config() const { return config_; }

  /// Noisy sample of the field at a sensor's position.
  double sample(net::NodeId sensor, const ScalarField& field, sim::SimTime t);

  /// Floor-plan room of a node (see SensorNetworkConfig::room_size_m).
  int room_of(net::NodeId node) const;

  /// Storey index of a node (0 = ground floor).
  std::size_t floor_of(net::NodeId node) const;

  /// Vertical extent of the building (floors * floor_height); 0 for a
  /// single-storey deployment.
  double building_depth_m() const;

  /// Sink tree rooted at the base station, rebuilt on topology change.
  const net::SinkTree& tree();

  /// Count of sensors currently alive.
  std::size_t alive_sensors() const;

  // --- solution models -----------------------------------------------------

  /// Every sensor ships its raw reading to the base over the routing tree.
  /// Every transfer goes through Network::deliver / deliver_hop, so
  /// `budget` bounds the round's retransmissions under acked delivery and
  /// is ignored under best effort (as for all collect_* overloads).
  void collect_all_to_base(const ScalarField& field, CollectCallback done,
                           SensorFilter filter = nullptr,
                           net::Budget budget = net::Budget::unlimited());

  /// TAG: constant-size partial aggregates merge up the tree, deepest level
  /// first.
  void collect_tree_aggregate(const ScalarField& field, CollectCallback done,
                              SensorFilter filter = nullptr,
                              net::Budget budget = net::Budget::unlimited());

  /// Cluster heads gather raw member readings, merge, and forward one
  /// partial state each to the base.
  void collect_cluster_aggregate(const ScalarField& field, std::size_t k,
                                 CollectCallback done,
                                 SensorFilter filter = nullptr,
                                 net::Budget budget = net::Budget::unlimited());

  /// Region-average downsampling: k regional averages are computed
  /// in-network and delivered as raw (region centroid, average) pairs —
  /// the accuracy/cost knob for grid offload.
  void collect_region_averages(const ScalarField& field, std::size_t regions,
                               CollectCallback done,
                               SensorFilter filter = nullptr,
                               net::Budget budget = net::Budget::unlimited());

  /// Round-trip read of one sensor from the base station (Simple Query).
  void read_sensor(net::NodeId sensor, const ScalarField& field,
                   ReadCallback done,
                   net::Budget budget = net::Budget::unlimited());

 private:
  struct RoundState;
  /// tree(), as the shared pointer a multi-event round holds on to.
  const std::shared_ptr<const net::SinkTree>& current_tree();
  std::shared_ptr<RoundState> begin_round(CollectCallback done);
  void finish_round(const std::shared_ptr<RoundState>& round);
  /// Whole-subtree analytic TAG epoch (net/flow.hpp): per-edge outcomes and
  /// charges resolve synchronously, level durations come from the
  /// expected-max-attempts order statistic, and ONE simulator event delivers
  /// the round — the collection path that makes 100k-sensor epochs viable.
  /// Only taken when every tree edge is flow-eligible and the network runs
  /// best-effort delivery.
  void collect_tree_flow(const ScalarField& field, CollectCallback done,
                         SensorFilter filter);
  void collect_clustered(const ScalarField& field, std::size_t k,
                         bool keep_raw_averages, CollectCallback done,
                         SensorFilter filter, net::Budget budget);

  net::Network& network_;
  SensorNetworkConfig config_;
  common::Rng rng_;
  std::vector<net::NodeId> sensors_;
  net::NodeId base_ = net::kInvalidNode;
  /// Replaced, never mutated, on a topology change, so a packet round that
  /// holds the pointer keeps the tree its schedule was built against.
  std::shared_ptr<const net::SinkTree> tree_;
};

}  // namespace pgrid::sensornet
