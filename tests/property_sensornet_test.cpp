// Property tests for the sensor network: every collection strategy must
// compute the same (correct) aggregate on lossless radios, respect energy
// orderings, and replay deterministically — across sizes and strategies.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "net/flow.hpp"
#include "net/reliable.hpp"
#include "sensornet/lifetime.hpp"
#include "sensornet/sensor_network.hpp"

namespace pgrid::sensornet {
namespace {

struct CollectCase {
  std::size_t sensors;
  CollectionStrategy strategy;
};

class CollectionProperty : public ::testing::TestWithParam<CollectCase> {
 protected:
  CollectionProperty() : net_(sim_, common::Rng(99)) {
    SensorNetworkConfig config;
    config.sensor_count = GetParam().sensors;
    const double side =
        15.0 * std::ceil(std::sqrt(double(GetParam().sensors)));
    config.width_m = side;
    config.height_m = side;
    config.base_pos = {-5, -5, 0};
    config.noise_std = 0.0;
    config.radio.loss_prob = 0.0;  // lossless: exact accounting
    snet_ = std::make_unique<SensorNetwork>(net_, config, common::Rng(3));
  }

  std::size_t clusters() const {
    return static_cast<std::size_t>(
        std::ceil(std::sqrt(double(GetParam().sensors))));
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<SensorNetwork> snet_;
};

TEST_P(CollectionProperty, AggregateMatchesDirectComputation) {
  GradientField field(7.0, 0.31);
  CollectionResult result;
  run_collection(*snet_, field, GetParam().strategy, clusters(),
                 [&](CollectionResult r) { result = r; });
  sim_.run();
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(result.reports, GetParam().sensors);

  AggregateState direct;
  for (auto id : snet_->sensors()) {
    direct.add(field.value(net_.node(id).pos, sim::SimTime::zero()));
  }
  for (auto fn : {AggregateFunction::kMin, AggregateFunction::kMax,
                  AggregateFunction::kAvg, AggregateFunction::kSum,
                  AggregateFunction::kCount}) {
    EXPECT_NEAR(result.aggregate.result(fn), direct.result(fn), 1e-9)
        << to_string(fn);
  }
}

TEST_P(CollectionProperty, EnergyOrderingHolds) {
  // In-network strategies never cost more than shipping every raw reading.
  UniformField field(25.0);
  CollectionResult raw;
  snet_->collect_all_to_base(field, [&](CollectionResult r) { raw = r; });
  sim_.run();
  net_.reset_energy();
  CollectionResult strategy_result;
  run_collection(*snet_, field, GetParam().strategy, clusters(),
                 [&](CollectionResult r) { strategy_result = r; });
  sim_.run();
  EXPECT_LE(strategy_result.energy_j, raw.energy_j * 1.0001)
      << to_string(GetParam().strategy);
}

TEST_P(CollectionProperty, EnergyEqualsLedgerDelta) {
  UniformField field(25.0);
  const double before = net_.battery_energy_consumed();
  CollectionResult result;
  run_collection(*snet_, field, GetParam().strategy, clusters(),
                 [&](CollectionResult r) { result = r; });
  sim_.run();
  EXPECT_NEAR(result.energy_j, net_.battery_energy_consumed() - before,
              1e-12);
}

TEST_P(CollectionProperty, DeterministicReplay) {
  auto run_once = [&]() {
    sim::Simulator sim;
    net::Network net(sim, common::Rng(99));
    SensorNetworkConfig config;
    config.sensor_count = GetParam().sensors;
    const double side =
        15.0 * std::ceil(std::sqrt(double(GetParam().sensors)));
    config.width_m = side;
    config.height_m = side;
    config.base_pos = {-5, -5, 0};
    config.noise_std = 0.4;  // noise on, still deterministic
    SensorNetwork snet(net, config, common::Rng(3));
    GradientField field(7.0, 0.31);
    CollectionResult result;
    run_collection(snet, field, GetParam().strategy,
                   static_cast<std::size_t>(
                       std::ceil(std::sqrt(double(GetParam().sensors)))),
                   [&](CollectionResult r) { result = r; });
    sim.run();
    return std::make_tuple(result.aggregate.sum, result.energy_j,
                           result.elapsed_s, result.reports);
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST_P(CollectionProperty, SurvivesPartialNodeFailure) {
  // Kill ~20% of sensors: the round completes with the remaining reports
  // and the aggregate stays within the field's range.
  GradientField field(7.0, 0.31);
  std::size_t killed = 0;
  // Start at 1: sensor 0 is the base station's only neighbour on the
  // smallest grids, and severing it legitimately yields zero reports.
  for (std::size_t i = 1; i < snet_->sensors().size(); i += 5) {
    net_.set_node_up(snet_->sensors()[i], false);
    ++killed;
  }
  CollectionResult result;
  run_collection(*snet_, field, GetParam().strategy, clusters(),
                 [&](CollectionResult r) { result = r; });
  sim_.run();
  EXPECT_LE(result.reports, GetParam().sensors - killed);
  EXPECT_GT(result.reports, 0u);
  if (result.reports > 0) {
    const double avg = result.aggregate.result(AggregateFunction::kAvg);
    EXPECT_GE(avg, 7.0 - 1e-9);
    EXPECT_LE(avg, 7.0 + 0.31 * 200.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndStrategies, CollectionProperty,
    ::testing::Values(
        CollectCase{16, CollectionStrategy::kAllToBase},
        CollectCase{16, CollectionStrategy::kClusterAggregate},
        CollectCase{16, CollectionStrategy::kTreeAggregate},
        CollectCase{64, CollectionStrategy::kAllToBase},
        CollectCase{64, CollectionStrategy::kClusterAggregate},
        CollectCase{64, CollectionStrategy::kTreeAggregate},
        CollectCase{144, CollectionStrategy::kTreeAggregate},
        CollectCase{144, CollectionStrategy::kClusterAggregate}),
    [](const ::testing::TestParamInfo<CollectCase>& info) {
      std::string name = "n" + std::to_string(info.param.sensors) + "_";
      switch (info.param.strategy) {
        case CollectionStrategy::kAllToBase: name += "raw"; break;
        case CollectionStrategy::kClusterAggregate: name += "cluster"; break;
        case CollectionStrategy::kTreeAggregate: name += "tree"; break;
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Unreachable sensor: one island sensor under both delivery disciplines.
// Whatever the solution model, the island's transfer fails (on the next
// event, never synchronously), the round still completes exactly once
// with every other reading, and a read of the island fails.
// ---------------------------------------------------------------------------

enum class IslandRound { kAllToBase, kTree, kCluster, kRegionAverages, kRead };

struct IslandCase {
  bool acked;  ///< ReliableChannel attached to the network
  IslandRound round;
  /// Reference values, recorded before Network::deliver became the one
  /// place that picks the delivery discipline; the seam must not move them.
  double elapsed_s;
  double energy_j;
};

class IslandSensor : public ::testing::TestWithParam<IslandCase> {
 protected:
  static constexpr std::size_t kSensors = 30;

  IslandSensor() : net_(sim_, common::Rng(41)) {
    SensorNetworkConfig config;
    config.sensor_count = kSensors;
    // Random placement: the sink tree's routes then differ from the
    // (hops, distance) shortest paths, so a round that switched from one
    // to the other would move the reference energy below.
    config.width_m = 60.0;
    config.height_m = 60.0;
    config.grid_placement = false;
    config.base_pos = {-5, -5, 0};
    config.noise_std = 0.0;
    config.radio.loss_prob = 0.0;  // only the island may go missing
    snet_ = std::make_unique<SensorNetwork>(net_, config, common::Rng(7));
    island_ = snet_->sensors().back();
    net_.move_node(island_, {400.0, 400.0, 0.0});
    if (GetParam().acked) {
      channel_ = std::make_unique<net::ReliableChannel>(
          net_, net::ReliableConfig{}, common::Rng(5));
      net_.set_reliable_channel(channel_.get());
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<SensorNetwork> snet_;
  std::unique_ptr<net::ReliableChannel> channel_;
  net::NodeId island_ = net::kInvalidNode;
};

TEST_P(IslandSensor, RoundCompletesOnceWithoutTheIsland) {
  const IslandCase& param = GetParam();
  UniformField field(21.0);
  std::size_t completions = 0;
  double elapsed_s = 0.0;
  double energy_j = 0.0;
  if (param.round == IslandRound::kRead) {
    ReadResult read;
    read.ok = true;
    snet_->read_sensor(island_, field, [&](ReadResult r) {
      ++completions;
      read = r;
    });
    EXPECT_EQ(completions, 0u);  // never synchronous
    sim_.run();
    ASSERT_EQ(completions, 1u);
    EXPECT_FALSE(read.ok);
    elapsed_s = read.elapsed_s;
    energy_j = read.energy_j;
  } else {
    CollectionResult result;
    auto done = [&](CollectionResult r) {
      ++completions;
      result = r;
    };
    const std::size_t k = 4;
    switch (param.round) {
      case IslandRound::kAllToBase:
        snet_->collect_all_to_base(field, done);
        break;
      case IslandRound::kTree:
        snet_->collect_tree_aggregate(field, done);
        break;
      case IslandRound::kCluster:
        snet_->collect_cluster_aggregate(field, k, done);
        break;
      case IslandRound::kRegionAverages:
        snet_->collect_region_averages(field, k, done);
        break;
      case IslandRound::kRead:
        break;
    }
    EXPECT_EQ(completions, 0u);  // never synchronous
    sim_.run();
    ASSERT_EQ(completions, 1u);
    // The sink tree cannot reach the island, so only the tree leaves it
    // out of `expected`; every other model expects it and misses it.
    const std::size_t expected =
        param.round == IslandRound::kTree ? kSensors - 1 : kSensors;
    EXPECT_EQ(result.expected, expected);
    EXPECT_EQ(result.reports, kSensors - 1);
    EXPECT_EQ(result.complete, result.reports == result.expected);
    EXPECT_DOUBLE_EQ(result.aggregate.result(AggregateFunction::kAvg), 21.0);
    elapsed_s = result.elapsed_s;
    energy_j = result.energy_j;
  }
  EXPECT_DOUBLE_EQ(elapsed_s, param.elapsed_s);
  EXPECT_DOUBLE_EQ(energy_j, param.energy_j);
}

INSTANTIATE_TEST_SUITE_P(
    DisciplinesAndRounds, IslandSensor,
    ::testing::Values(
        IslandCase{false, IslandRound::kAllToBase, 0.066665000000000002, 0.0014148468058267636},
        IslandCase{false, IslandRound::kTree, 0.074999999999999997, 0.00075448190583861136},
        IslandCase{false, IslandRound::kCluster, 0.086665999999999993, 0.00062219989311379617},
        IslandCase{false, IslandRound::kRegionAverages, 0.086665999999999993, 0.00062219989311379617},
        IslandCase{false, IslandRound::kRead, 0.0, 0.0},
        IslandCase{true, IslandRound::kAllToBase, 0.36476799999999998, 0.0023394317536491764},
        IslandCase{true, IslandRound::kTree, 0.13749999999999998, 0.0011234824788302147},
        IslandCase{true, IslandRound::kCluster, 0.41643399999999997, 0.0010294472868270955},
        IslandCase{true, IslandRound::kRegionAverages, 0.41643399999999997, 0.0010294472868270955},
        IslandCase{true, IslandRound::kRead, 0.36476799999999998, 0.0}),
    [](const ::testing::TestParamInfo<IslandCase>& info) {
      std::string name = info.param.acked ? "acked_" : "best_effort_";
      switch (info.param.round) {
        case IslandRound::kAllToBase: name += "all_to_base"; break;
        case IslandRound::kTree: name += "tree"; break;
        case IslandRound::kCluster: name += "cluster"; break;
        case IslandRound::kRegionAverages: name += "region_averages"; break;
        case IslandRound::kRead: name += "read"; break;
      }
      return name;
    });

// One lossy TAG epoch with a WHERE filter (non-qualifying relays still
// forward) and a relay whose battery died after the tree was built (battery
// death keeps the stale tree, so that relay's subtree is lost), on both
// fidelity tiers.
struct LossyEpochCase {
  bool analytic;  ///< FlowModel installed: the epoch resolves in one event
  /// Reference values, recorded before TAG epochs kept their state in
  /// node-indexed vectors and walked SinkTree::level slices; that layout
  /// change must not move them.
  std::size_t expected;
  std::size_t reports;
  double sum;
  double min;
  double max;
  double elapsed_s;
  double energy_j;
};

class LossyTreeEpoch : public ::testing::TestWithParam<LossyEpochCase> {
 protected:
  LossyTreeEpoch() : net_(sim_, common::Rng(17)) {
    SensorNetworkConfig config;
    config.sensor_count = 64;
    config.width_m = 120.0;
    config.height_m = 120.0;
    config.base_pos = {-5, -5, 0};
    config.radio.loss_prob = 0.3;
    snet_ = std::make_unique<SensorNetwork>(net_, config, common::Rng(23));
    net_.set_max_retries(1);  // lossy enough that some partial states drop
    if (GetParam().analytic) {
      net::FlowConfig flow_config;
      flow_config.enabled = true;
      flow_ = std::make_unique<net::FlowModel>(net_, flow_config,
                                               common::Rng(29));
      net_.set_flow_model(flow_.get());
    }
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<SensorNetwork> snet_;
  std::unique_ptr<net::FlowModel> flow_;
};

TEST_P(LossyTreeEpoch, MatchesReference) {
  const LossyEpochCase& param = GetParam();
  const net::SinkTree& tree = snet_->tree();
  net::NodeId relay = net::kInvalidNode;
  for (net::NodeId id : tree.bfs_order()) {
    if (tree.depth(id) == 3) {
      relay = tree.parent(id);
      break;
    }
  }
  ASSERT_NE(relay, net::kInvalidNode);
  net_.drain_energy(relay, 10.0);
  ASSERT_FALSE(net_.alive(relay));

  GradientField field(20.0, 0.1);
  std::size_t completions = 0;
  CollectionResult result;
  snet_->collect_tree_aggregate(
      field,
      [&](CollectionResult r) {
        ++completions;
        result = r;
      },
      [](net::NodeId id, double) { return id % 3 != 0; });
  sim_.run();
  ASSERT_EQ(completions, 1u);
  if (param.analytic) {
    EXPECT_EQ(flow_->stats().tree_epochs, 1u);
    EXPECT_EQ(flow_->stats().packet_fallbacks, 0u);
  }
  EXPECT_EQ(result.expected, param.expected);
  EXPECT_EQ(result.reports, param.reports);
  EXPECT_LT(result.reports, result.expected);
  EXPECT_EQ(result.aggregate.count, result.reports);
  EXPECT_DOUBLE_EQ(result.aggregate.sum, param.sum);
  EXPECT_DOUBLE_EQ(result.aggregate.min, param.min);
  EXPECT_DOUBLE_EQ(result.aggregate.max, param.max);
  EXPECT_DOUBLE_EQ(result.elapsed_s, param.elapsed_s);
  EXPECT_DOUBLE_EQ(result.energy_j, param.energy_j);
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, LossyTreeEpoch,
    ::testing::Values(
        LossyEpochCase{true, 42, 38, 987.9636273755408, 19.595637538721601,
                       32.18213793038916, 0.19380699999999998,
                       0.0015604780408065011},
        LossyEpochCase{false, 42, 21, 497.15818053504745, 19.595637538721601,
                       30.396138467371063, 0.17999999999999999,
                       0.0015982628571435953}),
    [](const ::testing::TestParamInfo<LossyEpochCase>& info) {
      return std::string(info.param.analytic ? "analytic" : "packet");
    });

TEST(TreeAggregate, IsolatedBaseRoundCompletesAndReleasesItsCallback) {
  // A base out of every sensor's range roots a depth-0 tree: the round must
  // still complete exactly once and then let go of its callback.
  sim::Simulator sim;
  net::Network net(sim, common::Rng(3));
  SensorNetworkConfig config;
  config.sensor_count = 16;
  config.width_m = 60.0;
  config.height_m = 60.0;
  config.base_pos = {500.0, 500.0, 0.0};
  SensorNetwork snet(net, config, common::Rng(4));
  ASSERT_EQ(snet.tree().max_depth(), 0u);

  UniformField field(21.0);
  auto token = std::make_shared<int>(0);
  std::size_t completions = 0;
  CollectionResult result;
  snet.collect_tree_aggregate(field,
                              [token, &completions, &result](CollectionResult r) {
                                ++completions;
                                result = r;
                              });
  sim.run();
  EXPECT_EQ(completions, 1u);
  EXPECT_EQ(result.reports, 0u);
  EXPECT_EQ(token.use_count(), 1);
}

}  // namespace
}  // namespace pgrid::sensornet
