// Unit tests for the sensor-network layer: fields, aggregation states,
// clustering, the four collection models, reads, and lifetime accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/stats.hpp"

#include "sensornet/clustering.hpp"
#include "sensornet/field.hpp"
#include "sensornet/lifetime.hpp"
#include "sensornet/sensor_network.hpp"

namespace pgrid::sensornet {
namespace {

// ---------------------------------------------------------------------------
// Fields
// ---------------------------------------------------------------------------

TEST(Field, UniformEverywhere) {
  UniformField field(21.5);
  EXPECT_DOUBLE_EQ(field.value({0, 0, 0}, sim::SimTime::zero()), 21.5);
  EXPECT_DOUBLE_EQ(field.value({100, -5, 2}, sim::SimTime::seconds(99)), 21.5);
}

TEST(Field, GradientAlongX) {
  GradientField field(10.0, 0.5);
  EXPECT_DOUBLE_EQ(field.value({0, 0, 0}, sim::SimTime::zero()), 10.0);
  EXPECT_DOUBLE_EQ(field.value({20, 7, 0}, sim::SimTime::zero()), 20.0);
}

TEST(Field, FireIsAmbientBeforeIgnition) {
  BuildingTemperatureField field(20.0);
  FireSource fire;
  fire.pos = {50, 50, 0};
  fire.start = sim::SimTime::seconds(100.0);
  field.ignite(fire);
  EXPECT_DOUBLE_EQ(field.value({50, 50, 0}, sim::SimTime::seconds(50.0)), 20.0);
}

TEST(Field, FireHeatsEpicenterAndRamps) {
  BuildingTemperatureField field(20.0);
  FireSource fire;
  fire.pos = {50, 50, 0};
  fire.peak_celsius = 600.0;
  fire.ramp_seconds = 100.0;
  field.ignite(fire);
  const double early = field.value({50, 50, 0}, sim::SimTime::seconds(10.0));
  const double late = field.value({50, 50, 0}, sim::SimTime::seconds(200.0));
  EXPECT_GT(early, 20.0);
  EXPECT_GT(late, early);
  EXPECT_NEAR(late, 620.0, 1.0);  // ambient + full peak at the epicenter
}

TEST(Field, FireDecaysWithDistance) {
  BuildingTemperatureField field(20.0);
  FireSource fire;
  fire.pos = {0, 0, 0};
  field.ignite(fire);
  const auto t = sim::SimTime::seconds(300.0);
  const double near = field.value({2, 0, 0}, t);
  const double mid = field.value({15, 0, 0}, t);
  const double far = field.value({200, 0, 0}, t);
  EXPECT_GT(near, mid);
  EXPECT_GT(mid, far);
  EXPECT_NEAR(far, 20.0, 0.5);
}

TEST(Field, FireSpreadsOverTime) {
  BuildingTemperatureField field(20.0);
  FireSource fire;
  fire.pos = {0, 0, 0};
  fire.spread_m_per_s = 0.1;
  field.ignite(fire);
  const net::Vec3 probe{25, 0, 0};
  const double early = field.value(probe, sim::SimTime::seconds(120.0));
  const double late = field.value(probe, sim::SimTime::seconds(1200.0));
  EXPECT_GT(late, early) << "growing radius reaches farther probes";
}

TEST(Field, TwoFiresSuperpose) {
  BuildingTemperatureField field(20.0);
  FireSource a;
  a.pos = {0, 0, 0};
  FireSource b;
  b.pos = {10, 0, 0};
  field.ignite(a);
  field.ignite(b);
  EXPECT_EQ(field.fire_count(), 2u);
  const auto t = sim::SimTime::seconds(300.0);
  BuildingTemperatureField solo(20.0);
  solo.ignite(a);
  EXPECT_GT(field.value({5, 0, 0}, t), solo.value({5, 0, 0}, t));
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

TEST(Aggregation, SingleStateResults) {
  AggregateState s;
  for (double v : {3.0, 1.0, 4.0, 1.0, 5.0}) s.add(v);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kMin), 1.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kMax), 5.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kSum), 14.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kAvg), 2.8);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kCount), 5.0);
}

TEST(Aggregation, EmptyStateIsZero) {
  AggregateState s;
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kMin), 0.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kAvg), 0.0);
  EXPECT_DOUBLE_EQ(s.result(AggregateFunction::kCount), 0.0);
}

TEST(Aggregation, MergeEqualsFlatAggregation) {
  AggregateState left;
  AggregateState right;
  AggregateState whole;
  for (int i = 0; i < 50; ++i) {
    const double v = std::sin(i * 0.7) * 10;
    whole.add(v);
    (i % 2 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count, whole.count);
  EXPECT_DOUBLE_EQ(left.sum, whole.sum);
  EXPECT_DOUBLE_EQ(left.min, whole.min);
  EXPECT_DOUBLE_EQ(left.max, whole.max);
}

TEST(Aggregation, MergeAssociative) {
  AggregateState a, b, c;
  a.add(1);
  b.add(2);
  c.add(3);
  AggregateState ab = a;
  ab.merge(b);
  ab.merge(c);
  AggregateState bc = b;
  bc.merge(c);
  AggregateState a_bc = a;
  a_bc.merge(bc);
  EXPECT_DOUBLE_EQ(ab.sum, a_bc.sum);
  EXPECT_EQ(ab.count, a_bc.count);
  EXPECT_DOUBLE_EQ(ab.min, a_bc.min);
  EXPECT_DOUBLE_EQ(ab.max, a_bc.max);
}

TEST(Aggregation, ParseNames) {
  AggregateFunction fn;
  EXPECT_TRUE(parse_aggregate("avg", fn));
  EXPECT_EQ(fn, AggregateFunction::kAvg);
  EXPECT_TRUE(parse_aggregate("MAX", fn));
  EXPECT_EQ(fn, AggregateFunction::kMax);
  EXPECT_TRUE(parse_aggregate("Count", fn));
  EXPECT_EQ(fn, AggregateFunction::kCount);
  EXPECT_FALSE(parse_aggregate("median", fn));
}

// ---------------------------------------------------------------------------
// Fixture: a 7x7 grid network, base at the corner
// ---------------------------------------------------------------------------

class SensorNetFixture : public ::testing::Test {
 protected:
  SensorNetFixture() : net_(sim_, common::Rng(11)) {
    SensorNetworkConfig config;
    config.sensor_count = 49;
    config.width_m = 120.0;
    config.height_m = 120.0;
    config.base_pos = {-5.0, -5.0, 0.0};
    config.noise_std = 0.0;  // exact values for assertion-friendly tests
    snet_ = std::make_unique<SensorNetwork>(net_, config, common::Rng(5));
  }

  sim::Simulator sim_;
  net::Network net_;
  std::unique_ptr<SensorNetwork> snet_;
};

TEST_F(SensorNetFixture, DeploymentShape) {
  EXPECT_EQ(snet_->sensors().size(), 49u);
  EXPECT_EQ(net_.size(), 50u);
  EXPECT_EQ(net_.node(snet_->base_station()).kind,
            net::NodeKind::kBaseStation);
  EXPECT_TRUE(net_.energy(snet_->base_station()).is_unlimited());
  EXPECT_EQ(snet_->alive_sensors(), 49u);
}

TEST_F(SensorNetFixture, TreeCoversAllSensors) {
  const auto& tree = snet_->tree();
  for (auto id : snet_->sensors()) {
    EXPECT_TRUE(tree.contains(id)) << "sensor " << id;
  }
}

TEST_F(SensorNetFixture, SampleMatchesFieldWithoutNoise) {
  GradientField field(10.0, 1.0);
  const auto sensor = snet_->sensors()[3];
  const double expected =
      field.value(net_.node(sensor).pos, sim::SimTime::zero());
  EXPECT_DOUBLE_EQ(snet_->sample(sensor, field, sim::SimTime::zero()),
                   expected);
}

TEST_F(SensorNetFixture, SampleNoiseHasConfiguredSpread) {
  sim::Simulator sim2;
  net::Network net2(sim2, common::Rng(1));
  SensorNetworkConfig config;
  config.sensor_count = 1;
  config.noise_std = 2.0;
  SensorNetwork noisy(net2, config, common::Rng(9));
  UniformField field(100.0);
  common::Accumulator acc;
  for (int i = 0; i < 20000; ++i) {
    acc.add(noisy.sample(noisy.sensors()[0], field, sim::SimTime::zero()));
  }
  EXPECT_NEAR(acc.mean(), 100.0, 0.1);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.1);
}

TEST_F(SensorNetFixture, AllToBaseCollectsEveryReading) {
  UniformField field(25.0);
  CollectionResult result;
  snet_->collect_all_to_base(field, [&](CollectionResult r) { result = r; });
  sim_.run();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.reports, 49u);
  EXPECT_EQ(result.raw.size(), 49u);
  EXPECT_NEAR(result.aggregate.result(AggregateFunction::kAvg), 25.0, 1e-9);
  EXPECT_GT(result.energy_j, 0.0);
  EXPECT_GT(result.elapsed_s, 0.0);
}

TEST_F(SensorNetFixture, TreeAggregateMatchesAllToBaseAnswer) {
  GradientField field(10.0, 0.25);
  CollectionResult raw;
  snet_->collect_all_to_base(field, [&](CollectionResult r) { raw = r; });
  sim_.run();
  net_.reset_energy();
  CollectionResult agg;
  snet_->collect_tree_aggregate(field, [&](CollectionResult r) { agg = r; });
  sim_.run();
  ASSERT_EQ(agg.reports, raw.reports);
  EXPECT_NEAR(agg.aggregate.result(AggregateFunction::kAvg),
              raw.aggregate.result(AggregateFunction::kAvg), 1e-9);
  EXPECT_NEAR(agg.aggregate.result(AggregateFunction::kMax),
              raw.aggregate.result(AggregateFunction::kMax), 1e-9);
}

TEST_F(SensorNetFixture, TreeAggregateUsesLessEnergyThanAllToBase) {
  // TAG's headline claim, which EXP-P5 sweeps: in-network aggregation
  // saves sensor energy vs shipping every raw reading.
  UniformField field(25.0);
  CollectionResult raw;
  snet_->collect_all_to_base(field, [&](CollectionResult r) { raw = r; });
  sim_.run();
  net_.reset_energy();
  CollectionResult agg;
  snet_->collect_tree_aggregate(field, [&](CollectionResult r) { agg = r; });
  sim_.run();
  EXPECT_LT(agg.energy_j, raw.energy_j);
}

TEST_F(SensorNetFixture, ClusterAggregateMatchesAnswer) {
  GradientField field(5.0, 0.5);
  CollectionResult result;
  snet_->collect_cluster_aggregate(field, 7,
                                   [&](CollectionResult r) { result = r; });
  sim_.run();
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.reports, 49u);
  // Exact average of the gradient over all sensors.
  double expected = 0.0;
  for (auto id : snet_->sensors()) {
    expected += field.value(net_.node(id).pos, sim::SimTime::zero());
  }
  expected /= 49.0;
  EXPECT_NEAR(result.aggregate.result(AggregateFunction::kAvg), expected, 1e-9);
}

TEST_F(SensorNetFixture, RegionAveragesDeliverKPoints) {
  GradientField field(5.0, 0.5);
  CollectionResult result;
  snet_->collect_region_averages(field, 4,
                                 [&](CollectionResult r) { result = r; });
  sim_.run();
  EXPECT_EQ(result.raw.size(), 4u);
  for (const auto& reading : result.raw) {
    EXPECT_EQ(reading.sensor, net::kInvalidNode);
    EXPECT_GT(reading.value, 5.0 - 1e-9);
    EXPECT_LT(reading.value, 5.0 + 0.5 * 120.0 + 1e-9);
    EXPECT_GE(reading.pos.x, 0.0);
    EXPECT_LE(reading.pos.x, 120.0);
  }
}

TEST_F(SensorNetFixture, RegionAveragesCheaperThanAllToBase) {
  UniformField field(25.0);
  CollectionResult raw;
  snet_->collect_all_to_base(field, [&](CollectionResult r) { raw = r; });
  sim_.run();
  net_.reset_energy();
  CollectionResult regions;
  snet_->collect_region_averages(field, 4,
                                 [&](CollectionResult r) { regions = r; });
  sim_.run();
  EXPECT_LT(regions.energy_j, raw.energy_j);
}

TEST_F(SensorNetFixture, DeadSensorExcludedFromCollection) {
  UniformField field(25.0);
  // Kill a leaf-ish sensor far from the base.
  const auto victim = snet_->sensors()[48];
  net_.set_node_up(victim, false);
  CollectionResult result;
  snet_->collect_tree_aggregate(field, [&](CollectionResult r) { result = r; });
  sim_.run();
  EXPECT_EQ(result.expected, 48u);
  EXPECT_EQ(result.reports, 48u);
  EXPECT_TRUE(result.complete);
}

TEST_F(SensorNetFixture, ReadSensorRoundTrip) {
  GradientField field(10.0, 1.0);
  const auto sensor = snet_->sensors()[24];
  ReadResult result;
  snet_->read_sensor(sensor, field, [&](ReadResult r) { result = r; });
  sim_.run();
  EXPECT_TRUE(result.ok);
  EXPECT_DOUBLE_EQ(result.value,
                   field.value(net_.node(sensor).pos, sim::SimTime::zero()));
  EXPECT_GT(result.elapsed_s, 0.0);
  EXPECT_GT(result.energy_j, 0.0);
}

TEST_F(SensorNetFixture, ReadDeadSensorFails) {
  UniformField field(25.0);
  const auto sensor = snet_->sensors()[10];
  net_.set_node_up(sensor, false);
  ReadResult result;
  result.ok = true;
  snet_->read_sensor(sensor, field, [&](ReadResult r) { result = r; });
  sim_.run();
  EXPECT_FALSE(result.ok);
}

TEST_F(SensorNetFixture, FarSensorReadCostsMoreThanNearOne) {
  UniformField field(25.0);
  ReadResult near_result;
  snet_->read_sensor(snet_->sensors()[0], field,
                     [&](ReadResult r) { near_result = r; });
  sim_.run();
  net_.reset_energy();
  ReadResult far_result;
  snet_->read_sensor(snet_->sensors()[48], field,
                     [&](ReadResult r) { far_result = r; });
  sim_.run();
  EXPECT_GT(far_result.elapsed_s, near_result.elapsed_s);
  EXPECT_GT(far_result.energy_j, near_result.energy_j);
}

// ---------------------------------------------------------------------------
// Clustering
// ---------------------------------------------------------------------------

TEST_F(SensorNetFixture, ClustersPartitionAliveSensors) {
  common::Rng rng(77);
  auto clusters = form_clusters(net_, snet_->sensors(), 7, rng);
  ASSERT_FALSE(clusters.empty());
  std::set<net::NodeId> seen;
  for (const auto& cluster : clusters) {
    EXPECT_NE(cluster.head, net::kInvalidNode);
    EXPECT_FALSE(cluster.members.empty());
    // Head is a member.
    EXPECT_NE(std::find(cluster.members.begin(), cluster.members.end(),
                        cluster.head),
              cluster.members.end());
    for (auto id : cluster.members) {
      EXPECT_TRUE(seen.insert(id).second) << "node in two clusters";
    }
  }
  EXPECT_EQ(seen.size(), 49u);
}

TEST_F(SensorNetFixture, ClusterCountCappedByAliveNodes) {
  common::Rng rng(77);
  auto clusters = form_clusters(net_, snet_->sensors(), 500, rng);
  EXPECT_LE(clusters.size(), 49u);
}

TEST_F(SensorNetFixture, ClusteringSkipsDeadNodes) {
  net_.set_node_up(snet_->sensors()[0], false);
  common::Rng rng(77);
  auto clusters = form_clusters(net_, snet_->sensors(), 5, rng);
  for (const auto& cluster : clusters) {
    for (auto id : cluster.members) EXPECT_NE(id, snet_->sensors()[0]);
  }
}

TEST(Clustering, EmptyInput) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(1));
  common::Rng rng(2);
  EXPECT_TRUE(form_clusters(net, {}, 3, rng).empty());
}

// ---------------------------------------------------------------------------
// Lifetime
// ---------------------------------------------------------------------------

TEST(Lifetime, TreeOutlivesAllToBase) {
  // Small batteries so the test terminates quickly.
  auto run = [](CollectionStrategy strategy) {
    sim::Simulator sim;
    net::Network net(sim, common::Rng(31));
    SensorNetworkConfig config;
    config.sensor_count = 25;
    config.width_m = 80.0;
    config.height_m = 80.0;
    config.base_pos = {-5, -5, 0};
    config.battery_j = 0.002;
    SensorNetwork snet(net, config, common::Rng(13));
    UniformField field(25.0);
    LifetimeResult result;
    measure_lifetime(snet, field, strategy, 5, 2000,
                     [&](LifetimeResult r) { result = r; });
    sim.run();
    return result;
  };
  const auto raw = run(CollectionStrategy::kAllToBase);
  const auto tree = run(CollectionStrategy::kTreeAggregate);
  EXPECT_FALSE(raw.hit_round_cap);
  EXPECT_FALSE(tree.hit_round_cap);
  EXPECT_GT(tree.rounds, raw.rounds)
      << "aggregation extends network lifetime (TAG claim)";
  EXPECT_GT(raw.rounds, 0u);
}

TEST(Lifetime, RoundCapRespected) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(31));
  SensorNetworkConfig config;
  config.sensor_count = 9;
  config.width_m = 40.0;
  config.height_m = 40.0;
  config.battery_j = 100.0;  // effectively infinite
  SensorNetwork snet(net, config, common::Rng(13));
  UniformField field(25.0);
  LifetimeResult result;
  measure_lifetime(snet, field, CollectionStrategy::kTreeAggregate, 3, 10,
                   [&](LifetimeResult r) { result = r; });
  sim.run();
  EXPECT_TRUE(result.hit_round_cap);
  EXPECT_EQ(result.rounds, 10u);
}

}  // namespace
}  // namespace pgrid::sensornet
