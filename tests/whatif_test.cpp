// Tests for the what-if simulator (the paper's third component): trialling
// models on clones must mirror real execution exactly and leave the real
// deployment untouched.
#include <gtest/gtest.h>

#include <set>

#include "core/runtime.hpp"

namespace pgrid {
namespace {

core::RuntimeConfig scenario_config() {
  core::RuntimeConfig config;
  config.sensors.sensor_count = 49;
  config.sensors.width_m = 91.0;
  config.sensors.height_m = 91.0;
  config.sensors.base_pos = {-5, -5, 0};
  config.sensors.noise_std = 0.0;
  config.advertise_sensor_services = false;
  config.pde_resolution = 13;
  return config;
}

class WhatIfFixture : public ::testing::Test {
 protected:
  WhatIfFixture() : runtime_(scenario_config()) {
    sensornet::FireSource fire;
    fire.pos = {60, 60, 0};
    fire.start = sim::SimTime::seconds(-3600.0);
    fire.spread_m_per_s = 0.0;
    runtime_.field().ignite(fire);
  }
  core::PervasiveGridRuntime runtime_;
};

TEST_F(WhatIfFixture, CloneMirrorsRealExecution) {
  const std::string q = "SELECT AVG(temp) FROM sensors";
  const auto trial =
      runtime_.what_if(q, partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(trial.ok) << trial.error;
  const auto real =
      runtime_.submit_and_run(q, partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(real.ok);
  EXPECT_DOUBLE_EQ(trial.actual.value, real.actual.value);
  EXPECT_DOUBLE_EQ(trial.actual.energy_j, real.actual.energy_j);
  EXPECT_EQ(trial.actual.data_bytes, real.actual.data_bytes);
}

TEST_F(WhatIfFixture, TrialSpendsNoRealEnergy) {
  const auto before = runtime_.network().battery_energy_consumed();
  const auto sim_before = runtime_.simulator().now();
  runtime_.what_if("SELECT AVG(temp) FROM sensors",
                   partition::SolutionModel::kAllToBase);
  EXPECT_DOUBLE_EQ(runtime_.network().battery_energy_consumed(), before);
  EXPECT_EQ(runtime_.simulator().now(), sim_before);
  EXPECT_EQ(runtime_.decision_maker().observations(
                query::QueryClass::kAggregate,
                partition::SolutionModel::kAllToBase),
            0u)
      << "trials must not contaminate the learner";
}

TEST_F(WhatIfFixture, WhatIfAllCoversTheCandidateSet) {
  const auto outcomes = runtime_.what_if_all("SELECT AVG(temp) FROM sensors");
  ASSERT_EQ(outcomes.size(), 4u);  // aggregate candidates
  std::set<partition::SolutionModel> models;
  for (const auto& outcome : outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error;
    models.insert(outcome.model);
  }
  EXPECT_EQ(models.size(), 4u);
}

TEST_F(WhatIfFixture, OracleLabelFromTrialsFeedsTheLearner) {
  // The measured-oracle workflow of EXP-P6, through the public API: trial
  // every model, label the cheapest, teach the decision maker.
  const std::string q = "SELECT AVG(temp) FROM sensors";
  const auto outcomes = runtime_.what_if_all(q);
  const auto* best = &outcomes.front();
  for (const auto& outcome : outcomes) {
    if (outcome.actual.energy_j < best->actual.energy_j) best = &outcome;
  }
  auto parsed = query::parse_query(q);
  const auto cls = runtime_.classifier().classify(parsed.value());
  auto ctx = runtime_.execution_context();
  const auto profile = partition::profile_from(ctx, cls);
  runtime_.decision_maker().add_example(cls.inner, query::CostMetric::kNone,
                                        profile, best->model);
  runtime_.decision_maker().retrain();
  EXPECT_EQ(runtime_.decision_maker().decide(cls.inner,
                                             query::CostMetric::kNone,
                                             profile),
            best->model);
}

TEST_F(WhatIfFixture, ParallelTrialsBitIdenticalToSerial) {
  // what_if_all evaluates candidate clones concurrently on the runtime's
  // pool; every clone is an isolated deterministic deployment, so the
  // parallel outcomes must be bit-for-bit the serial ones, in candidate
  // order.  Run a parallel deployment (4 pool workers, 4 trials in flight)
  // against a strictly serial one built from the same scenario.
  auto parallel_config = scenario_config();
  parallel_config.pool_threads = 4;
  parallel_config.what_if_parallelism = 4;
  auto serial_config = scenario_config();
  serial_config.pool_threads = 4;  // same solver chunking as the clones
  serial_config.what_if_parallelism = 1;
  core::PervasiveGridRuntime parallel_rt(parallel_config);
  core::PervasiveGridRuntime serial_rt(serial_config);
  sensornet::FireSource fire;
  fire.pos = {60, 60, 0};
  fire.start = sim::SimTime::seconds(-3600.0);
  fire.spread_m_per_s = 0.0;
  parallel_rt.field().ignite(fire);
  serial_rt.field().ignite(fire);

  const std::string q = "SELECT AVG(temp) FROM sensors";
  const auto par = parallel_rt.what_if_all(q);
  const auto ser = serial_rt.what_if_all(q);
  ASSERT_EQ(par.size(), ser.size());
  for (std::size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].model, ser[i].model);
    EXPECT_EQ(par[i].ok, ser[i].ok);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(par[i].actual.value, ser[i].actual.value);
    EXPECT_EQ(par[i].actual.energy_j, ser[i].actual.energy_j);
    EXPECT_EQ(par[i].actual.response_s, ser[i].actual.response_s);
    EXPECT_EQ(par[i].actual.data_bytes, ser[i].actual.data_bytes);
    EXPECT_EQ(par[i].actual.compute_ops, ser[i].actual.compute_ops);
    EXPECT_EQ(par[i].handheld_response_s, ser[i].handheld_response_s);
    EXPECT_EQ(par[i].telemetry.network_bytes(),
              ser[i].telemetry.network_bytes());
  }
}

TEST_F(WhatIfFixture, ParallelTrialsLeaveTheRealDeploymentUntouched) {
  auto config = scenario_config();
  config.pool_threads = 4;
  core::PervasiveGridRuntime rt(config);
  const auto energy_before = rt.network().battery_energy_consumed();
  const auto now_before = rt.simulator().now();
  const auto outcomes = rt.what_if_all("SELECT AVG(temp) FROM sensors");
  ASSERT_EQ(outcomes.size(), 4u);
  for (const auto& outcome : outcomes) EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_DOUBLE_EQ(rt.network().battery_energy_consumed(), energy_before);
  EXPECT_EQ(rt.simulator().now(), now_before);
}

TEST_F(WhatIfFixture, BatchedTrialsWithFewerWorkersThanCandidates) {
  // what_if_parallelism = 2 splits 4 candidates into two batches of two:
  // the batch boundaries must not leak into the outcomes.
  auto batched_config = scenario_config();
  batched_config.pool_threads = 4;
  batched_config.what_if_parallelism = 2;
  auto serial_config = scenario_config();
  serial_config.pool_threads = 4;
  serial_config.what_if_parallelism = 1;
  core::PervasiveGridRuntime batched(batched_config);
  core::PervasiveGridRuntime serial(serial_config);

  const std::string q = "SELECT AVG(temp) FROM sensors";
  const auto two_batches = batched.what_if_all(q);
  const auto one_by_one = serial.what_if_all(q);
  ASSERT_EQ(two_batches.size(), one_by_one.size());
  for (std::size_t i = 0; i < two_batches.size(); ++i) {
    EXPECT_EQ(two_batches[i].model, one_by_one[i].model);
    EXPECT_EQ(two_batches[i].actual.value, one_by_one[i].actual.value);
    EXPECT_EQ(two_batches[i].actual.energy_j, one_by_one[i].actual.energy_j);
    EXPECT_EQ(two_batches[i].telemetry.network_bytes(),
              one_by_one[i].telemetry.network_bytes());
  }
}

TEST_F(WhatIfFixture, ParseErrorSurfaces) {
  const auto outcomes = runtime_.what_if_all("SELEKT");
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_FALSE(outcomes[0].ok);
}

}  // namespace
}  // namespace pgrid
