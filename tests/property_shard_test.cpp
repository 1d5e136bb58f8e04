// Property tests for SPMD world partitioning (sim/shard.hpp,
// net/shard_map.hpp, core/sharded.hpp): the determinism contract says a
// lockstep world is a pure function of its inputs — running the same world
// twice must produce bit-identical event order, NetworkStats, ledger totals
// and chaos schedules, and every region runs on the calling thread.  These
// checks compare full witnesses (order digests, per-region event logs,
// query outcomes) rather than spot-checking.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/sharded.hpp"
#include "net/shard_map.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace pgrid {
namespace {

// ---------------------------------------------------------------------------
// Kernel-level lockstep: synthetic regions with cross-region chatter.

/// One region's deterministic workload: a self-rescheduling event chain
/// that logs (time, step) and periodically posts a message to the next
/// region.  The log is the per-region event-order witness.
struct RegionLog {
  std::vector<std::int64_t> fired_at_us;
  std::vector<std::uint64_t> steps;
};

/// Builds R regions with chained workloads into `world`; every third step
/// posts a cross-region echo to region (r+1) % R timestamped two windows
/// ahead (so no lookahead violations).
struct SyntheticWorld {
  explicit SyntheticWorld(std::size_t region_count, sim::ShardingConfig cfg)
      : sims(region_count), logs(region_count) {
    std::vector<sim::Simulator*> ptrs;
    for (auto& s : sims) ptrs.push_back(&s);
    world = std::make_unique<sim::LockstepWorld>(cfg, std::move(ptrs));
    for (std::size_t r = 0; r < region_count; ++r) {
      schedule_step(r, sim::SimTime::microseconds(100 * (r + 1)), 0);
    }
  }

  void schedule_step(std::size_t r, sim::SimTime at, std::uint64_t step) {
    sims[r].schedule_at(at, [this, r, step] {
      logs[r].fired_at_us.push_back(sims[r].now().us);
      logs[r].steps.push_back(step);
      if (step >= 60) return;
      if (step % 3 == 2) {
        const std::size_t dst = (r + 1) % sims.size();
        const sim::SimTime deliver =
            sims[r].now() + world->config().window + world->config().window;
        world->post(static_cast<std::uint32_t>(r),
                    static_cast<std::uint32_t>(dst), deliver,
                    [this, dst, step] {
                      logs[dst].fired_at_us.push_back(sims[dst].now().us);
                      logs[dst].steps.push_back(1000 + step);
                    });
      }
      schedule_step(r, sims[r].now() + sim::SimTime::microseconds(700 + 13 * r),
                    step + 1);
    });
  }

  std::vector<sim::Simulator> sims;
  std::vector<RegionLog> logs;
  std::unique_ptr<sim::LockstepWorld> world;
};

struct SyntheticResult {
  std::vector<RegionLog> logs;
  std::uint64_t digest = 0;
  sim::LockstepStats stats;
};

SyntheticResult run_synthetic(std::size_t regions, std::size_t shards = 1) {
  sim::ShardingConfig cfg;
  cfg.shards = shards;
  cfg.window = sim::SimTime::microseconds(500);
  SyntheticWorld world(regions, cfg);
  SyntheticResult result;
  result.stats = world.world->run();
  result.logs = std::move(world.logs);
  result.digest = world.world->order_digest();
  return result;
}

void expect_same_logs(const SyntheticResult& a, const SyntheticResult& b,
                      const std::string& label) {
  ASSERT_EQ(a.logs.size(), b.logs.size());
  for (std::size_t r = 0; r < a.logs.size(); ++r) {
    EXPECT_EQ(a.logs[r].fired_at_us, b.logs[r].fired_at_us)
        << label << ": region " << r << " fire times diverged";
    EXPECT_EQ(a.logs[r].steps, b.logs[r].steps)
        << label << ": region " << r << " event order diverged";
  }
  EXPECT_EQ(a.digest, b.digest) << label << ": order digest diverged";
  EXPECT_EQ(a.stats.events, b.stats.events);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.lookahead_violations, b.stats.lookahead_violations);
}

class ShardCountSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardCountSweep, LockstepEventOrderInvariantUnderShardCount) {
  // Regions always run serially, so the `shards` setting the perf harness
  // still assigns must be invisible: a second run with GetParam() shards
  // repeats the first (1 shard) exactly — shards=1 is a plain run-twice check.
  const auto baseline = run_synthetic(4, 1);
  const auto sharded = run_synthetic(4, GetParam());
  expect_same_logs(baseline, sharded,
                   "shards=" + std::to_string(GetParam()));
  EXPECT_GT(baseline.stats.messages, 0u);
  EXPECT_EQ(baseline.stats.lookahead_violations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardCountSweep,
                         ::testing::Values(1u, 2u, 4u));

TEST(Lockstep, MatchesGlobalSingleQueueBaseline) {
  // The same workload in one global simulator: regions interleave in a
  // single heap instead of running lockstep.  Per-region projections of the
  // event stream must match the sharded run exactly (regions only interact
  // through timestamped messages, which both executions honour).
  const std::size_t kRegions = 3;
  sim::Simulator global;
  std::vector<RegionLog> global_logs(kRegions);
  struct Chain {
    sim::Simulator* sim;
    std::vector<RegionLog>* logs;
    std::function<void(std::size_t, sim::SimTime, std::uint64_t)> step;
  };
  auto chain = std::make_shared<Chain>();
  chain->sim = &global;
  chain->logs = &global_logs;
  chain->step = [chain](std::size_t r, sim::SimTime at, std::uint64_t s) {
    chain->sim->schedule_at(at, [chain, r, s] {
      (*chain->logs)[r].fired_at_us.push_back(chain->sim->now().us);
      (*chain->logs)[r].steps.push_back(s);
      if (s >= 60) return;
      if (s % 3 == 2) {
        const std::size_t dst = (r + 1) % chain->logs->size();
        chain->sim->schedule_at(
            chain->sim->now() + sim::SimTime::microseconds(1000),
            [chain, dst, s] {
              (*chain->logs)[dst].fired_at_us.push_back(chain->sim->now().us);
              (*chain->logs)[dst].steps.push_back(1000 + s);
            });
      }
      chain->step(r, chain->sim->now() +
                         sim::SimTime::microseconds(700 + 13 * r),
                  s + 1);
    });
  };
  for (std::size_t r = 0; r < kRegions; ++r) {
    chain->step(r, sim::SimTime::microseconds(100 * (r + 1)), 0);
  }
  global.run();
  chain->step = nullptr;  // break the shared_ptr self-capture cycle

  // Sharded run of the identical workload (message latency 1000us = two
  // 500us windows, matching SyntheticWorld).
  const auto sharded = run_synthetic(kRegions);
  for (std::size_t r = 0; r < kRegions; ++r) {
    EXPECT_EQ(global_logs[r].fired_at_us, sharded.logs[r].fired_at_us)
        << "region " << r;
    EXPECT_EQ(global_logs[r].steps, sharded.logs[r].steps) << "region " << r;
  }
}

TEST(Lockstep, LookaheadViolationsCountedAndClamped) {
  sim::ShardingConfig cfg;
  cfg.window = sim::SimTime::milliseconds(10);
  SyntheticWorld world(2, cfg);
  // A message timestamped in the past of the first barrier: counted as a
  // violation and clamped to the receiver's clock, never lost.
  bool delivered = false;
  world.world->post_control(1, sim::SimTime::microseconds(-5),
                            [&delivered] { delivered = true; });
  const auto stats = world.world->run();
  EXPECT_TRUE(delivered);
  EXPECT_EQ(stats.lookahead_violations, 1u);
}

// ---------------------------------------------------------------------------
// ShardMap: assignment derived from the spatial index's quantization.

TEST(ShardMap, CellGranularAssignmentAndBoundary) {
  net::ShardMap map({net::Vec3{0, 0, 0}, net::Vec3{100, 0, 0}}, 10.0);
  // Same cell -> same region, whole cells flip at the midpoint.
  EXPECT_EQ(map.region_of_pos({1, 1, 0}), 0u);
  EXPECT_EQ(map.region_of_pos({9, 9, 0}), 0u);
  EXPECT_EQ(map.region_of_pos({99, 1, 0}), 1u);
  EXPECT_EQ(map.region_of_pos({41, 0, 0}), 0u);
  EXPECT_EQ(map.region_of_pos({61, 0, 0}), 1u);
  map.assign(7, {3, 3, 0});
  map.assign(9, {97, 2, 0});
  EXPECT_EQ(map.region_of(7), 0u);
  EXPECT_EQ(map.region_of(9), 1u);
  EXPECT_TRUE(map.boundary(7, 9));
  EXPECT_FALSE(map.boundary(7, 7));
  // Unregistered nodes never count as boundary traffic.
  EXPECT_FALSE(map.boundary(7, 1234));
  EXPECT_EQ(map.region_of(1234), net::kInvalidRegion);
  EXPECT_GE(map.cells_mapped(), 4u);
}

// ---------------------------------------------------------------------------
// Full-deployment witnesses.

core::ShardedDeploymentConfig deployment_config(std::size_t regions) {
  core::ShardedDeploymentConfig config;
  config.base.seed = 42;
  config.base.sensors.sensor_count = 16;
  config.base.sensors.width_m = 60.0;
  config.base.sensors.height_m = 60.0;
  config.base.sensors.noise_std = 0.0;
  config.base.advertise_sensor_services = false;
  config.base.pde_resolution = 9;
  config.base.pool_threads = 1;
  config.base.sharding.window = sim::SimTime::milliseconds(5);
  config.regions = regions;
  config.region_spacing_m = 400.0;
  config.backhaul_latency = sim::SimTime::milliseconds(10);
  return config;
}

struct DeploymentWitness {
  std::vector<core::QueryOutcome> outcomes;
  std::vector<net::NetworkStats> stats;
  std::vector<double> joules;
  std::uint64_t digest = 0;
  sim::LockstepStats lockstep;
};

DeploymentWitness run_deployment(std::size_t regions) {
  core::ShardedDeployment dep(deployment_config(regions));
  DeploymentWitness w;
  w.outcomes.resize(regions + 1);
  for (std::size_t r = 0; r < regions; ++r) {
    dep.submit(r, sim::SimTime::milliseconds(1),
               "SELECT AVG(temp) FROM sensors",
               [&w, r](core::QueryOutcome outcome) {
                 w.outcomes[r] = std::move(outcome);
               });
  }
  // One cross-region forwarding over the wired backhaul, entering region
  // regions-1 from region 0.
  dep.submit_remote(0, regions - 1, sim::SimTime::milliseconds(2),
                    "SELECT MAX(temp) FROM sensors",
                    [&w, regions](core::QueryOutcome outcome) {
                      w.outcomes[regions] = std::move(outcome);
                    });
  w.lockstep = dep.run();
  for (std::size_t r = 0; r < regions; ++r) {
    w.stats.push_back(dep.region(r).network().stats());
    w.joules.push_back(dep.region(r).telemetry().total().joules);
  }
  w.digest = dep.order_digest();
  return w;
}

void expect_same_witness(const DeploymentWitness& a,
                         const DeploymentWitness& b,
                         const std::string& label) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << label;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].ok, b.outcomes[i].ok) << label << " #" << i;
    EXPECT_EQ(a.outcomes[i].model, b.outcomes[i].model) << label << " #" << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.outcomes[i].actual.value, b.outcomes[i].actual.value)
        << label << " #" << i;
    EXPECT_EQ(a.outcomes[i].actual.energy_j, b.outcomes[i].actual.energy_j)
        << label << " #" << i;
    EXPECT_EQ(a.outcomes[i].actual.data_bytes, b.outcomes[i].actual.data_bytes)
        << label << " #" << i;
    EXPECT_EQ(a.outcomes[i].handheld_response_s,
              b.outcomes[i].handheld_response_s)
        << label << " #" << i;
  }
  for (std::size_t r = 0; r < a.stats.size(); ++r) {
    EXPECT_EQ(a.stats[r].transmissions, b.stats[r].transmissions)
        << label << " region " << r;
    EXPECT_EQ(a.stats[r].delivered, b.stats[r].delivered)
        << label << " region " << r;
    EXPECT_EQ(a.stats[r].bytes_sent, b.stats[r].bytes_sent)
        << label << " region " << r;
    EXPECT_EQ(a.stats[r].energy_j, b.stats[r].energy_j)
        << label << " region " << r;
    EXPECT_EQ(a.stats[r].cross_region_frames, b.stats[r].cross_region_frames)
        << label << " region " << r;
    EXPECT_EQ(a.joules[r], b.joules[r]) << label << " region " << r;
  }
  EXPECT_EQ(a.digest, b.digest) << label;
  EXPECT_EQ(a.lockstep.events, b.lockstep.events) << label;
  EXPECT_EQ(a.lockstep.messages, b.lockstep.messages) << label;
}

TEST(ShardedDeployment, OutcomesBitIdenticalAcrossRuns) {
  const auto first = run_deployment(4);
  for (const auto& outcome : first.outcomes) {
    ASSERT_TRUE(outcome.ok) << outcome.error;
  }
  EXPECT_EQ(first.outcomes.size(), 5u);  // 4 local + 1 forwarded
  EXPECT_GT(first.lockstep.messages, 0u);
  expect_same_witness(first, run_deployment(4), "second run");
}

TEST(ShardedDeployment, RunsEveryRegionOnTheCallingThread) {
  // `shards` is assigned the way the perf harness assigns it; regions must
  // still run serially on the caller's thread, never on worker lanes.
  auto config = deployment_config(4);
  config.base.sharding.shards = 4;
  core::ShardedDeployment dep(config);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  for (std::size_t r = 0; r < dep.region_count(); ++r) {
    dep.region(r).simulator().schedule_at(
        sim::SimTime::milliseconds(3),
        [&seen] { seen.push_back(std::this_thread::get_id()); });
    dep.submit(r, sim::SimTime::milliseconds(1),
               "SELECT AVG(temp) FROM sensors",
               [&seen](const core::QueryOutcome&) {
                 seen.push_back(std::this_thread::get_id());
               });
  }
  dep.submit_remote(0, 3, sim::SimTime::milliseconds(2),
                    "SELECT MAX(temp) FROM sensors",
                    [&seen](const core::QueryOutcome&) {
                      seen.push_back(std::this_thread::get_id());
                    });
  dep.run();
  ASSERT_EQ(seen.size(), 2 * dep.region_count() + 1);
  for (const std::thread::id id : seen) EXPECT_EQ(id, caller);
}

TEST(ShardedDeployment, KillSwitchMatchesLegacyRuntime) {
  // One region: the deployment must be byte-identical to a plain
  // PervasiveGridRuntime built from the same config — same seed (region 0
  // keeps it), same zero origin, same everything.
  auto config = deployment_config(1);
  core::PervasiveGridRuntime legacy(config.base);
  const auto legacy_outcome =
      legacy.submit_and_run("SELECT AVG(temp) FROM sensors");
  ASSERT_TRUE(legacy_outcome.ok) << legacy_outcome.error;

  core::ShardedDeployment dep(config);
  core::QueryOutcome sharded_outcome;
  dep.submit(0, sim::SimTime::zero(), "SELECT AVG(temp) FROM sensors",
             [&](core::QueryOutcome outcome) {
               sharded_outcome = std::move(outcome);
             });
  dep.run();
  ASSERT_TRUE(sharded_outcome.ok) << sharded_outcome.error;
  EXPECT_EQ(sharded_outcome.actual.value, legacy_outcome.actual.value);
  EXPECT_EQ(sharded_outcome.actual.energy_j, legacy_outcome.actual.energy_j);
  EXPECT_EQ(sharded_outcome.actual.data_bytes,
            legacy_outcome.actual.data_bytes);
  const auto& ls = dep.region(0).network().stats();
  const auto& rs = legacy.network().stats();
  EXPECT_EQ(ls.transmissions, rs.transmissions);
  EXPECT_EQ(ls.bytes_sent, rs.bytes_sent);
  EXPECT_EQ(ls.energy_j, rs.energy_j);
  EXPECT_EQ(dep.region(0).telemetry().total().joules,
            legacy.telemetry().total().joules);
}

TEST(ShardedDeployment, RegionSeedDerivation) {
  EXPECT_EQ(core::ShardedDeployment::region_seed(42, 0), 42u);
  EXPECT_NE(core::ShardedDeployment::region_seed(42, 1), 42u);
  EXPECT_NE(core::ShardedDeployment::region_seed(42, 1),
            core::ShardedDeployment::region_seed(42, 2));
}

TEST(ShardedDeployment, OverlappingRegionsCountBoundaryFrames) {
  // Pack regions so close that one deployment's sensors fall in cells owned
  // by the neighbour region: the send path must count those frames as
  // boundary traffic — and the count must repeat run to run.
  auto config = deployment_config(2);
  config.region_spacing_m = 50.0;  // deployment is 60 m wide: overlap
  std::vector<std::uint64_t> counts;
  for (int run = 0; run < 2; ++run) {
    core::ShardedDeployment dep(config);
    core::QueryOutcome outcome;
    dep.submit(0, sim::SimTime::milliseconds(1),
               "SELECT AVG(temp) FROM sensors",
               [&](core::QueryOutcome o) { outcome = std::move(o); });
    dep.run();
    ASSERT_TRUE(outcome.ok) << outcome.error;
    counts.push_back(dep.region(0).network().stats().cross_region_frames);
  }
  EXPECT_GT(counts[0], 0u)
      << "overlapping regions must produce boundary traffic";
  EXPECT_EQ(counts[0], counts[1]);
}

// ---------------------------------------------------------------------------
// Chaos under sharding: schedules and injected faults are bit-identical
// across runs, including remote injection through the control lane.

struct ChaosWitness {
  std::vector<sim::Schedule> schedules;
  std::vector<std::vector<std::size_t>> injected_order;
  std::vector<net::NetworkStats> stats;
  std::uint64_t digest = 0;
};

ChaosWitness run_chaos_deployment() {
  core::ShardedDeployment dep(deployment_config(2));
  ChaosWitness w;
  sim::ChaosConfig chaos_config;
  chaos_config.horizon = sim::SimTime::seconds(30.0);
  chaos_config.fault_count = 8;
  chaos_config.mix = sim::ChaosMix::partition_storm();
  for (std::size_t r = 0; r < 2; ++r) {
    w.schedules.push_back(dep.arm_chaos(r, chaos_config));
  }
  // A remote partition injected across the control lane: region 1's first
  // three sensors are cut off from its base station.
  sim::Fault storm;
  storm.kind = sim::FaultKind::kPartition;
  storm.at = sim::SimTime::seconds(1.0);
  storm.duration = sim::SimTime::seconds(2.0);
  storm.group = {dep.region(1).sensors().sensors()[0],
                 dep.region(1).sensors().sensors()[1],
                 dep.region(1).sensors().sensors()[2]};
  dep.inject_remote(1, storm);
  for (std::size_t r = 0; r < 2; ++r) {
    dep.submit(r, sim::SimTime::milliseconds(500),
               "SELECT AVG(temp) FROM sensors", [](core::QueryOutcome) {});
  }
  dep.run();
  for (std::size_t r = 0; r < 2; ++r) {
    std::vector<std::size_t> order;
    for (const auto& injected : dep.chaos(r)->injected()) {
      order.push_back(injected.index);
    }
    w.injected_order.push_back(std::move(order));
    w.stats.push_back(dep.region(r).network().stats());
    EXPECT_TRUE(dep.chaos(r)->quiescent());
  }
  w.digest = dep.order_digest();
  return w;
}

TEST(ShardedChaos, SchedulesAndInjectionBitIdenticalAcrossRuns) {
  const auto one = run_chaos_deployment();
  // The remote partition must actually have fired in region 1.
  ASSERT_FALSE(one.injected_order[1].empty());
  bool saw_injected = false;
  for (std::size_t index : one.injected_order[1]) {
    if (index >= 8) saw_injected = true;  // armed schedule has 8 faults
  }
  EXPECT_TRUE(saw_injected) << "control-lane fault never applied";
  const auto other = run_chaos_deployment();
  EXPECT_EQ(one.schedules, other.schedules);
  EXPECT_EQ(one.injected_order, other.injected_order);
  EXPECT_EQ(one.digest, other.digest);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(one.stats[r].transmissions, other.stats[r].transmissions);
    EXPECT_EQ(one.stats[r].dropped, other.stats[r].dropped);
    EXPECT_EQ(one.stats[r].energy_j, other.stats[r].energy_j);
  }
}

}  // namespace
}  // namespace pgrid
