// Property tests for the multi-query sharing layer (core/sharing.hpp):
//
//  - shared TAG tree results are bit-identical to the same query executed
//    unshared on an identical seeded deployment (the layer changes who pays,
//    never what is answered);
//  - every subscriber of one group sees the same shared round;
//  - refcounting: the drop to zero subscribers tears the epoch schedule
//    down, deterministically, with nothing left behind;
//  - kill switch: sharing disabled — and sharing enabled but untriggered —
//    leave query fingerprints bit-identical to the default build;
//  - admission control: queueing, coalescing onto live groups past the
//    cap, overload shedding, and deadline-budget shedding;
//  - grouping stays correct under chaos (churn / loss / partition-heal
//    phases) and waypoint mobility;
//  - compose-side sub-plan dedup: identical discover sub-plans resolve once
//    per validity window, with per-consumer filtering intact.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "compose/manager.hpp"
#include "compose/provider.hpp"
#include "compose/task.hpp"
#include "core/runtime.hpp"
#include "core/sharing.hpp"
#include "net/mobility.hpp"
#include "net/reliable.hpp"
#include "query/canonical.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"

namespace pgrid {
namespace {

core::RuntimeConfig sharing_config(std::size_t sensors, bool sharing,
                                   std::uint64_t seed = 42) {
  core::RuntimeConfig config;
  config.seed = seed;
  config.sensors.sensor_count = sensors;
  const auto side = static_cast<double>(static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(sensors)))));
  config.sensors.width_m = 15.0 * (side - 1.0) + 1.0;
  config.sensors.height_m = config.sensors.width_m;
  config.sensors.base_pos = {-5.0, -5.0, 0.0};
  config.advertise_sensor_services = false;
  config.continuous_epochs = 4;
  config.sharing.enabled = sharing;
  return config;
}

// ---------------------------------------------------------------------------
// Bit-identity of the answers
// ---------------------------------------------------------------------------

TEST(SharedTree, CreatorValuesBitIdenticalToUnsharedRun) {
  // Lossless radios: the sensornet's sampling rng is the only random input
  // to the per-epoch values, and it draws in identical order whether one
  // query or a whole group consumes the collection.
  const std::string query = "SELECT AVG(temp) FROM sensors EPOCH DURATION 2";

  auto unshared_config = sharing_config(25, false);
  unshared_config.sensors.radio.loss_prob = 0.0;
  core::PervasiveGridRuntime unshared(unshared_config);
  const auto baseline = unshared.submit_and_run(
      query, partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(baseline.ok) << baseline.error;
  ASSERT_EQ(baseline.epochs.size(), 4u);
  EXPECT_FALSE(baseline.shared);

  auto shared_config = sharing_config(25, true);
  shared_config.sensors.radio.loss_prob = 0.0;
  core::PervasiveGridRuntime runtime(shared_config);
  core::QueryOutcome creator;
  core::QueryOutcome joiner_avg;
  core::QueryOutcome joiner_max;
  runtime.submit_with_model(query, partition::SolutionModel::kTreeAggregate,
                            [&](core::QueryOutcome out) { creator = out; });
  // Joiners arrive mid-round 0 (epoch duration 2 s), so they ride the same
  // group from round 1 on — a subscriber never sees pre-join data.
  runtime.simulator().schedule(sim::SimTime::seconds(0.5), [&] {
    runtime.submit_with_model(query,
                              partition::SolutionModel::kTreeAggregate,
                              [&](core::QueryOutcome out) { joiner_avg = out; });
    runtime.submit_with_model(
        "SELECT MAX(temp) FROM sensors EPOCH DURATION 2",
        partition::SolutionModel::kTreeAggregate,
        [&](core::QueryOutcome out) { joiner_max = out; });
  });
  runtime.simulator().run();

  ASSERT_TRUE(creator.ok) << creator.error;
  ASSERT_TRUE(joiner_avg.ok) << joiner_avg.error;
  ASSERT_TRUE(joiner_max.ok) << joiner_max.error;
  EXPECT_TRUE(creator.shared);
  EXPECT_TRUE(joiner_avg.shared);
  EXPECT_TRUE(joiner_max.shared);

  // The creator's rounds are the unshared run's rounds, bit for bit.
  ASSERT_EQ(creator.epochs.size(), baseline.epochs.size());
  for (std::size_t i = 0; i < baseline.epochs.size(); ++i) {
    EXPECT_EQ(creator.epochs[i].value, baseline.epochs[i].value)
        << "epoch " << i;
  }
  EXPECT_EQ(creator.actual.value, baseline.actual.value);

  // Joiners consume the same shared rounds, offset by their join epoch: the
  // AVG joiner's epoch i is the creator's epoch i+1, finalized identically.
  ASSERT_EQ(joiner_avg.epochs.size(), 4u);
  for (std::size_t i = 0; i + 1 < creator.epochs.size(); ++i) {
    EXPECT_EQ(joiner_avg.epochs[i].value, creator.epochs[i + 1].value)
        << "joiner epoch " << i;
  }
  // Same rounds, different finalizer: MAX of the merged state dominates AVG.
  for (std::size_t i = 0; i < joiner_max.epochs.size(); ++i) {
    EXPECT_GE(joiner_max.epochs[i].value, joiner_avg.epochs[i].value);
  }

  // One group existed, it is gone, and its schedule is cancelled.
  auto& registry = runtime.sharing()->registry();
  EXPECT_EQ(registry.active_groups(), 0u);
  EXPECT_EQ(registry.stats().groups_created, 1u);
  EXPECT_EQ(registry.stats().groups_torn_down, 1u);
}

TEST(SharedTree, SubscribersShareOneCollectionUnderDefaultLoss) {
  // N overlapping queries, default lossy radios.  Every subscriber of the
  // group receives the *same* round, so equal finalizers give equal values
  // even when loss makes the rounds themselves partial.
  const std::string query =
      "SELECT AVG(temp) FROM sensors WHERE temp > 0 EPOCH DURATION 2";
  constexpr std::size_t kOverlap = 5;

  auto run = [&](bool sharing) {
    core::PervasiveGridRuntime runtime(sharing_config(25, sharing, 7));
    std::vector<core::QueryOutcome> outcomes(kOverlap);
    std::size_t completed = 0;
    for (std::size_t i = 0; i < kOverlap; ++i) {
      runtime.submit_with_model(
          query, partition::SolutionModel::kTreeAggregate,
          [&outcomes, &completed, i](core::QueryOutcome out) {
            outcomes[i] = std::move(out);
            ++completed;
          });
    }
    runtime.simulator().run();
    EXPECT_EQ(completed, kOverlap);
    const auto stats = runtime.network().stats();
    if (sharing) {
      auto& registry = runtime.sharing()->registry();
      EXPECT_EQ(registry.stats().groups_created, 1u);
      EXPECT_EQ(registry.active_groups(), 0u);
      EXPECT_EQ(runtime.sharing()->stats().shared_queries, kOverlap);
    }
    return std::make_pair(outcomes, stats.transmissions);
  };

  const auto [shared, shared_tx] = run(true);
  const auto [unshared, unshared_tx] = run(false);
  for (std::size_t i = 0; i < kOverlap; ++i) {
    EXPECT_TRUE(shared[i].ok) << shared[i].error;
    EXPECT_TRUE(shared[i].shared);
    EXPECT_TRUE(unshared[i].ok) << unshared[i].error;
    EXPECT_FALSE(unshared[i].shared);
  }
  // The creator's round 0 is in flight when the other four arrive (their
  // envelopes land milliseconds later), so those four all join from round 1
  // and see identical rounds: equal values epoch for epoch.
  for (std::size_t i = 2; i < kOverlap; ++i) {
    ASSERT_EQ(shared[i].epochs.size(), shared[1].epochs.size());
    for (std::size_t e = 0; e < shared[1].epochs.size(); ++e) {
      EXPECT_EQ(shared[i].epochs[e].value, shared[1].epochs[e].value);
    }
  }
  // And the joiners' rounds are the creator's, offset by the join epoch.
  for (std::size_t e = 0; e + 1 < shared[0].epochs.size(); ++e) {
    EXPECT_EQ(shared[1].epochs[e].value, shared[0].epochs[e + 1].value);
  }
  // The point of the layer: one collection per round instead of N.
  EXPECT_LT(shared_tx, unshared_tx);
}

TEST(SharedTree, RefcountDropToZeroTearsTreeDown) {
  core::PervasiveGridRuntime runtime(sharing_config(16, true));
  core::QueryOutcome outcome;
  runtime.submit_with_model(
      "SELECT SUM(temp) FROM sensors EPOCH DURATION 1",
      partition::SolutionModel::kTreeAggregate,
      [&](core::QueryOutcome out) { outcome = std::move(out); });

  const std::string key =
      "agg|from=sensors|where=[]|epoch=1|cost=-";
  std::size_t mid_run_subscribers = 0;
  std::size_t mid_run_groups = 0;
  runtime.simulator().schedule(sim::SimTime::seconds(2.5), [&] {
    mid_run_subscribers = runtime.sharing()->registry().subscriber_count(key);
    mid_run_groups = runtime.sharing()->registry().active_groups();
  });
  runtime.simulator().run();

  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_TRUE(outcome.shared);
  EXPECT_EQ(mid_run_groups, 1u) << "group alive while the query runs";
  EXPECT_EQ(mid_run_subscribers, 1u);

  const auto& stats = runtime.sharing()->registry().stats();
  EXPECT_EQ(runtime.sharing()->registry().active_groups(), 0u);
  EXPECT_EQ(runtime.sharing()->registry().subscriber_count(key), 0u);
  EXPECT_EQ(stats.groups_created, 1u);
  EXPECT_EQ(stats.groups_torn_down, 1u);
  // Exactly the query's epochs were collected — the cancelled schedule
  // never sampled again after the last unsubscribe.
  EXPECT_EQ(stats.collections, 4u);
  EXPECT_EQ(stats.fanouts, 4u);
  // The simulator drained: no orphaned epoch event kept the run alive.
  EXPECT_EQ(sim::check_kernel_pending_exact(runtime.simulator()),
            std::nullopt);
}

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

struct Fingerprint {
  double value = 0.0;
  double energy_j = 0.0;
  double response_s = 0.0;
  double handheld_s = 0.0;
  net::NetworkStats net;
};

std::vector<Fingerprint> run_fingerprint_suite(core::RuntimeConfig config) {
  // None of these queries is shareable (no continuous aggregate), so an
  // enabled-but-untriggered sharing layer must not perturb any of them.
  static const char* kQueries[] = {
      "SELECT temp FROM sensors WHERE sensor = 3",
      "SELECT AVG(temp) FROM sensors",
      "SELECT temp FROM sensors WHERE sensor = 3 EPOCH DURATION 2",
  };
  core::PervasiveGridRuntime runtime(std::move(config));
  std::vector<Fingerprint> prints;
  for (const char* text : kQueries) {
    runtime.reset_energy();
    const auto outcome = runtime.submit_and_run(text);
    Fingerprint p;
    p.value = outcome.actual.value;
    p.energy_j = outcome.actual.energy_j;
    p.response_s = outcome.actual.response_s;
    p.handheld_s = outcome.handheld_response_s;
    p.net = runtime.network().stats();
    prints.push_back(p);
  }
  return prints;
}

void expect_identical(const std::vector<Fingerprint>& a,
                      const std::vector<Fingerprint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << "query " << i;
    EXPECT_EQ(a[i].energy_j, b[i].energy_j) << "query " << i;
    EXPECT_EQ(a[i].response_s, b[i].response_s) << "query " << i;
    EXPECT_EQ(a[i].handheld_s, b[i].handheld_s) << "query " << i;
    EXPECT_EQ(a[i].net.transmissions, b[i].net.transmissions) << "query " << i;
    EXPECT_EQ(a[i].net.delivered, b[i].net.delivered) << "query " << i;
    EXPECT_EQ(a[i].net.dropped, b[i].net.dropped) << "query " << i;
    EXPECT_EQ(a[i].net.bytes_sent, b[i].net.bytes_sent) << "query " << i;
    EXPECT_EQ(a[i].net.energy_j, b[i].net.energy_j) << "query " << i;
  }
}

TEST(SharingKillSwitch, DisabledMatchesDefaultConfig) {
  // `sharing.enabled = false` IS the default — the layer is never built and
  // the two configurations must be indistinguishable to the bit.
  auto defaults = sharing_config(16, false);
  auto explicit_off = sharing_config(16, false);
  explicit_off.sharing.max_active = 3;  // dormant knobs change nothing
  explicit_off.sharing.max_queue = 1;
  expect_identical(run_fingerprint_suite(defaults),
                   run_fingerprint_suite(explicit_off));
}

TEST(SharingKillSwitch, EnabledButUntriggeredIsBitIdentical) {
  // Sharing on, but the workload contains nothing shareable and no caps are
  // set: admission admits synchronously (no events, no rng draws) and every
  // execution falls through to the legacy path.
  expect_identical(run_fingerprint_suite(sharing_config(16, false)),
                   run_fingerprint_suite(sharing_config(16, true)));
}

// ---------------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------------

TEST(Admission, QueuesAndShedsUnderOverload) {
  auto config = sharing_config(16, true);
  config.sharing.max_active = 1;
  config.sharing.max_queue = 1;
  core::PervasiveGridRuntime runtime(config);

  // Three standing simple queries, distinct keys, submitted back to back:
  // the first takes the slot (4 epochs x 1 s), the second queues, and the
  // third finds the queue full and is shed.
  std::vector<core::QueryOutcome> outcomes(3);
  for (std::size_t i = 0; i < 3; ++i) {
    runtime.submit("SELECT temp FROM sensors WHERE sensor = " +
                       std::to_string(i) + " EPOCH DURATION 1",
                   [&outcomes, i](core::QueryOutcome out) {
                     outcomes[i] = std::move(out);
                   });
  }
  runtime.simulator().run();

  EXPECT_TRUE(outcomes[0].ok) << outcomes[0].error;
  EXPECT_TRUE(outcomes[1].ok) << outcomes[1].error;
  EXPECT_FALSE(outcomes[2].ok);
  EXPECT_TRUE(outcomes[2].shed);
  EXPECT_NE(outcomes[2].error.find("overload"), std::string::npos);

  const auto& stats = runtime.sharing()->stats();
  EXPECT_EQ(stats.admitted, 2u);
  EXPECT_EQ(stats.queued, 1u);
  EXPECT_EQ(stats.shed_overload, 1u);
  EXPECT_EQ(runtime.sharing()->active(), 0u);
  EXPECT_EQ(runtime.sharing()->queue_depth(), 0u);
}

TEST(Admission, CompatibleArrivalsCoalescePastTheCap) {
  auto config = sharing_config(16, true);
  config.sharing.max_active = 1;
  core::PervasiveGridRuntime runtime(config);

  core::QueryOutcome creator;
  core::QueryOutcome rider;
  runtime.submit_with_model("SELECT AVG(temp) FROM sensors EPOCH DURATION 2",
                            partition::SolutionModel::kTreeAggregate,
                            [&](core::QueryOutcome out) { creator = out; });
  // Same canonical key (MAX rides the same partial state), submitted while
  // the creator holds the only slot — admitted past the cap, zero queueing.
  runtime.simulator().schedule(sim::SimTime::seconds(0.5), [&] {
    runtime.submit_with_model("SELECT MAX(temp) FROM sensors EPOCH DURATION 2",
                              partition::SolutionModel::kTreeAggregate,
                              [&](core::QueryOutcome out) { rider = out; });
  });
  runtime.simulator().run();

  EXPECT_TRUE(creator.ok) << creator.error;
  EXPECT_TRUE(rider.ok) << rider.error;
  EXPECT_TRUE(creator.shared);
  EXPECT_TRUE(rider.shared);
  const auto& stats = runtime.sharing()->stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.shed_overload, 0u);
}

TEST(Admission, InfeasibleDeadlineBudgetShedsImmediately) {
  auto config = sharing_config(16, true);
  config.reliability.enabled = true;
  config.reliability.query_budget_s = 5.0;  // < 3 remaining epochs x 5 s
  core::PervasiveGridRuntime runtime(config);

  core::QueryOutcome outcome;
  runtime.submit("SELECT temp FROM sensors WHERE sensor = 1 EPOCH DURATION 5",
                 [&](core::QueryOutcome out) { outcome = std::move(out); });
  runtime.simulator().run();

  EXPECT_FALSE(outcome.ok);
  EXPECT_TRUE(outcome.shed);
  EXPECT_NE(outcome.error.find("budget"), std::string::npos);
  EXPECT_EQ(runtime.sharing()->stats().shed_budget, 1u);
  EXPECT_EQ(runtime.sharing()->stats().admitted, 0u);
}

TEST(Admission, TightBudgetArrivalOvertakesSlackAndUnboundedInQueue) {
  // The arrival queue is ordered by remaining deadline budget, not FIFO: a
  // late arrival that can barely make its deadline runs before earlier
  // slack or unbounded arrivals, and equal deadlines keep arrival order.
  auto config = sharing_config(16, true);
  config.sharing.max_active = 1;
  config.sharing.max_queue = 8;
  core::PervasiveGridRuntime runtime(config);
  auto& sharing = *runtime.sharing();

  const query::CanonicalQuery unshared;  // shareable=false: never coalesces
  auto no_shed = [](const std::string& reason) {
    FAIL() << "unexpected shed: " << reason;
  };

  // Take the only slot so everything after queues.
  bool holder_running = false;
  sharing.admit(unshared, net::Budget::unlimited(), 0.0,
                [&] { holder_running = true; }, no_shed);
  ASSERT_TRUE(holder_running);

  // Queue order of arrival: slack (t+100 s), unbounded, tight (t+5 s),
  // then a second tight arrival at the same deadline.
  std::vector<std::string> order;
  auto enqueue = [&](const std::string& name, net::Budget budget) {
    sharing.admit(unshared, budget, 0.0,
                  [&order, name] { order.push_back(name); }, no_shed);
  };
  enqueue("slack", net::Budget::until(sim::SimTime::seconds(100.0)));
  enqueue("unbounded", net::Budget::unlimited());
  enqueue("tight-1", net::Budget::until(sim::SimTime::seconds(5.0)));
  enqueue("tight-2", net::Budget::until(sim::SimTime::seconds(5.0)));
  ASSERT_EQ(sharing.queue_depth(), 4u);
  ASSERT_TRUE(order.empty()) << "queued arrivals must not run yet";

  // Each completion frees the single slot and admits exactly one waiter:
  // both tight arrivals (FIFO between equals) before slack, slack before
  // unbounded.
  for (int i = 0; i < 4; ++i) sharing.on_complete();
  ASSERT_EQ(order.size(), 4u);
  EXPECT_EQ(order[0], "tight-1");
  EXPECT_EQ(order[1], "tight-2");
  EXPECT_EQ(order[2], "slack");
  EXPECT_EQ(order[3], "unbounded");
  EXPECT_EQ(sharing.queue_depth(), 0u);
}

// ---------------------------------------------------------------------------
// Grouping under chaos and mobility
// ---------------------------------------------------------------------------

class SharingChaosSweep
    : public ::testing::TestWithParam<const char*> {};

TEST_P(SharingChaosSweep, GroupsStayCorrectAcrossPhases) {
  auto config = sharing_config(25, true, 11);
  config.reliability.enabled = true;
  core::PervasiveGridRuntime runtime(config);

  sim::ChaosEngine engine(runtime.network(), config.seed);
  sim::ChaosConfig chaos;
  chaos.horizon = sim::SimTime::seconds(30.0);
  chaos.fault_count = 10;
  chaos.mix = sim::mix_by_name(GetParam());
  engine.arm(chaos);

  // A couple of sensors wander (waypoint mobility) while faults cycle
  // through churn / loss / partition-and-heal phases.
  net::WaypointConfig walk;
  walk.width_m = config.sensors.width_m;
  walk.height_m = config.sensors.height_m;
  walk.horizon = sim::SimTime::seconds(25.0);
  const auto& sensor_nodes = runtime.sensors().sensors();
  std::vector<net::NodeId> walkers(
      sensor_nodes.begin(),
      sensor_nodes.begin() + std::min<std::size_t>(2, sensor_nodes.size()));
  net::WaypointMobility mobility(runtime.network(), walkers, walk,
                                 common::Rng(config.seed + 1));
  mobility.start();

  // Two groups x three subscribers each, all shareable.
  const char* kGroupQueries[] = {
      "SELECT AVG(temp) FROM sensors EPOCH DURATION 2",
      "SELECT AVG(temp) FROM sensors WHERE temp > 0 EPOCH DURATION 3",
  };
  std::vector<int> completions(6, 0);
  std::vector<core::QueryOutcome> outcomes(6);
  for (std::size_t g = 0; g < 2; ++g) {
    for (std::size_t s = 0; s < 3; ++s) {
      const std::size_t slot = g * 3 + s;
      runtime.simulator().schedule(
          sim::SimTime::seconds(1.0 + 0.25 * static_cast<double>(s)),
          [&runtime, &completions, &outcomes, slot, g, kGroupQueries] {
            runtime.submit_with_model(
                kGroupQueries[g], partition::SolutionModel::kTreeAggregate,
                [&completions, &outcomes, slot](core::QueryOutcome out) {
                  ++completions[slot];
                  outcomes[slot] = std::move(out);
                });
          });
    }
  }
  runtime.simulator().run();

  // Exactly-once completion, for every subscriber, whatever the faults did.
  for (std::size_t i = 0; i < completions.size(); ++i) {
    EXPECT_EQ(completions[i], 1) << "subscriber " << i;
  }
  // Exactly two groups ever existed, and both are gone at drain.
  auto& registry = runtime.sharing()->registry();
  EXPECT_EQ(registry.stats().groups_created, 2u);
  EXPECT_EQ(registry.stats().groups_torn_down, 2u);
  EXPECT_EQ(registry.active_groups(), 0u);
  // The ledger stayed conserved through reattribution under faults.
  EXPECT_EQ(sim::check_ledger_conservation(runtime.telemetry()),
            std::nullopt);
  EXPECT_EQ(sim::check_no_open_spans(runtime.telemetry()), std::nullopt);
  EXPECT_EQ(sim::check_kernel_pending_exact(runtime.simulator()),
            std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Mixes, SharingChaosSweep,
                         ::testing::Values("disconnection-heavy",
                                           "lossy-mesh", "partition-storm"));

// ---------------------------------------------------------------------------
// Compose-side sub-plan dedup
// ---------------------------------------------------------------------------

class DedupFixture : public ::testing::Test {
 protected:
  DedupFixture()
      : net_(sim_, common::Rng(21)),
        platform_(net_),
        ontology_(discovery::make_standard_ontology()) {
    base_node_ = add_node(0);
    broker_id_ = platform_.register_agent(
        std::make_unique<discovery::BrokerAgent>("broker", base_node_,
                                                 ontology_));
    client_id_ = platform_.register_agent(std::make_unique<agent::LambdaAgent>(
        "client", base_node_,
        [](agent::LambdaAgent&, const agent::Envelope&) {}));
  }

  net::NodeId add_node(double x) {
    net::NodeConfig c;
    c.pos = {x, 0, 0};
    c.radio = net::LinkClass::wifi();
    c.unlimited_energy = true;
    return net_.add_node(c);
  }

  compose::ServiceProviderAgent* add_provider(const std::string& name,
                                              const std::string& cls,
                                              double x) {
    const auto node = add_node(x);
    discovery::ServiceDescription service;
    service.name = name;
    service.service_class = cls;
    auto provider = std::make_unique<compose::ServiceProviderAgent>(
        name, node, service, 1e8);
    auto* raw = provider.get();
    const auto id = platform_.register_agent(std::move(provider));
    raw->service().provider = id;
    discovery::advertise(platform_, id, broker_id_, raw->service());
    sim_.run();
    return raw;
  }

  static compose::TaskGraph parallel_tasks(std::size_t n,
                                           const std::string& cls) {
    compose::TaskGraph g;
    for (std::size_t i = 0; i < n; ++i) {
      compose::TaskSpec s;
      s.name = "task-" + std::to_string(i);
      s.service_class = cls;
      g.add_task(s);
    }
    return g;
  }

  sim::Simulator sim_;
  net::Network net_;
  agent::AgentPlatform platform_;
  discovery::Ontology ontology_;
  net::NodeId base_node_;
  agent::AgentId broker_id_;
  agent::AgentId client_id_;
};

TEST_F(DedupFixture, IdenticalSubPlansResolveOnce) {
  add_provider("worker", "ComputeService", 30);
  compose::CompositionManager manager(platform_, client_id_, broker_id_);
  compose::CompositionOptions options;
  options.dedup_discoveries = true;
  compose::CompositionReport report;
  manager.execute(parallel_tasks(3, "ComputeService"), options,
                  [&](compose::CompositionReport r) { report = r; });
  sim_.run();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.tasks_completed, 3u);
  EXPECT_EQ(report.discoveries, 1u) << "one broker round-trip for the plan";
  EXPECT_EQ(report.dedup_hits, 2u);
  EXPECT_EQ(manager.dedup_in_flight(), 0u);
}

TEST_F(DedupFixture, KillSwitchKeepsPerTaskDiscovery) {
  add_provider("worker", "ComputeService", 30);
  compose::CompositionManager manager(platform_, client_id_, broker_id_);
  compose::CompositionReport report;
  manager.execute(parallel_tasks(3, "ComputeService"),
                  compose::CompositionOptions{},
                  [&](compose::CompositionReport r) { report = r; });
  sim_.run();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.discoveries, 3u) << "dedup off: one round-trip per task";
  EXPECT_EQ(report.dedup_hits, 0u);
}

TEST_F(DedupFixture, ValidityWindowExpiresResolvedPlans) {
  add_provider("worker", "ComputeService", 30);
  compose::CompositionManager manager(platform_, client_id_, broker_id_);
  compose::CompositionOptions options;
  options.dedup_discoveries = true;
  options.dedup_validity = sim::SimTime::seconds(10.0);

  compose::CompositionReport first;
  manager.execute(parallel_tasks(2, "ComputeService"), options,
                  [&](compose::CompositionReport r) { first = r; });
  sim_.run();
  EXPECT_EQ(first.discoveries, 1u);
  EXPECT_EQ(manager.dedup_cached(), 1u);

  // Within the window: served from the cache, zero broker traffic.
  compose::CompositionReport second;
  manager.execute(parallel_tasks(2, "ComputeService"), options,
                  [&](compose::CompositionReport r) { second = r; });
  sim_.run();
  EXPECT_EQ(second.discoveries, 0u);
  EXPECT_EQ(second.dedup_hits, 2u);

  // Past the window the entry is stale and the sub-plan re-resolves.
  compose::CompositionReport third;
  sim_.schedule(sim_.now() + sim::SimTime::seconds(11.0), [&] {
    manager.execute(parallel_tasks(2, "ComputeService"), options,
                    [&](compose::CompositionReport r) { third = r; });
  });
  sim_.run();
  EXPECT_EQ(third.discoveries, 1u);
  EXPECT_TRUE(third.success);
}

TEST_F(DedupFixture, SharedResultsStillFilterPerConsumer) {
  // Provider churn mid-plan: the first provider fails every invocation, so
  // each task that bound it must re-bind to the alternate — the shared
  // match list is filtered per consumer, never mutated for the group.
  auto* flaky = add_provider("flaky", "PdeSolver", 30);
  flaky->set_failure_probability(1.0, common::Rng(5));
  add_provider("steady", "PdeSolver", 40);

  compose::CompositionManager manager(platform_, client_id_, broker_id_);
  compose::CompositionOptions options;
  options.dedup_discoveries = true;
  compose::CompositionReport report;
  manager.execute(parallel_tasks(2, "PdeSolver"), options,
                  [&](compose::CompositionReport r) { report = r; });
  sim_.run();
  EXPECT_TRUE(report.success);
  EXPECT_EQ(report.tasks_completed, 2u);
  EXPECT_GE(report.rebinds, 1u);
  EXPECT_EQ(manager.dedup_in_flight(), 0u);
}

}  // namespace
}  // namespace pgrid
