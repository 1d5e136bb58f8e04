// Property tests for the analytic flow tier (net/flow.hpp): the closed
// forms match the packet tier's actual retry loop by Monte Carlo; flow and
// packet runs of the same seeded deployment stay within the calibration
// band under mobility, churn and partition-heal; the kill switch (no model,
// all-packet fidelity, or an armed chaos engine) is bit-identical to the
// packet-only build; plan caches invalidate on the exact (topology,
// liveness) version discipline; and the sharded flow backhaul is invariant
// under the shard fold.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "core/sharded.hpp"
#include "net/flow.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"

namespace pgrid {
namespace {

// ---------------------------------------------------------------------------
// Closed forms vs the packet tier's actual retry loop.

/// Replays Network::transmit's retry loop exactly: attempts start at 1 and
/// grow on each loss until success or attempts would exceed max_retries.
/// Returns (attempts made, delivered).
std::pair<std::size_t, bool> packet_retry_loop(common::Rng& rng, double loss,
                                               std::size_t max_retries) {
  std::size_t attempts = 1;
  while (rng.bernoulli(loss)) {
    if (attempts > max_retries) return {attempts, false};
    ++attempts;
  }
  return {attempts, true};
}

TEST(FlowClosedForms, HopSuccessMatchesTruncatedGeometric) {
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(0.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(1.0, 3), 0.0);
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(0.02, 3),
                   1.0 - std::pow(0.02, 4));
  EXPECT_DOUBLE_EQ(net::FlowModel::hop_success_p(0.5, 0), 0.5);
}

TEST(FlowClosedForms, ExpectedAttemptsMatchesEnumeration) {
  // E[min(Geometric(1-p), m+1)] by direct enumeration over attempt counts.
  for (double p : {0.02, 0.2, 0.5}) {
    for (std::size_t m : {0u, 1u, 3u, 5u}) {
      double expect = 0.0;
      for (std::size_t k = 1; k <= m; ++k) {
        expect += static_cast<double>(k) * std::pow(p, double(k - 1)) *
                  (1.0 - p);
      }
      expect += static_cast<double>(m + 1) * std::pow(p, double(m));
      EXPECT_NEAR(net::FlowModel::expected_attempts(p, m), expect, 1e-12)
          << "p=" << p << " m=" << m;
    }
  }
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_attempts(0.0, 3), 1.0);
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_attempts(1.0, 3), 4.0);
}

TEST(FlowClosedForms, ExpectedAttemptsMatchesPacketLoopMonteCarlo) {
  common::Rng rng(7);
  const double p = 0.2;
  const std::size_t m = 3;
  const std::size_t kTrials = 200000;
  double total = 0.0;
  std::size_t delivered = 0;
  for (std::size_t i = 0; i < kTrials; ++i) {
    const auto [attempts, ok] = packet_retry_loop(rng, p, m);
    total += static_cast<double>(attempts);
    delivered += ok ? 1 : 0;
  }
  const double mc_attempts = total / static_cast<double>(kTrials);
  const double mc_success =
      static_cast<double>(delivered) / static_cast<double>(kTrials);
  EXPECT_NEAR(net::FlowModel::expected_attempts(p, m), mc_attempts, 0.01);
  EXPECT_NEAR(net::FlowModel::hop_success_p(p, m), mc_success, 0.005);
}

TEST(FlowClosedForms, ExpectedMaxAttemptsMatchesMonteCarloAndIsMonotone) {
  common::Rng rng(11);
  const double p = 0.2;
  const std::size_t m = 3;
  for (std::size_t n : {1u, 4u, 16u}) {
    const std::size_t kTrials = 50000;
    double total = 0.0;
    for (std::size_t t = 0; t < kTrials; ++t) {
      std::size_t level_max = 0;
      for (std::size_t i = 0; i < n; ++i) {
        level_max = std::max(level_max, packet_retry_loop(rng, p, m).first);
      }
      total += static_cast<double>(level_max);
    }
    EXPECT_NEAR(net::FlowModel::expected_max_attempts(n, p, m),
                total / static_cast<double>(kTrials), 0.02)
        << "n=" << n;
  }
  // n=1 collapses to E[attempts]; more transmitters never finish sooner.
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_max_attempts(1, p, m),
                   net::FlowModel::expected_attempts(p, m));
  double prev = 0.0;
  for (std::size_t n = 1; n <= 64; n *= 2) {
    const double e = net::FlowModel::expected_max_attempts(n, p, m);
    EXPECT_GE(e, prev);
    EXPECT_LE(e, static_cast<double>(m + 1));
    prev = e;
  }
  EXPECT_DOUBLE_EQ(net::FlowModel::expected_max_attempts(0, p, m), 0.0);
}

// ---------------------------------------------------------------------------
// Calibration: flow vs packet on the same seeded deployment, including the
// dynamics that invalidate analytic state (mobility, churn, partition-heal).

core::RuntimeConfig small_config(std::size_t sensors, bool flow) {
  core::RuntimeConfig config;
  config.seed = 42;
  config.sensors.sensor_count = sensors;
  const auto side = static_cast<double>(static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(sensors)))));
  config.sensors.width_m = 15.0 * (side - 1) + 1.0;
  config.sensors.height_m = config.sensors.width_m;
  config.sensors.base_pos = {-5.0, -5.0, 0.0};
  config.sensors.noise_std = 0.0;
  config.advertise_sensor_services = false;
  config.pool_threads = 1;
  config.flow.enabled = flow;
  return config;
}

struct PhaseTotals {
  double energy_j = 0.0;
  std::size_t reports = 0;
  std::size_t expected = 0;
};

/// One collection pair (tree epoch + all-to-base) at the current topology.
PhaseTotals collect_pair(core::PervasiveGridRuntime& rt) {
  PhaseTotals totals;
  for (int kind = 0; kind < 2; ++kind) {
    sensornet::CollectionResult round;
    auto done = [&round](sensornet::CollectionResult r) {
      round = std::move(r);
    };
    if (kind == 0) {
      rt.sensors().collect_tree_aggregate(rt.field(), done);
    } else {
      rt.sensors().collect_all_to_base(rt.field(), done);
    }
    rt.simulator().run();
    totals.energy_j += round.energy_j;
    totals.reports += round.reports;
    totals.expected += round.expected;
  }
  return totals;
}

TEST(FlowCalibration, TracksPacketOracleThroughMobilityChurnAndHeal) {
  core::PervasiveGridRuntime packet(small_config(64, false));
  core::PervasiveGridRuntime flow(small_config(64, true));
  ASSERT_NE(flow.flow_model(), nullptr);
  ASSERT_EQ(packet.flow_model(), nullptr);

  // The same dynamics, applied to both deployments in lockstep.  Each phase
  // mutates topology/liveness and then collects; per-phase totals must stay
  // inside the calibration band (energy +/-10%, success +/-2 points).
  auto phase = [&](const char* label, auto&& mutate) {
    mutate(packet);
    mutate(flow);
    const PhaseTotals po = collect_pair(packet);
    const PhaseTotals fo = collect_pair(flow);
    ASSERT_GT(po.expected, 0u) << label;
    const double p_success = static_cast<double>(po.reports) /
                             static_cast<double>(po.expected);
    const double f_success = static_cast<double>(fo.reports) /
                             static_cast<double>(fo.expected);
    EXPECT_NEAR(f_success, p_success, 0.02) << label;
    EXPECT_NEAR(fo.energy_j, po.energy_j, 0.10 * po.energy_j + 1e-9)
        << label;
  };

  phase("baseline", [](core::PervasiveGridRuntime&) {});
  phase("mobility", [](core::PervasiveGridRuntime& rt) {
    // Nudge a handful of sensors: topology version bumps, routes and flow
    // plans rebuild, connectivity stays intact (moves are small).
    const auto& ids = rt.sensors().sensors();
    for (std::size_t i = 0; i < ids.size(); i += 7) {
      auto pos = rt.network().node(ids[i]).pos;
      pos.x += 2.0;
      rt.network().move_node(ids[i], pos);
    }
  });
  phase("churn-down", [](core::PervasiveGridRuntime& rt) {
    const auto& ids = rt.sensors().sensors();
    rt.network().set_node_up(ids[3], false);
    rt.network().set_node_up(ids[11], false);
  });
  phase("churn-heal", [](core::PervasiveGridRuntime& rt) {
    const auto& ids = rt.sensors().sensors();
    rt.network().set_node_up(ids[3], true);
    rt.network().set_node_up(ids[11], true);
  });
  phase("partition", [](core::PervasiveGridRuntime& rt) {
    // A corner of the floor cut off administratively: every route through
    // the corner re-forms, the flow tier must lose exactly the same corner.
    const auto& ids = rt.sensors().sensors();
    for (std::size_t i = 0; i < 4; ++i) {
      rt.network().set_node_up(ids[ids.size() - 1 - i], false);
    }
  });
  phase("partition-heal", [](core::PervasiveGridRuntime& rt) {
    const auto& ids = rt.sensors().sensors();
    for (std::size_t i = 0; i < 4; ++i) {
      rt.network().set_node_up(ids[ids.size() - 1 - i], true);
    }
  });

  // The flow tier actually served the traffic (this was not a fallback-fest).
  const auto& stats = flow.flow_model()->stats();
  EXPECT_GT(stats.flows, 0u);
  EXPECT_GT(stats.tree_epochs, 0u);
  EXPECT_GT(stats.analytic_hops, 0u);
}

TEST(FlowCalibration, ReplayIsBitIdentical) {
  // Same config, two runs: every flow draw comes from the model's own
  // seeded stream, so outcomes replay exactly.
  auto run = [] {
    core::PervasiveGridRuntime rt(small_config(36, true));
    const PhaseTotals t = collect_pair(rt);
    return std::tuple(t.energy_j, t.reports, rt.network().stats().bytes_sent,
                      rt.flow_model()->stats().expected_attempts);
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Kill-switch identities.

struct PacketWitness {
  net::NetworkStats stats;
  PhaseTotals totals;
};

PacketWitness run_witness(core::RuntimeConfig config, bool with_chaos) {
  core::PervasiveGridRuntime rt(std::move(config));
  std::unique_ptr<sim::ChaosEngine> chaos;
  if (with_chaos) {
    chaos = std::make_unique<sim::ChaosEngine>(rt.network(),
                                               rt.config().seed);
    sim::ChaosConfig cfg;
    cfg.horizon = sim::SimTime::seconds(10.0);
    cfg.fault_count = 6;
    chaos->arm(cfg);
  }
  PacketWitness w;
  w.totals = collect_pair(rt);
  w.stats = rt.network().stats();
  return w;
}

void expect_identical(const PacketWitness& a, const PacketWitness& b,
                      const char* label) {
  EXPECT_EQ(a.stats.transmissions, b.stats.transmissions) << label;
  EXPECT_EQ(a.stats.delivered, b.stats.delivered) << label;
  EXPECT_EQ(a.stats.dropped, b.stats.dropped) << label;
  EXPECT_EQ(a.stats.bytes_sent, b.stats.bytes_sent) << label;
  EXPECT_EQ(a.stats.energy_j, b.stats.energy_j) << label;
  EXPECT_EQ(a.totals.energy_j, b.totals.energy_j) << label;
  EXPECT_EQ(a.totals.reports, b.totals.reports) << label;
}

TEST(FlowKillSwitch, AllPacketFidelityIsBitIdenticalToDisabled) {
  const auto disabled = run_witness(small_config(49, false), false);
  auto config = small_config(49, true);
  config.flow.default_fidelity = net::Fidelity::kPacket;
  const auto all_packet = run_witness(std::move(config), false);
  expect_identical(disabled, all_packet, "all-packet vs disabled");
}

TEST(FlowKillSwitch, ArmedChaosForcesPacketBitIdentically) {
  // An installed FaultInjector forces the deployment to packet fidelity:
  // the flow-enabled run under chaos must be bit-identical to the disabled
  // run under the identical chaos schedule.
  const auto disabled = run_witness(small_config(49, false), true);
  const auto flowing = run_witness(small_config(49, true), true);
  expect_identical(disabled, flowing, "chaos fallback vs disabled");
}

TEST(FlowKillSwitch, FallbacksAreCounted) {
  core::PervasiveGridRuntime rt(small_config(25, true));
  // Construction traffic (the agent registration envelope) may already have
  // flowed; from here on the armed engine must force everything to packet.
  const net::FlowStats base = rt.flow_model()->stats();
  sim::ChaosEngine chaos(rt.network(), 1);
  sim::ChaosConfig cfg;
  cfg.fault_count = 1;
  chaos.arm(cfg);
  collect_pair(rt);
  const auto& stats = rt.flow_model()->stats();
  EXPECT_EQ(stats.flows, base.flows);
  EXPECT_EQ(stats.tree_epochs, base.tree_epochs);
  EXPECT_GT(stats.packet_fallbacks, base.packet_fallbacks);
}

// ---------------------------------------------------------------------------
// Fidelity selection mechanics.

TEST(FlowFidelity, AttachedReliableChannelForcesPacketEverywhere) {
  // With both tiers installed, the attached channel makes every hop packet
  // fidelity: a tree round, a deliver, and even a direct send_route (which
  // bypasses the channel) stay off the analytic tier.
  auto config = small_config(16, true);
  config.reliability.enabled = true;
  core::PervasiveGridRuntime rt(std::move(config));
  ASSERT_NE(rt.reliable_channel(), nullptr);
  net::FlowModel& flow = *rt.flow_model();
  net::Network& network = rt.network();
  const auto route = rt.sensors().tree().route_to_sink(
      rt.sensors().sensors().back());
  ASSERT_GE(route.size(), 2u);
  EXPECT_FALSE(flow.route_eligible(route));

  const net::FlowStats base = flow.stats();
  auto expect_packet = [&](const char* label, auto send) {
    const std::uint64_t tx = network.stats().transmissions;
    send();
    rt.simulator().run();
    EXPECT_GT(network.stats().transmissions, tx) << label;
    EXPECT_EQ(flow.stats().flows, base.flows) << label;
    EXPECT_EQ(flow.stats().tree_epochs, base.tree_epochs) << label;
  };
  expect_packet("tree round", [&] {
    rt.sensors().collect_tree_aggregate(rt.field(),
                                        [](sensornet::CollectionResult) {});
  });
  expect_packet("deliver", [&] {
    network.deliver(route.front(), route.back(), 32,
                    net::Budget::unlimited(), [](bool) {});
  });
  expect_packet("send_route", [&] {
    network.send_route(route, 32, [](bool, std::size_t) {});
  });
}

TEST(FlowFidelity, RegionOverrideGatesEligibility) {
  core::PervasiveGridRuntime rt(small_config(16, true));
  net::FlowModel& flow = *rt.flow_model();
  const auto& ids = rt.sensors().sensors();
  // No ShardMap installed: every node sits in kInvalidRegion, so the
  // override for that region flips the whole deployment.
  EXPECT_EQ(flow.region_fidelity(net::kInvalidRegion), net::Fidelity::kFlow);
  flow.set_region_fidelity(net::kInvalidRegion, net::Fidelity::kPacket);
  EXPECT_FALSE(flow.hop_eligible(ids[0], ids[1]));
  flow.set_region_fidelity(net::kInvalidRegion, net::Fidelity::kFlow);
  EXPECT_TRUE(flow.hop_eligible(ids[0], ids[1]));
}

TEST(FlowFidelity, CongestionShareScalesWithActiveFlows) {
  auto config = small_config(36, true);
  config.flow.congestion_alpha = 0.5;
  core::PervasiveGridRuntime rt(config);
  net::FlowModel& flow = *rt.flow_model();
  const net::SinkTree& tree = rt.sensors().tree();
  // Deepest sensor's route to the sink: every flow sent along it occupies
  // its links until the analytic completion event fires.
  net::NodeId deep = rt.sensors().sensors()[0];
  for (net::NodeId id : rt.sensors().sensors()) {
    if (tree.contains(id) && tree.depth(id) > tree.depth(deep)) deep = id;
  }
  const auto route = tree.route_to_sink(deep);
  ASSERT_GE(route.size(), 2u);
  EXPECT_DOUBLE_EQ(flow.congestion_factor(route[0], route[1]), 1.0);

  ASSERT_TRUE(flow.route_eligible(route));
  flow.send_flow(route, 64, [](bool, std::size_t) {});
  EXPECT_DOUBLE_EQ(flow.congestion_factor(route[0], route[1]), 1.5)
      << "one active flow at alpha=0.5";
  flow.send_flow(route, 64, [](bool, std::size_t) {});
  EXPECT_DOUBLE_EQ(flow.congestion_factor(route[0], route[1]), 2.0);
  rt.simulator().run();
  EXPECT_DOUBLE_EQ(flow.congestion_factor(route[0], route[1]), 1.0)
      << "links drain when completions fire";
}

// ---------------------------------------------------------------------------
// Plan cache: the RouteCache version discipline, exactly.

TEST(FlowPlans, CacheHitsAndVersionInvalidation) {
  core::PervasiveGridRuntime rt(small_config(36, true));
  net::FlowModel& flow = *rt.flow_model();
  const auto route = rt.sensors().tree().route_to_sink(
      rt.sensors().sensors().back());
  ASSERT_GE(route.size(), 2u);

  // Construction traffic already planned a flow at a pre-tree topology
  // version, so every expectation below is a delta from this baseline.
  const net::FlowStats base = flow.stats();
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_misses, base.plan_misses + 1);
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_hits, base.plan_hits + 1);

  // Mobility bumps the topology version and dirties route[0]'s row: the
  // plan through it dies (a scoped drop, or a wholesale clear had the
  // epoch widened) and the next flow must re-plan.
  const net::FlowStats settled = flow.stats();
  auto pos = rt.network().node(route[0]).pos;
  pos.x += 1.0;
  rt.network().move_node(route[0], pos);
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_misses, settled.plan_misses + 1);
  EXPECT_GT(flow.stats().plans_dropped + flow.stats().plan_invalidations,
            settled.plans_dropped + settled.plan_invalidations);

  // Battery death moves the liveness version without touching topology.
  // It dirties only the rows within link reach of the victim, so the plan
  // dies iff one of its hops is the victim or lies within
  // min(r_hop, r_victim) of it (connected()'s range test).
  auto plan_touched_by = [&](net::NodeId victim) {
    const net::Node& dying = rt.network().node(victim);
    return std::any_of(route.begin(), route.end(), [&](net::NodeId hop) {
      const net::Node& node = rt.network().node(hop);
      return hop == victim ||
             net::distance(node.pos, dying.pos) <=
                 std::min(node.radio.range_m, dying.radio.range_m);
    });
  };
  auto kill_and_resend = [&](net::NodeId victim) {
    const net::FlowStats prior = flow.stats();
    const auto before = rt.network().liveness_version();
    rt.network().drain_energy(victim, 1e9);
    EXPECT_GT(rt.network().liveness_version(), before);
    flow.send_flow(route, 32, [](bool, std::size_t) {});
    rt.simulator().run();
    EXPECT_EQ(flow.stats().plan_scoped_epochs, prior.plan_scoped_epochs + 1)
        << "a battery death is a scoped epoch";
    if (plan_touched_by(victim)) {
      EXPECT_EQ(flow.stats().plan_misses, prior.plan_misses + 1);
      EXPECT_GT(flow.stats().plans_dropped, prior.plans_dropped);
    } else {
      EXPECT_EQ(flow.stats().plan_hits, prior.plan_hits + 1);
      EXPECT_EQ(flow.stats().plan_misses, prior.plan_misses);
    }
  };
  // The network merges abutting scoped deltas for consumers that sync
  // rarely, so the move above would still be in the delta; a global epoch
  // (wholesale clear, then a re-plan) makes the next delta start here.
  // Scoped epochs patch a built snapshot, so rebuild it as route traffic
  // would.
  const net::FlowStats moved = flow.stats();
  rt.network().bump_topology_version();
  rt.network().topology_snapshot();
  flow.send_flow(route, 32, [](bool, std::size_t) {});
  rt.simulator().run();
  EXPECT_EQ(flow.stats().plan_invalidations, moved.plan_invalidations + 1);
  EXPECT_EQ(flow.stats().plan_misses, moved.plan_misses + 1);
  // A death out of the plan's reach first, which the plan must survive,
  // then one within it.
  const auto& sensors = rt.sensors().sensors();
  const auto bystander =
      std::find_if(sensors.begin(), sensors.end(), [&](net::NodeId id) {
        return id != sensors[2] && !plan_touched_by(id);
      });
  ASSERT_NE(bystander, sensors.end());
  kill_and_resend(*bystander);
  kill_and_resend(sensors[2]);
}

TEST(FlowPlans, BrokenRouteFailsAtTheBrokenHopWithoutCharge) {
  core::PervasiveGridRuntime rt(small_config(36, true));
  net::FlowModel& flow = *rt.flow_model();
  const auto route = rt.sensors().tree().route_to_sink(
      rt.sensors().sensors().back());
  ASSERT_GE(route.size(), 3u) << "need an interior hop to break";

  rt.network().set_node_up(route[1], false);
  const double energy_before = rt.network().stats().energy_j;
  bool delivered = true;
  std::size_t completed = 999;
  ASSERT_TRUE(flow.route_eligible(route))
      << "eligibility is about fidelity, not liveness";
  flow.send_flow(route, 32, [&](bool ok, std::size_t hops) {
    delivered = ok;
    completed = hops;
  });
  rt.simulator().run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(completed, 0u) << "first hop targets the downed node";
  EXPECT_EQ(flow.stats().failed, 1u);
  EXPECT_EQ(rt.network().stats().energy_j, energy_before)
      << "no hop was serviceable, so nothing may be charged";
}

// ---------------------------------------------------------------------------
// Sharded flow backhaul: barrier-exchange completions, run-to-run identity.

core::ShardedDeploymentConfig city_config(std::size_t regions, bool flow) {
  core::ShardedDeploymentConfig config;
  config.base = small_config(16, flow);
  config.base.sharding.window = sim::SimTime::milliseconds(5);
  config.regions = regions;
  config.region_spacing_m = 400.0;
  return config;
}

struct BackhaulWitness {
  std::vector<net::NetworkStats> stats;
  core::QueryOutcome remote;
  bool transfer_ok = false;
  std::uint64_t digest = 0;
};

BackhaulWitness run_backhaul() {
  core::ShardedDeployment dep(city_config(2, true));
  BackhaulWitness w;
  dep.submit_remote(0, 1, sim::SimTime::milliseconds(1),
                    "SELECT AVG(temp) FROM sensors",
                    [&w](core::QueryOutcome o) { w.remote = std::move(o); });
  dep.transfer_remote(1, 0, sim::SimTime::milliseconds(2), 4096,
                      [&w](bool ok) { w.transfer_ok = ok; });
  dep.run();
  for (std::size_t r = 0; r < 2; ++r) {
    w.stats.push_back(dep.region(r).network().stats());
  }
  w.digest = dep.order_digest();
  return w;
}

TEST(ShardedFlow, BackhaulFlowsAreCountedOncePerTransfer) {
  const auto w = run_backhaul();
  ASSERT_TRUE(w.remote.ok) << w.remote.error;
  EXPECT_TRUE(w.transfer_ok);
  // Region 0 sent the forwarded query, region 1 sent the bulk transfer:
  // exactly one cross-region completion booked at each sender (regions are
  // 400 m apart, so no radio frame ever crosses the boundary).
  EXPECT_EQ(w.stats[0].cross_region_frames, 1u);
  EXPECT_EQ(w.stats[1].cross_region_frames, 1u);
}

TEST(ShardedFlow, BackhaulBitIdenticalAcrossRuns) {
  const auto one = run_backhaul();
  const auto two = run_backhaul();
  ASSERT_TRUE(one.remote.ok);
  ASSERT_TRUE(two.remote.ok);
  EXPECT_EQ(one.remote.actual.value, two.remote.actual.value);
  EXPECT_EQ(one.remote.actual.energy_j, two.remote.actual.energy_j);
  EXPECT_EQ(one.transfer_ok, two.transfer_ok);
  EXPECT_EQ(one.digest, two.digest);
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_EQ(one.stats[r].transmissions, two.stats[r].transmissions);
    EXPECT_EQ(one.stats[r].bytes_sent, two.stats[r].bytes_sent);
    EXPECT_EQ(one.stats[r].energy_j, two.stats[r].energy_j);
    EXPECT_EQ(one.stats[r].cross_region_frames,
              two.stats[r].cross_region_frames);
  }
}

TEST(ShardedFlow, SubmitRemoteKillSwitchKeepsLegacyTimeline) {
  // Flow disabled: submit_remote must reproduce the PR 6 timeline — no
  // cross-region bookkeeping, arrival exactly backhaul_latency later.
  core::ShardedDeployment dep(city_config(2, false));
  core::QueryOutcome remote;
  dep.submit_remote(0, 1, sim::SimTime::milliseconds(1),
                    "SELECT AVG(temp) FROM sensors",
                    [&remote](core::QueryOutcome o) { remote = std::move(o); });
  dep.run();
  ASSERT_TRUE(remote.ok) << remote.error;
  EXPECT_EQ(dep.region(0).network().stats().cross_region_frames, 0u);
}

}  // namespace
}  // namespace pgrid
