// Property tests for the topology acceleration layer: the spatial-index
// neighbours, the CSR snapshot and the LRU route cache must be
// bit-identical to the naive scan / fresh-Dijkstra oracles for every
// topology, under seeded mobility, churn, partition-heal and full chaos
// schedules.  Seeds reuse the chaos harness's sweep range (1..25).
#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

/// Fully independent route oracle: Dijkstra with cost = (hops, distance)
/// re-implemented here over the naive neighbour scan, sharing no code with
/// routing.cpp.
std::vector<NodeId> oracle_route(const Network& net, NodeId src, NodeId dst) {
  const std::size_t n = net.size();
  if (src >= n || dst >= n || !net.alive(src) || !net.alive(dst)) return {};
  if (src == dst) return {src};
  constexpr std::size_t kFar = std::numeric_limits<std::size_t>::max();
  using Cost = std::pair<std::size_t, double>;
  std::vector<Cost> best(n, {kFar, 0.0});
  std::vector<NodeId> prev(n, kInvalidNode);
  using Entry = std::pair<Cost, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  best[src] = {0, 0.0};
  pq.push({{0, 0.0}, src});
  while (!pq.empty()) {
    auto [cost, at] = pq.top();
    pq.pop();
    if (cost > best[at]) continue;
    if (at == dst) break;
    for (NodeId next : net.neighbors_naive(at)) {
      const double d = distance(net.node(at).pos, net.node(next).pos);
      Cost candidate{cost.first + 1, cost.second + d};
      if (candidate < best[next]) {
        best[next] = candidate;
        prev[next] = at;
        pq.push({candidate, next});
      }
    }
  }
  if (best[dst].first == kFar) return {};
  std::vector<NodeId> route;
  for (NodeId at = dst; at != kInvalidNode; at = prev[at]) {
    route.push_back(at);
    if (at == src) break;
  }
  std::reverse(route.begin(), route.end());
  if (route.front() != src) return {};
  return route;
}

/// Asserts indexed neighbours, snapshot rows and cached routes all agree
/// with their oracles over the whole deployment right now.
void expect_accel_matches_oracle(const Network& net, common::Rng& pairs,
                                 std::size_t route_probes) {
  const auto& snapshot = net.topology_snapshot();
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto naive = net.neighbors_naive(id);
    const auto indexed = net.neighbors(id);
    ASSERT_EQ(indexed, naive) << "spatial index diverged at node " << id;
    const auto row = snapshot.row(id);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), naive.begin(),
                           naive.end()))
        << "snapshot row diverged at node " << id;
  }
  for (std::size_t probe = 0; probe < route_probes; ++probe) {
    const auto src = static_cast<NodeId>(pairs.index(net.size()));
    const auto dst = static_cast<NodeId>(pairs.index(net.size()));
    const auto expected = oracle_route(net, src, dst);
    ASSERT_EQ(shortest_path(net, src, dst), expected)
        << "snapshot Dijkstra diverged for " << src << " -> " << dst;
    // Twice: the first call may compute-and-fill, the second must hit.
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "cold cached route diverged for " << src << " -> " << dst;
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "warm cached route diverged for " << src << " -> " << dst;
  }
}

struct TopologyCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool grid_placement;
};

class TopologyProperty : public ::testing::TestWithParam<TopologyCase> {
 protected:
  TopologyProperty() : net_(sim_, common::Rng(GetParam().seed)) {
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.battery_j = 0.05;  // small budget: some nodes die mid-run
    common::Rng placement(GetParam().seed ^ 0xabcdef);
    side_ = 15.0 * std::ceil(std::sqrt(double(GetParam().nodes)));
    if (GetParam().grid_placement) {
      ids_ = deploy_grid(net_, GetParam().nodes, side_, side_, config);
    } else {
      ids_ = deploy_random(net_, GetParam().nodes, side_, side_, config,
                           placement);
    }
    // A mixed deployment: a mains-powered wifi base and a wired backhaul
    // pair, so wired peers, heterogeneous ranges and unlimited energy are
    // all in play.
    NodeConfig base;
    base.kind = NodeKind::kBaseStation;
    base.radio = LinkClass::wifi();
    base.pos = {-5.0, -5.0, 0.0};
    base.unlimited_energy = true;
    base_ = net_.add_node(base);
    NodeConfig grid_machine;
    grid_machine.kind = NodeKind::kGrid;
    grid_machine.radio = LinkClass::wired();
    grid_machine.pos = {-20.0, -20.0, 0.0};
    grid_machine.unlimited_energy = true;
    grid_ = net_.add_node(grid_machine);
    net_.add_wired_link(base_, grid_);
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<NodeId> ids_;
  NodeId base_ = kInvalidNode;
  NodeId grid_ = kInvalidNode;
  double side_ = 0.0;
};

TEST_P(TopologyProperty, IndexedNeighborsMatchNaiveUnderMobilityAndChurn) {
  WaypointConfig wconfig;
  wconfig.width_m = side_;
  wconfig.height_m = side_;
  wconfig.horizon = sim::SimTime::seconds(30.0);
  std::vector<NodeId> walkers(ids_.begin(),
                              ids_.begin() + std::min<std::size_t>(
                                                 ids_.size(), 8));
  WaypointMobility mobility(net_, walkers, wconfig,
                            common::Rng(GetParam().seed + 17));
  mobility.start();

  ChurnConfig cconfig;
  cconfig.mean_up = sim::SimTime::seconds(6.0);
  cconfig.mean_down = sim::SimTime::seconds(3.0);
  cconfig.horizon = sim::SimTime::seconds(30.0);
  NodeChurn churn(net_, ids_, cconfig, common::Rng(GetParam().seed + 29));
  churn.start();

  // Background traffic drains batteries, so liveness-version invalidation
  // (battery death without a topology bump) is exercised too.
  common::Rng traffic(GetParam().seed + 5);
  for (int i = 0; i < 40; ++i) {
    sim_.schedule(sim::SimTime::seconds(0.5 * i), [this, &traffic] {
      const NodeId a = ids_[traffic.index(ids_.size())];
      const NodeId b = ids_[traffic.index(ids_.size())];
      net_.transmit(a, b, 256, [](bool) {});
    });
  }

  common::Rng pairs(GetParam().seed + 99);
  for (int probe = 0; probe < 10; ++probe) {
    sim_.schedule(sim::SimTime::seconds(1.0 + 3.0 * probe), [this, &pairs] {
      expect_accel_matches_oracle(net_, pairs, 6);
    });
  }
  sim_.run();
  EXPECT_GT(net_.topology_stats().neighbor_queries, 0u);
}

TEST_P(TopologyProperty, CachedRoutesMatchOracleUnderChaosSchedules) {
  // Full chaos: blackouts, partitions that cut and heal, crashes with
  // reboot energy loss — every fault bumps a version the cache keys on.
  sim::ChaosEngine engine(net_, GetParam().seed);
  sim::ChaosConfig config;
  config.horizon = sim::SimTime::seconds(40.0);
  config.fault_count = 14;
  config.mix = sim::ChaosMix::partition_storm();
  engine.arm(config);

  common::Rng pairs(GetParam().seed + 7);
  for (int probe = 0; probe < 12; ++probe) {
    sim_.schedule(sim::SimTime::seconds(0.5 + 3.5 * probe), [this, &pairs] {
      expect_accel_matches_oracle(net_, pairs, 5);
    });
  }
  sim_.run();

  // Post-heal: every fault window has expired; the accelerated structures
  // must converge back to the healed topology.
  ASSERT_TRUE(engine.quiescent());
  common::Rng healed(GetParam().seed + 13);
  expect_accel_matches_oracle(net_, healed, 10);
  EXPECT_GT(net_.route_cache().stats().hits, 0u);
}

TEST_P(TopologyProperty, RouteCacheInvalidatesOnMovesChurnAndDeath) {
  const NodeId src = ids_.front();
  const NodeId dst = ids_.back();
  common::Rng pairs(GetParam().seed + 3);

  // Mobility invalidation: teleport a mid-route node far away.
  auto before = cached_shortest_path(net_, src, dst);
  if (before.size() > 2) {
    const NodeId hop = before[before.size() / 2];
    net_.move_node(hop, Vec3{side_ * 4.0, side_ * 4.0, 0.0});
    EXPECT_EQ(cached_shortest_path(net_, src, dst),
              oracle_route(net_, src, dst));
    expect_accel_matches_oracle(net_, pairs, 4);
  }

  // Churn invalidation.
  net_.set_node_up(dst, false);
  EXPECT_TRUE(cached_shortest_path(net_, src, dst).empty());
  net_.set_node_up(dst, true);
  EXPECT_EQ(cached_shortest_path(net_, src, dst),
            oracle_route(net_, src, dst));

  // Battery-death invalidation: exhaust the destination without any
  // topology bump; the cache must not serve the stale route.
  ASSERT_FALSE(net_.energy(dst).is_unlimited());
  const auto live_route = cached_shortest_path(net_, src, dst);
  net_.drain_energy(dst, net_.energy(dst).capacity() + 1.0);
  ASSERT_TRUE(net_.energy(dst).dead());
  EXPECT_TRUE(cached_shortest_path(net_, src, dst).empty())
      << "stale route served across a battery death (was "
      << live_route.size() << " hops)";
  expect_accel_matches_oracle(net_, pairs, 4);
}

TEST_P(TopologyProperty, WiredPairIndexMatchesLinearScanSemantics) {
  // Duplicate links on one pair: the first added must stay authoritative
  // for link_between and for up/down toggles (historical first-match).
  LinkClass fast = LinkClass::wired();
  fast.bandwidth_bps = 200e6;
  LinkClass slow = LinkClass::wired();
  slow.bandwidth_bps = 1e6;
  net_.add_wired_link(grid_, ids_.front(), fast);
  net_.add_wired_link(ids_.front(), grid_, slow);  // duplicate, reversed

  const LinkClass* link = net_.link_between(grid_, ids_.front());
  ASSERT_NE(link, nullptr);
  EXPECT_EQ(link->bandwidth_bps, 200e6) << "first link added must win";

  EXPECT_TRUE(net_.connected(grid_, ids_.front()));
  net_.set_wired_link_up(ids_.front(), grid_, false);
  EXPECT_FALSE(net_.connected(grid_, ids_.front()));
  EXPECT_EQ(net_.link_between(grid_, ids_.front()), nullptr);
  net_.set_wired_link_up(grid_, ids_.front(), true);
  EXPECT_TRUE(net_.connected(grid_, ids_.front()));

  // Unknown pair: no-op, exactly like the scan finding nothing.
  net_.set_wired_link_up(ids_.front(), ids_.back(), false);

  common::Rng pairs(GetParam().seed + 21);
  expect_accel_matches_oracle(net_, pairs, 4);
}

TEST_P(TopologyProperty, SinkTreeMaxDepthMatchesDepthScan) {
  SinkTree tree(net_, base_);
  std::size_t deepest = 0;
  for (NodeId id = 0; id < net_.size(); ++id) {
    if (tree.contains(id)) deepest = std::max(deepest, tree.depth(id));
  }
  EXPECT_EQ(tree.max_depth(), deepest);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, TopologyProperty,
    ::testing::Values(TopologyCase{1, 25, true}, TopologyCase{2, 49, true},
                      TopologyCase{3, 36, false}, TopologyCase{7, 64, false},
                      TopologyCase{11, 80, false},
                      TopologyCase{25, 100, true}),
    [](const ::testing::TestParamInfo<TopologyCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.nodes) +
             (info.param.grid_placement ? "_grid" : "_random");
    });

}  // namespace
}  // namespace pgrid::net
