// Property tests for the network substrate: invariants that must hold for
// every topology, seed and deployment shape (parameterized sweeps).
#include <gtest/gtest.h>

#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

struct NetCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool grid_placement;
};

class NetProperty : public ::testing::TestWithParam<NetCase> {
 protected:
  NetProperty() : net_(sim_, common::Rng(GetParam().seed)) {
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.battery_j = 2.0;
    common::Rng placement(GetParam().seed ^ 0xabcdef);
    const double side =
        15.0 * std::ceil(std::sqrt(double(GetParam().nodes)));
    if (GetParam().grid_placement) {
      ids_ = deploy_grid(net_, GetParam().nodes, side, side, config);
    } else {
      ids_ = deploy_random(net_, GetParam().nodes, side, side, config,
                           placement);
    }
  }

  /// Independent BFS hop distances from `src` (ground truth for routing).
  std::vector<std::size_t> bfs_hops(NodeId src) {
    std::vector<std::size_t> dist(net_.size(), SIZE_MAX);
    std::queue<NodeId> frontier;
    dist[src] = 0;
    frontier.push(src);
    while (!frontier.empty()) {
      const NodeId at = frontier.front();
      frontier.pop();
      for (NodeId next : net_.neighbors(at)) {
        if (dist[next] == SIZE_MAX) {
          dist[next] = dist[at] + 1;
          frontier.push(next);
        }
      }
    }
    return dist;
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<NodeId> ids_;
};

TEST_P(NetProperty, EnergyLedgerBalances) {
  // Global stats energy must equal the sum of per-node battery draws.
  common::Rng traffic(GetParam().seed + 1);
  for (int i = 0; i < 50; ++i) {
    const NodeId a = ids_[traffic.index(ids_.size())];
    const NodeId b = ids_[traffic.index(ids_.size())];
    if (a == b) continue;
    net_.transmit(a, b, 64 + traffic.index(512), [](bool) {});
  }
  sim_.run();
  double per_node = 0.0;
  for (auto id : ids_) per_node += net_.node(id).energy.consumed();
  EXPECT_NEAR(net_.stats().energy_j, per_node, 1e-12);
  EXPECT_NEAR(net_.battery_energy_consumed(), per_node, 1e-12);
}

TEST_P(NetProperty, FloodReachesExactlyTheConnectedComponent) {
  const NodeId src = ids_.front();
  const auto dist = bfs_hops(src);
  std::size_t component = 0;
  for (auto id : ids_) {
    if (dist[id] != SIZE_MAX) ++component;
  }
  std::size_t reached = 0;
  net_.flood(src, 32, nullptr, [&](std::size_t r) { reached = r; });
  sim_.run();
  EXPECT_EQ(reached, component);
}

TEST_P(NetProperty, ShortestPathIsHopOptimalAndValid) {
  const NodeId src = ids_.front();
  const auto dist = bfs_hops(src);
  for (auto dst : ids_) {
    const auto route = shortest_path(net_, src, dst);
    if (dist[dst] == SIZE_MAX) {
      EXPECT_TRUE(route.empty());
      continue;
    }
    ASSERT_FALSE(route.empty());
    EXPECT_EQ(route.front(), src);
    EXPECT_EQ(route.back(), dst);
    EXPECT_EQ(route.size(), dist[dst] + 1) << "hop-optimality";
    for (std::size_t i = 1; i < route.size(); ++i) {
      EXPECT_TRUE(net_.connected(route[i - 1], route[i]))
          << "consecutive hops must share a link";
    }
  }
}

TEST_P(NetProperty, ShortestPathMatchesHeapDijkstraTieForTie) {
  // Reference: the textbook binary-heap Dijkstra over (hops, distance,
  // node), relaxing on strict improvement.  shortest_path expands hop
  // levels in sorted batches instead; the routes — including every tie
  // between equal-length paths, which grid placement makes exact — must
  // match it node for node.
  auto reference = [this](NodeId src, NodeId dst) {
    using Cost = std::pair<std::size_t, double>;
    using Entry = std::pair<Cost, NodeId>;
    std::vector<Cost> best(net_.size(), {SIZE_MAX, 0.0});
    std::vector<NodeId> prev(net_.size(), kInvalidNode);
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    best[src] = {0, 0.0};
    pq.push({best[src], src});
    while (!pq.empty()) {
      const auto [cost, at] = pq.top();
      pq.pop();
      if (cost > best[at]) continue;
      if (at == dst) break;
      for (NodeId next : net_.neighbors(at)) {
        const Cost candidate{
            cost.first + 1,
            cost.second + distance(net_.node(at).pos, net_.node(next).pos)};
        if (candidate < best[next]) {
          best[next] = candidate;
          prev[next] = at;
          pq.push({candidate, next});
        }
      }
    }
    std::vector<NodeId> route;
    if (best[dst].first == SIZE_MAX) return route;
    for (NodeId at = dst; at != kInvalidNode; at = prev[at]) {
      route.insert(route.begin(), at);
      if (at == src) break;
    }
    return route;
  };
  for (std::size_t s = 0; s < ids_.size(); s += 1 + ids_.size() / 5) {
    for (auto dst : ids_) {
      EXPECT_EQ(shortest_path(net_, ids_[s], dst), reference(ids_[s], dst))
          << ids_[s] << " -> " << dst;
    }
  }
}

TEST_P(NetProperty, SinkTreeRoutesAreConsistent) {
  const NodeId sink = ids_.front();
  SinkTree tree(net_, sink);
  const auto dist = bfs_hops(sink);
  for (auto id : ids_) {
    if (dist[id] == SIZE_MAX) {
      EXPECT_FALSE(tree.contains(id));
      continue;
    }
    ASSERT_TRUE(tree.contains(id));
    EXPECT_EQ(tree.depth(id), dist[id]) << "BFS tree depth = hop distance";
    const auto route = tree.route_to_sink(id);
    EXPECT_EQ(route.size(), dist[id] + 1);
  }
}

TEST_P(NetProperty, TransmissionsAreDeterministicPerSeed) {
  auto run_traffic = [](const NetCase& param) {
    sim::Simulator sim;
    Network net(sim, common::Rng(param.seed));
    NodeConfig config;
    config.radio = LinkClass::sensor_radio();
    common::Rng placement(param.seed ^ 0xabcdef);
    const double side = 15.0 * std::ceil(std::sqrt(double(param.nodes)));
    auto ids = param.grid_placement
                   ? deploy_grid(net, param.nodes, side, side, config)
                   : deploy_random(net, param.nodes, side, side, config,
                                   placement);
    common::Rng traffic(param.seed + 1);
    for (int i = 0; i < 30; ++i) {
      net.transmit(ids[traffic.index(ids.size())],
                   ids[traffic.index(ids.size())], 100, [](bool) {});
    }
    sim.run();
    return std::make_tuple(net.stats().transmissions, net.stats().delivered,
                           net.stats().energy_j);
  };
  EXPECT_EQ(run_traffic(GetParam()), run_traffic(GetParam()));
}

TEST_P(NetProperty, NeighborRelationIsSymmetric) {
  for (auto a : ids_) {
    for (auto b : net_.neighbors(a)) {
      const auto back = net_.neighbors(b);
      EXPECT_NE(std::find(back.begin(), back.end(), a), back.end())
          << a << " <-> " << b;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, NetProperty,
    ::testing::Values(NetCase{1, 16, true}, NetCase{2, 49, true},
                      NetCase{3, 100, true}, NetCase{7, 30, false},
                      NetCase{11, 60, false}, NetCase{13, 120, false}),
    [](const ::testing::TestParamInfo<NetCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.nodes) +
             (info.param.grid_placement ? "_grid" : "_random");
    });

}  // namespace
}  // namespace pgrid::net
