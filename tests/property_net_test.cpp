// Property tests for the network substrate: invariants that must hold for
// every topology, seed and deployment shape (parameterized sweeps).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <queue>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

/// Reference: the textbook binary-heap Dijkstra over (hops, distance,
/// node), relaxing on strict improvement, with fresh search state per call.
std::vector<NodeId> heap_dijkstra(const Network& net, NodeId src,
                                  NodeId dst) {
  using Cost = std::pair<std::size_t, double>;
  using Entry = std::pair<Cost, NodeId>;
  std::vector<Cost> best(net.size(), {SIZE_MAX, 0.0});
  std::vector<NodeId> prev(net.size(), kInvalidNode);
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  best[src] = {0, 0.0};
  pq.push({best[src], src});
  while (!pq.empty()) {
    const auto [cost, at] = pq.top();
    pq.pop();
    if (cost > best[at]) continue;
    if (at == dst) break;
    for (NodeId next : net.neighbors(at)) {
      const Cost candidate{
          cost.first + 1,
          cost.second + distance(net.node(at).pos, net.node(next).pos)};
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
}

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
  for (auto id : ids_) per_node += net_.energy(id).consumed();
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
  // shortest_path expands each hop level once, unsorted, instead of popping
  // a heap, and settles ties by the heap's (distance, node) rule; the
  // routes — including every tie between equal-length paths, which grid
  // placement makes exact — must match the reference node for node.
  for (std::size_t s = 0; s < ids_.size(); s += 1 + ids_.size() / 5) {
    for (auto dst : ids_) {
      EXPECT_EQ(shortest_path(net_, ids_[s], dst),
                heap_dijkstra(net_, ids_[s], dst))
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

TEST_P(NetProperty, SinkTreeLevelsPartitionBfsOrder) {
  // level(d) is the contiguous run of bfs_order() at depth d: the levels
  // concatenate back to the whole order, and nothing lies past max_depth.
  SinkTree tree(net_, ids_.front());
  std::vector<NodeId> concatenated;
  for (std::size_t d = 0; d <= tree.max_depth(); ++d) {
    const auto level = tree.level(d);
    EXPECT_FALSE(level.empty()) << "depth " << d;
    for (NodeId id : level) EXPECT_EQ(tree.depth(id), d);
    concatenated.insert(concatenated.end(), level.begin(), level.end());
  }
  EXPECT_EQ(concatenated, tree.bfs_order());
  EXPECT_TRUE(tree.level(tree.max_depth() + 1).empty());
  ASSERT_EQ(tree.level(0).size(), 1u);
  EXPECT_EQ(tree.level(0).front(), ids_.front());

  net_.set_node_up(ids_.front(), false);
  SinkTree dead(net_, ids_.front());
  EXPECT_TRUE(dead.bfs_order().empty());
  EXPECT_TRUE(dead.level(0).empty());
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

TEST_P(NetProperty, DstMajorSweepMatchesHeapDijkstraThroughHopTables) {
  // Many-to-one traffic (sensor -> broker, member -> head) makes a
  // destination hot, and later lookups toward it search only min-hop path
  // nodes.  Route every source to a few fixed destinations, through every
  // way the tables can go stale, and hold each route to the reference.
  NodeConfig far_config;
  far_config.radio = LinkClass::sensor_radio();
  far_config.pos = {-1000.0, -1000.0, 0.0};
  const NodeId island = net_.add_node(far_config);  // no neighbours at all
  std::vector<NodeId> srcs = ids_;
  srcs.push_back(island);

  const auto built = [this] { return net_.topology_stats().hop_tables_built; };
  auto sweep = [&](const std::vector<NodeId>& dsts, const char* phase) {
    for (NodeId dst : dsts) {
      for (NodeId src : srcs) {
        const auto route = shortest_path(net_, src, dst);
        if (!net_.alive(src) || !net_.alive(dst)) {
          // The reference ignores liveness at src == dst; a dead endpoint
          // has no route.
          EXPECT_TRUE(route.empty()) << phase << ": " << src << " -> " << dst;
          continue;
        }
        EXPECT_EQ(route, heap_dijkstra(net_, src, dst))
            << phase << ": " << src << " -> " << dst;
      }
    }
    EXPECT_LE(net_.hop_tables().size(), HopTables::kCapacity);
  };
  const std::vector<NodeId> hot = {ids_[0], ids_[ids_.size() / 2],
                                   ids_.back()};

  std::uint64_t before = built();
  sweep(hot, "fresh");
  EXPECT_GT(built(), before) << "a dst-major sweep must build hop tables";

  // The island has no path to anything: its tables say so, and the lookup
  // answers empty from the table alone.
  const TopologySnapshot& topo = net_.topology_snapshot();
  const std::uint32_t* hop_to = net_.hop_tables().find(topo, hot.front());
  ASSERT_NE(hop_to, nullptr);
  EXPECT_EQ(hop_to[island], kUnreachableHops);
  EXPECT_TRUE(shortest_path(net_, island, hot.front()).empty());

  // A destination dies of battery exhaustion after its table was built
  // (liveness bump): every route to it must come back empty.
  const NodeId victim = hot[1];
  const std::uint64_t liveness = net_.liveness_version();
  net_.drain_energy(victim, net_.energy(victim).capacity() + 1.0);
  ASSERT_GT(net_.liveness_version(), liveness);
  before = built();
  sweep(hot, "after death");
  EXPECT_GT(built(), before) << "surviving hot dsts must rebuild";
  for (NodeId src : ids_) {
    EXPECT_TRUE(shortest_path(net_, src, victim).empty());
  }

  // A relay moves after the tables were built (topology bump).
  const NodeId mover = ids_[ids_.size() / 3];
  const Vec3 at = net_.node(mover).pos;
  net_.move_node(mover, Vec3{at.x + 9.0, at.y + 4.0, at.z});
  before = built();
  sweep(hot, "after move");
  EXPECT_GT(built(), before);

  // More hot destinations than the cap: two passes force evictions, and an
  // evicted destination must earn and build its table again.
  std::vector<NodeId> many;
  const std::size_t many_count = HopTables::kCapacity + 3;
  for (std::size_t i = 0; i < many_count; ++i) {
    many.push_back(ids_[i * ids_.size() / many_count]);
  }
  sweep(many, "over cap, pass 1");
  before = built();
  sweep(many, "over cap, pass 2");
  EXPECT_GT(built(), before) << "evicted tables must be rebuilt";
}

TEST_P(NetProperty, SnapshotRowsStaySymmetricUnderChaos) {
  // The hop tables (a BFS from dst read as distances TO dst) and SinkTree
  // both rely on symmetric rows.  Hold that with a live partition cut and
  // a blackout installed through the fault injector.
  sim::ChaosEngine engine(net_, GetParam().seed);
  sim::Fault cut;
  cut.kind = sim::FaultKind::kPartition;
  cut.duration = sim::SimTime::seconds(10.0);
  cut.group.assign(ids_.begin(), ids_.begin() + ids_.size() / 3);
  sim::Fault blackout;
  blackout.kind = sim::FaultKind::kBlackout;
  blackout.duration = sim::SimTime::seconds(10.0);
  blackout.node = ids_[ids_.size() / 2];
  engine.arm_schedule({cut, blackout});
  sim_.run_until(sim::SimTime::seconds(1.0));
  ASSERT_EQ(engine.active_count(), 2u);

  const TopologySnapshot& topo = net_.topology_snapshot();
  EXPECT_TRUE(topo.row(blackout.node).empty());
  for (NodeId a : ids_) {
    for (NodeId b : topo.row(a)) {
      const auto back = topo.row(b);
      EXPECT_TRUE(std::binary_search(back.begin(), back.end(), a))
          << a << " -> " << b << " has no reverse edge";
      EXPECT_FALSE(engine.severed(a, b));
    }
  }
  sim_.run();
}

TEST(ShortestPathReuse, InterleavedNetworksOfDifferentSizesMatchReference) {
  // shortest_path keeps its search state per thread and resets only what
  // the previous lookup touched.  Alternate one thread between a large and
  // a small network — large, small, large — so stale entries from either
  // size (including a search that exhausts the large network's component
  // hunting an unreachable node) would surface as a wrong route.
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  config.radio = LinkClass::sensor_radio();
  sim::Simulator large_sim;
  Network large(large_sim, common::Rng(5));
  auto large_ids = deploy_grid(large, 100, 150.0, 150.0, config);
  NodeConfig island = config;
  island.pos = {1000.0, 1000.0, 0.0};
  large_ids.push_back(large.add_node(island));  // unreachable from the rest
  sim::Simulator small_sim;
  Network small(small_sim, common::Rng(6));
  common::Rng placement(9);
  const auto small_ids =
      deploy_random(small, 16, 60.0, 60.0, config, placement);

  auto check_large = [&] {
    for (std::size_t s = 0; s < large_ids.size(); s += 17) {
      for (NodeId dst : {large_ids.back(), large_ids[99], large_ids[3],
                         large_ids[50], large_ids[s]}) {
        EXPECT_EQ(shortest_path(large, large_ids[s], dst),
                  heap_dijkstra(large, large_ids[s], dst))
            << "large " << large_ids[s] << " -> " << dst;
      }
    }
    // Many-to-one toward one base: the large network builds a hop table and
    // then searches goal-directed with the same thread-local state.
    for (NodeId src : large_ids) {
      EXPECT_EQ(shortest_path(large, src, large_ids[50]),
                heap_dijkstra(large, src, large_ids[50]))
          << "large " << src << " -> " << large_ids[50];
    }
  };
  check_large();
  EXPECT_TRUE(shortest_path(large, large_ids[0], large_ids.back()).empty());
  EXPECT_GT(large.topology_stats().hop_tables_built, 0u);
  const auto base_table_live = [&] {
    return large.hop_tables().find(large.topology_snapshot(),
                                   large_ids[50]) != nullptr;
  };
  ASSERT_TRUE(base_table_live());
  for (NodeId src : small_ids) {
    for (NodeId dst : small_ids) {
      EXPECT_EQ(shortest_path(small, src, dst), heap_dijkstra(small, src, dst))
          << "small " << src << " -> " << dst;
    }
  }
  EXPECT_TRUE(base_table_live())
      << "the large network's tables must stay live across the small sweep";
  check_large();
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
