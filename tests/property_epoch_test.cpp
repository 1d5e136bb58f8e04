// Property tests for incremental topology epochs (DESIGN.md S26):
// delta-patched CSR snapshots and scope-invalidated route caches must stay
// bit-identical to the fresh-full-rebuild oracle under seeded mobility,
// churn, battery death, partition-heal and full chaos — and outcome-
// identical to a run that forces a global epoch after every mutation.
// A reliable transfer whose next hop dies mid-flight rides along.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/mobility.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

/// Fully independent route oracle: Dijkstra with cost = (hops, distance)
/// re-implemented over the naive neighbour scan, sharing no code with
/// routing.cpp or the epoch machinery.
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

/// Asserts that the (possibly delta-patched) snapshot rows, hop distances
/// and cached routes are all bit-identical to their fresh oracles right now.
void expect_epoch_matches_oracle(const Network& net, common::Rng& pairs,
                                 std::size_t route_probes) {
  const auto& snapshot = net.topology_snapshot();
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto naive = net.neighbors_naive(id);
    const auto row = snapshot.row(id);
    ASSERT_TRUE(std::equal(row.begin(), row.end(), naive.begin(),
                           naive.end()))
        << "patched snapshot row diverged at node " << id;
    const auto dist = snapshot.row_distance(id);
    for (std::size_t k = 0; k < naive.size(); ++k) {
      ASSERT_EQ(dist[k], distance(net.node(id).pos, net.node(naive[k]).pos))
          << "patched hop distance diverged at node " << id;
    }
  }
  for (std::size_t probe = 0; probe < route_probes; ++probe) {
    const auto src = static_cast<NodeId>(pairs.index(net.size()));
    const auto dst = static_cast<NodeId>(pairs.index(net.size()));
    const auto expected = oracle_route(net, src, dst);
    // Twice: the first call may compute-and-fill or revalidate a scoped
    // survivor, the second must hit — both bit-identical to the oracle.
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "cached route diverged for " << src << " -> " << dst;
    ASSERT_EQ(cached_shortest_path(net, src, dst), expected)
        << "warm cached route diverged for " << src << " -> " << dst;
  }
}

/// Brute-force rows a change at `x` can touch with every node where it is
/// right now: `x` itself, each wireless peer p with
/// d(p, x) <= min(r_p, r_x) (connected()'s range test, liveness aside) and
/// `x`'s wired peers.  Marks them in `rows` (sized to the deployment).
void mark_reach(const Network& net, NodeId x,
                const std::vector<NodeId>& wired_peers,
                std::vector<char>& rows) {
  rows[x] = 1;
  const Node& changed = net.node(x);
  for (NodeId p = 0; p < net.size(); ++p) {
    const Node& peer = net.node(p);
    if (peer.radio.wireless && changed.radio.wireless &&
        distance(peer.pos, changed.pos) <=
            std::min(peer.radio.range_m, changed.radio.range_m)) {
      rows[p] = 1;
    }
  }
  for (NodeId w : wired_peers) rows[w] = 1;
}

std::size_t count_marked(const std::vector<char>& rows) {
  return static_cast<std::size_t>(std::count(rows.begin(), rows.end(), 1));
}

/// Every node's fresh row (what a full rebuild computes) with its hop
/// distances.
std::vector<std::pair<std::vector<NodeId>, std::vector<double>>> fresh_rows(
    const Network& net) {
  std::vector<std::pair<std::vector<NodeId>, std::vector<double>>> rows;
  for (NodeId id = 0; id < net.size(); ++id) {
    auto row = net.neighbors(id);
    std::vector<double> dist;
    for (NodeId peer : row) {
      dist.push_back(distance(net.node(id).pos, net.node(peer).pos));
    }
    rows.emplace_back(std::move(row), std::move(dist));
  }
  return rows;
}

/// Runs one epoch made of `mutate` (which marks its own brute-force rows)
/// on a built snapshot.  Every row differing between the fresh rebuilds
/// before and after must be marked.  Within the n / kPatchCapDivisor cap
/// the epoch must be scoped and patch exactly the marked rows; past it, it
/// must widen to a rebuild.  Returns whether the epoch was scoped.
bool expect_exact_epoch(Network& net,
                        const std::function<void(std::vector<char>&)>& mutate) {
  net.topology_snapshot();  // scoped epochs patch a built snapshot
  const auto before_rows = fresh_rows(net);
  const TopologyStats before = net.topology_stats();
  std::vector<char> expected(net.size(), 0);
  mutate(expected);
  net.sync_topology_caches();
  const TopologyStats after = net.topology_stats();
  const auto after_rows = fresh_rows(net);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (before_rows[id] != after_rows[id]) {
      EXPECT_TRUE(expected[id]) << "row " << id << " changed but is clean";
    }
  }
  if (count_marked(expected) > net.size() / Network::kPatchCapDivisor) {
    EXPECT_EQ(after.global_epochs, before.global_epochs + 1)
        << "a dirty set past the patch cap must widen";
    return false;
  }
  EXPECT_EQ(after.scoped_epochs, before.scoped_epochs + 1)
      << "the epoch widened to a rebuild";
  EXPECT_EQ(after.snapshot_builds, before.snapshot_builds);
  EXPECT_EQ(after.rows_patched - before.rows_patched, count_marked(expected))
      << "the dirty set is not exactly the brute-force row set";
  return true;
}

struct EpochCase {
  std::uint64_t seed;
  std::size_t nodes;
  bool grid_placement;
};

/// Same mixed deployment as the topology property fixture (sensors + wifi
/// base + wired backhaul pair).
class EpochProperty : public ::testing::TestWithParam<EpochCase> {
 protected:
  EpochProperty() : net_(sim_, common::Rng(GetParam().seed)) {
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

TEST_P(EpochProperty, PatchedSnapshotsMatchOracleUnderMobilityAndChurn) {
  WaypointConfig wconfig;
  wconfig.width_m = side_;
  wconfig.height_m = side_;
  wconfig.horizon = sim::SimTime::seconds(30.0);
  std::vector<NodeId> walkers(ids_.begin(),
                              ids_.begin() + std::min<std::size_t>(
                                                 ids_.size(), 4));
  WaypointMobility mobility(net_, walkers, wconfig,
                            common::Rng(GetParam().seed + 17));
  mobility.start();

  ChurnConfig cconfig;
  cconfig.mean_up = sim::SimTime::seconds(6.0);
  cconfig.mean_down = sim::SimTime::seconds(3.0);
  cconfig.horizon = sim::SimTime::seconds(30.0);
  NodeChurn churn(net_, ids_, cconfig, common::Rng(GetParam().seed + 29));
  churn.start();

  // Background traffic drains batteries, so scoped liveness invalidation
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
      expect_epoch_matches_oracle(net_, pairs, 6);
    });
  }
  sim_.run();
  EXPECT_GT(net_.topology_stats().scoped_epochs +
                net_.topology_stats().global_epochs,
            0u)
      << "the epoch machinery never ran";
  EXPECT_GT(mobility.moves(), 0u);
}

TEST_P(EpochProperty, ChaosMobilityChurnStayOracleIdenticalAndExactlyOnce) {
  // The full storm at once: partitions that cut and heal, link blackouts,
  // waypoint mobility and node churn — every class of topology change the
  // scoped invalidation must absorb — while a reliable channel pushes
  // unicasts through the wreckage.  Exactly-once delivery and oracle
  // bit-identity must both hold throughout.
  sim::ChaosEngine engine(net_, GetParam().seed);
  sim::ChaosConfig config;
  config.horizon = sim::SimTime::seconds(40.0);
  config.fault_count = 10;
  config.mix = sim::ChaosMix::partition_storm();
  engine.arm(config);

  WaypointConfig wconfig;
  wconfig.width_m = side_;
  wconfig.height_m = side_;
  wconfig.horizon = sim::SimTime::seconds(40.0);
  std::vector<NodeId> walkers(ids_.begin(),
                              ids_.begin() + std::min<std::size_t>(
                                                 ids_.size(), 4));
  WaypointMobility mobility(net_, walkers, wconfig,
                            common::Rng(GetParam().seed + 41));
  mobility.start();

  ChurnConfig cconfig;
  cconfig.mean_up = sim::SimTime::seconds(8.0);
  cconfig.mean_down = sim::SimTime::seconds(3.0);
  cconfig.horizon = sim::SimTime::seconds(40.0);
  NodeChurn churn(net_, ids_, cconfig, common::Rng(GetParam().seed + 43));
  churn.start();

  ReliableChannel channel(net_, common::Rng(GetParam().seed ^ 0xEE));
  std::map<std::pair<NodeId, std::uint64_t>, int> accepted;
  channel.set_delivery_probe([&](NodeId dst, std::uint64_t seq) {
    ++accepted[{dst, seq}];
  });
  common::Rng traffic(GetParam().seed + 55);
  std::size_t done_count = 0;
  const std::size_t sends = 20;
  for (std::size_t i = 0; i < sends; ++i) {
    sim_.schedule(sim::SimTime::seconds(1.5 * double(i)), [this, &traffic,
                                                          &channel,
                                                          &done_count] {
      const NodeId src = ids_[traffic.index(ids_.size())];
      const NodeId dst = ids_[traffic.index(ids_.size())];
      channel.unicast(src, dst, 128,
                      Budget::until(sim_.now() + sim::SimTime::seconds(8.0)),
                      [&done_count](bool) { ++done_count; });
    });
  }

  common::Rng pairs(GetParam().seed + 7);
  for (int probe = 0; probe < 12; ++probe) {
    sim_.schedule(sim::SimTime::seconds(0.5 + 3.5 * probe), [this, &pairs] {
      expect_epoch_matches_oracle(net_, pairs, 5);
    });
  }
  sim_.run();

  // Exactly-once: `done` fired once per send, and no destination accepted
  // the same payload twice.
  EXPECT_EQ(done_count, sends);
  for (const auto& [key, count] : accepted) {
    EXPECT_EQ(count, 1) << "duplicate delivery at node " << key.first
                        << " seq " << key.second;
  }

  // Post-heal: every fault window has expired; patched structures must
  // converge back to the healed topology.
  ASSERT_TRUE(engine.quiescent());
  common::Rng healed(GetParam().seed + 13);
  expect_epoch_matches_oracle(net_, healed, 10);
}

TEST_P(EpochProperty, OnAndOffModesAreOutcomeIdentical) {
  // Scoped epochs must not change a single answer — only the work done to
  // produce it.  Replay one seeded scenario (moves, churn, death, mid-run
  // add_node, wired toggles) twice: once with scoping on, and once with it
  // effectively off — the oracle arm calls bump_topology_version() after
  // every mutation, widening each epoch to a fresh full rebuild and a
  // wholesale cache clear.  The full route/snapshot trace must match
  // bit-for-bit.
  struct Trace {
    std::vector<std::vector<NodeId>> routes;
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> adjacency;
    std::vector<double> hop_distance;
    TopologyStats stats;  // oracle arm: proves every epoch rebuilt
  };
  auto run_mode = [&](bool force_rebuild) {
    sim::Simulator sim;
    Network net(sim, common::Rng(GetParam().seed));
    auto mutated = [&] {
      if (force_rebuild) net.bump_topology_version();
    };
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.battery_j = 0.05;
    common::Rng placement(GetParam().seed ^ 0xabcdef);
    auto ids = GetParam().grid_placement
                   ? deploy_grid(net, GetParam().nodes, side_, side_, config)
                   : deploy_random(net, GetParam().nodes, side_, side_,
                                   config, placement);
    NodeConfig wired;
    wired.kind = NodeKind::kGrid;
    wired.radio = LinkClass::wired();
    wired.pos = {-20.0, -20.0, 0.0};
    wired.unlimited_energy = true;
    const NodeId g0 = net.add_node(wired);
    wired.pos = {-30.0, -20.0, 0.0};
    const NodeId g1 = net.add_node(wired);
    net.add_wired_link(g0, g1);

    Trace trace;
    common::Rng script(GetParam().seed + 77);
    common::Rng pairs(GetParam().seed + 78);
    auto query_batch = [&] {
      for (int q = 0; q < 6; ++q) {
        const auto src = static_cast<NodeId>(pairs.index(net.size()));
        const auto dst = static_cast<NodeId>(pairs.index(net.size()));
        trace.routes.push_back(cached_shortest_path(net, src, dst));
      }
    };
    query_batch();
    for (int step = 0; step < 12; ++step) {
      const NodeId mover = ids[script.index(ids.size())];
      net.move_node(mover, Vec3{script.uniform(0.0, side_),
                                script.uniform(0.0, side_), 0.0});
      mutated();
      const NodeId toggled = ids[script.index(ids.size())];
      net.set_node_up(toggled, (step % 3) != 0);
      mutated();
      if (step == 4) {
        net.set_wired_link_up(g0, g1, false);
        mutated();
      }
      if (step == 7) {
        net.set_wired_link_up(g0, g1, true);
        mutated();
      }
      if (step == 5) {
        NodeConfig late = config;
        late.pos = {side_ * 0.5, side_ * 0.5, 0.0};
        ids.push_back(net.add_node(late));  // global epoch mid-run
      }
      if (step == 8) {
        const NodeId victim = ids.front();
        net.drain_energy(victim,
                         net.energy(victim).capacity() + 1.0);
        mutated();
      }
      query_batch();
    }
    const auto& snapshot = net.topology_snapshot();
    trace.offsets = snapshot.offsets;
    trace.adjacency = snapshot.adjacency;
    trace.hop_distance = snapshot.hop_distance;
    trace.stats = net.topology_stats();
    return trace;
  };

  const Trace oracle = run_mode(/*force_rebuild=*/true);
  const Trace scoped = run_mode(/*force_rebuild=*/false);
  EXPECT_EQ(oracle.stats.scoped_epochs, 0u)
      << "the oracle arm must rebuild on every epoch";
  EXPECT_EQ(oracle.stats.snapshot_patches, 0u);
  ASSERT_EQ(scoped.routes.size(), oracle.routes.size());
  for (std::size_t i = 0; i < oracle.routes.size(); ++i) {
    EXPECT_EQ(scoped.routes[i], oracle.routes[i])
        << "route trace diverged at " << i;
  }
  EXPECT_EQ(scoped.offsets, oracle.offsets);
  EXPECT_EQ(scoped.adjacency, oracle.adjacency);
  EXPECT_EQ(scoped.hop_distance, oracle.hop_distance);
}

INSTANTIATE_TEST_SUITE_P(
    Epochs, EpochProperty,
    ::testing::Values(EpochCase{1, 25, true}, EpochCase{2, 49, true},
                      EpochCase{3, 36, false}, EpochCase{7, 64, false},
                      EpochCase{11, 80, false}, EpochCase{25, 100, true}),
    [](const ::testing::TestParamInfo<EpochCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.nodes) +
             (info.param.grid_placement ? "_grid" : "_random");
    });

// ---------------------------------------------------------------------------
// Scoped-survival mechanics on a hand-built deployment
// ---------------------------------------------------------------------------

TEST(EpochScoping, SingleMovePatchesFewRowsAndKeepsDistantRoutes) {
  sim::Simulator sim;
  Network net(sim, common::Rng(9));
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  config.radio = LinkClass::sensor_radio();
  config.unlimited_energy = true;
  const std::size_t n = 100;
  const double side = 15.0 * 10.0;
  auto ids = deploy_grid(net, n, side, side, config);

  // Prime the cache with a route confined to the first two grid rows —
  // far from the corner we are about to perturb.
  const auto near_route = cached_shortest_path(net, ids[0], ids[15]);
  ASSERT_FALSE(near_route.empty());
  // And one long route that passes near the far corner.
  const auto far_route = cached_shortest_path(net, ids[0], ids[99]);
  ASSERT_FALSE(far_route.empty());

  const auto before = net.topology_stats();
  const auto cache_before = net.route_cache().stats();

  // Nudge the far-corner node a metre: only the rows within radio reach of
  // its old and new position can be affected, so the epoch must patch
  // exactly those, not rebuild.
  std::vector<char> reach(n, 0);
  mark_reach(net, ids[99], {}, reach);
  const Vec3 at = net.node(ids[99]).pos;
  net.move_node(ids[99], Vec3{at.x - 1.0, at.y - 1.0, at.z});
  mark_reach(net, ids[99], {}, reach);
  net.sync_topology_caches();

  const auto after = net.topology_stats();
  const auto cache_after = net.route_cache().stats();
  EXPECT_EQ(after.scoped_epochs, before.scoped_epochs + 1);
  EXPECT_EQ(after.snapshot_patches, before.snapshot_patches + 1);
  EXPECT_EQ(after.snapshot_builds, before.snapshot_builds)
      << "a scoped move must not trigger a full rebuild";
  EXPECT_EQ(after.rows_patched - before.rows_patched, count_marked(reach));
  EXPECT_EQ(cache_after.scoped_epochs, cache_before.scoped_epochs + 1);
  EXPECT_GT(cache_after.routes_kept, cache_before.routes_kept)
      << "the near route should survive a far-corner move";

  // Survivors and recomputed routes alike must match the oracle.
  EXPECT_EQ(cached_shortest_path(net, ids[0], ids[15]),
            oracle_route(net, ids[0], ids[15]));
  EXPECT_EQ(cached_shortest_path(net, ids[0], ids[99]),
            oracle_route(net, ids[0], ids[99]));
  common::Rng pairs(31);
  expect_epoch_matches_oracle(net, pairs, 8);
}

// ---------------------------------------------------------------------------
// Exact dirty rows: a change dirties exactly the rows within link reach
// ---------------------------------------------------------------------------

TEST_P(EpochProperty, SeededMovesAndDeathsPatchExactlyTheBruteForceRows) {
  common::Rng script(GetParam().seed + 61);
  common::Rng pairs(GetParam().seed + 62);
  auto wired_peers = [&](NodeId x) {
    if (x == base_) return std::vector<NodeId>{grid_};
    if (x == grid_) return std::vector<NodeId>{base_};
    return std::vector<NodeId>{};
  };
  std::size_t scoped = 0;
  for (int step = 0; step < 24; ++step) {
    // Movers include the wifi base (wired to the grid machine) and step up
    // to 8 m per axis, every fourth move up to the field's side; victims
    // are live sensors.
    const NodeId mover =
        step % 6 == 5 ? base_ : ids_[script.index(ids_.size())];
    const NodeId victim = ids_[script.index(ids_.size())];
    const bool kill = step % 3 == 2 && net_.alive(victim);
    const Vec3 at = net_.node(mover).pos;
    const double reach = step % 4 == 0 ? side_ : 8.0;
    const Vec3 to{at.x + script.uniform(-reach, reach),
                  at.y + script.uniform(-reach, reach), 0.0};
    scoped += expect_exact_epoch(net_, [&](std::vector<char>& rows) {
      if (kill) {
        net_.drain_energy(victim, net_.energy(victim).capacity() + 1.0);
        mark_reach(net_, victim, wired_peers(victim), rows);
      } else {
        mark_reach(net_, mover, wired_peers(mover), rows);
        net_.move_node(mover, to);
        mark_reach(net_, mover, wired_peers(mover), rows);
      }
    });
    if (step % 4 == 3) expect_epoch_matches_oracle(net_, pairs, 4);
  }
  EXPECT_GE(scoped, 12u) << "most single changes must stay scoped";
  expect_epoch_matches_oracle(net_, pairs, 8);
}

TEST_P(EpochProperty, BatchedMoveAndDeathPatchTheUnion) {
  common::Rng pairs(GetParam().seed + 63);
  // The mover lands 3.6 m from the victim, so their disks overlap and the
  // batch stays under the patch cap even at n = 25.
  const NodeId mover = ids_.front();
  const NodeId victim = ids_[ids_.size() / 2];
  const Vec3 near_victim = net_.node(victim).pos;
  const Vec3 to{near_victim.x + 3.0, near_victim.y - 2.0, 0.0};
  const bool scoped = expect_exact_epoch(net_, [&](std::vector<char>& rows) {
    mark_reach(net_, mover, {}, rows);
    net_.move_node(mover, to);
    mark_reach(net_, mover, {}, rows);
    net_.set_node_up(victim, false);  // the victim's row set is geometric
    mark_reach(net_, victim, {}, rows);
  });
  EXPECT_TRUE(scoped);
  expect_epoch_matches_oracle(net_, pairs, 8);
}

/// Sensors (25 m) on a 15 m lattice with two wifi nodes (100 m) 80 m apart
/// in the middle of it.
struct MixedRadioRig {
  sim::Simulator sim;
  Network net;
  std::vector<NodeId> sensors;
  NodeId wifi_a = kInvalidNode;
  NodeId wifi_b = kInvalidNode;

  MixedRadioRig() : net(sim, common::Rng(12)) {
    NodeConfig sensor;
    sensor.kind = NodeKind::kSensor;
    sensor.radio = LinkClass::sensor_radio();
    sensor.unlimited_energy = true;
    sensors = deploy_grid(net, 144, 165.0, 165.0, sensor);
    NodeConfig wifi;
    wifi.kind = NodeKind::kHandheld;
    wifi.radio = LinkClass::wifi();
    wifi.unlimited_energy = true;
    wifi.pos = {40.0, 82.0, 0.0};
    wifi_a = net.add_node(wifi);
    wifi.pos = {120.0, 82.0, 0.0};
    wifi_b = net.add_node(wifi);
  }
};

TEST(ExactRows, WifiNodeAmongSensorsDirtiesOnlySensorReach) {
  MixedRadioRig rig;
  Network& net = rig.net;
  // A 100 m radio reaches sensors only within their own 25 m, so the
  // dirty set is the sensors within 25 m of either position plus the
  // other wifi node (within 100 m of both) — not the 100 m disk.
  std::vector<char> expected(net.size(), 0);
  expect_exact_epoch(net, [&](std::vector<char>& rows) {
    mark_reach(net, rig.wifi_a, {}, rows);
    net.move_node(rig.wifi_a, Vec3{47.0, 80.0, 0.0});
    mark_reach(net, rig.wifi_a, {}, rows);
    expected = rows;
  });
  EXPECT_TRUE(expected[rig.wifi_b]);
  EXPECT_LT(count_marked(expected), 16u)
      << "only the sensors within 25 m and the peer wifi node";
  common::Rng pairs(3);
  expect_epoch_matches_oracle(net, pairs, 8);
}

TEST(ExactRows, SensorMovingNextToWifiNodeDirtiesIt) {
  MixedRadioRig rig;
  Network& net = rig.net;
  const NodeId mover = rig.sensors.front();  // the (0, 0) corner
  ASSERT_FALSE(net.connected(mover, rig.wifi_b));
  std::vector<char> expected(net.size(), 0);
  expect_exact_epoch(net, [&](std::vector<char>& rows) {
    mark_reach(net, mover, {}, rows);
    net.move_node(mover, Vec3{128.0, 90.0, 0.0});
    mark_reach(net, mover, {}, rows);
    expected = rows;
  });
  EXPECT_TRUE(net.connected(mover, rig.wifi_b));
  EXPECT_TRUE(expected[rig.wifi_b]);
  EXPECT_FALSE(expected[rig.wifi_a]) << "80 m away: beyond the sensor's 25 m";
  common::Rng pairs(4);
  expect_epoch_matches_oracle(net, pairs, 8);
}

TEST(ExactRows, PeerAtExactlyMinRangeIsDirty) {
  // d == min(r) links (connected() tests <=), so a peer exactly 25.0 m
  // away must be dirtied by a change at the other end; one a hair beyond
  // must not.  A strict < test fails both the count and the oracle.
  sim::Simulator sim;
  Network net(sim, common::Rng(5));
  NodeConfig sensor;
  sensor.kind = NodeKind::kSensor;
  sensor.radio = LinkClass::sensor_radio();
  sensor.unlimited_energy = true;
  ASSERT_EQ(sensor.radio.range_m, 25.0);
  sensor.pos = {0.0, 0.0, 0.0};
  const NodeId x = net.add_node(sensor);
  sensor.pos = {25.0, 0.0, 0.0};
  const NodeId edge = net.add_node(sensor);
  sensor.pos = {0.0, 25.000001, 0.0};
  const NodeId beyond = net.add_node(sensor);
  sensor.pos = {-25.0, 0.0, 0.0};
  const NodeId far_edge = net.add_node(sensor);  // 50 m from edge
  for (int i = 0; i < 8; ++i) {  // bystanders, so 3 rows fit the patch cap
    sensor.pos = {500.0 + 50.0 * i, 500.0, 0.0};
    net.add_node(sensor);
  }
  ASSERT_TRUE(net.connected(x, edge));
  ASSERT_FALSE(net.connected(x, beyond));
  const std::vector<char> disk_of_x{1, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0};

  std::vector<char> rows(net.size(), 0);
  expect_exact_epoch(net, [&](std::vector<char>& marked) {
    net.set_node_up(x, false);
    mark_reach(net, x, {}, marked);
    rows = marked;
  });
  EXPECT_EQ(rows, disk_of_x);
  EXPECT_TRUE(net.neighbors(edge).empty());
  common::Rng pairs(6);
  expect_epoch_matches_oracle(net, pairs, 4);

  // And a move away from the boundary: the old position's 25.0 m peers.
  expect_exact_epoch(net, [&](std::vector<char>& marked) {
    net.set_node_up(x, true);
    mark_reach(net, x, {}, marked);
  });
  expect_exact_epoch(net, [&](std::vector<char>& marked) {
    mark_reach(net, x, {}, marked);
    net.move_node(x, Vec3{0.0, -1.0, 0.0});
    mark_reach(net, x, {}, marked);
    rows = marked;
  });
  EXPECT_EQ(rows, disk_of_x);
  EXPECT_TRUE(net.neighbors(edge).empty());
  EXPECT_TRUE(net.neighbors(far_edge).empty());
  expect_epoch_matches_oracle(net, pairs, 4);
}

TEST(ExactRows, SixteenWalkersOnA1600NodeGridStayScoped) {
  // The mobile-failover shape: 16 walkers stepping 1.5 m among 1600
  // stationary 25 m sensors, beside a 100 m wifi base whose range sets the
  // spatial grid's cell width.  Each batched epoch dirties ~16 radio
  // disks, far below the n / kPatchCapDivisor cap.
  sim::Simulator sim;
  Network net(sim, common::Rng(16));
  NodeConfig sensor;
  sensor.kind = NodeKind::kSensor;
  sensor.radio = LinkClass::sensor_radio();
  sensor.unlimited_energy = true;
  const auto ids = deploy_grid(net, 1600, 585.0, 585.0, sensor);
  NodeConfig base;
  base.kind = NodeKind::kBaseStation;
  base.radio = LinkClass::wifi();
  base.unlimited_energy = true;
  base.pos = {-5.0, -5.0, 0.0};
  net.add_node(base);

  std::vector<NodeId> walkers;  // lattice rows and columns 5, 15, 25, 35
  for (std::size_t row = 5; row < 40; row += 10) {
    for (std::size_t col = 5; col < 40; col += 10) {
      walkers.push_back(ids[row * 40 + col]);
    }
  }
  net.topology_snapshot();
  const TopologyStats before = net.topology_stats();
  common::Rng steps(17);
  for (int epoch = 0; epoch < 20; ++epoch) {
    const bool scoped = expect_exact_epoch(net, [&](std::vector<char>& rows) {
      for (NodeId w : walkers) {
        mark_reach(net, w, {}, rows);
        const Vec3 at = net.node(w).pos;
        const double heading = steps.uniform(0.0, 6.283185307179586);
        net.move_node(w, Vec3{at.x + 1.5 * std::cos(heading),
                              at.y + 1.5 * std::sin(heading), 0.0});
        mark_reach(net, w, {}, rows);
      }
    });
    ASSERT_TRUE(scoped) << "epoch " << epoch << " passed the patch cap";
  }
  const TopologyStats after = net.topology_stats();
  EXPECT_EQ(after.scoped_epochs, before.scoped_epochs + 20);
  EXPECT_EQ(after.snapshot_builds, before.snapshot_builds)
      << "every walker epoch patches; none rebuilds";
  common::Rng pairs(18);
  expect_epoch_matches_oracle(net, pairs, 2);
}

// ---------------------------------------------------------------------------
// Rerouting around a dead hop
// ---------------------------------------------------------------------------

/// Line A-B-C-D-E at 20 m pitch (sensor radio: 25 m) plus a bypass node X
/// adjacent to B, C and D only.  Killing C mid-flight forces the hop B->C
/// to fail; the channel must rediscover a route through X.
struct RepairRig {
  sim::Simulator sim;
  Network net;
  NodeId a, b, c, d, e, x;

  RepairRig() : net(sim, common::Rng(4)) {
    NodeConfig config;
    config.kind = NodeKind::kSensor;
    config.radio = LinkClass::sensor_radio();
    config.unlimited_energy = true;
    auto add = [&](double px, double py) {
      config.pos = {px, py, 0.0};
      return net.add_node(config);
    };
    a = add(0.0, 0.0);
    b = add(20.0, 0.0);
    c = add(40.0, 0.0);
    d = add(60.0, 0.0);
    e = add(80.0, 0.0);
    x = add(40.0, 12.0);
  }
};

TEST(EpochReroute, DeadHopReroutesThroughBypass) {
  RepairRig rig;
  ReliableChannel channel(rig.net, common::Rng(5));

  // The 4-hop line wins the initial route (shorter geometric distance than
  // the bypass), so the transfer starts through C.
  ASSERT_EQ(cached_shortest_path(rig.net, rig.a, rig.e),
            (std::vector<NodeId>{rig.a, rig.b, rig.c, rig.d, rig.e}));

  bool delivered = false;
  channel.unicast(rig.a, rig.e, 64, Budget::unlimited(),
                  [&](bool ok) { delivered = ok; });
  // Kill C after the route is locked in but before delivery completes.
  rig.sim.schedule(sim::SimTime::seconds(1e-4),
                   [&] { rig.net.set_node_up(rig.c, false); });
  rig.sim.run();

  EXPECT_TRUE(delivered);
  EXPECT_GE(channel.stats().reroutes, 1u);
}

}  // namespace
}  // namespace pgrid::net
