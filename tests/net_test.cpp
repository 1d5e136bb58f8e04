// Unit tests for the network substrate: connectivity, energy accounting,
// transmission semantics, routing, flooding/gossip, churn.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/network.hpp"
#include "net/routing.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

NodeConfig sensor_at(double x, double y) {
  NodeConfig c;
  c.pos = {x, y, 0.0};
  c.kind = NodeKind::kSensor;
  c.radio = LinkClass::sensor_radio();  // 25 m range
  c.battery_j = 2.0;
  return c;
}

class NetFixture : public ::testing::Test {
 protected:
  sim::Simulator sim;
  common::Rng rng{12345};
  Network net{sim, common::Rng(999)};
};

TEST_F(NetFixture, EnergyModelFirstOrderNumbers) {
  RadioEnergyModel m;
  // 1000 bits over 10 m: 1000*(50nJ + 100pJ*100) = 50uJ + 10uJ = 60 uJ.
  EXPECT_NEAR(m.tx_energy(1000, 10.0), 60e-6, 1e-12);
  EXPECT_NEAR(m.rx_energy(1000), 50e-6, 1e-12);
}

TEST_F(NetFixture, EnergyMeterDiesAtCapacity) {
  EnergyMeter meter(1.0);
  EXPECT_TRUE(meter.consume(0.6));
  EXPECT_FALSE(meter.dead());
  EXPECT_FALSE(meter.consume(0.5));
  EXPECT_TRUE(meter.dead());
  EXPECT_DOUBLE_EQ(meter.remaining(), 0.0);
  meter.reset();
  EXPECT_FALSE(meter.dead());
  EXPECT_DOUBLE_EQ(meter.consumed(), 0.0);
}

TEST_F(NetFixture, UnlimitedMeterNeverDies) {
  auto meter = EnergyMeter::unlimited();
  EXPECT_TRUE(meter.consume(1e9));
  EXPECT_FALSE(meter.dead());
  EXPECT_GT(meter.consumed(), 0.0);
}

TEST_F(NetFixture, LinkClassTransferTime) {
  auto wired = LinkClass::wired();  // 100 Mbps, 2 ms latency
  // 1 MB => 8e6 bits / 1e8 bps = 80 ms + 2 ms latency.
  EXPECT_NEAR(wired.transfer_time(1000000).to_seconds(), 0.082, 1e-9);
}

TEST_F(NetFixture, WirelessConnectivityByRange) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(20, 0));    // within 25 m
  const auto c = net.add_node(sensor_at(100, 0));   // out of range
  EXPECT_TRUE(net.connected(a, b));
  EXPECT_FALSE(net.connected(a, c));
  EXPECT_FALSE(net.connected(a, a));
  EXPECT_EQ(net.neighbors(a), std::vector<NodeId>{b});
}

TEST_F(NetFixture, WiredLinkConnectsDistantNodes) {
  NodeConfig base = sensor_at(0, 0);
  base.unlimited_energy = true;
  const auto a = net.add_node(base);
  base.pos = {10000, 0, 0};
  const auto b = net.add_node(base);
  EXPECT_FALSE(net.connected(a, b));
  net.add_wired_link(a, b);
  EXPECT_TRUE(net.connected(a, b));
  const LinkClass* link = net.link_between(a, b);
  ASSERT_NE(link, nullptr);
  EXPECT_FALSE(link->wireless);
}

TEST_F(NetFixture, DownNodeIsUnreachable) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(10, 0));
  const auto version = net.topology_version();
  net.set_node_up(b, false);
  EXPECT_GT(net.topology_version(), version);
  EXPECT_FALSE(net.connected(a, b));
  EXPECT_FALSE(net.alive(b));
  net.set_node_up(b, true);
  EXPECT_TRUE(net.connected(a, b));
}

TEST_F(NetFixture, TransmitDeliversAndChargesEnergy) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(10, 0));
  bool delivered = false;
  net.transmit(a, b, 100, [&](bool ok) { delivered = ok; });
  sim.run();
  EXPECT_TRUE(delivered);
  EXPECT_GT(net.energy(a).consumed(), 0.0);
  EXPECT_GT(net.energy(b).consumed(), 0.0);
  EXPECT_GT(net.energy(a).consumed(), net.energy(b).consumed())
      << "tx includes amplifier energy, rx does not";
  EXPECT_EQ(net.node(a).tx_bytes, 100u);
  EXPECT_EQ(net.node(b).rx_bytes, 100u);
  EXPECT_EQ(net.stats().delivered, 1u);
}

TEST_F(NetFixture, TransmitToUnreachableFails) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto c = net.add_node(sensor_at(500, 0));
  bool result = true;
  net.transmit(a, c, 100, [&](bool ok) { result = ok; });
  sim.run();
  EXPECT_FALSE(result);
}

TEST_F(NetFixture, TransmitTakesSimulatedTime) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(10, 0));
  double arrival = -1.0;
  net.transmit(a, b, 480, [&](bool) { arrival = sim.now().to_seconds(); });
  sim.run();
  // sensor radio: 10ms latency + 480*8/38400 = 0.1 s => >= 0.11 s
  EXPECT_GE(arrival, 0.11 - 1e-9);
}

TEST_F(NetFixture, LossyLinkEventuallyDropsWithoutRetries) {
  // Force 100% loss: every transmit must fail.
  NodeConfig c = sensor_at(0, 0);
  c.radio.loss_prob = 1.0;
  const auto a = net.add_node(c);
  c.pos = {10, 0, 0};
  const auto b = net.add_node(c);
  net.set_max_retries(2);
  bool result = true;
  net.transmit(a, b, 50, [&](bool ok) { result = ok; });
  sim.run();
  EXPECT_FALSE(result);
  EXPECT_EQ(net.stats().dropped, 1u);
  // Retries still cost transmissions/energy.
  EXPECT_GE(net.stats().transmissions, 2u);
}

TEST_F(NetFixture, SendRouteMultiHop) {
  // Chain 0-1-2-3, spacing 20 m (in range pairwise only).
  std::vector<NodeId> chain;
  for (int i = 0; i < 4; ++i) chain.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  bool ok = false;
  std::size_t hops = 0;
  net.send_route(chain, 100, [&](bool delivered, std::size_t h) {
    ok = delivered;
    hops = h;
  });
  sim.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(hops, 3u);
  // Middle nodes both received and forwarded.
  EXPECT_EQ(net.node(chain[1]).rx_bytes, 100u);
  EXPECT_EQ(net.node(chain[1]).tx_bytes, 100u);
}

TEST_F(NetFixture, SendRouteFailsWhenMiddleNodeDown) {
  std::vector<NodeId> chain;
  for (int i = 0; i < 4; ++i) chain.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  net.set_node_up(chain[2], false);
  bool ok = true;
  net.send_route(chain, 100, [&](bool delivered, std::size_t) { ok = delivered; });
  sim.run();
  EXPECT_FALSE(ok);
}

TEST_F(NetFixture, ShortestPathFindsChain) {
  std::vector<NodeId> chain;
  for (int i = 0; i < 5; ++i) chain.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  const auto route = shortest_path(net, chain[0], chain[4]);
  EXPECT_EQ(route, chain);
}

TEST_F(NetFixture, ShortestPathPrefersFewerHops) {
  // Triangle: direct link a-c exists (20 m apart); a-b-c is longer.
  const auto a = net.add_node(sensor_at(0, 0));
  net.add_node(sensor_at(10, 10));
  const auto c = net.add_node(sensor_at(20, 0));
  const auto route = shortest_path(net, a, c);
  EXPECT_EQ(route, (std::vector<NodeId>{a, c}));
}

TEST_F(NetFixture, ShortestPathNoRoute) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(1000, 0));
  EXPECT_TRUE(shortest_path(net, a, b).empty());
}

TEST_F(NetFixture, ShortestPathSelf) {
  const auto a = net.add_node(sensor_at(0, 0));
  EXPECT_EQ(shortest_path(net, a, a), std::vector<NodeId>{a});
}

TEST_F(NetFixture, SinkTreeStructure) {
  // 3x3 grid, 20 m spacing, sink at corner.
  std::vector<NodeId> ids;
  for (int r = 0; r < 3; ++r) {
    for (int col = 0; col < 3; ++col) {
      ids.push_back(net.add_node(sensor_at(20.0 * col, 20.0 * r)));
    }
  }
  SinkTree tree(net, ids[0]);
  EXPECT_EQ(tree.sink(), ids[0]);
  EXPECT_TRUE(tree.contains(ids[8]));
  EXPECT_EQ(tree.depth(ids[0]), 0u);
  // Opposite corner is 4 hops away on a 3x3 4-neighbour... diagonal in-range?
  // spacing 20, diagonal 28.3 > 25 so strictly manhattan: depth 4.
  EXPECT_EQ(tree.depth(ids[8]), 4u);
  EXPECT_EQ(tree.max_depth(), 4u);
  const auto route = tree.route_to_sink(ids[8]);
  ASSERT_FALSE(route.empty());
  EXPECT_EQ(route.front(), ids[8]);
  EXPECT_EQ(route.back(), ids[0]);
  EXPECT_EQ(route.size(), 5u);
  // Every non-sink reachable node has its parent one hop shallower.
  for (NodeId id : tree.bfs_order()) {
    if (id == ids[0]) continue;
    EXPECT_EQ(tree.depth(id), tree.depth(tree.parent(id)) + 1);
  }
}

TEST_F(NetFixture, SinkTreeBfsOrderVisitsParentsFirst) {
  std::vector<NodeId> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  SinkTree tree(net, ids[0]);
  const auto& order = tree.bfs_order();
  ASSERT_EQ(order.size(), 6u);
  std::set<NodeId> seen;
  for (NodeId id : order) {
    if (id != tree.sink()) {
      EXPECT_TRUE(seen.count(tree.parent(id))) << "parent must precede child";
    }
    seen.insert(id);
  }
}

TEST_F(NetFixture, SinkTreeExcludesUnreachable) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto far = net.add_node(sensor_at(1000, 0));
  SinkTree tree(net, a);
  EXPECT_FALSE(tree.contains(far));
  EXPECT_TRUE(tree.route_to_sink(far).empty());
}

TEST_F(NetFixture, FloodReachesAllConnectedNodes) {
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) ids.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  net.add_node(sensor_at(2000, 0));  // island, unreachable
  std::set<NodeId> visited;
  std::size_t reached = 0;
  net.flood(ids[0], 50, [&](NodeId id) { visited.insert(id); },
            [&](std::size_t r) { reached = r; });
  sim.run();
  EXPECT_EQ(reached, 5u);
  EXPECT_EQ(visited.size(), 5u);
  EXPECT_FALSE(visited.count(5));
}

TEST_F(NetFixture, FloodFromDeadSourceReachesZero) {
  const auto a = net.add_node(sensor_at(0, 0));
  net.add_node(sensor_at(10, 0));
  net.set_node_up(a, false);
  std::size_t reached = 99;
  net.flood(a, 50, nullptr, [&](std::size_t r) { reached = r; });
  sim.run();
  EXPECT_EQ(reached, 0u);
}

TEST_F(NetFixture, GossipCheaperThanFlood) {
  // Dense cluster where flooding causes many redundant transmissions.
  std::vector<NodeId> ids;
  for (int r = 0; r < 5; ++r) {
    for (int c = 0; c < 5; ++c) {
      ids.push_back(net.add_node(sensor_at(8.0 * c, 8.0 * r)));
    }
  }
  net.flood(ids[0], 50, nullptr, nullptr);
  sim.run();
  const auto flood_tx = net.stats().transmissions;
  net.reset_energy();
  net.gossip(ids[0], 50, 2, nullptr, nullptr);
  sim.run();
  const auto gossip_tx = net.stats().transmissions;
  EXPECT_LT(gossip_tx, flood_tx);
}

TEST_F(NetFixture, ResetEnergyRefillsBatteries) {
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(10, 0));
  net.transmit(a, b, 1000, [](bool) {});
  sim.run();
  EXPECT_GT(net.battery_energy_consumed(), 0.0);
  net.reset_energy();
  EXPECT_DOUBLE_EQ(net.battery_energy_consumed(), 0.0);
  EXPECT_EQ(net.stats().transmissions, 0u);
}

TEST_F(NetFixture, RepeatedTransmitsKillBatteryNode) {
  NodeConfig c = sensor_at(0, 0);
  c.battery_j = 1e-4;  // tiny battery
  const auto a = net.add_node(c);
  const auto b = net.add_node(sensor_at(10, 0));
  int failures = 0;
  for (int i = 0; i < 200; ++i) {
    net.transmit(a, b, 1000, [&](bool ok) { failures += ok ? 0 : 1; });
  }
  sim.run();
  EXPECT_TRUE(net.energy(a).dead());
  EXPECT_GT(failures, 0);
  EXPECT_EQ(net.dead_node_count(), 1u);
}

TEST_F(NetFixture, DeployGridPlacesAllInBounds) {
  auto ids = deploy_grid(net, 49, 120.0, 120.0, sensor_at(0, 0));
  EXPECT_EQ(ids.size(), 49u);
  for (auto id : ids) {
    const auto& p = net.node(id).pos;
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 120.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 120.0);
  }
}

TEST_F(NetFixture, DeployRandomDeterministicGivenSeed) {
  common::Rng r1(777);
  common::Rng r2(777);
  auto a = deploy_random(net, 10, 100, 100, sensor_at(0, 0), r1);
  sim::Simulator sim2;
  Network net2(sim2, common::Rng(999));
  auto b = deploy_random(net2, 10, 100, 100, sensor_at(0, 0), r2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(net.node(a[i]).pos, net2.node(b[i]).pos);
  }
}

// Drops the first transmission over one specific hop, then behaves
// transparently.  Deterministic stand-in for a transient frame loss.
class DropHopOnceInjector final : public FaultInjector {
 public:
  DropHopOnceInjector(NodeId from, NodeId to) : from_(from), to_(to) {}

  bool severed(NodeId, NodeId) const override { return false; }
  HopEffect on_transmit(NodeId from, NodeId to, std::uint64_t) override {
    HopEffect effect;
    if (!fired_ && from == from_ && to == to_) {
      fired_ = true;
      effect.drop = true;
    }
    return effect;
  }

 private:
  NodeId from_;
  NodeId to_;
  bool fired_ = false;
};

// Regression for the flood stale-claim bug: a node whose first delivery
// fails used to stay marked visited in SpreadState forever, blacklisting
// it from every later branch.  Here b->c is dropped once; c must still be
// reached via the other branch (a-x-y-z-c).
TEST_F(NetFixture, FloodRedeliversAfterTransientHopFailure) {
  //   a(0,0) - b(20,0) - c(40,0)
  //   |         |         |
  //   x(0,20) - y(20,20)- z(40,20)     (25 m radio: no diagonals)
  const auto a = net.add_node(sensor_at(0, 0));
  const auto b = net.add_node(sensor_at(20, 0));
  const auto c = net.add_node(sensor_at(40, 0));
  net.add_node(sensor_at(0, 20));   // x
  net.add_node(sensor_at(20, 20));  // y
  net.add_node(sensor_at(40, 20));  // z
  DropHopOnceInjector injector(b, c);
  net.set_fault_injector(&injector);
  std::set<NodeId> visited;
  std::size_t reached = 0;
  net.flood(a, 50, [&](NodeId id) { visited.insert(id); },
            [&](std::size_t r) { reached = r; });
  sim.run();
  net.set_fault_injector(nullptr);
  EXPECT_EQ(reached, 6u);
  EXPECT_TRUE(visited.count(c)) << "failed claim must be released so the "
                                   "other branch can deliver";
}

// A node that churns down mid-flood must not wedge the flood: the failed
// delivery releases its SpreadState entry and the flood quiesces without it.
TEST_F(NetFixture, FloodSkipsNodeThatChurnsDownMidFlood) {
  std::vector<NodeId> ids;
  for (int i = 0; i < 5; ++i) {
    ids.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  }
  // The far-end node churns down while the flood is in flight, before the
  // wavefront (one ~20 ms hop per link) arrives.
  std::size_t reached = 0;
  bool done = false;
  net.flood(ids[0], 50, nullptr, [&](std::size_t r) {
    reached = r;
    done = true;
  });
  sim.schedule(sim::SimTime::milliseconds(30),
               [&] { net.set_node_up(ids[4], false); });
  sim.run();
  EXPECT_TRUE(done) << "flood must quiesce even when a member went down";
  EXPECT_EQ(reached, 4u);
}

// The audited churn-mid-flood case end to end: a node goes down after the
// flood starts (its claim fails and must be released) and churns back up
// while the flood is still spreading — a later branch must deliver to it.
TEST_F(NetFixture, FloodRecoversNodeThatChurnsDownAndBackMidFlood) {
  // Same 2x3 grid as above; c is reachable from b (fails: c is down) and
  // later from z (succeeds: c is back up).
  const auto a = net.add_node(sensor_at(0, 0));
  net.add_node(sensor_at(20, 0));  // b
  const auto c = net.add_node(sensor_at(40, 0));
  net.add_node(sensor_at(0, 20));   // x
  net.add_node(sensor_at(20, 20));  // y
  net.add_node(sensor_at(40, 20));  // z
  // Hop time is ~20.4 ms (10 ms latency + 50 B at 38.4 kbps).  b claims c
  // at ~20 ms (down -> claim released); z claims c at ~61 ms (back up).
  sim.schedule(sim::SimTime::milliseconds(15),
               [&] { net.set_node_up(c, false); });
  sim.schedule(sim::SimTime::milliseconds(50),
               [&] { net.set_node_up(c, true); });
  std::set<NodeId> visited;
  std::size_t reached = 0;
  net.flood(a, 50, [&](NodeId id) { visited.insert(id); },
            [&](std::size_t r) { reached = r; });
  sim.run();
  EXPECT_EQ(reached, 6u);
  EXPECT_TRUE(visited.count(c))
      << "node must be re-claimable after churning back up mid-flood";
}

// Partition-then-heal: no delivery crosses an active partition, routing
// (sink trees) excludes the cut side, and after the heal a rebuilt tree
// converges over the full deployment again.
TEST_F(NetFixture, SinkTreePartitionThenHeal) {
  // Chain s(0) - m(20) - f(40) - g(60); cut {f, g} off for 5 s.
  const auto s = net.add_node(sensor_at(0, 0));
  const auto m = net.add_node(sensor_at(20, 0));
  const auto f = net.add_node(sensor_at(40, 0));
  const auto g = net.add_node(sensor_at(60, 0));
  sim::ChaosEngine engine(net, 77);
  sim::Fault cut;
  cut.kind = sim::FaultKind::kPartition;
  cut.at = sim::SimTime::seconds(1.0);
  cut.duration = sim::SimTime::seconds(5.0);
  cut.group = {f, g};
  engine.arm_schedule({cut});

  const std::uint64_t version_before = net.topology_version();
  sim.run_until(sim::SimTime::seconds(2.0));  // partition active

  // Routing observes the cut: a fresh tree only spans the sink's side...
  SinkTree during(net, s);
  EXPECT_TRUE(during.contains(m));
  EXPECT_FALSE(during.contains(f));
  EXPECT_FALSE(during.contains(g));
  EXPECT_TRUE(shortest_path(net, s, f).empty());
  // ...the inside of the cut still holds together...
  EXPECT_TRUE(net.connected(f, g));
  // ...and no message is delivered across the active partition.
  const std::uint64_t f_rx_before = net.node(f).rx_bytes;
  bool delivered = true;
  net.transmit(m, f, 64, [&](bool ok) { delivered = ok; });
  sim.run_until(sim::SimTime::seconds(3.0));
  EXPECT_FALSE(delivered);
  EXPECT_EQ(net.node(f).rx_bytes, f_rx_before);

  sim.run();  // heal fires at t = 6 s
  EXPECT_TRUE(engine.quiescent());
  EXPECT_GT(net.topology_version(), version_before)
      << "cut and heal must invalidate routing caches";

  // After the heal a rebuilt tree converges over the whole chain and
  // passes the structural invariant.
  SinkTree healed(net, s);
  EXPECT_TRUE(healed.contains(f));
  EXPECT_TRUE(healed.contains(g));
  EXPECT_EQ(healed.depth(g), 3u);
  EXPECT_FALSE(sim::check_sink_tree_consistent(net, s).has_value());
  bool redelivered = false;
  net.transmit(m, f, 64, [&](bool ok) { redelivered = ok; });
  sim.run();
  EXPECT_TRUE(redelivered);
}

TEST_F(NetFixture, ChurnTogglesNodes) {
  std::vector<NodeId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(net.add_node(sensor_at(20.0 * i, 0)));
  ChurnConfig config;
  config.mean_up = sim::SimTime::seconds(5.0);
  config.mean_down = sim::SimTime::seconds(2.0);
  config.horizon = sim::SimTime::seconds(100.0);
  NodeChurn churn(net, ids, config, common::Rng(4242));
  int downs = 0;
  int ups = 0;
  churn.set_transition_callback([&](NodeId, bool up) { (up ? ups : downs)++; });
  churn.start();
  sim.run_until(sim::SimTime::seconds(100.0));
  sim.clear();
  EXPECT_GT(downs, 0);
  EXPECT_GT(ups, 0);
  EXPECT_EQ(churn.transitions(), static_cast<std::size_t>(downs + ups));
}

TEST_F(NetFixture, ChurnIsDeterministic) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator s;
    Network n(s, common::Rng(1));
    std::vector<NodeId> ids;
    for (int i = 0; i < 4; ++i) {
      NodeConfig c;
      c.pos = {20.0 * i, 0, 0};
      ids.push_back(n.add_node(c));
    }
    ChurnConfig config;
    config.mean_up = sim::SimTime::seconds(3.0);
    config.mean_down = sim::SimTime::seconds(1.0);
    config.horizon = sim::SimTime::seconds(50.0);
    NodeChurn churn(n, ids, config, common::Rng(seed));
    churn.start();
    s.run_until(sim::SimTime::seconds(50.0));
    s.clear();
    return churn.transitions();
  };
  EXPECT_EQ(run_once(5), run_once(5));
}

}  // namespace
}  // namespace pgrid::net
