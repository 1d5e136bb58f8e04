// Property tests for hop resolution, the per-hop path both fidelity tiers
// share:
//
//  1. Network::link_between (and connected(), which is its non-null test)
//     matches a test-local reference of the link rules field by field on
//     mixed-radio deployments with wired links toggled down, nodes crashed,
//     batteries drained and chaos cuts active.
//  2. FlowModel::hop_outcome's memoised closed forms equal freshly
//     computed ones while link classes, payload sizes and the retry budget
//     alternate.
//  3. Network::battery_energy_consumed() is bit-equal to a node-order scan
//     of an independently kept consumption model.
//  4. FlowModel::tree_eligible equals the per-edge walk with and without a
//     region override, an armed injector and an attached reliable channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/flow.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "net/routing.hpp"
#include "net/shard_map.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"

namespace pgrid::net {
namespace {

// ---------------------------------------------------------------------------
// Link resolution

struct HopCase {
  std::uint64_t seed;
  std::size_t sensors;
};

/// A mixed deployment: battery sensors, a few battery bluetooth handhelds,
/// a mains wifi base, and wired links (backhaul to a grid machine, a
/// battery-powered wired relay, two links from one sensor) whose up state
/// the test tracks itself.
class HopResolution : public ::testing::TestWithParam<HopCase> {
 protected:
  struct Wired {
    NodeId a;
    NodeId b;
    LinkClass link;
    bool up = true;
  };

  HopResolution() : net_(sim_, common::Rng(GetParam().seed)) {
    common::Rng placement(GetParam().seed ^ 0x51ab);
    const double side = 12.0 * std::ceil(std::sqrt(double(GetParam().sensors)));
    NodeConfig sensor;
    sensor.kind = NodeKind::kSensor;
    sensor.battery_j = 0.001;  // a few frames: traffic kills some mid-run
    ids_ = deploy_random(net_, GetParam().sensors, side, side, sensor,
                         placement);
    NodeConfig handheld;
    handheld.kind = NodeKind::kHandheld;
    handheld.radio = LinkClass::bluetooth();
    handheld.battery_j = 0.05;
    for (int i = 0; i < 3; ++i) {
      handheld.pos = {placement.uniform(0.0, side),
                      placement.uniform(0.0, side), 0.0};
      ids_.push_back(net_.add_node(handheld));
    }
    NodeConfig base;
    base.kind = NodeKind::kBaseStation;
    base.radio = LinkClass::wifi();
    base.unlimited_energy = true;
    base.pos = {side / 2, side / 2, 0.0};
    base_ = net_.add_node(base);
    NodeConfig machine;
    machine.kind = NodeKind::kGrid;
    machine.radio = LinkClass::wired();
    machine.unlimited_energy = true;
    machine.pos = {-500.0, -500.0, 0.0};
    grid_ = net_.add_node(machine);
    machine.unlimited_energy = false;  // a wired relay that can die
    machine.battery_j = 0.01;
    machine.pos = {-900.0, 0.0, 0.0};
    relay_ = net_.add_node(machine);
    ids_.push_back(relay_);

    LinkClass slow = LinkClass::wired();
    slow.name = "slow-wired";
    slow.bandwidth_bps = 2e6;
    slow.loss_prob = 0.01;
    add_wired(base_, grid_, LinkClass::wired());
    add_wired(grid_, relay_, slow);
    add_wired(ids_.front(), grid_, slow);
    add_wired(ids_.front(), relay_, LinkClass::wired());
    // A duplicate of an existing pair: the first link added stays in use.
    add_wired(grid_, base_, slow);
  }

  void add_wired(NodeId a, NodeId b, LinkClass link) {
    net_.add_wired_link(a, b, link);
    link.wireless = false;
    wired_.push_back(Wired{a, b, std::move(link), true});
  }

  void set_wired(std::size_t index, bool up) {
    const Wired& w = wired_[index];
    net_.set_wired_link_up(w.a, w.b, up);
    for (Wired& other : wired_) {
      if ((other.a == w.a && other.b == w.b) ||
          (other.a == w.b && other.b == w.a)) {
        other.up = up;  // the network toggles the pair's first link
      }
    }
  }

  /// The link rules, written out from scratch: no link to self; a chaos
  /// cut or a dead / down endpoint severs everything; a pair with a wired
  /// link uses the first one added (none while it is down); otherwise two
  /// radios in mutual range use the slower one.
  std::optional<LinkClass> reference(NodeId a, NodeId b) const {
    if (a == b) return std::nullopt;
    const FaultInjector* injector = net_.fault_injector();
    if (injector != nullptr && injector->severed(a, b)) return std::nullopt;
    if (!net_.alive(a) || !net_.alive(b)) return std::nullopt;
    for (const Wired& w : wired_) {
      if ((w.a == a && w.b == b) || (w.a == b && w.b == a)) {
        if (!w.up) return std::nullopt;
        return w.link;
      }
    }
    const Node& na = net_.node(a);
    const Node& nb = net_.node(b);
    if (!na.radio.wireless || !nb.radio.wireless) return std::nullopt;
    if (distance(na.pos, nb.pos) >
        std::min(na.radio.range_m, nb.radio.range_m)) {
      return std::nullopt;
    }
    return na.radio.bandwidth_bps <= nb.radio.bandwidth_bps ? na.radio
                                                            : nb.radio;
  }

  /// Every ordered pair, field by field; returns the count of usable links.
  std::size_t expect_all_pairs_match() const {
    std::size_t usable = 0;
    for (NodeId a = 0; a < net_.size(); ++a) {
      for (NodeId b = 0; b < net_.size(); ++b) {
        const auto want = reference(a, b);
        const LinkClass* got = net_.link_between(a, b);
        EXPECT_EQ(net_.connected(a, b), got != nullptr) << a << "->" << b;
        if (!want) {
          EXPECT_EQ(got, nullptr) << a << "->" << b << " should be severed";
          continue;
        }
        ++usable;
        if (got == nullptr) {
          ADD_FAILURE() << a << "->" << b << " should use " << want->name;
          continue;
        }
        EXPECT_EQ(got->name, want->name) << a << "->" << b;
        EXPECT_EQ(got->bandwidth_bps, want->bandwidth_bps) << a << "->" << b;
        EXPECT_EQ(got->latency, want->latency) << a << "->" << b;
        EXPECT_EQ(got->loss_prob, want->loss_prob) << a << "->" << b;
        EXPECT_EQ(got->range_m, want->range_m) << a << "->" << b;
        EXPECT_EQ(got->wireless, want->wireless) << a << "->" << b;
      }
    }
    return usable;
  }

  sim::Simulator sim_;
  Network net_;
  std::vector<NodeId> ids_;  ///< battery nodes (sensors, handhelds, relay)
  NodeId base_ = kInvalidNode;
  NodeId grid_ = kInvalidNode;
  NodeId relay_ = kInvalidNode;
  std::vector<Wired> wired_;
};

TEST_P(HopResolution, PointerLinkMatchesReferenceUnderChaosAndDeaths) {
  sim::ChaosEngine engine(net_, GetParam().seed);
  sim::ChaosConfig config;
  config.horizon = sim::SimTime::seconds(30.0);
  config.fault_count = 12;
  config.mix = sim::ChaosMix::partition_storm();
  engine.arm(config);

  ChurnConfig churn_config;
  churn_config.mean_up = sim::SimTime::seconds(5.0);
  churn_config.mean_down = sim::SimTime::seconds(2.0);
  churn_config.horizon = sim::SimTime::seconds(30.0);
  NodeChurn churn(net_, ids_, churn_config,
                  common::Rng(GetParam().seed + 3));
  churn.start();

  // Traffic to a current neighbour (a random node when there is none)
  // drains batteries; wired toggles flip pairs down and back up.
  common::Rng traffic(GetParam().seed + 11);
  for (int i = 0; i < 120; ++i) {
    sim_.schedule(sim::SimTime::seconds(0.25 * i), [this, &traffic, i] {
      const NodeId a = static_cast<NodeId>(traffic.index(net_.size()));
      const auto peers = net_.neighbors(a);
      const NodeId b =
          peers.empty() ? static_cast<NodeId>(traffic.index(net_.size()))
                        : peers[traffic.index(peers.size())];
      net_.transmit(a, b, 512, [](bool) {});
      if (i % 10 == 0) set_wired(traffic.index(wired_.size()), i % 20 != 0);
    });
  }
  std::size_t usable = 0;
  for (int probe = 0; probe < 10; ++probe) {
    sim_.schedule(sim::SimTime::seconds(0.1 + 3.0 * probe),
                  [this, &usable] { usable += expect_all_pairs_match(); });
  }
  sim_.run();
  usable += expect_all_pairs_match();
  EXPECT_GT(usable, 0u);
  EXPECT_GT(net_.dead_node_count(), 0u) << "no battery death was exercised";
}

TEST_P(HopResolution, WiredHopToADownOrDeadEndpointFails) {
  // Crashed endpoint: both the reference and the network refuse the hop,
  // and a transmit fails without the receiver hearing anything.
  const NodeId sensor = ids_.front();
  ASSERT_TRUE(net_.connected(sensor, relay_));
  net_.set_node_up(relay_, false);
  EXPECT_FALSE(net_.connected(sensor, relay_));
  EXPECT_EQ(net_.link_between(sensor, relay_), nullptr);
  std::optional<bool> delivered;
  net_.transmit(sensor, relay_, 64, [&](bool ok) { delivered = ok; });
  sim_.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);
  EXPECT_EQ(net_.node(relay_).rx_count, 0u);
  net_.set_node_up(relay_, true);
  expect_all_pairs_match();

  // Battery-dead endpoint: the same, with the node still administratively
  // up.
  net_.drain_energy(relay_, net_.energy(relay_).capacity() + 1.0);
  ASSERT_TRUE(net_.energy(relay_).dead());
  EXPECT_FALSE(net_.connected(grid_, relay_));
  EXPECT_EQ(net_.link_between(grid_, relay_), nullptr);
  delivered.reset();
  net_.transmit(grid_, relay_, 64, [&](bool ok) { delivered = ok; });
  sim_.run();
  ASSERT_TRUE(delivered.has_value());
  EXPECT_FALSE(*delivered);
  EXPECT_EQ(net_.node(relay_).rx_count, 0u);
  expect_all_pairs_match();
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, HopResolution,
    ::testing::Values(HopCase{1, 20}, HopCase{5, 36}, HopCase{9, 49},
                      HopCase{17, 64}),
    [](const ::testing::TestParamInfo<HopCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_n" +
             std::to_string(info.param.sensors);
    });

// ---------------------------------------------------------------------------
// Memoised closed forms

TEST(HopOutcomeMemo, MatchesFreshClosedFormsAcrossAlternatingKeys) {
  sim::Simulator sim;
  Network net(sim, common::Rng(4));
  NodeConfig config;
  config.kind = NodeKind::kSensor;
  const NodeId s0 = net.add_node(config);
  config.pos = {10.0, 0.0, 0.0};
  const NodeId s1 = net.add_node(config);
  config.radio = LinkClass::wifi();
  config.pos = {0.0, 50.0, 0.0};
  const NodeId w0 = net.add_node(config);
  config.pos = {60.0, 50.0, 0.0};
  config.unlimited_energy = true;
  const NodeId w1 = net.add_node(config);
  // Same bandwidth and latency as the sensor radio, other loss: a memo
  // that ignored loss would hand these hops the sensor's forms.
  config.radio = LinkClass::sensor_radio();
  config.radio.name = "lossy-sensor";
  config.radio.loss_prob = 0.3;
  config.unlimited_energy = false;
  config.pos = {0.0, 300.0, 0.0};
  const NodeId l0 = net.add_node(config);
  config.pos = {12.0, 300.0, 0.0};
  const NodeId l1 = net.add_node(config);
  // Same bandwidth and loss as the sensor radio, other latency.
  config.radio = LinkClass::sensor_radio();
  config.radio.name = "slow-start-sensor";
  config.radio.latency = sim::SimTime::milliseconds(40);
  config.pos = {0.0, 600.0, 0.0};
  const NodeId t0 = net.add_node(config);
  config.pos = {8.0, 600.0, 0.0};
  const NodeId t1 = net.add_node(config);
  config.radio = LinkClass::wired();
  config.unlimited_energy = true;
  config.pos = {-400.0, 0.0, 0.0};
  const NodeId g0 = net.add_node(config);
  net.add_wired_link(w1, g0);

  FlowConfig flow_config;
  flow_config.enabled = true;
  FlowModel flow(net, flow_config, common::Rng(8));

  const std::vector<std::pair<NodeId, NodeId>> hops = {
      {s0, s1}, {l0, l1}, {w0, w1}, {s1, s0}, {t0, t1},
      {w1, g0}, {s0, s1}, {g0, w1}, {w1, w0}, {l1, l0}};
  const std::vector<std::uint64_t> sizes = {24, 16, 1500, 64};
  const std::vector<std::size_t> retries = {3, 0, 5};
  std::size_t checked = 0;
  auto check = [&](NodeId a, NodeId b, std::uint64_t bytes, std::size_t m) {
    net.set_max_retries(m);
    const LinkClass* link = net.link_between(a, b);
    ASSERT_NE(link, nullptr) << a << "->" << b;
    FlowModel::HopOutcome got;
    ASSERT_TRUE(flow.hop_outcome(a, b, bytes, got)) << a << "->" << b;

    const double p = std::clamp(link->loss_prob, 0.0, 1.0);
    const double attempts = FlowModel::expected_attempts(p, m);
    const sim::SimTime base = link->transfer_time(bytes);
    const auto latency = sim::SimTime::microseconds(static_cast<std::int64_t>(
        std::llround(static_cast<double>(base.us) * attempts)));
    const RadioEnergyModel radio;
    const double tx =
        link->wireless && !net.energy(a).is_unlimited()
            ? attempts * radio.tx_energy(
                             bytes * 8, distance(net.node(a).pos,
                                                 net.node(b).pos))
            : 0.0;
    const double rx = link->wireless && !net.energy(b).is_unlimited()
                          ? radio.rx_energy(bytes * 8)
                          : 0.0;
    const std::string at = std::to_string(a) + "->" + std::to_string(b) +
                           " bytes " + std::to_string(bytes) + " m " +
                           std::to_string(m);
    EXPECT_EQ(got.loss_p, p) << at;
    EXPECT_EQ(got.success_p, FlowModel::hop_success_p(p, m)) << at;
    EXPECT_EQ(got.expected_attempts, attempts) << at;
    EXPECT_EQ(got.base_latency, base) << at;
    EXPECT_EQ(got.latency, latency) << at;
    EXPECT_EQ(got.tx_joules, tx) << at;
    EXPECT_EQ(got.rx_joules, rx) << at;
    EXPECT_EQ(got.wireless, link->wireless) << at;
    ++checked;
  };
  // Three loop orders, so consecutive calls differ in the link class
  // alone, in the payload size alone, and in the retry budget alone.
  for (std::size_t m : retries) {
    for (std::uint64_t bytes : sizes) {
      for (const auto& [a, b] : hops) check(a, b, bytes, m);
    }
  }
  for (std::size_t m : retries) {
    for (const auto& [a, b] : hops) {
      for (std::uint64_t bytes : sizes) check(a, b, bytes, m);
    }
  }
  for (const auto& [a, b] : hops) {
    for (std::uint64_t bytes : sizes) {
      for (std::size_t m : retries) check(a, b, bytes, m);
    }
  }
  EXPECT_EQ(checked, 3 * hops.size() * sizes.size() * retries.size());
}

// ---------------------------------------------------------------------------
// Dense round energy sum

/// What every battery meter should read, kept by the test from the draws
/// it makes: EnergyMeter's rules (a dead meter draws nothing more, an
/// unlimited one never dies) restated.
struct EnergyModel {
  std::vector<double> capacity;
  std::vector<double> consumed;
  std::vector<bool> dead;
  std::vector<bool> unlimited;

  void add(double cap, bool mains) {
    capacity.push_back(cap);
    consumed.push_back(0.0);
    dead.push_back(false);
    unlimited.push_back(mains);
  }
  void draw(NodeId id, double joules) {
    if (!unlimited[id] && dead[id]) return;
    consumed[id] += joules;
    if (!unlimited[id] && consumed[id] >= capacity[id]) dead[id] = true;
  }
  void reset() {
    std::fill(consumed.begin(), consumed.end(), 0.0);
    std::fill(dead.begin(), dead.end(), false);
  }
  /// Battery nodes only, in node order.
  double battery_total() const {
    double total = 0.0;
    for (std::size_t id = 0; id < consumed.size(); ++id) {
      if (!unlimited[id]) total += consumed[id];
    }
    return total;
  }
};

TEST(BatteryEnergySum, BitEqualToNodeOrderScanAcrossDrawsDeathsAndResets) {
  sim::Simulator sim;
  Network net(sim, common::Rng(21));
  EnergyModel model;
  common::Rng rng(77);
  auto add_nodes = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      NodeConfig config;
      config.pos = {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0), 0.0};
      config.unlimited_energy = rng.bernoulli(0.2);
      config.battery_j = rng.uniform(0.001, 0.01);
      net.add_node(config);
      model.add(config.battery_j, config.unlimited_energy);
    }
  };
  auto expect_sum = [&](const char* when) {
    ASSERT_EQ(net.size(), model.consumed.size());
    // Bit-equal, not near: round accounting differences these totals.
    EXPECT_EQ(net.battery_energy_consumed(), model.battery_total()) << when;
    std::size_t dead = 0;
    for (NodeId id = 0; id < net.size(); ++id) {
      EXPECT_EQ(net.energy(id).consumed(), model.consumed[id]) << when;
      EXPECT_EQ(net.energy(id).dead(), model.dead[id]) << when;
      if (!model.unlimited[id] && model.dead[id]) ++dead;
    }
    EXPECT_EQ(net.dead_node_count(), dead) << when;
  };
  auto random_draws = [&](std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) {
      const auto id = static_cast<NodeId>(rng.index(net.size()));
      const double joules = rng.uniform(0.0, 0.002);
      net.drain_energy(id, joules);
      model.draw(id, joules);
    }
  };

  add_nodes(40);
  expect_sum("fresh");
  random_draws(300);
  expect_sum("after draws");
  EXPECT_GT(net.dead_node_count(), 0u) << "no death was exercised";
  add_nodes(25);  // nodes added later join the sum in node order
  random_draws(300);
  expect_sum("after late nodes");
  net.reset_energy();
  model.reset();
  expect_sum("after reset");
  random_draws(500);
  expect_sum("after draws past the reset");

  // Radio traffic draws through transmit(): the dense sum still equals a
  // node-order scan of the meters.
  for (int i = 0; i < 200; ++i) {
    net.transmit(static_cast<NodeId>(rng.index(net.size())),
                 static_cast<NodeId>(rng.index(net.size())), 256,
                 [](bool) {});
  }
  sim.run();
  double scan = 0.0;
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.energy(id).is_unlimited()) scan += net.energy(id).consumed();
  }
  EXPECT_EQ(net.battery_energy_consumed(), scan);
}

// ---------------------------------------------------------------------------
// Tree eligibility

/// The per-edge definition: every reachable node's parent edge eligible.
bool tree_eligible_by_walk(const FlowModel& flow, const SinkTree& tree) {
  if (!flow.config().enabled) return false;
  for (NodeId id : tree.bfs_order()) {
    if (id == tree.sink()) continue;
    if (!flow.hop_eligible(id, tree.parent(id))) return false;
  }
  return true;
}

TEST(TreeEligibility, EqualsPerEdgeWalkAcrossOverridesInjectorsAndChannels) {
  sim::Simulator sim;
  Network net(sim, common::Rng(2));
  NodeConfig sensor;
  sensor.kind = NodeKind::kSensor;
  const auto ids = deploy_grid(net, 36, 100.0, 100.0, sensor);
  NodeConfig base;
  base.kind = NodeKind::kBaseStation;
  base.radio = LinkClass::wifi();
  base.unlimited_energy = true;
  base.pos = {-5.0, -5.0, 0.0};
  const NodeId sink = net.add_node(base);
  base.pos = {5000.0, 5000.0, 0.0};
  const NodeId lonely = net.add_node(base);  // a tree with no edges

  // Two regions split the grid; region 1 holds none of the sink's tree
  // once its nodes are reassigned far away.
  ShardMap map({Vec3{0.0, 0.0, 0.0}, Vec3{100.0, 100.0, 0.0}}, 30.0);
  for (NodeId id = 0; id < net.size(); ++id) map.assign(id, net.node(id).pos);
  net.set_shard_map(&map);

  const SinkTree tree(net, sink);
  const SinkTree bare(net, lonely);
  ASSERT_GT(tree.max_depth(), 0u);
  ASSERT_EQ(bare.max_depth(), 0u);

  std::size_t compared = 0;
  auto expect_agree = [&](const FlowModel& flow, const std::string& when) {
    for (const SinkTree* t : {&tree, &bare}) {
      EXPECT_EQ(flow.tree_eligible(*t), tree_eligible_by_walk(flow, *t))
          << when << (t == &bare ? " (edgeless tree)" : "");
      ++compared;
    }
  };

  for (const bool enabled : {true, false}) {
    for (const Fidelity fallback : {Fidelity::kFlow, Fidelity::kPacket}) {
      FlowConfig config;
      config.enabled = enabled;
      config.default_fidelity = fallback;
      FlowModel flow(net, config, common::Rng(6));
      const std::string arm = std::string(enabled ? "enabled" : "disabled") +
                              (fallback == Fidelity::kFlow ? " flow"
                                                           : " packet");
      expect_agree(flow, arm + ", no override");
      for (const RegionId region : {RegionId{0}, RegionId{1}}) {
        for (const Fidelity f : {Fidelity::kPacket, Fidelity::kFlow}) {
          flow.set_region_fidelity(region, f);
          expect_agree(flow, arm + ", override region " +
                                 std::to_string(region));
        }
      }
      flow.set_region_fidelity(0, fallback);
      flow.set_region_fidelity(1, fallback);
      expect_agree(flow, arm + ", overrides cleared");
      {
        sim::ChaosEngine engine(net, 5);  // installs itself as injector
        expect_agree(flow, arm + ", armed injector");
        flow.set_region_fidelity(1, Fidelity::kPacket);
        expect_agree(flow, arm + ", armed injector + override");
        flow.set_region_fidelity(1, fallback);
      }
      ReliableChannel channel(net, common::Rng(9));
      net.set_reliable_channel(&channel);
      expect_agree(flow, arm + ", reliable channel");
      flow.set_region_fidelity(0, Fidelity::kPacket);
      expect_agree(flow, arm + ", reliable channel + override");
      net.set_reliable_channel(nullptr);
    }
  }
  EXPECT_EQ(compared, 4u * 10u * 2u);
}

}  // namespace
}  // namespace pgrid::net
