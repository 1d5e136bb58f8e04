#include "sensornet/sensor_network.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>

#include "net/flow.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::sensornet {

namespace {
/// Size of a query/read request packet.
constexpr std::uint64_t kRequestBytes = 32;
}  // namespace

SensorNetwork::SensorNetwork(net::Network& network,
                             SensorNetworkConfig config, common::Rng rng)
    : network_(network), config_(config), rng_(rng) {
  net::NodeConfig sensor_config;
  sensor_config.kind = net::NodeKind::kSensor;
  sensor_config.radio = config_.radio;
  sensor_config.battery_j = config_.battery_j;
  const std::size_t floors = std::max<std::size_t>(1, config_.floors);
  // A non-zero world origin translates the whole deployment after local
  // placement; with the default zero origin no node is touched, keeping the
  // legacy single-region layout byte-identical (no extra move_node calls).
  const bool shifted = !(config_.origin == net::Vec3{});
  for (std::size_t floor = 0; floor < floors; ++floor) {
    const double z = static_cast<double>(floor) * config_.floor_height_m;
    std::vector<net::NodeId> storey;
    if (config_.grid_placement) {
      storey = net::deploy_grid(network_, config_.sensor_count,
                                config_.width_m, config_.height_m,
                                sensor_config);
    } else {
      storey = net::deploy_random(network_, config_.sensor_count,
                                  config_.width_m, config_.height_m,
                                  sensor_config, rng_);
    }
    if (floor > 0 || shifted) {
      for (net::NodeId id : storey) {
        auto pos = network_.node(id).pos;
        pos.x += config_.origin.x;
        pos.y += config_.origin.y;
        pos.z = config_.origin.z + z;
        network_.move_node(id, pos);
      }
    }
    sensors_.insert(sensors_.end(), storey.begin(), storey.end());
  }
  net::NodeConfig base_config;
  base_config.kind = net::NodeKind::kBaseStation;
  base_config.radio = config_.radio;
  base_config.pos = config_.base_pos + config_.origin;
  base_config.unlimited_energy = true;
  base_ = network_.add_node(base_config);
}

double SensorNetwork::sample(net::NodeId sensor, const ScalarField& field,
                             sim::SimTime t) {
  const double truth = field.value(network_.node(sensor).pos, t);
  return truth + rng_.normal(0.0, config_.noise_std);
}

int SensorNetwork::room_of(net::NodeId node) const {
  if (config_.room_size_m <= 0.0) return 101;
  const auto& pos = network_.node(node).pos;
  const int col = std::max(0, static_cast<int>(pos.x / config_.room_size_m));
  const int row = std::max(0, static_cast<int>(pos.y / config_.room_size_m));
  return 100 * (row + 1) + (col + 1);
}

std::size_t SensorNetwork::floor_of(net::NodeId node) const {
  if (config_.floors <= 1 || config_.floor_height_m <= 0.0) return 0;
  const double z = network_.node(node).pos.z;
  const auto floor = static_cast<std::size_t>(
      std::max(0.0, z / config_.floor_height_m + 0.5));
  return std::min(floor, config_.floors - 1);
}

double SensorNetwork::building_depth_m() const {
  if (config_.floors <= 1) return 0.0;
  return static_cast<double>(config_.floors) * config_.floor_height_m;
}

const net::SinkTree& SensorNetwork::tree() { return *current_tree(); }

const std::shared_ptr<const net::SinkTree>& SensorNetwork::current_tree() {
  if (!tree_ || tree_->built_at_version() != network_.topology_version()) {
    tree_ = std::make_shared<const net::SinkTree>(network_, base_);
  }
  return tree_;
}

std::size_t SensorNetwork::alive_sensors() const {
  std::size_t count = 0;
  for (net::NodeId id : sensors_) {
    if (network_.alive(id)) ++count;
  }
  return count;
}

struct SensorNetwork::RoundState {
  CollectCallback done;
  CollectionResult result;
  std::size_t outstanding = 0;
  double energy_before = 0.0;
  sim::SimTime started;
  bool finished = false;
  /// Sensing span covering the whole round; the per-hop radio costs are
  /// charged by the network under the same trace.
  std::optional<telemetry::Span> span;
};

std::shared_ptr<SensorNetwork::RoundState> SensorNetwork::begin_round(
    CollectCallback done) {
  auto round = std::make_shared<RoundState>();
  round->done = std::move(done);
  round->energy_before = network_.battery_energy_consumed();
  round->started = network_.simulator().now();
  round->span.emplace(network_.telemetry(), telemetry::Subsystem::kSensing);
  return round;
}

void SensorNetwork::finish_round(const std::shared_ptr<RoundState>& round) {
  if (round->finished || round->outstanding != 0) return;
  round->finished = true;
  round->result.energy_j =
      network_.battery_energy_consumed() - round->energy_before;
  round->result.elapsed_s =
      (network_.simulator().now() - round->started).to_seconds();
  round->result.complete = round->result.reports == round->result.expected;
  round->span->close();
  round->done(round->result);
}

namespace {
/// Samples every alive sensor once (noise drawn for all, so the stream is
/// filter-independent) and keeps those passing the WHERE filter.
std::vector<std::pair<net::NodeId, double>> qualifying_samples(
    SensorNetwork& snet, const ScalarField& field,
    const SensorNetwork::SensorFilter& filter) {
  std::vector<std::pair<net::NodeId, double>> out;
  const sim::SimTime now = snet.network().simulator().now();
  for (net::NodeId sensor : snet.sensors()) {
    if (!snet.network().alive(sensor)) continue;
    const double value = snet.sample(sensor, field, now);
    if (filter && !filter(sensor, value)) continue;
    out.emplace_back(sensor, value);
  }
  return out;
}
}  // namespace

void SensorNetwork::collect_all_to_base(const ScalarField& field,
                                        CollectCallback done,
                                        SensorFilter filter,
                                        net::Budget budget) {
  auto round = begin_round(std::move(done));
  const auto& routing_tree = tree();
  const auto qualified = qualifying_samples(*this, field, filter);
  round->result.expected = qualified.size();
  for (const auto& [sensor, value] : qualified) {
    const net::Vec3 pos = network_.node(sensor).pos;
    const net::NodeId sensor_id = sensor;
    const double reading = value;
    auto complete = [this, round, sensor_id, pos, reading](bool ok) {
      if (ok) {
        round->result.aggregate.add(reading);
        round->result.raw.push_back(RawReading{sensor_id, pos, reading});
        ++round->result.reports;
      }
      --round->outstanding;
      finish_round(round);
    };
    // Best effort follows the sink tree (its BFS routes, not the unicast
    // Dijkstra path); a disconnected sensor fails and counts as missing.
    const auto route = routing_tree.route_to_sink(sensor);
    ++round->outstanding;
    network_.deliver(sensor_id, base_, config_.sample_bytes, budget,
                     std::move(complete), &route);
  }
  if (round->outstanding == 0) {
    network_.simulator().schedule(sim::SimTime::zero(),
                                  [this, round] { finish_round(round); });
  }
}

namespace {
/// One tree node's partial aggregate this epoch and how many readings it
/// represents.  Indexed by NodeId: a node holding nothing reads as the
/// default entry (count 0, no reports), which every TAG check treats as
/// "nothing to send".
struct Partial {
  AggregateState state;
  std::size_t reports = 0;
};

/// Seeds each qualifying in-tree sensor's partial with its own sample;
/// returns the number seeded (the round's expected report count).
std::size_t seed_partials(
    const net::SinkTree& tree,
    const std::vector<std::pair<net::NodeId, double>>& qualified,
    std::vector<Partial>& partials) {
  std::size_t expected = 0;
  for (const auto& [sensor, value] : qualified) {
    if (!tree.contains(sensor)) continue;
    partials[sensor].state.add(value);
    partials[sensor].reports = 1;
    ++expected;
  }
  return expected;
}
}  // namespace

void SensorNetwork::collect_tree_aggregate(const ScalarField& field,
                                           CollectCallback done,
                                           SensorFilter filter,
                                           net::Budget budget) {
  // Fidelity dispatch: with a flow model installed and every tree edge
  // eligible, the whole epoch resolves analytically in one event.  Acked
  // delivery (FlowModel::hop_eligible) keeps the packet path, as does any
  // tree with a packet-fidelity edge.
  if (network_.flow_model() != nullptr) {
    net::FlowModel& flow = *network_.flow_model();
    if (flow.tree_eligible(tree())) {
      collect_tree_flow(field, std::move(done), std::move(filter));
      return;
    }
    flow.note_packet_fallback();
  }
  auto round = begin_round(std::move(done));
  // Hold this round's tree: a topology change mid-round replaces tree_
  // without touching the tree this round's schedule was built against.
  std::shared_ptr<const net::SinkTree> routing_tree = current_tree();
  const auto qualified = qualifying_samples(*this, field, filter);

  // Per-node partial states; qualifying sensors contribute their sample.
  // Non-qualifying tree nodes still relay their children's states.
  auto partials = std::make_shared<std::vector<Partial>>(network_.size());
  round->result.expected = seed_partials(*routing_tree, qualified, *partials);

  const std::size_t deepest = routing_tree->max_depth();
  if (deepest == 0) {
    network_.simulator().schedule(sim::SimTime::zero(),
                                  [this, round] { finish_round(round); });
    return;
  }

  // Transmit deepest level first so parents hold complete subtree states
  // when their turn comes (TAG's epoch schedule).
  auto run_level = std::make_shared<std::function<void(std::size_t)>>();
  *run_level = [this, round, partials, run_level, routing_tree,
                budget](std::size_t depth) {
    if (depth == 0) {
      // All partial states have arrived at (or failed before) the base.
      round->result.aggregate = (*partials)[base_].state;
      round->result.reports = (*partials)[base_].reports;
      finish_round(round);
      // `*run_level` captures `run_level`; break the cycle (deferred:
      // destroying the std::function currently executing is UB).
      network_.simulator().schedule(sim::SimTime::zero(),
                                    [run_level] { *run_level = nullptr; });
      return;
    }
    const auto level_nodes = routing_tree->level(depth);
    auto pending = std::make_shared<std::size_t>(level_nodes.size());
    if (level_nodes.empty()) {
      (*run_level)(depth - 1);
      return;
    }
    for (net::NodeId id : level_nodes) {
      const net::NodeId parent = routing_tree->parent(id);
      const Partial& held = (*partials)[id];
      auto advance = [this, pending, run_level, depth] {
        if (--*pending == 0) (*run_level)(depth - 1);
      };
      if (held.state.count == 0 || !network_.alive(id)) {
        network_.simulator().schedule(sim::SimTime::zero(), advance);
        continue;
      }
      auto complete = [partials, parent, to_send = held, advance](bool ok) {
        if (ok) {
          Partial& into = (*partials)[parent];
          into.state.merge(to_send.state);
          into.reports += to_send.reports;
        }
        advance();
      };
      // Under acked delivery a lost partial state is retransmitted instead
      // of silently shrinking the subtree.
      network_.deliver_hop(id, parent, config_.state_bytes, budget,
                           std::move(complete));
    }
  };
  (*run_level)(deepest);
}

void SensorNetwork::collect_tree_flow(const ScalarField& field,
                                      CollectCallback done,
                                      SensorFilter filter) {
  auto round = begin_round(std::move(done));
  net::FlowModel& flow = *network_.flow_model();
  const net::SinkTree& routing_tree = tree();
  const auto qualified = qualifying_samples(*this, field, filter);

  std::vector<Partial> partials(network_.size());
  round->result.expected = seed_partials(routing_tree, qualified, partials);

  const std::size_t deepest = routing_tree.max_depth();
  if (deepest == 0) {
    network_.simulator().schedule(sim::SimTime::zero(),
                                  [this, round] { finish_round(round); });
    return;
  }

  // TAG's epoch schedule, resolved analytically: per level (deepest first),
  // every state-holding node's parent edge gets one loss draw + one
  // expectation-value charge, and the level's duration is the slowest of
  // the n concurrent transmitters — E[max of n truncated-geometric attempt
  // counts], not n * E[attempts], so deep fan-in does not underestimate.
  // That order statistic depends only on (n, loss_p), so it is evaluated
  // once per level and distinct loss probability, not once per hop.
  double total_us = 0.0;
  std::vector<net::NodeId> transmitters;
  for (std::size_t depth = deepest; depth >= 1; --depth) {
    transmitters.clear();
    for (net::NodeId id : routing_tree.level(depth)) {
      if (partials[id].state.count == 0 || !network_.alive(id)) continue;
      transmitters.push_back(id);
    }
    if (transmitters.empty()) continue;
    const std::size_t n = transmitters.size();
    double level_us = 0.0;
    std::optional<double> slowest_loss_p;
    double slowest = 0.0;
    for (net::NodeId id : transmitters) {
      const net::NodeId parent = routing_tree.parent(id);
      net::FlowModel::HopOutcome hop;
      if (!flow.hop_outcome(id, parent, config_.state_bytes, hop)) {
        // Edge vanished since the tree was built: the subtree is lost and
        // nobody is charged, as the packet tier's no-link transmit fails.
        continue;
      }
      bool ok = flow.rng().uniform01() < hop.success_p;
      ok = flow.charge_hop(id, parent, config_.state_bytes, hop, ok) && ok;
      if (ok) {
        partials[parent].state.merge(partials[id].state);
        partials[parent].reports += partials[id].reports;
      }
      if (slowest_loss_p != hop.loss_p) {
        slowest_loss_p = hop.loss_p;
        slowest = net::FlowModel::expected_max_attempts(
            n, hop.loss_p, network_.max_retries());
      }
      level_us = std::max(
          level_us, static_cast<double>(hop.base_latency.us) * slowest);
    }
    total_us += level_us;
  }

  const Partial at_base = partials[base_];
  flow.note_tree_epoch();
  network_.simulator().schedule(
      sim::SimTime::microseconds(
          static_cast<std::int64_t>(std::llround(total_us))),
      [this, round, at_base] {
        round->result.aggregate = at_base.state;
        round->result.reports = at_base.reports;
        finish_round(round);
      });
}

void SensorNetwork::collect_clustered(const ScalarField& field, std::size_t k,
                                      bool keep_raw_averages,
                                      CollectCallback done,
                                      SensorFilter filter,
                                      net::Budget budget) {
  auto round = begin_round(std::move(done));
  auto clusters = std::make_shared<std::vector<Cluster>>(
      form_clusters(network_, sensors_, k, rng_));
  const auto qualified = qualifying_samples(*this, field, filter);
  std::map<net::NodeId, double> values;
  for (const auto& [sensor, value] : qualified) values[sensor] = value;
  round->result.expected = qualified.size();

  if (clusters->empty()) {
    network_.simulator().schedule(sim::SimTime::zero(),
                                  [this, round] { finish_round(round); });
    return;
  }

  // Phase 1: qualifying members ship raw readings to their head; heads
  // sample locally.
  auto head_states =
      std::make_shared<std::vector<AggregateState>>(clusters->size());
  auto head_reports =
      std::make_shared<std::vector<std::size_t>>(clusters->size(), 0);
  auto phase1_pending = std::make_shared<std::size_t>(0);

  auto phase2 = [this, round, clusters, head_states, head_reports,
                 keep_raw_averages, budget] {
    // Phase 2: each head forwards one partial state to the base station.
    auto pending = std::make_shared<std::size_t>(clusters->size());
    for (std::size_t c = 0; c < clusters->size(); ++c) {
      const Cluster& cluster = (*clusters)[c];
      const AggregateState state = (*head_states)[c];
      const std::size_t reports = (*head_reports)[c];
      auto advance = [this, round, pending] {
        if (--*pending == 0) finish_round(round);
      };
      if (state.count == 0) {
        network_.simulator().schedule(sim::SimTime::zero(), advance);
        continue;
      }
      const net::Vec3 centroid = cluster.centroid;
      auto complete = [round, state, reports, centroid, keep_raw_averages,
                       advance](bool ok) {
        if (ok) {
          round->result.aggregate.merge(state);
          round->result.reports += reports;
          if (keep_raw_averages) {
            // Region averages arrive as synthetic readings at the
            // region centroid.
            round->result.raw.push_back(
                RawReading{net::kInvalidNode, centroid,
                           state.result(AggregateFunction::kAvg)});
          }
        }
        advance();
      };
      network_.deliver(cluster.head, base_, config_.state_bytes, budget,
                       std::move(complete));
    }
  };

  for (std::size_t c = 0; c < clusters->size(); ++c) {
    const Cluster& cluster = (*clusters)[c];
    for (net::NodeId member : cluster.members) {
      auto value_it = values.find(member);
      if (value_it == values.end()) continue;  // dead or filtered out
      const double value = value_it->second;
      if (member == cluster.head) {
        (*head_states)[c].add(value);
        ++(*head_reports)[c];
        continue;
      }
      auto complete = [c, value, head_states, head_reports, phase1_pending,
                       phase2](bool ok) {
        if (ok) {
          (*head_states)[c].add(value);
          ++(*head_reports)[c];
        }
        if (--*phase1_pending == 0) phase2();
      };
      ++*phase1_pending;
      network_.deliver(member, cluster.head, config_.sample_bytes, budget,
                       std::move(complete));
    }
  }
  if (*phase1_pending == 0) {
    network_.simulator().schedule(sim::SimTime::zero(), phase2);
  }
}

void SensorNetwork::collect_cluster_aggregate(const ScalarField& field,
                                              std::size_t k,
                                              CollectCallback done,
                                              SensorFilter filter,
                                              net::Budget budget) {
  collect_clustered(field, k, /*keep_raw_averages=*/false, std::move(done),
                    std::move(filter), budget);
}

void SensorNetwork::collect_region_averages(const ScalarField& field,
                                            std::size_t regions,
                                            CollectCallback done,
                                            SensorFilter filter,
                                            net::Budget budget) {
  collect_clustered(field, regions, /*keep_raw_averages=*/true,
                    std::move(done), std::move(filter), budget);
}

void SensorNetwork::read_sensor(net::NodeId sensor, const ScalarField& field,
                                ReadCallback done, net::Budget budget) {
  const double energy_before = network_.battery_energy_consumed();
  const sim::SimTime started = network_.simulator().now();
  auto span = std::make_shared<telemetry::Span>(
      network_.telemetry(), telemetry::Subsystem::kSensing);
  auto finish = [this, energy_before, started, span,
                 done = std::move(done)](bool ok, double value) {
    ReadResult result;
    result.ok = ok;
    result.value = value;
    result.elapsed_s = (network_.simulator().now() - started).to_seconds();
    result.energy_j = network_.battery_energy_consumed() - energy_before;
    span->close();
    done(result);
  };

  // Request down to the sensor, reading back up; under acked delivery both
  // legs share the round's budget so the whole round trip respects it.
  network_.deliver(
      base_, sensor, kRequestBytes, budget,
      [this, sensor, &field, finish, budget](bool ok) {
        if (!ok) {
          finish(false, 0.0);
          return;
        }
        const double value = sample(sensor, field, network_.simulator().now());
        network_.deliver(sensor, base_, config_.sample_bytes, budget,
                         [finish, value](bool ok_up) {
                           finish(ok_up, ok_up ? value : 0.0);
                         });
      });
}

}  // namespace pgrid::sensornet
