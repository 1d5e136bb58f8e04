#include "sim/chaos.hpp"

#include <algorithm>
#include <cassert>
#include <sstream>
#include <stdexcept>

namespace pgrid::sim {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLinkDegrade: return "link-degrade";
    case FaultKind::kBlackout: return "blackout";
    case FaultKind::kPartition: return "partition";
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kDelayJitter: return "delay-jitter";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kClockSkew: return "clock-skew";
    case FaultKind::kStationCrash: return "station-crash";
  }
  return "?";
}

std::string format_fault(const Fault& fault) {
  std::ostringstream out;
  out << "t=" << fault.at.to_seconds() << "s " << to_string(fault.kind)
      << " dur=" << fault.duration.to_seconds() << "s";
  if (fault.node != net::kInvalidNode) out << " node=" << fault.node;
  if (fault.magnitude != 0.0) out << " mag=" << fault.magnitude;
  if (!fault.group.empty()) {
    out << " group=[";
    for (std::size_t i = 0; i < fault.group.size(); ++i) {
      if (i) out << ",";
      out << fault.group[i];
    }
    out << "]";
  }
  return out.str();
}

std::string format_schedule(const Schedule& schedule) {
  std::ostringstream out;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    out << "  [" << i << "] " << format_fault(schedule[i]) << "\n";
  }
  return out.str();
}

ChaosMix ChaosMix::disconnection_heavy() {
  ChaosMix mix;
  mix.name = "disconnection-heavy";
  mix.weight[static_cast<std::size_t>(FaultKind::kCrash)] = 4.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kBlackout)] = 3.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kLinkDegrade)] = 2.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kDrop)] = 1.0;
  mix.min_duration_s = 1.0;
  mix.max_duration_s = 10.0;
  return mix;
}

ChaosMix ChaosMix::lossy_mesh() {
  ChaosMix mix;
  mix.name = "lossy-mesh";
  mix.weight[static_cast<std::size_t>(FaultKind::kDrop)] = 3.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kDuplicate)] = 2.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kDelayJitter)] = 2.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kLinkDegrade)] = 3.0;
  mix.min_duration_s = 0.5;
  mix.max_duration_s = 6.0;
  return mix;
}

ChaosMix ChaosMix::partition_storm() {
  ChaosMix mix;
  mix.name = "partition-storm";
  mix.weight[static_cast<std::size_t>(FaultKind::kPartition)] = 4.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kCrash)] = 2.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kClockSkew)] = 2.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kBlackout)] = 1.0;
  mix.min_duration_s = 2.0;
  mix.max_duration_s = 12.0;
  mix.max_cut_fraction = 0.4;
  return mix;
}

ChaosMix ChaosMix::station_outage() {
  ChaosMix mix;
  mix.name = "station-outage";
  mix.weight[static_cast<std::size_t>(FaultKind::kStationCrash)] = 4.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kDrop)] = 1.0;
  mix.weight[static_cast<std::size_t>(FaultKind::kLinkDegrade)] = 1.0;
  mix.min_duration_s = 1.0;
  mix.max_duration_s = 2.5;
  return mix;
}

const std::vector<ChaosMix>& canned_mixes() {
  static const std::vector<ChaosMix> mixes = {
      ChaosMix::disconnection_heavy(), ChaosMix::lossy_mesh(),
      ChaosMix::partition_storm()};
  return mixes;
}

const ChaosMix& mix_by_name(const std::string& name) {
  for (const auto& mix : canned_mixes()) {
    if (mix.name == name) return mix;
  }
  // Named specials that are deliberately not in the canned sweep set.
  static const ChaosMix station = ChaosMix::station_outage();
  if (name == station.name) return station;
  throw std::out_of_range("unknown chaos mix: " + name);
}

Schedule generate_schedule(const net::Network& network,
                           const ChaosConfig& config, std::uint64_t seed) {
  Schedule schedule;
  const std::size_t n = network.size();
  if (n == 0 || config.fault_count == 0) return schedule;

  common::Rng rng(seed);
  const ChaosMix& mix = config.mix;
  double total_weight = 0.0;
  for (double w : mix.weight) total_weight += w;
  if (total_weight <= 0.0) return schedule;

  // Clock-skew faults target base stations when the deployment has any —
  // that is where reported timestamps are stamped.
  std::vector<net::NodeId> bases;
  std::vector<net::NodeId> ids(n);
  for (net::NodeId id = 0; id < static_cast<net::NodeId>(n); ++id) {
    ids[id] = id;
    if (network.node(id).kind == net::NodeKind::kBaseStation) {
      bases.push_back(id);
    }
  }

  const double horizon_s = config.horizon.to_seconds();
  schedule.reserve(config.fault_count);
  for (std::size_t i = 0; i < config.fault_count; ++i) {
    Fault fault;
    // Draw order is part of the determinism contract: kind, time, duration,
    // node, then kind-specific extras.
    double pick = rng.uniform01() * total_weight;
    std::size_t kind = 0;
    while (kind + 1 < kFaultKindCount &&
           pick >= mix.weight[kind]) {
      pick -= mix.weight[kind];
      ++kind;
    }
    fault.kind = static_cast<FaultKind>(kind);

    const double at_s = rng.uniform(0.0, horizon_s * 0.8);
    double duration_s =
        rng.uniform(mix.min_duration_s, mix.max_duration_s);
    // Every fault heals at or before the horizon, so a drained run ends
    // with a clean topology (the sink-tree-after-heal invariant needs it).
    duration_s = std::min(duration_s, horizon_s - at_s);
    fault.at = SimTime::seconds(at_s);
    fault.duration = SimTime::seconds(duration_s);
    fault.node = ids[rng.index(n)];

    switch (fault.kind) {
      case FaultKind::kLinkDegrade:
        fault.magnitude = rng.uniform(0.05, 0.45);
        break;
      case FaultKind::kBlackout:
        break;
      case FaultKind::kPartition: {
        const auto cap = static_cast<std::size_t>(
            std::max(1.0, static_cast<double>(n) * mix.max_cut_fraction));
        const std::size_t cut =
            std::min<std::size_t>(1 + rng.index(cap), n - 1);
        std::vector<net::NodeId> pool = ids;
        rng.shuffle(std::span<net::NodeId>(pool));
        fault.group.assign(pool.begin(),
                           pool.begin() + static_cast<std::ptrdiff_t>(cut));
        std::sort(fault.group.begin(), fault.group.end());
        break;
      }
      case FaultKind::kDrop:
        fault.magnitude = rng.uniform(0.1, 0.9);
        break;
      case FaultKind::kDuplicate:
        fault.magnitude = rng.uniform(0.1, 0.5);
        break;
      case FaultKind::kDelayJitter:
        fault.magnitude = rng.uniform(0.005, 0.15);
        break;
      case FaultKind::kCrash:
        // Reboot state loss: joules drained from the battery on restart.
        fault.magnitude = rng.uniform(0.0, 0.01);
        break;
      case FaultKind::kClockSkew:
        fault.magnitude = rng.uniform(-5.0, 5.0);
        if (!bases.empty()) fault.node = bases[rng.index(bases.size())];
        break;
      case FaultKind::kStationCrash:
        // Reboot drain, as for kCrash; retarget to a base station (same
        // retarget draw pattern as clock skew, keeping the stream stable).
        fault.magnitude = rng.uniform(0.0, 0.01);
        if (!bases.empty()) fault.node = bases[rng.index(bases.size())];
        break;
    }
    schedule.push_back(std::move(fault));
  }

  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const Fault& a, const Fault& b) { return a.at < b.at; });
  return schedule;
}

ChaosEngine::ChaosEngine(net::Network& network, std::uint64_t seed)
    : network_(network), seed_(seed), rng_(seed ^ 0x5eedc8a05f00dULL) {
  network_.set_fault_injector(this);
}

ChaosEngine::~ChaosEngine() {
  disarm();
  if (network_.fault_injector() == this) network_.set_fault_injector(nullptr);
}

const Schedule& ChaosEngine::arm(const ChaosConfig& config) {
  return arm_schedule(generate_schedule(network_, config, seed_));
}

const Schedule& ChaosEngine::arm_schedule(Schedule schedule) {
  disarm();
  schedule_ = std::move(schedule);
  cut_slot_of_.assign(schedule_.size(), 0);
  Simulator& sim = network_.simulator();
  armed_.reserve(schedule_.size());
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    const SimTime at = std::max(schedule_[i].at, sim.now());
    armed_.push_back(sim.schedule_at(at, [this, i] { apply(i); }));
  }
  return schedule_;
}

std::size_t ChaosEngine::inject(Fault fault) {
  const std::size_t index = schedule_.size();
  schedule_.push_back(std::move(fault));
  cut_slot_of_.push_back(0);
  Simulator& sim = network_.simulator();
  const SimTime at = std::max(schedule_[index].at, sim.now());
  armed_.push_back(sim.schedule_at(at, [this, index] { apply(index); }));
  return index;
}

void ChaosEngine::disarm() {
  Simulator& sim = network_.simulator();
  for (EventHandle handle : armed_) sim.cancel(handle);
  armed_.clear();
  blackout_.clear();
  node_extra_loss_.clear();
  skew_s_.clear();
  cuts_.clear();
  cut_live_.clear();
  cut_slot_of_.clear();
  drop_prob_ = dup_prob_ = jitter_max_s_ = 0.0;
  active_ = 0;
}

double& ChaosEngine::slot(std::vector<double>& per_node, net::NodeId id) {
  if (id >= per_node.size()) per_node.resize(id + 1, 0.0);
  return per_node[id];
}

int& ChaosEngine::count_slot(std::vector<int>& per_node, net::NodeId id) {
  if (id >= per_node.size()) per_node.resize(id + 1, 0);
  return per_node[id];
}

void ChaosEngine::apply(std::size_t index) {
  const Fault& fault = schedule_[index];
  Simulator& sim = network_.simulator();
  auto& ledger = network_.telemetry();

  // Each fault is a first-class traced activity: the injection charge, the
  // heal event and anything the heal does (reboot energy drain) all land on
  // this trace, so post-mortems can line fault windows up against query
  // rows in the same ledger.
  const telemetry::TraceId trace = ledger.new_trace();
  TraceContextGuard guard(sim, trace);
  telemetry::Cost cost;
  cost.count = 1;
  ledger.charge(telemetry::Subsystem::kChaos, trace, cost);
  injected_.push_back(InjectedFault{index, fault, trace, sim.now()});
  ++active_;

  switch (fault.kind) {
    case FaultKind::kLinkDegrade:
      slot(node_extra_loss_, fault.node) += fault.magnitude;
      break;
    case FaultKind::kBlackout:
      ++count_slot(blackout_, fault.node);
      network_.bump_topology_version();
      break;
    case FaultKind::kPartition: {
      std::vector<bool> mask(network_.size(), false);
      for (net::NodeId id : fault.group) {
        if (id < mask.size()) mask[id] = true;
      }
      std::size_t cut_slot = cuts_.size();
      for (std::size_t s = 0; s < cut_live_.size(); ++s) {
        if (!cut_live_[s]) {
          cut_slot = s;
          break;
        }
      }
      if (cut_slot == cuts_.size()) {
        cuts_.emplace_back();
        cut_live_.push_back(false);
      }
      cuts_[cut_slot] = std::move(mask);
      cut_live_[cut_slot] = true;
      cut_slot_of_[index] = cut_slot;
      network_.bump_topology_version();
      break;
    }
    case FaultKind::kDrop:
      drop_prob_ += fault.magnitude;
      break;
    case FaultKind::kDuplicate:
      dup_prob_ += fault.magnitude;
      break;
    case FaultKind::kDelayJitter:
      jitter_max_s_ += fault.magnitude;
      break;
    case FaultKind::kCrash:
    case FaultKind::kStationCrash:
      network_.set_node_up(fault.node, false);
      if (on_transition_) on_transition_(fault.node, false);
      if (on_station_ &&
          network_.node(fault.node).kind == net::NodeKind::kBaseStation) {
        on_station_(fault.node, false);
      }
      break;
    case FaultKind::kClockSkew:
      slot(skew_s_, fault.node) += fault.magnitude;
      break;
  }

  // The heal event inherits the fault's trace context.
  armed_.push_back(sim.schedule(fault.duration, [this, index] {
    expire(index);
  }));
  if (on_fault_applied_) on_fault_applied_(fault);
}

void ChaosEngine::expire(std::size_t index) {
  const Fault& fault = schedule_[index];
  assert(active_ > 0);
  --active_;
  switch (fault.kind) {
    case FaultKind::kLinkDegrade:
      slot(node_extra_loss_, fault.node) -= fault.magnitude;
      break;
    case FaultKind::kBlackout:
      --count_slot(blackout_, fault.node);
      network_.bump_topology_version();
      break;
    case FaultKind::kPartition:
      cut_live_[cut_slot_of_[index]] = false;
      network_.bump_topology_version();
      break;
    case FaultKind::kDrop:
      drop_prob_ -= fault.magnitude;
      break;
    case FaultKind::kDuplicate:
      dup_prob_ -= fault.magnitude;
      break;
    case FaultKind::kDelayJitter:
      jitter_max_s_ -= fault.magnitude;
      break;
    case FaultKind::kCrash:
    case FaultKind::kStationCrash: {
      network_.set_node_up(fault.node, true);
      // Configurable state loss: rebooting costs battery (flash replay,
      // re-association).  Charged under the fault's trace, which this
      // event inherited from apply().
      net::Node& node = network_.node(fault.node);
      if (!network_.energy(fault.node).is_unlimited() &&
          fault.magnitude > 0.0) {
        // Routed through the network so a reboot that exhausts the battery
        // invalidates the adjacency snapshot and route cache.
        network_.drain_energy(fault.node, fault.magnitude);
        telemetry::Cost reboot;
        reboot.joules = fault.magnitude;
        network_.telemetry().charge(telemetry::Subsystem::kChaos, reboot);
      }
      if (on_transition_) on_transition_(fault.node, true);
      if (on_station_ && node.kind == net::NodeKind::kBaseStation) {
        on_station_(fault.node, true);
      }
      break;
    }
    case FaultKind::kClockSkew:
      slot(skew_s_, fault.node) -= fault.magnitude;
      break;
  }
}

double ChaosEngine::clock_skew_s(net::NodeId id) const {
  return id < skew_s_.size() ? skew_s_[id] : 0.0;
}

SimTime ChaosEngine::report_time(net::NodeId id) const {
  return network_.simulator().now() + SimTime::seconds(clock_skew_s(id));
}

bool ChaosEngine::severed(net::NodeId a, net::NodeId b) const {
  if ((a < blackout_.size() && blackout_[a] > 0) ||
      (b < blackout_.size() && blackout_[b] > 0)) {
    return true;
  }
  for (std::size_t s = 0; s < cuts_.size(); ++s) {
    if (!cut_live_[s]) continue;
    const auto& mask = cuts_[s];
    const bool in_a = a < mask.size() && mask[a];
    const bool in_b = b < mask.size() && mask[b];
    if (in_a != in_b) return true;
  }
  return false;
}

ChaosEngine::HopEffect ChaosEngine::on_transmit(net::NodeId from,
                                                net::NodeId to,
                                                std::uint64_t /*bytes*/) {
  HopEffect effect;
  if (from < node_extra_loss_.size()) effect.extra_loss += node_extra_loss_[from];
  if (to < node_extra_loss_.size()) effect.extra_loss += node_extra_loss_[to];
  // One rng draw per active window category, in fixed order — the engine's
  // stream stays bit-reproducible for a given seed and traffic sequence.
  if (drop_prob_ > 0.0) effect.drop = rng_.bernoulli(drop_prob_);
  if (dup_prob_ > 0.0) effect.duplicate = rng_.bernoulli(dup_prob_);
  if (jitter_max_s_ > 0.0) {
    effect.extra_delay = SimTime::seconds(rng_.uniform(0.0, jitter_max_s_));
  }
  return effect;
}

}  // namespace pgrid::sim
