#include "net/flow.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/routing.hpp"

namespace pgrid::net {

namespace {
/// Round a (possibly congestion-scaled) microsecond expectation to the
/// integer kernel clock.  Always at least the truncation floor so a scaled
/// hop never finishes before its unscaled base time would round to.
sim::SimTime scaled_time(sim::SimTime base, double factor) {
  const double us = static_cast<double>(base.us) * factor;
  return sim::SimTime::microseconds(static_cast<std::int64_t>(std::llround(us)));
}
}  // namespace

FlowModel::FlowModel(Network& network, FlowConfig config, common::Rng rng)
    : network_(network), config_(config), rng_(rng) {}

// --- closed forms ----------------------------------------------------------

double FlowModel::hop_success_p(double loss_p, std::size_t max_retries) {
  if (loss_p <= 0.0) return 1.0;
  if (loss_p >= 1.0) return 0.0;
  return 1.0 - std::pow(loss_p, static_cast<double>(max_retries) + 1.0);
}

double FlowModel::expected_attempts(double loss_p, std::size_t max_retries) {
  // The packet tier's loop sends attempt i+1 iff the first i attempts all
  // lost, capped at max_retries+1 sends: E = sum_{i=0}^{m} p^i.
  if (loss_p <= 0.0) return 1.0;
  if (loss_p >= 1.0) return static_cast<double>(max_retries) + 1.0;
  const double m1 = static_cast<double>(max_retries) + 1.0;
  return (1.0 - std::pow(loss_p, m1)) / (1.0 - loss_p);
}

double FlowModel::expected_max_attempts(std::size_t n, double loss_p,
                                        std::size_t max_retries) {
  // E[max of n iid truncated-geometric attempt counts]: with
  // P(attempts > k) = p^k for k <= m, the max exceeds k unless all n stay
  // at or below it, so E[max] = sum_{k=0}^{m} (1 - (1 - p^k)^n).
  if (n == 0) return 0.0;
  if (loss_p <= 0.0) return 1.0;
  if (loss_p >= 1.0) return static_cast<double>(max_retries) + 1.0;
  double total = 0.0;
  for (std::size_t k = 0; k <= max_retries; ++k) {
    const double tail = std::pow(loss_p, static_cast<double>(k));
    total += 1.0 - std::pow(1.0 - tail, static_cast<double>(n));
  }
  return total;
}

// --- fidelity selection ----------------------------------------------------

void FlowModel::set_region_fidelity(RegionId region, Fidelity fidelity) {
  if (fidelity == config_.default_fidelity) {
    region_fidelity_.erase(region);
  } else {
    region_fidelity_[region] = fidelity;
  }
}

Fidelity FlowModel::region_fidelity(RegionId region) const {
  auto it = region_fidelity_.find(region);
  return it == region_fidelity_.end() ? config_.default_fidelity : it->second;
}

bool FlowModel::hop_eligible(NodeId a, NodeId b) const {
  if (!config_.enabled) return false;
  // An armed injector's drops/duplicates/jitter are per-transmit effects
  // the analytic tier cannot reproduce; chaos forces packet fidelity.
  if (network_.fault_injector() != nullptr) return false;
  // An attached reliable channel makes every hop packet fidelity: per-hop
  // ACK/retransmit semantics are exactly what the analytic tier must not
  // approximate.
  if (network_.reliable_channel() != nullptr) return false;
  if (region_fidelity(network_.region_of(a)) != Fidelity::kFlow) return false;
  if (region_fidelity(network_.region_of(b)) != Fidelity::kFlow) return false;
  return true;
}

bool FlowModel::route_eligible(const std::vector<NodeId>& route) const {
  if (!config_.enabled || route.size() < 2) return false;
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    if (!hop_eligible(route[i], route[i + 1])) return false;
  }
  return true;
}

bool FlowModel::tree_eligible(const SinkTree& tree) const {
  if (!config_.enabled) return false;
  for (NodeId id : tree.bfs_order()) {
    if (id == tree.sink()) continue;
    if (!hop_eligible(id, tree.parent(id))) return false;
  }
  return true;
}

// --- analytic service ------------------------------------------------------

bool FlowModel::hop_outcome(NodeId a, NodeId b, std::uint64_t bytes,
                            HopOutcome& out) const {
  const auto link = network_.link_between(a, b);
  if (!link) return false;
  const Node& sender = network_.nodes_[a];
  const Node& receiver = network_.nodes_[b];
  const std::size_t retries = network_.max_retries_;
  out.loss_p = std::clamp(link->loss_prob, 0.0, 1.0);
  out.success_p = hop_success_p(out.loss_p, retries);
  out.expected_attempts = expected_attempts(out.loss_p, retries);
  out.base_latency = link->transfer_time(bytes);
  out.latency = scaled_time(out.base_latency, out.expected_attempts);
  out.wireless = link->wireless;
  out.tx_joules = 0.0;
  out.rx_joules = 0.0;
  if (link->wireless) {
    const RadioEnergyModel radio;
    if (!sender.energy.is_unlimited()) {
      const double dist = distance(sender.pos, receiver.pos);
      out.tx_joules =
          out.expected_attempts * radio.tx_energy(bytes * 8, dist);
    }
    if (!receiver.energy.is_unlimited()) {
      out.rx_joules = radio.rx_energy(bytes * 8);
    }
  }
  return true;
}

bool FlowModel::charge_hop(NodeId a, NodeId b, std::uint64_t bytes,
                           const HopOutcome& hop, bool success) {
  // Mirrors Network::transmit's books at expectation value: one counted
  // transmission per hop (the expected-retry mass lives in
  // stats().expected_attempts), sender energy at E[attempts], receiver
  // energy only on success, battery deaths through consume_energy so the
  // liveness version tracks them.
  Node& sender = network_.nodes_[a];
  Node& receiver = network_.nodes_[b];
  NetworkStats& net_stats = network_.stats_;
  if (network_.shard_map_ != nullptr && network_.shard_map_->boundary(a, b)) {
    ++net_stats.cross_region_frames;
  }
  telemetry::Cost usage;
  ++net_stats.transmissions;
  net_stats.bytes_sent += bytes;
  usage.bytes += bytes;
  ++usage.count;
  sender.tx_bytes += bytes;
  ++sender.tx_count;
  bool ok = success;
  if (hop.tx_joules > 0.0) {
    net_stats.energy_j += hop.tx_joules;
    usage.joules += hop.tx_joules;
    if (!network_.consume_energy(sender, hop.tx_joules)) ok = false;
  }
  if (ok) {
    receiver.rx_bytes += bytes;
    ++receiver.rx_count;
    if (hop.rx_joules > 0.0) {
      net_stats.energy_j += hop.rx_joules;
      usage.joules += hop.rx_joules;
      if (!network_.consume_energy(receiver, hop.rx_joules)) ok = false;
    }
  }
  if (ok) {
    ++net_stats.delivered;
  } else {
    ++net_stats.dropped;
  }
  network_.ledger_.charge(hop.wireless ? telemetry::Subsystem::kWireless
                                       : telemetry::Subsystem::kBackhaul,
                          usage);
  ++stats_.analytic_hops;
  stats_.expected_attempts += hop.expected_attempts;
  return ok;
}

double FlowModel::congestion_factor(NodeId a, NodeId b) const {
  if (config_.congestion_alpha <= 0.0 || active_flows_.empty()) return 1.0;
  auto it = active_flows_.find(Network::pair_key(a, b));
  if (it == active_flows_.end()) return 1.0;
  return 1.0 + config_.congestion_alpha * static_cast<double>(it->second);
}

void FlowModel::send_flow(const std::vector<NodeId>& route,
                          std::uint64_t bytes, RouteCallback cb) {
  ++stats_.flows;
  const FlowPlan& plan = plan_for(route, bytes);

  // One draw decides the whole flow by inverse CDF over the failing-hop
  // distribution: walking hops, the flow survives hop i iff u < the product
  // of success probabilities through i — so the draw picks both the outcome
  // and, on failure, which hop broke.
  const double u = rng_.uniform01();
  double survive = 1.0;
  double total_us = 0.0;
  std::size_t completed = 0;
  bool delivered = true;
  std::vector<std::uint64_t> held;
  const bool track = config_.congestion_alpha > 0.0;
  const std::size_t usable = plan.viable ? plan.hops.size() : plan.broken_hop;
  for (std::size_t i = 0; i < usable; ++i) {
    const PlanHop& hop = plan.hops[i];
    const double factor = congestion_factor(hop.from, hop.to);
    if (track) {
      const std::uint64_t key = Network::pair_key(hop.from, hop.to);
      ++active_flows_[key];
      held.push_back(key);
    }
    survive *= hop.outcome.success_p;
    const bool hop_ok = u < survive;
    total_us += static_cast<double>(hop.outcome.latency.us) * factor;
    const bool alive_ok = charge_hop(hop.from, hop.to, bytes, hop.outcome,
                                     hop_ok);
    if (!hop_ok || !alive_ok) {
      delivered = false;
      completed = i;
      break;
    }
    completed = i + 1;
  }
  if (delivered && !plan.viable) {
    // The unusable hop fails without charging anyone, exactly as the packet
    // tier's transmit-with-no-link does.
    delivered = false;
    completed = plan.broken_hop;
  }
  if (delivered) {
    ++stats_.delivered;
  } else {
    ++stats_.failed;
  }

  const auto when = sim::SimTime::microseconds(
      static_cast<std::int64_t>(std::llround(total_us)));
  if (held.empty()) {
    network_.sim_.schedule(when,
                           [cb = std::move(cb), delivered,
                            completed]() mutable { cb(delivered, completed); });
  } else {
    network_.sim_.schedule(
        when, [this, keys = std::move(held), cb = std::move(cb), delivered,
               completed]() mutable {
          unregister_flow(keys);
          cb(delivered, completed);
        });
  }
}

void FlowModel::unregister_flow(const std::vector<std::uint64_t>& keys) {
  for (std::uint64_t key : keys) {
    auto it = active_flows_.find(key);
    if (it == active_flows_.end()) continue;
    if (--it->second == 0) active_flows_.erase(it);
  }
}

// --- plan cache ------------------------------------------------------------

std::uint64_t FlowModel::plan_key(NodeId src, NodeId dst,
                                  std::uint64_t bytes) {
  // FNV-1a over the (src, dst, bytes) triple: routes are directional, so
  // the key must not canonicalize the pair.
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t word :
       {static_cast<std::uint64_t>(src), static_cast<std::uint64_t>(dst),
        bytes}) {
    h ^= word;
    h *= 1099511628211ull;
  }
  return h;
}

void FlowModel::sync_plan_version() {
  // Apply any pending topology delta first, so the versions below are
  // final and the scoped delta (if any) reaches up to them.
  network_.sync_topology_caches();
  const std::uint64_t topo = network_.topology_version();
  const std::uint64_t live = network_.liveness_version();
  if (plan_has_version_ && topo == plan_topology_version_ &&
      live == plan_liveness_version_) {
    return;
  }
  // Scoped path: the network's merged delta must span every version this
  // cache missed.  The plan cache syncs less often than the route cache,
  // so consecutive scoped epochs merge on the network side; a gap that is
  // not covered (or a global epoch) falls back to the wholesale clear.
  const ScopedDelta& delta = network_.last_scoped_delta();
  if (plan_has_version_ && delta.valid &&
      plan_topology_version_ >= delta.from_topology &&
      plan_liveness_version_ >= delta.from_liveness &&
      delta.to_topology == topo && delta.to_liveness == live) {
    ++stats_.plan_scoped_epochs;
    for (auto it = plans_.begin(); it != plans_.end();) {
      bool drop = false;
      for (NodeId hop : it->second.route) {
        if (std::binary_search(delta.dirty.begin(), delta.dirty.end(), hop)) {
          drop = true;
          break;
        }
      }
      if (drop) {
        ++stats_.plans_dropped;
        it = plans_.erase(it);
      } else {
        ++stats_.plans_kept;
        ++it;
      }
    }
  } else {
    if (plan_has_version_ && !plans_.empty()) ++stats_.plan_invalidations;
    plans_.clear();
  }
  plan_topology_version_ = topo;
  plan_liveness_version_ = live;
  plan_has_version_ = true;
}

const FlowModel::FlowPlan& FlowModel::plan_for(
    const std::vector<NodeId>& route, std::uint64_t bytes) {
  sync_plan_version();
  const std::uint64_t key = plan_key(route.front(), route.back(), bytes);
  auto it = plans_.find(key);
  if (it != plans_.end() && it->second.route == route) {
    ++stats_.plan_hits;
    return it->second;
  }
  ++stats_.plan_misses;
  // Capacity is a per-version bound; one epoch of city-scale routes fits,
  // and the whole map dies at the next version bump anyway.
  if (plans_.size() >= kPlanCacheCapacity) plans_.clear();
  FlowPlan plan;
  plan.route = route;
  plan.viable = true;
  plan.hops.reserve(route.size() - 1);
  for (std::size_t i = 0; i + 1 < route.size(); ++i) {
    PlanHop hop;
    hop.from = route[i];
    hop.to = route[i + 1];
    if (!hop_outcome(hop.from, hop.to, bytes, hop.outcome)) {
      plan.viable = false;
      plan.broken_hop = i;
      break;
    }
    plan.hops.push_back(hop);
  }
  return plans_[key] = std::move(plan);
}

}  // namespace pgrid::net
