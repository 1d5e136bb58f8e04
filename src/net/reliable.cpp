#include "net/reliable.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "net/flow.hpp"
#include "net/routing.hpp"

namespace pgrid::net {

ReliableChannel::ReliableChannel(Network& network, ReliableConfig config,
                                 common::Rng rng)
    : network_(network),
      config_(config),
      rng_(rng),
      breakers_(config.breaker) {}

void ReliableChannel::unicast(NodeId src, NodeId dst, std::uint64_t bytes,
                              Budget budget, DeliverCallback done) {
  ++stats_.messages;
  auto t = std::make_shared<Transfer>();
  t->src = src;
  t->dst = dst;
  t->bytes = bytes;
  t->seq = next_seq_++;
  t->budget = budget;
  t->done = std::move(done);
  t->trace = network_.telemetry().current_trace();
  t->pair = (static_cast<std::uint64_t>(src) << 32) | dst;
  // Always asynchronous: the callback never fires inside this call.
  network_.simulator().schedule(sim::SimTime::zero(),
                                [this, t] { admit_or_queue(t); });
}

void ReliableChannel::acked_transmit(NodeId from, NodeId to,
                                     std::uint64_t bytes, Budget budget,
                                     DeliverCallback done) {
  ++stats_.messages;
  auto t = std::make_shared<Transfer>();
  t->src = from;
  t->dst = to;
  t->bytes = bytes;
  t->seq = next_seq_++;
  t->budget = budget;
  t->done = std::move(done);
  t->trace = network_.telemetry().current_trace();
  t->single_hop = true;
  t->route = {from, to};
  network_.simulator().schedule(sim::SimTime::zero(),
                                [this, t] { begin(t); });
}

void ReliableChannel::admit_or_queue(const std::shared_ptr<Transfer>& t) {
  PairState& pair = pairs_[t->pair];
  if (pair.in_flight >= config_.window) {
    ++stats_.queued;
    pair.waiting.push_back(t);
    return;
  }
  ++pair.in_flight;
  begin(t);
}

void ReliableChannel::begin(const std::shared_ptr<Transfer>& t) {
  // Re-establish the originating trace: a window-queued transfer starts
  // from whatever event freed the slot, but its frames (and retransmits)
  // must charge the conversation that sent it.
  telemetry::TraceScope scope(network_.simulator(), t->trace);
  const sim::SimTime now = network_.simulator().now();
  if (t->src == t->dst) {
    if (accept(t, t->dst) && probe_) probe_(t->dst, t->seq);
    finish(t, true);
    return;
  }
  if (!t->single_hop) {
    t->route = breakers_.open_count(now) == 0
                   ? cached_shortest_path(network_, t->src, t->dst)
                   : route_avoiding_open(t->src, t->dst, now);
    if (t->route.empty()) {
      route_failed(t);
      return;
    }
  }
  mark_route(t);
  hop_cycle(t);
}

void ReliableChannel::mark_route(const std::shared_ptr<Transfer>& t) {
  unmark_route(t);
  FlowModel* flow = network_.flow_model();
  if (flow == nullptr) return;
  for (std::size_t i = 0; i + 1 < t->route.size(); ++i) {
    flow->force_packet(t->route[i], t->route[i + 1]);
  }
  t->forced_route = t->route;
}

void ReliableChannel::unmark_route(const std::shared_ptr<Transfer>& t) {
  if (t->forced_route.empty()) return;
  if (FlowModel* flow = network_.flow_model()) {
    for (std::size_t i = 0; i + 1 < t->forced_route.size(); ++i) {
      flow->release_packet(t->forced_route[i], t->forced_route[i + 1]);
    }
  }
  t->forced_route.clear();
}

void ReliableChannel::hop_cycle(const std::shared_ptr<Transfer>& t) {
  const sim::SimTime now = network_.simulator().now();
  if (t->budget.expired(now)) {
    ++stats_.expired;
    finish(t, false);
    return;
  }
  const NodeId from = t->route[t->hop];
  const NodeId to = t->route[t->hop + 1];
  if (!breakers_.admit(link_key(from, to), now)) {
    // Route discovery only avoids fully-open breakers, so a half-open link
    // whose probe another transfer already holds can still be on the route
    // and refuse admission here.  Re-routing synchronously would rediscover
    // the same route and recurse straight back into this hop; back off and
    // re-route from the event loop instead.
    const sim::SimTime delay = backoff_delay(t->attempt + 1);
    if (t->budget.expired(now + delay)) {
      ++stats_.expired;
      finish(t, false);
      return;
    }
    network_.simulator().schedule(delay, [this, t] { route_failed(t); });
    return;
  }
  ++t->attempt;
  ++stats_.data_frames;
  if (t->attempt > 1) ++stats_.retransmissions;
  network_.transmit(from, to, t->bytes, [this, t](bool data_ok) {
    const NodeId hop_from = t->route[t->hop];
    const NodeId hop_to = t->route[t->hop + 1];
    const sim::SimTime at = network_.simulator().now();
    if (!data_ok) {
      breakers_.record_failure(link_key(hop_from, hop_to), at);
      retry_or_abandon(t);
      return;
    }
    // Receiver side: first acceptance forwards (and, at the destination,
    // counts as THE delivery); a retransmission after a lost ACK is
    // suppressed and only re-acknowledged.
    if (accept(t, hop_to)) {
      if (hop_to == t->dst && probe_) probe_(t->dst, t->seq);
    } else {
      ++stats_.duplicates_suppressed;
    }
    ++stats_.ack_frames;
    network_.transmit(hop_to, hop_from, config_.ack_bytes,
                      [this, t](bool ack_ok) {
                        const NodeId a = t->route[t->hop];
                        const NodeId b = t->route[t->hop + 1];
                        const sim::SimTime when = network_.simulator().now();
                        if (!ack_ok) {
                          breakers_.record_failure(link_key(a, b), when);
                          retry_or_abandon(t);
                          return;
                        }
                        breakers_.record_success(link_key(a, b), when);
                        ++t->hop;
                        t->attempt = 0;
                        if (t->hop + 1 >= t->route.size()) {
                          finish(t, true);
                          return;
                        }
                        hop_cycle(t);
                      });
  });
}

void ReliableChannel::retry_or_abandon(const std::shared_ptr<Transfer>& t) {
  const sim::SimTime now = network_.simulator().now();
  if (t->attempt < config_.hop_attempts) {
    const sim::SimTime delay = backoff_delay(t->attempt);
    if (!t->budget.expired(now + delay)) {
      // The scheduled retransmission inherits the active trace (this runs
      // inside the transfer's own event chain), so the retry frames charge
      // the originating conversation.
      network_.simulator().schedule(delay, [this, t] { hop_cycle(t); });
      return;
    }
    ++stats_.expired;
    finish(t, false);
    return;
  }
  route_failed(t);
}

void ReliableChannel::route_failed(const std::shared_ptr<Transfer>& t) {
  const sim::SimTime now = network_.simulator().now();
  if (t->single_hop || t->budget.expired(now)) {
    if (t->budget.expired(now)) ++stats_.expired;
    finish(t, false);
    return;
  }
  // Bounded budgets re-discover until the deadline (healing partitions are
  // worth waiting out); unlimited budgets cap the re-route count so a
  // permanently severed destination still terminates.
  if (!t->budget.bounded() && t->reroutes >= config_.max_reroutes) {
    finish(t, false);
    return;
  }
  ++t->reroutes;
  ++stats_.reroutes;
  const NodeId at = t->hop < t->route.size() ? t->route[t->hop] : t->src;
  // Local repair first: splice around the failed hop back onto the
  // remaining route within repair_depth hops.  Much cheaper than the full
  // discovery below when mobility or a single death broke one link of an
  // otherwise healthy route.
  if (config_.repair_depth > 0 && t->route.size() >= 2) {
    auto spliced = splice_route(t, at, now);
    if (!spliced.empty()) {
      ++stats_.local_repairs;
      t->route = std::move(spliced);
      t->hop = 0;
      t->attempt = 0;
      mark_route(t);
      hop_cycle(t);
      return;
    }
  }
  auto fresh = route_avoiding_open(at, t->dst, now);
  if (!fresh.empty()) {
    t->route = std::move(fresh);
    t->hop = 0;
    t->attempt = 0;
    mark_route(t);
    hop_cycle(t);
    return;
  }
  // No usable path right now (partition, blackout, or every alternative is
  // breaker-open): back off and retry discovery while the budget lasts.
  const sim::SimTime delay = backoff_delay(t->reroutes);
  if (t->budget.expired(now + delay)) {
    ++stats_.expired;
    finish(t, false);
    return;
  }
  network_.simulator().schedule(delay, [this, t] { route_failed(t); });
}

void ReliableChannel::finish(const std::shared_ptr<Transfer>& t,
                             bool delivered) {
  unmark_route(t);
  if (delivered) {
    ++stats_.delivered;
  } else {
    ++stats_.failed;
  }
  if (!t->single_hop) {
    PairState& pair = pairs_[t->pair];
    --pair.in_flight;
    while (pair.in_flight < config_.window && !pair.waiting.empty()) {
      auto next = pair.waiting.front();
      pair.waiting.pop_front();
      ++pair.in_flight;
      network_.simulator().schedule(sim::SimTime::zero(),
                                    [this, next] { begin(next); });
    }
  }
  DeliverCallback done = std::move(t->done);
  if (done) done(delivered);
}

bool ReliableChannel::accept(const std::shared_ptr<Transfer>& t, NodeId node) {
  if (std::find(t->accepted.begin(), t->accepted.end(), node) !=
      t->accepted.end()) {
    return false;
  }
  t->accepted.push_back(node);
  return true;
}

sim::SimTime ReliableChannel::backoff_delay(std::size_t attempt) {
  double base = config_.initial_backoff.to_seconds();
  for (std::size_t i = 1; i < attempt; ++i) base *= config_.backoff_factor;
  const double cap = config_.max_backoff.to_seconds();
  if (base > cap) base = cap;
  const double jitter =
      1.0 + config_.jitter * (2.0 * rng_.uniform01() - 1.0);
  return sim::SimTime::seconds(base * jitter);
}

std::vector<NodeId> ReliableChannel::splice_route(
    const std::shared_ptr<Transfer>& t, NodeId at, sim::SimTime now) const {
  if (!network_.alive(at)) return {};
  const TopologySnapshot& snapshot = network_.topology_snapshot();
  const std::size_t n = snapshot.size();
  if (at >= n) return {};
  // Candidate targets: every node still ahead on the route.  Reaching one
  // inherits the rest of the route from there, so the repair skips the
  // broken link (and any prefix of the remaining route it can shortcut).
  std::unordered_map<NodeId, std::size_t> target_index;
  for (std::size_t i = t->hop + 1; i < t->route.size(); ++i) {
    if (t->route[i] < n) target_index.emplace(t->route[i], i);
  }
  if (target_index.empty()) return {};
  // The already-traversed prefix is banned: looping back through it could
  // only re-enter this hop, and the receivers there have already accepted
  // the payload (re-delivery would just burn ACK frames).
  std::unordered_set<NodeId> banned(t->route.begin(),
                                    t->route.begin() + t->hop + 1);
  const NodeId failed_next =
      t->hop + 1 < t->route.size() ? t->route[t->hop + 1] : kInvalidNode;
  std::vector<NodeId> parent(n, kInvalidNode);
  parent[at] = at;
  std::vector<NodeId> frontier{at};
  std::size_t best_index = 0;
  NodeId best_target = kInvalidNode;
  for (std::size_t depth = 1;
       depth <= config_.repair_depth && !frontier.empty(); ++depth) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : snapshot.row(u)) {
        if (parent[v] != kInvalidNode || banned.count(v)) continue;
        // Never retake the link that just failed (its breaker may not have
        // tripped yet); the node behind it stays reachable via others.
        if (depth == 1 && v == failed_next) continue;
        if (breakers_.state(link_key(u, v), now) == BreakerState::kOpen) {
          continue;
        }
        parent[v] = u;
        auto hit = target_index.find(v);
        if (hit != target_index.end() && hit->second >= best_index) {
          // Same depth: prefer the target furthest along the route.
          best_index = hit->second;
          best_target = v;
        }
        next.push_back(v);
      }
    }
    if (best_target != kInvalidNode) break;  // minimal-depth layer found
    frontier = std::move(next);
  }
  if (best_target == kInvalidNode) return {};
  std::vector<NodeId> bridge;
  for (NodeId v = best_target; v != at; v = parent[v]) bridge.push_back(v);
  bridge.push_back(at);
  std::reverse(bridge.begin(), bridge.end());
  // bridge ends at route[best_index]; append the untouched suffix.
  bridge.insert(bridge.end(), t->route.begin() + best_index + 1,
                t->route.end());
  return bridge;
}

std::vector<NodeId> ReliableChannel::route_avoiding_open(
    NodeId src, NodeId dst, sim::SimTime now) const {
  if (src == dst) return {src};
  if (!network_.alive(src) || !network_.alive(dst)) return {};
  const TopologySnapshot& snapshot = network_.topology_snapshot();
  const std::size_t n = snapshot.size();
  if (src >= n || dst >= n) return {};
  std::vector<NodeId> parent(n, kInvalidNode);
  std::vector<NodeId> frontier{src};
  parent[src] = src;
  while (!frontier.empty() && parent[dst] == kInvalidNode) {
    std::vector<NodeId> next;
    for (NodeId u : frontier) {
      for (NodeId v : snapshot.row(u)) {
        if (parent[v] != kInvalidNode) continue;
        if (breakers_.state(link_key(u, v), now) == BreakerState::kOpen) {
          continue;  // cooling: route around it
        }
        parent[v] = u;
        next.push_back(v);
      }
    }
    frontier = std::move(next);
  }
  if (parent[dst] == kInvalidNode) return {};
  std::vector<NodeId> route;
  for (NodeId at = dst; at != src; at = parent[at]) route.push_back(at);
  route.push_back(src);
  std::reverse(route.begin(), route.end());
  return route;
}

}  // namespace pgrid::net
