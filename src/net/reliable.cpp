#include "net/reliable.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "net/routing.hpp"

namespace pgrid::net {

ReliableChannel::ReliableChannel(Network& network, common::Rng rng)
    : network_(network), rng_(rng) {}

ReliableChannel::Transfer* ReliableChannel::acquire() {
  if (free_ == nullptr) {
    pool_.push_back(std::make_unique<Transfer[]>(kPoolChunk));
    Transfer* chunk = pool_.back().get();
    for (std::size_t i = 0; i < kPoolChunk; ++i) {
      chunk[i].next = free_;
      free_ = &chunk[i];
    }
  }
  Transfer* t = free_;
  free_ = t->next;
  t->next = nullptr;
  ++live_;
  return t;
}

void ReliableChannel::release(Transfer* t) {
  *t = Transfer{};
  t->next = free_;
  free_ = t;
  --live_;
}

template <void (ReliableChannel::*Step)(ReliableChannel::Transfer*)>
void ReliableChannel::schedule_step(sim::SimTime delay, Transfer* t) {
  auto event = [this, t] { (this->*Step)(t); };
  static_assert(sim::Simulator::Callback::stores_inline<decltype(event)>,
                "transfer events must not allocate");
  network_.simulator().schedule(delay, std::move(event));
}

void ReliableChannel::unicast(NodeId src, NodeId dst, std::uint64_t bytes,
                              Budget budget, Network::DeliveryCallback done) {
  ++stats_.messages;
  Transfer* t = acquire();
  t->src = src;
  t->dst = dst;
  t->bytes = bytes;
  t->seq = next_seq_++;
  t->budget = budget;
  t->done = std::move(done);
  t->trace = network_.telemetry().current_trace();
  t->pair = (static_cast<std::uint64_t>(src) << 32) | dst;
  // Always asynchronous: the callback never fires inside this call.
  schedule_step<&ReliableChannel::admit_or_queue>(sim::SimTime::zero(), t);
}

void ReliableChannel::acked_transmit(NodeId from, NodeId to,
                                     std::uint64_t bytes, Budget budget,
                                     Network::DeliveryCallback done) {
  ++stats_.messages;
  Transfer* t = acquire();
  t->src = from;
  t->dst = to;
  t->bytes = bytes;
  t->seq = next_seq_++;
  t->budget = budget;
  t->done = std::move(done);
  t->trace = network_.telemetry().current_trace();
  t->single_hop = true;
  schedule_step<&ReliableChannel::begin>(sim::SimTime::zero(), t);
}

void ReliableChannel::admit_or_queue(Transfer* t) {
  PairState& pair = pairs_[t->pair];
  if (pair.in_flight >= kWindow) {
    ++stats_.queued;
    if (pair.tail != nullptr) {
      pair.tail->next = t;
    } else {
      pair.head = t;
    }
    pair.tail = t;
    return;
  }
  ++pair.in_flight;
  begin(t);
}

void ReliableChannel::begin(Transfer* t) {
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
  hop_cycle(t);
}

namespace {
/// The link a transfer's current hop crosses: src -> dst for a single hop,
/// route[hop] -> route[hop + 1] otherwise.
template <typename T>
NodeId hop_from(const T& t) {
  return t.single_hop ? t.src : t.route[t.hop];
}
template <typename T>
NodeId hop_to(const T& t) {
  return t.single_hop ? t.dst : t.route[t.hop + 1];
}
}  // namespace

void ReliableChannel::hop_cycle(Transfer* t) {
  const sim::SimTime now = network_.simulator().now();
  if (t->budget.expired(now)) {
    ++stats_.expired;
    finish(t, false);
    return;
  }
  const NodeId from = hop_from(*t);
  const NodeId to = hop_to(*t);
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
    schedule_step<&ReliableChannel::route_failed>(delay, t);
    return;
  }
  ++t->attempt;
  ++stats_.data_frames;
  if (t->attempt > 1) ++stats_.retransmissions;
  auto on_data = [this, t](bool data_ok) { data_done(t, data_ok); };
  static_assert(Network::DeliveryCallback::stores_inline<decltype(on_data)>,
                "the data-frame continuation must not allocate");
  network_.transmit(from, to, t->bytes, std::move(on_data));
}

void ReliableChannel::data_done(Transfer* t, bool data_ok) {
  const NodeId hop_src = hop_from(*t);
  const NodeId hop_dst = hop_to(*t);
  if (!data_ok) {
    breakers_.record_failure(link_key(hop_src, hop_dst),
                             network_.simulator().now());
    retry_or_abandon(t);
    return;
  }
  // Receiver side: first acceptance forwards (and, at the destination,
  // counts as THE delivery); a retransmission after a lost ACK is
  // suppressed and only re-acknowledged.
  if (accept(t, hop_dst)) {
    if (hop_dst == t->dst && probe_) probe_(t->dst, t->seq);
  } else {
    ++stats_.duplicates_suppressed;
  }
  ++stats_.ack_frames;
  auto on_ack = [this, t](bool ack_ok) { ack_done(t, ack_ok); };
  static_assert(Network::DeliveryCallback::stores_inline<decltype(on_ack)>,
                "the ACK continuation must not allocate");
  network_.transmit(hop_dst, hop_src, kAckBytes, std::move(on_ack));
}

void ReliableChannel::ack_done(Transfer* t, bool ack_ok) {
  const std::uint64_t link = link_key(hop_from(*t), hop_to(*t));
  const sim::SimTime when = network_.simulator().now();
  if (!ack_ok) {
    breakers_.record_failure(link, when);
    retry_or_abandon(t);
    return;
  }
  breakers_.record_success(link, when);
  ++t->hop;
  t->attempt = 0;
  if (t->single_hop || t->hop + 1 >= t->route.size()) {
    finish(t, true);
    return;
  }
  hop_cycle(t);
}

void ReliableChannel::retry_or_abandon(Transfer* t) {
  const sim::SimTime now = network_.simulator().now();
  if (t->attempt < kHopAttempts) {
    const sim::SimTime delay = backoff_delay(t->attempt);
    if (!t->budget.expired(now + delay)) {
      // The scheduled retransmission inherits the active trace (this runs
      // inside the transfer's own event chain), so the retry frames charge
      // the originating conversation.
      schedule_step<&ReliableChannel::hop_cycle>(delay, t);
      return;
    }
    ++stats_.expired;
    finish(t, false);
    return;
  }
  route_failed(t);
}

void ReliableChannel::route_failed(Transfer* t) {
  const sim::SimTime now = network_.simulator().now();
  if (t->single_hop || t->budget.expired(now)) {
    if (t->budget.expired(now)) ++stats_.expired;
    finish(t, false);
    return;
  }
  // Bounded budgets re-discover until the deadline (healing partitions are
  // worth waiting out); unlimited budgets cap the re-route count so a
  // permanently severed destination still terminates.
  if (!t->budget.bounded() && t->reroutes >= kMaxReroutes) {
    finish(t, false);
    return;
  }
  ++t->reroutes;
  ++stats_.reroutes;
  const NodeId at = t->hop < t->route.size() ? t->route[t->hop] : t->src;
  auto fresh = route_avoiding_open(at, t->dst, now);
  if (!fresh.empty()) {
    t->route = std::move(fresh);
    t->hop = 0;
    t->attempt = 0;
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
  schedule_step<&ReliableChannel::route_failed>(delay, t);
}

void ReliableChannel::finish(Transfer* t, bool delivered) {
  if (delivered) {
    ++stats_.delivered;
  } else {
    ++stats_.failed;
  }
  if (!t->single_hop) {
    auto it = pairs_.find(t->pair);
    PairState& pair = it->second;
    --pair.in_flight;
    while (pair.in_flight < kWindow && pair.head != nullptr) {
      Transfer* next = pair.head;
      pair.head = next->next;
      if (pair.head == nullptr) pair.tail = nullptr;
      next->next = nullptr;
      ++pair.in_flight;
      schedule_step<&ReliableChannel::begin>(sim::SimTime::zero(), next);
    }
    // Idle pair (nothing in flight, so nothing queued): free its state.
    if (pair.in_flight == 0) pairs_.erase(it);
  }
  // Free the slot before `done` runs, so a `done` that sends again reuses
  // it.
  Network::DeliveryCallback done = std::move(t->done);
  release(t);
  if (done) done(delivered);
}

bool ReliableChannel::accept(Transfer* t, NodeId node) {
  if (t->single_hop) return !std::exchange(t->dst_accepted, true);
  if (std::find(t->accepted.begin(), t->accepted.end(), node) !=
      t->accepted.end()) {
    return false;
  }
  t->accepted.push_back(node);
  return true;
}

sim::SimTime ReliableChannel::backoff_delay(std::size_t attempt) {
  double base = kInitialBackoff.to_seconds();
  for (std::size_t i = 1; i < attempt; ++i) base *= kBackoffFactor;
  const double cap = kMaxBackoff.to_seconds();
  if (base > cap) base = cap;
  const double jitter = 1.0 + kJitter * (2.0 * rng_.uniform01() - 1.0);
  return sim::SimTime::seconds(base * jitter);
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
