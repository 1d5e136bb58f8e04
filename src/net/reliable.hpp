// End-to-end reliability layer over the simulated network: acked unicast
// with retransmission, deadline budgets, and circuit breakers.
//
// The paper's runtime must operate through "frequent disconnections, low
// bandwidth, high latency and network topology changes" (Section 1) and the
// composition platform "should degrade gracefully as more and more of the
// smart devices fail" (Section 3).  The base Network is deliberately
// fire-and-forget (link-layer retries only); this layer adds the transport
// discipline on top:
//
//   - ReliableChannel: per-hop data/ACK cycles with exponential backoff and
//     deterministic seeded jitter, a bounded in-flight window per endpoint
//     pair, duplicate suppression per transfer (each transfer remembers the
//     receivers that already accepted it), and breaker-aware re-routing
//     around failing links.  Every retransmission is charged to the ledger
//     under the originating trace (the kernel propagates the trace along
//     the causal event chain).  Attached to a Network, it is what
//     Network::deliver and deliver_hop run; upper layers never call it
//     directly.
//   - Budget (net/network.hpp): an absolute deadline carried down the
//     causal chain (executor -> composition -> agents -> sensornet), so
//     retries and re-discovery stop the moment the budget is blown instead
//     of burning energy past the point of usefulness.
//   - BreakerRegistry: circuit breakers keyed on a link.  Repeated failures
//     open the breaker; while open, traffic short-circuits (re-routes
//     instead of hammering the dead link); a deterministic half-open probe
//     closes it after healing.
//
// Everything is deterministic given the channel's seed: same seed, same
// fault schedule => bit-identical retransmit schedules and outcomes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "common/small_fn.hpp"
#include "net/network.hpp"

namespace pgrid::net {

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

enum class BreakerState { kClosed, kOpen, kHalfOpen };

struct BreakerStats {
  std::uint64_t opens = 0;           ///< closed->open trips + failed probes
  std::uint64_t closes = 0;          ///< successful half-open probes
  std::uint64_t probes = 0;          ///< half-open admissions granted
  std::uint64_t short_circuits = 0;  ///< admissions refused while open
};

/// Circuit breakers keyed on a link (see link_key).  Purely time-driven and
/// deterministic: state transitions happen inside admit()/record_*() calls,
/// never from timers.  While open, admit() refuses; once the cooling period
/// elapses the next admit() grants exactly one half-open probe — its
/// success closes the breaker, its failure re-opens with an escalated
/// cooling period.
class BreakerRegistry {
 public:
  /// Consecutive failures that trip a closed breaker open.
  static constexpr std::size_t kFailureThreshold = 3;
  /// Cooling period after tripping; each failed half-open probe multiplies
  /// it by kOpenBackoff, up to kMaxOpenFor.
  static constexpr sim::SimTime kOpenFor = sim::SimTime::seconds(4.0);
  static constexpr double kOpenBackoff = 2.0;
  static constexpr sim::SimTime kMaxOpenFor = sim::SimTime::seconds(32.0);

  /// Non-mutating classification at `now` (open breakers past their cooling
  /// period report kHalfOpen: the next admit() would grant a probe).
  BreakerState state(std::uint64_t key, sim::SimTime now) const {
    auto it = entries_.find(key);
    if (it == entries_.end()) return BreakerState::kClosed;
    const Entry& e = it->second;
    if (e.state == BreakerState::kOpen && now >= e.reopen_at) {
      return BreakerState::kHalfOpen;
    }
    return e.state;
  }

  /// May the caller use the resource right now?  Half-open grants a single
  /// probe; further admits short-circuit until the probe resolves.
  bool admit(std::uint64_t key, sim::SimTime now) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return true;
    Entry& e = it->second;
    switch (e.state) {
      case BreakerState::kClosed:
        return true;
      case BreakerState::kOpen:
        if (now < e.reopen_at) {
          ++stats_.short_circuits;
          return false;
        }
        e.state = BreakerState::kHalfOpen;
        e.probe_in_flight = true;
        ++stats_.probes;
        return true;
      case BreakerState::kHalfOpen:
        if (e.probe_in_flight) {
          ++stats_.short_circuits;
          return false;
        }
        e.probe_in_flight = true;
        ++stats_.probes;
        return true;
    }
    return true;
  }

  void record_success(std::uint64_t key, sim::SimTime now) {
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    Entry& e = it->second;
    if (e.state == BreakerState::kHalfOpen ||
        (e.state == BreakerState::kOpen && now >= e.reopen_at)) {
      // Healed: drop the entry entirely so a future trip starts from the
      // base cooling period again.
      ++stats_.closes;
      entries_.erase(it);
      return;
    }
    if (e.state == BreakerState::kClosed) e.failures = 0;
  }

  void record_failure(std::uint64_t key, sim::SimTime now) {
    Entry& e = entries_[key];
    if (e.state == BreakerState::kHalfOpen ||
        (e.state == BreakerState::kOpen && now >= e.reopen_at)) {
      // Failed probe: re-open with an escalated cooling period.
      e.state = BreakerState::kOpen;
      e.probe_in_flight = false;
      e.open_for = escalate(e.open_for);
      e.reopen_at = now + e.open_for;
      ++stats_.opens;
      return;
    }
    if (e.state == BreakerState::kOpen) return;  // still cooling
    ++e.failures;
    if (e.failures >= kFailureThreshold) {
      e.state = BreakerState::kOpen;
      e.open_for = kOpenFor;
      e.reopen_at = now + e.open_for;
      ++stats_.opens;
    }
  }

  std::size_t open_count(sim::SimTime now) const {
    std::size_t count = 0;
    for (const auto& [key, e] : entries_) {
      if (e.state != BreakerState::kClosed && now < e.reopen_at) ++count;
    }
    return count;
  }

  const BreakerStats& stats() const { return stats_; }

 private:
  struct Entry {
    BreakerState state = BreakerState::kClosed;
    std::size_t failures = 0;  ///< consecutive, while closed
    sim::SimTime reopen_at{};
    sim::SimTime open_for{};
    bool probe_in_flight = false;
  };

  static sim::SimTime escalate(sim::SimTime current) {
    if (current.us <= 0) return kOpenFor;
    auto next = sim::SimTime::seconds(current.to_seconds() * kOpenBackoff);
    return next <= kMaxOpenFor ? next : kMaxOpenFor;
  }

  // Ordered map: iteration (open_count, diagnostics) is deterministic.
  std::map<std::uint64_t, Entry> entries_;
  BreakerStats stats_;
};

/// Canonical key for an undirected link (same convention as the network's
/// wired-link index).
inline std::uint64_t link_key(NodeId a, NodeId b) {
  const NodeId lo = a < b ? a : b;
  const NodeId hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// ---------------------------------------------------------------------------
// Reliable channel
// ---------------------------------------------------------------------------

struct ReliableStats {
  std::uint64_t messages = 0;        ///< sends accepted (unicast + acked hop)
  std::uint64_t delivered = 0;       ///< done(true) outcomes
  std::uint64_t failed = 0;          ///< done(false) outcomes
  std::uint64_t expired = 0;         ///< failures charged to a blown budget
  std::uint64_t data_frames = 0;     ///< data transmissions incl. retransmits
  std::uint64_t ack_frames = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t duplicates_suppressed = 0;  ///< re-received after lost ACK
  std::uint64_t reroutes = 0;
  std::uint64_t queued = 0;          ///< sends deferred by the window
};

/// Acked delivery over the existing Network send path.  See the file
/// comment for the model; the channel is orthogonal to the fault injector
/// (chaos faults hit the underlying transmits) and charges every frame —
/// including retransmissions and ACKs — to the ledger under the trace that
/// originated the send.
class ReliableChannel {
 public:
  using DeliverCallback = common::SmallFn<void(bool delivered)>;
  /// Test hook: fires once per message the instant its payload is first
  /// accepted at the destination (duplicates suppressed) — the witness for
  /// the exactly-once property.
  using DeliveryProbe = std::function<void(NodeId dst, std::uint64_t seq)>;

  /// Wire size of an acknowledgement frame.
  static constexpr std::uint64_t kAckBytes = 12;
  /// Data/ACK cycles attempted per hop before the route is abandoned.
  static constexpr std::size_t kHopAttempts = 5;
  /// Exponential backoff between retransmissions of the same hop.
  static constexpr sim::SimTime kInitialBackoff =
      sim::SimTime::milliseconds(50);
  static constexpr double kBackoffFactor = 2.0;
  static constexpr sim::SimTime kMaxBackoff = sim::SimTime::seconds(2.0);
  /// Uniform jitter applied to every backoff, as a fraction (0.25 = +/-25%).
  /// Drawn from the channel's own seeded rng: deterministic, and
  /// decorrelates retransmit bursts from concurrent transfers.
  static constexpr double kJitter = 0.25;
  /// In-flight messages allowed per (src, dst) pair; excess sends queue.
  static constexpr std::size_t kWindow = 4;
  /// Route recomputations per message when the budget is unlimited (bounded
  /// budgets instead re-route until the deadline).
  static constexpr std::size_t kMaxReroutes = 3;

  ReliableChannel(Network& network, common::Rng rng);

  /// Reliable unicast src -> dst: routes over the current topology, runs a
  /// data/ACK cycle per hop with backoff retransmission, re-routes around
  /// hops that exhaust their attempts (avoiding open-breaker links), and
  /// gives up when the budget expires.  `done` fires exactly once.
  void unicast(NodeId src, NodeId dst, std::uint64_t bytes, Budget budget,
               DeliverCallback done);

  /// Single-hop acked transfer (no routing, no reroute): the tree
  /// aggregation's parent links use this.
  void acked_transmit(NodeId from, NodeId to, std::uint64_t bytes,
                      Budget budget, DeliverCallback done);

  const BreakerRegistry& link_breakers() const { return breakers_; }
  const ReliableStats& stats() const { return stats_; }
  /// (src, dst) pairs holding window state — a transfer in flight or
  /// queued.  An idle pair's state is freed, so a drained channel reads 0.
  std::size_t window_pairs() const { return pairs_.size(); }
  void set_delivery_probe(DeliveryProbe probe) { probe_ = std::move(probe); }

 private:
  struct Transfer {
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;
    std::uint64_t bytes = 0;
    std::uint64_t seq = 0;
    Budget budget;
    DeliverCallback done;
    telemetry::TraceId trace = 0;
    std::vector<NodeId> route;
    std::size_t hop = 0;      ///< index of the node currently holding the msg
    std::size_t attempt = 0;  ///< data/ACK cycles tried on the current hop
    std::size_t reroutes = 0;
    bool single_hop = false;  ///< acked_transmit: fixed route, no reroute
    std::uint64_t pair = 0;   ///< window key (directed src->dst)
    /// Receivers that already accepted the payload (duplicate suppression
    /// lives and dies with the transfer).
    std::vector<NodeId> accepted;
  };

  struct PairState {
    std::size_t in_flight = 0;
    std::deque<std::shared_ptr<Transfer>> waiting;
  };

  void admit_or_queue(const std::shared_ptr<Transfer>& t);
  void begin(const std::shared_ptr<Transfer>& t);
  void hop_cycle(const std::shared_ptr<Transfer>& t);
  void retry_or_abandon(const std::shared_ptr<Transfer>& t);
  void route_failed(const std::shared_ptr<Transfer>& t);
  void finish(const std::shared_ptr<Transfer>& t, bool delivered);
  /// First acceptance of the transfer at `node`?  (False => duplicate,
  /// re-ACK only.)
  bool accept(const std::shared_ptr<Transfer>& t, NodeId node);
  sim::SimTime backoff_delay(std::size_t attempt);
  /// Min-hop BFS over the topology snapshot, skipping links whose breaker
  /// is open (cooling).  Deterministic: ascending-id adjacency rows.
  std::vector<NodeId> route_avoiding_open(NodeId src, NodeId dst,
                                          sim::SimTime now) const;

  Network& network_;
  common::Rng rng_;
  BreakerRegistry breakers_;
  ReliableStats stats_;
  DeliveryProbe probe_;
  std::uint64_t next_seq_ = 1;
  std::map<std::uint64_t, PairState> pairs_;
};

}  // namespace pgrid::net
