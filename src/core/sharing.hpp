// The multi-query sharing layer between the executor and the sensornet.
//
// Three pieces, all behind RuntimeConfig::sharing.enabled (the kill
// switch — when false this object is never constructed and every legacy
// path runs byte-for-byte unchanged):
//
//  1. Canonicalization (query/canonical.hpp): parsed queries reduce to a
//     key off the AST; equal keys may share one collection.
//  2. Shared TAG trees (sensornet/shared_tree.hpp): one epoch schedule per
//     group, its single sensor transmission fanned out to N subscribers,
//     each finalizing its own aggregate function from the shared partial
//     state and paying an exact 1/N cost share on its own trace.
//  3. Admission control: a bounded arrival queue in front of the executor.
//     Arrivals that match a live group always coalesce (piggybacking adds
//     no sensor load); others queue for a free slot, and load is shed with
//     the PR 5 deadline Budgets — an arrival whose budget cannot cover its
//     minimum runtime is refused immediately, *before* it burns retries and
//     trips breakers downstream.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "partition/executor.hpp"
#include "query/canonical.hpp"
#include "sensornet/shared_tree.hpp"

namespace pgrid::core {

struct SharingConfig {
  /// Master kill switch.  False = the sharing layer is never constructed;
  /// submission, execution and telemetry run bit-identically to a build
  /// without it.
  bool enabled = false;
  /// Admission: concurrently executing queries before arrivals queue
  /// (0 = unlimited, no queueing or shedding ever happens).
  std::size_t max_active = 0;
  /// Bounded arrival queue; arrivals past this are shed (overload).
  std::size_t max_queue = 64;
};

struct SharingStats {
  std::uint64_t admitted = 0;       ///< ran immediately (or after queueing)
  std::uint64_t coalesced = 0;      ///< admitted past the cap onto a live group
  std::uint64_t queued = 0;         ///< waited for a slot
  std::uint64_t shed_overload = 0;  ///< refused: queue full
  std::uint64_t shed_budget = 0;    ///< refused: deadline budget infeasible
  std::uint64_t shared_queries = 0; ///< served by a shared tree group
  std::uint64_t shared_epochs = 0;  ///< per-subscriber epochs delivered
};

/// Owns the shared-tree registry and the admission queue for one runtime.
class QuerySharing {
 public:
  QuerySharing(SharingConfig config, sensornet::SensorNetwork& sensors)
      : config_(config), sensors_(sensors), registry_(sensors) {}

  using Proceed = std::function<void()>;
  using Shed = std::function<void(const std::string& reason)>;

  /// Admission control for one arrival.  Exactly one of `proceed` (now, or
  /// later when a slot frees) / `shed` fires.  `budget` is the query's
  /// deadline budget; `min_runtime_s` its floor (a continuous query cannot
  /// finish before its epochs elapse).  A decision that admits nothing and
  /// queues nothing performs no scheduling and no rng draws.
  void admit(const query::CanonicalQuery& canonical, net::Budget budget,
             double min_runtime_s, Proceed proceed, Shed shed);

  /// Marks one admitted query finished and drains the queue into freed
  /// slots (queued arrivals whose budget expired while waiting are shed).
  void on_complete();

  /// Runs a shareable query on its group's shared tree: subscribes, builds
  /// per-epoch ActualCosts from the shared rounds (value finalized with the
  /// subscriber's own aggregate function, costs from the subscriber's exact
  /// ledger share), and completes after `epochs` received rounds.  Returns
  /// false (no side effects) when the query is not shareable or tree
  /// sharing is disabled — the caller falls through to the legacy path.
  /// `cancel_out`, when non-null, receives a canceller that detaches the
  /// subscription (done never fires; the group refcount drops normally).
  /// The failover layer holds it to fence a shared segment on handoff.
  bool execute_shared(
      std::shared_ptr<partition::ExecutionContext> ctx,
      const query::CanonicalQuery& canonical, std::size_t epochs,
      partition::EpochObserver observe,
      std::function<void(std::vector<partition::ActualCost>,
                         std::vector<partition::SolutionModel>)> done,
      std::function<void()>* cancel_out = nullptr);

  /// Crash semantics for a base-station failure: the admission queue and
  /// active-slot accounting are station RAM — gone.  Queued waiters vanish
  /// without callbacks (the failover layer replays them from its own
  /// checkpoint) and every shared tree group dies via teardown_all().
  void crash_reset();

  /// True when a live group already serves this canonical key.
  bool group_live(const query::CanonicalQuery& canonical) const {
    return canonical.shareable &&
           registry_.subscriber_count(canonical.key.text) > 0;
  }

  sensornet::SharedTreeRegistry& registry() { return registry_; }
  const SharingStats& stats() const { return stats_; }
  std::size_t active() const { return active_; }
  std::size_t queue_depth() const { return queue_.size(); }
  const SharingConfig& config() const { return config_; }

 private:
  struct Waiting {
    net::Budget budget;
    Proceed proceed;
    Shed shed;
  };

  SharingConfig config_;
  sensornet::SensorNetwork& sensors_;
  sensornet::SharedTreeRegistry registry_;
  std::deque<Waiting> queue_;
  std::size_t active_ = 0;
  SharingStats stats_;
};

}  // namespace pgrid::core
