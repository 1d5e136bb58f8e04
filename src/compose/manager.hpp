// The composition manager: coordinates discovery, binding, execution,
// fault handling and graceful degradation for a task graph.
//
// Section 3 requirements implemented here:
//  - "Every service composition platform must have some entity coordinating
//    the different services involved" — this class.
//  - "If a network service breaks down, the architecture should be able to
//    detect this and resort to fault control mechanisms" — failed
//    invocations trigger re-discovery and re-binding to alternates.
//  - "The composition platform should degrade gracefully as more and more
//    services become unavailable" — optional tasks are skipped instead of
//    failing the composite.
//  - "We might want to pro-actively compute some generic information about
//    services required to execute a query which is requested with a high
//    frequency. The other approach is to re-actively integrate and execute"
//    — kReactive discovers at execution time; kProactive uses pre-resolved
//    bindings and falls back to re-discovery when they are stale.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>

#include "agent/platform.hpp"
#include "compose/invoke.hpp"
#include "compose/task.hpp"
#include "discovery/broker.hpp"

namespace pgrid::compose {

/// kReactive discovers and binds the top-ranked service at execution time;
/// kProactive uses pre-resolved bindings; kNegotiated discovers candidates
/// then runs a contract-net round among their providers and binds the best
/// performance commitment (cost + committed latency) — Section 2's
/// negotiation, composed with Section 3's discovery.
enum class CompositionMode { kReactive, kProactive, kNegotiated };

struct CompositionOptions {
  CompositionMode mode = CompositionMode::kReactive;
  std::size_t max_rebinds_per_task = 2;
  /// Skip failed *optional* tasks instead of failing the composite.
  bool allow_degraded = true;
  sim::SimTime discover_timeout = sim::SimTime::seconds(5.0);
  sim::SimTime invoke_timeout = sim::SimTime::seconds(30.0);
  /// Absolute deadline for the whole composite (zero = none).  Discover and
  /// invoke timeouts are clamped to the remaining budget, and tasks that
  /// start past the deadline fail immediately instead of re-discovering.
  sim::SimTime deadline{};
  /// Sub-plan deduplication (the multi-query sharing layer's compose half).
  /// Identical discover sub-plans — same service class and constraint set —
  /// issued while one is in flight coalesce onto a single broker
  /// round-trip, and resolved match lists are reused for `dedup_validity`
  /// ("resolved once per epoch").  Per-task filtering (failed providers)
  /// still applies to each consumer of a shared result.
  /// Off by default (kill switch): with false, discovery traffic is
  /// byte-for-byte what it was before this option existed.
  bool dedup_discoveries = false;
  sim::SimTime dedup_validity = sim::SimTime::seconds(10.0);
};

/// Outcome of one composite execution.
struct CompositionReport {
  bool success = false;
  std::size_t tasks_total = 0;
  std::size_t tasks_completed = 0;
  std::size_t tasks_skipped = 0;  ///< optional tasks dropped (degradation)
  std::size_t rebinds = 0;        ///< fault-recovery re-bindings
  std::size_t discoveries = 0;    ///< broker round-trips
  std::size_t negotiations = 0;   ///< contract-net rounds run
  /// Discover sub-plans served from the dedup cache or coalesced onto an
  /// in-flight lookup instead of a broker round-trip.
  std::size_t dedup_hits = 0;
  double elapsed_s = 0.0;
  std::string failure_reason;

  /// 1.0 = full service; lower values = degraded composite.
  double service_level() const {
    if (tasks_total == 0) return 1.0;
    return static_cast<double>(tasks_completed) /
           static_cast<double>(tasks_total);
  }
};

class CompositionManager {
 public:
  using ReportCallback = std::function<void(CompositionReport)>;

  /// `client` is the agent on whose behalf invocations are made; `broker`
  /// answers discovery queries.
  CompositionManager(agent::AgentPlatform& platform, agent::AgentId client,
                     agent::AgentId broker);

  /// Executes the graph; the callback fires exactly once when the composite
  /// finishes, fails, or degrades to completion.
  void execute(const TaskGraph& graph, CompositionOptions options,
               ReportCallback done);

  /// Resolves bindings for every task now and caches them (proactive mode).
  /// `done(resolved_count)` fires when all lookups complete.
  void precompute(const TaskGraph& graph,
                  std::function<void(std::size_t resolved)> done);

  std::size_t cached_bindings() const { return cache_.size(); }

  std::size_t dedup_cached() const { return dedup_cache_.size(); }
  /// Coalesced lookups currently awaiting a broker reply — must be zero at
  /// drain (the load test's plan-cache leak check).
  std::size_t dedup_in_flight() const { return dedup_waiters_.size(); }

 private:
  struct RunState;
  using MatchesCallback =
      std::function<void(std::vector<discovery::Match>)>;
  struct DedupEntry {
    std::vector<discovery::Match> matches;
    sim::SimTime resolved_at{};
  };

  void start_task(const std::shared_ptr<RunState>& run, std::size_t index);
  void bind_and_invoke(const std::shared_ptr<RunState>& run,
                       std::size_t index, std::size_t rebinds_left);
  /// Issues (or dedups) the discovery for `spec`, delivering matches to
  /// `deliver` — from the broker, the dedup cache, or a coalesced reply.
  void discover_deduped(const std::shared_ptr<RunState>& run,
                        const TaskSpec& spec, MatchesCallback deliver);
  /// Contract-net binding among discovered candidates.
  void negotiate_and_invoke(const std::shared_ptr<RunState>& run,
                            std::size_t index, std::size_t rebinds_left,
                            std::vector<discovery::Match> candidates);
  void invoke_bound(const std::shared_ptr<RunState>& run, std::size_t index,
                    const discovery::ServiceDescription& service,
                    std::size_t rebinds_left);
  void complete_task(const std::shared_ptr<RunState>& run, std::size_t index,
                     bool completed);
  void fail_run(const std::shared_ptr<RunState>& run, std::string reason);
  void finish_if_done(const std::shared_ptr<RunState>& run);

  agent::AgentPlatform& platform_;
  agent::AgentId client_;
  agent::AgentId broker_;
  /// Proactive bindings keyed by task name.
  std::map<std::string, discovery::ServiceDescription> cache_;
  /// Resolved discover sub-plans keyed by (service class, constraints).
  std::map<std::string, DedupEntry> dedup_cache_;
  /// Lookups in flight: later identical sub-plans append a waiter instead
  /// of issuing their own broker round-trip.
  std::map<std::string, std::vector<MatchesCallback>> dedup_waiters_;
};

}  // namespace pgrid::compose
