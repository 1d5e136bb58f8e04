#include "compose/manager.hpp"

#include <algorithm>

#include "agent/contract_net.hpp"

namespace pgrid::compose {

namespace {

/// Clamps a protocol timeout to the composite's remaining deadline budget
/// (no-op when no deadline is set).
sim::SimTime clamp_to_deadline(const CompositionOptions& options,
                               sim::SimTime base, sim::SimTime now) {
  if (options.deadline.us <= 0) return base;
  const sim::SimTime remaining = options.deadline - now;
  return remaining < base ? remaining : base;
}

bool deadline_blown(const CompositionOptions& options, sim::SimTime now) {
  return options.deadline.us > 0 && now >= options.deadline;
}

/// Canonical identity of a discover sub-plan: service class plus the sorted
/// constraint set.  Constraint order never changes which services satisfy a
/// request, so it never splits a dedup group; anything semantic (property,
/// op, value, hardness) lands in the key.
std::string discovery_key(const TaskSpec& spec) {
  std::vector<std::string> parts;
  parts.reserve(spec.constraints.size());
  for (const auto& constraint : spec.constraints) {
    parts.push_back(constraint.property + ' ' +
                    discovery::to_string(constraint.op) + ' ' +
                    discovery::to_string(constraint.value) +
                    (constraint.hard ? "!" : "?"));
  }
  std::sort(parts.begin(), parts.end());
  std::string key = spec.service_class;
  for (const auto& part : parts) {
    key += '|';
    key += part;
  }
  return key;
}

}  // namespace

struct CompositionManager::RunState {
  TaskGraph graph;
  CompositionOptions options;
  ReportCallback done;
  CompositionReport report;
  sim::SimTime started;
  std::vector<std::size_t> pending_preds;  ///< per task
  std::vector<bool> finished;              ///< completed or skipped
  /// Providers that already failed a given task — excluded on rebind.
  std::vector<std::set<std::string>> failed_services;
  bool run_failed = false;
  bool reported = false;
};

CompositionManager::CompositionManager(agent::AgentPlatform& platform,
                                       agent::AgentId client,
                                       agent::AgentId broker)
    : platform_(platform), client_(client), broker_(broker) {}

void CompositionManager::execute(const TaskGraph& graph,
                                 CompositionOptions options,
                                 ReportCallback done) {
  auto run = std::make_shared<RunState>();
  run->graph = graph;
  run->options = options;
  run->done = std::move(done);
  run->report.tasks_total = graph.size();
  run->started = platform_.simulator().now();
  run->finished.assign(graph.size(), false);
  run->failed_services.assign(graph.size(), {});
  run->pending_preds.assign(graph.size(), 0);
  for (std::size_t i = 0; i < graph.size(); ++i) {
    run->pending_preds[i] = graph.predecessors(i).size();
  }

  auto order = graph.topo_order();
  if (!order.ok()) {
    fail_run(run, order.error());
    return;
  }
  if (graph.empty()) {
    run->report.success = true;
    finish_if_done(run);
    return;
  }
  for (std::size_t i = 0; i < graph.size(); ++i) {
    if (run->pending_preds[i] == 0) start_task(run, i);
  }
}

void CompositionManager::start_task(const std::shared_ptr<RunState>& run,
                                    std::size_t index) {
  if (run->run_failed) return;
  bind_and_invoke(run, index, run->options.max_rebinds_per_task);
}

void CompositionManager::bind_and_invoke(const std::shared_ptr<RunState>& run,
                                         std::size_t index,
                                         std::size_t rebinds_left) {
  if (run->run_failed) return;
  const TaskSpec& spec = run->graph.task(index);

  // Budget exhausted: no point discovering or invoking — fail the task now
  // (optional tasks still degrade gracefully in complete_task).
  if (deadline_blown(run->options, platform_.simulator().now())) {
    complete_task(run, index, false);
    return;
  }

  // Proactive mode: use the cached binding when fresh and not already
  // known-bad for this task.
  if (run->options.mode == CompositionMode::kProactive) {
    auto it = cache_.find(spec.name);
    if (it != cache_.end() &&
        run->failed_services[index].count(it->second.name) == 0) {
      invoke_bound(run, index, it->second, rebinds_left);
      return;
    }
  }

  discover_deduped(
      run, spec,
      [this, run, index, rebinds_left](std::vector<discovery::Match> matches) {
        // Drop providers that already failed this task.
        const auto& bad = run->failed_services[index];
        matches.erase(std::remove_if(matches.begin(), matches.end(),
                                     [&](const discovery::Match& m) {
                                       return bad.count(m.service.name) > 0;
                                     }),
                      matches.end());
        if (matches.empty()) {
          complete_task(run, index, false);
          return;
        }
        if (run->options.mode == CompositionMode::kNegotiated &&
            matches.size() > 1) {
          negotiate_and_invoke(run, index, rebinds_left, std::move(matches));
          return;
        }
        invoke_bound(run, index, matches.front().service, rebinds_left);
      });
}

void CompositionManager::discover_deduped(
    const std::shared_ptr<RunState>& run, const TaskSpec& spec,
    MatchesCallback deliver) {
  const auto issue = [this, run, &spec](MatchesCallback done) {
    discovery::ServiceRequest request;
    request.desired_class = spec.service_class;
    request.constraints = spec.constraints;
    request.max_results = 5;
    request.require_subsumption = true;
    ++run->report.discoveries;
    discovery::discover(
        platform_, client_, broker_, request,
        clamp_to_deadline(run->options, run->options.discover_timeout,
                          platform_.simulator().now()),
        std::move(done));
  };

  if (!run->options.dedup_discoveries) {
    issue(std::move(deliver));
    return;
  }

  const std::string key = discovery_key(spec);
  const sim::SimTime now = platform_.simulator().now();

  auto cached = dedup_cache_.find(key);
  if (cached != dedup_cache_.end()) {
    if (now - cached->second.resolved_at <= run->options.dedup_validity) {
      ++run->report.dedup_hits;
      // Deliver asynchronously so a cache hit keeps discovery's
      // callback-from-an-event ordering (consumers may recurse into
      // bind_and_invoke).
      auto matches = cached->second.matches;
      platform_.simulator().schedule(
          sim::SimTime::zero(),
          [deliver = std::move(deliver), matches = std::move(matches)] {
            deliver(matches);
          });
      return;
    }
    dedup_cache_.erase(cached);  // past its epoch: re-resolve
  }

  auto waiters = dedup_waiters_.find(key);
  if (waiters != dedup_waiters_.end()) {
    // An identical sub-plan is already in flight: coalesce onto it.
    ++run->report.dedup_hits;
    waiters->second.push_back(std::move(deliver));
    return;
  }

  dedup_waiters_[key] = {};
  issue([this, key, deliver = std::move(deliver)](
            std::vector<discovery::Match> matches) {
    dedup_cache_[key] = {matches, platform_.simulator().now()};
    auto pending = std::move(dedup_waiters_[key]);
    dedup_waiters_.erase(key);
    deliver(matches);
    for (auto& waiter : pending) waiter(matches);
  });
}

void CompositionManager::negotiate_and_invoke(
    const std::shared_ptr<RunState>& run, std::size_t index,
    std::size_t rebinds_left, std::vector<discovery::Match> candidates) {
  const TaskSpec& spec = run->graph.task(index);
  std::vector<agent::AgentId> participants;
  for (const auto& match : candidates) {
    if (match.service.provider != agent::kInvalidAgent) {
      participants.push_back(match.service.provider);
    }
  }
  if (participants.empty()) {
    complete_task(run, index, false);
    return;
  }
  ++run->report.negotiations;
  auto candidates_shared =
      std::make_shared<std::vector<discovery::Match>>(std::move(candidates));
  agent::negotiate(
      platform_, client_, participants,
      "ops=" + std::to_string(spec.compute_ops),
      run->options.discover_timeout,
      [this, run, index, rebinds_left,
       candidates_shared](agent::NegotiationResult result) {
        if (!result.awarded) {
          // Nobody bid: fall back to the discovery ranking.
          invoke_bound(run, index, candidates_shared->front().service,
                       rebinds_left);
          return;
        }
        for (const auto& match : *candidates_shared) {
          if (match.service.provider == result.awarded->bidder) {
            invoke_bound(run, index, match.service, rebinds_left);
            return;
          }
        }
        invoke_bound(run, index, candidates_shared->front().service,
                     rebinds_left);
      },
      // Performance commitment: committed latency plus monetized cost.
      [](const agent::Proposal& p) { return p.latency_s + p.cost; });
}

void CompositionManager::invoke_bound(
    const std::shared_ptr<RunState>& run, std::size_t index,
    const discovery::ServiceDescription& service, std::size_t rebinds_left) {
  if (run->run_failed) return;
  const TaskSpec& spec = run->graph.task(index);
  const sim::SimTime now = platform_.simulator().now();
  if (deadline_blown(run->options, now)) {
    complete_task(run, index, false);
    return;
  }
  invoke_service(
      platform_, client_, service, spec.compute_ops, spec.input_bytes,
      spec.output_bytes,
      clamp_to_deadline(run->options, run->options.invoke_timeout, now),
      [this, run, index, rebinds_left,
       service_name = service.name](InvokeResult result) {
        if (result.success) {
          complete_task(run, index, true);
          return;
        }
        // Fault control: remember the failed provider, re-discover, re-bind.
        run->failed_services[index].insert(service_name);
        if (rebinds_left > 0) {
          ++run->report.rebinds;
          bind_and_invoke(run, index, rebinds_left - 1);
          return;
        }
        complete_task(run, index, false);
      });
}

void CompositionManager::complete_task(const std::shared_ptr<RunState>& run,
                                       std::size_t index, bool completed) {
  if (run->run_failed || run->finished[index]) return;
  const TaskSpec& spec = run->graph.task(index);
  if (!completed) {
    if (!(spec.optional && run->options.allow_degraded)) {
      fail_run(run, "task failed after rebinds: " + spec.name);
      return;
    }
    ++run->report.tasks_skipped;  // graceful degradation
  } else {
    ++run->report.tasks_completed;
  }
  run->finished[index] = true;
  for (std::size_t next : run->graph.successors(index)) {
    if (--run->pending_preds[next] == 0) start_task(run, next);
  }
  finish_if_done(run);
}

void CompositionManager::fail_run(const std::shared_ptr<RunState>& run,
                                  std::string reason) {
  if (run->reported) return;
  run->run_failed = true;
  run->reported = true;
  run->report.success = false;
  run->report.failure_reason = std::move(reason);
  run->report.elapsed_s =
      (platform_.simulator().now() - run->started).to_seconds();
  run->done(run->report);
}

void CompositionManager::finish_if_done(const std::shared_ptr<RunState>& run) {
  if (run->reported) return;
  const bool all_done = std::all_of(run->finished.begin(), run->finished.end(),
                                    [](bool b) { return b; });
  if (!all_done && !run->graph.empty()) return;
  run->reported = true;
  run->report.success = true;
  run->report.elapsed_s =
      (platform_.simulator().now() - run->started).to_seconds();
  run->done(run->report);
}

void CompositionManager::precompute(
    const TaskGraph& graph, std::function<void(std::size_t)> done) {
  if (graph.empty()) {
    platform_.simulator().schedule(sim::SimTime::zero(),
                                   [done = std::move(done)] { done(0); });
    return;
  }
  auto outstanding = std::make_shared<std::size_t>(graph.size());
  auto resolved = std::make_shared<std::size_t>(0);
  auto done_shared =
      std::make_shared<std::function<void(std::size_t)>>(std::move(done));
  for (std::size_t i = 0; i < graph.size(); ++i) {
    const TaskSpec& spec = graph.task(i);
    discovery::ServiceRequest request;
    request.desired_class = spec.service_class;
    request.constraints = spec.constraints;
    request.max_results = 1;
    request.require_subsumption = true;
    discovery::discover(
        platform_, client_, broker_, request, sim::SimTime::seconds(5.0),
        [this, spec, outstanding, resolved,
         done_shared](std::vector<discovery::Match> matches) {
          if (!matches.empty()) {
            cache_[spec.name] = matches.front().service;
            ++*resolved;
          }
          if (--*outstanding == 0) (*done_shared)(*resolved);
        });
  }
}

}  // namespace pgrid::compose
