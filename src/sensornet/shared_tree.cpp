#include "sensornet/shared_tree.hpp"

#include <algorithm>

namespace pgrid::sensornet {

SubscriberId SharedTreeRegistry::subscribe(Subscription sub) {
  const SubscriberId id = next_id_++;
  auto it = groups_.find(sub.key);
  if (it != groups_.end()) {
    Group& group = *it->second;
    // A round in flight already sampled the field; the joiner's first
    // delivery is the next round to start.
    const std::size_t first = group.collecting ? group.epoch + 1 : group.epoch;
    group.subs.push_back({id, first, sub.trace, std::move(sub.on_epoch)});
    key_of_[id] = std::move(sub.key);
    return id;
  }

  auto group = std::make_shared<Group>();
  group->key = sub.key;
  group->field = sub.field;
  group->filter = std::move(sub.filter);
  group->epoch_s = sub.epoch_s;
  group->budget_s = sub.budget_s;
  group->trace = sensors_.network().telemetry().new_trace();
  group->subs.push_back({id, 0, sub.trace, std::move(sub.on_epoch)});
  groups_[group->key] = group;
  key_of_[id] = std::move(sub.key);
  ++stats_.groups_created;
  run_epoch(group);
  return id;
}

void SharedTreeRegistry::unsubscribe(SubscriberId id) {
  auto kit = key_of_.find(id);
  if (kit == key_of_.end()) return;
  auto git = groups_.find(kit->second);
  key_of_.erase(kit);
  if (git == groups_.end()) return;
  auto group = git->second;
  group->subs.erase(
      std::remove_if(group->subs.begin(), group->subs.end(),
                     [id](const Subscriber& s) { return s.id == id; }),
      group->subs.end());
  if (!group->subs.empty()) return;
  // Refcount hit zero.  A round in flight finishes (its charges stay on the
  // group trace, conserved); finish_epoch then sees no subscribers and
  // tears down.  Otherwise cancel the pending epoch event and die now.
  if (group->collecting) return;
  sensors_.network().simulator().cancel(group->next);
  teardown(group);
}

void SharedTreeRegistry::teardown_all() {
  auto& sim = sensors_.network().simulator();
  std::vector<std::shared_ptr<Group>> doomed;
  doomed.reserve(groups_.size());
  for (auto& [key, group] : groups_) doomed.push_back(group);
  for (auto& group : doomed) {
    if (!group->collecting) sim.cancel(group->next);
    group->subs.clear();
    teardown(group);
  }
  // Dangling subscriber ids (their groups are gone) — drop them so a later
  // unsubscribe from a fenced caller is a clean no-op.
  key_of_.clear();
}

std::size_t SharedTreeRegistry::subscriber_count(
    const std::string& key) const {
  auto it = groups_.find(key);
  return it == groups_.end() ? 0 : it->second->subs.size();
}

void SharedTreeRegistry::run_epoch(const std::shared_ptr<Group>& group) {
  auto& sim = sensors_.network().simulator();
  auto& ledger = sensors_.network().telemetry();
  group->collecting = true;
  group->epoch_start = sim.now();
  const telemetry::TraceCosts before = ledger.trace(group->trace);
  net::Budget budget = net::Budget::unlimited();
  if (group->budget_s > 0.0) {
    budget =
        net::Budget::until(sim.now() + sim::SimTime::seconds(group->budget_s));
  }
  // The round runs under the group's own trace: every charge lands on one
  // row, then finish_epoch splits that row across the subscribers.
  std::weak_ptr<Group> weak = group;
  telemetry::TraceScope scope(sim, group->trace);
  sensors_.collect_tree_aggregate(
      *group->field,
      [this, weak, before](CollectionResult result) {
        if (auto group = weak.lock()) finish_epoch(group, result, before);
      },
      group->filter, budget);
}

void SharedTreeRegistry::finish_epoch(const std::shared_ptr<Group>& group,
                                      const CollectionResult& result,
                                      const telemetry::TraceCosts& before) {
  auto& sim = sensors_.network().simulator();
  auto& ledger = sensors_.network().telemetry();
  group->collecting = false;
  ++stats_.collections;

  // The in-network merge ops, charged once per shared round (the unshared
  // tree path charges the same per query).
  telemetry::Cost merge;
  merge.ops = static_cast<double>(result.reports);
  ledger.charge(telemetry::Subsystem::kSensing, group->trace, merge);

  const std::size_t epoch_index = group->epoch;
  ++group->epoch;

  // Deliver to a copy: callbacks may unsubscribe (mutating group->subs)
  // while we iterate, and each copy keeps its callable alive through the
  // call even if the original subscriber record is erased mid-fanout.
  std::vector<Subscriber> receivers;
  for (const Subscriber& sub : group->subs) {
    if (sub.first_epoch <= epoch_index) receivers.push_back(sub);
  }

  if (!receivers.empty()) {
    const telemetry::TraceCosts delta = ledger.trace(group->trace) - before;
    const auto shares = telemetry::split_even(delta, receivers.size());
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      ledger.reattribute(group->trace, receivers[i].trace, shares[i]);
    }
    for (std::size_t i = 0; i < receivers.size(); ++i) {
      ++stats_.fanouts;
      receivers[i].on_epoch(result, epoch_index, shares[i]);
    }
  }

  if (!group->alive) return;  // a fan-out callback already tore us down
  if (group->subs.empty()) {
    teardown(group);
    return;
  }
  std::weak_ptr<Group> weak = group;
  group->next = sim.schedule_at(
      group->epoch_start + sim::SimTime::seconds(group->epoch_s),
      [this, weak] {
        if (auto group = weak.lock()) run_epoch(group);
      });
}

void SharedTreeRegistry::teardown(const std::shared_ptr<Group>& group) {
  if (!group->alive) return;
  group->alive = false;
  ++stats_.groups_torn_down;
  groups_.erase(group->key);
}

}  // namespace pgrid::sensornet
