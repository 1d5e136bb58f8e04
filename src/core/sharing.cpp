#include "core/sharing.hpp"

#include <algorithm>

namespace pgrid::core {

void QuerySharing::admit(const query::CanonicalQuery& canonical,
                         net::Budget budget, double min_runtime_s,
                         Proceed proceed, Shed shed) {
  auto& sim = sensors_.network().simulator();
  // Deadline-budget shedding first: an arrival whose budget cannot cover
  // even its minimum runtime can never answer in time.  Refusing it here —
  // before it holds a slot, burns per-hop retries and feeds failures into
  // the link breakers — is the whole point of admission control.
  if (budget.bounded() &&
      budget.remaining(sim.now()) <
          sim::SimTime::seconds(min_runtime_s)) {
    ++stats_.shed_budget;
    shed("admission control: deadline budget cannot cover the query");
    return;
  }
  if (config_.max_active == 0 || active_ < config_.max_active) {
    ++active_;
    ++stats_.admitted;
    proceed();
    return;
  }
  // Batching compatible arrivals: a query whose group is already running
  // adds no sensor load (its epochs ride existing transmissions), so it is
  // admitted past the cap instead of queueing behind a slot it won't spend.
  if (group_live(canonical)) {
    ++active_;
    ++stats_.coalesced;
    proceed();
    return;
  }
  if (queue_.size() >= config_.max_queue) {
    ++stats_.shed_overload;
    shed("admission control: arrival queue full (overload)");
    return;
  }
  ++stats_.queued;
  // Deadline-priority admission: the queue is kept ordered by remaining
  // deadline budget (at a common "now", that is exactly the absolute
  // deadline), so a tight-budget arrival overtakes slack ones and gets a
  // slot while it can still finish.  Unbounded budgets carry the max
  // deadline and therefore sort last; upper_bound keeps equal deadlines in
  // FIFO arrival order.
  auto slot = std::upper_bound(
      queue_.begin(), queue_.end(), budget.deadline,
      [](sim::SimTime deadline, const Waiting& waiting) {
        return deadline < waiting.budget.deadline;
      });
  queue_.insert(slot, {budget, std::move(proceed), std::move(shed)});
}

void QuerySharing::on_complete() {
  if (active_ > 0) --active_;
  auto& sim = sensors_.network().simulator();
  while (!queue_.empty() &&
         (config_.max_active == 0 || active_ < config_.max_active)) {
    Waiting next = std::move(queue_.front());
    queue_.pop_front();
    if (next.budget.expired(sim.now())) {
      ++stats_.shed_budget;
      next.shed("admission control: deadline passed while queued");
      continue;
    }
    ++active_;
    ++stats_.admitted;
    next.proceed();
  }
}

void QuerySharing::crash_reset() {
  queue_.clear();
  active_ = 0;
  registry_.teardown_all();
}

bool QuerySharing::execute_shared(
    std::shared_ptr<partition::ExecutionContext> ctx,
    const query::CanonicalQuery& canonical, std::size_t epochs,
    partition::EpochObserver observe,
    std::function<void(std::vector<partition::ActualCost>,
                       std::vector<partition::SolutionModel>)> done,
    std::function<void()>* cancel_out) {
  if (!canonical.shareable || epochs == 0) return false;
  ++stats_.shared_queries;

  sensornet::SharedTreeRegistry::Subscription sub;
  sub.key = canonical.key.text;
  sub.field = &ctx->field;
  partition::make_sensor_filter(*ctx, canonical.shared, sub.filter);
  sub.epoch_s = canonical.shared.epoch_duration_s.value_or(1.0);
  sub.budget_s =
      partition::query_budget_s(canonical.shared, ctx->default_budget_s);
  sub.trace = sensors_.network().telemetry().current_trace();

  struct SubscriberState {
    sensornet::SubscriberId id = sensornet::kInvalidSubscriber;
    sensornet::AggregateFunction fn = sensornet::AggregateFunction::kAvg;
    std::size_t epochs = 0;
    std::vector<partition::ActualCost> results;
    std::vector<partition::SolutionModel> models;
  };
  auto state = std::make_shared<SubscriberState>();
  state->fn = canonical.aggregate;
  state->epochs = epochs;

  sub.on_epoch = [this, ctx, state, observe = std::move(observe),
                  done = std::move(done)](
                     const sensornet::CollectionResult& collected,
                     std::size_t /*group_epoch*/,
                     const telemetry::TraceCosts& share) {
    partition::ActualCost cost;
    cost.ok = collected.reports > 0;
    cost.value = collected.aggregate.result(state->fn);
    cost.accuracy = collected.expected > 0
                        ? static_cast<double>(collected.reports) /
                              static_cast<double>(collected.expected)
                        : 0.0;
    cost.coverage = cost.accuracy;
    cost.degraded = cost.ok && collected.reports < collected.expected;
    if (!cost.ok) cost.error = "no sensor reports";
    cost.energy_j = share.total().joules;
    cost.data_bytes = share.network_bytes();
    cost.compute_ops = share.total().ops;
    cost.response_s = collected.elapsed_s;
    ++stats_.shared_epochs;

    const std::size_t local_epoch = state->results.size();
    if (observe) {
      observe(local_epoch, partition::SolutionModel::kTreeAggregate, cost);
    }
    state->results.push_back(std::move(cost));
    state->models.push_back(partition::SolutionModel::kTreeAggregate);
    if (state->results.size() >= state->epochs) {
      registry_.unsubscribe(state->id);
      done(state->results, state->models);
    }
  };
  state->id = registry_.subscribe(std::move(sub));
  if (cancel_out != nullptr) {
    *cancel_out = [this, state] {
      // Unsubscribing an id the registry no longer knows (already finished,
      // or torn down by crash_reset) is a clean no-op.
      registry_.unsubscribe(state->id);
    };
  }
  return true;
}

}  // namespace pgrid::core
