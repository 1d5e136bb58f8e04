// Shared TAG trees: one epoch schedule and one in-network collection per
// query group, fanned out to every subscriber.
//
// TAG was designed around exactly this: a single in-network schedule whose
// constant-size partial states serve many consumers.  A Group owns one
// epoch loop over collect_tree_aggregate (the packet path, or the analytic
// flow path when the network dispatches there); each round's merged
// AggregateState is delivered to all current subscribers, so N overlapping
// continuous queries cost one sensor transmission per epoch instead of N.
//
// Refcounting is explicit: subscribe() joins (or creates) the group for a
// canonical key, unsubscribe() leaves it, and the drop to zero tears the
// epoch schedule down deterministically — the pending epoch event is
// cancelled, so an empty group never samples or transmits again.
//
// Cost attribution: every round is charged to the group's own ledger trace.
// When the round completes, the charges are split into exact shares
// (telemetry::split_even) and *moved* onto the receiving subscribers'
// traces (CostLedger::reattribute) — totals never change, conservation
// holds to the bit, and each subscriber's trace row reads as if it had paid
// 1/N of the shared transmission.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sensornet/sensor_network.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::sensornet {

using SubscriberId = std::uint64_t;
inline constexpr SubscriberId kInvalidSubscriber = 0;

struct SharedTreeStats {
  std::uint64_t groups_created = 0;
  std::uint64_t groups_torn_down = 0;
  std::uint64_t collections = 0;  ///< shared rounds actually run
  std::uint64_t fanouts = 0;      ///< per-subscriber epoch deliveries
};

class SharedTreeRegistry {
 public:
  /// Fires once per epoch this subscriber receives: the shared round's
  /// outcome, the group-relative epoch index, and the exact share of the
  /// round's ledger charges already moved onto the subscriber's trace.
  using EpochCallback = std::function<void(
      const CollectionResult&, std::size_t epoch,
      const telemetry::TraceCosts& share)>;

  struct Subscription {
    std::string key;  ///< canonical key text (group identity)
    const ScalarField* field = nullptr;
    /// Qualification filter for the shared collection; only the group
    /// creator's filter is installed (equal keys imply equal predicates).
    SensorNetwork::SensorFilter filter;
    double epoch_s = 1.0;
    /// Per-round delivery budget in seconds (0 = unlimited), from
    /// partition::query_budget_s like the executor's; best-effort delivery
    /// ignores it.
    double budget_s = 0.0;
    /// Ledger trace that receives this subscriber's cost shares.
    telemetry::TraceId trace = telemetry::kNoTrace;
    EpochCallback on_epoch;
  };

  explicit SharedTreeRegistry(SensorNetwork& sensors) : sensors_(sensors) {}

  SharedTreeRegistry(const SharedTreeRegistry&) = delete;
  SharedTreeRegistry& operator=(const SharedTreeRegistry&) = delete;

  /// Joins (or creates) the group for `sub.key`.  Creating a group starts
  /// its epoch 0 collection immediately; joining an existing group delivers
  /// from the next round that *starts* after the join (a subscriber never
  /// sees data sampled before it arrived).
  SubscriberId subscribe(Subscription sub);

  /// Leaves the group; the drop to zero subscribers tears the tree's epoch
  /// schedule down (deferred to round completion when one is in flight).
  void unsubscribe(SubscriberId id);

  /// Crash semantics: every group dies at once, subscriber callbacks are
  /// never invoked again (the owning station's RAM is gone — there is no
  /// one left to deliver to).  Pending epoch events are cancelled; a round
  /// in flight delivers to nobody and its charges stay on the group trace,
  /// so ledger conservation holds.  Used by the failover layer when a base
  /// station goes down; the restored replay re-subscribes from checkpoint.
  void teardown_all();

  std::size_t active_groups() const { return groups_.size(); }
  /// Current subscriber count of the group for `key` (0 = no such group).
  std::size_t subscriber_count(const std::string& key) const;
  const SharedTreeStats& stats() const { return stats_; }

 private:
  struct Subscriber {
    SubscriberId id = kInvalidSubscriber;
    std::size_t first_epoch = 0;  ///< earliest round this subscriber gets
    telemetry::TraceId trace = telemetry::kNoTrace;
    EpochCallback on_epoch;
  };

  struct Group {
    std::string key;
    const ScalarField* field = nullptr;
    SensorNetwork::SensorFilter filter;
    double epoch_s = 1.0;
    double budget_s = 0.0;
    telemetry::TraceId trace = telemetry::kNoTrace;
    std::size_t epoch = 0;  ///< round in flight, or next to run
    bool collecting = false;
    bool alive = true;  ///< false once torn down (guards re-entrant paths)
    sim::SimTime epoch_start{};
    sim::EventHandle next{};
    std::vector<Subscriber> subs;
  };

  void run_epoch(const std::shared_ptr<Group>& group);
  void finish_epoch(const std::shared_ptr<Group>& group,
                    const CollectionResult& result,
                    const telemetry::TraceCosts& before);
  void teardown(const std::shared_ptr<Group>& group);

  SensorNetwork& sensors_;
  std::map<std::string, std::shared_ptr<Group>> groups_;
  std::map<SubscriberId, std::string> key_of_;
  SharedTreeStats stats_;
  SubscriberId next_id_ = 1;
};

}  // namespace pgrid::sensornet
