#include "partition/executor.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "net/routing.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::partition {

namespace {

std::size_t effective_clusters(const ExecutionContext& context) {
  if (context.cluster_count > 0) return context.cluster_count;
  return static_cast<std::size_t>(std::ceil(
      std::sqrt(static_cast<double>(context.sensors.sensors().size()))));
}

/// Delivery budget for one epoch of `query`, starting now.
net::Budget query_budget(ExecutionContext& context,
                         const query::Query& query) {
  const double seconds = query_budget_s(query, context.default_budget_s);
  if (seconds <= 0.0) return net::Budget::unlimited();
  return net::Budget::until(context.sensors.network().simulator().now() +
                            sim::SimTime::seconds(seconds));
}

/// Grades a collection round: coverage is the fraction of qualifying
/// sensors represented in the answer; degraded marks a usable-but-partial
/// result.
void grade_coverage(const sensornet::CollectionResult& collected,
                    ActualCost& cost) {
  cost.coverage = collected.expected > 0
                      ? static_cast<double>(collected.reports) /
                            static_cast<double>(collected.expected)
                      : 0.0;
  cost.degraded = cost.ok && collected.reports < collected.expected;
}

/// Per-run measurement bracket: a view over the telemetry ledger's row for
/// the active trace.  ActualCost is the trace's cost delta between
/// construction and finish() — the executor no longer sums energy or bytes
/// by hand; it reads back what the layers charged.
struct Measurement {
  telemetry::CostLedger& ledger;
  telemetry::TraceId trace;
  telemetry::TraceCosts before;
  sim::SimTime started;

  explicit Measurement(net::Network& network)
      : ledger(network.telemetry()),
        trace(ledger.current_trace()),
        before(ledger.trace(trace)),
        started(network.simulator().now()) {}

  void finish(net::Network& network, ActualCost& cost) const {
    const telemetry::TraceCosts delta = ledger.trace(trace) - before;
    cost.energy_j = delta.total().joules;
    cost.data_bytes = delta.network_bytes();
    cost.compute_ops = delta.total().ops;
    cost.response_s =
        (network.simulator().now() - started).to_seconds();
  }
};

/// Charges application-level operations to the subsystem the solution model
/// places the computation on, under the ambient trace.
void charge_ops(ExecutionContext& context, telemetry::Subsystem subsystem,
                double ops) {
  telemetry::Cost cost;
  cost.ops = ops;
  context.sensors.network().telemetry().charge(subsystem, cost);
}

std::vector<grid::Reading> to_readings(
    const std::vector<sensornet::RawReading>& raw) {
  std::vector<grid::Reading> readings;
  readings.reserve(raw.size());
  for (const auto& r : raw) readings.push_back({r.pos, r.value});
  return readings;
}

}  // namespace

bool make_sensor_filter(ExecutionContext& context, const query::Query& query,
                        sensornet::SensorNetwork::SensorFilter& out) {
  if (query.where.empty()) {
    out = nullptr;
    return false;
  }
  // Copy the predicates; the query object may not outlive the round.
  const std::vector<query::Predicate> predicates = query.where;
  auto* sensors = &context.sensors;
  out = [sensors, predicates](net::NodeId id, double value) {
    const auto& network = sensors->network();
    for (const auto& pred : predicates) {
      if (!pred.numeric) continue;  // string metadata not modelled
      bool ok = true;
      if (pred.attribute == "sensor") {
        // Predicate over the sensor *index* in the deployment.
        const auto& ids = sensors->sensors();
        const auto it = std::find(ids.begin(), ids.end(), id);
        const double index =
            it == ids.end() ? -1.0 : double(it - ids.begin());
        ok = pred.eval(index);
      } else if (pred.attribute == "room") {
        ok = pred.eval(double(sensors->room_of(id)));
      } else if (pred.attribute == "floor") {
        ok = pred.eval(double(sensors->floor_of(id)));
      } else if (pred.attribute == "x") {
        ok = pred.eval(network.node(id).pos.x);
      } else if (pred.attribute == "y") {
        ok = pred.eval(network.node(id).pos.y);
      } else {
        ok = pred.eval(value);  // value predicate on the sensed attribute
      }
      if (!ok) return false;
    }
    return true;
  };
  return true;
}

namespace {

/// Finishes a run: stamps the measurement and hands off.  The callback is
/// shared because continuations fan out through copyable std::function
/// layers (collection callbacks, grid jobs) before converging here.
void complete(ExecutionContext& context,
              const std::shared_ptr<Measurement>& measurement,
              ActualCost cost, const std::shared_ptr<ExecuteCallback>& done) {
  measurement->finish(context.sensors.network(), cost);
  (*done)(std::move(cost));
}

void execute_simple(ExecutionContext& context, const query::Query& query,
                    ExecuteCallback done_cb) {
  auto measurement =
      std::make_shared<Measurement>(context.sensors.network());
  auto done = std::make_shared<ExecuteCallback>(std::move(done_cb));
  const query::Predicate* pred = query.predicate_on("sensor");
  ActualCost failed;
  failed.coverage = 0.0;
  if (pred == nullptr || !pred->numeric) {
    failed.error = "simple query needs a 'sensor = <id>' predicate";
  } else {
    const auto index = static_cast<std::size_t>(pred->number);
    if (index >= context.sensors.sensors().size()) {
      failed.error = "sensor index out of range";
    } else {
      const net::NodeId sensor = context.sensors.sensors()[index];
      context.sensors.read_sensor(
          sensor, context.field,
          [&context, measurement, done](sensornet::ReadResult read) {
            ActualCost cost;
            cost.ok = read.ok;
            cost.value = read.value;
            cost.coverage = read.ok ? 1.0 : 0.0;
            charge_ops(context, telemetry::Subsystem::kSensing, 1.0);
            if (!read.ok) cost.error = "sensor unreachable";
            complete(context, measurement, std::move(cost), done);
          },
          query_budget(context, query));
      return;
    }
  }
  context.sensors.network().simulator().schedule(
      sim::SimTime::zero(), [&context, measurement, failed, done] {
        complete(context, measurement, failed, done);
      });
}

void execute_aggregate(ExecutionContext& context, const query::Query& query,
                       const query::Classification& cls, SolutionModel model,
                       ExecuteCallback done_cb) {
  auto measurement =
      std::make_shared<Measurement>(context.sensors.network());
  auto done = std::make_shared<ExecuteCallback>(std::move(done_cb));
  const auto fn = cls.aggregate;
  sensornet::SensorNetwork::SensorFilter filter;
  make_sensor_filter(context, query, filter);
  const net::Budget budget = query_budget(context, query);
  auto finish_with = [&context, measurement, fn,
                      done](const sensornet::CollectionResult& collected,
                            double extra_ops, double ops_per_s) {
    ActualCost cost;
    cost.ok = collected.reports > 0;
    cost.value = collected.aggregate.result(fn);
    const double ops = static_cast<double>(collected.reports) + extra_ops;
    // The merge runs at the base station when it has a compute rate,
    // otherwise it happened in-network during collection.
    charge_ops(context,
               ops_per_s > 0 ? telemetry::Subsystem::kEdgeCompute
                             : telemetry::Subsystem::kSensing,
               ops);
    cost.accuracy = collected.expected > 0
                        ? static_cast<double>(collected.reports) /
                              static_cast<double>(collected.expected)
                        : 0.0;
    grade_coverage(collected, cost);
    if (!cost.ok) cost.error = "no sensor reports";
    // Charge the (tiny) aggregate computation where it runs.
    const double compute_s = ops_per_s > 0 ? ops / ops_per_s : 0.0;
    context.sensors.network().simulator().schedule(
        sim::SimTime::seconds(compute_s),
        [&context, measurement, cost, done] {
          complete(context, measurement, cost, done);
        });
  };

  switch (model) {
    case SolutionModel::kAllToBase:
      context.sensors.collect_all_to_base(
          context.field,
          [finish_with, &context](auto collected) {
            finish_with(collected, 0.0, context.base_ops_per_s);
          },
          filter, budget);
      return;
    case SolutionModel::kTreeAggregate:
      context.sensors.collect_tree_aggregate(
          context.field,
          [finish_with](auto collected) {
            finish_with(collected, 0.0, 0.0);  // merged in-network
          },
          filter, budget);
      return;
    case SolutionModel::kClusterAggregate:
      context.sensors.collect_cluster_aggregate(
          context.field, effective_clusters(context),
          [finish_with](auto collected) { finish_with(collected, 0.0, 0.0); },
          filter, budget);
      return;
    case SolutionModel::kGridOffload: {
      grid::GridInfrastructure* infra = context.grid;
      context.sensors.collect_all_to_base(
          context.field,
          [&context, measurement, fn, infra, done](auto collected) {
            ActualCost cost;
            cost.ok = collected.reports > 0 && infra != nullptr;
            cost.value = collected.aggregate.result(fn);
            grade_coverage(collected, cost);
            const double ops = static_cast<double>(collected.reports);
            // The base still pays the per-report bookkeeping whether or not
            // a grid is reachable; the offloaded job itself is covered by
            // the grid-compute span.
            charge_ops(context, telemetry::Subsystem::kEdgeCompute, ops);
            if (infra == nullptr) {
              cost.error = "no grid reachable";
              complete(context, measurement, std::move(cost), done);
              return;
            }
            const std::uint64_t in_bytes =
                collected.reports * context.sensors.config().sample_bytes;
            infra->submit(ops * 10.0, in_bytes, 64,
                          [&context, measurement, cost,
                           done](grid::JobResult job) mutable {
                            cost.ok = cost.ok && job.ok;
                            if (!job.ok) cost.error = "grid job failed";
                            complete(context, measurement, std::move(cost),
                                     done);
                          });
          },
          filter, budget);
      return;
    }
    default: {
      ActualCost cost;
      cost.coverage = 0.0;
      cost.error = "model does not support aggregate queries";
      context.sensors.network().simulator().schedule(
          sim::SimTime::zero(), [&context, measurement, cost, done] {
            complete(context, measurement, cost, done);
          });
      return;
    }
  }
}

void execute_complex(ExecutionContext& context, const query::Query& query,
                     SolutionModel model, ExecuteCallback done_cb) {
  auto measurement =
      std::make_shared<Measurement>(context.sensors.network());
  auto done = std::make_shared<ExecuteCallback>(std::move(done_cb));
  const double width = context.sensors.config().width_m;
  const double height = context.sensors.config().height_m;
  sensornet::SensorNetwork::SensorFilter filter;
  make_sensor_filter(context, query, filter);
  const net::Budget budget = query_budget(context, query);

  // Stage 2, shared by every placement: solve the PDE (real numerics on the
  // host) and charge its flops to wherever the model places the compute.
  auto solve_and_finish = [&context, measurement, width, height, model,
                           done](const sensornet::CollectionResult& collected,
                                 double accuracy) {
    ActualCost cost;
    if (collected.raw.empty()) {
      cost.coverage = 0.0;
      cost.error = "no readings reached the base station";
      complete(context, measurement, std::move(cost), done);
      return;
    }
    // A multi-storey building gets the full 3-D PDE ("a 3D partial
    // differential equation needs to be set up"); single-storey stays 2-D.
    const double depth =
        context.pde_nz > 1 ? context.sensors.building_depth_m() : 0.0;
    auto result = grid::solve_temperature_distribution(
        to_readings(collected.raw), width, height, depth, context.pde_nx,
        context.pde_ny, context.pde_nz, context.ambient, context.solver,
        context.pool);
    cost.ok = result.stats.converged;
    const double flops = result.stats.flops;
    const bool on_grid = model == SolutionModel::kGridOffload ||
                         model == SolutionModel::kHybridRegionGrid;
    charge_ops(context,
               on_grid ? telemetry::Subsystem::kGridCompute
                       : telemetry::Subsystem::kEdgeCompute,
               flops);
    cost.accuracy = accuracy;
    cost.value = result.grid.max_value();
    cost.distribution = std::move(result.grid);
    grade_coverage(collected, cost);
    if (!cost.ok) cost.error = "solver did not converge";

    const std::uint64_t field_bytes =
        context.pde_nx * context.pde_ny * context.pde_nz * 8;
    const std::uint64_t in_bytes =
        collected.raw.size() * context.sensors.config().sample_bytes;

    switch (model) {
      case SolutionModel::kAllToBase: {
        // "It is simply not feasible to perform the computation for solving
        // such a query inside the network" — feasible at the base, but slow.
        const double compute_s = flops / context.base_ops_per_s;
        context.sensors.network().simulator().schedule(
            sim::SimTime::seconds(compute_s),
            [&context, measurement, cost, done] {
              complete(context, measurement, cost, done);
            });
        return;
      }
      case SolutionModel::kHandheldLocal: {
        // Raw data hops from the base to the PDA over the short-range link,
        // then the PDA grinds through the solve.
        const double transfer_s =
            context.handheld_link.transfer_time(in_bytes).to_seconds();
        const double compute_s = flops / context.handheld_ops_per_s;
        context.sensors.network().simulator().schedule(
            sim::SimTime::seconds(transfer_s + compute_s),
            [&context, measurement, cost, done] {
              complete(context, measurement, cost, done);
            });
        return;
      }
      case SolutionModel::kGridOffload:
      case SolutionModel::kHybridRegionGrid: {
        if (context.grid == nullptr) {
          cost.ok = false;
          cost.error = "no grid reachable";
          complete(context, measurement, std::move(cost), done);
          return;
        }
        context.grid->submit(
            flops, in_bytes, field_bytes,
            [&context, measurement, cost, done](grid::JobResult job) mutable {
              cost.ok = cost.ok && job.ok;
              if (!job.ok) cost.error = "grid job failed";
              complete(context, measurement, std::move(cost), done);
            });
        return;
      }
      default: {
        cost.ok = false;
        cost.error = "model does not support complex queries";
        complete(context, measurement, std::move(cost), done);
        return;
      }
    }
  };

  if (model == SolutionModel::kHybridRegionGrid) {
    const std::size_t regions = effective_clusters(context);
    const double n =
        static_cast<double>(context.sensors.sensors().size());
    const double accuracy =
        std::min(1.0, std::sqrt(static_cast<double>(regions) / n));
    context.sensors.collect_region_averages(
        context.field, regions,
        [solve_and_finish, accuracy](auto collected) {
          solve_and_finish(collected, accuracy);
        },
        filter, budget);
  } else {
    context.sensors.collect_all_to_base(
        context.field,
        [solve_and_finish](auto collected) {
          solve_and_finish(collected, 1.0);
        },
        filter, budget);
  }
}

}  // namespace

void execute_query(ExecutionContext& context, const query::Query& query,
                   const query::Classification& cls, SolutionModel model,
                   ExecuteCallback done) {
  switch (cls.inner) {
    case query::QueryClass::kSimple:
      execute_simple(context, query, std::move(done));
      return;
    case query::QueryClass::kAggregate:
      execute_aggregate(context, query, cls, model, std::move(done));
      return;
    case query::QueryClass::kComplex:
      execute_complex(context, query, model, std::move(done));
      return;
    case query::QueryClass::kContinuous: {
      // classify() never produces kContinuous as an *inner* class; handle
      // defensively as a single simple read.
      execute_simple(context, query, std::move(done));
      return;
    }
  }
}

void execute_continuous(ExecutionContext& context, const query::Query& query,
                        const query::Classification& cls, SolutionModel model,
                        std::size_t epochs,
                        std::function<void(std::vector<ActualCost>)> done) {
  execute_continuous_adaptive(
      context, query, cls, epochs,
      [model](std::size_t) { return model; }, nullptr,
      [done = std::move(done)](std::vector<ActualCost> results,
                               std::vector<SolutionModel>) {
        done(std::move(results));
      });
}

void execute_continuous_adaptive(
    ExecutionContext& context, const query::Query& query,
    const query::Classification& cls, std::size_t epochs,
    ModelProvider choose, EpochObserver observe,
    std::function<void(std::vector<ActualCost>,
                       std::vector<SolutionModel>)> done,
    AbortToken abort) {
  const double epoch_s = query.epoch_duration_s.value_or(1.0);
  auto results = std::make_shared<std::vector<ActualCost>>();
  auto models = std::make_shared<std::vector<SolutionModel>>();
  auto done_shared = std::make_shared<
      std::function<void(std::vector<ActualCost>, std::vector<SolutionModel>)>>(
      std::move(done));
  auto choose_shared = std::make_shared<ModelProvider>(std::move(choose));
  auto observe_shared = std::make_shared<EpochObserver>(std::move(observe));
  auto run_epoch = std::make_shared<std::function<void(std::size_t)>>();
  query::Classification inner_cls = cls;
  inner_cls.continuous = false;
  *run_epoch = [&context, query, inner_cls, epochs, epoch_s, results, models,
                done_shared, choose_shared, observe_shared, abort,
                run_epoch](std::size_t epoch) {
    if (abort && *abort) {
      // Fenced: die silently at the epoch boundary; the owner of the token
      // has taken over this query's completion.
      context.sensors.network().simulator().schedule(
          sim::SimTime::zero(), [run_epoch] { *run_epoch = nullptr; });
      return;
    }
    if (epoch >= epochs) {
      (*done_shared)(*results, *models);
      // `*run_epoch` captures `run_epoch`; break the cycle (deferred: we
      // are executing inside `*run_epoch` right now).
      context.sensors.network().simulator().schedule(
          sim::SimTime::zero(), [run_epoch] { *run_epoch = nullptr; });
      return;
    }
    const SolutionModel model = (*choose_shared)(epoch);
    models->push_back(model);
    const sim::SimTime epoch_start =
        context.sensors.network().simulator().now();
    execute_query(
        context, query, inner_cls, model,
        [&context, epoch, epoch_s, epoch_start, model, results,
         observe_shared, run_epoch](ActualCost cost) {
          if (*observe_shared) (*observe_shared)(epoch, model, cost);
          results->push_back(std::move(cost));
          // Next epoch starts one EPOCH DURATION after this one began.
          const sim::SimTime next =
              epoch_start + sim::SimTime::seconds(epoch_s);
          context.sensors.network().simulator().schedule_at(
              next, [epoch, run_epoch] { (*run_epoch)(epoch + 1); });
        });
  };
  (*run_epoch)(0);
}

double query_budget_s(const query::Query& query, double default_s) {
  if (query.cost.metric == query::CostMetric::kTime && query.cost.limit > 0) {
    return query.cost.limit;
  }
  return default_s;
}

NetworkProfile profile_from(ExecutionContext& context,
                            const query::Classification& cls) {
  NetworkProfile profile;
  auto& sensors = context.sensors;
  profile.sensor_count = sensors.sensors().size();
  profile.sample_bytes = sensors.config().sample_bytes;
  profile.state_bytes = sensors.config().state_bytes;
  profile.sensor_radio = sensors.config().radio;
  profile.cluster_count = effective_clusters(context);
  profile.base_ops_per_s = context.base_ops_per_s;
  profile.handheld_ops_per_s = context.handheld_ops_per_s;
  profile.handheld_link = context.handheld_link;
  profile.grid_flops_per_s =
      context.grid ? context.grid->peak_flops_per_s() : 0.0;

  // Topology features from the live routing tree.
  const auto& tree = sensors.tree();
  double depth_sum = 0.0;
  double dist_sum = 0.0;
  std::size_t counted = 0;
  for (net::NodeId id : sensors.sensors()) {
    if (!tree.contains(id) || id == tree.sink()) continue;
    depth_sum += static_cast<double>(tree.depth(id));
    const net::NodeId parent = tree.parent(id);
    dist_sum += net::distance(sensors.network().node(id).pos,
                              sensors.network().node(parent).pos);
    ++counted;
  }
  if (counted > 0) {
    profile.avg_depth_hops = depth_sum / static_cast<double>(counted);
    profile.avg_hop_distance_m = dist_sum / static_cast<double>(counted);
    profile.max_depth_hops = static_cast<double>(tree.max_depth());
  }

  if (cls.inner == query::QueryClass::kComplex) {
    profile.query_compute_ops = grid::estimate_distribution_flops(
        context.pde_nx, context.pde_ny, context.pde_nz, context.solver);
    profile.result_bytes =
        context.pde_nx * context.pde_ny * context.pde_nz * 8;
  } else {
    profile.query_compute_ops =
        static_cast<double>(profile.sensor_count);
  }
  return profile;
}

}  // namespace pgrid::partition
