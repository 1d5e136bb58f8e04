// Query execution under a chosen solution model — the ground truth the
// estimators and the learner are judged against.
//
// "The system will be made adaptive by comparing the estimates of energy
// consumption and response time with the actual values of energy
// consumption and response time during the execution of the query"
// (Section 4).  execute_query produces those actual values.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/small_fn.hpp"
#include "common/thread_pool.hpp"
#include "grid/infrastructure.hpp"
#include "grid/temperature.hpp"
#include "partition/cost_model.hpp"
#include "partition/models.hpp"
#include "query/classifier.hpp"
#include "sensornet/sensor_network.hpp"

namespace pgrid::partition {

/// Everything an execution touches.  References must outlive the simulated
/// run.
struct ExecutionContext {
  sensornet::SensorNetwork& sensors;
  const sensornet::ScalarField& field;
  grid::GridInfrastructure* grid = nullptr;  ///< null = no grid reachable
  /// Handheld device hanging off the base station (Figure 1).
  double base_ops_per_s = 5e7;
  double handheld_ops_per_s = 1e7;
  net::LinkClass handheld_link = net::LinkClass::bluetooth();
  std::size_t cluster_count = 0;  ///< 0 = sqrt(sensor count)
  /// Complex-query (temperature distribution) solve parameters.
  std::size_t pde_nx = 21;
  std::size_t pde_ny = 21;
  std::size_t pde_nz = 1;
  double ambient = 20.0;
  grid::SolverKind solver = grid::SolverKind::kCg;
  common::ThreadPool* pool = nullptr;
  /// Default per-query delivery budget in seconds when the query carries no
  /// COST TIME clause (0 = unlimited).  Collection rounds hand the budget to
  /// Network::deliver, which honours it only under acked delivery.
  double default_budget_s = 0.0;
};

/// Measured outcome of one execution.
struct ActualCost {
  bool ok = false;
  double energy_j = 0.0;
  double response_s = 0.0;
  std::uint64_t data_bytes = 0;
  double compute_ops = 0.0;
  double accuracy = 1.0;
  /// Fraction of qualifying sensors whose data is represented in the
  /// answer (1.0 when every expected report arrived; reads: 1 or 0).
  double coverage = 1.0;
  /// True when the answer is usable but built from partial data — the
  /// coverage-graded degraded-result path of the reliability layer.
  bool degraded = false;
  /// Scalar answer: the reading (simple), the aggregate (aggregate), or the
  /// field maximum (complex) — enough for assertions and reports.
  double value = 0.0;
  /// Full field for complex queries.
  std::optional<grid::TemperatureGrid> distribution;
  std::string error;
};

/// Move-only small-buffer callable (PR 2 kernel convention); the executor
/// wraps it in a shared_ptr internally where continuations fan out.
using ExecuteCallback = common::SmallFn<void(ActualCost)>;

/// Runs one epoch of `query` (classified as `cls`) under `model`.  Fires
/// the callback from the simulator when the answer reaches the client.
void execute_query(ExecutionContext& context, const query::Query& query,
                   const query::Classification& cls, SolutionModel model,
                   ExecuteCallback done);

/// Runs a continuous query for `epochs` epochs spaced by its EPOCH
/// DURATION; per-epoch results accumulate into the vector handed to `done`.
void execute_continuous(ExecutionContext& context, const query::Query& query,
                        const query::Classification& cls, SolutionModel model,
                        std::size_t epochs,
                        std::function<void(std::vector<ActualCost>)> done);

/// Chooses the solution model for an epoch (called before each one).
using ModelProvider = std::function<SolutionModel(std::size_t epoch)>;
/// Observes an epoch's outcome (called after each one) — the adaptive
/// feedback hook: calibrations updated here shift later epochs' choices.
using EpochObserver = std::function<void(std::size_t epoch,
                                         SolutionModel model,
                                         const ActualCost& actual)>;

/// Cooperative cancellation for continuous executions: the owner keeps the
/// mutable shared_ptr<bool> and flips it to true; the epoch loop checks it
/// at each epoch boundary and stops silently (done never fires).  The
/// failover layer uses this to fence live segments when a base station
/// crashes — the in-RAM loop must die without finalizing, because the
/// restored replay owns the query's single completion.
using AbortToken = std::shared_ptr<const bool>;

/// Adaptive continuous execution: the model is re-decided every epoch, so a
/// long-standing query migrates between solution models as the learner's
/// calibration converges or the network changes — Section 4's "the system
/// will be made adaptive", applied *during* execution.  `models_used[i]`
/// records the choice for epoch i.
void execute_continuous_adaptive(
    ExecutionContext& context, const query::Query& query,
    const query::Classification& cls, std::size_t epochs,
    ModelProvider choose, EpochObserver observe,
    std::function<void(std::vector<ActualCost>,
                       std::vector<SolutionModel>)> done,
    AbortToken abort = nullptr);

/// Builds the in-network WHERE filter from the query's selection
/// predicates.  Supported attributes: `sensor` (index), `room` (floor-plan
/// room), `x`/`y` (position in metres), and the sensed attribute itself
/// (any other name, e.g. `temp`), which qualifies on the reading — TAG's
/// value predicates.  Returns false on no predicates (null filter).  Public
/// so the sharing layer (core/sharing.hpp) builds one filter per shared
/// group with exactly the executor's qualification semantics.
bool make_sensor_filter(ExecutionContext& context, const query::Query& query,
                        sensornet::SensorNetwork::SensorFilter& out);

/// A query's delivery budget in seconds (<= 0 = unlimited): an explicit
/// COST TIME clause wins, else `default_s`.  The one budget rule, shared by
/// the executor, the sharing layer and the runtime's admission deadline.
double query_budget_s(const query::Query& query, double default_s);

/// Builds the estimator profile from live context (topology depths, grid
/// speed, query compute demand).
NetworkProfile profile_from(ExecutionContext& context,
                            const query::Classification& cls);

}  // namespace pgrid::partition
