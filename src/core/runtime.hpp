// PervasiveGridRuntime: the paper's contribution, assembled.
//
// Figure 1 end to end: a handheld device submits a query to the base
// station over the wireless edge; the query processor classifies it; the
// decision maker picks a solution model from analytic estimates, learned
// calibrations and the decision tree; the executor runs it across the
// sensor network, the base station, and the wired grid; actual costs flow
// back into the learner.  Agents mediate the handheld<->base conversation
// and services (sensors, solvers, aggregators) are advertised to the broker
// so discovery and composition operate over the same deployment.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agent/platform.hpp"
#include "common/rng.hpp"
#include "core/failover.hpp"
#include "core/sharing.hpp"
#include "discovery/broker.hpp"
#include "net/flow.hpp"
#include "net/reliable.hpp"
#include "grid/infrastructure.hpp"
#include "partition/decision_maker.hpp"
#include "partition/executor.hpp"
#include "query/classifier.hpp"
#include "query/parser.hpp"
#include "sensornet/sensor_network.hpp"
#include "sim/shard.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::core {

struct RuntimePending;  // pending outcomes keyed by conversation (internal)

/// End-to-end reliability layer (acked delivery, deadline budgets, circuit
/// breakers, coverage-graded degraded results).  Off by default — with
/// `enabled` false every legacy code path runs byte-for-byte unchanged, so
/// a run reproduces the pre-reliability build bit-identically (the kill
/// switch the acceptance gate replays).
struct ReliabilityConfig {
  bool enabled = false;
  /// Default per-query delivery budget in seconds when the query carries no
  /// COST TIME clause (0 = unlimited).
  double query_budget_s = 30.0;
};

struct RuntimeConfig {
  std::uint64_t seed = 42;
  sensornet::SensorNetworkConfig sensors;
  /// Grid machines behind the base station; empty = no grid (edge-only).
  std::vector<grid::GridMachineSpec> grid_machines = {
      {"workstation", 1e9}, {"hpc", 5e9}};
  double base_ops_per_s = 5e7;
  double handheld_ops_per_s = 1e7;
  /// PDE resolution for complex (temperature distribution) queries; the
  /// vertical resolution kicks in (3-D solve) when the building has
  /// multiple floors and pde_depth_resolution > 1.
  std::size_t pde_resolution = 21;
  std::size_t pde_depth_resolution = 1;
  double ambient_celsius = 20.0;
  /// Advertise one sensing service per sensor to the broker at startup.
  /// Registration traffic is simulated, then energy is reset so experiments
  /// start from full batteries.  What-if clones never advertise (see
  /// PervasiveGridRuntime::what_if).
  bool advertise_sensor_services = true;
  /// Epochs to run when a continuous query is submitted.
  std::size_t continuous_epochs = 10;
  /// Worker threads in the runtime's compute pool (0 = hardware
  /// concurrency).  The pool serves both the PDE solvers and parallel
  /// what-if trials; clones inherit the setting, so solver chunking — and
  /// therefore every floating-point result — is identical across the
  /// deployment and its trial clones.
  std::size_t pool_threads = 0;
  /// Max what-if trials in flight inside what_if_all: 0 = one per pool
  /// worker, 1 = strictly serial.  Each trial runs on an isolated clone
  /// (own Simulator, own CostLedger), so any setting returns outcomes
  /// bit-identical to serial evaluation, in candidate order.
  std::size_t what_if_parallelism = 0;
  /// SPMD world sharding (core/sharded.hpp).  A plain PervasiveGridRuntime
  /// ignores this block entirely — it sets the lockstep window of a
  /// ShardedDeployment built from this config.
  sim::ShardingConfig sharding;
  /// Reliability layer (PR 5); disabled by default.
  ReliabilityConfig reliability;
  /// Analytic flow tier (net/flow.hpp); disabled by default.  With
  /// `flow.enabled` false no FlowModel is constructed and every network
  /// path runs bit-identically to the packet-only build.
  net::FlowConfig flow;
  /// Multi-query sharing layer (core/sharing.hpp): shared TAG trees,
  /// admission control, per-subscriber cost attribution.  Disabled by
  /// default; with `sharing.enabled` false the layer is never constructed
  /// and every submission path runs bit-identically to a build without it.
  SharingConfig sharing;
  /// Unused: incremental topology epochs (DESIGN.md S26) are always on.
  /// Nothing reads this block; it remains only until the perf harness
  /// stops assigning its field.
  net::TopologyConfig topology;
  /// Base-station failover (core/failover.hpp): checkpointed continuous-
  /// query state, crash/restore replay, adoption and roaming handoff.  Off
  /// by default — with `failover.enabled` false no FailoverManager is
  /// constructed and every submission path runs bit-identically to a build
  /// without it.
  FailoverConfig failover;
};

/// Everything known about one answered query.
struct QueryOutcome {
  bool ok = false;
  std::string error;
  query::Query parsed;
  query::Classification classification;
  partition::SolutionModel model = partition::SolutionModel::kAllToBase;
  /// Estimate the decision maker saw before running.
  partition::CostEstimate estimate;
  /// Measured ground truth (summed over epochs for continuous queries).
  partition::ActualCost actual;
  /// Per-epoch actuals for continuous queries.
  std::vector<partition::ActualCost> epochs;
  /// Per-epoch model choices: for unforced continuous queries the decision
  /// maker re-decides every epoch, so a standing query migrates between
  /// models as calibration converges or the network changes.
  std::vector<partition::SolutionModel> epoch_models;
  /// End-to-end response seen by the handheld (includes the edge hop).
  double handheld_response_s = 0.0;
  /// Fraction of qualifying sensors represented in the answer (mean over
  /// epochs for continuous queries; failed epochs count as zero).
  double coverage = 1.0;
  /// True when the answer is usable but built from partial data — the
  /// reliability layer's coverage-graded degraded-result path.
  bool degraded = false;
  /// Ledger trace id the runtime opened for this query (kNoTrace when the
  /// outcome never reached the ledger, e.g. parse-level failures surfaced
  /// before submission).
  telemetry::TraceId trace = telemetry::kNoTrace;
  /// Everything this query spent, by subsystem — the ledger row for
  /// `trace` at the moment the answer reached the handheld.  Wireless vs
  /// backhaul bytes, grid compute time, agent messaging traffic and the
  /// runtime's own root span are separable here.
  telemetry::TraceCosts telemetry;
  /// True when the answer was served by a shared TAG tree group (the
  /// sharing layer); false on every legacy path.
  bool shared = false;
  /// True when admission control refused the query (overload or an
  /// infeasible deadline budget); `error` carries the reason.
  bool shed = false;
};

class PervasiveGridRuntime {
 public:
  explicit PervasiveGridRuntime(RuntimeConfig config);
  ~PervasiveGridRuntime();

  // --- the headline API ---------------------------------------------------

  /// Submits query text from the handheld; the callback fires (in simulated
  /// time) when the answer returns to the handheld.  The decision maker
  /// picks the solution model.
  void submit(const std::string& query_text,
              std::function<void(QueryOutcome)> done);

  /// Forces a specific solution model (benches, oracle construction).
  void submit_with_model(const std::string& query_text,
                         partition::SolutionModel model,
                         std::function<void(QueryOutcome)> done);

  /// Convenience: submit + run the simulator until the answer arrives.
  QueryOutcome submit_and_run(const std::string& query_text);
  QueryOutcome submit_and_run(const std::string& query_text,
                              partition::SolutionModel model);

  /// The paper's third component: "The simulator simulates the solution
  /// model for the query and returns the results."  Runs `query_text`
  /// under `model` on a scratch clone of this deployment (same seed, same
  /// physical field, borrowed compute pool) — real batteries, traffic
  /// counters and learner state are untouched.  Use it to trial a model
  /// before committing, or to label oracle training data.
  ///
  /// The clone leaves out two things: the experience file (a trial must
  /// never load or overwrite the durable learner) and the per-sensor
  /// service advertisements.  No trial can observe the missing adverts:
  /// the query pipeline never consults the broker, which only service
  /// composition (compose::CompositionManager) queries.  The broker, the
  /// handheld, the query processor and the compute-service providers are
  /// all still registered, so a trial on an advertising deployment returns
  /// exactly what it would on the same deployment with advertising off.
  QueryOutcome what_if(const std::string& query_text,
                       partition::SolutionModel model);

  /// Trials every supported model for the query on clones and returns the
  /// outcomes in candidate order — the measured basis for an oracle label.
  /// Trials evaluate concurrently on the runtime's thread pool (see
  /// RuntimeConfig::what_if_parallelism): every clone is a fully isolated
  /// deterministic deployment, built as what_if builds it (no advertisement
  /// burst), so the outcomes are bit-identical to serial evaluation
  /// regardless of parallelism or scheduling.
  std::vector<QueryOutcome> what_if_all(const std::string& query_text);

  // --- world & subsystem access -------------------------------------------

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  sensornet::SensorNetwork& sensors() { return *sensors_; }
  sensornet::BuildingTemperatureField& field() { return *field_; }
  grid::GridInfrastructure* grid() { return grid_.get(); }
  agent::AgentPlatform& agents() { return *platform_; }
  discovery::BrokerAgent& broker() { return *broker_; }
  discovery::Ontology& ontology() { return ontology_; }
  partition::DecisionMaker& decision_maker() { return decision_maker_; }
  query::QueryClassifier& classifier() { return classifier_; }
  net::NodeId handheld_node() const { return handheld_node_; }
  const RuntimeConfig& config() const { return config_; }
  /// The reliability channel, or null when the layer is disabled.
  net::ReliableChannel* reliable_channel() { return reliable_.get(); }
  /// The analytic flow tier, or null when disabled.
  net::FlowModel* flow_model() { return flow_.get(); }
  /// The multi-query sharing layer, or null when disabled.
  QuerySharing* sharing() { return sharing_.get(); }
  /// The base-station failover manager, or null when disabled.
  FailoverManager* failover() { return failover_.get(); }
  /// The deployment's cost ledger (owned by the network, so what_if clones
  /// get their own and never pollute this one).
  telemetry::CostLedger& telemetry() { return network_->telemetry(); }
  const telemetry::CostLedger& telemetry() const {
    return network_->telemetry();
  }

  /// Execution context for direct (agent-less) execution — benches use this
  /// to sweep models without the messaging overhead.
  partition::ExecutionContext execution_context();

  /// Resets batteries and traffic counters (between experiment runs).
  void reset_energy() { network_->reset_energy(); }

 private:
  /// What-if clone construction: the clone borrows `shared_pool` instead of
  /// spawning its own workers (null = own a pool).  Chunk boundaries in
  /// parallel_for_chunks are a pure function of (n, pool size) and the
  /// borrowed pool was built from the same config, so every floating-point
  /// result is bit-identical to a clone that owns its pool — only the
  /// thread-spawn cost disappears.
  PervasiveGridRuntime(RuntimeConfig config, common::ThreadPool* shared_pool);

  common::ThreadPool& compute_pool() { return *compute_pool_; }

  void register_agents();
  void run_pipeline(const std::string& text,
                    std::optional<partition::SolutionModel> forced,
                    std::function<void(QueryOutcome)> done);
  /// Everything downstream of admission: model decision, shared or legacy
  /// execution, per-epoch feedback, completion.  `canonical` is null when
  /// the sharing layer is disabled.
  void dispatch_query(std::shared_ptr<QueryOutcome> outcome,
                      std::optional<partition::SolutionModel> forced,
                      std::shared_ptr<const query::CanonicalQuery> canonical,
                      std::function<void(QueryOutcome)> done,
                      std::uint64_t failover_qid = 0);
  /// The one continuous-query launch, shared by first dispatch and failover
  /// segments.  A shareable query (unforced, or forced to the tree model)
  /// rides its shared TAG group when the sharing layer takes it: `outcome`,
  /// when non-null, is stamped as shared, and `shared_cancel`, when
  /// non-null, receives the subscription's detach hook.  Otherwise `epochs`
  /// adaptive epochs run under the forced model or a per-epoch decision,
  /// fenced by `abort`.  `done` must keep `ctx` alive.  Returns true when
  /// the shared group took the query.
  bool launch_continuous(
      const std::shared_ptr<partition::ExecutionContext>& ctx,
      const query::Query& query, const query::Classification& cls,
      const query::CanonicalQuery* canonical,
      std::optional<partition::SolutionModel> forced,
      const partition::NetworkProfile& profile, std::size_t epochs,
      partition::EpochObserver observe,
      std::function<void(std::vector<partition::ActualCost>,
                         std::vector<partition::SolutionModel>)>
          done,
      QueryOutcome* outcome, partition::AbortToken abort = nullptr,
      std::function<void()>* shared_cancel = nullptr);
  /// FailoverManager segment runner: executes epochs [committed, total) of
  /// a protected query, re-deriving the plan from its serializable snapshot
  /// (the parse/classify/profile chain is pure).  `readmit` routes the
  /// resumed segment back through admission control.
  void run_failover_segment(std::uint64_t qid, bool readmit);
  /// Sends the query envelope; model_name "-" lets the decision maker pick.
  void submit_internal(const std::string& query_text,
                       const std::string& model_name,
                       std::function<void(QueryOutcome)> done);

  RuntimeConfig config_;
  sim::Simulator sim_;
  common::Rng rng_;
  std::unique_ptr<net::Network> network_;
  std::unique_ptr<net::ReliableChannel> reliable_;
  std::unique_ptr<net::FlowModel> flow_;
  std::unique_ptr<sensornet::SensorNetwork> sensors_;
  std::unique_ptr<sensornet::BuildingTemperatureField> field_;
  /// Declared after sensors_ so the sharing layer (which references the
  /// sensor network) is destroyed first.
  std::unique_ptr<QuerySharing> sharing_;
  std::unique_ptr<grid::GridInfrastructure> grid_;
  std::unique_ptr<agent::AgentPlatform> platform_;
  discovery::Ontology ontology_;
  discovery::BrokerAgent* broker_ = nullptr;  ///< owned by the platform
  agent::AgentId broker_id_ = agent::kInvalidAgent;
  agent::AgentId handheld_agent_ = agent::kInvalidAgent;
  agent::AgentId base_agent_ = agent::kInvalidAgent;
  net::NodeId handheld_node_ = net::kInvalidNode;
  query::QueryClassifier classifier_;
  partition::DecisionMaker decision_maker_;
  std::unique_ptr<common::ThreadPool> pool_;  ///< null when borrowing
  common::ThreadPool* compute_pool_ = nullptr;  ///< pool_ or the borrowed one
  std::unique_ptr<RuntimePending> pending_;
  /// Declared last: destroyed first, while the learner (whose experience
  /// the manager's destructor may persist) and the ledger are still alive.
  std::unique_ptr<FailoverManager> failover_;
};

}  // namespace pgrid::core
