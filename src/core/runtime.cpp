#include "core/runtime.hpp"

#include <algorithm>
#include <fstream>
#include <future>
#include <map>
#include <sstream>

#include "common/log.hpp"
#include "compose/provider.hpp"
#include "partition/persistence.hpp"

namespace pgrid::core {

namespace {
constexpr const char* kQueryContent = "pgrid/query";
constexpr const char* kQueryResult = "pgrid/query-result";
/// Below this many candidate models what_if_all evaluates serially even
/// when parallelism allows more: with only a couple of trials the task
/// handoffs and clone construction dominate and the parallel dispatch is
/// pure overhead.
constexpr std::size_t kWhatIfSerialThreshold = 3;

/// The query's admission and failover deadline in seconds (<= 0 =
/// unlimited).  The one place budgets are gated on the reliability layer:
/// without it a query carries no deadline at all.
double deadline_budget_s(const RuntimeConfig& config,
                         const query::Query& parsed) {
  if (!config.reliability.enabled) return 0.0;
  return partition::query_budget_s(parsed, config.reliability.query_budget_s);
}

/// A continuous query cannot finish before its remaining epochs elapse —
/// the floor the admission controller sheds against.
double min_runtime_s(std::size_t epochs, double epoch_s) {
  return epochs > 1 ? epoch_s * static_cast<double>(epochs - 1) : 0.0;
}
}  // namespace

// Pending outcomes keyed by conversation id live outside the header to keep
// the public surface small.
struct RuntimePending {
  std::map<std::uint64_t, QueryOutcome> by_conversation;
};

PervasiveGridRuntime::PervasiveGridRuntime(RuntimeConfig config)
    : PervasiveGridRuntime(std::move(config), nullptr) {}

PervasiveGridRuntime::PervasiveGridRuntime(RuntimeConfig config,
                                           common::ThreadPool* shared_pool)
    : config_(std::move(config)), rng_(config_.seed) {
  network_ = std::make_unique<net::Network>(sim_, rng_.fork());
  sensors_ = std::make_unique<sensornet::SensorNetwork>(
      *network_, config_.sensors, rng_.fork());
  field_ = std::make_unique<sensornet::BuildingTemperatureField>(
      config_.ambient_celsius);
  if (!config_.grid_machines.empty()) {
    grid_ = std::make_unique<grid::GridInfrastructure>(
        *network_, sensors_->base_station(), config_.grid_machines);
  }
  platform_ = std::make_unique<agent::AgentPlatform>(*network_);
  ontology_ = discovery::make_standard_ontology();
  if (shared_pool == nullptr) {
    pool_ = std::make_unique<common::ThreadPool>(config_.pool_threads);
    shared_pool = pool_.get();
  }
  compute_pool_ = shared_pool;
  pending_ = std::make_unique<RuntimePending>();

  if (config_.reliability.enabled) {
    // The channel's jitter stream is seeded independently of rng_ so that
    // enabling reliability never perturbs the fork order the deployment's
    // other streams (placement, noise, loss) were built from.
    reliable_ = std::make_unique<net::ReliableChannel>(
        *network_, common::Rng(config_.seed ^ 0x9E3779B97F4A7C15ULL));
    network_->set_reliable_channel(reliable_.get());
  }

  if (config_.flow.enabled) {
    // Like the reliable channel, the flow model's loss-draw stream is
    // seeded off the base seed, not the fork chain: enabling the analytic
    // tier must not perturb placement/noise/packet-loss draws, so a
    // flow-mode run samples the same sensor readings as a packet-mode run.
    flow_ = std::make_unique<net::FlowModel>(
        *network_, config_.flow,
        common::Rng(config_.seed ^ 0xC2B2AE3D27D4EB4FULL));
    network_->set_flow_model(flow_.get());
  }

  if (config_.sharing.enabled) {
    // The sharing layer performs only synchronous bookkeeping until a
    // shareable query actually arrives: constructing it schedules no
    // events and draws no rng, so enabling it leaves non-shared paths
    // bit-identical to the disabled build.
    sharing_ = std::make_unique<QuerySharing>(config_.sharing, *sensors_);
  }

  if (config_.failover.enabled) {
    // Like the sharing layer: pure bookkeeping until a continuous query
    // registers (no events, no rng draws), so construction leaves every
    // path bit-identical to the disabled build.
    failover_ = std::make_unique<FailoverManager>(config_.failover, sim_,
                                                  network_->telemetry());
    failover_->set_segment_runner([this](std::uint64_t qid, bool readmit) {
      run_failover_segment(qid, readmit);
    });
    failover_->set_experience_hooks(
        /*save=*/[this] { return partition::save_experience(decision_maker_); },
        /*load=*/
        [this](const std::string& payload) {
          (void)partition::load_experience(payload, decision_maker_);
        },
        /*reset=*/[this] { decision_maker_.reset(); });
    failover_->set_crash_hook([this] {
      if (sharing_) sharing_->crash_reset();
    });
    // Cross-process persistence: historic data survives a real restart, not
    // just a simulated one (Section 4's learner needs it to accumulate).
    if (!config_.failover.experience_path.empty()) {
      std::ifstream in(config_.failover.experience_path, std::ios::binary);
      if (in) {
        std::ostringstream buffer;
        buffer << in.rdbuf();
        (void)partition::load_experience(buffer.str(), decision_maker_);
      }
    }
  }

  register_agents();
  // Let registrations and advertisements play out, then start experiments
  // from full batteries.
  sim_.run();
  network_->reset_energy();
}

PervasiveGridRuntime::~PervasiveGridRuntime() = default;

partition::ExecutionContext PervasiveGridRuntime::execution_context() {
  partition::ExecutionContext ctx{*sensors_, *field_};
  ctx.grid = grid_.get();
  ctx.base_ops_per_s = config_.base_ops_per_s;
  ctx.handheld_ops_per_s = config_.handheld_ops_per_s;
  ctx.pde_nx = config_.pde_resolution;
  ctx.pde_ny = config_.pde_resolution;
  ctx.pde_nz =
      config_.sensors.floors > 1 ? config_.pde_depth_resolution : 1;
  ctx.ambient = config_.ambient_celsius;
  ctx.pool = &compute_pool();
  ctx.default_budget_s = config_.reliability.query_budget_s;
  return ctx;
}

void PervasiveGridRuntime::register_agents() {
  const net::NodeId base = sensors_->base_station();

  // The discovery broker lives at the base station.
  auto broker =
      std::make_unique<discovery::BrokerAgent>("broker", base, ontology_);
  broker_ = broker.get();
  broker_id_ = platform_->register_agent(std::move(broker));

  // The firefighter's handheld: a wifi node next to the base station.
  net::NodeConfig handheld_config;
  handheld_config.kind = net::NodeKind::kHandheld;
  handheld_config.radio = net::LinkClass::wifi();
  // World frame: the handheld stands next to the base station wherever the
  // deployment's origin put it (see SensorNetworkConfig::origin).
  handheld_config.pos = config_.sensors.base_pos + config_.sensors.origin +
                        net::Vec3{2.0, 0.0, 0.0};
  handheld_config.unlimited_energy = true;
  handheld_node_ = network_->add_node(handheld_config);
  // The base station needs a wifi-capable path to the handheld; model the
  // base's edge interface as a wired link to keep the sensor radio intact.
  network_->add_wired_link(base, handheld_node_, net::LinkClass::wifi());

  // Under failover the handheld is a roaming client: answers that arrive
  // while it is mid-handoff (or its node is in a crash window) are held and
  // retried by a disconnection-managing deputy instead of failing the
  // conversation — the StoreAndForwardDeputy bridges the gap.
  std::unique_ptr<agent::AgentDeputy> handheld_deputy;
  if (failover_ != nullptr) {
    handheld_deputy = std::make_unique<agent::StoreAndForwardDeputy>(
        sim::SimTime::seconds(0.5), sim::SimTime::seconds(120.0));
  }
  handheld_agent_ = platform_->register_agent(
      std::make_unique<agent::LambdaAgent>(
          "handheld", handheld_node_,
          [](agent::LambdaAgent&, const agent::Envelope&) {}),
      std::move(handheld_deputy));

  // The base station's query-processor agent: receives query text from the
  // handheld, runs the pipeline, replies with the answer.
  base_agent_ = platform_->register_agent(
      std::make_unique<agent::LambdaAgent>(
          "base-query-processor", base,
          [this](agent::LambdaAgent&, const agent::Envelope& envelope) {
            if (envelope.performative != agent::Performative::kRequest ||
                envelope.content_type != kQueryContent) {
              return;
            }
            // Payload: "model=<name|->\n<query text>".
            std::optional<partition::SolutionModel> forced;
            std::string text = envelope.payload;
            if (text.rfind("model=", 0) == 0) {
              const auto newline = text.find('\n');
              const std::string name = text.substr(6, newline - 6);
              text = newline == std::string::npos ? ""
                                                  : text.substr(newline + 1);
              forced = partition::model_from_string(name);
            }
            const agent::Envelope saved = envelope;
            run_pipeline(text, forced, [this, saved](QueryOutcome outcome) {
              std::ostringstream summary;
              summary << "value=" << outcome.actual.value
                      << ";model=" << to_string(outcome.model)
                      << ";ok=" << (outcome.ok ? 1 : 0);
              pending_->by_conversation[saved.conversation_id] =
                  std::move(outcome);
              agent::Envelope reply = agent::make_reply(
                  saved, agent::Performative::kInform, summary.str());
              reply.content_type = kQueryResult;
              platform_->send(reply);
            });
          }));

  auto make_provider_agent = [this](const std::string& name,
                                    net::NodeId node,
                                    const std::string& service_class,
                                    double ops) {
    discovery::ServiceDescription service;
    service.name = name;
    service.service_class = service_class;
    service.node = node;
    service.properties["ops_per_second"] = ops;
    auto agent_ptr = std::make_unique<compose::ServiceProviderAgent>(
        name, node, service, ops);
    auto* raw = agent_ptr.get();
    const auto id = platform_->register_agent(std::move(agent_ptr));
    raw->service().provider = id;
    discovery::advertise(*platform_, id, broker_id_, raw->service());
    return id;
  };

  // Compute services: an aggregation service at the base station and a heat
  // equation solver on the fastest grid machine.
  make_provider_agent("base-aggregator", base, "AggregationService",
                      config_.base_ops_per_s);
  if (grid_ && grid_->machine_count() > 0) {
    std::size_t fastest = 0;
    for (std::size_t i = 1; i < grid_->machine_count(); ++i) {
      if (grid_->machine(i).flops_per_s >
          grid_->machine(fastest).flops_per_s) {
        fastest = i;
      }
    }
    make_provider_agent("grid-heat-solver", grid_->machine_node(fastest),
                        "HeatEquationSolver",
                        grid_->machine(fastest).flops_per_s);
  }

  // One sensing service per sensor (short registration burst, then the
  // constructor resets energy).
  if (config_.advertise_sensor_services) {
    for (std::size_t i = 0; i < sensors_->sensors().size(); ++i) {
      const net::NodeId node = sensors_->sensors()[i];
      discovery::ServiceDescription service;
      service.name = "temp-sensor-" + std::to_string(i);
      service.service_class = "TemperatureSensor";
      service.node = node;
      service.properties["sensor_index"] = static_cast<double>(i);
      service.properties["x"] = network_->node(node).pos.x;
      service.properties["y"] = network_->node(node).pos.y;
      auto agent_ptr = std::make_unique<compose::ServiceProviderAgent>(
          service.name, node, service, 1e6);
      auto* raw = agent_ptr.get();
      const auto id = platform_->register_agent(std::move(agent_ptr));
      raw->service().provider = id;
      discovery::advertise(*platform_, id, broker_id_, raw->service());
    }
  }
}

void PervasiveGridRuntime::run_pipeline(
    const std::string& text, std::optional<partition::SolutionModel> forced,
    std::function<void(QueryOutcome)> done) {
  auto outcome = std::make_shared<QueryOutcome>();
  auto parsed = query::parse_query(text);
  if (!parsed.ok()) {
    outcome->error = parsed.error();
    sim_.schedule(sim::SimTime::zero(), [outcome, done = std::move(done)] {
      done(*outcome);
    });
    return;
  }
  outcome->parsed = std::move(parsed).take();
  outcome->classification = classifier_.classify(outcome->parsed);
  const bool continuous = outcome->classification.continuous;
  const double epoch_s = outcome->parsed.epoch_duration_s.value_or(1.0);
  const double budget_s = deadline_budget_s(config_, outcome->parsed);

  // Failover protection covers continuous queries (the standing state a
  // station crash erases).  Registration happens *before* admission so a
  // queued arrival is already checkpoint-visible: a crash while it waits
  // replays it instead of silently dropping it.
  std::uint64_t failover_qid = 0;
  if (failover_ && continuous) {
    QueryCheckpoint meta;
    meta.text = text;
    meta.model = forced ? partition::to_string(*forced) : "-";
    meta.total_epochs = config_.continuous_epochs;
    meta.epoch_s = epoch_s;
    if (budget_s > 0.0) meta.deadline_s = sim_.now().to_seconds() + budget_s;
    failover_qid = failover_->register_query(std::move(meta));
  }

  if (!sharing_) {
    dispatch_query(std::move(outcome), forced, nullptr, std::move(done),
                   failover_qid);
    return;
  }

  // Sharing layer: canonicalize (pure), then pass admission control.  With
  // free slots the admit path runs the dispatch synchronously — identical
  // event/rng behaviour to the disabled build.
  auto canonical = std::make_shared<const query::CanonicalQuery>(
      query::canonicalize(outcome->parsed, outcome->classification));
  const net::Budget budget =
      budget_s > 0.0
          ? net::Budget::until(sim_.now() + sim::SimTime::seconds(budget_s))
          : net::Budget::unlimited();
  auto done_shared =
      std::make_shared<std::function<void(QueryOutcome)>>(std::move(done));
  sharing_->admit(
      *canonical, budget,
      continuous ? min_runtime_s(config_.continuous_epochs, epoch_s) : 0.0,
      /*proceed=*/
      [this, outcome, forced, canonical, done_shared, failover_qid] {
        // Completion frees the admission slot and drains the queue.
        dispatch_query(outcome, forced, canonical,
                       [this, done_shared](QueryOutcome result) {
                         (*done_shared)(std::move(result));
                         sharing_->on_complete();
                       },
                       failover_qid);
      },
      /*shed=*/
      [this, outcome, done_shared, failover_qid](const std::string& reason) {
        // The legacy shed path answers the client directly; the arrival
        // never held protected state worth replaying.
        if (failover_ && failover_qid != 0) {
          failover_->deregister(failover_qid);
        }
        outcome->shed = true;
        outcome->error = reason;
        sim_.schedule(sim::SimTime::zero(),
                      [outcome, done_shared] { (*done_shared)(*outcome); });
      });
}

void PervasiveGridRuntime::dispatch_query(
    std::shared_ptr<QueryOutcome> outcome,
    std::optional<partition::SolutionModel> forced,
    std::shared_ptr<const query::CanonicalQuery> canonical,
    std::function<void(QueryOutcome)> done, std::uint64_t failover_qid) {
  // The context must outlive the asynchronous execution.
  auto ctx = std::make_shared<partition::ExecutionContext>(
      execution_context());
  const auto profile = partition::profile_from(*ctx, outcome->classification);
  const auto metric = outcome->parsed.cost.metric;
  outcome->model =
      forced ? *forced
             : decision_maker_.decide(outcome->classification.inner, metric,
                                      profile);
  outcome->estimate = decision_maker_.calibrated_estimate(
      profile, outcome->classification.inner, outcome->model);
  // Raw (uncalibrated) estimate for the feedback loop.
  const auto raw_estimate = partition::estimate_cost(
      profile, outcome->classification.inner, outcome->model);

  auto finish = [this, outcome, raw_estimate,
                 done = std::move(done)]() {
    // Continuous queries feed back per epoch (the summary sums energy over
    // all epochs, which would skew a per-epoch calibration ratio).
    if (!outcome->classification.continuous) {
      decision_maker_.observe(outcome->classification.inner, outcome->model,
                              raw_estimate, outcome->actual.energy_j,
                              outcome->actual.response_s);
    }
    done(*outcome);
  };

  if (outcome->classification.continuous) {
    const bool reliable_on = reliable_ != nullptr;
    auto summarize = [outcome, ctx, finish, reliable_on](
                         std::vector<partition::ActualCost> epochs,
                         std::vector<partition::SolutionModel> models) {
      outcome->epochs = std::move(epochs);
      outcome->epoch_models = std::move(models);
      if (!outcome->epoch_models.empty()) {
        outcome->model = outcome->epoch_models.back();
      }
      partition::ActualCost total;
      total.ok = !outcome->epochs.empty();
      double response_sum = 0.0;
      double coverage_sum = 0.0;
      bool any_ok = false;
      bool any_degraded = false;
      for (const auto& epoch : outcome->epochs) {
        total.ok = total.ok && epoch.ok;
        any_ok = any_ok || epoch.ok;
        any_degraded = any_degraded || epoch.degraded || !epoch.ok;
        coverage_sum += epoch.ok ? epoch.coverage : 0.0;
        total.energy_j += epoch.energy_j;
        total.data_bytes += epoch.data_bytes;
        total.compute_ops += epoch.compute_ops;
        response_sum += epoch.response_s;
        total.value = epoch.value;  // latest epoch's answer
      }
      if (!outcome->epochs.empty()) {
        total.response_s =
            response_sum / static_cast<double>(outcome->epochs.size());
        total.accuracy = outcome->epochs.back().accuracy;
        total.coverage =
            coverage_sum / static_cast<double>(outcome->epochs.size());
      }
      if (reliable_on) {
        // Degraded-result semantics: a standing query stays useful as long
        // as any epoch answered; lost epochs show up as reduced coverage
        // and a degraded flag instead of failing the whole query.
        const bool all_ok = total.ok;
        total.ok = any_ok;
        total.degraded = total.ok && (!all_ok || any_degraded);
      }
      outcome->actual = std::move(total);
      outcome->ok = outcome->actual.ok;
      outcome->coverage = outcome->actual.coverage;
      outcome->degraded = outcome->actual.degraded;
      finish();
    };

    const auto inner = outcome->classification.inner;
    // Every epoch feeds the learner; unforced queries also re-decide the
    // model each epoch (Section 4's adaptation, during execution).
    auto per_epoch_observe = [this, inner, profile](
                                 std::size_t, partition::SolutionModel model,
                                 const partition::ActualCost& actual) {
      const auto epoch_estimate =
          partition::estimate_cost(profile, inner, model);
      decision_maker_.observe(inner, model, epoch_estimate, actual.energy_j,
                              actual.response_s);
    };
    // Protected dispatch: the failover manager owns the query's lifecycle
    // from here.  Its summarize closure becomes the record's finalize (the
    // single completion, fenced across crash/restore/adoption cycles) and
    // the segment runner re-derives the execution plan from the snapshot —
    // same trace context, same synchronous launch, same model decisions as
    // the legacy path below.
    if (failover_ && failover_qid != 0) {
      failover_->set_finalize(failover_qid, std::move(summarize), outcome);
      failover_->mark_started(failover_qid);
      failover_->launch_segment(failover_qid, /*readmit=*/false);
      return;
    }
    launch_continuous(ctx, outcome->parsed, outcome->classification,
                      canonical.get(), forced, profile,
                      config_.continuous_epochs, std::move(per_epoch_observe),
                      std::move(summarize), outcome.get());
    return;
  }

  partition::execute_query(
      *ctx, outcome->parsed, outcome->classification, outcome->model,
      [outcome, ctx, finish](partition::ActualCost actual) {
        outcome->actual = std::move(actual);
        outcome->ok = outcome->actual.ok;
        outcome->coverage = outcome->actual.coverage;
        outcome->degraded = outcome->actual.degraded;
        if (!outcome->ok && outcome->error.empty()) {
          outcome->error = outcome->actual.error;
        }
        finish();
      });
}

bool PervasiveGridRuntime::launch_continuous(
    const std::shared_ptr<partition::ExecutionContext>& ctx,
    const query::Query& query, const query::Classification& cls,
    const query::CanonicalQuery* canonical,
    std::optional<partition::SolutionModel> forced,
    const partition::NetworkProfile& profile, std::size_t epochs,
    partition::EpochObserver observe,
    std::function<void(std::vector<partition::ActualCost>,
                       std::vector<partition::SolutionModel>)>
        done,
    QueryOutcome* outcome, partition::AbortToken abort,
    std::function<void()>* shared_cancel) {
  constexpr auto kTree = partition::SolutionModel::kTreeAggregate;
  const auto inner = cls.inner;
  // Shared TAG tree path: a shareable continuous aggregate (unforced, or
  // forced to the tree model sharing uses anyway) rides its group's
  // single collection — one sensor transmission per epoch regardless of
  // how many subscribers the canonical key has.
  if (sharing_ && canonical != nullptr && canonical->shareable &&
      (!forced || *forced == kTree) &&
      sharing_->execute_shared(ctx, *canonical, epochs, observe, done,
                               shared_cancel)) {
    if (outcome != nullptr) {
      outcome->shared = true;
      outcome->model = kTree;
      outcome->estimate =
          decision_maker_.calibrated_estimate(profile, inner, kTree);
    }
    return true;
  }
  partition::ModelProvider choose;
  if (forced) {
    choose = [model = *forced](std::size_t) { return model; };
  } else {
    choose = [this, inner, metric = query.cost.metric,
              profile](std::size_t) {
      return decision_maker_.decide(inner, metric, profile);
    };
  }
  partition::execute_continuous_adaptive(*ctx, query, cls, epochs,
                                         std::move(choose), std::move(observe),
                                         std::move(done), std::move(abort));
  return false;
}

void PervasiveGridRuntime::run_failover_segment(std::uint64_t qid,
                                                bool readmit) {
  FailoverManager::Record* record = failover_->find(qid);
  if (record == nullptr || record->finalized) return;
  const std::uint32_t gen = failover_->generation(qid);
  // The serializable snapshot is the source of truth; the parse/classify/
  // profile chain is pure, so a restored segment sees exactly the plan a
  // fresh submission of the same text would.
  auto parsed = query::parse_query(record->snap.text);
  if (!parsed.ok()) {
    failover_->segment_shed(qid, gen);
    return;
  }
  const auto query = std::make_shared<const query::Query>(
      std::move(parsed).take());
  const auto cls = classifier_.classify(*query);
  const std::optional<partition::SolutionModel> forced =
      partition::model_from_string(record->snap.model);
  const std::size_t committed = record->snap.epochs.size();
  if (committed >= record->snap.total_epochs) {
    failover_->segment_complete(qid, gen);
    return;
  }
  const std::size_t remaining = record->snap.total_epochs - committed;
  const double deadline_s = record->snap.deadline_s;
  const double epoch_s = record->snap.epoch_s;
  // The client-side shell, when this runtime dispatched the query itself
  // (null for segments adopted from a peer region — there is no local
  // conversation to stamp).
  auto outcome = std::static_pointer_cast<QueryOutcome>(record->user_data);

  auto ctx = std::make_shared<partition::ExecutionContext>(
      execution_context());
  const auto profile = partition::profile_from(*ctx, cls);
  const auto inner = cls.inner;
  // Canonical form (pure): both the readmission and the shared-group launch
  // key on it.
  std::shared_ptr<const query::CanonicalQuery> canonical;
  if (sharing_) {
    canonical = std::make_shared<const query::CanonicalQuery>(
        query::canonicalize(*query, cls));
  }

  // Every accepted epoch commits under the generation fence *before* it
  // feeds the learner: a stale segment (crashed timeline, extracted query)
  // neither counts progress nor pollutes the calibration.
  auto observe = [this, qid, gen, inner, profile](
                     std::size_t, partition::SolutionModel model,
                     const partition::ActualCost& actual) {
    if (!failover_->commit_epoch(qid, gen, model, actual)) return;
    const auto epoch_estimate = partition::estimate_cost(profile, inner, model);
    decision_maker_.observe(inner, model, epoch_estimate, actual.energy_j,
                            actual.response_s);
  };
  // segment_done owns ctx: the executor holds this callback until the
  // segment finishes (or its abort token trips), so the execution context
  // outlives every asynchronous epoch that references it.
  auto segment_done = [this, ctx, qid, gen](
                          std::vector<partition::ActualCost>,
                          std::vector<partition::SolutionModel>) {
    failover_->segment_complete(qid, gen);
  };

  auto execute = [this, ctx, query, cls, canonical, forced, remaining,
                  observe, segment_done, qid, outcome, profile] {
    std::function<void()> cancel;
    if (launch_continuous(ctx, *query, cls, canonical.get(), forced, profile,
                          remaining, observe, segment_done, outcome.get(),
                          failover_->begin_segment(qid), &cancel)) {
      failover_->set_segment_cancel(qid, std::move(cancel));
    }
  };

  if (!readmit || !sharing_) {
    execute();
    return;
  }
  // Post-crash/adoption resume: the old admission slot died with the
  // station, so the segment re-enters admission control — coalescing onto
  // compatible live groups, queueing, or shedding under its original
  // deadline budget like any other arrival.
  const net::Budget budget =
      deadline_s > 0.0
          ? net::Budget::until(sim::SimTime::seconds(deadline_s))
          : net::Budget::unlimited();
  sharing_->admit(
      *canonical, budget, min_runtime_s(remaining, epoch_s),
      /*proceed=*/[execute] { execute(); },
      /*shed=*/
      [this, qid, gen](const std::string&) {
        failover_->segment_shed(qid, gen);
      });
}

void PervasiveGridRuntime::submit(const std::string& query_text,
                                  std::function<void(QueryOutcome)> done) {
  submit_internal(query_text, "-", std::move(done));
}

void PervasiveGridRuntime::submit_with_model(
    const std::string& query_text, partition::SolutionModel model,
    std::function<void(QueryOutcome)> done) {
  submit_internal(query_text, to_string(model), std::move(done));
}

void PervasiveGridRuntime::submit_internal(
    const std::string& query_text, const std::string& model_name,
    std::function<void(QueryOutcome)> done) {
  // Model name "-" means "let the decision maker choose".
  agent::Envelope env;
  env.sender = handheld_agent_;
  env.receiver = base_agent_;
  env.performative = agent::Performative::kRequest;
  env.content_type = kQueryContent;
  env.ontology = "pgrid-runtime";
  env.payload = "model=" + model_name + "\n" + query_text;

  // One ledger trace per submission: the envelope carries it, the kernel
  // propagates it along the causal event chain, and every layer's charges
  // land on the same row.  The root span brackets submit -> answer.
  auto& ledger = network_->telemetry();
  const telemetry::TraceId trace = ledger.new_trace();
  env.trace = trace;
  telemetry::TraceScope scope(sim_, trace);
  auto root = std::make_shared<telemetry::Span>(
      ledger, telemetry::Subsystem::kRuntime);

  PGRID_LOG(kInfo) << "submit: " << query_text;
  const sim::SimTime sent = sim_.now();
  platform_->request(
      env, sim::SimTime::seconds(3600.0),
      [this, sent, trace, root, done = std::move(done)](
          common::Result<agent::Envelope> reply) {
        root->close();
        PGRID_LOG(kInfo) << (reply.ok() ? "answered" : "failed") << " after "
                         << (sim_.now() - sent).to_seconds() << " s";
        QueryOutcome outcome;
        if (!reply.ok()) {
          outcome.error = reply.error();
        } else {
          auto it =
              pending_->by_conversation.find(reply.value().conversation_id);
          if (it != pending_->by_conversation.end()) {
            outcome = std::move(it->second);
            pending_->by_conversation.erase(it);
          } else {
            outcome.error = "internal: outcome not recorded";
          }
          outcome.handheld_response_s = (sim_.now() - sent).to_seconds();
        }
        outcome.trace = trace;
        outcome.telemetry = network_->telemetry().trace(trace);
        done(std::move(outcome));
      });
}

QueryOutcome PervasiveGridRuntime::submit_and_run(
    const std::string& query_text) {
  QueryOutcome result;
  submit(query_text, [&](QueryOutcome outcome) { result = std::move(outcome); });
  sim_.run();
  return result;
}

QueryOutcome PervasiveGridRuntime::submit_and_run(
    const std::string& query_text, partition::SolutionModel model) {
  QueryOutcome result;
  submit_with_model(query_text, model,
                    [&](QueryOutcome outcome) { result = std::move(outcome); });
  sim_.run();
  return result;
}

QueryOutcome PervasiveGridRuntime::what_if(const std::string& query_text,
                                           partition::SolutionModel model) {
  // A scratch deployment from the same config and seed mirrors this one's
  // topology exactly; the physical field is copied so the clone observes
  // the same world (fires included).  Trials must never touch the real
  // experience file: a clone that loaded (or on destruction overwrote) it
  // would leak trial state into the durable learner.  The clone borrows
  // this runtime's compute pool (see the borrowing constructor).
  RuntimeConfig trial_config = config_;
  trial_config.failover.experience_path.clear();
  PervasiveGridRuntime clone(std::move(trial_config), &compute_pool());
  *clone.field_ = *field_;
  return clone.submit_and_run(query_text, model);
}

std::vector<QueryOutcome> PervasiveGridRuntime::what_if_all(
    const std::string& query_text) {
  auto parsed = query::parse_query(query_text);
  if (!parsed.ok()) {
    QueryOutcome failed;
    failed.error = parsed.error();
    std::vector<QueryOutcome> outcomes;
    outcomes.push_back(std::move(failed));
    return outcomes;
  }
  const auto cls = classifier_.classify(parsed.value());
  const auto models = partition::candidates_for(cls.inner);
  const std::size_t trials = models.size();
  std::vector<QueryOutcome> outcomes(trials);

  // Each trial runs on an isolated clone (own Simulator, own CostLedger,
  // own learner state), reading only this runtime's immutable config and
  // field snapshot — so clones evaluate concurrently on the pool while the
  // outcomes stay bit-identical to serial evaluation, in candidate order.
  std::size_t parallelism = config_.what_if_parallelism == 0
                                ? compute_pool().size()
                                : config_.what_if_parallelism;
  parallelism = std::min(parallelism, trials);
  // Serial fallback: with too few trials the dispatch overhead dominates,
  // and on a pool worker nested submission would run inline anyway.
  if (trials < kWhatIfSerialThreshold || parallelism <= 1 ||
      compute_pool().on_worker_thread()) {
    for (std::size_t i = 0; i < trials; ++i) {
      outcomes[i] = what_if(query_text, models[i]);
    }
    return outcomes;
  }
  // One task per worker, each owning a contiguous batch of trials: the
  // handoff count scales with the worker count, not the candidate count,
  // and every clone borrows this runtime's already-spawned compute pool
  // instead of spawning its own (the 0.64x regression: N trials x M fresh
  // threads oversubscribed the machine before any trial ran).  Borrowed
  // pools keep solver chunking — and so every floating-point result —
  // bit-identical to the serial path (see the borrowing constructor).
  std::vector<std::future<void>> batches;
  batches.reserve(parallelism);
  for (std::size_t w = 0; w < parallelism; ++w) {
    const std::size_t begin = w * trials / parallelism;
    const std::size_t end = (w + 1) * trials / parallelism;
    if (begin == end) continue;
    batches.push_back(compute_pool().submit(
        [this, &query_text, &outcomes, &models, begin, end] {
          for (std::size_t i = begin; i < end; ++i) {
            outcomes[i] = what_if(query_text, models[i]);
          }
        }));
  }
  for (auto& batch : batches) batch.get();
  return outcomes;
}

}  // namespace pgrid::core
