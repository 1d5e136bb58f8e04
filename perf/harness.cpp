#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/failover.hpp"
#include "core/runtime.hpp"
#include "core/sharded.hpp"
#include "grid/temperature.hpp"
#include "net/routing.hpp"
#include "partition/decision_maker.hpp"
#include "query/canonical.hpp"
#include "query/parser.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "stats.hpp"

namespace pgrid::perf {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// --- workload parameters ----------------------------------------------------
//
// Why each workload exists is recorded in perf/README.md; the constants
// below are its exact shape.

constexpr std::size_t kPoolThreads = 3;  ///< + the main thread = 4 cores
constexpr double kCoverageFloor = 0.8;
constexpr double kPointReadSigmas = 5.0;
/// Slack past a continuous query's natural lifetime before it counts as
/// late (the last epoch's collection plus the reply to the handheld).
constexpr double kLifetimeSlackS = 10.0;

// study-building
constexpr double kStudyPeriodS = 2.0;
/// Every 64th arrival (a TEMP_DISTRIBUTION query) first runs the learning
/// loop: what_if_all clones dominate the workload's host time.
constexpr std::size_t kStudyLearnEvery = 64;
/// Enough epochs that the continuous quarter alone yields >= 1000 response
/// samples, so response_p99_s has ten samples beyond it.
constexpr std::size_t kStudyEpochs = 25;

// city-flow
constexpr double kCityPeriodS = 2.0;  ///< per region
constexpr std::size_t kCityLanes = 4;   ///< lockstep lanes, one per core
constexpr double kCityTransferPeriodS = 10.0;
constexpr std::uint64_t kCityTransferBytes = 1ull << 20;
constexpr std::size_t kCityEpochs = 10;

// shared-load
constexpr std::size_t kSharedEpochs = 6;
constexpr std::size_t kSharedMaxActive = 16;
constexpr std::size_t kSharedMaxQueue = 64;
constexpr double kSharedPointBudgetS = 5.0;

// mobile-failover
constexpr double kMobilePeriodS = 1.0;
constexpr std::size_t kMobileWalkerSide = 4;  ///< 4 x 4 walker lattice
constexpr double kMobileWalkSpeed = 1.5;      ///< m/s, walking pace
constexpr double kMobileRoamM = 60.0;         ///< side of a walker's box
constexpr std::size_t kMobileHotRoutes = 16;
constexpr double kMobileLookupPeriodS = 0.05;
constexpr double kMobileCrashEveryS = 40.0;
constexpr double kMobileCrashS = 2.0;
/// Past each outage before the handheld submits again.  An admission inside
/// the station's replay window (restart_replay_s after it comes back)
/// checkpoints the crash-wiped state over the last good image, and the
/// replay then finalizes every standing query with all epochs lost — a
/// measured finding (perf/README.md), kept out of the workload so no
/// operation fails.
constexpr double kMobileResumeS = 0.5;
constexpr std::size_t kMobileEpochs = 10;
/// A reliable TAG round over 1600 sensors takes ~2 s of simulated time, so
/// shorter epochs would overrun their slots before any crash.
constexpr double kMobileEpochS = 3.0;

constexpr const char* kAvg = "SELECT AVG(temp) FROM sensors";

std::string point_read(std::size_t sensor) {
  return "SELECT temp FROM sensors WHERE sensor = " + std::to_string(sensor);
}

core::RuntimeConfig region_config(Workload workload, const Shape& shape,
                                  std::uint64_t seed, std::size_t shards) {
  core::RuntimeConfig config = bench::standard_config(shape.sensors, seed);
  config.pool_threads = kPoolThreads;
  switch (workload) {
    case Workload::kStudyBuilding:
      config.advertise_sensor_services = true;
      config.continuous_epochs = kStudyEpochs;
      break;
    case Workload::kCityFlow:
      config.flow.enabled = true;
      config.sharding.shards = shards;
      {
        // The analytic flow tier charges expectation values, so with a
        // fixed layout every seed would read identical simulated metrics.
        // The seed places the base stations instead (the same spot near
        // every region's corner), which reshapes every routing tree while
        // keeping tree depth, and so response time, within a few percent.
        common::Rng rng(seed ^ 0xBA5E57A7ULL);
        const double reach = 0.05 * config.sensors.width_m;
        config.sensors.base_pos = {rng.uniform(0.0, reach),
                                   rng.uniform(0.0, reach), 0.0};
      }
      config.continuous_epochs = kCityEpochs;
      break;
    case Workload::kSharedLoad:
      config.sharing.enabled = true;
      config.sharing.max_active = kSharedMaxActive;
      config.sharing.max_queue = kSharedMaxQueue;
      config.reliability.enabled = true;
      config.continuous_epochs = kSharedEpochs;
      break;
    case Workload::kMobileFailover:
      config.topology.incremental = true;
      config.reliability.enabled = true;
      config.failover.enabled = true;
      config.failover.checkpoint_period_s = 1.0;
      config.continuous_epochs = kMobileEpochs;
      // The default 30 s budget would expire inside a standing query's
      // lifetime; a crash would then finalize it with every epoch lost.
      config.reliability.query_budget_s = 2.0 * kMobileEpochS * kMobileEpochs;
      break;
  }
  return config;
}

/// bench::ignite_standard_fire for a city region: the same fire, moved to
/// the region's world-grid origin.
void ignite_city_region(core::ShardedDeployment& city, std::size_t r) {
  core::PervasiveGridRuntime& runtime = city.region(r);
  sensornet::FireSource fire;
  fire.pos = city.region_origin(r) +
             net::Vec3{runtime.config().sensors.width_m * 0.66,
                       runtime.config().sensors.height_m * 0.6, 0.0};
  fire.start = sim::SimTime::seconds(-3600.0);
  fire.spread_m_per_s = 0.0;
  runtime.field().ignite(fire);
}

double cpu_now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

// --- the deployment ---------------------------------------------------------

/// Mobile-failover's background load.  Every kMobileLookupPeriodS the hot
/// route pairs are looked up through the route cache (reads); every second
/// each walker steps kMobileWalkSpeed metres toward its waypoint (topology
/// writes).  A walker roams a kMobileRoamM box around its home spot and
/// draws a fresh seeded waypoint in the box on arrival, so the writes land
/// in the same neighbourhoods for every seed and only the paths differ.
class MobileLoad {
 public:
  MobileLoad(net::Network& network, const std::vector<net::NodeId>& sensors,
             const Schedule& schedule, double width_m, double horizon_s,
             std::uint64_t seed)
      : network_(network),
        width_m_(width_m),
        horizon_s_(horizon_s),
        rng_(seed ^ 0xB0B1B0B1ULL) {
    for (const auto& [src, dst] : schedule.hot_routes) {
      routes_.emplace_back(sensors.at(src), sensors.at(dst));
    }
    for (std::uint32_t index : schedule.walkers) {
      Walker walker;
      walker.node = sensors.at(index);
      walker.home = network.node(walker.node).pos;
      walker.target = waypoint(walker.home);
      walkers_.push_back(walker);
    }
  }

  void start() { schedule_next(); }
  std::uint64_t moves() const { return moves_; }

 private:
  struct Walker {
    net::NodeId node = net::kInvalidNode;
    net::Vec3 home;
    net::Vec3 target;
  };

  net::Vec3 waypoint(net::Vec3 home) {
    auto coord = [&](double center) {
      return std::clamp(center + rng_.uniform(-0.5, 0.5) * kMobileRoamM, 0.0,
                        width_m_);
    };
    return {coord(home.x), coord(home.y), 0.0};
  }

  void schedule_next() {
    auto& sim = network_.simulator();
    if (sim.now().to_seconds() + kMobileLookupPeriodS > horizon_s_) return;
    sim.schedule(sim::SimTime::seconds(kMobileLookupPeriodS), [this] {
      for (const auto& [src, dst] : routes_) {
        net::cached_shortest_path(network_, src, dst);
      }
      if (++ticks_ % kTicksPerStep == 0) step_walkers();
      schedule_next();
    });
  }

  void step_walkers() {
    for (Walker& walker : walkers_) {
      const net::Vec3 at = network_.node(walker.node).pos;
      const net::Vec3 to_target = walker.target - at;
      const double remaining = to_target.norm();
      if (remaining <= kMobileWalkSpeed) {
        network_.move_node(walker.node, walker.target);
        walker.target = waypoint(walker.home);
      } else {
        network_.move_node(walker.node,
                           at + to_target * (kMobileWalkSpeed / remaining));
      }
      ++moves_;
    }
  }

  static constexpr std::uint64_t kTicksPerStep = 20;  ///< one step per second

  net::Network& network_;
  double width_m_;
  double horizon_s_;
  common::Rng rng_;
  std::vector<std::pair<net::NodeId, net::NodeId>> routes_;
  std::vector<Walker> walkers_;
  std::uint64_t ticks_ = 0;
  std::uint64_t moves_ = 0;
};

class World {
 public:
  World(Workload workload, const Shape& shape, std::uint64_t seed,
        std::size_t shards, const Schedule& schedule) {
    const core::RuntimeConfig base =
        region_config(workload, shape, seed, shards);
    if (workload == Workload::kCityFlow) {
      core::ShardedDeploymentConfig config;
      config.base = base;
      config.regions = shape.regions;
      // Regions must not overlap in the air: footprint + both radio ranges.
      config.region_spacing_m =
          base.sensors.width_m + 2.0 * base.sensors.radio.range_m + 50.0;
      city_ = std::make_unique<core::ShardedDeployment>(config);
      for (std::size_t r = 0; r < city_->region_count(); ++r) {
        ignite_city_region(*city_, r);
      }
      return;
    }
    solo_ = std::make_unique<core::PervasiveGridRuntime>(base);
    // A non-spreading fire: the field is time-invariant, so a point read's
    // truth is field.value(pos, any t).
    bench::ignite_standard_fire(*solo_);
    if (workload != Workload::kMobileFailover) return;

    auto& network = solo_->network();
    const auto& sensors = solo_->sensors().sensors();
    chaos_ = std::make_unique<sim::ChaosEngine>(network, seed);
    core::FailoverManager* failover = solo_->failover();
    chaos_->set_station_callback([failover](net::NodeId node, bool up) {
      failover->on_station_transition(node, up);
    });
    sim::Schedule faults;
    for (double at : schedule.crashes_s) {
      sim::Fault crash;
      crash.kind = sim::FaultKind::kStationCrash;
      crash.at = sim::SimTime::seconds(at);
      crash.duration = sim::SimTime::seconds(kMobileCrashS);
      crash.node = solo_->sensors().base_station();
      faults.push_back(crash);
    }
    chaos_->arm_schedule(std::move(faults));

    mobile_ = std::make_unique<MobileLoad>(network, sensors, schedule,
                                           base.sensors.width_m,
                                           shape.horizon_s, seed);
    mobile_->start();
  }

  World(const World&) = delete;
  World& operator=(const World&) = delete;

  std::size_t regions() const {
    return city_ ? city_->region_count() : 1;
  }
  core::PervasiveGridRuntime& region(std::size_t r) {
    return city_ ? city_->region(r) : *solo_;
  }
  core::ShardedDeployment* city() { return city_.get(); }
  std::uint64_t moves() const { return mobile_ ? mobile_->moves() : 0; }

  /// Advances every region to `t`; returns events fired.
  std::uint64_t step_to(sim::SimTime t) {
    if (city_) return city_->run_until(t).events;
    return solo_->simulator().run_until(t);
  }
  std::uint64_t drain() {
    if (city_) return city_->run().events;
    return solo_->simulator().run();
  }
  std::size_t pending() {
    std::size_t total = 0;
    for (std::size_t r = 0; r < regions(); ++r) {
      total += region(r).simulator().pending();
    }
    return total;
  }

 private:
  // Declaration order = reverse destruction order: the chaos engine and
  // the mobile load reference the runtime's network and go first.
  std::unique_ptr<core::ShardedDeployment> city_;
  std::unique_ptr<core::PervasiveGridRuntime> solo_;
  std::unique_ptr<sim::ChaosEngine> chaos_;
  std::unique_ptr<MobileLoad> mobile_;
};

// --- one rep ----------------------------------------------------------------

/// What one arrival's completion callback saw.  Each record is written by
/// exactly one lane (the region the answer lands in), so parallel lockstep
/// lanes never share one.
struct Answer {
  int fires = 0;
  bool ok = false;
  bool shed = false;
  double value = 0.0;
  double energy_j = 0.0;
  double coverage = 0.0;
  double done_s = 0.0;
  double est_energy_j = 0.0;
  std::vector<double> epoch_response_s;
};

std::function<void(core::QueryOutcome)> answer_into(Answer* answer,
                                                    sim::Simulator* sim) {
  return [answer, sim](core::QueryOutcome outcome) {
    ++answer->fires;
    answer->ok = outcome.ok;
    answer->shed = outcome.shed;
    answer->value = outcome.actual.value;
    answer->energy_j = outcome.actual.energy_j;
    answer->coverage =
        outcome.ok && !outcome.shed ? outcome.coverage : 0.0;
    answer->done_s = sim->now().to_seconds();
    answer->est_energy_j = outcome.estimate.energy_j;
    answer->epoch_response_s.clear();
    for (const auto& epoch : outcome.epochs) {
      answer->epoch_response_s.push_back(epoch.response_s);
    }
  };
}

/// FNV-1a over raw bytes.
class Digest {
 public:
  template <typename T>
  void add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

/// Times build/serialize/parse of a checkpoint image, each in its span.
void probe_checkpoint(const core::FailoverManager& manager, Tracer& tracer,
                      std::vector<std::string>& failures) {
  constexpr int kRounds = 16;
  for (int i = 0; i < kRounds; ++i) {
    core::Checkpoint checkpoint;
    std::string image;
    {
      ScopedSpan span(&tracer, "failover.build_checkpoint");
      checkpoint = manager.build_checkpoint();
    }
    {
      ScopedSpan span(&tracer, "failover.serialize");
      image = core::serialize_checkpoint(checkpoint);
    }
    bool same = false;
    {
      ScopedSpan span(&tracer, "failover.parse");
      auto parsed = core::parse_checkpoint(image);
      same = parsed.ok() && parsed.value() == checkpoint;
    }
    if (!same) {
      failures.push_back("checkpoint image does not round-trip");
      return;
    }
  }
}

class Rep {
 public:
  Rep(Workload workload, const Shape& shape, std::uint64_t seed,
      const RepOptions& options)
      : shape_(shape),
        options_(options),
        schedule_(make_schedule(workload, shape, seed)),
        answers_(schedule_.arrivals.size()),
        transfers_done_(schedule_.transfers.size(), 0) {
    const std::size_t shards =
        options.shards != 0 ? options.shards : kCityLanes;
    const auto start = Clock::now();
    world_ = std::make_unique<World>(workload, shape, seed, shards, schedule_);
    setup_s_ = seconds_since(start);
    place();
  }

  Rep(const Rep&) = delete;
  Rep& operator=(const Rep&) = delete;

  World& world() { return *world_; }
  const Schedule& schedule() const { return schedule_; }
  const std::vector<double>& what_if_cpu_ratio() const {
    return what_if_cpu_ratio_;
  }

  RepResult run() {
    RepResult out;
    out.setup_s = setup_s_;
    Tracer* tracer = options_.tracer;
    const auto steps = static_cast<std::int64_t>(
        std::llround(shape_.horizon_s / kStepS));
    out.step_ms.reserve(static_cast<std::size_t>(steps));

    const double cpu0 = cpu_now();
    const auto phase_start = Clock::now();
    for (std::int64_t k = 1; k <= steps; ++k) {
      const auto step_start = Clock::now();
      {
        ScopedSpan span(tracer, "bench.step");
        out.sim_events += world_->step_to(sim::SimTime::milliseconds(
            static_cast<std::int64_t>(std::llround(kStepS * 1000.0)) * k));
      }
      out.step_ms.push_back(seconds_since(step_start) * 1e3);
      out.pending_peak = std::max(out.pending_peak, world_->pending());
      if (tracer != nullptr) {
        record_counters(*tracer, out.sim_events);
        if (k == steps / 2) mid_run_probe(*tracer, out.gate_failures);
      }
    }
    {
      ScopedSpan span(tracer, "bench.drain");
      out.sim_events += world_->drain();
    }
    out.phase_s = seconds_since(phase_start);
    out.cpu_s = cpu_now() - cpu0;

    summarize(out);
    check_gates(out);
    return out;
  }

 private:
  /// Places every arrival (and transfer) before the timed phase starts.
  void place() {
    if (core::ShardedDeployment* city = world_->city()) {
      for (std::size_t i = 0; i < schedule_.arrivals.size(); ++i) {
        const Arrival& a = schedule_.arrivals[i];
        const std::size_t answered_in =
            a.remote_to >= 0 ? static_cast<std::size_t>(a.remote_to)
                             : a.region;
        core::PervasiveGridRuntime& rt = city->region(answered_in);
        if (options_.tracer != nullptr) pre_calls(rt, a.text, i + 1);
        auto done = answer_into(&answers_[i], &rt.simulator());
        const auto at = sim::SimTime::seconds(a.at_s);
        ScopedSpan span(options_.tracer, "core.submit", i + 1);
        if (a.remote_to >= 0) {
          city->submit_remote(a.region, answered_in, at, a.text,
                              std::move(done));
        } else {
          city->submit(a.region, at, a.text, std::move(done));
        }
      }
      for (std::size_t j = 0; j < schedule_.transfers.size(); ++j) {
        const Transfer& t = schedule_.transfers[j];
        char* flag = &transfers_done_[j];
        city->transfer_remote(t.from, t.to, sim::SimTime::seconds(t.at_s),
                              t.bytes,
                              [flag](bool ok) { *flag = ok ? 1 : 2; });
      }
      return;
    }
    auto& sim = world_->region(0).simulator();
    for (std::size_t i = 0; i < schedule_.arrivals.size(); ++i) {
      sim.schedule_at(sim::SimTime::seconds(schedule_.arrivals[i].at_s),
                      [this, i] { fire(i); });
    }
  }

  /// One arrival, inside the simulator event it was scheduled as.
  void fire(std::size_t i) {
    const Arrival& a = schedule_.arrivals[i];
    core::PervasiveGridRuntime& rt = world_->region(a.region);
    Tracer* tracer = options_.tracer;
    if (tracer != nullptr) pre_calls(rt, a.text, i + 1);
    if (a.learn) learn(rt, a.text, i + 1);
    ScopedSpan span(tracer, "core.submit", i + 1);
    rt.submit(a.text, answer_into(&answers_[i], &rt.simulator()));
  }

  /// The traced run's pure pre-calls: the parse -> classify -> canonicalize
  /// -> profile -> decide chain the runtime runs itself, each in its span.
  /// Results feed sink_ only, so the outcome must not change.
  void pre_calls(core::PervasiveGridRuntime& rt, const std::string& text,
                 std::uint64_t query) {
    Tracer* tracer = options_.tracer;
    std::optional<query::Query> parsed;
    {
      ScopedSpan span(tracer, "query.parse", query);
      auto result = query::parse_query(text);
      if (result.ok()) parsed = std::move(result).take();
    }
    if (!parsed) return;
    query::Classification cls;
    {
      ScopedSpan span(tracer, "query.classify", query);
      cls = rt.classifier().classify(*parsed);
    }
    {
      ScopedSpan span(tracer, "query.canonicalize", query);
      sink_ ^= query::canonicalize(*parsed, cls).key.hash;
    }
    partition::NetworkProfile profile;
    {
      ScopedSpan span(tracer, "partition.profile", query);
      auto ctx = rt.execution_context();
      profile = partition::profile_from(ctx, cls);
    }
    {
      ScopedSpan span(tracer, "partition.decide", query);
      sink_ += static_cast<std::uint64_t>(rt.decision_maker().decide(
          cls.inner, parsed->cost.metric, profile));
    }
  }

  /// Study-building's learning step: trial every model on clones, label the
  /// lowest-energy one, retrain the decision tree.
  void learn(core::PervasiveGridRuntime& rt, const std::string& text,
             std::uint64_t query) {
    std::vector<core::QueryOutcome> trials;
    {
      ScopedSpan span(options_.tracer, "partition.what_if_all", query);
      const double cpu0 = cpu_now();
      const auto start = Clock::now();
      trials = rt.what_if_all(text);
      const double wall = seconds_since(start);
      if (wall > 0.0) what_if_cpu_ratio_.push_back((cpu_now() - cpu0) / wall);
    }
    const core::QueryOutcome* best = nullptr;
    for (const auto& trial : trials) {
      if (trial.ok && (best == nullptr ||
                       trial.actual.energy_j < best->actual.energy_j)) {
        best = &trial;
      }
    }
    if (best == nullptr) return;
    auto ctx = rt.execution_context();
    const auto profile = partition::profile_from(ctx, best->classification);
    rt.decision_maker().add_example(best->classification.inner,
                                    best->parsed.cost.metric, profile,
                                    best->model);
    rt.decision_maker().retrain();
  }

  void record_counters(Tracer& tracer, std::uint64_t events) {
    std::uint64_t tx = 0;
    std::uint64_t delivered = 0;
    std::uint64_t agent_sent = 0;
    for (std::size_t r = 0; r < world_->regions(); ++r) {
      auto& rt = world_->region(r);
      tx += rt.network().stats().transmissions;
      delivered += rt.network().stats().delivered;
      agent_sent += rt.agents().stats().sent;
    }
    tracer.counter("sim.events", static_cast<double>(events));
    tracer.counter("sim.pending", static_cast<double>(world_->pending()));
    tracer.counter("net.transmissions", static_cast<double>(tx));
    tracer.counter("net.delivered", static_cast<double>(delivered));
    tracer.counter("agent.sent", static_cast<double>(agent_sent));
  }

  /// Mid-horizon: the live failover manager holds standing queries, so its
  /// checkpoint codec is timed at a representative size.
  void mid_run_probe(Tracer& tracer, std::vector<std::string>& failures) {
    if (const auto* manager = world_->region(0).failover()) {
      probe_checkpoint(*manager, tracer, failures);
    }
  }

  void summarize(RepResult& out) {
    Digest digest;
    out.attempted = schedule_.arrivals.size();
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      const Answer& ans = answers_[i];
      const Arrival& a = schedule_.arrivals[i];
      const double response = ans.done_s - a.at_s;
      digest.add(ans.fires);
      digest.add(ans.ok);
      digest.add(ans.shed);
      digest.add(ans.value);
      digest.add(ans.energy_j);
      digest.add(ans.coverage);
      digest.add(response);
      for (double r : ans.epoch_response_s) digest.add(r);

      const bool answered = ans.fires == 1 && ans.ok && !ans.shed;
      if (!answered) {
        ++out.failed;
        continue;
      }
      out.coverage_sum += ans.coverage;
      const bool on_time = a.deadline_s <= 0.0 || response <= a.deadline_s;
      if (ans.coverage >= kCoverageFloor && on_time) ++out.met;
      if (ans.epoch_response_s.empty()) {
        out.responses_s.push_back(response);
      } else {
        out.responses_s.insert(out.responses_s.end(),
                               ans.epoch_response_s.begin(),
                               ans.epoch_response_s.end());
      }
      // Continuous estimates are per execution; compare per epoch.
      const double epochs = ans.epoch_response_s.empty()
                                ? 1.0
                                : static_cast<double>(ans.epoch_response_s.size());
      const double actual = ans.energy_j / epochs;
      if (actual > 0.0) {
        out.energy_est_error.push_back(std::abs(ans.est_energy_j - actual) /
                                       actual);
      }
    }

    LayerCounters& c = out.counters;
    for (std::size_t r = 0; r < world_->regions(); ++r) {
      auto& rt = world_->region(r);
      const auto& net = rt.network().stats();
      const auto& topo = rt.network().topology_stats();
      const auto& cache = rt.network().route_cache().stats();
      out.energy_j += rt.network().battery_energy_consumed();
      out.sim_end_s = std::max(out.sim_end_s, rt.simulator().now().to_seconds());
      c.tx += net.transmissions;
      c.delivered += net.delivered;
      c.dropped += net.dropped;
      c.route_hits += cache.hits;
      c.route_misses += cache.misses;
      c.routes_kept += cache.routes_kept;
      c.routes_dropped += cache.routes_dropped;
      c.scoped_epochs += topo.scoped_epochs;
      c.global_epochs += topo.global_epochs;
      c.rows_patched += topo.rows_patched;
      c.snapshot_builds += topo.snapshot_builds;
      if (const auto* flow = rt.flow_model()) {
        const auto& f = flow->stats();
        c.flows += f.flows;
        c.fallbacks += f.packet_fallbacks;
        c.plan_hits += f.plan_hits;
        c.plan_misses += f.plan_misses;
        c.analytic_hops += f.analytic_hops;
      }
      if (const auto* channel = rt.reliable_channel()) {
        const auto& s = channel->stats();
        c.rel_messages += s.messages;
        c.rel_delivered += s.delivered;
        c.rel_data_frames += s.data_frames;
        c.retransmissions += s.retransmissions;
        c.reroutes += s.reroutes;
      }
      if (auto* sharing = rt.sharing()) {
        const auto& s = sharing->stats();
        c.admitted += s.admitted;
        c.coalesced += s.coalesced;
        c.queued += s.queued;
        c.shed += s.shed_overload + s.shed_budget;
        c.collections += sharing->registry().stats().collections;
        c.fanouts += sharing->registry().stats().fanouts;
      }
      if (const auto* failover = rt.failover()) {
        const auto& s = failover->stats();
        c.checkpoints += s.checkpoints;
        c.checkpoint_bytes += s.checkpoint_bytes;
        c.crashes += s.station_crashes;
        c.epochs_lost += s.epochs_lost_in_gap;
      }
      c.agent_sent += rt.agents().stats().sent;
      c.agent_failed +=
          rt.agents().stats().failed + rt.agents().stats().timed_out;
      c.trace_rows += rt.telemetry().trace_ids().size();
    }
    c.moves = world_->moves();
    if (auto* city = world_->city()) {
      const auto& lockstep = city->world().stats();
      c.windows = lockstep.windows;
      c.messages = lockstep.messages;
      c.lookahead_violations = lockstep.lookahead_violations;
    }
    digest.add(out.energy_j);
    out.digest = digest.value();
  }

  void check_gates(RepResult& out) {
    auto fail = [&out](std::string what) {
      out.gate_failures.push_back(std::move(what));
    };
    std::size_t not_once = 0;
    for (const Answer& ans : answers_) not_once += ans.fires != 1 ? 1 : 0;
    if (not_once > 0) {
      fail(std::to_string(not_once) +
           " arrivals did not complete exactly once");
    }
    for (std::size_t r = 0; r < world_->regions(); ++r) {
      auto& rt = world_->region(r);
      const std::string where = "region " + std::to_string(r) + ": ";
      if (rt.simulator().pending() != 0) {
        fail(where + std::to_string(rt.simulator().pending()) +
             " events pending after drain");
      }
      if (rt.telemetry().open_spans() != 0) {
        fail(where + "ledger spans left open after drain");
      }
      if (auto violation = sim::check_ledger_conservation(rt.telemetry())) {
        fail(where + "ledger conservation: " + *violation);
      }
    }
    if (out.counters.lookahead_violations != 0) {
      fail(std::to_string(out.counters.lookahead_violations) +
           " lockstep lookahead violations");
    }
    for (char done : transfers_done_) {
      if (done != 1) {
        fail("a backhaul transfer did not deliver");
        break;
      }
    }
    // Point reads: within kPointReadSigmas of the sensor noise of the truth.
    for (std::size_t i = 0; i < answers_.size(); ++i) {
      const Arrival& a = schedule_.arrivals[i];
      const Answer& ans = answers_[i];
      if (a.sensor < 0 || !ans.ok || ans.fires != 1) continue;
      auto& rt = world_->region(a.region);
      const net::NodeId node =
          rt.sensors().sensors().at(static_cast<std::size_t>(a.sensor));
      const double truth = rt.field().value(rt.network().node(node).pos,
                                            sim::SimTime::seconds(ans.done_s));
      if (std::abs(ans.value - truth) >
          kPointReadSigmas * rt.config().sensors.noise_std) {
        fail("point read of sensor " + std::to_string(a.sensor) + " = " +
             std::to_string(ans.value) + ", truth " + std::to_string(truth));
      }
    }
    if (options_.tracer != nullptr && options_.tracer->open_spans() != 0) {
      fail("trace spans left open");
    }
  }

  Shape shape_;
  RepOptions options_;
  Schedule schedule_;
  std::vector<Answer> answers_;
  std::vector<char> transfers_done_;  ///< 0 pending, 1 delivered, 2 failed
  std::vector<double> what_if_cpu_ratio_;
  double setup_s_ = 0.0;
  std::uint64_t sink_ = 0;
  std::unique_ptr<World> world_;
};

// --- the traced run's probe block ---------------------------------------------

/// Times direct calls into the sensornet, grid and net layers on the drained
/// deployment at the workload's N.  Returns PDE iterations.
double probe_block(World& world, const Schedule& schedule, Tracer& tracer) {
  constexpr int kRounds = 3;
  core::PervasiveGridRuntime& rt = world.region(0);
  auto& sensors = rt.sensors();
  auto& sim = rt.simulator();
  const auto& field = rt.field();
  const auto& ids = sensors.sensors();
  const std::size_t n = ids.size();

  for (std::size_t i = 0; i < 16; ++i) {
    ScopedSpan span(&tracer, "sensornet.read_sensor");
    sensors.read_sensor(ids[(i * n) / 16], field,
                        [](sensornet::ReadResult) {});
    sim.run();
  }
  auto collect = [&](const char* name, auto&& start) {
    sensornet::CollectionResult last;
    for (int i = 0; i < kRounds; ++i) {
      ScopedSpan span(&tracer, name);
      start([&last](sensornet::CollectionResult r) { last = std::move(r); });
      sim.run();
    }
    return last;
  };
  const auto clusters = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  collect("sensornet.tree_round",
          [&](auto cb) { sensors.collect_tree_aggregate(field, cb); });
  collect("sensornet.cluster_round", [&](auto cb) {
    sensors.collect_cluster_aggregate(field, clusters, cb);
  });
  const auto averages = collect("sensornet.region_avg_round", [&](auto cb) {
    sensors.collect_region_averages(field, 16, cb);
  });
  collect("sensornet.all_to_base_round",
          [&](auto cb) { sensors.collect_all_to_base(field, cb); });

  // The hybrid model's solve: region averages pin a few cells and CG fills
  // the rest.  (Every raw reading at N=1600 pins all 21x21 cells, which
  // leaves the solver nothing to iterate on.)
  std::vector<grid::Reading> readings;
  for (const auto& r : averages.raw) readings.push_back({r.pos, r.value});
  const auto ctx = rt.execution_context();
  double iterations = 0.0;
  for (int i = 0; i < kRounds; ++i) {
    ScopedSpan span(&tracer, "grid.pde_solve");
    const auto solved = grid::solve_temperature_distribution(
        readings, rt.config().sensors.width_m, rt.config().sensors.height_m,
        0.0, ctx.pde_nx, ctx.pde_ny, 1, ctx.ambient, ctx.solver, ctx.pool);
    iterations = static_cast<double>(solved.stats.iterations);
  }

  auto& network = rt.network();
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  for (const auto& [src, dst] : schedule.hot_routes) {
    pairs.emplace_back(ids.at(src), ids.at(dst));
  }
  for (std::size_t i = 0; pairs.size() < 16; ++i) {
    pairs.emplace_back(ids[(i * 37 + 5) % n], ids[(i * 101 + n / 2) % n]);
  }
  for (const auto& [src, dst] : pairs) {
    {
      ScopedSpan span(&tracer, "net.route_cold");
      net::shortest_path(network, src, dst);
    }
    net::cached_shortest_path(network, src, dst);
    ScopedSpan span(&tracer, "net.route_warm");
    net::cached_shortest_path(network, src, dst);
  }
  for (std::size_t i = 0; i < 256; ++i) {
    ScopedSpan span(&tracer, "net.neighbors");
    network.neighbors(ids[(i * n) / 256]);
  }
  return iterations;
}

/// Host seconds to build one region with advertisement on, then off.
std::pair<double, double> time_advertise(Workload workload, const Shape& shape,
                                         std::uint64_t seed, Tracer& tracer) {
  double seconds[2] = {0.0, 0.0};
  for (int on = 1; on >= 0; --on) {
    auto config = region_config(workload, shape, seed, 1);
    config.advertise_sensor_services = on == 1;
    ScopedSpan span(&tracer, on == 1 ? "discovery.build_advertised"
                                     : "discovery.build_plain");
    const auto start = Clock::now();
    core::PervasiveGridRuntime runtime(config);
    seconds[on] = seconds_since(start);
  }
  return {seconds[1], seconds[0]};
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median_us(const Tracer& tracer, const char* name) {
  return median(tracer.durations_ms(name)) * 1e3;
}

}  // namespace

// --- public API ---------------------------------------------------------------

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> kAll = {
      Workload::kStudyBuilding, Workload::kCityFlow, Workload::kSharedLoad,
      Workload::kMobileFailover};
  return kAll;
}

std::string_view name_of(Workload workload) {
  switch (workload) {
    case Workload::kStudyBuilding: return "study-building";
    case Workload::kCityFlow: return "city-flow";
    case Workload::kSharedLoad: return "shared-load";
    case Workload::kMobileFailover: return "mobile-failover";
  }
  return "?";
}

std::optional<Workload> workload_from_name(std::string_view name) {
  for (Workload w : all_workloads()) {
    if (name_of(w) == name) return w;
  }
  return std::nullopt;
}

Shape default_shape(Workload workload) {
  Shape shape;
  switch (workload) {
    case Workload::kStudyBuilding:
      shape.horizon_s = 320.0;
      break;
    case Workload::kCityFlow:
      shape.regions = 16;
      shape.horizon_s = 100.0;
      break;
    case Workload::kSharedLoad:
      shape.horizon_s = 600.0;
      break;
    case Workload::kMobileFailover:
      shape.horizon_s = 200.0;
      break;
  }
  return shape;
}

Schedule make_schedule(Workload workload, const Shape& shape,
                       std::uint64_t seed) {
  Schedule out;
  common::Rng rng(seed ^ 0x5CEDB1A5ULL);
  const std::size_t n = shape.sensors;
  auto jitter = [&rng] { return rng.uniform(0.0, 0.5); };

  switch (workload) {
    case Workload::kStudyBuilding: {
      const auto count =
          static_cast<std::size_t>(shape.horizon_s / kStudyPeriodS);
      for (std::size_t i = 0; i < count; ++i) {
        Arrival a;
        a.at_s = 1.0 + kStudyPeriodS * static_cast<double>(i) + jitter();
        switch (i % 4) {
          case 0:
            a.sensor = static_cast<std::int32_t>(rng.index(n));
            a.text = point_read(static_cast<std::size_t>(a.sensor));
            break;
          case 1:
            a.text = kAvg;
            break;
          case 2:
            a.text = "SELECT TEMP_DISTRIBUTION(temp) FROM sensors";
            break;
          default:
            a.text = std::string(kAvg) + " EPOCH DURATION 2";
            a.deadline_s = 2.0 * kStudyEpochs + kLifetimeSlackS;
            break;
        }
        a.learn = i % kStudyLearnEvery == 2;
        out.arrivals.push_back(std::move(a));
      }
      break;
    }
    case Workload::kCityFlow: {
      const std::size_t regions = std::max<std::size_t>(shape.regions, 1);
      const auto rounds = static_cast<std::size_t>(shape.horizon_s / kCityPeriodS);
      for (std::size_t k = 0; k < rounds; ++k) {
        for (std::size_t r = 0; r < regions; ++r) {
          Arrival a;
          a.region = static_cast<std::uint32_t>(r);
          a.at_s = 1.0 + kCityPeriodS * static_cast<double>(k) + jitter();
          switch ((k + r) % 3) {
            case 0:
              a.text = std::string(kAvg) + " EPOCH DURATION 1";
              a.deadline_s = 1.0 * kCityEpochs + kLifetimeSlackS;
              break;
            case 1:
              a.text = "SELECT MAX(temp) FROM sensors";
              break;
            default:
              a.text = kAvg;
              a.remote_to = static_cast<std::int32_t>((r + 1) % regions);
              break;
          }
          out.arrivals.push_back(std::move(a));
        }
      }
      for (double at = kCityTransferPeriodS; at < shape.horizon_s;
           at += kCityTransferPeriodS) {
        for (std::size_t r = 0; r < regions; ++r) {
          out.transfers.push_back({at + jitter(), static_cast<std::uint32_t>(r),
                                   static_cast<std::uint32_t>((r + 1) % regions),
                                   kCityTransferBytes});
        }
      }
      break;
    }
    case Workload::kSharedLoad: {
      // 8 canonical groups: {no filter, value filter, x half, y half} x
      // epoch {2, 3} s; the aggregate function varies within a group.
      static const char* kWhere[] = {"", " WHERE temp > 0", " WHERE x < 300",
                                     " WHERE y < 300"};
      static const char* kFns[] = {"AVG", "MAX", "MIN", "SUM", "COUNT"};
      const auto count = static_cast<std::size_t>(shape.horizon_s);
      std::size_t standing = 0;
      std::size_t slot_in_block[5] = {0, 1, 2, 3, 4};
      std::size_t group_in_block[8] = {0, 1, 2, 3, 4, 5, 6, 7};
      for (std::size_t i = 0; i < count; ++i) {
        // Exactly one point read per block of five arrivals, its position
        // drawn from the seed: 80% standing aggregates, 20% point reads.
        if (i % 5 == 0) rng.shuffle(std::span<std::size_t>(slot_in_block));
        Arrival a;
        a.at_s = 1.0 + static_cast<double>(i) + jitter();
        if (slot_in_block[i % 5] == 0) {
          a.sensor = static_cast<std::int32_t>(rng.index(n));
          a.text = point_read(static_cast<std::size_t>(a.sensor)) +
                   " COST TIME 5";
          a.deadline_s = kSharedPointBudgetS;
        } else {
          // Likewise every block of eight standing arrivals covers each
          // group once, in seeded order: which groups run at once sets the
          // sensor load, so a free draw made energy differ by seed.
          if (standing % 8 == 0) {
            rng.shuffle(std::span<std::size_t>(group_in_block));
          }
          const std::size_t group = group_in_block[standing % 8];
          const int epoch_s = 2 + static_cast<int>(group % 2);
          const int deadline_s =
              static_cast<int>(kSharedEpochs + 1) * epoch_s + 3;
          a.text = std::string("SELECT ") + kFns[standing++ % 5] +
                   "(temp) FROM sensors" + kWhere[group / 2] + " COST TIME " +
                   std::to_string(deadline_s) + " EPOCH DURATION " +
                   std::to_string(epoch_s);
          a.deadline_s = deadline_s;
        }
        out.arrivals.push_back(std::move(a));
      }
      break;
    }
    case Workload::kMobileFailover: {
      // Walkers sit on a fixed lattice over the floor (grid placement is
      // row-major); everything else stays put, so hot routes and point
      // reads use sensors that never move.
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      std::vector<char> walks(n, 0);
      for (std::size_t a = 0; a < kMobileWalkerSide; ++a) {
        for (std::size_t b = 0; b < kMobileWalkerSide; ++b) {
          const std::size_t row = (2 * a + 1) * side / (2 * kMobileWalkerSide);
          const std::size_t col = (2 * b + 1) * side / (2 * kMobileWalkerSide);
          const std::size_t index = std::min(row * side + col, n - 1);
          if (!walks[index]) out.walkers.push_back(static_cast<std::uint32_t>(index));
          walks[index] = 1;
        }
      }
      std::vector<std::uint32_t> still;
      for (std::size_t i = 0; i < n; ++i) {
        if (!walks[i]) still.push_back(static_cast<std::uint32_t>(i));
      }
      for (std::size_t i = 0; i < kMobileHotRoutes; ++i) {
        out.hot_routes.emplace_back(still[rng.index(still.size())],
                                    still[rng.index(still.size())]);
      }
      // Fixed crash times: which standing queries straddle an outage (and so
      // fall under the coverage floor) is then the same for every seed.
      for (double at = kMobileCrashEveryS; at + kMobileCrashS < shape.horizon_s;
           at += kMobileCrashEveryS) {
        out.crashes_s.push_back(at);
      }
      const auto count =
          static_cast<std::size_t>(shape.horizon_s / kMobilePeriodS);
      for (std::size_t i = 0; i < count; ++i) {
        Arrival a;
        a.at_s = 1.0 + kMobilePeriodS * static_cast<double>(i) + jitter();
        // The handheld holds a query while its station is down and sends it
        // once the station is back and has replayed its checkpoint.
        for (double crash : out.crashes_s) {
          const double back = crash + kMobileCrashS + kMobileResumeS;
          if (a.at_s >= crash && a.at_s < back) a.at_s = back;
        }
        if (i % 2 == 0) {
          a.sensor = static_cast<std::int32_t>(still[rng.index(still.size())]);
          a.text = point_read(static_cast<std::size_t>(a.sensor));
        } else {
          a.text = std::string(kAvg) + " EPOCH DURATION 3";
          a.deadline_s = kMobileEpochS * kMobileEpochs + kLifetimeSlackS;
        }
        out.arrivals.push_back(std::move(a));
      }
      break;
    }
  }
  return out;
}

RepResult run_rep(Workload workload, const Shape& shape, std::uint64_t seed,
                  const RepOptions& options) {
  Rep rep(workload, shape, seed, options);
  return rep.run();
}

double time_setup(Workload workload, const Shape& shape, std::uint64_t seed) {
  const Schedule schedule = make_schedule(workload, shape, seed);
  const auto start = Clock::now();
  World world(workload, shape, seed, kCityLanes, schedule);
  return seconds_since(start);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> end_to_end_metrics(const std::vector<RepResult>& reps,
                                       const std::vector<double>& setup_s,
                                       double rss_mb) {
  std::vector<double> host_ms, cpu_ms, step_p99;
  for (const RepResult& rep : reps) {
    const auto q = static_cast<double>(rep.attempted);
    host_ms.push_back(rep.phase_s * 1e3 / q);
    cpu_ms.push_back(rep.cpu_s * 1e3 / q);
    step_p99.push_back(percentile(rep.step_ms, 99.0));
  }
  // Simulated metrics are identical across reps (the digest gate).
  const RepResult& first = reps.front();
  const auto q = static_cast<double>(first.attempted);
  const std::string reps_note = std::to_string(reps.size()) + " reps";
  return {
      {"setup_s", median(setup_s), "s",
       std::to_string(setup_s.size()) + " set-ups"},
      {"host_ms_per_query", median(host_ms), "ms", reps_note},
      {"cpu_ms_per_query", median(cpu_ms), "ms", reps_note},
      {"step_host_ms_p99", median(step_p99), "ms",
       std::to_string(first.step_ms.size()) + " steps/rep"},
      {"peak_rss_mb", rss_mb, "MiB", "after the first rep"},
      {"response_p50_s", percentile(first.responses_s, 50.0), "s",
       std::to_string(first.responses_s.size()) + " samples"},
      {"response_p99_s", percentile(first.responses_s, 99.0), "s",
       std::to_string(first.responses_s.size()) + " samples"},
      {"energy_mj_per_query", first.energy_j * 1e3 / q, "mJ", ""},
      {"met_ratio", static_cast<double>(first.met) / q, "ratio",
       std::to_string(first.met) + "/" + std::to_string(first.attempted)},
      {"coverage_mean", first.coverage_sum / q, "ratio", ""},
  };
}

LayerReport layer_report(Workload workload, const Shape& shape,
                         std::uint64_t seed, const RepResult& untraced,
                         Tracer& tracer) {
  LayerReport out;
  RepResult traced;
  double pde_iterations = 0.0;
  std::vector<double> cpu_ratio;
  {
    Rep rep(workload, shape, seed, RepOptions{&tracer, 0});
    traced = rep.run();
    out.gate_failures = traced.gate_failures;
    if (traced.digest != untraced.digest) {
      out.gate_failures.push_back("traced outcome_digest differs from untraced");
    }
    pde_iterations = probe_block(rep.world(), rep.schedule(), tracer);
    cpu_ratio = rep.what_if_cpu_ratio();
  }
  const auto [advertised_s, plain_s] =
      time_advertise(workload, shape, seed, tracer);
  double speedup = 0.0;
  if (workload == Workload::kCityFlow) {
    const RepResult serial = run_rep(workload, shape, seed, RepOptions{nullptr, 1});
    if (serial.digest != untraced.digest) {
      out.gate_failures.push_back("shards=1 outcome_digest differs");
    }
    speedup = ratio(serial.phase_s, untraced.phase_s);
  }

  const LayerCounters& c = untraced.counters;
  const auto q = static_cast<double>(untraced.attempted);
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  const Tail submit_tail = tail_percentile(tracer.durations_ms("core.submit"));
  std::vector<Metric>& m = out.metrics;
  m = {
      {"sim.events_per_query", d(untraced.sim_events) / q, "count", ""},
      {"sim.host_us_per_event",
       ratio(untraced.phase_s * 1e6, d(untraced.sim_events)), "us", ""},
      {"sim.pending_peak", d(untraced.pending_peak), "count", ""},
      {"shard.windows_per_sim_s", ratio(d(c.windows), untraced.sim_end_s),
       "1/s", ""},
      {"shard.messages_per_query", d(c.messages) / q, "count", ""},
      {"shard.parallel_speedup", speedup, "x", ""},
      {"shard.lookahead_violations", d(c.lookahead_violations), "count", ""},
      {"net.tx_per_query", d(c.tx) / q, "count", ""},
      {"net.delivery_ratio", ratio(d(c.delivered), d(c.delivered + c.dropped)),
       "ratio", ""},
      {"net.route_hit_ratio",
       ratio(d(c.route_hits), d(c.route_hits + c.route_misses)), "ratio", ""},
      {"net.routes_kept_ratio",
       ratio(d(c.routes_kept), d(c.routes_kept + c.routes_dropped)), "ratio",
       ""},
      {"net.scoped_epoch_ratio",
       ratio(d(c.scoped_epochs), d(c.scoped_epochs + c.global_epochs)),
       "ratio", ""},
      {"net.rows_patched_per_move", ratio(d(c.rows_patched), d(c.moves)),
       "count", ""},
      {"net.snapshot_builds", d(c.snapshot_builds), "count", ""},
      {"net.route_cold_us", median_us(tracer, "net.route_cold"), "us", ""},
      {"net.route_warm_us", median_us(tracer, "net.route_warm"), "us", ""},
      {"net.neighbors_us", median_us(tracer, "net.neighbors"), "us", ""},
      {"flow.fallback_ratio", ratio(d(c.fallbacks), d(c.flows + c.fallbacks)),
       "ratio", ""},
      {"flow.plan_hit_ratio",
       ratio(d(c.plan_hits), d(c.plan_hits + c.plan_misses)), "ratio", ""},
      {"flow.analytic_hops_per_query", d(c.analytic_hops) / q, "count", ""},
      {"reliable.retransmit_ratio",
       ratio(d(c.retransmissions), d(c.rel_data_frames)), "ratio", ""},
      {"reliable.reroutes_per_query", d(c.reroutes) / q, "count", ""},
      {"reliable.useful_ratio", ratio(d(c.rel_delivered), d(c.rel_messages)),
       "ratio", ""},
      {"sensornet.read_ms", median(tracer.durations_ms("sensornet.read_sensor")),
       "ms", ""},
      {"sensornet.tree_round_ms",
       median(tracer.durations_ms("sensornet.tree_round")), "ms", ""},
      {"sensornet.cluster_round_ms",
       median(tracer.durations_ms("sensornet.cluster_round")), "ms", ""},
      {"sensornet.region_avg_round_ms",
       median(tracer.durations_ms("sensornet.region_avg_round")), "ms", ""},
      {"sensornet.all_to_base_round_ms",
       median(tracer.durations_ms("sensornet.all_to_base_round")), "ms", ""},
      {"sharedtree.fanout_per_collection",
       ratio(d(c.fanouts), d(c.collections)), "count", ""},
      {"grid.pde_solve_ms", median(tracer.durations_ms("grid.pde_solve")),
       "ms", ""},
      {"grid.pde_iterations", pde_iterations, "count", ""},
      {"partition.profile_us", median_us(tracer, "partition.profile"), "us",
       ""},
      {"partition.decide_us", median_us(tracer, "partition.decide"), "us", ""},
      {"partition.what_if_all_ms",
       median(tracer.durations_ms("partition.what_if_all")), "ms", ""},
      {"partition.what_if_cpu_ratio", median(cpu_ratio), "ratio", ""},
      {"partition.energy_est_error", median(untraced.energy_est_error),
       "ratio", ""},
      {"query.parse_us", median_us(tracer, "query.parse"), "us", ""},
      {"query.classify_us", median_us(tracer, "query.classify"), "us", ""},
      {"query.canonicalize_us", median_us(tracer, "query.canonicalize"), "us",
       ""},
      {"agent.msgs_per_query", d(c.agent_sent) / q, "count", ""},
      {"agent.fail_ratio", ratio(d(c.agent_failed), d(c.agent_sent)), "ratio",
       ""},
      {"core.submit_us_p50", median_us(tracer, "core.submit"), "us", ""},
      {"core.submit_ms_tail", submit_tail.value, "ms",
       "p" + std::to_string(submit_tail.percentile).substr(0, 5) + " of " +
           std::to_string(submit_tail.samples)},
      {"sharing.admit_ratio", d(c.admitted) / q, "ratio", ""},
      {"sharing.queued_per_query", d(c.queued) / q, "count", ""},
      {"sharing.shed_ratio", d(c.shed) / q, "ratio", ""},
      {"sharing.coalesced_per_query", d(c.coalesced) / q, "count", ""},
      {"failover.ckpt_per_query", d(c.checkpoints) / q, "count", ""},
      {"failover.ckpt_bytes_mean", ratio(d(c.checkpoint_bytes), d(c.checkpoints)),
       "bytes", ""},
      {"failover.build_ckpt_us", median_us(tracer, "failover.build_checkpoint"),
       "us", ""},
      {"failover.serialize_us", median_us(tracer, "failover.serialize"), "us",
       ""},
      {"failover.parse_us", median_us(tracer, "failover.parse"), "us", ""},
      {"failover.epochs_lost_per_crash", ratio(d(c.epochs_lost), d(c.crashes)),
       "count", ""},
      {"discovery.advertise_s", advertised_s - plain_s, "s", ""},
      {"telemetry.trace_rows", d(c.trace_rows), "count", ""},
      {"tracing_overhead_pct",
       ratio(traced.phase_s - untraced.phase_s, untraced.phase_s) * 100.0, "%",
       ""},
  };
  out.self_ms = tracer.self_ms_by_layer();
  return out;
}

}  // namespace pgrid::perf
