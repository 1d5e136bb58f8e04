// EXP-A2 — query service under disconnections and topology change.
//
// Section 1's runtime requirement: handle "frequent disconnections and
// network topology changes".  A continuous AVG watch runs while a growing
// fraction of the sensor field flaps up and down; we report per-epoch
// report completeness and answer error for each collection strategy, plus
// the retransmission knob's effect under frame loss.
#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <vector>

#include "bench_util.hpp"
#include "core/sharded.hpp"
#include "net/churn.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"

namespace {

double percentile(std::vector<double> sorted_values, double q) {
  if (sorted_values.empty()) return 0.0;
  std::sort(sorted_values.begin(), sorted_values.end());
  const auto index = static_cast<std::size_t>(
      q * double(sorted_values.size() - 1) + 0.5);
  return sorted_values[index];
}

// EXP-R1 — the reliability layer's ablation under the same chaos mixes.
// For each mix, identical seeded fault schedules run twice: once with the
// reliability layer disabled (the PR 4 baseline path) and once enabled
// (acked delivery, deadline budgets, breakers, coverage grading).
struct ReliabilityVariantResult {
  std::size_t queries_ok = 0;
  std::size_t queries_total = 0;
  std::size_t degraded = 0;
  double coverage_sum = 0.0;  ///< over ok queries
  std::vector<double> responses;
  std::uint64_t retransmissions = 0;
  std::uint64_t reroutes = 0;
  std::uint64_t duplicates_suppressed = 0;
  std::uint64_t breaker_opens = 0;
  std::uint64_t expired = 0;

  double success_rate() const {
    return queries_total == 0 ? 0.0
                              : double(queries_ok) / double(queries_total);
  }
  double mean_coverage() const {
    return queries_ok == 0 ? 0.0 : coverage_sum / double(queries_ok);
  }
};

/// Runs one seeded chaos scenario and folds the outcomes into `result`.
/// Returns false on a hard failure (hung query, open fault window, broken
/// invariant, or a violated exactly-once witness).
bool run_reliability_scenario(const pgrid::sim::ChaosMix& mix,
                              std::uint64_t seed, bool reliability_on,
                              ReliabilityVariantResult& result) {
  using namespace pgrid;
  constexpr std::size_t kQueries = 6;
  constexpr double kHorizonS = 120.0;
  const char* kTexts[] = {
      "SELECT AVG(temp) FROM sensors",
      "SELECT MAX(temp) FROM sensors",
      "SELECT COUNT(temp) FROM sensors",
  };

  auto config = bench::standard_config(49, seed);
  config.reliability.enabled = reliability_on;
  core::PervasiveGridRuntime runtime(config);
  sim::ChaosEngine engine(runtime.network(), seed);
  sim::ChaosConfig chaos_config;
  chaos_config.horizon = sim::SimTime::seconds(kHorizonS);
  chaos_config.fault_count = 14;
  chaos_config.mix = mix;
  engine.arm(chaos_config);

  // Exactly-once witness: no destination may accept the same sequence
  // number twice, chaos or not.
  std::map<std::uint64_t, int> accepts_per_seq;
  if (reliability_on) {
    runtime.reliable_channel()->set_delivery_probe(
        [&](net::NodeId, std::uint64_t seq) { ++accepts_per_seq[seq]; });
  }

  std::size_t terminated = 0;
  for (std::size_t q = 0; q < kQueries; ++q) {
    const double at_s = 2.0 + (kHorizonS * 0.7) * double(q) / double(kQueries);
    runtime.simulator().schedule(sim::SimTime::seconds(at_s), [&, q] {
      runtime.submit(kTexts[q % 3], [&](core::QueryOutcome outcome) {
        ++terminated;
        ++result.queries_total;
        if (outcome.ok) {
          ++result.queries_ok;
          result.coverage_sum += outcome.coverage;
          result.responses.push_back(outcome.handheld_response_s);
          if (outcome.degraded) ++result.degraded;
        }
      });
    });
  }
  runtime.simulator().run();

  if (terminated != kQueries) {
    std::cerr << "FAILED: " << terminated << " of " << kQueries
              << " queries terminated (mix " << mix.name << " seed " << seed
              << " reliability=" << reliability_on << ")\n";
    return false;
  }
  if (!engine.quiescent()) {
    std::cerr << "FAILED: fault windows still open (mix " << mix.name
              << " seed " << seed << ")\n";
    return false;
  }
  if (auto violation = sim::check_ledger_conservation(runtime.telemetry())) {
    std::cerr << "FAILED: ledger conservation (mix " << mix.name << " seed "
              << seed << " reliability=" << reliability_on
              << "): " << *violation << "\n";
    return false;
  }
  for (const auto& [seq, count] : accepts_per_seq) {
    if (count > 1) {
      std::cerr << "FAILED: seq " << seq << " accepted " << count
                << " times at its destination (mix " << mix.name << " seed "
                << seed << ")\n";
      return false;
    }
  }
  if (reliability_on) {
    const auto& stats = runtime.reliable_channel()->stats();
    result.retransmissions += stats.retransmissions;
    result.reroutes += stats.reroutes;
    result.duplicates_suppressed += stats.duplicates_suppressed;
    result.expired += stats.expired;
    result.breaker_opens +=
        runtime.reliable_channel()->link_breakers().stats().opens;
  }
  return true;
}

/// Kill-switch determinism: with the layer disabled the runtime must walk
/// the legacy code path, so two disabled runs of the same seeded scenario
/// are bit-identical in traffic, energy, and ledger totals.
bool check_kill_switch_replay(pgrid::common::Table& table) {
  using namespace pgrid;
  struct Fingerprint {
    std::uint64_t transmissions = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    double energy_j = 0.0;
    std::uint64_t ledger_bytes = 0;
    double ledger_joules = 0.0;
    double answer = 0.0;

    bool operator==(const Fingerprint&) const = default;
  };
  auto run_once = [] {
    auto config = bench::standard_config(49, 777);
    config.reliability.enabled = false;  // the kill switch
    core::PervasiveGridRuntime runtime(config);
    sim::ChaosEngine engine(runtime.network(), 777);
    sim::ChaosConfig chaos_config;
    chaos_config.horizon = sim::SimTime::seconds(60.0);
    chaos_config.fault_count = 10;
    chaos_config.mix = sim::ChaosMix::lossy_mesh();
    engine.arm(chaos_config);
    const auto outcome =
        runtime.submit_and_run("SELECT AVG(temp) FROM sensors");
    runtime.simulator().run();
    Fingerprint fp;
    const auto& stats = runtime.network().stats();
    fp.transmissions = stats.transmissions;
    fp.bytes_sent = stats.bytes_sent;
    fp.dropped = stats.dropped;
    fp.duplicated = stats.duplicated;
    fp.energy_j = stats.energy_j;
    fp.ledger_bytes = runtime.telemetry().total().bytes;
    fp.ledger_joules = runtime.telemetry().total().joules;
    fp.answer = outcome.ok ? outcome.actual.value : -1.0;
    return fp;
  };
  const Fingerprint a = run_once();
  const Fingerprint b = run_once();
  table.add_row({"disabled-replay", common::Table::num(a.transmissions),
                 common::Table::num(a.bytes_sent),
                 common::Table::num(a.energy_j, 9),
                 common::Table::num(a.ledger_joules, 9),
                 a == b ? "bit-identical" : "DIVERGED"});
  if (!(a == b)) {
    std::cerr << "FAILED: two reliability-disabled runs of the same seed "
                 "diverged — the kill switch is not inert\n";
    return false;
  }
  return true;
}

// EXP-CH1 — query service under the chaos engine's canned fault mixes.
// For each mix, several seeded fault schedules run against a standard
// deployment while queries arrive throughout the horizon; we report the
// query success rate and p50/p95 response time per mix.
int run_chaos_mode(int argc, char** argv) {
  using namespace pgrid;
  bench::Experiment experiment(
      argc, argv,
      "EXP-CH1/R1: query service and reliability layer under seeded chaos",
      "the runtime survives systematic fault injection, and the end-to-end "
      "reliability layer (acked delivery, deadline budgets, breakers, "
      "coverage grading) converts fault windows into degraded-but-usable "
      "answers: per mix it matches or beats the baseline success rate, and "
      "on partition storms mean coverage stays >= 0.9 — while the disabled "
      "layer replays the legacy path bit-identically");

  constexpr std::size_t kSeedsPerMix = 5;
  constexpr std::size_t kQueriesPerRun = 8;
  constexpr double kHorizonS = 120.0;
  const char* kQueries[] = {
      "SELECT AVG(temp) FROM sensors",
      "SELECT MAX(temp) FROM sensors",
      "SELECT COUNT(temp) FROM sensors",
      "SELECT MIN(temp) FROM sensors",
  };

  common::Table table({"mix", "seeds", "queries", "ok", "success rate",
                       "p50 resp (s)", "p95 resp (s)", "faults",
                       "hop drops", "dup frames"});
  for (const auto& mix : sim::canned_mixes()) {
    std::size_t queries_ok = 0;
    std::size_t queries_total = 0;
    std::size_t faults = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::vector<double> responses;
    for (std::size_t s = 0; s < kSeedsPerMix; ++s) {
      const std::uint64_t seed = 100 + s * 7919;
      core::PervasiveGridRuntime runtime(bench::standard_config(49, seed));
      sim::ChaosEngine engine(runtime.network(), seed);
      sim::ChaosConfig chaos_config;
      chaos_config.horizon = sim::SimTime::seconds(kHorizonS);
      chaos_config.fault_count = 14;
      chaos_config.mix = mix;
      engine.arm(chaos_config);

      for (std::size_t q = 0; q < kQueriesPerRun; ++q) {
        const double at_s =
            2.0 + (kHorizonS * 0.7) * double(q) / double(kQueriesPerRun);
        runtime.simulator().schedule(sim::SimTime::seconds(at_s), [&, q] {
          runtime.submit(kQueries[q % 4], [&](core::QueryOutcome outcome) {
            ++queries_total;
            if (outcome.ok) {
              ++queries_ok;
              responses.push_back(outcome.handheld_response_s);
            }
          });
        });
      }
      runtime.simulator().run();
      if (!engine.quiescent()) {
        std::cerr << "FAILED: fault windows still open for mix " << mix.name
                  << " seed " << seed << '\n';
        return 1;
      }
      faults += engine.injected().size();
      drops += runtime.network().stats().dropped;
      duplicates += runtime.network().stats().duplicated;
    }
    if (queries_total != kSeedsPerMix * kQueriesPerRun) {
      std::cerr << "FAILED: " << queries_total << " of "
                << kSeedsPerMix * kQueriesPerRun
                << " queries terminated for mix " << mix.name << '\n';
      return 1;
    }
    table.add_row(
        {mix.name, common::Table::num(std::uint64_t(kSeedsPerMix)),
         common::Table::num(std::uint64_t(queries_total)),
         common::Table::num(std::uint64_t(queries_ok)),
         common::Table::num(double(queries_ok) / double(queries_total), 2),
         common::Table::num(percentile(responses, 0.50), 3),
         common::Table::num(percentile(responses, 0.95), 3),
         common::Table::num(std::uint64_t(faults)),
         common::Table::num(drops), common::Table::num(duplicates)});
  }
  experiment.series("chaos_mixes", table);
  experiment.note("Shape check: every submitted query terminates under all "
                  "three mixes; lossy-mesh keeps the highest success rate "
                  "(transport retries absorb drops), while disconnection/"
                  "partition mixes lose the queries whose fault windows "
                  "overlap them.");

  // ---- EXP-R1: reliability on/off over identical fault schedules --------
  constexpr std::size_t kAblationSeeds = 3;
  common::Table ablation({"mix", "reliability", "queries", "ok",
                          "success rate", "mean coverage", "degraded",
                          "p50 resp (s)", "p95 resp (s)", "retransmits",
                          "reroutes", "breaker opens", "dup suppressed",
                          "budget expiries"});
  bool gates_ok = true;
  for (const auto& mix : sim::canned_mixes()) {
    ReliabilityVariantResult baseline;
    ReliabilityVariantResult reliable;
    for (std::size_t s = 0; s < kAblationSeeds; ++s) {
      const std::uint64_t seed = 500 + s * 6151;
      if (!run_reliability_scenario(mix, seed, false, baseline)) return 1;
      if (!run_reliability_scenario(mix, seed, true, reliable)) return 1;
    }
    for (const auto* variant : {&baseline, &reliable}) {
      const bool on = variant == &reliable;
      ablation.add_row(
          {mix.name, on ? "on" : "off",
           common::Table::num(std::uint64_t(variant->queries_total)),
           common::Table::num(std::uint64_t(variant->queries_ok)),
           common::Table::num(variant->success_rate(), 2),
           common::Table::num(variant->mean_coverage(), 3),
           common::Table::num(std::uint64_t(variant->degraded)),
           common::Table::num(percentile(variant->responses, 0.50), 3),
           common::Table::num(percentile(variant->responses, 0.95), 3),
           common::Table::num(variant->retransmissions),
           common::Table::num(variant->reroutes),
           common::Table::num(variant->breaker_opens),
           common::Table::num(variant->duplicates_suppressed),
           common::Table::num(variant->expired)});
    }
    if (reliable.success_rate() < baseline.success_rate()) {
      std::cerr << "FAILED: reliability lowered the success rate on mix "
                << mix.name << " (" << reliable.success_rate() << " < "
                << baseline.success_rate() << ")\n";
      gates_ok = false;
    }
    if (mix.name == "partition-storm" && reliable.mean_coverage() < 0.9) {
      std::cerr << "FAILED: mean coverage " << reliable.mean_coverage()
                << " < 0.9 on partition-storm with reliability enabled\n";
      gates_ok = false;
    }
  }
  experiment.series("reliability_ablation", ablation);

  common::Table kill_switch({"scenario", "transmissions", "bytes",
                             "energy (J)", "ledger (J)", "replay"});
  if (!check_kill_switch_replay(kill_switch)) gates_ok = false;
  experiment.series("kill_switch_replay", kill_switch);

  experiment.note("Shape check: with reliability enabled the success rate "
                  "matches or beats the baseline on every mix, partial "
                  "collections surface as coverage-graded degraded answers "
                  "instead of failures, and disabling the layer replays the "
                  "legacy path bit for bit.");
  return gates_ok ? 0 : 1;
}

// ---------------------------------------------------------------------------
// EXP-R2 — base-station failover: checkpointed query state survives a
// station crash.  Three arms over identical seeded crash schedules:
//
//   protected    failover on, periodic checkpoints — every query completes
//                exactly once, crash gaps surface as coverage-graded losses
//                (mean coverage >= 0.9), and the generation fence admits
//                zero duplicate finalizations;
//   unprotected  failover on but checkpointing disabled — the crash erases
//                the only copy of the station's query state, so the same
//                seeds demonstrably lose their queries;
//   disabled     the kill switch — two runs of the same seeded crash
//                scenario on the legacy path replay bit-identically.
//
// Plus the sharded arm: a two-region deployment where the neighbor adopts
// the crashed region's checkpoint over the wired backhaul and migrates the
// query back on restart.
// ---------------------------------------------------------------------------

pgrid::core::RuntimeConfig failover_bench_config(std::uint64_t seed,
                                                 bool enabled,
                                                 double period_s) {
  pgrid::core::RuntimeConfig config;
  config.seed = seed;
  config.sensors.sensor_count = 16;
  config.sensors.width_m = 60.0;
  config.sensors.height_m = 60.0;
  config.advertise_sensor_services = false;
  config.continuous_epochs = 20;
  config.reliability.enabled = true;  // coverage-graded degraded results
  config.failover.enabled = enabled;
  config.failover.checkpoint_period_s = period_s;
  return config;
}

struct FailoverArmResult {
  std::size_t queries_total = 0;
  std::size_t queries_ok = 0;
  std::size_t queries_lost = 0;      ///< FailoverStats::queries_lost, summed
  std::size_t duplicate_dones = 0;   ///< callbacks beyond the first
  std::size_t missing_dones = 0;     ///< queries never answered
  double coverage_sum = 0.0;         ///< over ALL queries (lost count 0)
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t epochs_lost_in_gap = 0;
  std::uint64_t suppressed_finalizations = 0;

  double success_rate() const {
    return queries_total == 0 ? 0.0
                              : double(queries_ok) / double(queries_total);
  }
  double mean_coverage() const {
    return queries_total == 0 ? 0.0
                              : coverage_sum / double(queries_total);
  }
};

/// One seeded crash scenario: three continuous queries straddle a
/// kStationCrash window; outcomes fold into `result`.
void run_failover_scenario(std::uint64_t seed, bool enabled, double period_s,
                           FailoverArmResult& result) {
  using namespace pgrid;
  constexpr std::size_t kQueries = 3;
  const char* kTexts[] = {
      "SELECT AVG(temp) FROM sensors EPOCH DURATION 1",
      "SELECT MAX(temp) FROM sensors EPOCH DURATION 1",
      "SELECT AVG(temp) FROM sensors EPOCH DURATION 1",
  };

  core::PervasiveGridRuntime runtime(
      failover_bench_config(seed, enabled, period_s));
  sim::ChaosEngine chaos(runtime.network(), seed);
  if (runtime.failover() != nullptr) {
    chaos.set_station_callback([&runtime](net::NodeId node, bool up) {
      runtime.failover()->on_station_transition(node, up);
    });
  }
  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(3.4);
  crash.duration = sim::SimTime::seconds(1.0);
  crash.node = runtime.sensors().base_station();
  chaos.arm_schedule({crash});

  std::vector<int> done_counts(kQueries, 0);
  std::vector<core::QueryOutcome> outcomes(kQueries);
  for (std::size_t q = 0; q < kQueries; ++q) {
    runtime.simulator().schedule_at(
        sim::SimTime::seconds(0.2 + 0.3 * double(q)), [&, q] {
          runtime.submit(kTexts[q], [&, q](core::QueryOutcome out) {
            ++done_counts[q];
            outcomes[q] = std::move(out);
          });
        });
  }
  runtime.simulator().run();

  for (std::size_t q = 0; q < kQueries; ++q) {
    ++result.queries_total;
    if (done_counts[q] == 0) ++result.missing_dones;
    if (done_counts[q] > 1) {
      result.duplicate_dones += std::size_t(done_counts[q] - 1);
    }
    if (done_counts[q] >= 1 && outcomes[q].ok) {
      ++result.queries_ok;
      result.coverage_sum += outcomes[q].coverage;
    }
  }
  if (runtime.failover() != nullptr) {
    const auto stats = runtime.failover()->stats();
    result.queries_lost += stats.queries_lost;
    result.checkpoints += stats.checkpoints;
    result.checkpoint_bytes += stats.checkpoint_bytes;
    result.epochs_lost_in_gap += stats.epochs_lost_in_gap;
    result.suppressed_finalizations += stats.suppressed_finalizations;
  }
}

/// Kill-switch determinism under the same crash schedule: with failover
/// disabled the runtime walks the legacy path, so two disabled runs of the
/// seeded crash scenario are bit-identical.
bool check_failover_kill_switch(pgrid::common::Table& table) {
  using namespace pgrid;
  struct Fingerprint {
    std::uint64_t transmissions = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t dropped = 0;
    double energy_j = 0.0;
    std::uint64_t ledger_bytes = 0;
    double ledger_joules = 0.0;
    double answer = 0.0;
    double coverage = 0.0;

    bool operator==(const Fingerprint&) const = default;
  };
  auto run_once = [] {
    auto config = failover_bench_config(4242, false, 1.0);
    // Dormant knobs must change nothing while the switch is off.
    config.failover.checkpoint_period_s = 0.25;
    config.failover.checkpoint_on_admit = false;
    core::PervasiveGridRuntime runtime(config);
    sim::ChaosEngine chaos(runtime.network(), 4242);
    sim::Fault crash;
    crash.kind = sim::FaultKind::kStationCrash;
    crash.at = sim::SimTime::seconds(3.4);
    crash.duration = sim::SimTime::seconds(1.0);
    crash.node = runtime.sensors().base_station();
    chaos.arm_schedule({crash});
    const auto outcome = runtime.submit_and_run(
        "SELECT AVG(temp) FROM sensors EPOCH DURATION 1");
    runtime.simulator().run();
    Fingerprint fp;
    const auto& stats = runtime.network().stats();
    fp.transmissions = stats.transmissions;
    fp.bytes_sent = stats.bytes_sent;
    fp.dropped = stats.dropped;
    fp.energy_j = stats.energy_j;
    fp.ledger_bytes = runtime.telemetry().total().bytes;
    fp.ledger_joules = runtime.telemetry().total().joules;
    fp.answer = outcome.ok ? outcome.actual.value : -1.0;
    fp.coverage = outcome.coverage;
    return fp;
  };
  const Fingerprint a = run_once();
  const Fingerprint b = run_once();
  table.add_row({"disabled-replay", common::Table::num(a.transmissions),
                 common::Table::num(a.bytes_sent),
                 common::Table::num(a.energy_j, 9),
                 common::Table::num(a.ledger_joules, 9),
                 a == b ? "bit-identical" : "DIVERGED"});
  if (!(a == b)) {
    std::cerr << "FAILED: two failover-disabled runs of the same seeded "
                 "crash scenario diverged — the kill switch is not inert\n";
    return false;
  }
  return true;
}

/// Sharded arm: region 0's station crashes mid-query; region 1 adopts the
/// shipped checkpoint over the wired backhaul and the restart migrates the
/// query back home.  Returns false on a violated gate.
bool run_sharded_adoption_arm(pgrid::common::Table& table) {
  using namespace pgrid;
  core::ShardedDeploymentConfig config;
  config.base = failover_bench_config(42, true, 0.5);
  config.base.continuous_epochs = 10;
  config.base.sensors.noise_std = 0.0;
  config.base.pde_resolution = 9;
  config.base.pool_threads = 1;
  config.base.sharing.enabled = true;  // adoption re-admits through sharing
  config.base.sharding.window = sim::SimTime::milliseconds(5);
  config.regions = 2;
  config.region_spacing_m = 400.0;
  config.backhaul_latency = sim::SimTime::milliseconds(10);

  core::ShardedDeployment dep(config);
  dep.arm_station_failover(0);
  dep.arm_station_failover(1);
  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(2.7);
  crash.duration = sim::SimTime::seconds(2.0);
  crash.node = dep.region(0).sensors().base_station();
  dep.inject_remote(0, crash);

  int done_count = 0;
  core::QueryOutcome outcome;
  dep.submit(0, sim::SimTime::milliseconds(200),
             "SELECT AVG(temp) FROM sensors EPOCH DURATION 1",
             [&](core::QueryOutcome out) {
               ++done_count;
               outcome = std::move(out);
             });
  dep.run();
  const auto stats = dep.failover_stats();

  table.add_row({common::Table::num(std::uint64_t(config.regions)),
                 common::Table::num(stats.station_outages),
                 common::Table::num(stats.checkpoints_shipped),
                 common::Table::num(stats.queries_adopted),
                 common::Table::num(stats.migrations_back),
                 common::Table::num(std::uint64_t(done_count)),
                 outcome.ok ? "ok" : "FAILED",
                 common::Table::num(outcome.coverage, 3)});
  if (done_count != 1) {
    std::cerr << "FAILED: sharded adoption answered the client " << done_count
              << " times (want exactly 1)\n";
    return false;
  }
  if (!outcome.ok) {
    std::cerr << "FAILED: sharded adoption lost the query: " << outcome.error
              << '\n';
    return false;
  }
  if (stats.station_outages != 1 || stats.checkpoints_shipped != 1 ||
      stats.queries_adopted < 1 || stats.migrations_back != 1) {
    std::cerr << "FAILED: sharded adoption counters off (outages="
              << stats.station_outages << " shipped="
              << stats.checkpoints_shipped << " adopted="
              << stats.queries_adopted << " back=" << stats.migrations_back
              << ")\n";
    return false;
  }
  return true;
}

int run_failover_mode(int argc, char** argv) {
  using namespace pgrid;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  bench::Experiment experiment(
      argc, argv,
      "EXP-R2: base-station failover — checkpointed query state survives a "
      "station crash",
      "with failover enabled every continuous query survives a base-station "
      "crash: the last checkpoint replays on restart, gap epochs surface as "
      "coverage-graded losses (mean coverage >= 0.9), and the generation "
      "fence admits zero duplicate finalizations — while the unprotected "
      "arm loses the crashed station's queries on the same seeds, and the "
      "disabled kill switch replays the legacy path bit for bit");

  const std::size_t kSeeds = quick ? 2 : 5;
  FailoverArmResult prot;
  FailoverArmResult unprot;
  for (std::size_t s = 0; s < kSeeds; ++s) {
    const std::uint64_t seed = 42 + s * 2711;
    run_failover_scenario(seed, true, 1.0, prot);
    run_failover_scenario(seed, true, 0.0, unprot);
  }

  common::Table arms({"arm", "seeds", "queries", "ok", "success rate",
                      "mean coverage", "lost", "dup finalize",
                      "gap epochs", "checkpoints", "ckpt bytes"});
  struct ArmRow {
    const char* name;
    const FailoverArmResult* r;
  };
  for (const auto& [name, r] : {ArmRow{"protected", &prot},
                                ArmRow{"unprotected", &unprot}}) {
    arms.add_row({name, common::Table::num(std::uint64_t(kSeeds)),
                  common::Table::num(std::uint64_t(r->queries_total)),
                  common::Table::num(std::uint64_t(r->queries_ok)),
                  common::Table::num(r->success_rate(), 2),
                  common::Table::num(r->mean_coverage(), 3),
                  common::Table::num(std::uint64_t(r->queries_lost)),
                  common::Table::num(std::uint64_t(r->duplicate_dones)),
                  common::Table::num(r->epochs_lost_in_gap),
                  common::Table::num(r->checkpoints),
                  common::Table::num(r->checkpoint_bytes)});
  }
  experiment.series("failover_ablation", arms);

  bool gates_ok = true;
  // Gate: the protected arm completes everything, exactly once, with
  // coverage-graded gaps.
  if (prot.missing_dones != 0 || prot.duplicate_dones != 0) {
    std::cerr << "FAILED: protected arm answered clients wrongly ("
              << prot.missing_dones << " missing, " << prot.duplicate_dones
              << " duplicate callbacks)\n";
    gates_ok = false;
  }
  if (prot.queries_ok != prot.queries_total) {
    std::cerr << "FAILED: protected arm lost " <<
        (prot.queries_total - prot.queries_ok) << " of "
              << prot.queries_total << " queries across the crash\n";
    gates_ok = false;
  }
  if (prot.mean_coverage() < 0.9) {
    std::cerr << "FAILED: protected mean coverage " << prot.mean_coverage()
              << " < 0.9\n";
    gates_ok = false;
  }
  if (prot.checkpoints == 0) {
    std::cerr << "FAILED: protected arm took no checkpoints\n";
    gates_ok = false;
  }
  // Gate: the unprotected arm demonstrably loses queries on the same
  // seeds — still answering each client exactly once.
  if (unprot.missing_dones != 0 || unprot.duplicate_dones != 0) {
    std::cerr << "FAILED: unprotected arm answered clients wrongly ("
              << unprot.missing_dones << " missing, "
              << unprot.duplicate_dones << " duplicate callbacks)\n";
    gates_ok = false;
  }
  if (unprot.queries_lost < kSeeds) {
    std::cerr << "FAILED: unprotected arm lost only " << unprot.queries_lost
              << " queries over " << kSeeds
              << " seeded crashes — the control arm is not a control\n";
    gates_ok = false;
  }
  if (unprot.success_rate() >= prot.success_rate()) {
    std::cerr << "FAILED: unprotected success rate " << unprot.success_rate()
              << " >= protected " << prot.success_rate() << '\n';
    gates_ok = false;
  }

  common::Table kill_switch({"scenario", "transmissions", "bytes",
                             "energy (J)", "ledger (J)", "replay"});
  if (!check_failover_kill_switch(kill_switch)) gates_ok = false;
  experiment.series("kill_switch_replay", kill_switch);

  common::Table adoption({"regions", "outages", "ckpts shipped", "adopted",
                          "migrated back", "callbacks", "outcome",
                          "coverage"});
  if (!run_sharded_adoption_arm(adoption)) gates_ok = false;
  experiment.series("sharded_adoption", adoption);

  experiment.note("Shape check: the protected arm rides out the crash with "
                  "coverage-graded gap epochs and exactly-once completion; "
                  "the unprotected arm loses the crashed station's queries "
                  "on the same seeds; the disabled kill switch replays the "
                  "legacy path bit for bit; and the two-region deployment "
                  "adopts the crashed region's checkpoint at the neighbor "
                  "and migrates it back on restart.");
  return gates_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgrid;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--chaos") return run_chaos_mode(argc, argv);
    if (std::string(argv[i]) == "--failover") {
      return run_failover_mode(argc, argv);
    }
  }
  bench::Experiment experiment(
      argc, argv, "EXP-A2: continuous queries under churn and loss",
      "the runtime degrades gracefully: reports drop with churn but every "
      "epoch completes and answers stay unbiased; retransmission converts "
      "frame loss into latency");

  // Part A: churn sweep x strategy.
  common::Table churn_table({"flapping", "model", "epochs ok",
                             "avg reports/epoch", "avg answer (C)",
                             "avg energy/epoch (J)"});
  for (double flap_fraction : {0.0, 0.15, 0.3}) {
    for (auto model : {partition::SolutionModel::kAllToBase,
                       partition::SolutionModel::kClusterAggregate,
                       partition::SolutionModel::kTreeAggregate}) {
      auto config = bench::standard_config(100);
      config.continuous_epochs = 8;
      core::PervasiveGridRuntime runtime(config);

      // Flap the far corner of the field (taking down the base station's
      // one-hop ring would partition everything, a different experiment).
      const auto count = static_cast<std::size_t>(
          flap_fraction * double(runtime.sensors().sensors().size()));
      std::vector<net::NodeId> flappers(
          runtime.sensors().sensors().end() -
              static_cast<std::ptrdiff_t>(count),
          runtime.sensors().sensors().end());
      net::ChurnConfig churn_config;
      churn_config.mean_up = sim::SimTime::seconds(40.0);
      churn_config.mean_down = sim::SimTime::seconds(20.0);
      churn_config.horizon = sim::SimTime::seconds(600.0);
      net::NodeChurn churn(runtime.network(), flappers, churn_config,
                           common::Rng(9));
      if (count > 0) churn.start();

      const auto outcome = runtime.submit_and_run(
          "SELECT AVG(temp) FROM sensors EPOCH DURATION 30", model);
      if (outcome.epochs.empty()) {
        std::cerr << "FAILED at flap=" << flap_fraction << '\n';
        return 1;
      }
      double reports = 0.0;
      double answer = 0.0;
      std::size_t ok_epochs = 0;
      for (const auto& epoch : outcome.epochs) {
        if (!epoch.ok) continue;
        ++ok_epochs;
        // compute_ops == readings merged for aggregate executions; divide
        // by the full deployment so downed sensors show as missing.
        reports += epoch.compute_ops /
                   double(runtime.sensors().sensors().size());
        answer += epoch.value;
      }
      const double denom = std::max<std::size_t>(1, ok_epochs);
      std::ostringstream ok_cell;
      ok_cell << ok_epochs << "/" << outcome.epochs.size();
      churn_table.add_row(
          {common::Table::num(flap_fraction, 2), to_string(model),
           ok_cell.str(),
           common::Table::num(reports / double(denom), 2),
           common::Table::num(answer / double(denom), 2),
           common::Table::num(
               outcome.actual.energy_j / double(outcome.epochs.size()), 6)});
    }
  }
  experiment.series("churn_sweep", churn_table);

  // Part B: loss vs retries (the transport-level knob).
  common::Table loss_table({"loss prob", "retries", "reports", "of",
                            "response (s)"});
  for (double loss : {0.05, 0.2}) {
    for (std::size_t retries : {std::size_t{0}, std::size_t{3}}) {
      auto config = bench::standard_config(100);
      config.sensors.radio.loss_prob = loss;
      core::PervasiveGridRuntime runtime(config);
      runtime.network().set_max_retries(retries);
      const auto outcome = runtime.submit_and_run(
          "SELECT COUNT(temp) FROM sensors",
          partition::SolutionModel::kAllToBase);
      if (!outcome.ok) {
        std::cerr << "FAILED at loss=" << loss << '\n';
        return 1;
      }
      loss_table.add_row(
          {common::Table::num(loss, 2),
           common::Table::num(std::uint64_t(retries)),
           common::Table::num(outcome.actual.value, 0),
           common::Table::num(
               std::uint64_t(runtime.sensors().sensors().size())),
           common::Table::num(outcome.actual.response_s, 3)});
    }
  }
  experiment.series("loss_vs_retries", loss_table);
  experiment.note("Shape check: reports/epoch fall roughly with the "
                  "flapping fraction while the averaged answer stays "
                  "~ambient (unbiased); retries recover most reports at the "
                  "price of added response time.");
  return 0;
}
