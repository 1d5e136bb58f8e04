// Base-station failover (core/failover.hpp, core/sharded.hpp):
//
//  - checkpoint serialization: round-trip bit-identity (property sweep over
//    randomized checkpoints), clean rejection of truncated, corrupted and
//    trailing-byte images;
//  - kill switch: failover disabled is bit-identical to a build without the
//    subsystem; the protected dispatch path answers crash-free queries with
//    the same logical results as the legacy path;
//  - crash/restore: a kStationCrash erases station RAM, the last checkpoint
//    replays on restart, elapsed epoch slots are accounted as coverage-
//    graded losses, and the client's callback fires exactly once — and
//    deterministically, bit for bit, across reruns; an arrival between
//    restart and replay cannot overwrite the last good checkpoint;
//  - the unprotected arm (checkpointing disabled) demonstrably loses the
//    crashed station's queries;
//  - shared groups re-admit through the sharing layer after a crash;
//  - Decision Maker experience survives a process restart (experience_path)
//    and a simulated crash (checkpoint embed + RAM reset on station-down);
//  - the chaos engine's base-station liveness callback fires for station
//    crashes (and base-landing kCrash faults) but not for sensor churn;
//  - sharded deployments: neighbor-region adoption over the lockstep
//    backhaul with migrate-back on restart, and roaming-client handoff
//    across a ShardMap boundary — both exactly-once, both bit-identical
//    across shard counts;
//  - StoreAndForwardDeputy bridges a station outage: envelopes queued in
//    the gap drain exactly once on restart, and give-up still fires once
//    AT the deadline when the station never returns.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "agent/platform.hpp"
#include "common/rng.hpp"
#include "core/failover.hpp"
#include "core/runtime.hpp"
#include "core/sharded.hpp"
#include "net/network.hpp"
#include "partition/persistence.hpp"
#include "query/canonical.hpp"
#include "sim/chaos.hpp"
#include "sim/simulator.hpp"

namespace pgrid {
namespace {

using core::Checkpoint;
using core::EpochRecord;
using core::FailoverManager;
using core::QueryCheckpoint;

// ---------------------------------------------------------------------------
// Checkpoint serialization: round trip + rejection
// ---------------------------------------------------------------------------

Checkpoint sample_checkpoint() {
  Checkpoint c;
  c.seq = 7;
  c.taken_at_s = 12.625;
  QueryCheckpoint q;
  q.id = 3;
  q.text = "SELECT AVG(temp) FROM sensors\nEPOCH DURATION 2";  // newline
  q.model = "tree-aggregate";
  q.total_epochs = 10;
  q.epoch_s = 2.0;
  q.deadline_s = 1.0 / 3.0;  // non-representable decimal
  q.started_s = 0.125;
  q.queued = false;
  EpochRecord e;
  e.ok = true;
  e.degraded = true;
  e.model = 2;
  e.value = -2.5e-7;
  e.coverage = 0.9375;
  e.accuracy = 1.0 / 7.0;
  e.energy_j = 1e300;
  e.response_s = 0.001953125;
  e.data_bytes = 123456789;
  e.compute_ops = 3.14159;
  q.epochs.push_back(e);
  e.ok = false;
  e.lost = true;
  e.coverage = 0.0;
  e.accuracy = 0.0;
  q.epochs.push_back(e);
  c.queries.push_back(q);
  QueryCheckpoint queued;
  queued.id = 9;
  queued.text = "SELECT MAX(temp) FROM sensors EPOCH DURATION 1";
  queued.queued = true;
  queued.total_epochs = 4;
  c.queries.push_back(queued);
  c.experience = "line one\nline two\nbinary-ish: \t\x01\x02\n";
  return c;
}

TEST(CheckpointFormat, RoundTripBitIdentity) {
  const Checkpoint c = sample_checkpoint();
  const std::string image = core::serialize_checkpoint(c);
  auto parsed = core::parse_checkpoint(image);
  ASSERT_TRUE(parsed.ok()) << parsed.error();
  EXPECT_EQ(parsed.value(), c);
  // serialize(parse(t)) == t, byte for byte.
  EXPECT_EQ(core::serialize_checkpoint(parsed.value()), image);
}

TEST(CheckpointFormat, RandomizedRoundTripSweep) {
  common::Rng rng(2026);
  for (int trial = 0; trial < 40; ++trial) {
    Checkpoint c;
    c.seq = rng.next_u64() % 1000;
    c.taken_at_s = rng.uniform(0.0, 1e4);
    const std::size_t nq = rng.index(4);
    for (std::size_t i = 0; i < nq; ++i) {
      QueryCheckpoint q;
      q.id = rng.next_u64() % 10000;
      q.text = "SELECT AVG(temp) FROM sensors EPOCH DURATION " +
               std::to_string(1 + rng.index(5));
      if (rng.bernoulli(0.3)) q.text += "\n-- trailing comment";
      q.model = rng.bernoulli(0.5) ? "-" : "all-to-base";
      q.total_epochs = 1 + rng.index(20);
      q.epoch_s = rng.uniform(0.25, 4.0);
      q.deadline_s = rng.bernoulli(0.5) ? 0.0 : rng.uniform(1.0, 100.0);
      q.started_s = rng.uniform(0.0, 50.0);
      q.queued = rng.bernoulli(0.2);
      const std::size_t ne = rng.index(6);
      for (std::size_t k = 0; k < ne; ++k) {
        EpochRecord e;
        e.ok = rng.bernoulli(0.8);
        e.degraded = rng.bernoulli(0.2);
        e.lost = !e.ok && rng.bernoulli(0.5);
        e.model = static_cast<int>(rng.index(4));
        e.value = rng.normal(20.0, 5.0);
        e.coverage = rng.uniform01();
        e.accuracy = rng.uniform01();
        e.energy_j = rng.exponential(1.0);
        e.response_s = rng.exponential(10.0);
        e.data_bytes = rng.next_u64() % (1u << 20);
        e.compute_ops = rng.uniform(0.0, 1e9);
        q.epochs.push_back(e);
      }
      c.queries.push_back(std::move(q));
    }
    if (rng.bernoulli(0.7)) c.experience = "samples\n1 2 3\n4 5 6\n";
    const std::string image = core::serialize_checkpoint(c);
    auto parsed = core::parse_checkpoint(image);
    ASSERT_TRUE(parsed.ok()) << "trial " << trial << ": " << parsed.error();
    EXPECT_EQ(parsed.value(), c) << "trial " << trial;
    EXPECT_EQ(core::serialize_checkpoint(parsed.value()), image)
        << "trial " << trial;
  }
}

TEST(CheckpointFormat, RejectsEveryTruncation) {
  const std::string image = core::serialize_checkpoint(sample_checkpoint());
  for (std::size_t len = 0; len < image.size(); ++len) {
    auto parsed = core::parse_checkpoint(image.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes accepted";
    if (!parsed.ok()) {
      EXPECT_FALSE(parsed.error().empty());
    }
  }
}

TEST(CheckpointFormat, RejectsEverySingleByteCorruption) {
  const std::string image = core::serialize_checkpoint(sample_checkpoint());
  for (std::size_t i = 0; i < image.size(); ++i) {
    std::string corrupt = image;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    auto parsed = core::parse_checkpoint(corrupt);
    EXPECT_FALSE(parsed.ok()) << "flip at byte " << i << " accepted";
  }
}

TEST(CheckpointFormat, RejectsTrailingBytes) {
  const std::string image = core::serialize_checkpoint(sample_checkpoint());
  auto parsed = core::parse_checkpoint(image + "x");
  EXPECT_FALSE(parsed.ok());
  parsed = core::parse_checkpoint(image + image);
  EXPECT_FALSE(parsed.ok());
}

TEST(CheckpointFormat, RejectsGarbage) {
  EXPECT_FALSE(core::parse_checkpoint("").ok());
  EXPECT_FALSE(core::parse_checkpoint("not a checkpoint\n").ok());
  EXPECT_FALSE(
      core::parse_checkpoint("pgrid-checkpoint-v2\nmeta 0 0 0\n").ok());
}

// ---------------------------------------------------------------------------
// Runtime configuration helpers
// ---------------------------------------------------------------------------

core::RuntimeConfig failover_config(bool enabled, std::uint64_t seed = 42) {
  core::RuntimeConfig config;
  config.seed = seed;
  config.sensors.sensor_count = 16;
  config.sensors.width_m = 60.0;
  config.sensors.height_m = 60.0;
  config.advertise_sensor_services = false;
  config.continuous_epochs = 10;
  config.reliability.enabled = true;  // coverage-graded degraded results
  config.failover.enabled = enabled;
  config.failover.checkpoint_period_s = 1.0;
  return config;
}

constexpr const char* kContinuousQuery =
    "SELECT AVG(temp) FROM sensors EPOCH DURATION 1";

/// Crash scenario on a single runtime: a kStationCrash downs the base
/// station at `crash_at` for `down_for`, wired to the failover manager.
/// With `arrival_at` set, a second copy of the query is submitted then; the
/// result still describes the first one.
struct CrashRun {
  core::QueryOutcome outcome;
  int done_count = 0;
  core::FailoverStats stats;
};

CrashRun run_crash_scenario(core::RuntimeConfig config, double crash_at,
                            double down_for,
                            std::optional<double> arrival_at = std::nullopt) {
  core::PervasiveGridRuntime runtime(config);
  sim::ChaosEngine chaos(runtime.network(), config.seed);
  if (runtime.failover() != nullptr) {
    chaos.set_station_callback([&runtime](net::NodeId node, bool up) {
      runtime.failover()->on_station_transition(node, up);
    });
  }
  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(crash_at);
  crash.duration = sim::SimTime::seconds(down_for);
  crash.node = runtime.sensors().base_station();
  chaos.arm_schedule({crash});

  CrashRun result;
  runtime.submit(kContinuousQuery, [&result](core::QueryOutcome out) {
    ++result.done_count;
    result.outcome = std::move(out);
  });
  if (arrival_at) {
    runtime.simulator().schedule_at(
        sim::SimTime::seconds(*arrival_at), [&runtime] {
          runtime.submit(kContinuousQuery, [](core::QueryOutcome) {});
        });
  }
  runtime.simulator().run();
  if (runtime.failover() != nullptr) {
    result.stats = runtime.failover()->stats();
  }
  return result;
}

// ---------------------------------------------------------------------------
// Kill switch
// ---------------------------------------------------------------------------

struct Fingerprint {
  double value = 0.0;
  double energy_j = 0.0;
  double response_s = 0.0;
  double handheld_s = 0.0;
  net::NetworkStats net;
};

std::vector<Fingerprint> run_fingerprint_suite(core::RuntimeConfig config) {
  static const char* kQueries[] = {
      "SELECT temp FROM sensors WHERE sensor = 3",
      "SELECT AVG(temp) FROM sensors",
      "SELECT AVG(temp) FROM sensors EPOCH DURATION 2",
  };
  core::PervasiveGridRuntime runtime(std::move(config));
  std::vector<Fingerprint> prints;
  for (const char* text : kQueries) {
    runtime.reset_energy();
    const auto outcome = runtime.submit_and_run(text);
    Fingerprint p;
    p.value = outcome.actual.value;
    p.energy_j = outcome.actual.energy_j;
    p.response_s = outcome.actual.response_s;
    p.handheld_s = outcome.handheld_response_s;
    p.net = runtime.network().stats();
    prints.push_back(p);
  }
  return prints;
}

void expect_identical(const std::vector<Fingerprint>& a,
                      const std::vector<Fingerprint>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].value, b[i].value) << "query " << i;
    EXPECT_EQ(a[i].energy_j, b[i].energy_j) << "query " << i;
    EXPECT_EQ(a[i].response_s, b[i].response_s) << "query " << i;
    EXPECT_EQ(a[i].handheld_s, b[i].handheld_s) << "query " << i;
    EXPECT_EQ(a[i].net.transmissions, b[i].net.transmissions) << "query " << i;
    EXPECT_EQ(a[i].net.delivered, b[i].net.delivered) << "query " << i;
    EXPECT_EQ(a[i].net.dropped, b[i].net.dropped) << "query " << i;
    EXPECT_EQ(a[i].net.bytes_sent, b[i].net.bytes_sent) << "query " << i;
    EXPECT_EQ(a[i].net.energy_j, b[i].net.energy_j) << "query " << i;
  }
}

TEST(FailoverKillSwitch, DisabledMatchesDefaultConfig) {
  // `failover.enabled = false` IS the default — the manager is never built
  // and dormant knobs must change nothing, to the bit.
  auto defaults = failover_config(false);
  auto explicit_off = failover_config(false);
  explicit_off.failover.checkpoint_period_s = 0.25;
  explicit_off.failover.checkpoint_on_admit = false;
  explicit_off.failover.restart_replay_s = 1.0;
  expect_identical(run_fingerprint_suite(defaults),
                   run_fingerprint_suite(explicit_off));
}

TEST(FailoverKillSwitch, ProtectedPathMatchesLegacyAnswersCrashFree) {
  // Without a crash the protected dispatch re-derives the same plan, makes
  // the same model decisions and runs the same epochs as the legacy path —
  // the logical results must agree exactly.
  core::PervasiveGridRuntime legacy(failover_config(false));
  const auto baseline = legacy.submit_and_run(kContinuousQuery);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  core::PervasiveGridRuntime prot(failover_config(true));
  const auto shielded = prot.submit_and_run(kContinuousQuery);
  ASSERT_TRUE(shielded.ok) << shielded.error;

  ASSERT_EQ(shielded.epochs.size(), baseline.epochs.size());
  for (std::size_t i = 0; i < baseline.epochs.size(); ++i) {
    EXPECT_EQ(shielded.epochs[i].value, baseline.epochs[i].value)
        << "epoch " << i;
    EXPECT_EQ(shielded.epochs[i].coverage, baseline.epochs[i].coverage)
        << "epoch " << i;
  }
  EXPECT_EQ(shielded.actual.value, baseline.actual.value);
  EXPECT_EQ(shielded.coverage, baseline.coverage);
  EXPECT_EQ(shielded.epoch_models, baseline.epoch_models);
  // The protected run took checkpoints and charged them to its own traces.
  ASSERT_NE(prot.failover(), nullptr);
  EXPECT_GT(prot.failover()->stats().checkpoints, 0u);
}

// ---------------------------------------------------------------------------
// Crash / restore on a single station
// ---------------------------------------------------------------------------

TEST(FailoverCrash, RestoreCompletesExactlyOnceWithGapAccounting) {
  const auto run = run_crash_scenario(failover_config(true), 3.4, 2.0);
  EXPECT_EQ(run.done_count, 1) << "completion must fire exactly once";
  ASSERT_EQ(run.outcome.epochs.size(), 10u)
      << "every epoch slot accounted, run or lost";
  EXPECT_TRUE(run.outcome.ok) << run.outcome.error;
  EXPECT_TRUE(run.outcome.degraded)
      << "a crashed window reads as degraded coverage, not failure";
  EXPECT_LT(run.outcome.coverage, 1.0);
  EXPECT_GT(run.outcome.coverage, 0.0);
  // The gap epochs are explicit zero-coverage losses.
  std::size_t lost = 0;
  for (const auto& epoch : run.outcome.epochs) {
    if (!epoch.ok && epoch.coverage == 0.0) ++lost;
  }
  EXPECT_GE(lost, 1u);
  EXPECT_EQ(run.stats.station_crashes, 1u);
  EXPECT_EQ(run.stats.restores, 1u);
  EXPECT_EQ(run.stats.queries_restored, 1u);
  EXPECT_EQ(run.stats.queries_lost, 0u);
  EXPECT_GE(run.stats.epochs_lost_in_gap, 1u);
  EXPECT_GT(run.stats.checkpoints, 0u);
  EXPECT_GT(run.stats.checkpoint_bytes, 0u);
}

TEST(FailoverCrash, CrashRestoreIsDeterministic) {
  const auto a = run_crash_scenario(failover_config(true), 3.4, 2.0);
  const auto b = run_crash_scenario(failover_config(true), 3.4, 2.0);
  ASSERT_EQ(a.done_count, 1);
  ASSERT_EQ(b.done_count, 1);
  ASSERT_EQ(a.outcome.epochs.size(), b.outcome.epochs.size());
  for (std::size_t i = 0; i < a.outcome.epochs.size(); ++i) {
    EXPECT_EQ(a.outcome.epochs[i].value, b.outcome.epochs[i].value)
        << "epoch " << i;
    EXPECT_EQ(a.outcome.epochs[i].ok, b.outcome.epochs[i].ok) << "epoch " << i;
    EXPECT_EQ(a.outcome.epochs[i].coverage, b.outcome.epochs[i].coverage)
        << "epoch " << i;
  }
  EXPECT_EQ(a.outcome.actual.value, b.outcome.actual.value);
  EXPECT_EQ(a.outcome.coverage, b.outcome.coverage);
  EXPECT_EQ(a.stats.epochs_lost_in_gap, b.stats.epochs_lost_in_gap);
  EXPECT_EQ(a.stats.checkpoints, b.stats.checkpoints);
}

TEST(FailoverCrash, ArrivalInReplayWindowKeepsTheLastGoodCheckpoint) {
  // The station is back at 5.4 s but replays only at 5.45 s
  // (restart_replay_s).  An arrival in that window checkpoints on admit;
  // that image must not replace the last good one with the crashed query's
  // emptied epochs, or the replay would lose its whole committed prefix.
  const auto alone = run_crash_scenario(failover_config(true), 3.4, 2.0);
  const auto crowded =
      run_crash_scenario(failover_config(true), 3.4, 2.0, /*arrival_at=*/5.41);
  auto lost_epochs = [](const core::QueryOutcome& outcome) {
    std::size_t lost = 0;
    for (const auto& epoch : outcome.epochs) lost += epoch.ok ? 0 : 1;
    return lost;
  };
  ASSERT_EQ(alone.done_count, 1);
  ASSERT_EQ(crowded.done_count, 1);
  ASSERT_EQ(crowded.outcome.epochs.size(), 10u);
  EXPECT_EQ(lost_epochs(crowded.outcome), lost_epochs(alone.outcome));
  EXPECT_EQ(crowded.outcome.coverage, alone.outcome.coverage);
}

TEST(FailoverCrash, UnprotectedArmLosesTheQuery) {
  // checkpoint_period_s <= 0 disables checkpointing entirely: the crash
  // erases the only copy of the query's state and the restart replay finds
  // nothing — the EXP-R2 "unprotected" control arm.
  auto config = failover_config(true);
  config.failover.checkpoint_period_s = 0.0;
  const auto run = run_crash_scenario(config, 3.4, 2.0);
  EXPECT_EQ(run.done_count, 1)
      << "even total loss answers the client exactly once";
  EXPECT_FALSE(run.outcome.ok);
  EXPECT_EQ(run.outcome.coverage, 0.0);
  EXPECT_EQ(run.stats.queries_lost, 1u);
  EXPECT_EQ(run.stats.queries_restored, 0u);
  EXPECT_EQ(run.stats.checkpoints, 0u);
}

TEST(FailoverCrash, SharedGroupReadmitsAfterCrash) {
  auto config = failover_config(true);
  config.sharing.enabled = true;
  core::PervasiveGridRuntime runtime(config);
  sim::ChaosEngine chaos(runtime.network(), config.seed);
  chaos.set_station_callback([&runtime](net::NodeId node, bool up) {
    runtime.failover()->on_station_transition(node, up);
  });
  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(3.4);
  crash.duration = sim::SimTime::seconds(1.5);
  crash.node = runtime.sensors().base_station();
  chaos.arm_schedule({crash});

  int done_a = 0;
  int done_b = 0;
  core::QueryOutcome out_a;
  core::QueryOutcome out_b;
  runtime.submit(kContinuousQuery, [&](core::QueryOutcome out) {
    ++done_a;
    out_a = std::move(out);
  });
  runtime.submit(kContinuousQuery, [&](core::QueryOutcome out) {
    ++done_b;
    out_b = std::move(out);
  });
  runtime.simulator().run();

  EXPECT_EQ(done_a, 1);
  EXPECT_EQ(done_b, 1);
  EXPECT_EQ(out_a.epochs.size(), 10u);
  EXPECT_EQ(out_b.epochs.size(), 10u);
  EXPECT_TRUE(out_a.ok) << out_a.error;
  EXPECT_TRUE(out_b.ok) << out_b.error;
  // The crash tore every group down; the resumed segments re-admitted and
  // the registry drained back to zero at the end.
  ASSERT_NE(runtime.sharing(), nullptr);
  EXPECT_EQ(runtime.sharing()->registry().active_groups(), 0u);
  EXPECT_GT(runtime.sharing()->registry().stats().groups_torn_down, 0u);
  EXPECT_EQ(runtime.failover()->stats().station_crashes, 1u);
  EXPECT_EQ(runtime.failover()->stats().queries_restored, 2u);
}

// ---------------------------------------------------------------------------
// Experience persistence
// ---------------------------------------------------------------------------

TEST(FailoverExperience, SurvivesProcessRestartViaExperiencePath) {
  const std::string path =
      ::testing::TempDir() + "pgrid_failover_experience.txt";
  std::remove(path.c_str());
  std::string before;
  {
    auto config = failover_config(true);
    config.failover.experience_path = path;
    core::PervasiveGridRuntime runtime(config);
    (void)runtime.submit_and_run("SELECT AVG(temp) FROM sensors");
    (void)runtime.submit_and_run("SELECT MAX(temp) FROM sensors");
    before = partition::save_experience(runtime.decision_maker());
    EXPECT_FALSE(before.empty());
  }  // destructor persists the experience file
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "experience file missing: " << path;
  }
  auto config = failover_config(true);
  config.failover.experience_path = path;
  core::PervasiveGridRuntime runtime(config);
  EXPECT_EQ(partition::save_experience(runtime.decision_maker()), before)
      << "reloaded experience must reproduce the saved learner state";
  std::remove(path.c_str());
}

TEST(FailoverExperience, CrashResetsRamAndRestoresFromCheckpoint) {
  auto config = failover_config(true);
  core::PervasiveGridRuntime runtime(config);
  sim::ChaosEngine chaos(runtime.network(), config.seed);
  chaos.set_station_callback([&runtime](net::NodeId node, bool up) {
    runtime.failover()->on_station_transition(node, up);
  });
  bool checked_mid_outage = false;
  std::string at_crash;
  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(3.4);
  crash.duration = sim::SimTime::seconds(2.0);
  crash.node = runtime.sensors().base_station();
  chaos.arm_schedule({crash});
  // Right after the crash lands, the learner's RAM is gone.
  runtime.simulator().schedule_at(
      sim::SimTime::seconds(3.5), [&] {
        at_crash = partition::save_experience(runtime.decision_maker());
        checked_mid_outage = true;
      });

  int done = 0;
  runtime.submit(kContinuousQuery, [&](core::QueryOutcome) { ++done; });
  runtime.simulator().run();

  EXPECT_EQ(done, 1);
  ASSERT_TRUE(checked_mid_outage);
  const std::string empty_learner =
      partition::save_experience(partition::DecisionMaker{});
  EXPECT_EQ(at_crash, empty_learner)
      << "station-down must wipe the learner's in-RAM experience";
  // After the replay the learner has re-accumulated (checkpoint reload plus
  // post-restore epochs).
  EXPECT_NE(partition::save_experience(runtime.decision_maker()),
            empty_learner);
}

// ---------------------------------------------------------------------------
// Chaos station-liveness callback
// ---------------------------------------------------------------------------

TEST(ChaosStationCallback, FiresForStationFaultsOnly) {
  auto config = failover_config(false);
  core::PervasiveGridRuntime runtime(config);
  sim::ChaosEngine chaos(runtime.network(), 7);
  std::vector<std::pair<net::NodeId, bool>> events;
  chaos.set_station_callback([&](net::NodeId node, bool up) {
    events.emplace_back(node, up);
  });
  const net::NodeId base = runtime.sensors().base_station();
  const net::NodeId sensor = runtime.sensors().sensors()[0];

  sim::Fault station;
  station.kind = sim::FaultKind::kStationCrash;
  station.at = sim::SimTime::seconds(1.0);
  station.duration = sim::SimTime::seconds(1.0);
  station.node = base;
  sim::Fault generic_on_base;
  generic_on_base.kind = sim::FaultKind::kCrash;
  generic_on_base.at = sim::SimTime::seconds(4.0);
  generic_on_base.duration = sim::SimTime::seconds(1.0);
  generic_on_base.node = base;
  sim::Fault generic_on_sensor;
  generic_on_sensor.kind = sim::FaultKind::kCrash;
  generic_on_sensor.at = sim::SimTime::seconds(7.0);
  generic_on_sensor.duration = sim::SimTime::seconds(1.0);
  generic_on_sensor.node = sensor;
  chaos.arm_schedule({station, generic_on_base, generic_on_sensor});
  runtime.simulator().run();

  ASSERT_EQ(events.size(), 4u)
      << "two station faults, each a down + up transition";
  EXPECT_EQ(events[0], std::make_pair(base, false));
  EXPECT_EQ(events[1], std::make_pair(base, true));
  EXPECT_EQ(events[2], std::make_pair(base, false));
  EXPECT_EQ(events[3], std::make_pair(base, true));
  EXPECT_TRUE(chaos.quiescent());
}

// ---------------------------------------------------------------------------
// Sharded deployments: adoption + roaming handoff
// ---------------------------------------------------------------------------

core::ShardedDeploymentConfig sharded_failover_config() {
  core::ShardedDeploymentConfig config;
  config.base = failover_config(true);
  config.base.sensors.noise_std = 0.0;
  config.base.pde_resolution = 9;
  config.base.pool_threads = 1;
  config.base.sharing.enabled = true;  // adoption re-admits through sharing
  config.base.failover.checkpoint_period_s = 0.5;
  config.base.sharding.window = sim::SimTime::milliseconds(5);
  config.regions = 2;
  config.region_spacing_m = 400.0;
  config.backhaul_latency = sim::SimTime::milliseconds(10);
  return config;
}

struct AdoptionRun {
  core::QueryOutcome outcome;
  int done_count = 0;
  core::ShardedFailoverStats stats;
};

AdoptionRun run_adoption_scenario() {
  core::ShardedDeployment dep(sharded_failover_config());
  dep.arm_station_failover(0);
  dep.arm_station_failover(1);
  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(2.7);
  crash.duration = sim::SimTime::seconds(2.0);
  crash.node = dep.region(0).sensors().base_station();
  dep.inject_remote(0, crash);

  AdoptionRun run;
  dep.submit(0, sim::SimTime::milliseconds(200), kContinuousQuery,
             [&run](core::QueryOutcome out) {
               ++run.done_count;
               run.outcome = std::move(out);
             });
  dep.run();
  run.stats = dep.failover_stats();
  return run;
}

TEST(ShardedAdoption, NeighborAdoptsCrashedRegionAndMigratesBack) {
  const auto run = run_adoption_scenario();
  EXPECT_EQ(run.done_count, 1) << "the client is answered exactly once";
  ASSERT_EQ(run.outcome.epochs.size(), 10u);
  EXPECT_TRUE(run.outcome.ok) << run.outcome.error;
  // Epochs ran somewhere throughout: the adopter covered the outage, so
  // coverage stays well above a total-loss window.
  EXPECT_GT(run.outcome.coverage, 0.0);
  EXPECT_EQ(run.stats.station_outages, 1u);
  EXPECT_EQ(run.stats.checkpoints_shipped, 1u);
  EXPECT_GE(run.stats.queries_adopted, 1u);
  EXPECT_EQ(run.stats.migrations_back, 1u)
      << "the restart must reclaim the in-flight adoption";
}

TEST(ShardedAdoption, BitIdenticalAcrossRuns) {
  const auto one = run_adoption_scenario();
  const auto two = run_adoption_scenario();
  ASSERT_EQ(one.done_count, 1);
  ASSERT_EQ(two.done_count, 1);
  ASSERT_EQ(one.outcome.epochs.size(), two.outcome.epochs.size());
  for (std::size_t i = 0; i < one.outcome.epochs.size(); ++i) {
    EXPECT_EQ(one.outcome.epochs[i].value, two.outcome.epochs[i].value)
        << "epoch " << i;
    EXPECT_EQ(one.outcome.epochs[i].ok, two.outcome.epochs[i].ok)
        << "epoch " << i;
  }
  EXPECT_EQ(one.outcome.actual.value, two.outcome.actual.value);
  EXPECT_EQ(one.outcome.coverage, two.outcome.coverage);
  EXPECT_EQ(one.stats.station_outages, two.stats.station_outages);
  EXPECT_EQ(one.stats.queries_adopted, two.stats.queries_adopted);
  EXPECT_EQ(one.stats.checkpoints_shipped, two.stats.checkpoints_shipped);
  EXPECT_EQ(one.stats.migrations_back, two.stats.migrations_back);
}

TEST(RoamingHandoff, QueryFollowsClientAcrossShardBoundary) {
  core::ShardedDeployment dep(sharded_failover_config());
  // The handheld walks from region 0 toward region 1; when the shared
  // ShardMap says it crossed the boundary, its standing query re-homes.
  const net::NodeId handheld = dep.region(0).handheld_node();
  const net::Vec3 start = dep.region_origin(0);
  const net::Vec3 goal = dep.region_origin(1);
  const net::RegionId home = dep.shard_map(0).region_of_pos(start);
  auto crossed = std::make_shared<bool>(false);
  auto& sim0 = dep.region(0).simulator();
  std::function<void(int)> walk = [&, crossed](int step) {
    if (step > 20) return;
    const double t = static_cast<double>(step) / 20.0;
    net::Vec3 pos{start.x + (goal.x - start.x) * t,
                  start.y + (goal.y - start.y) * t, 0.0};
    dep.region(0).network().move_node(handheld, pos);
    if (!*crossed && dep.shard_map(0).region_of_pos(pos) != home) {
      *crossed = true;
      // First (and only) protected query of region 0 has id 1.
      dep.handoff_query(0, 1, sim0.now(), 1);
    }
    sim0.schedule(sim::SimTime::milliseconds(250),
                  [&walk, step] { walk(step + 1); });
  };
  sim0.schedule_at(sim::SimTime::seconds(1.0), [&walk] { walk(0); });

  int done = 0;
  core::QueryOutcome outcome;
  dep.submit(0, sim::SimTime::milliseconds(200), kContinuousQuery,
             [&](core::QueryOutcome out) {
               ++done;
               outcome = std::move(out);
             });
  dep.run();

  EXPECT_TRUE(*crossed) << "the walk never crossed the shard boundary";
  EXPECT_EQ(done, 1) << "the roaming client is answered exactly once";
  ASSERT_EQ(outcome.epochs.size(), 10u);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  const auto stats = dep.failover_stats();
  EXPECT_EQ(stats.handoffs, 1u);
  EXPECT_GE(stats.queries_adopted, 1u);
  EXPECT_EQ(stats.station_outages, 0u);
}

// ---------------------------------------------------------------------------
// StoreAndForwardDeputy bridges the station-outage gap
// ---------------------------------------------------------------------------

class DeputyOutageFixture : public ::testing::Test {
 protected:
  DeputyOutageFixture()
      : net_(sim_, common::Rng(7)), platform_(net_), chaos_(net_, 11) {}

  net::NodeId add_node(double x, double y,
                       net::NodeKind kind = net::NodeKind::kGeneric) {
    net::NodeConfig c;
    c.pos = {x, y, 0.0};
    c.radio = net::LinkClass::wifi();
    c.kind = kind;
    c.unlimited_energy = true;
    return net_.add_node(c);
  }

  sim::Simulator sim_;
  net::Network net_;
  agent::AgentPlatform platform_;
  sim::ChaosEngine chaos_;
};

TEST_F(DeputyOutageFixture, GapQueuedEnvelopesDrainExactlyOnce) {
  const auto client = add_node(0, 0);
  const auto station = add_node(50, 0, net::NodeKind::kBaseStation);
  std::vector<agent::Envelope> inbox;
  const auto sender_id =
      platform_.register_agent(std::make_unique<agent::LambdaAgent>(
          "client", client,
          [](agent::LambdaAgent&, const agent::Envelope&) {}));
  auto deputy = std::make_unique<agent::StoreAndForwardDeputy>(
      sim::SimTime::seconds(0.5), sim::SimTime::seconds(60.0));
  auto* deputy_raw = deputy.get();
  const auto receiver_id =
      platform_.register_agent(std::make_unique<agent::LambdaAgent>(
                                   "station-svc", station,
                                   [&inbox](agent::LambdaAgent&,
                                            const agent::Envelope& env) {
                                     inbox.push_back(env);
                                   }),
                               std::move(deputy));

  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(0.5);
  crash.duration = sim::SimTime::seconds(4.0);
  crash.node = station;
  chaos_.arm_schedule({crash});

  int delivered = 0;
  for (int i = 0; i < 3; ++i) {
    sim_.schedule_at(sim::SimTime::seconds(1.0 + 0.5 * i), [&, i] {
      agent::Envelope env;
      env.sender = sender_id;
      env.receiver = receiver_id;
      env.payload = "gap-" + std::to_string(i);
      platform_.send(env, [&delivered](bool ok) {
        if (ok) ++delivered;
      });
    });
  }
  sim_.run();

  EXPECT_EQ(delivered, 3) << "every gap-queued envelope reports delivery";
  ASSERT_EQ(inbox.size(), 3u) << "each envelope drains exactly once";
  std::vector<std::string> payloads;
  for (const auto& env : inbox) payloads.push_back(env.payload);
  std::sort(payloads.begin(), payloads.end());
  EXPECT_EQ(payloads,
            (std::vector<std::string>{"gap-0", "gap-1", "gap-2"}));
  EXPECT_EQ(deputy_raw->queued(), 0u);
  EXPECT_GT(deputy_raw->attempts(), 3u) << "the gap forced retries";
  EXPECT_GE(sim_.now().to_seconds(), 4.5) << "drain waited for the restart";
}

TEST_F(DeputyOutageFixture, GiveUpFiresOnceAtDeadlineWhenStationNeverReturns) {
  // Regression: done(false) must fire exactly once AT the deadline even
  // when the outage outlives the delivery budget.
  const auto client = add_node(0, 0);
  const auto station = add_node(50, 0, net::NodeKind::kBaseStation);
  std::vector<agent::Envelope> inbox;
  const auto sender_id =
      platform_.register_agent(std::make_unique<agent::LambdaAgent>(
          "client", client,
          [](agent::LambdaAgent&, const agent::Envelope&) {}));
  const auto receiver_id = platform_.register_agent(
      std::make_unique<agent::LambdaAgent>(
          "station-svc", station,
          [&inbox](agent::LambdaAgent&, const agent::Envelope& env) {
            inbox.push_back(env);
          }),
      std::make_unique<agent::StoreAndForwardDeputy>(
          sim::SimTime::seconds(0.5), sim::SimTime::seconds(3.0)));

  sim::Fault crash;
  crash.kind = sim::FaultKind::kStationCrash;
  crash.at = sim::SimTime::seconds(0.5);
  crash.duration = sim::SimTime::seconds(600.0);  // outlives the budget
  crash.node = station;
  chaos_.arm_schedule({crash});

  int done_count = 0;
  bool last_result = true;
  sim::SimTime done_at{};
  sim_.schedule_at(sim::SimTime::seconds(1.0), [&] {
    agent::Envelope env;
    env.sender = sender_id;
    env.receiver = receiver_id;
    env.payload = "doomed";
    platform_.send(env, [&](bool delivered) {
      ++done_count;
      last_result = delivered;
      done_at = sim_.now();
    });
  });
  sim_.run();

  EXPECT_EQ(done_count, 1) << "done must fire exactly once";
  EXPECT_FALSE(last_result);
  EXPECT_EQ(done_at, sim::SimTime::seconds(4.0))
      << "failure reports AT the deadline (send + give_up_after)";
  EXPECT_TRUE(inbox.empty());
}

}  // namespace
}  // namespace pgrid
