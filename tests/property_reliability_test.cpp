// Property tests for the end-to-end reliability layer (PR 5):
//
//  1. Determinism: the channel is a pure function of (topology, seed) —
//     replaying a seed reproduces bit-identical retransmit schedules,
//     delivery timestamps, ReliableStats, and QueryOutcome.
//  2. Exactly-once: under lossy-mesh chaos (drops, duplicates, lost ACKs)
//     the ACK channel delivers every payload to its destination at most
//     once, and `done` fires exactly once per send.
//  3. Breakers: an open breaker never admits a send until the half-open
//     probe succeeds; failed probes escalate the cooling period.
//
// Budget semantics and window queueing ride along as unit properties.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/runtime.hpp"
#include "net/network.hpp"
#include "net/reliable.hpp"
#include "sim/chaos.hpp"
#include "sim/invariants.hpp"
#include "sim/simulator.hpp"

namespace pgrid {
namespace {

using net::Budget;
using net::BreakerRegistry;
using net::BreakerState;
using net::NodeId;

// ---------------------------------------------------------------------------
// Budget semantics
// ---------------------------------------------------------------------------

TEST(Budget, UnlimitedNeverExpires) {
  const Budget b = Budget::unlimited();
  EXPECT_FALSE(b.bounded());
  EXPECT_FALSE(b.expired(sim::SimTime::seconds(1e9)));
  EXPECT_EQ(b.clamp(sim::SimTime::zero(), sim::SimTime::seconds(5.0)),
            sim::SimTime::seconds(5.0));
}

TEST(Budget, BoundedExpiresAtDeadlineExactly) {
  const Budget b = Budget::until(sim::SimTime::seconds(10.0));
  EXPECT_TRUE(b.bounded());
  EXPECT_FALSE(b.expired(sim::SimTime::seconds(9.999)));
  EXPECT_TRUE(b.expired(sim::SimTime::seconds(10.0)));
  EXPECT_EQ(b.remaining(sim::SimTime::seconds(4.0)),
            sim::SimTime::seconds(6.0));
  EXPECT_EQ(b.remaining(sim::SimTime::seconds(11.0)), sim::SimTime::zero());
}

TEST(Budget, TightenedPicksEarlierDeadlineAndClampCapsTimeouts) {
  const Budget early = Budget::until(sim::SimTime::seconds(5.0));
  const Budget late = Budget::until(sim::SimTime::seconds(50.0));
  EXPECT_EQ(early.tightened(late).deadline, early.deadline);
  EXPECT_EQ(late.tightened(early).deadline, early.deadline);
  EXPECT_EQ(early.tightened(Budget::unlimited()).deadline, early.deadline);
  // A 30 s protocol timeout issued at t=3 s against a t=5 s deadline must
  // shrink to the 2 s remaining.
  EXPECT_EQ(early.clamp(sim::SimTime::seconds(3.0), sim::SimTime::seconds(30.0)),
            sim::SimTime::seconds(2.0));
}

// ---------------------------------------------------------------------------
// Circuit breakers (property 3, unit level)
// ---------------------------------------------------------------------------

TEST(Breaker, TripsOpenAtThresholdAndNeverAdmitsWhileCooling) {
  BreakerRegistry reg;
  const sim::SimTime t0 = sim::SimTime::seconds(1.0);
  EXPECT_TRUE(reg.admit(7, t0));
  reg.record_failure(7, t0);
  reg.record_failure(7, t0);
  EXPECT_EQ(reg.state(7, t0), BreakerState::kClosed) << "below threshold";
  reg.record_failure(7, t0);
  EXPECT_EQ(reg.state(7, t0), BreakerState::kOpen);
  EXPECT_EQ(reg.stats().opens, 1u);

  // The ISSUE property: while open, every admit() short-circuits until the
  // cooling period elapses — no traffic reaches the resource.
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(reg.admit(7, t0 + sim::SimTime::seconds(0.3 * i)));
  }
  EXPECT_EQ(reg.stats().short_circuits, 10u);
  EXPECT_EQ(reg.stats().probes, 0u);
  EXPECT_EQ(reg.open_count(t0), 1u);
}

TEST(Breaker, HalfOpenGrantsSingleProbeAndSuccessCloses) {
  BreakerRegistry reg;
  const sim::SimTime t0 = sim::SimTime::zero();
  for (int i = 0; i < 3; ++i) reg.record_failure(7, t0);
  const sim::SimTime healed = t0 + sim::SimTime::seconds(4.0);
  EXPECT_EQ(reg.state(7, healed), BreakerState::kHalfOpen);

  // Exactly one probe: the first admit wins, concurrent admits still
  // short-circuit until the probe resolves.
  EXPECT_TRUE(reg.admit(7, healed));
  EXPECT_FALSE(reg.admit(7, healed));
  EXPECT_FALSE(reg.admit(7, healed + sim::SimTime::seconds(1.0)));
  EXPECT_EQ(reg.stats().probes, 1u);
  EXPECT_EQ(reg.stats().short_circuits, 2u);

  reg.record_success(7, healed + sim::SimTime::seconds(1.0));
  EXPECT_EQ(reg.stats().closes, 1u);
  EXPECT_EQ(reg.state(7, healed), BreakerState::kClosed);
  EXPECT_TRUE(reg.admit(7, healed + sim::SimTime::seconds(1.0)));
  // Fully healed: the failure count restarts from zero.
  reg.record_failure(7, healed + sim::SimTime::seconds(2.0));
  EXPECT_EQ(reg.state(7, healed + sim::SimTime::seconds(2.0)),
            BreakerState::kClosed);
}

TEST(Breaker, FailedProbeEscalatesCoolingGeometrically) {
  BreakerRegistry reg;
  sim::SimTime now = sim::SimTime::zero();
  for (int i = 0; i < 3; ++i) reg.record_failure(7, now);

  // Probe after 4 s cooling fails: re-open for 8 s.
  now += sim::SimTime::seconds(4.0);
  EXPECT_TRUE(reg.admit(7, now));
  reg.record_failure(7, now);
  EXPECT_EQ(reg.stats().opens, 2u);
  EXPECT_FALSE(reg.admit(7, now + sim::SimTime::seconds(7.9)))
      << "cooling doubled to 8 s";
  EXPECT_EQ(reg.state(7, now + sim::SimTime::seconds(8.0)),
            BreakerState::kHalfOpen);

  // Second failed probe: 16 s.
  now += sim::SimTime::seconds(8.0);
  EXPECT_TRUE(reg.admit(7, now));
  reg.record_failure(7, now);
  EXPECT_FALSE(reg.admit(7, now + sim::SimTime::seconds(15.9)));
  EXPECT_TRUE(reg.admit(7, now + sim::SimTime::seconds(16.0)));
}

TEST(Breaker, SuccessWhileClosedResetsConsecutiveFailures) {
  BreakerRegistry reg;
  const sim::SimTime t0 = sim::SimTime::zero();
  reg.record_failure(7, t0);
  reg.record_failure(7, t0);
  reg.record_success(7, t0);  // streak broken
  reg.record_failure(7, t0);
  reg.record_failure(7, t0);
  EXPECT_EQ(reg.state(7, t0), BreakerState::kClosed)
      << "non-consecutive failures must not trip the breaker";
}

// ---------------------------------------------------------------------------
// Channel fixture: a wireless mesh the chaos engine can chew on
// ---------------------------------------------------------------------------

net::NodeConfig mesh_node(double x, double y) {
  net::NodeConfig c;
  c.pos = {x, y, 0.0};
  c.kind = net::NodeKind::kSensor;
  c.radio = net::LinkClass::sensor_radio();  // 25 m range
  c.unlimited_energy = true;                 // isolate transport properties
  return c;
}

/// A 5x5 grid at 18 m spacing: every node reaches its 4-neighbours only,
/// so corner-to-corner traffic is genuinely multi-hop with alternates.
std::vector<NodeId> build_mesh(net::Network& net, std::size_t side = 5,
                               double spacing = 18.0) {
  std::vector<NodeId> nodes;
  for (std::size_t y = 0; y < side; ++y) {
    for (std::size_t x = 0; x < side; ++x) {
      nodes.push_back(net.add_node(mesh_node(x * spacing, y * spacing)));
    }
  }
  return nodes;
}

TEST(ReliableChannel, DeliversAcrossMultipleHops) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(99));
  auto nodes = build_mesh(net);
  net::ReliableChannel channel(net, common::Rng(5));

  int delivered = 0;
  channel.unicast(nodes.front(), nodes.back(), 64, Budget::unlimited(),
                  [&](bool ok) { delivered += ok ? 1 : 0; });
  sim.run();

  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(channel.stats().delivered, 1u);
  EXPECT_EQ(channel.stats().failed, 0u);
  // Corner to corner is 8 hops minimum; each hop is one data + one ACK.
  EXPECT_GE(channel.stats().data_frames, 8u);
  EXPECT_GE(channel.stats().ack_frames, 8u);
}

TEST(ReliableChannel, WindowQueuesExcessSendsAndDrainsAll) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(99));
  auto nodes = build_mesh(net);
  net::ReliableChannel channel(net, common::Rng(5));

  const int sends = static_cast<int>(net::ReliableChannel::kWindow) + 2;
  int done_count = 0;
  for (int i = 0; i < sends; ++i) {
    channel.unicast(nodes.front(), nodes.back(), 64, Budget::unlimited(),
                    [&](bool ok) {
                      ASSERT_TRUE(ok);
                      ++done_count;
                    });
  }
  sim.run();
  EXPECT_EQ(done_count, sends);
  EXPECT_EQ(channel.stats().delivered, static_cast<std::uint64_t>(sends));
  EXPECT_EQ(channel.stats().queued, 2u) << "the window defers the last two";
  EXPECT_EQ(channel.window_pairs(), 0u) << "a drained pair frees its state";
}

TEST(ReliableChannel, BlownBudgetFailsWithoutTraffic) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(99));
  auto nodes = build_mesh(net);
  net::ReliableChannel channel(net, common::Rng(5));

  int failures = 0;
  // Deadline already in the past when the hop cycle starts.
  channel.unicast(nodes.front(), nodes.back(), 64,
                  Budget::until(sim::SimTime::zero()),
                  [&](bool ok) { failures += ok ? 0 : 1; });
  sim.run();
  EXPECT_EQ(failures, 1);
  EXPECT_EQ(channel.stats().expired, 1u);
  EXPECT_EQ(channel.stats().data_frames, 0u)
      << "an expired budget must not buy any transmissions";
}

// ---------------------------------------------------------------------------
// Property 2: exactly-once delivery under lossy-mesh chaos
// ---------------------------------------------------------------------------

struct ChaosRunResult {
  net::ReliableStats stats;
  /// (accept time us, seq) per first destination acceptance, in order.
  std::vector<std::pair<std::int64_t, std::uint64_t>> delivery_log;
  std::vector<int> done_counts;   ///< callback firings per message
  std::vector<bool> done_values;  ///< last outcome per message
  double ledger_joules = 0.0;
};

/// Sends `sends` staggered corner-to-corner unicasts through a lossy-mesh
/// chaos schedule.  Pure function of `seed`.
ChaosRunResult run_chaos_scenario(std::uint64_t seed, int sends = 24) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(seed));
  auto nodes = build_mesh(net);

  sim::ChaosEngine chaos(net, seed * 31 + 7);
  sim::ChaosConfig chaos_config;
  chaos_config.horizon = sim::SimTime::seconds(60.0);
  chaos_config.fault_count = 14;
  chaos_config.mix = sim::ChaosMix::lossy_mesh();
  chaos.arm(chaos_config);

  net::ReliableChannel channel(net, common::Rng(seed ^ 0xABCD));

  ChaosRunResult result;
  result.done_counts.assign(sends, 0);
  result.done_values.assign(sends, false);
  channel.set_delivery_probe([&](NodeId, std::uint64_t seq) {
    result.delivery_log.emplace_back(sim.now().us, seq);
  });

  for (int i = 0; i < sends; ++i) {
    const NodeId src = nodes[i % nodes.size()];
    const NodeId dst = nodes[nodes.size() - 1 - (i % nodes.size())];
    sim.schedule(sim::SimTime::seconds(0.5 + 2.0 * i), [&, i, src, dst] {
      channel.unicast(src, dst, 64,
                      Budget::until(sim.now() + sim::SimTime::seconds(20.0)),
                      [&, i](bool ok) {
                        ++result.done_counts[i];
                        result.done_values[i] = ok;
                      });
    });
  }
  sim.run();
  result.stats = channel.stats();
  result.ledger_joules = net.telemetry().total().joules;
  return result;
}

TEST(ReliabilityProperty, ExactlyOnceUnderLossyMeshChaos) {
  const auto result = run_chaos_scenario(0xC0FFEE);

  // Every send resolves exactly once — never zero (hang), never twice.
  for (std::size_t i = 0; i < result.done_counts.size(); ++i) {
    EXPECT_EQ(result.done_counts[i], 1) << "message " << i;
  }

  // No destination accepts the same sequence number twice: duplicates and
  // retransmissions after lost ACKs are suppressed at the receiver.
  std::map<std::uint64_t, int> accepts_per_seq;
  for (const auto& [when, seq] : result.delivery_log) {
    ++accepts_per_seq[seq];
  }
  for (const auto& [seq, count] : accepts_per_seq) {
    EXPECT_EQ(count, 1) << "seq " << seq << " accepted more than once";
  }

  // Each done(true) is witnessed by exactly one destination acceptance.
  std::size_t delivered = 0;
  for (bool ok : result.done_values) delivered += ok ? 1 : 0;
  EXPECT_GE(accepts_per_seq.size(), delivered)
      << "every success must have reached the destination";
  EXPECT_EQ(result.stats.delivered + result.stats.failed,
            result.stats.messages);

  // The chaos mix actually exercised the ARQ machinery.
  EXPECT_GT(result.stats.retransmissions, 0u)
      << "lossy mesh should force retransmits; weak seed?";
}

// ---------------------------------------------------------------------------
// Property 1 (channel level): same seed, bit-identical schedules
// ---------------------------------------------------------------------------

TEST(ReliabilityProperty, SameSeedReplaysBitIdenticalRetransmitSchedule) {
  const auto a = run_chaos_scenario(2026);
  const auto b = run_chaos_scenario(2026);

  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.delivered, b.stats.delivered);
  EXPECT_EQ(a.stats.failed, b.stats.failed);
  EXPECT_EQ(a.stats.expired, b.stats.expired);
  EXPECT_EQ(a.stats.data_frames, b.stats.data_frames);
  EXPECT_EQ(a.stats.ack_frames, b.stats.ack_frames);
  EXPECT_EQ(a.stats.retransmissions, b.stats.retransmissions);
  EXPECT_EQ(a.stats.duplicates_suppressed, b.stats.duplicates_suppressed);
  EXPECT_EQ(a.stats.reroutes, b.stats.reroutes);
  EXPECT_EQ(a.stats.queued, b.stats.queued);
  // Microsecond-exact delivery timeline, not just aggregate counters.
  EXPECT_EQ(a.delivery_log, b.delivery_log);
  EXPECT_EQ(a.done_values, b.done_values);
  EXPECT_EQ(a.ledger_joules, b.ledger_joules) << "bit-identical, not NEAR";
}

TEST(ReliabilityProperty, DifferentSeedsDiverge) {
  const auto a = run_chaos_scenario(1);
  const auto b = run_chaos_scenario(2);
  EXPECT_NE(a.delivery_log, b.delivery_log)
      << "distinct seeds should produce distinct fault/retransmit timelines";
}

// ---------------------------------------------------------------------------
// Property 3 (channel level): open link breakers short-circuit sends until
// the half-open probe succeeds
// ---------------------------------------------------------------------------

TEST(ReliabilityProperty, OpenLinkBreakerNeverAdmitsUntilProbeSucceeds) {
  sim::Simulator sim;
  net::Network net(sim, common::Rng(99));
  // A 3-node line: 0 - 1 - 2, single path, no alternates.
  const auto a = net.add_node(mesh_node(0, 0));
  const auto b = net.add_node(mesh_node(18, 0));
  const auto c = net.add_node(mesh_node(36, 0));
  (void)b;  // the relay: traffic crosses it, the test never names it again

  sim::ChaosEngine chaos(net, 11);
  // Total frame loss on every hop touching c for 5 s.  Unlike a blackout,
  // a degraded link stays visible to route discovery, so the channel keeps
  // transmitting into it — exactly what link breakers exist to stop.
  sim::Fault degrade;
  degrade.kind = sim::FaultKind::kLinkDegrade;
  degrade.at = sim::SimTime::seconds(0.5);
  degrade.duration = sim::SimTime::seconds(5.0);
  degrade.node = c;
  degrade.magnitude = 1.0;
  chaos.arm_schedule({degrade});

  net::ReliableChannel channel(net, common::Rng(5));

  std::vector<bool> outcomes;
  // First send lands inside the degrade window: the b<->c hop exhausts its
  // attempts, trips the link breaker, and the message fails (no alternate
  // route exists).
  sim.schedule(sim::SimTime::seconds(1.0), [&] {
    channel.unicast(a, c, 64, Budget::unlimited(),
                    [&](bool ok) { outcomes.push_back(ok); });
  });
  // Second send starts long after the fault healed and the cooling period
  // elapsed: the next admit grants the half-open probe, the probe
  // succeeds, and the breaker closes.
  sim.schedule(sim::SimTime::seconds(30.0), [&] {
    channel.unicast(a, c, 64, Budget::unlimited(),
                    [&](bool ok) { outcomes.push_back(ok); });
  });
  sim.run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0]) << "blackout window: delivery must fail";
  EXPECT_TRUE(outcomes[1]) << "healed link: probe re-admits traffic";

  const auto& stats = channel.link_breakers().stats();
  EXPECT_GE(stats.opens, 1u) << "repeated hop failures must trip the breaker";
  EXPECT_GE(stats.short_circuits, 1u)
      << "while cooling, the open breaker must refuse the hop";
  EXPECT_GE(stats.probes, 1u);
  EXPECT_GE(stats.closes, 1u) << "successful probe closes the breaker";
  EXPECT_EQ(channel.link_breakers().open_count(sim.now()), 0u);
  EXPECT_GE(channel.stats().reroutes, 1u)
      << "the open breaker re-routes (and finding nothing, fails)";
}

// ---------------------------------------------------------------------------
// Property 1 (runtime level): reliability-enabled QueryOutcome replays
// bit-identically from the seed, and the ledger still balances
// ---------------------------------------------------------------------------

core::RuntimeConfig reliable_runtime_config(std::uint64_t seed) {
  core::RuntimeConfig config;
  config.seed = seed;
  config.sensors.sensor_count = 25;
  config.sensors.width_m = 46.0;
  config.sensors.height_m = 46.0;
  config.sensors.base_pos = {-5, -5, 0};
  config.sensors.noise_std = 0.0;
  config.advertise_sensor_services = false;
  config.pde_resolution = 13;
  config.reliability.enabled = true;
  return config;
}

core::QueryOutcome run_reliable_query(std::uint64_t seed) {
  core::PervasiveGridRuntime runtime(reliable_runtime_config(seed));
  sim::ChaosEngine chaos(runtime.network(), seed * 131 + 3);
  sim::ChaosConfig chaos_config;
  chaos_config.horizon = sim::SimTime::seconds(40.0);
  chaos_config.fault_count = 8;
  chaos_config.mix = sim::ChaosMix::lossy_mesh();
  chaos.arm(chaos_config);

  auto outcome = runtime.submit_and_run("SELECT AVG(temp) FROM sensors",
                                        partition::SolutionModel::kAllToBase);
  runtime.simulator().run();  // drain remaining fault-heal events

  sim::InvariantRegistry invariants;
  invariants.add("ledger-conservation", [&] {
    return sim::check_ledger_conservation(runtime.telemetry());
  });
  invariants.add("chaos-quiescent",
                 [&] { return sim::check_chaos_quiescent(chaos); });
  auto violations = invariants.run_all();
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? ""
                             : violations.front().invariant + ": " +
                                   violations.front().detail);
  return outcome;
}

TEST(ReliabilityProperty, QueryOutcomeBitIdenticalAcrossReplays) {
  const auto a = run_reliable_query(77);
  const auto b = run_reliable_query(77);

  ASSERT_EQ(a.ok, b.ok);
  // EXPECT_EQ on doubles intentionally: the contract is bit-identity.
  EXPECT_EQ(a.actual.value, b.actual.value);
  EXPECT_EQ(a.actual.response_s, b.actual.response_s);
  EXPECT_EQ(a.actual.energy_j, b.actual.energy_j);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.handheld_response_s, b.handheld_response_s);
}

TEST(ReliabilityProperty, CoverageGradesPartialCollections) {
  // Clean network, reliability on: full coverage, not degraded.
  core::PervasiveGridRuntime runtime(reliable_runtime_config(7));
  auto outcome = runtime.submit_and_run("SELECT AVG(temp) FROM sensors",
                                        partition::SolutionModel::kAllToBase);
  ASSERT_TRUE(outcome.ok) << outcome.error;
  EXPECT_EQ(outcome.coverage, 1.0);
  EXPECT_FALSE(outcome.degraded);
  EXPECT_GT(runtime.reliable_channel()->stats().delivered, 0u);
}

}  // namespace
}  // namespace pgrid
