// Tests for the trace-scoped cost ledger: charge attribution, span
// semantics, trace-context propagation through the event kernel,
// conservation against the network's per-node counters, equivalence of the
// ledger-derived ActualCost with the legacy hand-summed brackets, and
// what-if isolation (clone ledgers never pollute the real one).
#include <gtest/gtest.h>

#include <numeric>

#include "core/runtime.hpp"
#include "net/network.hpp"
#include "partition/executor.hpp"
#include "query/parser.hpp"
#include "sim/simulator.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid {
namespace {

using telemetry::Cost;
using telemetry::CostLedger;
using telemetry::Span;
using telemetry::Subsystem;
using telemetry::TraceScope;

Cost bytes_cost(std::uint64_t bytes) {
  Cost cost;
  cost.bytes = bytes;
  cost.count = 1;
  return cost;
}

TEST(CostLedgerTest, ChargesAttributeToSubsystemAndTrace) {
  sim::Simulator sim;
  CostLedger ledger(sim);
  const auto a = ledger.new_trace();
  const auto b = ledger.new_trace();
  ASSERT_NE(a, b);

  ledger.charge(Subsystem::kWireless, a, bytes_cost(100));
  ledger.charge(Subsystem::kWireless, b, bytes_cost(40));
  ledger.charge(Subsystem::kGridCompute, a, [] {
    Cost c;
    c.ops = 2.5;
    return c;
  }());

  EXPECT_EQ(ledger.totals()[Subsystem::kWireless].bytes, 140u);
  EXPECT_DOUBLE_EQ(ledger.totals()[Subsystem::kGridCompute].ops, 2.5);
  EXPECT_EQ(ledger.trace(a)[Subsystem::kWireless].bytes, 100u);
  EXPECT_EQ(ledger.trace(b)[Subsystem::kWireless].bytes, 40u);
  EXPECT_TRUE(ledger.trace(b)[Subsystem::kGridCompute].empty());
  // An unknown trace reads as all-zero, not an error.
  EXPECT_TRUE(ledger.trace(9999).total().empty());
  EXPECT_EQ(ledger.trace_ids(), (std::vector<telemetry::TraceId>{a, b}));
}

TEST(CostLedgerTest, ResetClearsCountersButNotTraceAllocation) {
  sim::Simulator sim;
  CostLedger ledger(sim);
  const auto before = ledger.new_trace();
  ledger.charge(Subsystem::kBackhaul, before, bytes_cost(64));
  ledger.reset();
  EXPECT_TRUE(ledger.total().empty());
  EXPECT_TRUE(ledger.trace_ids().empty());
  // Ids keep climbing so a pre-reset id can never alias a new query.
  EXPECT_GT(ledger.new_trace(), before);
}

TEST(CostLedgerTest, RowsAfterResetMatchAFreshLedger) {
  // charge() memoises the last-charged row; reset() frees every row, so a
  // memo kept across it would charge a dead row.  The post-reset sequence
  // therefore opens with the trace charged last before the reset.
  sim::Simulator sim;
  CostLedger ledger(sim);
  CostLedger fresh(sim);
  const auto a = ledger.new_trace();
  const auto b = ledger.new_trace();
  const auto c = ledger.new_trace();
  auto charge_pattern = [&](CostLedger& target) {
    const telemetry::TraceId order[] = {b, b, a, c, a, a, b, c, c, 0, b};
    std::uint64_t bytes = 10;
    for (const auto trace : order) {
      target.charge(Subsystem::kWireless, trace, bytes_cost(bytes));
      target.charge(Subsystem::kSensing, trace, bytes_cost(bytes + 1));
      bytes += 7;
    }
  };
  charge_pattern(ledger);
  ledger.charge(Subsystem::kBackhaul, b, bytes_cost(999));
  ledger.reset();
  charge_pattern(ledger);
  charge_pattern(fresh);

  ASSERT_EQ(ledger.trace_ids(), fresh.trace_ids());
  for (const auto trace : fresh.trace_ids()) {
    for (std::size_t i = 0; i < telemetry::kSubsystemCount; ++i) {
      const Cost got = ledger.trace(trace).by_subsystem[i];
      const Cost want = fresh.trace(trace).by_subsystem[i];
      EXPECT_EQ(got.bytes, want.bytes) << "trace " << trace << " row " << i;
      EXPECT_EQ(got.count, want.count) << "trace " << trace << " row " << i;
    }
  }
  EXPECT_EQ(ledger.totals()[Subsystem::kWireless].bytes,
            fresh.totals()[Subsystem::kWireless].bytes);
  EXPECT_TRUE(ledger.trace(b)[Subsystem::kBackhaul].empty());
}

TEST(CostLedgerTest, SpanStampsSimulatedTimeUnderOpeningTrace) {
  sim::Simulator sim;
  CostLedger ledger(sim);
  const auto trace = ledger.new_trace();

  sim.schedule_at(sim::SimTime::seconds(1.0), [&] {
    TraceScope scope(sim, trace);
    auto span = std::make_shared<Span>(ledger, Subsystem::kSensing);
    EXPECT_EQ(ledger.open_spans(), 1);
    // The span closes three simulated seconds later, from an event that
    // runs under a *different* trace context: the charge must still land
    // under the trace active when the span opened.
    sim.schedule_at(sim::SimTime::seconds(4.0), [&, span] {
      TraceScope other(sim, ledger.new_trace());
      span->close();
    });
  });
  sim.run();

  EXPECT_EQ(ledger.open_spans(), 0);
  const auto sensing = ledger.trace(trace)[Subsystem::kSensing];
  EXPECT_DOUBLE_EQ(sensing.sim_seconds, 3.0);
  EXPECT_EQ(sensing.count, 1u);
}

TEST(CostLedgerTest, SpanCloseIsIdempotentAndMoveTransfersOwnership) {
  sim::Simulator sim;
  CostLedger ledger(sim);
  {
    Span a(ledger, Subsystem::kRuntime);
    EXPECT_TRUE(a.open());
    Span b = std::move(a);
    EXPECT_FALSE(a.open());
    EXPECT_TRUE(b.open());
    EXPECT_EQ(ledger.open_spans(), 1);
    b.close();
    b.close();  // idempotent
    EXPECT_EQ(ledger.open_spans(), 0);
  }
  // Destruction after an explicit close must not double-charge.
  EXPECT_EQ(ledger.totals()[Subsystem::kRuntime].count, 1u);
}

TEST(CostLedgerTest, TraceContextFollowsCausalEventChains) {
  sim::Simulator sim;
  CostLedger ledger(sim);
  const auto trace = ledger.new_trace();
  telemetry::TraceId seen_inner = telemetry::kNoTrace;
  telemetry::TraceId seen_outer = telemetry::kNoTrace;

  {
    TraceScope scope(sim, trace);
    // Events scheduled inside the scope inherit the trace, transitively.
    sim.schedule_at(sim::SimTime::seconds(1.0), [&] {
      sim.schedule_at(sim::SimTime::seconds(2.0),
                      [&] { seen_inner = sim.trace_context(); });
    });
  }
  // Scheduled outside any scope: runs untraced.
  sim.schedule_at(sim::SimTime::seconds(3.0),
                  [&] { seen_outer = sim.trace_context(); });
  EXPECT_EQ(sim.trace_context(), telemetry::kNoTrace);
  sim.run();

  EXPECT_EQ(seen_inner, trace);
  EXPECT_EQ(seen_outer, telemetry::kNoTrace);
}

net::NodeConfig sensor_at(double x, double y) {
  net::NodeConfig config;
  config.pos = {x, y, 0.0};
  config.kind = net::NodeKind::kSensor;
  config.radio = net::LinkClass::sensor_radio();
  config.battery_j = 2.0;
  return config;
}

std::uint64_t sum_node_tx_bytes(const net::Network& network) {
  std::uint64_t total = 0;
  for (net::NodeId id = 0; id < network.size(); ++id) {
    total += network.node(id).tx_bytes;
  }
  return total;
}

// Conservation at the network layer: the ledger's physical byte total is
// exactly the sum of every node's transmit counter, which is exactly the
// aggregate stats counter.
TEST(CostLedgerTest, FloodBytesConserveAgainstPerNodeCounters) {
  sim::Simulator sim;
  net::Network network(sim, common::Rng(7));
  for (int gx = 0; gx < 4; ++gx) {
    for (int gy = 0; gy < 4; ++gy) {
      network.add_node(sensor_at(gx * 15.0, gy * 15.0));
    }
  }
  std::size_t reached = 0;
  network.flood(0, 48, nullptr, [&](std::size_t r) { reached = r; });
  sim.run();
  ASSERT_EQ(reached, network.size());

  const auto& ledger = network.telemetry();
  EXPECT_GT(ledger.totals().network_bytes(), 0u);
  EXPECT_EQ(ledger.totals().network_bytes(), sum_node_tx_bytes(network));
  EXPECT_EQ(ledger.totals().network_bytes(), network.stats().bytes_sent);
  // Battery draw is conserved too (tx + rx on battery nodes).
  EXPECT_NEAR(ledger.total().joules, network.battery_energy_consumed(),
              1e-12);
}

core::RuntimeConfig scenario_config() {
  core::RuntimeConfig config;
  config.sensors.sensor_count = 49;
  config.sensors.width_m = 91.0;
  config.sensors.height_m = 91.0;
  config.sensors.base_pos = {-5, -5, 0};
  config.sensors.noise_std = 0.0;
  config.advertise_sensor_services = false;
  config.pde_resolution = 13;
  return config;
}

class TelemetryRuntimeFixture : public ::testing::Test {
 protected:
  TelemetryRuntimeFixture() : runtime_(scenario_config()) {
    sensornet::FireSource fire;
    fire.pos = {60, 60, 0};
    fire.start = sim::SimTime::seconds(-3600.0);
    fire.spread_m_per_s = 0.0;
    runtime_.field().ignite(fire);
  }
  core::PervasiveGridRuntime runtime_;
};

TEST_F(TelemetryRuntimeFixture, QueryBytesConserveAcrossTheStack) {
  const auto outcome = runtime_.submit_and_run(
      "SELECT AVG(temp) FROM sensors",
      partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  const auto& ledger = runtime_.telemetry();
  // Ledger physical bytes == sum of per-node transmit counters == the
  // aggregate stats the network has always kept.
  EXPECT_EQ(ledger.totals().network_bytes(),
            sum_node_tx_bytes(runtime_.network()));
  EXPECT_EQ(ledger.totals().network_bytes(),
            runtime_.network().stats().bytes_sent);
  // The trace covers the whole round trip; ActualCost brackets only the
  // execution.  The difference is exactly the envelope transport on the
  // handheld <-> base link (one hop each way), whose logical wire size the
  // agent-messaging subsystem records.
  EXPECT_EQ(outcome.telemetry.network_bytes() - outcome.actual.data_bytes,
            outcome.telemetry[Subsystem::kAgentMessaging].bytes);
}

// Golden equivalence: bracketing execute_query with the pre-refactor
// hand-summed deltas (battery energy, stats().bytes_sent, wall clock) must
// reproduce the ledger-derived ActualCost.
TEST_F(TelemetryRuntimeFixture, ActualCostMatchesLegacyHandSummedBrackets) {
  const char* queries[] = {
      "SELECT temp FROM sensors WHERE sensor = 10",
      "SELECT AVG(temp) FROM sensors",
      "SELECT TEMP_DISTRIBUTION(temp) FROM sensors",
  };
  for (const char* text : queries) {
    auto context = runtime_.execution_context();
    auto parsed = query::parse_query(text);
    ASSERT_TRUE(parsed.ok());
    const auto cls = runtime_.classifier().classify(parsed.value());
    const auto model = partition::candidates_for(cls.inner).front();

    auto& network = runtime_.network();
    const double energy_before = network.battery_energy_consumed();
    const std::uint64_t bytes_before = network.stats().bytes_sent;
    const auto time_before = runtime_.simulator().now();

    partition::ActualCost actual;
    partition::execute_query(context, parsed.value(), cls, model,
                             [&](partition::ActualCost result) {
                               actual = std::move(result);
                             });
    runtime_.simulator().run();
    ASSERT_TRUE(actual.ok) << text << ": " << actual.error;

    EXPECT_EQ(actual.data_bytes, network.stats().bytes_sent - bytes_before)
        << text;
    EXPECT_NEAR(actual.energy_j,
                network.battery_energy_consumed() - energy_before, 1e-9)
        << text;
    EXPECT_DOUBLE_EQ(
        actual.response_s,
        (runtime_.simulator().now() - time_before).to_seconds())
        << text;
    EXPECT_GT(actual.compute_ops, 0.0) << text;
  }
}

TEST_F(TelemetryRuntimeFixture, QueryOutcomeCarriesPerSubsystemBreakdown) {
  const auto outcome =
      runtime_.submit_and_run("SELECT AVG(temp) FROM sensors",
                              partition::SolutionModel::kTreeAggregate);
  ASSERT_TRUE(outcome.ok) << outcome.error;

  EXPECT_NE(outcome.trace, telemetry::kNoTrace);
  // The runtime opened (and closed) a root span for this query.
  const auto runtime_cost = outcome.telemetry[Subsystem::kRuntime];
  EXPECT_EQ(runtime_cost.count, 1u);
  EXPECT_GT(runtime_cost.sim_seconds, 0.0);
  // Radio traffic and sensing rounds attribute to the same trace.
  EXPECT_GT(outcome.telemetry[Subsystem::kWireless].bytes, 0u);
  EXPECT_GT(outcome.telemetry[Subsystem::kSensing].count, 0u);
  // The trace row the ledger keeps is the same object the outcome carries.
  EXPECT_EQ(runtime_.telemetry().trace(outcome.trace).network_bytes(),
            outcome.telemetry.network_bytes());
  // No span leaked.
  EXPECT_EQ(runtime_.telemetry().open_spans(), 0);

  // Two queries get distinct traces; the ledger keeps both rows.
  const auto second =
      runtime_.submit_and_run("SELECT temp FROM sensors WHERE sensor = 3");
  ASSERT_TRUE(second.ok);
  EXPECT_NE(second.trace, outcome.trace);
  EXPECT_GE(runtime_.telemetry().trace_ids().size(), 2u);
}

TEST_F(TelemetryRuntimeFixture, WhatIfClonesDoNotPolluteTheRealLedger) {
  // Prime the real ledger with one real query.
  const auto real =
      runtime_.submit_and_run("SELECT AVG(temp) FROM sensors",
                              partition::SolutionModel::kClusterAggregate);
  ASSERT_TRUE(real.ok);
  const auto snapshot = runtime_.telemetry().totals();
  const auto traces_before = runtime_.telemetry().trace_ids().size();

  const auto trial = runtime_.what_if(
      "SELECT AVG(temp) FROM sensors",
      partition::SolutionModel::kAllToBase);
  ASSERT_TRUE(trial.ok) << trial.error;
  // The trial measured real costs on its clone...
  EXPECT_GT(trial.telemetry.network_bytes(), 0u);

  // ...but the deployment's ledger is bit-for-bit untouched.
  const auto& after = runtime_.telemetry().totals();
  for (std::size_t i = 0; i < telemetry::kSubsystemCount; ++i) {
    const auto s = static_cast<Subsystem>(i);
    EXPECT_EQ(after[s].bytes, snapshot[s].bytes);
    EXPECT_DOUBLE_EQ(after[s].joules, snapshot[s].joules);
    EXPECT_DOUBLE_EQ(after[s].ops, snapshot[s].ops);
    EXPECT_DOUBLE_EQ(after[s].sim_seconds, snapshot[s].sim_seconds);
    EXPECT_EQ(after[s].count, snapshot[s].count);
  }
  EXPECT_EQ(runtime_.telemetry().trace_ids().size(), traces_before);
  EXPECT_EQ(runtime_.telemetry().open_spans(), 0);
}

TEST(TelemetryExportTest, JsonAndCsvRoundTripTheLedgerShape) {
  sim::Simulator sim;
  CostLedger ledger(sim);
  const auto trace = ledger.new_trace();
  ledger.charge(Subsystem::kWireless, trace, bytes_cost(256));

  const std::string json = telemetry::to_json(ledger);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_NE(json.find("\"wireless\""), std::string::npos);
  EXPECT_NE(json.find("\"bytes\":256"), std::string::npos);
  EXPECT_NE(json.find("\"traces\""), std::string::npos);

  const std::string csv = telemetry::to_csv(ledger);
  EXPECT_NE(csv.find("wireless"), std::string::npos);
  EXPECT_NE(csv.find("256"), std::string::npos);
}

}  // namespace
}  // namespace pgrid
