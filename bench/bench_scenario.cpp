// Three experiments share this binary:
//
//   default    EXP-F1 — Figure 1, the general scenario, as a running system.
//              A handheld installs queries at the base station; data streams
//              from the sensor network; results flow back; the grid does the
//              heavy lifting when chosen.
//
//   --city     EXP-N2 — the flow-level fast path at city scale.  Three
//              stages, every gate enforced in the exit code:
//                1. calibration: packet oracle vs flow tier on identical
//                   seeded deployments at N <= 1600 — battery energy within
//                   +/-10%, delivery success within 2 points, TAG epoch
//                   latency within +/-15%;
//                2. kill switch: flow disabled vs installed-but-all-packet
//                   fidelity, bit-identical query outcomes and NetworkStats;
//                3. city: a ShardedDeployment of dozens of base-station
//                   regions (>= 100k sensors total; --quick shrinks it to CI
//                   size) running local + cross-region queries and bulk
//                   backhaul flows end to end in flow mode — the scenario
//                   the per-hop packet tier cannot reach.
//              A hop-path series records the host cost of one hop on one
//              1600-sensor region: analytic tree rounds per second and
//              packet transmit()s per second (recorded; gated only on the
//              simulated counts).
//
//   --load     EXP-Q1 — multi-query sharing under sustained load.  An
//              overlap sweep submits G canonical groups x F subscribers on
//              identical seeds with and without the sharing layer, then
//              gates on: >=3x sustained qps at <=1% deadline-miss at full
//              overlap, strictly fewer radio transmissions shared than
//              unshared, and bit-identical fingerprints with the sharing
//              layer enabled but untriggered (the kill-switch contract).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/sharded.hpp"

namespace {

using namespace pgrid;

// --- EXP-N2 stage 1: calibration -------------------------------------------

/// Tolerance band (documented in EXPERIMENTS.md / README): the flow tier
/// charges expectation values where the packet tier charges realizations,
/// so totals converge as rounds accumulate but never match bit for bit.
constexpr double kEnergyTolerance = 0.10;   ///< relative, battery joules
constexpr double kSuccessTolerance = 0.02;  ///< absolute, delivery fraction
constexpr double kLatencyTolerance = 0.15;  ///< relative, tree epoch elapsed

struct CalibResult {
  double energy_j = 0.0;   ///< battery joules over all rounds
  double success = 1.0;    ///< delivered reports / expected
  double tree_s = 0.0;     ///< mean TAG epoch elapsed
  std::uint64_t flows = 0;
  std::uint64_t tree_epochs = 0;
};

CalibResult run_collection_rounds(std::size_t n, bool flow_mode,
                                  std::size_t rounds,
                                  double congestion_alpha = 0.0) {
  auto config = bench::standard_config(n);
  config.flow.enabled = flow_mode;
  config.flow.congestion_alpha = congestion_alpha;
  core::PervasiveGridRuntime runtime(config);
  CalibResult out;
  std::uint64_t reports = 0;
  std::uint64_t expected = 0;
  double tree_elapsed = 0.0;
  for (std::size_t i = 0; i < rounds; ++i) {
    sensornet::CollectionResult tree_round;
    runtime.sensors().collect_tree_aggregate(
        runtime.field(),
        [&](sensornet::CollectionResult r) { tree_round = std::move(r); });
    runtime.simulator().run();
    out.energy_j += tree_round.energy_j;
    tree_elapsed += tree_round.elapsed_s;
    reports += tree_round.reports;
    expected += tree_round.expected;

    sensornet::CollectionResult raw_round;
    runtime.sensors().collect_all_to_base(
        runtime.field(),
        [&](sensornet::CollectionResult r) { raw_round = std::move(r); });
    runtime.simulator().run();
    out.energy_j += raw_round.energy_j;
    reports += raw_round.reports;
    expected += raw_round.expected;
  }
  out.success = expected == 0
                    ? 1.0
                    : static_cast<double>(reports) / static_cast<double>(expected);
  out.tree_s = tree_elapsed / static_cast<double>(rounds);
  if (auto* flow = runtime.flow_model()) {
    out.flows = flow->stats().flows;
    out.tree_epochs = flow->stats().tree_epochs;
  }
  return out;
}

bool within_rel(double oracle, double measured, double tol) {
  if (oracle == 0.0) return measured == 0.0;
  return std::abs(measured - oracle) <= tol * std::abs(oracle);
}

// --- EXP-N2 stage 2: kill-switch bit-identity ------------------------------

/// Everything a query run leaves behind that the flow tier could possibly
/// perturb: the answer, both cost axes, and the network's raw counters.
struct QueryFingerprint {
  double value = 0.0;
  double energy_j = 0.0;
  double response_s = 0.0;
  double handheld_s = 0.0;
  net::NetworkStats net;

  bool operator==(const QueryFingerprint& o) const {
    return value == o.value && energy_j == o.energy_j &&
           response_s == o.response_s && handheld_s == o.handheld_s &&
           net.transmissions == o.net.transmissions &&
           net.delivered == o.net.delivered && net.dropped == o.net.dropped &&
           net.bytes_sent == o.net.bytes_sent &&
           net.energy_j == o.net.energy_j &&
           net.cross_region_frames == o.net.cross_region_frames;
  }
};

std::vector<QueryFingerprint> run_query_suite(core::RuntimeConfig config) {
  static const char* kQueries[] = {
      "SELECT temp FROM sensors WHERE sensor = 10",
      "SELECT AVG(temp) FROM sensors",
      "SELECT temp FROM sensors WHERE sensor = 10 EPOCH DURATION 10",
  };
  core::PervasiveGridRuntime runtime(std::move(config));
  bench::ignite_standard_fire(runtime);
  std::vector<QueryFingerprint> prints;
  for (const char* text : kQueries) {
    runtime.reset_energy();
    const auto outcome = runtime.submit_and_run(text);
    QueryFingerprint p;
    p.value = outcome.actual.value;
    p.energy_j = outcome.actual.energy_j;
    p.response_s = outcome.actual.response_s;
    p.handheld_s = outcome.handheld_response_s;
    p.net = runtime.network().stats();
    prints.push_back(p);
  }
  return prints;
}

// --- EXP-N2 hop-path host cost ---------------------------------------------

struct HopPathResult {
  std::size_t tree_sensors = 0;  ///< sensors in the sink tree
  std::size_t tree_edges = 0;
  std::size_t rounds = 0;
  std::uint64_t tree_epochs = 0;
  std::uint64_t analytic_hops = 0;
  double rounds_per_s = 0.0;
  std::uint64_t transmits = 0;
  std::uint64_t transmissions = 0;  ///< link-layer attempts they made
  double transmits_per_s = 0.0;
};

/// Host cost of the per-hop path both tiers share (link resolution, the
/// closed forms, a round's bookkeeping): `rounds` analytic TAG rounds on a
/// flow-tier region, then `passes` packet transmit()s over every sink-tree
/// edge of the same deployment on the packet tier.
HopPathResult run_hop_path(std::size_t sensors, std::size_t rounds,
                           std::size_t passes) {
  using Clock = std::chrono::steady_clock;
  HopPathResult out;
  out.rounds = rounds;
  {
    auto config = bench::standard_config(sensors);
    config.flow.enabled = true;
    core::PervasiveGridRuntime runtime(config);
    const net::SinkTree& tree = runtime.sensors().tree();
    out.tree_edges = tree.bfs_order().size() - 1;
    for (net::NodeId id : runtime.sensors().sensors()) {
      if (tree.contains(id)) ++out.tree_sensors;
    }
    const net::FlowStats before = runtime.flow_model()->stats();
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < rounds; ++i) {
      runtime.sensors().collect_tree_aggregate(
          runtime.field(), [](sensornet::CollectionResult) {});
      runtime.simulator().run();
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    const net::FlowStats& after = runtime.flow_model()->stats();
    out.tree_epochs = after.tree_epochs - before.tree_epochs;
    out.analytic_hops = after.analytic_hops - before.analytic_hops;
    out.rounds_per_s = s > 0.0 ? static_cast<double>(rounds) / s : 0.0;
  }
  {
    core::PervasiveGridRuntime runtime(bench::standard_config(sensors));
    net::Network& network = runtime.network();
    const net::SinkTree& tree = runtime.sensors().tree();
    std::vector<std::pair<net::NodeId, net::NodeId>> edges;
    for (net::NodeId id : tree.bfs_order()) {
      if (id != tree.sink()) edges.emplace_back(id, tree.parent(id));
    }
    const std::uint64_t attempts_before = network.stats().transmissions;
    const auto t0 = Clock::now();
    for (std::size_t pass = 0; pass < passes; ++pass) {
      for (const auto& [from, to] : edges) {
        network.transmit(from, to, 24, [](bool) {});
      }
      runtime.simulator().run();
    }
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    out.transmits = passes * edges.size();
    out.transmissions = network.stats().transmissions - attempts_before;
    out.transmits_per_s =
        s > 0.0 ? static_cast<double>(out.transmits) / s : 0.0;
  }
  return out;
}

// --- EXP-N2 stage 3: the city ----------------------------------------------

struct CityResult {
  std::size_t regions = 0;
  std::size_t sensors_total = 0;
  std::size_t queries = 0;
  std::size_t queries_ok = 0;
  std::uint64_t cross_region_frames = 0;
  std::uint64_t flows = 0;
  std::uint64_t analytic_hops = 0;
  std::uint64_t tree_epochs = 0;
  std::uint64_t packet_fallbacks = 0;
  double sim_elapsed_s = 0.0;
  double build_ms = 0.0;
  double run_ms = 0.0;
};

CityResult run_city(std::size_t regions, std::size_t sensors_per_region) {
  const auto t0 = std::chrono::steady_clock::now();
  core::ShardedDeploymentConfig cfg;
  cfg.base = bench::standard_config(sensors_per_region);
  cfg.base.flow.enabled = true;
  cfg.regions = regions;
  // Regions must not overlap in the air: footprint + both radio ranges.
  cfg.region_spacing_m =
      cfg.base.sensors.width_m + 2.0 * cfg.base.sensors.radio.range_m + 50.0;
  core::ShardedDeployment city(cfg);
  const auto t1 = std::chrono::steady_clock::now();

  CityResult out;
  out.regions = regions;
  out.sensors_total = regions * sensors_per_region;
  const std::string query = "SELECT AVG(temp) FROM sensors";
  std::size_t queries_ok = 0;
  auto accept = [&queries_ok](core::QueryOutcome outcome) {
    if (outcome.ok) ++queries_ok;
  };
  // Local traffic: every base station answers its own aggregate query...
  for (std::size_t r = 0; r < regions; ++r) {
    city.submit(r, sim::SimTime::seconds(1.0 + 0.01 * static_cast<double>(r)),
                query, accept);
    ++out.queries;
  }
  // ...then forwards one to its ring neighbour over the wired backhaul (a
  // counted cross-region flow), followed by a bulk result transfer back.
  for (std::size_t r = 0; r < regions; ++r) {
    city.submit_remote(r, (r + 1) % regions,
                       sim::SimTime::seconds(5.0 + 0.01 * static_cast<double>(r)),
                       query, accept);
    ++out.queries;
  }
  std::size_t transfers_done = 0;
  for (std::size_t r = 0; r < regions; ++r) {
    city.transfer_remote(r, (r + 1) % regions, sim::SimTime::seconds(9.0),
                         1 << 20, [&transfers_done](bool ok) {
                           if (ok) ++transfers_done;
                         });
  }
  city.run();
  const auto t2 = std::chrono::steady_clock::now();

  for (std::size_t r = 0; r < regions; ++r) {
    const auto& stats = city.region(r).network().stats();
    out.cross_region_frames += stats.cross_region_frames;
    if (auto* flow = city.region(r).flow_model()) {
      out.flows += flow->stats().flows;
      out.analytic_hops += flow->stats().analytic_hops;
      out.tree_epochs += flow->stats().tree_epochs;
      out.packet_fallbacks += flow->stats().packet_fallbacks;
    }
    out.sim_elapsed_s = std::max(
        out.sim_elapsed_s, city.region(r).simulator().now().to_seconds());
  }
  out.queries_ok = std::min(queries_ok, out.queries);
  if (transfers_done != regions) out.queries_ok = 0;  // transfer gate folded in
  out.build_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.run_ms = std::chrono::duration<double, std::milli>(t2 - t1).count();
  return out;
}

int run_city_experiment(bench::Experiment& experiment, bool quick) {
  bool ok = true;

  // Stage 1: calibration sweep, packet oracle vs flow tier.
  const std::vector<std::size_t> sweep =
      quick ? std::vector<std::size_t>{100, 400}
            : std::vector<std::size_t>{100, 400, 1600};
  const std::size_t rounds = 5;
  common::Table calib({"n", "energy pkt (J)", "energy flow (J)",
                       "success pkt", "success flow", "tree pkt (s)",
                       "tree flow (s)", "flows", "gate"});
  for (std::size_t n : sweep) {
    const CalibResult packet = run_collection_rounds(n, false, rounds);
    const CalibResult flow = run_collection_rounds(n, true, rounds);
    const bool pass =
        within_rel(packet.energy_j, flow.energy_j, kEnergyTolerance) &&
        std::abs(packet.success - flow.success) <= kSuccessTolerance &&
        within_rel(packet.tree_s, flow.tree_s, kLatencyTolerance) &&
        flow.flows > 0 && flow.tree_epochs == rounds;
    ok = ok && pass;
    calib.add_row({std::to_string(n),
                   common::Table::num(packet.energy_j, 6),
                   common::Table::num(flow.energy_j, 6),
                   common::Table::num(packet.success, 4),
                   common::Table::num(flow.success, 4),
                   common::Table::num(packet.tree_s, 4),
                   common::Table::num(flow.tree_s, 4),
                   std::to_string(flow.flows), pass ? "PASS" : "FAIL"});
  }
  experiment.series("calibration", calib);

  // Stage 1b: congestion sensitivity.  Positive congestion_alpha makes the
  // analytic service time grow with concurrent flows on a link; the sweep
  // records how collection energy and TAG latency respond so the knob's
  // effect is tracked across PRs (recorded, not gated: the model is a
  // first-order penalty, not a calibrated target).
  const std::size_t alpha_n = quick ? 100 : 400;
  common::Table congestion({"n", "alpha", "energy (J)", "success",
                            "tree (s)", "flows"});
  for (double alpha : {0.0, 0.05, 0.1, 0.2}) {
    const CalibResult r = run_collection_rounds(alpha_n, true, rounds, alpha);
    congestion.add_row({std::to_string(alpha_n),
                        common::Table::num(alpha, 2),
                        common::Table::num(r.energy_j, 6),
                        common::Table::num(r.success, 4),
                        common::Table::num(r.tree_s, 4),
                        std::to_string(r.flows)});
  }
  experiment.series("congestion_alpha", congestion);

  // Stage 2: kill switch.  Disabled vs installed-with-all-packet-fidelity
  // must leave bit-identical fingerprints — the all-packet model draws no
  // randomness and every path falls through to the packet tier.
  auto disabled_config = bench::standard_config(100);
  auto all_packet_config = bench::standard_config(100);
  all_packet_config.flow.enabled = true;
  all_packet_config.flow.default_fidelity = net::Fidelity::kPacket;
  const auto disabled = run_query_suite(disabled_config);
  const auto all_packet = run_query_suite(all_packet_config);
  common::Table kill({"query", "energy off (J)", "energy all-pkt (J)",
                      "identical"});
  for (std::size_t i = 0; i < disabled.size(); ++i) {
    const bool same = disabled[i] == all_packet[i];
    ok = ok && same;
    kill.add_row({std::to_string(i),
                  common::Table::num(disabled[i].energy_j, 9),
                  common::Table::num(all_packet[i].energy_j, 9),
                  same ? "YES" : "NO"});
  }
  experiment.series("kill_switch", kill);

  // Hop-path host cost on one 1600-sensor region.  Host rates are
  // recorded for the trajectory; the gate checks only simulated counts:
  // every round is one analytic epoch with one hop per sensor in the tree
  // (each holds at least its own sample), and every transmit made at least
  // one link-layer attempt.
  const HopPathResult hop = run_hop_path(1600, quick ? 100 : 1000,
                                         quick ? 20 : 200);
  const bool hop_pass =
      hop.tree_sensors > 0 && hop.tree_epochs == hop.rounds &&
      hop.analytic_hops == hop.rounds * hop.tree_sensors &&
      hop.transmissions >= hop.transmits;
  ok = ok && hop_pass;
  common::Table hop_table({"sensors", "tree sensors", "tree edges",
                           "tree rounds",
                           "analytic hops", "tree rounds/s (host)",
                           "transmits", "attempts", "transmits/s (host)",
                           "gate"});
  hop_table.add_row({"1600", std::to_string(hop.tree_sensors),
                     std::to_string(hop.tree_edges),
                     std::to_string(hop.rounds),
                     std::to_string(hop.analytic_hops),
                     common::Table::num(hop.rounds_per_s, 1),
                     std::to_string(hop.transmits),
                     std::to_string(hop.transmissions),
                     common::Table::num(hop.transmits_per_s, 0),
                     hop_pass ? "PASS" : "FAIL"});
  experiment.series("hop_path", hop_table);

  // Stage 3: the city itself.
  const std::size_t regions = quick ? 4 : 36;
  const std::size_t per_region = quick ? 100 : 2916;  // 36 * 2916 = 104,976
  const CityResult city = run_city(regions, per_region);
  const bool city_pass = city.queries_ok == city.queries &&
                         city.cross_region_frames >=
                             static_cast<std::uint64_t>(2 * regions) &&
                         city.flows > 0 && city.tree_epochs > 0 &&
                         (quick || city.sensors_total >= 100000);
  ok = ok && city_pass;
  common::Table table({"regions", "sensors", "queries", "ok",
                       "x-region frames", "flows", "analytic hops",
                       "tree epochs", "fallbacks", "sim (s)", "build (ms)",
                       "run (ms)", "gate"});
  table.add_row({std::to_string(city.regions),
                 std::to_string(city.sensors_total),
                 std::to_string(city.queries),
                 std::to_string(city.queries_ok),
                 std::to_string(city.cross_region_frames),
                 std::to_string(city.flows),
                 std::to_string(city.analytic_hops),
                 std::to_string(city.tree_epochs),
                 std::to_string(city.packet_fallbacks),
                 common::Table::num(city.sim_elapsed_s, 3),
                 common::Table::num(city.build_ms, 1),
                 common::Table::num(city.run_ms, 1),
                 city_pass ? "PASS" : "FAIL"});
  experiment.series("city", table);

  experiment.note(ok ? "EXP-N2 gates: all PASS."
                     : "EXP-N2 gates: FAILURE (see tables).");
  return ok ? 0 : 1;
}

// --- EXP-Q1: multi-query sharing under sustained load ------------------------

/// The load stage stresses the one resource this simulator genuinely
/// contends on: sensor battery.  Every unshared continuous aggregate runs
/// its own TAG collection, so offered load drains the field linearly in
/// the overlap factor; the sharing layer runs one collection per canonical
/// group no matter how many subscribers ride it.  The battery is sized so
/// the relay sensors (which forward the whole tree) survive the shared
/// sweep at full overlap but die partway through the unshared one.
constexpr double kLoadBatteryJ = 0.02;
constexpr std::size_t kLoadSensors = 49;
constexpr std::size_t kLoadGroups = 4;       ///< distinct canonical keys
constexpr std::size_t kLoadEpochs = 4;       ///< rounds per standing query
constexpr double kLoadWindowS = 8.0;         ///< arrival window per level
/// A query misses its deadline when it is shed, fails outright, answers
/// late, or answers from under 80% of the field (two of four epochs lost,
/// or worse — a stale or hollow answer, not a usable one).
constexpr double kLoadCoverageFloor = 0.8;

struct LoadLevel {
  std::size_t overlap = 0;
  std::size_t queries = 0;
  std::size_t missed = 0;
  double miss_rate = 0.0;
  double offered_qps = 0.0;
  bool sustained = false;  ///< miss rate within the 1% budget
  std::uint64_t transmissions = 0;
  std::uint64_t collections = 0;  ///< shared-tree rounds run
  std::uint64_t fanouts = 0;      ///< per-subscriber epoch deliveries
  double battery_j = 0.0;         ///< field energy consumed
};

LoadLevel run_load_level(bool sharing, std::size_t overlap,
                         std::uint64_t seed) {
  auto config = bench::standard_config(kLoadSensors, seed);
  config.continuous_epochs = kLoadEpochs;
  config.reliability.enabled = true;
  config.sensors.battery_j = kLoadBatteryJ;
  config.sharing.enabled = sharing;
  // Generous admission bounds: this stage measures the physical sharing
  // advantage, so the controller must never be the binding constraint.
  config.sharing.max_active = 64;
  config.sharing.max_queue = 256;
  core::PervasiveGridRuntime runtime(config);
  auto& sim = runtime.simulator();

  LoadLevel out;
  out.overlap = overlap;
  out.queries = kLoadGroups * overlap;
  out.offered_qps = static_cast<double>(out.queries) / kLoadWindowS;

  static const char* kFns[] = {"AVG", "MAX", "MIN", "SUM", "COUNT"};
  std::size_t arrival = 0;
  for (std::size_t f = 0; f < overlap; ++f) {
    for (std::size_t g = 0; g < kLoadGroups; ++g) {
      const int epoch_s = 2 + static_cast<int>(g % 2);
      // Per-query deadline: the epochs themselves, one extra epoch a late
      // joiner may wait for its group's next round, and delivery slack.
      const double deadline_s =
          static_cast<double>((kLoadEpochs + 1) * epoch_s) + 3.0;
      const std::string text =
          std::string("SELECT ") + kFns[f % 5] + "(temp) FROM sensors" +
          (g < 2 ? "" : " WHERE temp > 0") + " COST TIME " +
          std::to_string(static_cast<int>(deadline_s)) +
          " EPOCH DURATION " + std::to_string(epoch_s);
      const double at_s = 1.0 + kLoadWindowS *
                                    static_cast<double>(arrival++) /
                                    static_cast<double>(out.queries);
      sim.schedule(sim::SimTime::seconds(at_s),
                   [&runtime, &out, text, deadline_s] {
                     const sim::SimTime sent = runtime.simulator().now();
                     runtime.submit(
                         text, [&runtime, &out, sent,
                                deadline_s](core::QueryOutcome o) {
                           const double took =
                               (runtime.simulator().now() - sent).to_seconds();
                           if (o.shed || !o.ok ||
                               o.coverage < kLoadCoverageFloor ||
                               took > deadline_s) {
                             ++out.missed;
                           }
                         });
                   });
    }
  }
  sim.run();

  out.miss_rate = static_cast<double>(out.missed) /
                  static_cast<double>(out.queries);
  out.sustained = out.miss_rate <= 0.01;
  out.transmissions = runtime.network().stats().transmissions;
  out.battery_j = runtime.network().battery_energy_consumed();
  if (auto* share = runtime.sharing()) {
    out.collections = share->registry().stats().collections;
    out.fanouts = share->registry().stats().fanouts;
  }
  return out;
}

int run_load_experiment(bench::Experiment& experiment, bool quick) {
  bool ok = true;

  // Stage 1: the overlap sweep.  Identical seeds per level; only the
  // sharing flag differs between the two runs of a level.
  const std::vector<std::size_t> levels =
      quick ? std::vector<std::size_t>{1, 8}
            : std::vector<std::size_t>{1, 2, 4, 8};
  common::Table table({"overlap", "mode", "queries", "missed", "miss rate",
                       "offered qps", "sustained", "transmissions",
                       "collections", "fanouts", "battery (J)"});
  double sustained_shared = 0.0;
  double sustained_unshared = 0.0;
  LoadLevel top_shared, top_unshared;
  for (std::size_t overlap : levels) {
    const std::uint64_t seed = 42 + overlap;
    const LoadLevel unshared = run_load_level(false, overlap, seed);
    const LoadLevel shared = run_load_level(true, overlap, seed);
    if (unshared.sustained) {
      sustained_unshared = std::max(sustained_unshared, unshared.offered_qps);
    }
    if (shared.sustained) {
      sustained_shared = std::max(sustained_shared, shared.offered_qps);
    }
    if (overlap == levels.back()) {
      top_shared = shared;
      top_unshared = unshared;
    }
    for (const LoadLevel* level : {&unshared, &shared}) {
      table.add_row({std::to_string(level->overlap),
                     level == &shared ? "shared" : "unshared",
                     std::to_string(level->queries),
                     std::to_string(level->missed),
                     common::Table::num(level->miss_rate, 3),
                     common::Table::num(level->offered_qps, 2),
                     level->sustained ? "YES" : "no",
                     std::to_string(level->transmissions),
                     std::to_string(level->collections),
                     std::to_string(level->fanouts),
                     common::Table::num(level->battery_j, 4)});
    }
  }
  experiment.series("sustained_load", table);

  // Gates: the shared build must hold the full-overlap level inside the 1%
  // miss budget and sustain >= 3x the unshared throughput; the baseline
  // must be viable at trivial load (or the comparison is vacuous); and the
  // sharing advantage must be physical — fewer radio transmissions at
  // identical offered load, with more epoch deliveries than collections.
  const bool qps_gate = top_shared.sustained &&
                        sustained_unshared > 0.0 &&
                        sustained_shared >= 3.0 * sustained_unshared;
  const bool tx_gate = top_shared.transmissions < top_unshared.transmissions &&
                       top_shared.fanouts > top_shared.collections;
  ok = ok && qps_gate && tx_gate;

  common::Table gates({"gate", "measured", "required", "verdict"});
  gates.add_row({"sustained qps ratio",
                 common::Table::num(sustained_unshared > 0.0
                                        ? sustained_shared / sustained_unshared
                                        : 0.0,
                                    2),
                 ">= 3.0", qps_gate ? "PASS" : "FAIL"});
  gates.add_row({"transmissions at full overlap",
                 std::to_string(top_shared.transmissions) + " vs " +
                     std::to_string(top_unshared.transmissions),
                 "shared < unshared", tx_gate ? "PASS" : "FAIL"});

  // Stage 2: kill switch.  Sharing enabled but untriggered (the standard
  // suite holds no shareable query) must leave fingerprints bit-identical
  // to the disabled build — admission passthrough and canonicalization add
  // no observable work.
  auto off_config = bench::standard_config(100);
  auto on_config = bench::standard_config(100);
  on_config.sharing.enabled = true;
  const auto off_prints = run_query_suite(off_config);
  const auto on_prints = run_query_suite(on_config);
  bool identical = off_prints.size() == on_prints.size();
  for (std::size_t i = 0; identical && i < off_prints.size(); ++i) {
    identical = off_prints[i] == on_prints[i];
  }
  ok = ok && identical;
  gates.add_row({"kill switch fingerprints",
                 identical ? "bit-identical" : "DIVERGED", "bit-identical",
                 identical ? "PASS" : "FAIL"});
  experiment.series("gates", gates);

  experiment.note(ok ? "EXP-Q1 gates: all PASS."
                     : "EXP-Q1 gates: FAILURE (see tables).");
  return ok ? 0 : 1;
}

// --- EXP-F1 (the original scenario table) -----------------------------------

int run_figure1(bench::Experiment& experiment) {
  core::PervasiveGridRuntime runtime(bench::standard_config(100));
  bench::ignite_standard_fire(runtime);

  const char* queries[] = {
      "SELECT temp FROM sensors WHERE sensor = 10",
      "SELECT AVG(temp) FROM sensors",
      "SELECT TEMP_DISTRIBUTION(temp) FROM sensors",
      "SELECT temp FROM sensors WHERE sensor = 10 EPOCH DURATION 10",
  };

  common::Table table({"query class", "model", "answer",
                       "energy est (J)", "energy act (J)",
                       "time est (s)", "time act (s)", "handheld (s)"});
  for (const char* text : queries) {
    // Reset before (not after) each run so the final query's ledger
    // charges survive for attach_ledger below.
    runtime.reset_energy();
    const auto outcome = runtime.submit_and_run(text);
    if (!outcome.ok) {
      std::cerr << "FAILED: " << text << " -> " << outcome.error << '\n';
      return 1;
    }
    table.add_row({query::to_string(outcome.classification.primary),
                   to_string(outcome.model),
                   common::Table::num(outcome.actual.value, 1),
                   common::Table::num(outcome.estimate.energy_j, 6),
                   common::Table::num(outcome.actual.energy_j, 6),
                   common::Table::num(outcome.estimate.response_s, 3),
                   common::Table::num(outcome.actual.response_s, 3),
                   common::Table::num(outcome.handheld_response_s, 3)});
  }
  experiment.series("scenario", table);
  experiment.attach_ledger(runtime.telemetry());
  experiment.note("Shape check: simple << aggregate << complex in energy; "
                  "the continuous row reports per-epoch means.");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool city = false;
  bool load = false;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--city") == 0) city = true;
    if (std::strcmp(argv[i], "--load") == 0) load = true;
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  if (load) {
    bench::Experiment experiment(
        argc, argv, "EXP-Q1: multi-query sharing under sustained load",
        "shared TAG trees sustain >=3x the unshared query rate at <=1% "
        "deadline-miss under overlapping standing aggregates; kill switch "
        "bit-identical; fewer radio transmissions at identical offered "
        "load");
    return run_load_experiment(experiment, quick);
  }
  if (city) {
    bench::Experiment experiment(
        argc, argv, "EXP-N2: flow-level fast path at city scale",
        "analytic flow tier within tolerance of the packet oracle at "
        "N<=1600; kill switch bit-identical; >=100k sensors across dozens "
        "of regions end to end in flow mode");
    return run_city_experiment(experiment, quick);
  }
  bench::Experiment experiment(
      argc, argv, "EXP-F1: general scenario (Figure 1)",
      "handheld query -> base station -> sensor network + grid -> results");
  return run_figure1(experiment);
}
