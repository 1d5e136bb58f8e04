// EXP-P7 — routing technique matters: flooding vs gossiping vs tree routes.
// EXP-N1 — topology/routing scaling: the acceleration layer (spatial
//          neighbour index, versioned adjacency snapshot, LRU route cache,
//          per-destination hop tables) vs the naive O(N) scan /
//          fresh-Dijkstra path, N ∈ {100, 400, 1600, 6400}, plus a
//          many-to-one series (every node to the base, cold search vs hop
//          table) and one runtime built with and without per-sensor
//          service advertisement at the largest N.
// EXP-N3 — incremental topology epochs under mobility: a few roaming
//          clients perturb one corner of the field every tick while the
//          deployment keeps asking for routes.  Delta CSR patching plus
//          scoped cache invalidation must answer bit-identically to the
//          fresh-full-rebuild oracle and acquire steady-state routes >= 5x
//          faster than a global-flush baseline that forces a global epoch
//          (full CSR rebuild + wholesale cache clear) every round, at
//          N=1600 (>= 2x at the --quick smoke size) — both gated in the
//          exit code.  A walker sweep (3/16/64 walkers roaming the whole
//          floor) reports rows patched per move, and two cap series time a
//          scoped epoch against a full rebuild as its dirty set grows
//          (forced k rows) and as a growing share of the deployment
//          teleports in one epoch: the measurements behind the
//          Network::kPatchCapDivisor and kAccumulationCapFactor caps.
//
// "The data routing technique used in the network would not be the same for
// all networks. A particular network may use flooding technique to route
// data, while another may use gossiping."  EXP-P7 disseminates a query
// packet from the base station under each technique and reports coverage,
// transmissions and energy.  EXP-N1 measures the substrate underneath: how
// fast the runtime can even ask "who are my neighbours?" and "what is the
// route?" as deployments grow — wall-clock, since the subject is the
// machine, not the model.  The bench exits non-zero if the accelerated
// answers ever diverge from the naive oracles.
//
// Modes: --json (machine output), --quick (CI smoke: N ≤ 400, fewer reps).
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/mobility.hpp"
#include "net/routing.hpp"

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool has_flag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == flag) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pgrid;
  const bool quick = has_flag(argc, argv, "--quick");
  bench::Experiment experiment(
      argc, argv,
      "EXP-P7/EXP-N1: dissemination techniques + topology/routing scaling",
      "flooding reaches everyone at maximum cost; gossip trades coverage "
      "for energy; underneath, neighbour and route acquisition must scale "
      "far below the naive O(N)/O(N^2) floor for any of it to run at "
      "production size");

  // -------------------------------------------------------------------
  // EXP-P7: dissemination under flooding / gossip / tree routing.
  common::Table table({"sensors", "technique", "reached", "transmissions",
                       "energy (J)"});
  for (std::size_t n : {49, 100, 225}) {
    for (int technique = 0; technique < 4; ++technique) {
      core::PervasiveGridRuntime runtime(bench::standard_config(n));
      auto& net = runtime.network();
      auto& snet = runtime.sensors();
      const auto base = snet.base_station();
      constexpr std::uint64_t kQueryBytes = 48;

      std::size_t reached = 0;
      std::string name;
      switch (technique) {
        case 0: {
          name = "flooding";
          net.flood(base, kQueryBytes, nullptr,
                    [&](std::size_t r) { reached = r; });
          break;
        }
        case 1: {
          name = "gossip f=2";
          net.gossip(base, kQueryBytes, 2, nullptr,
                     [&](std::size_t r) { reached = r; });
          break;
        }
        case 2: {
          name = "gossip f=3";
          net.gossip(base, kQueryBytes, 3, nullptr,
                     [&](std::size_t r) { reached = r; });
          break;
        }
        case 3: {
          name = "tree routes";
          // One unicast down every tree path (install-query traffic).
          const auto& tree = snet.tree();
          for (auto sensor : snet.sensors()) {
            auto route = tree.route_to_sink(sensor);
            if (route.empty()) continue;
            std::reverse(route.begin(), route.end());
            net.send_route(route, kQueryBytes,
                           [&](bool ok, std::size_t) { reached += ok ? 1 : 0; });
          }
          break;
        }
      }
      runtime.simulator().run();
      table.add_row({common::Table::num(std::uint64_t(n)), name,
                     common::Table::num(std::uint64_t(reached)),
                     common::Table::num(net.stats().transmissions),
                     common::Table::num(net.battery_energy_consumed(), 6)});
    }
  }
  experiment.series("dissemination", table);
  experiment.note("Shape check: flooding reaches the whole connected "
                  "component (sensors + infrastructure) with one "
                  "rebroadcast per node; gossip coverage rises with fanout; "
                  "per-node tree unicast is the most transmission-heavy (no "
                  "broadcast reuse).");

  // -------------------------------------------------------------------
  // EXP-N1: topology/routing scaling sweep.
  common::Table neighbor_table({"nodes", "naive us/query", "indexed us/query",
                                "speedup"});
  common::Table route_table({"nodes", "naive us/route", "cold us/route",
                             "warm us/route", "warm speedup",
                             "cache hit rate"});
  bool oracle_ok = true;

  std::vector<std::size_t> sweep = {100, 400};
  if (!quick) {
    sweep.push_back(1600);
    sweep.push_back(6400);
  }
  for (std::size_t n : sweep) {
    core::PervasiveGridRuntime runtime(bench::standard_config(n));
    auto& net = runtime.network();
    const std::size_t nodes = net.size();

    // --- Neighbour queries: full-deployment sweeps, naive vs indexed.
    // One warm-up + equality pass (also primes the spatial index caches).
    for (net::NodeId id = 0; id < nodes; ++id) {
      if (net.neighbors(id) != net.neighbors_naive(id)) {
        oracle_ok = false;
      }
    }
    const std::size_t naive_reps = quick ? 1 : (n >= 1600 ? 1 : 3);
    const std::size_t indexed_reps = quick ? 3 : 10;
    std::size_t sink = 0;  // defeat dead-code elimination
    auto start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < naive_reps; ++rep) {
      for (net::NodeId id = 0; id < nodes; ++id) {
        sink += net.neighbors_naive(id).size();
      }
    }
    const double naive_us =
        seconds_since(start) * 1e6 / double(naive_reps * nodes);
    start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < indexed_reps; ++rep) {
      for (net::NodeId id = 0; id < nodes; ++id) {
        sink += net.neighbors(id).size();
      }
    }
    const double indexed_us =
        seconds_since(start) * 1e6 / double(indexed_reps * nodes);
    neighbor_table.add_row({common::Table::num(std::uint64_t(nodes)),
                            common::Table::num(naive_us, 3),
                            common::Table::num(indexed_us, 3),
                            common::Table::num(naive_us / indexed_us, 2)});

    // --- Route acquisition: naive fresh Dijkstra vs cold cache (first
    // acquisition after a topology bump: snapshot build + Dijkstra + cache
    // fill, amortized over the burst) vs warm cache (repeat acquisition).
    common::Rng pair_rng(0x70b0ULL + n);
    const std::size_t pair_count = quick ? 8 : 16;
    std::vector<std::pair<net::NodeId, net::NodeId>> route_pairs;
    for (std::size_t i = 0; i < pair_count; ++i) {
      route_pairs.emplace_back(
          static_cast<net::NodeId>(pair_rng.index(nodes)),
          static_cast<net::NodeId>(pair_rng.index(nodes)));
    }
    for (const auto& [src, dst] : route_pairs) {
      if (net::cached_shortest_path(net, src, dst) !=
          net::shortest_path_naive(net, src, dst)) {
        oracle_ok = false;
      }
    }
    const std::size_t naive_pairs =
        std::min<std::size_t>(pair_count, n >= 1600 ? 4 : pair_count);
    start = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < naive_pairs; ++i) {
      sink += net::shortest_path_naive(net, route_pairs[i].first,
                                       route_pairs[i].second)
                  .size();
    }
    const double naive_route_us =
        seconds_since(start) * 1e6 / double(naive_pairs);
    const std::size_t cold_reps = quick ? 2 : (n >= 1600 ? 3 : 8);
    start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < cold_reps; ++rep) {
      net.bump_topology_version();  // invalidate: every acquisition is cold
      for (const auto& [src, dst] : route_pairs) {
        sink += net::cached_shortest_path(net, src, dst).size();
      }
    }
    const double cold_us =
        seconds_since(start) * 1e6 / double(cold_reps * pair_count);
    const auto warm_stats_before = net.route_cache().stats();
    const std::size_t warm_reps = quick ? 20 : 200;
    start = std::chrono::steady_clock::now();
    for (std::size_t rep = 0; rep < warm_reps; ++rep) {
      for (const auto& [src, dst] : route_pairs) {
        sink += net::cached_shortest_path(net, src, dst).size();
      }
    }
    const double warm_us =
        seconds_since(start) * 1e6 / double(warm_reps * pair_count);
    const auto warm_stats = net.route_cache().stats();
    const auto lookups = (warm_stats.hits - warm_stats_before.hits) +
                         (warm_stats.misses - warm_stats_before.misses);
    const double hit_rate =
        lookups == 0 ? 0.0
                     : double(warm_stats.hits - warm_stats_before.hits) /
                           double(lookups);
    route_table.add_row({common::Table::num(std::uint64_t(nodes)),
                         common::Table::num(naive_route_us, 1),
                         common::Table::num(cold_us, 1),
                         common::Table::num(warm_us, 3),
                         common::Table::num(naive_route_us / warm_us, 1),
                         common::Table::num(hit_rate, 3)});
    if (sink == 0) std::cerr << "";  // keep `sink` observable
  }
  experiment.series("neighbor-queries", neighbor_table);
  experiment.series("route-acquisition", route_table);
  experiment.note("EXP-N1 shape check: indexed neighbour cost is flat in N "
                  "(3x3x3 cell block) while the naive scan grows linearly; "
                  "warm-cache route acquisition is a hash lookup + copy "
                  "regardless of N, and even cold acquisition beats naive "
                  "by sharing one CSR snapshot across the burst.");

  // -------------------------------------------------------------------
  // EXP-N1 many-to-one: every node routes to the base station, the shape
  // of sensor -> broker advertisement and sensor -> base collection.
  // "cold" bumps the topology version before each lookup, so every search
  // runs without a hop table (the snapshot rebuild the bump forces is not
  // timed); "hop table" keeps one version, so the base earns its table
  // once searches toward it have explored n nodes
  // (HopTables::kTriggerSweeps) and later searches are goal-directed.
  // Beyond N=1600 the cold series samples every 4th source (each cold
  // lookup pays an untimed snapshot rebuild).  Every sampled hop-table
  // route must equal its cold route, and the cold routes must equal the
  // naive oracle: for every source up to N=400, for 16 sources beyond (a
  // naive search scans all N per expanded node).
  common::Table many_table({"nodes", "cold us/route", "hop-table us/route",
                            "speedup", "hop tables built", "cold sampled",
                            "naive checked"});
  for (std::size_t n : sweep) {
    core::PervasiveGridRuntime runtime(bench::standard_config(n));
    auto& net = runtime.network();
    const net::NodeId base = runtime.sensors().base_station();
    const std::size_t nodes = net.size();
    const std::size_t cold_stride = n > 1600 ? 4 : 1;
    const std::size_t naive_stride = n <= 400 ? 1 : nodes / 16;
    std::vector<std::vector<net::NodeId>> cold_routes(nodes);
    double cold_s = 0.0;
    std::size_t cold_sampled = 0;
    std::size_t naive_checked = 0;
    for (net::NodeId src = 0; src < nodes; src += cold_stride) {
      net.bump_topology_version();
      net.topology_snapshot();  // untimed rebuild
      const auto t0 = std::chrono::steady_clock::now();
      cold_routes[src] = net::shortest_path(net, src, base);
      cold_s += seconds_since(t0);
      ++cold_sampled;
      if (src % naive_stride == 0) {
        ++naive_checked;
        if (cold_routes[src] != net::shortest_path_naive(net, src, base)) {
          oracle_ok = false;
        }
      }
    }
    const std::uint64_t built_before = net.topology_stats().hop_tables_built;
    std::vector<std::vector<net::NodeId>> table_routes(nodes);
    const auto t0 = std::chrono::steady_clock::now();
    for (net::NodeId src = 0; src < nodes; ++src) {
      table_routes[src] = net::shortest_path(net, src, base);
    }
    const double table_s = seconds_since(t0);
    for (net::NodeId src = 0; src < nodes; src += cold_stride) {
      if (table_routes[src] != cold_routes[src]) oracle_ok = false;
    }
    const double cold_us = cold_s * 1e6 / double(cold_sampled);
    const double table_us = table_s * 1e6 / double(nodes);
    many_table.add_row(
        {common::Table::num(std::uint64_t(nodes)),
         common::Table::num(cold_us, 2), common::Table::num(table_us, 2),
         common::Table::num(cold_us / table_us, 1),
         common::Table::num(net.topology_stats().hop_tables_built -
                            built_before),
         common::Table::num(std::uint64_t(cold_sampled)),
         common::Table::num(std::uint64_t(naive_checked))});
  }
  experiment.series("many-to-one-routes", many_table);
  experiment.note("EXP-N1 many-to-one shape check: a cold search toward the "
                  "base explores every node within the route's hop count, "
                  "so its cost grows with N; once the base has its hop table "
                  "a lookup expands only min-hop path nodes, one table per "
                  "run, with routes identical to the cold search.");

  // The advertisement finding: one runtime built with one sensing service
  // advertised per sensor (1 route per sensor to the broker) against the
  // same runtime without, at the sweep's largest size.
  common::Table advertise_table({"nodes", "advertised setup s",
                                 "plain setup s", "hop tables built"});
  {
    const std::size_t n = sweep.back();
    double seconds[2] = {0.0, 0.0};
    std::uint64_t tables = 0;
    for (int on = 1; on >= 0; --on) {
      auto config = bench::standard_config(n);
      config.advertise_sensor_services = on == 1;
      const auto t0 = std::chrono::steady_clock::now();
      core::PervasiveGridRuntime runtime(config);
      seconds[on] = seconds_since(t0);
      if (on == 1) tables = runtime.network().topology_stats().hop_tables_built;
    }
    advertise_table.add_row({common::Table::num(std::uint64_t(n)),
                             common::Table::num(seconds[1], 3),
                             common::Table::num(seconds[0], 4),
                             common::Table::num(tables)});
  }
  experiment.series("advertised-setup", advertise_table);

  // -------------------------------------------------------------------
  // EXP-N3: incremental topology epochs under mobility.
  struct MobilityResult {
    double us_per_route = 0.0;
    double hit_rate = 0.0;
    double survival = 0.0;
    std::uint64_t scoped_epochs = 0;
    std::uint64_t global_epochs = 0;
    std::uint64_t rows_patched = 0;
    std::uint64_t moves = 0;
    bool oracle_ok = true;
    double rows_per_move() const {
      return moves == 0 ? 0.0 : double(rows_patched) / double(moves);
    }
  };
  std::size_t n3_sink = 0;
  // `walker_count` sensors walk; `whole_field` false keeps the first few in
  // one corner patch, true spreads them over the floor and lets each roam
  // all of it (the mobile-failover shape).
  auto run_mobility_mode = [&](std::size_t n, std::size_t walker_count,
                               bool whole_field, bool global_flush,
                               bool check_oracle) {
    MobilityResult out;
    core::PervasiveGridRuntime runtime(bench::standard_config(n));
    auto& net = runtime.network();
    auto& sim = runtime.simulator();
    const auto sensors = runtime.sensors().sensors();
    // The paper's mobile clients: walkers roaming among stationary sensors,
    // not the whole field teleporting at once.  Everything else stands
    // still, so most cached routes have no business dying.
    walker_count = std::min(walker_count, sensors.size());
    std::vector<net::NodeId> walkers;
    for (std::size_t i = 0; i < walker_count; ++i) {
      walkers.push_back(
          sensors[whole_field ? i * sensors.size() / walker_count : i]);
    }
    net::WaypointConfig wconfig;
    wconfig.width_m =
        runtime.config().sensors.width_m * (whole_field ? 1.0 : 0.15);
    wconfig.height_m = wconfig.width_m;
    wconfig.min_speed_m_s = 1.0;
    wconfig.max_speed_m_s = 2.0;
    wconfig.min_pause = sim::SimTime::seconds(0.1);
    wconfig.max_pause = sim::SimTime::seconds(0.2);
    net::WaypointMobility mobility(net, walkers, wconfig,
                                   common::Rng(0xA3ULL + n));
    mobility.start();

    common::Rng pair_rng(0x0e93ULL + n);
    const std::size_t pair_count = quick ? 16 : 32;
    std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
    for (std::size_t i = 0; i < pair_count; ++i) {
      pairs.emplace_back(static_cast<net::NodeId>(pair_rng.index(net.size())),
                         static_cast<net::NodeId>(pair_rng.index(net.size())));
    }
    for (const auto& [src, dst] : pairs) {
      n3_sink += net::cached_shortest_path(net, src, dst).size();  // warm up
    }

    const auto cache0 = net.route_cache().stats();
    const std::size_t rounds = quick ? 8 : 16;
    double elapsed = 0.0;
    for (std::size_t r = 0; r < rounds; ++r) {
      // Untimed: let the walkers take their next step (topology changes).
      sim.run_until(sim.now() + sim::SimTime::seconds(1.0));
      // The baseline widens the round's moves to one global epoch: the
      // timed lookups then pay the full rebuild and recompute every route.
      if (global_flush) net.bump_topology_version();
      // Timed: steady-state route acquisition over the perturbed topology.
      const auto t0 = std::chrono::steady_clock::now();
      for (const auto& [src, dst] : pairs) {
        n3_sink += net::cached_shortest_path(net, src, dst).size();
      }
      elapsed += seconds_since(t0);
    }
    out.us_per_route = elapsed * 1e6 / double(rounds * pair_count);
    const auto cache1 = net.route_cache().stats();
    const auto lookups = (cache1.hits - cache0.hits) +
                         (cache1.misses - cache0.misses);
    out.hit_rate = lookups == 0
                       ? 0.0
                       : double(cache1.hits - cache0.hits) / double(lookups);
    const auto judged = (cache1.routes_kept - cache0.routes_kept) +
                        (cache1.routes_dropped - cache0.routes_dropped);
    out.survival = judged == 0 ? 0.0
                               : double(cache1.routes_kept -
                                        cache0.routes_kept) /
                                     double(judged);
    const auto tstats = net.topology_stats();
    out.scoped_epochs = tstats.scoped_epochs;
    out.global_epochs = tstats.global_epochs;
    out.rows_patched = tstats.rows_patched;
    out.moves = mobility.moves();

    if (check_oracle) {
      // Bit-identity against fresh oracles, then again after a liveness
      // flip and after a deliberate global bump — every epoch class the
      // patching must absorb.
      auto probe = [&] {
        const auto& snapshot = net.topology_snapshot();
        for (net::NodeId id = 0; id < net.size(); ++id) {
          const auto naive = net.neighbors_naive(id);
          const auto row = snapshot.row(id);
          if (!std::equal(row.begin(), row.end(), naive.begin(),
                          naive.end())) {
            out.oracle_ok = false;
          }
          const auto dist = snapshot.row_distance(id);
          for (std::size_t k = 0; k < naive.size(); ++k) {
            if (dist[k] !=
                net::distance(net.node(id).pos, net.node(naive[k]).pos)) {
              out.oracle_ok = false;
            }
          }
        }
        const std::size_t samples = n >= 6400 ? 4 : 8;
        for (std::size_t i = 0; i < samples && i < pairs.size(); ++i) {
          if (net::cached_shortest_path(net, pairs[i].first,
                                        pairs[i].second) !=
              net::shortest_path_naive(net, pairs[i].first,
                                       pairs[i].second)) {
            out.oracle_ok = false;
          }
        }
      };
      probe();
      const net::NodeId flipped = sensors[sensors.size() / 2];
      net.set_node_up(flipped, false);
      probe();
      net.set_node_up(flipped, true);
      probe();
      net.bump_topology_version();
      probe();
    }
    return out;
  };

  common::Table mobility_table({"nodes", "mode", "us/route", "hit rate",
                                "survival", "scoped epochs", "global epochs",
                                "rows patched", "moves", "rows/move",
                                "speedup", "gate"});
  bool n3_ok = true;
  for (std::size_t n : sweep) {
    const MobilityResult base = run_mobility_mode(n, 3, false, true, false);
    const MobilityResult incr = run_mobility_mode(n, 3, false, false, true);
    n3_ok = n3_ok && incr.oracle_ok;
    const double speedup = base.us_per_route / incr.us_per_route;
    // The perf gate binds at the sweep's largest shared size: N=1600 full
    // (>= 5x), N=400 in --quick (>= 2x).  Other sizes are informational.
    std::string gate = "-";
    if ((!quick && n == 1600) || (quick && n == 400)) {
      const double floor = quick ? 2.0 : 5.0;
      const bool pass = speedup >= floor && incr.oracle_ok;
      n3_ok = n3_ok && pass;
      gate = pass ? "PASS" : "FAIL";
    } else if (!incr.oracle_ok) {
      gate = "FAIL";
    }
    for (const MobilityResult* mode : {&base, &incr}) {
      mobility_table.add_row(
          {common::Table::num(std::uint64_t(n)),
           mode == &incr ? "incremental" : "global-flush",
           common::Table::num(mode->us_per_route, 3),
           common::Table::num(mode->hit_rate, 3),
           common::Table::num(mode->survival, 3),
           common::Table::num(mode->scoped_epochs),
           common::Table::num(mode->global_epochs),
           common::Table::num(mode->rows_patched),
           common::Table::num(mode->moves),
           common::Table::num(mode->rows_per_move(), 1),
           mode == &incr ? common::Table::num(speedup, 1) : "-",
           mode == &incr ? gate : "-"});
    }
  }
  experiment.series("mobility-route-acquisition", mobility_table);
  experiment.note("EXP-N3 shape check: under corner mobility the "
                  "incremental build keeps most cached routes alive "
                  "(survival near 1, hit rate high) and patches a handful "
                  "of adjacency rows per epoch, while the global-flush "
                  "baseline rebuilds the snapshot and recomputes every "
                  "route each tick; answers are bit-identical either way.");

  // EXP-N3 walker sweep: more walkers spread over the whole floor, each
  // roaming all of it.  A move dirties only the rows within radio reach of
  // the walker's old and new position (DESIGN.md S26), so the batched
  // epochs of 16 walkers stay scoped; 64 walkers at the smaller size push
  // the batch past the n / Network::kPatchCapDivisor cap.
  common::Table walker_table({"nodes", "walkers", "mode", "us/route",
                              "hit rate", "survival", "scoped epochs",
                              "global epochs", "moves", "rows/move",
                              "speedup", "oracle"});
  const std::size_t walker_n = quick ? 400 : 1600;
  for (std::size_t walker_count : {3, 16, 64}) {
    const MobilityResult base =
        run_mobility_mode(walker_n, walker_count, true, true, false);
    const MobilityResult incr =
        run_mobility_mode(walker_n, walker_count, true, false, true);
    n3_ok = n3_ok && incr.oracle_ok;
    for (const MobilityResult* mode : {&base, &incr}) {
      walker_table.add_row(
          {common::Table::num(std::uint64_t(walker_n)),
           common::Table::num(std::uint64_t(walker_count)),
           mode == &incr ? "incremental" : "global-flush",
           common::Table::num(mode->us_per_route, 3),
           common::Table::num(mode->hit_rate, 3),
           common::Table::num(mode->survival, 3),
           common::Table::num(mode->scoped_epochs),
           common::Table::num(mode->global_epochs),
           common::Table::num(mode->moves),
           common::Table::num(mode->rows_per_move(), 1),
           mode == &incr
               ? common::Table::num(base.us_per_route / incr.us_per_route, 1)
               : "-",
           mode == &incr ? (incr.oracle_ok ? "ok" : "FAIL") : "-"});
    }
  }
  experiment.series("walker-sweep", walker_table);
  experiment.note("EXP-N3 walker-sweep shape check: rows/move stays near "
                  "the radio-disk size (about 8 rows for a 25 m sensor on "
                  "the 15 m lattice, old and new disk merged) whatever the "
                  "walker count, so 16 walkers keep nearly every epoch "
                  "scoped; survival falls as more of the field moves per "
                  "epoch.");

  // EXP-N3 caps: where a scoped epoch stops paying.  One deployment, a
  // warm route cache, and epochs that dirty at most k rows: the longest
  // prefix of a seeded sensor order whose radio disks (brute force, the
  // same predicate as connected()) cover no more than k rows nudges 1 mm.
  // "scoped"
  // times the natural epoch (patch + multi-source BFS + cache walk, or the
  // rebuild when the epoch widens on its own); "rebuild" forces the same
  // moves into a global epoch and times the full CSR rebuild.  The moves
  // themselves are not timed.  The shuffle series then teleports a growing
  // share of the sensors in one epoch and times moves + epoch, which is
  // where the kAccumulationCapFactor * n candidate cap binds.
  common::Table cap_table({"nodes", "k", "rows patched", "epoch",
                           "scoped ms", "rebuild ms", "scoped/rebuild",
                           "routes kept"});
  common::Table shuffle_table({"nodes", "moved", "candidates/n", "dirty/n",
                               "epoch", "natural ms", "forced rebuild ms"});
  {
    const std::size_t n = quick ? 400 : 1600;
    core::PervasiveGridRuntime runtime(bench::standard_config(n));
    auto& net = runtime.network();
    const std::size_t nodes = net.size();
    std::vector<net::NodeId> order = runtime.sensors().sensors();
    common::Rng(0xCA95ULL + n).shuffle(std::span<net::NodeId>(order));
    // Rows a change at x can touch (sensors carry no wired links).
    auto disk = [&](net::NodeId x, net::Vec3 at, std::vector<char>& mark) {
      std::size_t marked = 0;
      const auto& changed = net.node(x);
      for (net::NodeId p = 0; p < nodes; ++p) {
        const auto& peer = net.node(p);
        const bool reach =
            p == x || (peer.radio.wireless && changed.radio.wireless &&
                       net::distance(peer.pos, at) <=
                           std::min(peer.radio.range_m,
                                    changed.radio.range_m));
        if (reach && !mark[p]) {
          mark[p] = 1;
          ++marked;
        }
      }
      return marked;
    };
    common::Rng pair_rng(0xCA96ULL + n);
    std::vector<std::pair<net::NodeId, net::NodeId>> cap_pairs;
    for (std::size_t i = 0; i < 256; ++i) {
      cap_pairs.emplace_back(static_cast<net::NodeId>(pair_rng.index(nodes)),
                             static_cast<net::NodeId>(pair_rng.index(nodes)));
    }
    auto warm = [&] {
      for (const auto& [src, dst] : cap_pairs) {
        n3_sink += net::cached_shortest_path(net, src, dst).size();
      }
    };
    auto timed_epoch = [&] {
      const auto t0 = std::chrono::steady_clock::now();
      net.sync_topology_caches();
      n3_sink += net.topology_snapshot().size();
      return seconds_since(t0) * 1e3;
    };
    auto median = [](std::vector<double> v) {
      std::sort(v.begin(), v.end());
      return v[v.size() / 2];
    };
    const std::size_t reps = quick ? 3 : 15;
    for (std::size_t divisor : {16, 8, 4, 2, 1}) {
      // The longest prefix of `order` whose disks' union stays <= k rows.
      const std::size_t k = nodes / divisor;
      std::vector<char> mark(nodes, 0);
      std::size_t covered = 0;
      std::size_t movers = 0;
      while (movers < order.size()) {
        std::vector<char> next = mark;
        const std::size_t added =
            disk(order[movers], net.node(order[movers]).pos, next);
        if (movers > 0 && covered + added > k) break;
        mark.swap(next);
        covered += added;
        ++movers;
      }
      std::vector<double> scoped_ms;
      std::vector<double> rebuild_ms;
      const auto stats0 = net.topology_stats();
      const auto cache0 = net.route_cache().stats();
      std::uint64_t scoped0 = stats0.scoped_epochs;
      bool widened = false;
      double sign = 1.0;
      for (std::size_t rep = 0; rep < 2 * reps; ++rep) {
        const bool forced = rep % 2 == 1;
        warm();
        for (std::size_t i = 0; i < movers; ++i) {
          net::Vec3 at = net.node(order[i]).pos;
          at.x += sign * 1e-3;
          net.move_node(order[i], at);
        }
        sign = -sign;
        if (forced) {
          net.bump_topology_version();
          rebuild_ms.push_back(timed_epoch());
        } else {
          scoped_ms.push_back(timed_epoch());
          widened = widened || net.topology_stats().scoped_epochs == scoped0;
          scoped0 = net.topology_stats().scoped_epochs;
        }
      }
      const auto stats1 = net.topology_stats();
      const auto cache1 = net.route_cache().stats();
      const auto judged = (cache1.routes_kept - cache0.routes_kept) +
                          (cache1.routes_dropped - cache0.routes_dropped);
      const double s_ms = median(scoped_ms);
      const double r_ms = median(rebuild_ms);
      cap_table.add_row(
          {common::Table::num(std::uint64_t(nodes)),
           "n/" + std::to_string(divisor),
           common::Table::num(
               (stats1.rows_patched - stats0.rows_patched) / reps),
           widened ? "global (cap)" : "scoped",
           common::Table::num(s_ms, 3), common::Table::num(r_ms, 3),
           common::Table::num(s_ms / r_ms, 2),
           widened ? "-"
                   : common::Table::num(
                         judged == 0 ? 0.0
                                     : double(cache1.routes_kept -
                                              cache0.routes_kept) /
                                           double(judged),
                         3)});
    }

    const double side = runtime.config().sensors.width_m;
    for (std::size_t divisor : {64, 16, 4, 1}) {
      const std::size_t moved = order.size() / divisor;
      std::vector<net::Vec3> home(moved);
      std::vector<net::Vec3> away(moved);
      common::Rng place_rng(0x5A0FULL + divisor);
      for (std::size_t i = 0; i < moved; ++i) {
        home[i] = net.node(order[i]).pos;
        away[i] = {place_rng.uniform(0.0, side), place_rng.uniform(0.0, side),
                   0.0};
      }
      // What the epoch accumulates going home -> away: one candidate per
      // mover plus its disk at each end, and their union.
      std::size_t candidates = 0;
      std::vector<char> mark(nodes, 0);
      std::vector<char> fresh(nodes, 0);
      for (std::size_t i = 0; i < moved; ++i) {
        for (const net::Vec3& at : {home[i], away[i]}) {
          std::fill(fresh.begin(), fresh.end(), char{0});
          candidates += 1 + disk(order[i], at, fresh);
          disk(order[i], at, mark);
        }
      }
      const auto dirty = static_cast<std::size_t>(
          std::count(mark.begin(), mark.end(), char{1}));
      std::vector<double> natural_ms;
      std::vector<double> forced_ms;
      const std::uint64_t global0 = net.topology_stats().global_epochs;
      for (std::size_t rep = 0; rep < 2 * reps; ++rep) {
        const bool forced = rep % 2 == 1;
        warm();
        const auto t0 = std::chrono::steady_clock::now();
        for (std::size_t i = 0; i < moved; ++i) {
          net.move_node(order[i], away[i]);
        }
        if (forced) net.bump_topology_version();
        timed_epoch();
        for (std::size_t i = 0; i < moved; ++i) {
          net.move_node(order[i], home[i]);
        }
        if (forced) net.bump_topology_version();
        timed_epoch();
        (forced ? forced_ms : natural_ms).push_back(seconds_since(t0) * 1e3 /
                                                    2.0);
      }
      // The forced reps add 2 global epochs each; the rest are natural.
      const std::uint64_t natural_global =
          net.topology_stats().global_epochs - global0 - 2 * reps;
      shuffle_table.add_row(
          {common::Table::num(std::uint64_t(nodes)),
           "n/" + std::to_string(divisor),
           common::Table::num(double(candidates) / double(nodes), 2),
           common::Table::num(double(dirty) / double(nodes), 2),
           natural_global == 0 ? "scoped"
                               : (natural_global == 2 * reps ? "global"
                                                             : "mixed"),
           common::Table::num(median(natural_ms), 3),
           common::Table::num(median(forced_ms), 3)});
    }
  }
  experiment.series("epoch-cap-forced-k", cap_table);
  experiment.series("epoch-cap-shuffle", shuffle_table);
  experiment.note("EXP-N3 cap shape check: a scoped epoch's cost grows with "
                  "its dirty rows toward the rebuild's, while the routes it "
                  "keeps fall toward none; an epoch past n / "
                  "Network::kPatchCapDivisor rows rebuilds instead.  A "
                  "whole-deployment shuffle accumulates about 20 "
                  "candidates per moved sensor and dirties most rows long "
                  "before the kAccumulationCapFactor * n candidate cap "
                  "stops the accumulation.");
  if (n3_sink == 0) std::cerr << "";  // keep `n3_sink` observable

  if (!oracle_ok) {
    std::cerr << "FATAL: accelerated topology answers diverged from the "
                 "naive oracles\n";
    return 1;
  }
  if (!n3_ok) {
    std::cerr << "FATAL: EXP-N3 gate failure (oracle divergence or speedup "
                 "below the floor)\n";
    return 1;
  }
  return 0;
}
