// ShardedDeployment: the runtime-layer face of SPMD world partitioning.
//
// One PervasiveGridRuntime per base-station region — each with its own
// Simulator (own slab + heap), Network, CostLedger and agent platform —
// placed on a world grid via SensorNetworkConfig::origin and advanced in
// deterministic lockstep windows by sim::LockstepWorld, region after region
// on the calling thread.  Cross-region effects (wired-backhaul query
// forwarding, chaos faults aimed at a remote region) ride the lockstep
// mailbox and land at window barriers in canonical order, so per-region
// outcomes (QueryOutcome, NetworkStats, ledger joules, chaos schedules) are
// bit-identical run to run.
//
// Kill switch: a single-region deployment built from a config is
// byte-identical to a plain PervasiveGridRuntime built from the same
// config — region 0 keeps the config's seed and a zero origin, and nothing
// else differs.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "net/shard_map.hpp"
#include "sim/chaos.hpp"
#include "sim/shard.hpp"

namespace pgrid::core {

struct ShardedDeploymentConfig {
  /// Template for every region.  `seed` seeds region 0 as-is; region r > 0
  /// derives seed ^ (r * golden-ratio mix), so region 0's solo trajectory
  /// matches a standalone runtime bit for bit.  `sharding.window` sets the
  /// lockstep window.
  RuntimeConfig base;
  std::size_t regions = 1;
  /// World-grid pitch between region origins (ceil(sqrt(R)) columns).
  /// Keep it larger than the deployment footprint plus radio range so
  /// regions never overlap in the air.
  double region_spacing_m = 500.0;
  /// Wired backhaul latency for cross-region submissions and injections.
  /// Must be >= the lockstep window (the conservative lookahead bound) or
  /// deliveries count as lookahead violations and are clamped.
  sim::SimTime backhaul_latency = sim::SimTime::milliseconds(10);
};

/// Cross-region failover counters.
struct ShardedFailoverStats {
  std::uint64_t station_outages = 0;    ///< base-station crashes observed
  std::uint64_t checkpoints_shipped = 0;///< images sent to an adopter
  std::uint64_t queries_adopted = 0;    ///< snapshots re-homed at a peer
  std::uint64_t migrations_back = 0;    ///< in-flight queries returned home
  std::uint64_t handoffs = 0;           ///< roaming-client query handoffs
};

class ShardedDeployment {
 public:
  explicit ShardedDeployment(ShardedDeploymentConfig config);
  ~ShardedDeployment();

  ShardedDeployment(const ShardedDeployment&) = delete;
  ShardedDeployment& operator=(const ShardedDeployment&) = delete;

  std::size_t region_count() const { return regions_.size(); }
  PervasiveGridRuntime& region(std::size_t r) { return *regions_.at(r); }
  /// Region r's shard map (every region holds the same centers, so
  /// region_of_pos agrees globally; node registration is per-network).
  net::ShardMap& shard_map(std::size_t r) { return *maps_.at(r); }
  sim::LockstepWorld& world() { return *world_; }
  const ShardedDeploymentConfig& config() const { return config_; }
  /// World position of region r's base station.
  net::Vec3 region_origin(std::size_t r) const;

  /// Derived per-region seed (region 0 == base seed).
  static std::uint64_t region_seed(std::uint64_t base, std::size_t r);

  /// Submits query text to region `r`'s handheld through the control lane:
  /// the submission is a cross-shard message delivered at a window barrier,
  /// so its placement in `r`'s timeline is canonical.  `at` is absolute
  /// simulated time (clamped to the region's clock if already past).
  void submit(std::size_t r, sim::SimTime at, const std::string& query_text,
              std::function<void(QueryOutcome)> done);

  /// Wired-backhaul forwarding: region `from`'s base station hands the
  /// query to region `to`, arriving `backhaul_latency` after `at` on the
  /// mailbox's `from` lane.  With the flow tier enabled the query's
  /// backhaul leg is itself a flow — one counted cross-region completion
  /// at the sending network plus analytic wire time — instead of an
  /// unaccounted hop (the PR 6 leftover).
  void submit_remote(std::size_t from, std::size_t to, sim::SimTime at,
                     const std::string& query_text,
                     std::function<void(QueryOutcome)> done);

  /// Flow-level bulk transfer over the wired backhaul: ONE logical
  /// completion rides the mailbox barrier exchange (no per-hop frames),
  /// booked at the sending region's network as a cross-region frame —
  /// NetworkStats::cross_region_frames counts flows and packet frames
  /// consistently.  Arrival = at + backhaul_latency + wired transfer time;
  /// `done(true)` fires in region `to`'s timeline.
  void transfer_remote(std::size_t from, std::size_t to, sim::SimTime at,
                       std::uint64_t bytes, std::function<void(bool)> done);

  /// Sets the fidelity of global region `target` inside region `r`'s flow
  /// model (no-op while the flow tier is disabled).  Every region shares
  /// the same ShardMap centers, so `target` means the same area everywhere.
  void set_region_fidelity(std::size_t r, net::RegionId target,
                           net::Fidelity fidelity);

  /// Arms a seeded chaos schedule over region `r`'s network (engine seed =
  /// the region's derived seed, so schedules are a pure function of
  /// (config, region) and identical run to run).
  const sim::Schedule& arm_chaos(std::size_t r, const sim::ChaosConfig& cfg);
  sim::ChaosEngine* chaos(std::size_t r) { return chaos_.at(r).get(); }

  /// Injects one fault into remote region `to` via the control lane; the
  /// fault fires in `to`'s own timeline at fault.at (clamped like any
  /// cross-shard delivery).  arm_chaos(to, ...) must have run first.
  void inject_remote(std::size_t to, sim::Fault fault);

  // --- base-station failover (core/failover.hpp) ------------------------

  /// Wires region `r`'s FailoverManager to its chaos engine's base-station
  /// liveness callback and enables neighbor-region adoption: on a station
  /// crash the last checkpoint ships over the wired backhaul to the next
  /// region, which re-admits every unfinished query through its own
  /// sharing layer; on restart the survivors migrate back.  No-op when the
  /// region's failover layer is disabled (the kill switch).  Creates the
  /// region's chaos engine if arm_chaos has not run yet.
  void arm_station_failover(std::size_t r);

  /// Roaming-client handoff: at time `at` (region `from`'s timeline) the
  /// live protected query `qid` is extracted — fenced mid-epoch — and
  /// re-homed in region `to` via the checkpoint path over the backhaul.
  /// The answer flows back to the original submitter's callback in
  /// `from`'s timeline, exactly once, no matter where the epochs ran.
  void handoff_query(std::size_t from, std::size_t to, sim::SimTime at,
                     std::uint64_t qid);

  /// Cross-region failover counters (read after run()).
  const ShardedFailoverStats& failover_stats() const { return fstats_; }

  /// Runs lockstep windows until every region drains (run) or reaches
  /// `deadline` (run_until).
  sim::LockstepStats run() { return world_->run(); }
  sim::LockstepStats run_until(sim::SimTime deadline) {
    return world_->run_until(deadline);
  }

  std::uint64_t order_digest() const { return world_->order_digest(); }

 private:
  sim::ChaosEngine& ensure_chaos(std::size_t r);

  // Station lifecycle handlers; each runs in the named region's timeline.
  void on_station_lost(std::size_t r);
  void on_station_restored(std::size_t r);
  /// Runs in `adopter`'s timeline: parses `home`'s shipped checkpoint image
  /// and adopts every unfinished query.
  void adopt_checkpoint(std::size_t home, std::size_t adopter,
                        const std::string& image);
  /// Runs in `adopter`'s timeline: extracts every adoption held for `home`
  /// and posts the snapshots back for resume_migrated.
  void return_adoptions(std::size_t adopter, std::size_t home);

  /// One adoption held at a peer, tracked per adopter.
  struct HeldAdoption {
    std::size_t home = 0;
    std::uint64_t home_qid = 0;
    std::uint64_t local_qid = 0;
  };

  ShardedDeploymentConfig config_;
  std::vector<std::unique_ptr<PervasiveGridRuntime>> regions_;
  std::vector<std::unique_ptr<net::ShardMap>> maps_;
  std::vector<std::unique_ptr<sim::ChaosEngine>> chaos_;
  std::unique_ptr<sim::LockstepWorld> world_;
  // Per-region failover state, indexed by the region that touches it.
  std::vector<std::vector<HeldAdoption>> held_;
  std::vector<std::map<std::uint64_t, FailoverManager::Finalize>>
      handoff_returns_;
  std::vector<std::uint64_t> next_handoff_key_;
  ShardedFailoverStats fstats_;
};

}  // namespace pgrid::core
