#include "core/sharded.hpp"

#include <cmath>
#include <utility>

namespace pgrid::core {

namespace {

/// splitmix64 finalizer: full-avalanche mixing for derived region seeds.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::uint64_t ShardedDeployment::region_seed(std::uint64_t base,
                                             std::size_t r) {
  // Region 0 keeps the base seed untouched: a single-region deployment is
  // byte-identical to a standalone PervasiveGridRuntime (the kill-switch
  // gate), and region 0's solo trajectory always matches legacy.
  if (r == 0) return base;
  return base ^ mix64(0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(r));
}

net::Vec3 ShardedDeployment::region_origin(std::size_t r) const {
  const auto cols = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(config_.regions))));
  const std::size_t col = cols == 0 ? 0 : r % cols;
  const std::size_t row = cols == 0 ? 0 : r / cols;
  return net::Vec3{static_cast<double>(col) * config_.region_spacing_m,
                   static_cast<double>(row) * config_.region_spacing_m, 0.0};
}

ShardedDeployment::ShardedDeployment(ShardedDeploymentConfig config)
    : config_(std::move(config)) {
  if (config_.regions == 0) config_.regions = 1;
  regions_.reserve(config_.regions);
  chaos_.resize(config_.regions);

  // Region anchor points: every region's map shares the same centers, so
  // region_of_pos agrees globally no matter which map answers.
  std::vector<net::Vec3> centers;
  centers.reserve(config_.regions);
  for (std::size_t r = 0; r < config_.regions; ++r) {
    centers.push_back(region_origin(r) + config_.base.sensors.base_pos);
  }
  const double cell_m = std::max(config_.base.sensors.radio.range_m, 1.0);

  std::vector<sim::Simulator*> sims;
  sims.reserve(config_.regions);
  for (std::size_t r = 0; r < config_.regions; ++r) {
    RuntimeConfig region_config = config_.base;
    region_config.seed = region_seed(config_.base.seed, r);
    region_config.sensors.origin = region_origin(r);
    regions_.push_back(
        std::make_unique<PervasiveGridRuntime>(std::move(region_config)));
    PervasiveGridRuntime& rt = *regions_.back();

    auto map = std::make_unique<net::ShardMap>(centers, cell_m);
    net::Network& network = rt.network();
    for (std::size_t i = 0; i < network.size(); ++i) {
      const auto id = static_cast<net::NodeId>(i);
      map->assign(id, network.node(id).pos);
    }
    network.set_shard_map(map.get());
    maps_.push_back(std::move(map));
    sims.push_back(&rt.simulator());
  }
  world_ = std::make_unique<sim::LockstepWorld>(config_.base.sharding,
                                                std::move(sims));
  held_.resize(config_.regions);
  handoff_returns_.resize(config_.regions);
  next_handoff_key_.assign(config_.regions, 1);
}

ShardedDeployment::~ShardedDeployment() {
  // Chaos engines reference region networks; drop them first.
  chaos_.clear();
  world_.reset();
  regions_.clear();
}

void ShardedDeployment::submit(std::size_t r, sim::SimTime at,
                               const std::string& query_text,
                               std::function<void(QueryOutcome)> done) {
  PervasiveGridRuntime* rt = regions_.at(r).get();
  world_->post_control(static_cast<std::uint32_t>(r), at,
                       [rt, query_text, done = std::move(done)]() mutable {
                         rt->submit(query_text, std::move(done));
                       });
}

void ShardedDeployment::submit_remote(std::size_t from, std::size_t to,
                                      sim::SimTime at,
                                      const std::string& query_text,
                                      std::function<void(QueryOutcome)> done) {
  assert(from < regions_.size());
  PervasiveGridRuntime* rt = regions_.at(to).get();
  // The wired backhaul carries the query between base stations; arrival is
  // sender-timestamped, so it satisfies the lookahead bound as long as
  // backhaul_latency >= the lockstep window.
  sim::SimTime arrive = at + config_.backhaul_latency;
  if (config_.base.flow.enabled) {
    // Flow tier on: the forwarding leg is one analytic backhaul flow —
    // counted and charged at the sender, wire time added to the arrival —
    // instead of a free hop.  Off (the kill switch), the PR 6 timeline is
    // reproduced byte for byte.
    const auto bytes = static_cast<std::uint64_t>(query_text.size());
    regions_.at(from)->network().record_cross_region_flow(bytes);
    arrive += net::LinkClass::wired().transfer_time(bytes);
  }
  world_->post(static_cast<std::uint32_t>(from), static_cast<std::uint32_t>(to),
               arrive, [rt, query_text, done = std::move(done)]() mutable {
                 rt->submit(query_text, std::move(done));
               });
}

void ShardedDeployment::transfer_remote(std::size_t from, std::size_t to,
                                        sim::SimTime at, std::uint64_t bytes,
                                        std::function<void(bool)> done) {
  assert(from < regions_.size());
  regions_.at(from)->network().record_cross_region_flow(bytes);
  const sim::SimTime arrive =
      at + config_.backhaul_latency + net::LinkClass::wired().transfer_time(bytes);
  world_->post(static_cast<std::uint32_t>(from), static_cast<std::uint32_t>(to),
               arrive, [done = std::move(done)]() mutable {
                 if (done) done(true);
               });
}

void ShardedDeployment::set_region_fidelity(std::size_t r,
                                            net::RegionId target,
                                            net::Fidelity fidelity) {
  if (net::FlowModel* flow = regions_.at(r)->flow_model()) {
    flow->set_region_fidelity(target, fidelity);
  }
}

sim::ChaosEngine& ShardedDeployment::ensure_chaos(std::size_t r) {
  PervasiveGridRuntime& rt = region(r);
  if (!chaos_[r]) {
    chaos_[r] = std::make_unique<sim::ChaosEngine>(rt.network(),
                                                   rt.config().seed);
  }
  return *chaos_[r];
}

const sim::Schedule& ShardedDeployment::arm_chaos(std::size_t r,
                                                  const sim::ChaosConfig& cfg) {
  return ensure_chaos(r).arm(cfg);
}

void ShardedDeployment::inject_remote(std::size_t to, sim::Fault fault) {
  assert(chaos_.at(to) != nullptr && "arm_chaos(to, ...) must run first");
  sim::ChaosEngine* engine = chaos_[to].get();
  const sim::SimTime at = fault.at;
  world_->post_control(static_cast<std::uint32_t>(to), at,
                       [engine, fault = std::move(fault)] {
                         engine->inject(fault);
                       });
}

namespace {

/// Inverse of the failover finalize conversion: rebuilds the serializable
/// epoch records from a completed query's (costs, models) vectors so a
/// finished adoption can travel home as a snapshot.
std::vector<EpochRecord> epochs_from_results(
    const std::vector<partition::ActualCost>& costs,
    const std::vector<partition::SolutionModel>& models) {
  std::vector<EpochRecord> epochs;
  epochs.reserve(costs.size());
  for (std::size_t i = 0; i < costs.size(); ++i) {
    EpochRecord e;
    e.ok = costs[i].ok;
    e.degraded = costs[i].degraded;
    e.lost = costs[i].error == "epoch lost in station outage";
    e.model = i < models.size() ? static_cast<int>(models[i]) : 0;
    e.value = costs[i].value;
    e.coverage = costs[i].coverage;
    e.accuracy = costs[i].accuracy;
    e.energy_j = costs[i].energy_j;
    e.response_s = costs[i].response_s;
    e.data_bytes = costs[i].data_bytes;
    e.compute_ops = costs[i].compute_ops;
    epochs.push_back(e);
  }
  return epochs;
}

/// Backhaul size of a snapshot in flight (text + fixed-size epoch rows).
std::uint64_t snapshot_bytes(const QueryCheckpoint& snap) {
  return static_cast<std::uint64_t>(snap.text.size() +
                                    96 * (snap.epochs.size() + 1));
}

}  // namespace

void ShardedDeployment::arm_station_failover(std::size_t r) {
  if (region(r).failover() == nullptr) return;  // kill switch: stay dark
  ensure_chaos(r).set_station_callback([this, r](net::NodeId, bool up) {
    if (up) {
      on_station_restored(r);
    } else {
      on_station_lost(r);
    }
  });
}

void ShardedDeployment::on_station_lost(std::size_t r) {
  PervasiveGridRuntime& home = region(r);
  FailoverManager* manager = home.failover();
  if (manager == nullptr || manager->station_down()) return;
  ++fstats_.station_outages;
  // The crash first: station RAM dies, the generation fence bumps, and the
  // last checkpoint becomes the only surviving record of the region's load.
  manager->on_station_down();
  if (regions_.size() < 2) return;
  const std::string image = manager->last_checkpoint();
  if (image.empty()) return;  // unprotected arm: nothing a peer could adopt
  auto parsed = parse_checkpoint(image);
  if (!parsed.ok() || parsed.value().queries.empty()) return;
  // Mark the shipped ids as peer-owned *before* anything else home-side:
  // the post-restart replay must not double-run what the neighbor adopts.
  std::vector<std::uint64_t> shipped;
  shipped.reserve(parsed.value().queries.size());
  for (const QueryCheckpoint& snap : parsed.value().queries) {
    shipped.push_back(snap.id);
  }
  manager->mark_adopted_elsewhere(shipped);
  // Neighbor-region adoption over the wired backhaul: the image travels to
  // the next region on the world grid (deterministic pick) like any bulk
  // transfer — counted at the sender, wire time added to the arrival.
  const std::size_t adopter = (r + 1) % regions_.size();
  ++fstats_.checkpoints_shipped;
  home.network().record_cross_region_flow(image.size());
  const sim::SimTime arrive = home.simulator().now() +
                              config_.backhaul_latency +
                              net::LinkClass::wired().transfer_time(image.size());
  world_->post(static_cast<std::uint32_t>(r),
               static_cast<std::uint32_t>(adopter), arrive,
               [this, r, adopter, image] {
                 adopt_checkpoint(r, adopter, image);
               });
}

void ShardedDeployment::adopt_checkpoint(std::size_t home_r,
                                         std::size_t adopter_r,
                                         const std::string& image) {
  FailoverManager* adopter = region(adopter_r).failover();
  if (adopter == nullptr) return;
  auto parsed = parse_checkpoint(image);
  if (!parsed.ok()) return;
  Checkpoint checkpoint = std::move(parsed).take();
  const sim::SimTime back = region(adopter_r).simulator().now() +
                            config_.backhaul_latency;
  if (adopter->station_down()) {
    // The neighbor is dark too: bounce every snapshot straight home, where
    // resume_migrated re-queues it for the home replay (exactly-once still
    // holds — the home record's fence owns finalization).
    for (QueryCheckpoint& snap : checkpoint.queries) {
      const std::uint64_t home_qid = snap.id;
      world_->post(static_cast<std::uint32_t>(adopter_r),
                   static_cast<std::uint32_t>(home_r), back,
                   [this, home_r, home_qid, snap = std::move(snap)] {
                     if (FailoverManager* mgr = region(home_r).failover()) {
                       mgr->resume_migrated(home_qid, snap);
                     }
                   });
    }
    return;
  }
  for (QueryCheckpoint& snap : checkpoint.queries) {
    const std::uint64_t home_qid = snap.id;
    QueryCheckpoint shell = snap;
    shell.epochs.clear();
    // Completion at the adopter posts the finished snapshot home, where the
    // home record's fenced finalize answers the still-open conversation.
    auto finalize = [this, home_r, adopter_r, home_qid,
                     shell = std::move(shell)](
                        std::vector<partition::ActualCost> costs,
                        std::vector<partition::SolutionModel> models) {
      QueryCheckpoint complete = shell;
      complete.epochs = epochs_from_results(costs, models);
      region(adopter_r).network().record_cross_region_flow(
          snapshot_bytes(complete));
      const sim::SimTime arrive =
          region(adopter_r).simulator().now() + config_.backhaul_latency +
          net::LinkClass::wired().transfer_time(snapshot_bytes(complete));
      world_->post(static_cast<std::uint32_t>(adopter_r),
                   static_cast<std::uint32_t>(home_r), arrive,
                   [this, home_r, home_qid, complete = std::move(complete)] {
                     if (FailoverManager* mgr = region(home_r).failover()) {
                       mgr->resume_migrated(home_qid, complete);
                     }
                   });
    };
    const std::uint64_t local =
        adopter->adopt(std::move(snap), std::move(finalize));
    held_[adopter_r].push_back({home_r, home_qid, local});
    ++fstats_.queries_adopted;
  }
}

void ShardedDeployment::on_station_restored(std::size_t r) {
  FailoverManager* manager = region(r).failover();
  if (manager == nullptr || !manager->station_down()) return;
  manager->on_station_up();
  if (regions_.size() < 2) return;
  // Migrate back: every peer is asked (in its own timeline) to return
  // whatever it still holds for this region.  Peers holding nothing no-op.
  const sim::SimTime ask = region(r).simulator().now() +
                           config_.backhaul_latency;
  for (std::size_t a = 0; a < regions_.size(); ++a) {
    if (a == r) continue;
    world_->post(static_cast<std::uint32_t>(r), static_cast<std::uint32_t>(a),
                 ask, [this, a, r] { return_adoptions(a, r); });
  }
}

void ShardedDeployment::return_adoptions(std::size_t adopter_r,
                                         std::size_t home_r) {
  FailoverManager* adopter = region(adopter_r).failover();
  if (adopter == nullptr) return;
  std::vector<HeldAdoption> returning;
  auto& held = held_[adopter_r];
  for (std::size_t i = 0; i < held.size();) {
    if (held[i].home == home_r) {
      returning.push_back(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      ++i;
    }
  }
  for (const HeldAdoption& entry : returning) {
    auto extracted = adopter->extract(entry.local_qid);
    // Failure = the adoption already finalized (its completion is on the
    // wire home) — nothing left to migrate.
    if (!extracted.ok()) continue;
    QueryCheckpoint snap = std::move(extracted).take().snap;
    ++fstats_.migrations_back;
    region(adopter_r).network().record_cross_region_flow(snapshot_bytes(snap));
    const sim::SimTime arrive =
        region(adopter_r).simulator().now() + config_.backhaul_latency +
        net::LinkClass::wired().transfer_time(snapshot_bytes(snap));
    const std::uint64_t home_qid = entry.home_qid;
    world_->post(static_cast<std::uint32_t>(adopter_r),
                 static_cast<std::uint32_t>(home_r), arrive,
                 [this, home_r, home_qid, snap = std::move(snap)] {
                   if (FailoverManager* mgr = region(home_r).failover()) {
                     mgr->resume_migrated(home_qid, snap);
                   }
                 });
  }
}

void ShardedDeployment::handoff_query(std::size_t from, std::size_t to,
                                      sim::SimTime at, std::uint64_t qid) {
  if (from == to || from >= regions_.size() || to >= regions_.size()) return;
  world_->post_control(
      static_cast<std::uint32_t>(from), at, [this, from, to, qid] {
        FailoverManager* src = region(from).failover();
        if (src == nullptr || region(to).failover() == nullptr) return;
        auto extracted = src->extract(qid);
        if (!extracted.ok()) return;  // finished (or already moved on)
        auto moved = std::move(extracted).take();
        // The open conversation stays home: the submitter's callback lives
        // in `from`'s platform and must run in `from`'s timeline.  Park it
        // under a key; the re-homed query's completion posts back here.
        const std::uint64_t key = next_handoff_key_[from]++;
        handoff_returns_[from][key] = std::move(moved.finalize);
        ++fstats_.handoffs;
        region(from).network().record_cross_region_flow(
            snapshot_bytes(moved.snap));
        const sim::SimTime arrive =
            region(from).simulator().now() + config_.backhaul_latency +
            net::LinkClass::wired().transfer_time(snapshot_bytes(moved.snap));
        world_->post(
            static_cast<std::uint32_t>(from), static_cast<std::uint32_t>(to),
            arrive, [this, from, to, key, snap = std::move(moved.snap)] {
              FailoverManager* dst = region(to).failover();
              if (dst == nullptr) return;
              auto finalize = [this, from, to, key](
                                  std::vector<partition::ActualCost> costs,
                                  std::vector<partition::SolutionModel>
                                      models) {
                const sim::SimTime back = region(to).simulator().now() +
                                          config_.backhaul_latency;
                world_->post(
                    static_cast<std::uint32_t>(to),
                    static_cast<std::uint32_t>(from), back,
                    [this, from, key, costs = std::move(costs),
                     models = std::move(models)]() mutable {
                      auto& slot = handoff_returns_[from];
                      auto it = slot.find(key);
                      if (it == slot.end()) return;
                      auto finalize_home = std::move(it->second);
                      slot.erase(it);
                      if (finalize_home) {
                        finalize_home(std::move(costs), std::move(models));
                      }
                    });
              };
              dst->adopt(snap, std::move(finalize));
              ++fstats_.queries_adopted;
            });
      });
}

}  // namespace pgrid::core
