#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <memory>
#include <span>

#include "net/flow.hpp"
#include "net/reliable.hpp"
#include "net/routing.hpp"

namespace pgrid::net {

std::string to_string(NodeKind kind) {
  switch (kind) {
    case NodeKind::kSensor: return "sensor";
    case NodeKind::kBaseStation: return "base-station";
    case NodeKind::kHandheld: return "handheld";
    case NodeKind::kGrid: return "grid";
    case NodeKind::kGeneric: return "generic";
  }
  return "?";
}

Network::Network(sim::Simulator& simulator, common::Rng rng)
    : sim_(simulator), rng_(rng), ledger_(simulator) {}

NodeId Network::add_node(const NodeConfig& config) {
  Node node;
  node.id = static_cast<NodeId>(nodes_.size());
  node.pos = config.pos;
  node.kind = config.kind;
  node.radio = config.radio;
  node.energy = config.unlimited_energy ? EnergyMeter::unlimited()
                                        : EnergyMeter(config.battery_j);
  nodes_.push_back(std::move(node));
  if (config.radio.wireless) {
    grid_.insert(nodes_.back().id, config.pos, config.radio.range_m);
  }
  // Growing the deployment resizes every CSR structure: not patchable.
  note_global_change();
  ++topology_version_;
  return nodes_.back().id;
}

void Network::add_wired_link(NodeId a, NodeId b, LinkClass link) {
  link.wireless = false;
  const auto index = static_cast<std::uint32_t>(wired_.size());
  wired_.push_back(WiredLink{a, b, std::move(link), true});
  // First link per pair wins (emplace never overwrites), preserving the
  // historical first-match semantics of the linear scan.
  const bool fresh_pair = wired_index_.emplace(pair_key(a, b), index).second;
  if (fresh_pair) {
    const NodeId hi = std::max(a, b);
    if (hi >= wired_peers_.size()) wired_peers_.resize(hi + 1);
    wired_peers_[a].push_back(b);
    wired_peers_[b].push_back(a);
  }
  note_global_change();
  ++topology_version_;
}

bool Network::alive(NodeId id) const {
  const Node& n = nodes_.at(id);
  return n.up && !n.energy.dead();
}

bool Network::consume_energy(Node& node, double joules) {
  const bool was_dead = node.energy.dead();
  const bool ok = node.energy.consume(joules);
  // Battery death severs every link touching the node without going
  // through a topology bump; the internal liveness version keeps the
  // snapshot and route cache honest about it.
  if (!was_dead && node.energy.dead()) {
    note_scoped_change(node.id);
    ++liveness_version_;
  }
  return ok;
}

void Network::drain_energy(NodeId id, double joules) {
  consume_energy(nodes_.at(id), joules);
}

const Network::WiredLink* Network::find_wired(NodeId a, NodeId b) const {
  if (wired_index_.empty()) return nullptr;
  auto it = wired_index_.find(pair_key(a, b));
  return it == wired_index_.end() ? nullptr : &wired_[it->second];
}

bool Network::connected(NodeId a, NodeId b) const {
  if (a == b || !alive(a) || !alive(b)) return false;
  if (fault_injector_ && fault_injector_->severed(a, b)) return false;
  if (const WiredLink* w = find_wired(a, b)) return w->up;
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (!na.radio.wireless || !nb.radio.wireless) return false;
  const double d = distance(na.pos, nb.pos);
  return d <= std::min(na.radio.range_m, nb.radio.range_m);
}

void Network::collect_neighbors(NodeId id, std::vector<NodeId>& out) const {
  if (!alive(id)) return;
  // Candidate superset: the spatial block around the node (covers every
  // wireless peer within mutual range, since cells are at least as wide as
  // any radio range) plus its wired peers.  connected() then applies the
  // exact check, so the result is identical to the naive full scan.
  scratch_.clear();
  if (nodes_[id].radio.wireless) grid_.gather(id, scratch_);
  if (id < wired_peers_.size()) {
    scratch_.insert(scratch_.end(), wired_peers_[id].begin(),
                    wired_peers_[id].end());
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());
  for (NodeId candidate : scratch_) {
    if (connected(id, candidate)) out.push_back(candidate);
  }
}

std::vector<NodeId> Network::neighbors(NodeId id) const {
  ++topo_stats_.neighbor_queries;
  std::vector<NodeId> out;
  collect_neighbors(id, out);
  return out;
}

std::vector<NodeId> Network::neighbors_naive(NodeId id) const {
  std::vector<NodeId> out;
  if (!alive(id)) return out;
  for (const auto& other : nodes_) {
    if (other.id != id && connected(id, other.id)) out.push_back(other.id);
  }
  return out;
}

const TopologySnapshot& Network::topology_snapshot() const {
  sync_topology_caches();
  if (snapshot_built_ && snapshot_.topology_version == topology_version_ &&
      snapshot_.liveness_version == liveness_version_) {
    return snapshot_;
  }
  ++topo_stats_.snapshot_builds;
  snapshot_.topology_version = topology_version_;
  snapshot_.liveness_version = liveness_version_;
  snapshot_.offsets.assign(1, 0);
  snapshot_.offsets.reserve(nodes_.size() + 1);
  snapshot_.adjacency.clear();
  snapshot_.hop_distance.clear();
  std::vector<NodeId> row;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    row.clear();
    collect_neighbors(id, row);
    for (NodeId peer : row) {
      snapshot_.adjacency.push_back(peer);
      snapshot_.hop_distance.push_back(
          distance(nodes_[id].pos, nodes_[peer].pos));
    }
    snapshot_.offsets.push_back(
        static_cast<std::uint32_t>(snapshot_.adjacency.size()));
  }
  snapshot_built_ = true;
  return snapshot_;
}

// ---------------------------------------------------------------------------
// Incremental topology epochs (DESIGN.md S26).  Mutators accumulate the set
// of adjacency rows a change can affect; the delta is applied lazily at the
// next cache access.  A global epoch (add_node, wired-link add, fault
// injector swap, reset_energy, an explicit bump, or a delta wider than n/2)
// rebuilds the snapshot and clears the caches wholesale instead.

void Network::begin_pending() const {
  if (pending_.active) return;
  pending_.active = true;
  pending_.global = false;
  pending_.from_topology = topology_version_;
  pending_.from_liveness = liveness_version_;
  pending_.nodes.clear();
}

void Network::note_scoped_change(NodeId id) const {
  begin_pending();
  if (pending_.global) return;
  // The rows a change at `id` can affect: `id` itself, every node in its
  // spatial gather block (connectivity requires d <= min(ra, rb) <= r_id,
  // so any peer whose row lists `id` sits inside `id`'s own range box),
  // and its wired peers (their rows carry hop distances to `id`).
  pending_.nodes.push_back(id);
  if (id < nodes_.size() && nodes_[id].radio.wireless) {
    grid_.gather(id, pending_.nodes);
  }
  if (id < wired_peers_.size()) {
    pending_.nodes.insert(pending_.nodes.end(), wired_peers_[id].begin(),
                          wired_peers_[id].end());
  }
  // Runaway epochs (a whole-deployment shuffle) stop paying the
  // accumulation cost and fall back to a rebuild.
  if (pending_.nodes.size() > 4 * nodes_.size()) pending_.global = true;
}

void Network::note_global_change() const {
  begin_pending();
  pending_.global = true;
  pending_.nodes.clear();
}

void Network::sync_topology_caches() const {
  if (pending_.active) apply_pending();
}

void Network::apply_pending() const {
  pending_.active = false;
  auto& dirty = pending_.nodes;
  bool patchable = snapshot_built_ && !pending_.global &&
                   snapshot_.topology_version == pending_.from_topology &&
                   snapshot_.liveness_version == pending_.from_liveness;
  if (patchable) {
    std::sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
    // A delta touching most of the deployment costs more to patch + BFS
    // than a straight rebuild; so does one naming rows the snapshot does
    // not have (defensive — add_node always goes global).
    if (dirty.size() > nodes_.size() / 2 ||
        (!dirty.empty() && dirty.back() >= snapshot_.size())) {
      patchable = false;
    }
  }
  if (!patchable) {
    ++topo_stats_.global_epochs;
    last_delta_.valid = false;
    snapshot_built_ = false;  // next access rebuilds; caches clear on sync
    return;
  }
  ++topo_stats_.scoped_epochs;
  patch_snapshot(dirty);
  refresh_dirty_distance(dirty);
  route_cache_.advance_epoch(pending_.from_topology, pending_.from_liveness,
                             topology_version_, liveness_version_,
                             dirty_flag_, bfs_dist_);
  for (NodeId d : dirty) dirty_flag_[d] = 0;
  // Publish the delta for slower consumers (the flow-plan cache), merging
  // with the previous one when the version ranges abut so a consumer that
  // skipped an epoch still sees one covering range.
  if (last_delta_.valid &&
      last_delta_.to_topology == pending_.from_topology &&
      last_delta_.to_liveness == pending_.from_liveness) {
    std::vector<NodeId> merged;
    merged.reserve(last_delta_.dirty.size() + dirty.size());
    std::set_union(last_delta_.dirty.begin(), last_delta_.dirty.end(),
                   dirty.begin(), dirty.end(), std::back_inserter(merged));
    last_delta_.dirty.swap(merged);
    last_delta_.to_topology = topology_version_;
    last_delta_.to_liveness = liveness_version_;
    if (last_delta_.dirty.size() > nodes_.size() / 2) {
      last_delta_.valid = false;  // too wide to be worth a scoped pass
    }
  } else {
    last_delta_.valid = true;
    last_delta_.from_topology = pending_.from_topology;
    last_delta_.from_liveness = pending_.from_liveness;
    last_delta_.to_topology = topology_version_;
    last_delta_.to_liveness = liveness_version_;
    last_delta_.dirty = dirty;
  }
}

void Network::patch_snapshot(const std::vector<NodeId>& dirty) const {
  const auto n = static_cast<NodeId>(nodes_.size());
  patch_offsets_.clear();
  patch_offsets_.reserve(n + 1);
  patch_offsets_.push_back(0);
  patch_adjacency_.clear();
  patch_distance_.clear();
  patch_adjacency_.reserve(snapshot_.adjacency.size() + 64);
  patch_distance_.reserve(snapshot_.hop_distance.size() + 64);
  NodeId next_clean = 0;
  for (std::size_t k = 0; k <= dirty.size(); ++k) {
    const NodeId stop = k < dirty.size() ? dirty[k] : n;
    if (stop > next_clean) {
      // Clean span [next_clean, stop): neighbour sets and hop distances
      // are untouched (a changed edge or moved endpoint would have put
      // one of these rows in the dirty set), so the rows copy verbatim
      // with a constant offset shift.
      const std::uint32_t old_begin = snapshot_.offsets[next_clean];
      const std::uint32_t old_end = snapshot_.offsets[stop];
      const auto base = static_cast<std::int64_t>(patch_adjacency_.size());
      patch_adjacency_.insert(patch_adjacency_.end(),
                              snapshot_.adjacency.begin() + old_begin,
                              snapshot_.adjacency.begin() + old_end);
      patch_distance_.insert(patch_distance_.end(),
                             snapshot_.hop_distance.begin() + old_begin,
                             snapshot_.hop_distance.begin() + old_end);
      const std::int64_t shift = base - old_begin;
      for (NodeId id = next_clean; id < stop; ++id) {
        patch_offsets_.push_back(
            static_cast<std::uint32_t>(snapshot_.offsets[id + 1] + shift));
      }
    }
    if (k == dirty.size()) break;
    patch_row_.clear();
    collect_neighbors(stop, patch_row_);
    for (NodeId peer : patch_row_) {
      patch_adjacency_.push_back(peer);
      patch_distance_.push_back(distance(nodes_[stop].pos, nodes_[peer].pos));
    }
    patch_offsets_.push_back(
        static_cast<std::uint32_t>(patch_adjacency_.size()));
    next_clean = stop + 1;
  }
  snapshot_.offsets.swap(patch_offsets_);
  snapshot_.adjacency.swap(patch_adjacency_);
  snapshot_.hop_distance.swap(patch_distance_);
  snapshot_.topology_version = topology_version_;
  snapshot_.liveness_version = liveness_version_;
  ++topo_stats_.snapshot_patches;
  topo_stats_.rows_patched += dirty.size();
}

void Network::refresh_dirty_distance(const std::vector<NodeId>& dirty) const {
  const std::size_t n = nodes_.size();
  bfs_dist_.assign(n, RouteCache::kUnreachable);
  if (dirty_flag_.size() < n) dirty_flag_.resize(n, 0);
  bfs_queue_.clear();
  for (NodeId d : dirty) {
    dirty_flag_[d] = 1;
    bfs_dist_[d] = 0;
    bfs_queue_.push_back(d);
  }
  // Rows are symmetric (connected() is), so a forward BFS from the dirty
  // set yields every node's hop distance TO it.  Dead dirty nodes have
  // empty rows and simply do not expand — correct, since no fresh route
  // can run through them.
  for (std::size_t head = 0; head < bfs_queue_.size(); ++head) {
    const NodeId at = bfs_queue_[head];
    const std::uint32_t next = bfs_dist_[at] + 1;
    for (NodeId peer : snapshot_.row(at)) {
      if (bfs_dist_[peer] == RouteCache::kUnreachable) {
        bfs_dist_[peer] = next;
        bfs_queue_.push_back(peer);
      }
    }
  }
}

void Network::bump_topology_version() {
  note_global_change();
  ++topology_version_;
}

std::optional<LinkClass> Network::link_between(NodeId a, NodeId b) const {
  if (fault_injector_ && fault_injector_->severed(a, b)) return std::nullopt;
  if (const WiredLink* w = find_wired(a, b)) {
    if (!w->up) return std::nullopt;
    return w->link;
  }
  if (!connected(a, b)) return std::nullopt;
  // Wireless: the slower radio bounds the hop.
  const LinkClass& la = nodes_[a].radio;
  const LinkClass& lb = nodes_[b].radio;
  return la.bandwidth_bps <= lb.bandwidth_bps ? la : lb;
}

void Network::transmit(NodeId from, NodeId to, std::uint64_t bytes,
                       DeliveryCallback cb) {
  auto link = link_between(from, to);
  if (!link) {
    // No usable link: fail asynchronously so callers see uniform semantics.
    sim_.schedule(sim::SimTime::zero(),
                  [cb = std::move(cb)]() mutable { cb(false); });
    return;
  }

  Node& sender = nodes_[from];
  Node& receiver = nodes_[to];
  const double dist = distance(sender.pos, receiver.pos);
  const RadioEnergyModel radio_model;

  // Boundary detection for SPMD partitioning: a frame whose endpoints live
  // in different regions is cross-shard traffic.  Counting it here — once
  // per logical send, before loss/retry resolution — lets the sharded
  // deployment verify that a region cut is radio-tight (zero crossings) or
  // meter exactly how much traffic must ride the mailbox.
  if (shard_map_ != nullptr && shard_map_->boundary(from, to)) {
    ++stats_.cross_region_frames;
  }

  // The injector sees every hop that found a usable link; its effects
  // (added loss, forced drop, duplication, jitter) compose with the link's
  // own loss model.  No injector => zero extra rng draws.
  FaultInjector::HopEffect effect;
  if (fault_injector_) effect = fault_injector_->on_transmit(from, to, bytes);

  // Decide attempts up front; deterministic given the rng stream.
  std::size_t attempts = 1;
  bool success = true;
  while (rng_.bernoulli(link->loss_prob + effect.extra_loss)) {
    if (attempts > max_retries_) {
      success = false;
      break;
    }
    ++attempts;
  }

  // Ledger charge for this hop, attributed to the active trace: payload
  // bytes per link-layer attempt (mirroring stats_.bytes_sent) and battery
  // joules actually drawn.
  telemetry::Cost usage;
  const auto subsystem = link->wireless ? telemetry::Subsystem::kWireless
                                        : telemetry::Subsystem::kBackhaul;

  sim::SimTime total = sim::SimTime::zero();
  bool sender_alive = true;
  for (std::size_t i = 0; i < attempts && sender_alive; ++i) {
    total += link->transfer_time(bytes);
    ++stats_.transmissions;
    stats_.bytes_sent += bytes;
    usage.bytes += bytes;
    ++usage.count;
    sender.tx_bytes += bytes;
    ++sender.tx_count;
    if (!sender.energy.is_unlimited() && link->wireless) {
      const double e = radio_model.tx_energy(bytes * 8, dist);
      stats_.energy_j += e;
      usage.joules += e;
      if (!consume_energy(sender, e)) sender_alive = false;
    }
  }
  if (!sender_alive) success = false;
  // A forced drop loses the payload in transit: the sender paid for every
  // attempt, the receiver never hears the frame.
  if (effect.drop) success = false;

  if (success) {
    receiver.rx_bytes += bytes;
    ++receiver.rx_count;
    if (!receiver.energy.is_unlimited() && link->wireless) {
      const double e = radio_model.rx_energy(bytes * 8);
      stats_.energy_j += e;
      usage.joules += e;
      if (!consume_energy(receiver, e)) success = false;
    }
  }

  if (success && effect.duplicate && sender_alive) {
    // A spurious retransmission both endpoints pay for: one extra link-layer
    // attempt plus one extra receive.  Upper layers still see exactly one
    // delivery; only resources and counters record the ghost copy.
    ++stats_.duplicated;
    ++stats_.transmissions;
    stats_.bytes_sent += bytes;
    usage.bytes += bytes;
    ++usage.count;
    sender.tx_bytes += bytes;
    ++sender.tx_count;
    receiver.rx_bytes += bytes;
    ++receiver.rx_count;
    if (link->wireless) {
      if (!sender.energy.is_unlimited()) {
        const double e = radio_model.tx_energy(bytes * 8, dist);
        stats_.energy_j += e;
        usage.joules += e;
        consume_energy(sender, e);
      }
      if (!receiver.energy.is_unlimited()) {
        const double e = radio_model.rx_energy(bytes * 8);
        stats_.energy_j += e;
        usage.joules += e;
        consume_energy(receiver, e);
      }
    }
  }

  if (success) {
    ++stats_.delivered;
  } else {
    ++stats_.dropped;
  }
  total += effect.extra_delay;
  ledger_.charge(subsystem, usage);
  sim_.schedule(total,
                [cb = std::move(cb), success]() mutable { cb(success); });
}

void Network::send_route(const std::vector<NodeId>& route, std::uint64_t bytes,
                         RouteCallback cb) {
  if (route.size() < 2) {
    sim_.schedule(
        sim::SimTime::zero(),
        [cb = std::move(cb), n = route.size()]() mutable { cb(n == 1, 0); });
    return;
  }
  // Fidelity dispatch: routes the installed flow model may serve resolve
  // analytically in one event; ineligible routes (packet-fidelity regions,
  // an attached reliable channel, armed chaos) fall through to the exact
  // hop-by-hop path below.
  if (flow_model_ != nullptr) {
    if (flow_model_->route_eligible(route)) {
      flow_model_->send_flow(route, bytes, std::move(cb));
      return;
    }
    flow_model_->note_packet_fallback();
  }
  // Hop-by-hop continuation: each delivery schedules the next hop.
  auto state = std::make_shared<std::size_t>(0);
  auto route_copy = std::make_shared<std::vector<NodeId>>(route);
  auto step = std::make_shared<std::function<void()>>();
  auto shared_cb = std::make_shared<RouteCallback>(std::move(cb));
  // `*step` captures `step`, a cycle that must be broken on the terminal
  // paths or the closure (and everything it holds) leaks.  The failure
  // path clears it directly (we execute inside transmit's callback, not
  // inside `*step`); the success path defers the clear to a zero-delay
  // event because destroying the std::function currently executing is UB.
  *step = [this, state, route_copy, bytes, step, shared_cb]() {
    const std::size_t hop = *state;
    if (hop + 1 >= route_copy->size()) {
      (*shared_cb)(true, hop);
      sim_.schedule(sim::SimTime::zero(), [step] { *step = nullptr; });
      return;
    }
    transmit((*route_copy)[hop], (*route_copy)[hop + 1], bytes,
             [state, step, shared_cb](bool ok) {
               if (!ok) {
                 (*shared_cb)(false, *state);
                 *step = nullptr;
                 return;
               }
               ++(*state);
               (*step)();
             });
  };
  (*step)();
}

void Network::deliver(NodeId src, NodeId dst, std::uint64_t bytes,
                      Budget budget, DeliveryCallback done,
                      const std::vector<NodeId>* route) {
  if (reliable_ != nullptr) {
    reliable_->unicast(src, dst, bytes, budget, std::move(done));
    return;
  }
  RouteCallback on_route = [done = std::move(done)](bool ok,
                                                    std::size_t) mutable {
    done(ok);
  };
  if (route != nullptr) {
    send_route(*route, bytes, std::move(on_route));
    return;
  }
  // Message bursts between the same endpoints hit the route cache;
  // topology changes and battery deaths invalidate it via the version
  // discipline.
  send_route(cached_shortest_path(*this, src, dst), bytes,
             std::move(on_route));
}

void Network::deliver_hop(NodeId from, NodeId to, std::uint64_t bytes,
                          Budget budget, DeliveryCallback done) {
  if (reliable_ != nullptr) {
    reliable_->acked_transmit(from, to, bytes, budget, std::move(done));
  } else {
    transmit(from, to, bytes, std::move(done));
  }
}

struct Network::SpreadState {
  std::uint64_t bytes = 0;
  std::size_t fanout = 0;  // 0 = flood (all neighbours)
  std::vector<bool> visited;
  std::size_t reached = 0;
  std::size_t in_flight = 0;
  VisitCallback on_visit;
  DoneCallback done;
  bool done_fired = false;
  /// Brackets the whole dissemination in the ledger (closed at quiesce).
  std::optional<telemetry::Span> span;
};

void Network::spread_from(const std::shared_ptr<SpreadState>& state,
                          NodeId at) {
  // The snapshot is rebuilt lazily on topology/liveness changes, so this
  // always equals neighbors(at) — but consecutive rebroadcasts within one
  // version share a single adjacency build instead of re-deriving
  // connectivity per reached node.
  const auto row = topology_snapshot().row(at);
  std::vector<NodeId> targets(row.begin(), row.end());
  if (state->fanout > 0 && targets.size() > state->fanout) {
    rng_.shuffle(std::span<NodeId>(targets));
    targets.resize(state->fanout);
  }
  for (NodeId next : targets) {
    // Nodes added after the spread started have no bookkeeping slot; they
    // were not part of the dissemination's population.
    if (next >= state->visited.size() || state->visited[next]) continue;
    // Mark before the transfer completes so concurrent branches do not
    // duplicate delivery (mirrors suppression of already-seen flood ids).
    state->visited[next] = true;
    ++state->in_flight;
    transmit(at, next, state->bytes, [this, state, next](bool ok) {
      --state->in_flight;
      if (ok) {
        ++state->reached;
        if (state->on_visit) state->on_visit(next);
        spread_from(state, next);
      } else {
        // The claim failed (frame loss, injected drop, or the target went
        // down mid-flood): release the bookkeeping entry so a branch that
        // reaches the node later — e.g. after churn brings it back up —
        // may still deliver.  Without this the node stays marked visited
        // forever and the flood silently blacklists it.  Termination is
        // unaffected: every reached node spreads exactly once, so each
        // node is re-claimed at most once per reached neighbour.
        state->visited[next] = false;
      }
      if (state->in_flight == 0 && !state->done_fired) {
        state->done_fired = true;
        if (state->span) state->span->close();
        if (state->done) state->done(state->reached);
      }
    });
  }
  if (state->in_flight == 0 && !state->done_fired) {
    state->done_fired = true;
    if (state->span) state->span->close();
    if (state->done) state->done(state->reached);
  }
}

void Network::flood(NodeId src, std::uint64_t bytes, VisitCallback on_visit,
                    DoneCallback done) {
  spread(src, bytes, 0, std::move(on_visit), std::move(done));
}

void Network::gossip(NodeId src, std::uint64_t bytes, std::size_t fanout,
                     VisitCallback on_visit, DoneCallback done) {
  spread(src, bytes, std::max<std::size_t>(1, fanout), std::move(on_visit),
         std::move(done));
}

void Network::spread(NodeId src, std::uint64_t bytes, std::size_t fanout,
                     VisitCallback on_visit, DoneCallback done) {
  auto state = std::make_shared<SpreadState>();
  state->bytes = bytes;
  state->fanout = fanout;
  state->visited.assign(nodes_.size(), false);
  state->on_visit = std::move(on_visit);
  state->done = std::move(done);
  if (!alive(src)) {
    sim_.schedule(sim::SimTime::zero(), [state] {
      if (state->done) state->done(0);
    });
    return;
  }
  state->visited[src] = true;
  state->reached = 1;
  state->span.emplace(ledger_, telemetry::Subsystem::kWireless);
  if (state->on_visit) state->on_visit(src);
  spread_from(state, src);
}

void Network::record_cross_region_flow(std::uint64_t bytes) {
  ++stats_.cross_region_frames;
  ++stats_.transmissions;
  ++stats_.delivered;
  stats_.bytes_sent += bytes;
  telemetry::Cost usage;
  usage.bytes = bytes;
  usage.count = 1;
  ledger_.charge(telemetry::Subsystem::kBackhaul, usage);
}

void Network::set_fault_injector(FaultInjector* injector) {
  if (fault_injector_ == injector) return;
  fault_injector_ = injector;
  // Installing or removing an injector can change connectivity answers
  // (partitions, blackouts) anywhere in the deployment, so routing caches
  // must not survive it; there is no row set to scope to.
  note_global_change();
  ++topology_version_;
}

void Network::set_node_up(NodeId id, bool up) {
  Node& n = nodes_.at(id);
  if (n.up != up) {
    // The affected rows are `id`'s own and those of its (potential)
    // neighbours — the same set whether the node is going down or coming
    // up, since the gather block is purely geometric.
    note_scoped_change(id);
    n.up = up;
    ++topology_version_;
  }
}

void Network::move_node(NodeId id, Vec3 position) {
  Node& n = nodes_.at(id);
  if (!(n.pos == position)) {
    note_scoped_change(id);  // rows near the OLD position
    n.pos = position;
    grid_.move(id, position);
    note_scoped_change(id);  // rows near the NEW position
    ++topology_version_;
  }
}

void Network::set_wired_link_up(NodeId a, NodeId b, bool up) {
  auto it = wired_index_.find(pair_key(a, b));
  if (it == wired_index_.end()) return;
  WiredLink& w = wired_[it->second];
  if (w.up != up) {
    // A wired toggle changes exactly the two endpoint rows — no gather
    // needed, the link is not geometric.
    begin_pending();
    if (!pending_.global) {
      pending_.nodes.push_back(a);
      pending_.nodes.push_back(b);
    }
    w.up = up;
    ++topology_version_;
  }
}

void Network::reset_stats() {
  stats_ = NetworkStats{};
  ledger_.reset();
  for (auto& n : nodes_) {
    n.tx_bytes = n.rx_bytes = 0;
    n.tx_count = n.rx_count = 0;
  }
}

void Network::reset_energy() {
  reset_stats();
  for (auto& n : nodes_) n.energy.reset();
  // Mass resurrection: every dead node's links reappear at once.
  note_global_change();
  ++topology_version_;
}

double Network::battery_energy_consumed() const {
  double total = 0.0;
  for (const auto& n : nodes_) {
    if (!n.energy.is_unlimited()) total += n.energy.consumed();
  }
  return total;
}

std::size_t Network::dead_node_count() const {
  std::size_t count = 0;
  for (const auto& n : nodes_) {
    if (!n.energy.is_unlimited() && n.energy.dead()) ++count;
  }
  return count;
}

std::vector<NodeId> deploy_grid(Network& network, std::size_t count,
                                double width_m, double height_m,
                                const NodeConfig& base_config) {
  std::vector<NodeId> ids;
  ids.reserve(count);
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(count))));
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t row = i / side;
    const std::size_t col = i % side;
    NodeConfig config = base_config;
    const double denom = side > 1 ? static_cast<double>(side - 1) : 1.0;
    config.pos = Vec3{width_m * static_cast<double>(col) / denom,
                      height_m * static_cast<double>(row) / denom, 0.0};
    ids.push_back(network.add_node(config));
  }
  return ids;
}

std::vector<NodeId> deploy_random(Network& network, std::size_t count,
                                  double width_m, double height_m,
                                  const NodeConfig& base_config,
                                  common::Rng& rng) {
  std::vector<NodeId> ids;
  ids.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    NodeConfig config = base_config;
    config.pos =
        Vec3{rng.uniform(0.0, width_m), rng.uniform(0.0, height_m), 0.0};
    ids.push_back(network.add_node(config));
  }
  return ids;
}

}  // namespace pgrid::net
