// Simulated network of wireless and wired nodes.
//
// Models exactly the transport-level pathologies the paper requires the
// runtime to tolerate: "low bandwidth, high latency, frequent disconnections
// and network topology changes" (Section 1), plus the per-bit radio energy
// accounting that drives the dynamic-partitioning study (Section 4).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "common/small_fn.hpp"
#include "net/energy.hpp"
#include "net/geometry.hpp"
#include "net/ids.hpp"
#include "net/link.hpp"
#include "net/shard_map.hpp"
#include "net/topology.hpp"
#include "sim/simulator.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::net {

class FlowModel;
class ReliableChannel;

/// Coarse role of a node; upper layers attach richer metadata.
enum class NodeKind { kSensor, kBaseStation, kHandheld, kGrid, kGeneric };

std::string to_string(NodeKind kind);

/// Parameters for creating a node.
struct NodeConfig {
  Vec3 pos;
  NodeKind kind = NodeKind::kGeneric;
  LinkClass radio = LinkClass::sensor_radio();
  /// Battery budget in joules; ignored when unlimited_energy is set.
  double battery_j = 2.0;
  /// Mains-powered nodes (base stations, grid machines, handhelds during a
  /// short incident) never run out.
  bool unlimited_energy = false;
};

/// Runtime state of a node.  Its battery meter lives in the network's
/// dense per-node array (Network::energy), not here.
struct Node {
  NodeId id = kInvalidNode;
  Vec3 pos;
  NodeKind kind = NodeKind::kGeneric;
  LinkClass radio;
  bool up = true;

  std::uint64_t tx_bytes = 0;
  std::uint64_t rx_bytes = 0;
  std::uint64_t tx_count = 0;
  std::uint64_t rx_count = 0;
};

/// Diagnostics for the topology acceleration layer (spatial index,
/// adjacency snapshot, incremental epochs, hop tables); route-cache
/// counters live on the RouteCache.
struct TopologyStats {
  std::uint64_t neighbor_queries = 0;  ///< indexed neighbors() calls
  std::uint64_t snapshot_builds = 0;   ///< lazy full CSR rebuilds (per version)
  std::uint64_t snapshot_patches = 0;  ///< delta CSR patches (scoped epochs)
  std::uint64_t rows_patched = 0;      ///< adjacency rows rewritten by patches
  std::uint64_t scoped_epochs = 0;     ///< pending deltas applied scoped
  std::uint64_t global_epochs = 0;     ///< pending deltas widened to a rebuild
  std::uint64_t hop_tables_built = 0;  ///< goal-directed search tables built
};

/// Retired knob: incremental topology epochs (DESIGN.md S26) are the only
/// discipline, so nothing reads `incremental`.  The field stays only until
/// the perf harness stops assigning it.
struct TopologyConfig {
  bool incremental = false;
};

/// One applied scoped epoch: the half-open version advance and the sorted
/// set of nodes whose adjacency rows changed.  Consumers holding caches
/// keyed on older versions (the flow model's plan cache) can apply it
/// scoped iff their versions lie within [from, to]; consecutive epochs
/// merge so a consumer that syncs rarely still sees one covering delta.
struct ScopedDelta {
  bool valid = false;
  std::uint64_t from_topology = 0;
  std::uint64_t from_liveness = 0;
  std::uint64_t to_topology = 0;
  std::uint64_t to_liveness = 0;
  std::vector<NodeId> dirty;  ///< sorted, deduplicated
};

/// A deadline budget: the absolute simulated time by which the work it
/// governs must finish.  Passing the same Budget down a causal chain is the
/// "decrement": every layer sees the remaining time shrink as now advances.
struct Budget {
  sim::SimTime deadline{std::numeric_limits<std::int64_t>::max()};

  static constexpr Budget unlimited() { return Budget{}; }
  static constexpr Budget until(sim::SimTime when) { return Budget{when}; }

  constexpr bool bounded() const {
    return deadline.us != std::numeric_limits<std::int64_t>::max();
  }
  constexpr bool expired(sim::SimTime now) const {
    return bounded() && now >= deadline;
  }
  /// Remaining span (clamped at zero); unbounded budgets report the max.
  constexpr sim::SimTime remaining(sim::SimTime now) const {
    if (!bounded()) return deadline;
    return now >= deadline ? sim::SimTime::zero() : deadline - now;
  }
  /// The tighter of two budgets.
  constexpr Budget tightened(Budget other) const {
    return deadline <= other.deadline ? *this : other;
  }
  /// Clamps a relative timeout so it never extends past the deadline.
  constexpr sim::SimTime clamp(sim::SimTime now, sim::SimTime span) const {
    if (!bounded()) return span;
    const sim::SimTime left = remaining(now);
    return span <= left ? span : left;
  }
};

/// Aggregate traffic/energy counters for one experiment run.
struct NetworkStats {
  std::uint64_t transmissions = 0;  ///< link-layer attempts (incl. retries)
  std::uint64_t delivered = 0;      ///< successful single-hop deliveries
  std::uint64_t dropped = 0;        ///< single-hop failures after retries
  std::uint64_t duplicated = 0;     ///< injected duplicate deliveries
  std::uint64_t bytes_sent = 0;     ///< payload bytes over all attempts
  double energy_j = 0.0;            ///< radio energy across battery nodes
  /// Frames whose endpoints sit in different shard-map regions — traffic
  /// that, under SPMD partitioning, must ride the cross-shard mailbox.
  /// Stays 0 (and costs nothing) until a ShardMap is installed.
  std::uint64_t cross_region_frames = 0;
};

/// Transport-level fault-injection hook, installed by the chaos engine
/// (`sim::ChaosEngine`).  The network consults it on the send path and in
/// connectivity queries; when none is installed behaviour (including rng
/// consumption) is bit-identical to a fault-free deployment.
class FaultInjector {
 public:
  /// Per-hop effect, decided once per transmit() call.
  struct HopEffect {
    bool drop = false;           ///< lose the payload after the sender paid
    bool duplicate = false;      ///< receiver also processes a second copy
    sim::SimTime extra_delay{};  ///< jitter added to the completion time
    double extra_loss = 0.0;     ///< added per-attempt frame loss probability
  };

  virtual ~FaultInjector() = default;

  /// True while an active partition or link blackout severs a <-> b.  Must
  /// be symmetric; consulted from connectivity queries, so routing, trees
  /// and discovery all observe the cut.
  virtual bool severed(NodeId a, NodeId b) const = 0;

  /// Consulted once per transmit() that found a usable link.
  virtual HopEffect on_transmit(NodeId from, NodeId to,
                                std::uint64_t bytes) = 0;
};

/// The simulated network.  All sends are asynchronous: callbacks fire from
/// the simulator when the (simulated) transfer completes.
class Network {
 public:
  /// Move-only small-buffer callables: the unicast delivery paths —
  /// including the reliability layer's retransmissions — complete without
  /// allocating for their continuations.  DeliveryCallback's 40-byte buffer
  /// makes it 48 bytes, so transmit()'s completion event (the callback
  /// plus the outcome) fits sim::Simulator::Callback's buffer and deliver()'s
  /// RouteCallback wrapper fits RouteCallback's: neither spills.  Captures
  /// past 40 bytes still work but allocate.  Dissemination callbacks stay
  /// std::function (they are copied across branches).
  using DeliveryCallback = common::SmallFn<void(bool delivered), 40>;
  using RouteCallback =
      common::SmallFn<void(bool delivered, std::size_t hops)>;
  using VisitCallback = std::function<void(NodeId)>;
  using DoneCallback = std::function<void(std::size_t reached)>;

  Network(sim::Simulator& simulator, common::Rng rng);

  NodeId add_node(const NodeConfig& config);
  /// Adds an explicit bidirectional wired link (grid backhaul etc.).
  void add_wired_link(NodeId a, NodeId b, LinkClass link = LinkClass::wired());

  std::size_t size() const { return nodes_.size(); }
  Node& node(NodeId id) { return nodes_.at(id); }
  const Node& node(NodeId id) const { return nodes_.at(id); }
  /// The node's battery meter.  Meters are held densely in node order, so
  /// battery_energy_consumed() reads 24 bytes per node, not a whole Node;
  /// draws go through the network (transmit, drain_energy, reset_energy).
  const EnergyMeter& energy(NodeId id) const { return energy_.at(id); }

  /// Node is administratively up and has battery left.
  bool alive(NodeId id) const;

  /// Usable direct link exists right now (both alive; wireless in range or a
  /// wired link is up): link_between(a, b) != nullptr.
  bool connected(NodeId a, NodeId b) const {
    return link_between(a, b) != nullptr;
  }

  /// All nodes directly reachable from `id` right now, ascending id order.
  /// Served from the spatial index + wired peer lists: only the 3x3x3 cell
  /// block around the node is inspected, not the whole deployment.
  std::vector<NodeId> neighbors(NodeId id) const;

  /// Reference implementation of neighbors(): the O(N) scan over every
  /// node.  Kept as the oracle for the topology property tests and the
  /// indexed-vs-naive bench series; answers are always identical to
  /// neighbors().
  std::vector<NodeId> neighbors_naive(NodeId id) const;

  /// Flat CSR adjacency of the whole deployment at the current (topology,
  /// liveness) version, shared by Dijkstra, SinkTree construction and
  /// flooding.  Scoped mutations (moves, up/down, wired toggles, battery
  /// deaths) are patched in row-wise on access; global epochs rebuild it.
  const TopologySnapshot& topology_snapshot() const;

  /// The deployment's shortest-path cache (see net::cached_shortest_path).
  /// Mutable through a const network: caching never changes answers.
  RouteCache& route_cache() const { return route_cache_; }

  /// The deployment's per-destination hop tables, which shortest_path()
  /// uses to search toward hot destinations.  Mutable through a const
  /// network for the same reason as route_cache().
  HopTables& hop_tables() const { return hop_tables_; }

  /// The link a transmission a->b would use right now, or nullptr when
  /// connected() would say no: the wired link's class if the pair has one
  /// (nullptr while it is down), else the slower endpoint's radio when both
  /// are wireless and in mutual range.  Checks run in a fixed order: self
  /// pair, fault-injector cut, endpoint liveness, wired lookup (skipped
  /// for nodes with no wired peers), radio range.  The pointer aims into
  /// the node or wired-link table and stays valid until the next
  /// add_node() / add_wired_link().
  const LinkClass* link_between(NodeId a, NodeId b) const;

  /// Single-hop transfer with loss + bounded retransmission. Consumes radio
  /// energy on battery nodes; cb(false) after max_retries failed attempts or
  /// if no usable link exists.
  void transmit(NodeId from, NodeId to, std::uint64_t bytes,
                DeliveryCallback cb);

  /// Sends a payload hop by hop along an explicit route (route includes both
  /// endpoints).  Fails fast when a hop breaks.
  void send_route(const std::vector<NodeId>& route, std::uint64_t bytes,
                  RouteCallback cb);

  /// End-to-end transfer src -> dst under the deployment's delivery
  /// discipline; the one place that chooses it.  With a reliable channel
  /// attached this is ReliableChannel::unicast: acked per hop, bounded by
  /// `budget`, routing and re-routing itself (`route` is ignored).
  /// Without one it is a best-effort send_route along `route`, or along
  /// cached_shortest_path(src, dst) when `route` is null, and `budget` is
  /// ignored.  An empty route fails on the next event.
  void deliver(NodeId src, NodeId dst, std::uint64_t bytes, Budget budget,
               DeliveryCallback done,
               const std::vector<NodeId>* route = nullptr);

  /// Single-hop counterpart of deliver(): ReliableChannel::acked_transmit
  /// with a channel attached, transmit() without one.
  void deliver_hop(NodeId from, NodeId to, std::uint64_t bytes, Budget budget,
                   DeliveryCallback done);

  /// Flooding dissemination: every reached node rebroadcasts once.
  /// `on_visit` fires per reached node (including src); `done` fires when the
  /// flood quiesces with the count of reached nodes.
  void flood(NodeId src, std::uint64_t bytes, VisitCallback on_visit,
             DoneCallback done);

  /// Gossip dissemination: each reached node forwards to up to `fanout`
  /// random neighbours.  Cheaper than flooding, probabilistic coverage.
  void gossip(NodeId src, std::uint64_t bytes, std::size_t fanout,
              VisitCallback on_visit, DoneCallback done);

  /// Administrative up/down, used by the churn models.  Bumps the topology
  /// version so routing caches invalidate.
  void set_node_up(NodeId id, bool up);
  void set_wired_link_up(NodeId a, NodeId b, bool up);

  /// Moves a node (mobility); bumps the topology version.
  void move_node(NodeId id, Vec3 position);

  /// Incremented on every topology-affecting change.
  std::uint64_t topology_version() const { return topology_version_; }

  /// Incremented when a battery node dies of energy exhaustion.  Battery
  /// death changes connectivity answers without bumping topology_version()
  /// (upper layers deliberately keep stale sink trees across it), so the
  /// snapshot and route cache track both versions.
  std::uint64_t liveness_version() const { return liveness_version_; }

  /// Drains battery energy outside a transmission (e.g. the chaos engine's
  /// reboot state loss).  Routed through the network so a resulting death
  /// invalidates the snapshot and route cache; does not charge the ledger.
  void drain_energy(NodeId id, double joules);

  /// Installs (or clears, with nullptr) the transport fault injector.
  /// At most one is active; the chaos engine installs itself.
  void set_fault_injector(FaultInjector* injector);
  FaultInjector* fault_injector() const { return fault_injector_; }

  /// Installs (or clears) the SPMD region map.  With a map installed the
  /// send path detects boundary crossings (stats().cross_region_frames) —
  /// the partition-validation signal the sharded deployment and its tests
  /// use to prove a region cut is radio-tight.  Non-owning; no map means
  /// bit-identical legacy behaviour.
  void set_shard_map(const ShardMap* map) { shard_map_ = map; }
  const ShardMap* shard_map() const { return shard_map_; }
  /// Region of a node under the installed map (kInvalidRegion without one).
  RegionId region_of(NodeId id) const {
    return shard_map_ ? shard_map_->region_of(id) : kInvalidRegion;
  }

  /// Installs (or clears, with nullptr) the analytic flow tier
  /// (net/flow.hpp).  With a model installed, send_route dispatches
  /// flow-eligible routes to the single-event analytic path; everything
  /// else — and everything when no model is installed — runs the packet
  /// tier byte-for-byte unchanged.  Non-owning; the runtime owns the model.
  void set_flow_model(FlowModel* model) { flow_model_ = model; }
  FlowModel* flow_model() const { return flow_model_; }

  /// Attaches (or detaches, with nullptr) the end-to-end reliability layer
  /// (net/reliable.hpp) behind deliver() and deliver_hop().  Non-owning;
  /// the runtime owns the channel.
  void set_reliable_channel(ReliableChannel* channel) { reliable_ = channel; }
  ReliableChannel* reliable_channel() const { return reliable_; }

  /// Books one flow-level cross-region backhaul completion: the sharded
  /// deployment's barrier-exchange transfers land here so
  /// stats().cross_region_frames counts flows and frames consistently
  /// (once per logical transfer, charged at the sending network).
  void record_cross_region_flow(std::uint64_t bytes);

  /// Explicit topology-version bump for external connectivity modifiers
  /// (the fault injector's partitions and blackouts change what
  /// connected() answers without touching node or link state).  Always a
  /// global epoch: the caller cannot name the affected rows.
  void bump_topology_version();

  /// Applies any pending topology delta to the snapshot, route cache and
  /// last_scoped_delta().  No-op when nothing changed.  Called by the
  /// cached-route and flow-plan paths before they consult their caches;
  /// cheap enough to call speculatively.
  void sync_topology_caches() const;

  /// The most recent scoped epoch(s) applied, merged; invalid after a
  /// global epoch (consumers must clear wholesale).
  const ScopedDelta& last_scoped_delta() const { return last_delta_; }

  /// Epoch widening caps (DESIGN.md S26, measured by EXP-N3).  A scoped
  /// epoch whose deduplicated dirty set exceeds n / kPatchCapDivisor rows
  /// rebuilds the snapshot instead of patching it (the merged
  /// last_scoped_delta() obeys the same cap), and one whose accumulated
  /// candidates exceed kAccumulationCapFactor * n stops accumulating and
  /// widens to a global epoch.
  static constexpr std::size_t kPatchCapDivisor = 2;
  static constexpr std::size_t kAccumulationCapFactor = 4;

  std::size_t max_retries() const { return max_retries_; }
  void set_max_retries(std::size_t retries) { max_retries_ = retries; }

  const NetworkStats& stats() const { return stats_; }
  const TopologyStats& topology_stats() const;
  const SpatialGrid& spatial_grid() const { return grid_; }
  /// Clears aggregate stats, per-node counters, and the cost ledger.
  void reset_stats();
  /// Also clears per-node counters and refills batteries.
  void reset_energy();

  /// The deployment's cost ledger.  Every transmission charges it (bytes
  /// per attempt, battery joules actually drawn) under the active trace;
  /// upper layers (agents, grid, sensornet, executor) charge their own
  /// subsystems through the same ledger.
  telemetry::CostLedger& telemetry() { return ledger_; }
  const telemetry::CostLedger& telemetry() const { return ledger_; }

  /// Sum of energy consumed by battery-powered nodes.
  double battery_energy_consumed() const;
  /// Count of battery nodes whose budget is exhausted.
  std::size_t dead_node_count() const;

  sim::Simulator& simulator() { return sim_; }

 private:
  /// The flow tier mirrors the packet tier's books (stats, ledger, battery
  /// draws via consume_energy) without re-deriving them through public
  /// wrappers, so it reaches into the same internals transmit() uses.
  friend class FlowModel;

  struct WiredLink {
    NodeId a;
    NodeId b;
    LinkClass link;
    bool up = true;
  };

  struct SpreadState;  // shared bookkeeping for flood/gossip

  /// One best-effort send_route message: the route, its payload, the next
  /// hop to send and the caller's callback, shared by its hop completions.
  struct RouteState {
    std::vector<NodeId> route;
    std::uint64_t bytes = 0;
    std::size_t hop = 0;
    RouteCallback cb;
  };
  /// Sends hop `state->hop` of the message, or completes it at the end.
  void route_step(std::shared_ptr<RouteState> state);

  /// Canonical key for an unordered node pair (wired-link index).
  static std::uint64_t pair_key(NodeId a, NodeId b) {
    const NodeId lo = a < b ? a : b;
    const NodeId hi = a < b ? b : a;
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }

  /// The first wired link added for {a, b}; no hash lookup when `a` has
  /// no wired peers (every sensor).
  const WiredLink* find_wired(NodeId a, NodeId b) const;
  /// Shared entry point of flood() (fanout 0 = every neighbour) and
  /// gossip().
  void spread(NodeId src, std::uint64_t bytes, std::size_t fanout,
              VisitCallback on_visit, DoneCallback done);
  void spread_from(const std::shared_ptr<SpreadState>& state, NodeId at);
  /// Candidate gathering + exact filtering behind neighbors() and the
  /// snapshot build; appends the sorted neighbour set of `id` to `out`.
  void collect_neighbors(NodeId id, std::vector<NodeId>& out) const;
  /// Energy draw that bumps liveness_version_ on a death transition.
  bool consume_energy(NodeId id, double joules);

  /// Pending-delta accumulation (DESIGN.md S26).  Mutators call these
  /// BEFORE bumping a version, so the base versions the delta advances
  /// from are captured exactly once per epoch.
  void begin_pending() const;
  /// Marks the rows a change at `id` can affect dirty: the node itself,
  /// every wireless peer p with d(p, id) <= min(r_p, r_id) (connected()'s
  /// own range test, liveness aside) and its wired peers.
  void note_scoped_change(NodeId id) const;
  /// Widens the pending delta to a full rebuild (unscopeable mutation).
  void note_global_change() const;
  /// Applies the pending delta: patch or rebuild + scoped cache epoch.
  void apply_pending() const;
  /// Rewrites exactly the dirty rows of snapshot_ in one splice pass;
  /// clean row spans are copied verbatim (their neighbour sets and hop
  /// distances are untouched by construction of the dirty set).
  void patch_snapshot(const std::vector<NodeId>& dirty) const;
  /// Multi-source BFS over the NEW snapshot from the dirty set, filling
  /// bfs_dist_ (RouteCache::kUnreachable where disconnected) and
  /// dirty_flag_.
  void refresh_dirty_distance(const std::vector<NodeId>& dirty) const;

  sim::Simulator& sim_;
  common::Rng rng_;
  telemetry::CostLedger ledger_;
  std::vector<Node> nodes_;
  std::vector<EnergyMeter> energy_;  ///< per node, in node order
  std::vector<WiredLink> wired_;
  /// (min,max) pair -> index of the first wired_ entry for that pair; the
  /// first link added wins, matching the historical linear-scan semantics.
  std::unordered_map<std::uint64_t, std::uint32_t> wired_index_;
  /// Per-node wired peers (deduplicated), merged into neighbour candidates.
  std::vector<std::vector<NodeId>> wired_peers_;
  SpatialGrid grid_;
  NetworkStats stats_;
  std::size_t max_retries_ = 3;
  std::uint64_t topology_version_ = 0;
  std::uint64_t liveness_version_ = 0;
  FaultInjector* fault_injector_ = nullptr;
  const ShardMap* shard_map_ = nullptr;
  FlowModel* flow_model_ = nullptr;
  ReliableChannel* reliable_ = nullptr;

  // Acceleration state: logically caches, so mutable behind const queries.
  mutable TopologySnapshot snapshot_;
  mutable bool snapshot_built_ = false;
  mutable RouteCache route_cache_;
  mutable HopTables hop_tables_;
  mutable std::vector<NodeId> scratch_;  ///< candidate buffer (single-threaded)
  mutable TopologyStats topo_stats_;

  // Incremental-epoch state.
  struct PendingDelta {
    bool active = false;  ///< a delta is accumulating since (from_*)
    bool global = false;  ///< widened: apply as a full rebuild + clear
    std::uint64_t from_topology = 0;
    std::uint64_t from_liveness = 0;
    std::vector<NodeId> nodes;  ///< dirty candidates (unsorted, duplicates ok)
  };
  mutable PendingDelta pending_;
  mutable ScopedDelta last_delta_;
  mutable std::vector<char> dirty_flag_;          ///< per-node dirty marks
  mutable std::vector<std::uint32_t> bfs_dist_;   ///< hops to nearest dirty
  mutable std::vector<NodeId> bfs_queue_;
  mutable std::vector<std::uint32_t> patch_offsets_;  ///< splice scratch
  mutable std::vector<NodeId> patch_adjacency_;
  mutable std::vector<double> patch_distance_;
  mutable std::vector<NodeId> patch_row_;
  mutable std::vector<NodeId> merge_buffer_;  ///< last_delta_ union scratch
};

/// Places `count` nodes on a uniform grid inside [0,width]x[0,height] at
/// z = 0; returns their ids.  Convenience for the building scenarios.
std::vector<NodeId> deploy_grid(Network& network, std::size_t count,
                                double width_m, double height_m,
                                const NodeConfig& base_config);

/// Places nodes uniformly at random in the same rectangle.
std::vector<NodeId> deploy_random(Network& network, std::size_t count,
                                  double width_m, double height_m,
                                  const NodeConfig& base_config,
                                  common::Rng& rng);

}  // namespace pgrid::net
