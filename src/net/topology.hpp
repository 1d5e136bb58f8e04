// Topology acceleration layer: the data structures that keep topology
// queries off the network hot path.
//
// The paper's runtime is defined by "low bandwidth, high latency,
// disconnections and dynamic topology" (Section 1), which means every
// message pays for topology questions: who is in radio range, what is the
// route, is the mesh partitioned.  Asked naively those cost O(N) per
// neighbour query and O(N^2) per route, the quadratic floor under every
// large sweep.  Four structures remove it:
//
//  - SpatialGrid: an incremental spatial hash over wireless node positions
//    (cell size = the largest radio range seen), updated in place by
//    mobility moves instead of rebuilt, so a neighbour query inspects only
//    the 3x3x3 cell block around a node.
//  - TopologySnapshot: a CSR-style flat adjacency built lazily once per
//    (topology, liveness) version and shared by Dijkstra, SinkTree
//    construction and flooding, so multi-node algorithms stop re-deriving
//    connectivity (distance + wired scan + fault-injector probe) per edge
//    per query.
//  - RouteCache: a bounded LRU of shortest-path results, valid for exactly
//    one (topology, liveness) version pair, so message bursts between the
//    same endpoints amortize one Dijkstra.
//  - HopTables: a bounded set of BFS hop-count tables toward hot
//    destinations, so many-to-one lookups (sensor -> broker, member ->
//    head) search only the nodes on a min-hop path instead of the whole
//    ball around the source.
//
// None of these structures draws randomness or changes answers: they are
// exact accelerators over Network::connected(), and the property suite
// (tests/property_topology_test.cpp) holds them bit-identical to the naive
// scan / fresh-Dijkstra oracles under mobility, churn and chaos.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/geometry.hpp"
#include "net/ids.hpp"

namespace pgrid::net {

/// Cell quantization shared by the SpatialGrid and the sharding layer's
/// ShardMap (net/shard_map.hpp): floor-division cell coordinates and the
/// mixed 64-bit cell key.  The shard map assigns regions at this exact
/// granularity, so "same cell" means the same thing to the spatial index
/// and to the region partition.
std::int64_t spatial_cell_coord(double v, double cell_m);
std::uint64_t spatial_cell_key(std::int64_t cx, std::int64_t cy,
                               std::int64_t cz);
std::uint64_t spatial_cell_key(Vec3 pos, double cell_m);

/// Incremental spatial hash over wireless node positions.  Cells are cubes
/// of side >= the largest radio range indexed, so every pair within mutual
/// range lands in adjacent cells and gather() over the cells within a
/// node's own range (at most a 3x3x3 block) is a superset of its true
/// radio neighbourhood.  Cell coordinates
/// are hashed to 64-bit keys; a key collision merely merges two buckets
/// (the caller filters candidates through the exact connectivity check),
/// so the structure is correct for any coordinates.
class SpatialGrid {
 public:
  /// Indexes a wireless node.  Growing the observed maximum range rebuilds
  /// the grid with larger cells (rare: once per distinct radio class).
  void insert(NodeId id, Vec3 pos, double range_m);

  /// Moves an indexed node to a new position; no-op for unindexed ids.
  void move(NodeId id, Vec3 pos);

  /// Appends every indexed node in the cells overlapping the box
  /// `pos ± range` around `id` (excluding `id` itself) to `out`.  Any
  /// connected peer lies within `id`'s own range (connectivity requires
  /// d <= min(ra, rb) <= ra), and range <= cell size, so the scan touches
  /// at most a 3x3x3 block — usually far fewer cells for short-range
  /// radios.  Unsorted, may contain hash-collision strays; always a
  /// superset of the in-range peers.
  void gather(NodeId id, std::vector<NodeId>& out) const;

  double cell_size_m() const { return cell_m_; }
  std::size_t indexed_count() const { return indexed_; }
  std::uint64_t rebuilds() const { return rebuilds_; }

 private:
  struct Entry {
    Vec3 pos;
    double range_m = 0.0;
    std::uint64_t key = 0;
    bool indexed = false;
  };

  std::uint64_t key_of(Vec3 pos) const;
  void rebuild(double new_cell_m);
  void remove_from_bucket(std::uint64_t key, NodeId id);

  std::unordered_map<std::uint64_t, std::vector<NodeId>> cells_;
  std::vector<Entry> entries_;  ///< indexed by NodeId
  double cell_m_ = 0.0;
  std::size_t indexed_ = 0;
  std::uint64_t rebuilds_ = 0;
};

/// Flat CSR adjacency of the whole deployment at one (topology, liveness)
/// version: row(id) lists the nodes directly reachable from `id`, in
/// ascending id order (the iteration-order contract of
/// Network::neighbors()), with the matching hop distances alongside for
/// Dijkstra's tie-break.  Built lazily by Network::topology_snapshot();
/// any topology bump or battery death invalidates it.
struct TopologySnapshot {
  std::uint64_t topology_version = 0;
  std::uint64_t liveness_version = 0;
  std::vector<std::uint32_t> offsets;  ///< size() + 1 entries
  std::vector<NodeId> adjacency;       ///< ascending ids per row
  std::vector<double> hop_distance;    ///< parallel to adjacency

  std::size_t size() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }
  std::size_t edge_count() const { return adjacency.size(); }

  std::span<const NodeId> row(NodeId id) const {
    if (id + 1 >= offsets.size()) return {};
    return {adjacency.data() + offsets[id],
            adjacency.data() + offsets[id + 1]};
  }
  std::span<const double> row_distance(NodeId id) const {
    if (id + 1 >= offsets.size()) return {};
    return {hop_distance.data() + offsets[id],
            hop_distance.data() + offsets[id + 1]};
  }
};

/// Hop-count sentinel of bfs_hop_counts(): reached from no source.
inline constexpr std::uint32_t kUnreachableHops =
    std::numeric_limits<std::uint32_t>::max();

/// Breadth-first hop counts over `topo`'s rows from the nearest of
/// `sources`: `hops` gets topo.size() entries, kUnreachableHops where no
/// source is reached.  Rows are symmetric (connected() is), so the counts
/// are equally every node's distance TO its nearest source.  `queue` is
/// caller-owned scratch.
void bfs_hop_counts(const TopologySnapshot& topo,
                    std::span<const NodeId> sources,
                    std::vector<std::uint32_t>& hops,
                    std::vector<NodeId>& queue);

/// Bounded LRU cache of shortest-path results, keyed by (src, dst) and
/// valid for exactly one (topology, liveness) version pair.  On a scoped
/// topology epoch (DESIGN.md S26) the network calls advance_epoch() with
/// the set of dirty rows, and only the entries a change could possibly
/// affect are dropped; after a global epoch the version mismatch empties
/// it wholesale on the next lookup.  Failed lookups (empty
/// routes) are cached too: "no route" is as deterministic as a route, and
/// recomputing it is the most expensive Dijkstra of all.
class RouteCache {
 public:
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t invalidations = 0;  ///< whole-cache clears (version bumps)
    std::uint64_t scoped_epochs = 0;  ///< advance_epoch() scoped applications
    std::uint64_t routes_dropped = 0;  ///< entries killed by a scoped epoch
    std::uint64_t routes_kept = 0;     ///< entries surviving a scoped epoch
    std::uint64_t revalidation_failures = 0;  ///< hits rejected by route recheck
  };

  explicit RouteCache(std::size_t capacity = 1024)
      : capacity_(capacity ? capacity : 1) {}

  /// The cached route for src -> dst at the given versions, or nullptr.
  /// The pointer is valid until the next insert() or find() call.
  const std::vector<NodeId>* find(NodeId src, NodeId dst,
                                  std::uint64_t topology_version,
                                  std::uint64_t liveness_version);

  void insert(NodeId src, NodeId dst, std::uint64_t topology_version,
              std::uint64_t liveness_version, std::vector<NodeId> route);

  /// Scoped invalidation for one incremental topology epoch.  `dirty_flag`
  /// marks the nodes whose adjacency rows changed between the (from, to)
  /// version pairs; `dist_to_dirty` is the hop distance from every node to
  /// the nearest dirty node in the NEW graph (kUnreachable when none).
  /// An entry survives only when the fresh Dijkstra provably returns the
  /// identical answer:
  ///  - a non-empty route survives iff no route node is dirty AND
  ///    dist[src] + dist[dst] > hops — any fresh path through the changed
  ///    region is then strictly worse, so the optimum (and its tie-break)
  ///    lies entirely in the untouched subgraph;
  ///  - a cached "no route" survives unless both endpoints can now reach
  ///    the dirty set (a path can only have appeared through changed rows).
  /// If the cache's versions do not match `from` (a missed epoch), the
  /// whole cache is cleared, as after a global epoch.
  static constexpr std::uint32_t kUnreachable = kUnreachableHops;
  void advance_epoch(std::uint64_t from_topology, std::uint64_t from_liveness,
                     std::uint64_t to_topology, std::uint64_t to_liveness,
                     const std::vector<char>& dirty_flag,
                     const std::vector<std::uint32_t>& dist_to_dirty);

  /// Books a hit whose route failed the per-hop revalidation check (the
  /// caller recomputes; see cached_shortest_path).
  void note_revalidation_failure() { ++stats_.revalidation_failures; }

  std::size_t size() const { return map_.size(); }
  std::size_t capacity() const { return capacity_; }
  const Stats& stats() const { return stats_; }

 private:
  using LruList = std::list<std::pair<std::uint64_t, std::vector<NodeId>>>;

  static std::uint64_t key_of(NodeId src, NodeId dst) {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  void sync_version(std::uint64_t topology_version,
                    std::uint64_t liveness_version);

  std::size_t capacity_;
  std::uint64_t topology_version_ = 0;
  std::uint64_t liveness_version_ = 0;
  bool has_version_ = false;
  LruList lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, LruList::iterator> map_;
  Stats stats_;
};

/// Per-destination hop tables for goal-directed route search (DESIGN.md
/// S2).  A table toward `dst` holds hop_to[v], the hop count from every
/// node v to dst: bfs_hop_counts() from dst.  Tables are valid for exactly
/// one (topology, liveness) version pair; any version change drops them
/// all.
///
/// A destination earns its table once unpruned searches toward it have
/// together explored kTriggerSweeps × n nodes: the BFS costs about n node
/// visits, so a table is only paid for after the searches it replaces have
/// already spent that much.  At most kCapacity tables are live, least
/// recently used evicted first; an evicted destination starts earning from
/// zero again.  Both rules are constants.
class HopTables {
 public:
  static constexpr std::size_t kCapacity = 8;
  static constexpr std::size_t kTriggerSweeps = 1;

  /// hop_to[] toward `dst` at `topo`'s versions (topo.size() entries,
  /// kUnreachableHops where disconnected), building it if dst has earned
  /// one; nullptr otherwise.  Valid until the next find() call.
  const std::uint32_t* find(const TopologySnapshot& topo, NodeId dst);

  /// Books `explored` nodes visited by an unpruned search toward `dst` at
  /// the versions of the last find().
  void note_search(NodeId dst, std::size_t explored);

  /// Tables built so far (every build, including rebuilds after eviction
  /// or a version change).
  std::uint64_t built() const { return built_; }
  /// Tables live at the current versions (at most kCapacity).
  std::size_t size() const;

 private:
  static constexpr std::uint8_t kNoSlot = 0xff;
  static_assert(kCapacity < kNoSlot);

  struct Table {
    NodeId dst = kInvalidNode;  ///< kInvalidNode: slot free
    std::uint64_t last_used = 0;
    std::vector<std::uint32_t> hop_to;
  };

  void sync(const TopologySnapshot& topo);

  std::uint64_t topology_version_ = 0;
  std::uint64_t liveness_version_ = 0;
  bool has_version_ = false;
  std::array<Table, kCapacity> tables_;
  std::vector<std::uint8_t> slot_;     ///< per node: tables_ index or kNoSlot
  std::vector<std::size_t> explored_;  ///< per node: unpruned search nodes
  std::vector<NodeId> counted_;        ///< nodes whose explored_ may be != 0
  std::vector<NodeId> queue_;          ///< BFS scratch
  std::uint64_t clock_ = 0;
  std::uint64_t built_ = 0;
};

}  // namespace pgrid::net
