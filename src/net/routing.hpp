// Routing over the simulated network: shortest-path unicast routes and
// sink-rooted routing trees.
//
// The paper notes "the data routing technique used in the network would not
// be the same for all networks. A particular network may use flooding ... ,
// while another may use gossiping."  Flooding and gossip live on Network
// itself (they are dissemination processes, not route computations); this
// header provides the deterministic route-based alternatives, including the
// aggregation-tree substrate used by the TAG-style solution models.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/network.hpp"

namespace pgrid::net {

/// Dijkstra shortest path by hop count with distance tie-break.  Returns an
/// empty vector when no route exists.  Both endpoints are included.
/// Iterates the network's shared TopologySnapshot (CSR adjacency built
/// lazily once per topology/liveness version) instead of re-deriving
/// connectivity per expanded node.
/// Toward a destination that earlier lookups have made hot, the search is
/// goal-directed through the network's HopTables: it expands only nodes on
/// a min-hop path, with the identical answer.
std::vector<NodeId> shortest_path(const Network& network, NodeId src,
                                  NodeId dst);

/// Reference implementation of shortest_path() over the naive O(N)
/// neighbour scan, bypassing the spatial index, snapshot and cache.  Kept
/// as the oracle for the topology property tests and the bench baseline;
/// answers are always identical to shortest_path().
std::vector<NodeId> shortest_path_naive(const Network& network, NodeId src,
                                        NodeId dst);

/// shortest_path() through the network's LRU route cache, keyed by
/// (src, dst) and valid for one (topology, liveness) version pair — chaos
/// faults, churn, mobility and battery deaths all invalidate it through
/// the version discipline.  Incremental topology epochs (DESIGN.md S26)
/// apply the pending delta first and drop only the entries a change could
/// affect, so mobility keeps the warm-hit path alive; global epochs clear
/// the cache wholesale.  Surviving hits are additionally revalidated
/// hop-by-hop against live connectivity before being served.  This is the
/// hot entry point for the agent platform's envelope delivery and the
/// sensornet unicast paths, where message bursts between the same
/// endpoints amortize one Dijkstra.
std::vector<NodeId> cached_shortest_path(const Network& network, NodeId src,
                                         NodeId dst);

/// A routing tree rooted at a sink (base station), built over the current
/// topology.  This is the substrate for TAG-style in-network aggregation:
/// children report partial aggregates to parents, epoch by epoch.
class SinkTree {
 public:
  /// Builds a BFS tree (min-hop, nearest-parent tie-break) rooted at sink.
  SinkTree(const Network& network, NodeId sink);

  NodeId sink() const { return sink_; }
  bool contains(NodeId id) const;
  /// Parent on the path to the sink; kInvalidNode for the sink itself or
  /// unreachable nodes.
  NodeId parent(NodeId id) const;
  /// Hop distance from the sink; SIZE_MAX if unreachable.
  std::size_t depth(NodeId id) const;
  /// Deepest reachable node, cached at construction (the build already
  /// visits every depth once).
  std::size_t max_depth() const { return max_depth_; }
  /// Route from `id` up to the sink (inclusive both ends); empty when
  /// unreachable.
  std::vector<NodeId> route_to_sink(NodeId id) const;
  /// All reachable node ids, sink first, in breadth-first order.  Iterating
  /// in reverse visits leaves before their parents (aggregation order).
  const std::vector<NodeId>& bfs_order() const { return order_; }
  /// The nodes at hop distance `depth`, in BFS order: a contiguous slice of
  /// bfs_order() (depths never decrease along it).  Empty past max_depth()
  /// or for a tree whose sink is dead.
  std::span<const NodeId> level(std::size_t depth) const;
  /// Topology version the tree was built against (staleness check).
  std::uint64_t built_at_version() const { return version_; }

 private:
  NodeId sink_;
  std::vector<NodeId> parent_;
  std::vector<std::size_t> depth_;
  std::vector<NodeId> order_;
  /// level(d) is order_[level_start_[d], level_start_[d + 1]).
  std::vector<std::size_t> level_start_;
  std::uint64_t version_;
  std::size_t max_depth_ = 0;
};

}  // namespace pgrid::net
