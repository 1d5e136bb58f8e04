#include "net/routing.hpp"

#include <algorithm>
#include <limits>

namespace pgrid::net {

namespace {

constexpr std::size_t kUnreachable = std::numeric_limits<std::size_t>::max();

/// Dijkstra with cost = (hops, total distance), parameterized over an
/// adjacency source so the snapshot-backed fast path and the naive oracle
/// expand nodes identically: `for_each_edge(at, fn)` must invoke
/// `fn(next, hop_distance)` in ascending-`next` order.
///
/// Every edge adds one hop and hops compare first, so a (cost, node) heap
/// pops level by level, each level in ascending (distance, node) order.
/// Sorting each level's batch reproduces that order, ties included, and
/// dst's route is final once its level is reached.  The search state is
/// thread-local and reused: a lookup allocates only its result, and it
/// resets only the entries the previous lookup touched (a member-to-head
/// search reaches a few dozen nodes of thousands), so its cost follows the
/// explored region rather than the network size.  `explored` receives the
/// number of nodes the search reached.
///
/// With a hop table (`hop_to`, hop counts to dst; see HopTables) the search
/// is goal-directed: it relaxes at->to only when hop_to[to] + 1 ==
/// hop_to[at], and a source the table cannot reach answers {} at once.  The
/// route is unchanged.  Let H = hop_to[src].  Hop distance changes by at
/// most one per edge, so a node v reached in k hops with hop_to[v] = H - k
/// is on a min-hop src->dst path, and so is every level-(k-1) node that can
/// relax it (its hop_to is at most H - k + 1 and at least H - (k - 1)).
/// Those predecessors pass the filter, by induction carry the same `best`,
/// and keep their (distance, node) rank within the smaller level, so
/// `best` and `prev` along dst's route — ties included — match the full
/// search.
template <typename ForEachEdge>
std::vector<NodeId> dijkstra(const Network& network, NodeId src, NodeId dst,
                             const std::uint32_t* hop_to,
                             std::size_t& explored,
                             ForEachEdge&& for_each_edge) {
  explored = 0;
  const std::size_t n = network.size();
  if (src >= n || dst >= n || !network.alive(src) || !network.alive(dst)) {
    return {};
  }
  if (src == dst) return {src};
  if (hop_to && hop_to[src] == kUnreachableHops) return {};

  using Cost = std::pair<std::size_t, double>;
  using Entry = std::pair<double, NodeId>;  // (distance, node) in a level
  constexpr Cost kUnset{kUnreachable, 0.0};
  thread_local std::vector<Cost> best;
  thread_local std::vector<NodeId> prev;
  thread_local std::vector<NodeId> touched;
  thread_local std::vector<Entry> level, next;
  for (NodeId id : touched) {
    best[id] = kUnset;
    prev[id] = kInvalidNode;
  }
  touched.clear();
  if (best.size() < n) {
    best.resize(n, kUnset);
    prev.resize(n, kInvalidNode);
  }
  best[src] = {0, 0.0};
  touched.push_back(src);
  level.assign(1, {0.0, src});

  for (std::size_t hops = 0; !level.empty() && best[dst].first > hops;
       ++hops) {
    std::sort(level.begin(), level.end());
    next.clear();
    for (const auto& [dist, at] : level) {
      if (Cost{hops, dist} > best[at]) continue;  // superseded entry
      for_each_edge(at, [&](NodeId to, double d) {
        // Widened so an unreachable entry (kUnreachableHops) plus one
        // cannot wrap onto a real hop count.
        if (hop_to && std::uint64_t{hop_to[to]} + 1 != hop_to[at]) return;
        const Cost candidate{hops + 1, dist + d};
        if (candidate < best[to]) {
          if (best[to] == kUnset) touched.push_back(to);
          best[to] = candidate;
          prev[to] = at;
          next.push_back({candidate.second, to});
        }
      });
    }
    level.swap(next);
  }
  explored = touched.size();

  if (best[dst].first == kUnreachable) return {};
  std::vector<NodeId> route;
  for (NodeId at = dst; at != kInvalidNode; at = prev[at]) {
    route.push_back(at);
    if (at == src) break;
  }
  std::reverse(route.begin(), route.end());
  if (route.front() != src) return {};
  return route;
}

}  // namespace

std::vector<NodeId> shortest_path(const Network& network, NodeId src,
                                  NodeId dst) {
  const TopologySnapshot& topo = network.topology_snapshot();
  HopTables& tables = network.hop_tables();
  const std::uint32_t* hop_to = tables.find(topo, dst);
  std::size_t explored = 0;
  auto route = dijkstra(network, src, dst, hop_to, explored,
                        [&topo](NodeId at, auto&& visit) {
                          const auto row = topo.row(at);
                          const auto dist = topo.row_distance(at);
                          for (std::size_t i = 0; i < row.size(); ++i) {
                            visit(row[i], dist[i]);
                          }
                        });
  if (!hop_to) tables.note_search(dst, explored);
  return route;
}

std::vector<NodeId> shortest_path_naive(const Network& network, NodeId src,
                                        NodeId dst) {
  std::size_t explored = 0;
  return dijkstra(network, src, dst, nullptr, explored,
                  [&network](NodeId at, auto&& visit) {
                    for (NodeId next : network.neighbors_naive(at)) {
                      visit(next, distance(network.node(at).pos,
                                           network.node(next).pos));
                    }
                  });
}

std::vector<NodeId> cached_shortest_path(const Network& network, NodeId src,
                                         NodeId dst) {
  // Any pending delta must be applied before the cache is consulted, so
  // find()'s version check sees current versions and scoped survivors are
  // served instead of flushed.
  network.sync_topology_caches();
  RouteCache& cache = network.route_cache();
  const std::uint64_t topo = network.topology_version();
  const std::uint64_t live = network.liveness_version();
  if (const std::vector<NodeId>* hit = cache.find(src, dst, topo, live)) {
    // Cheap insurance on the scoped-survivor path: re-check every hop of
    // the cached route against live connectivity.  The epoch rules make
    // survivors provably fresh, so a failure here marks an invalidation
    // bug — the recompute below restores correctness and counts it.
    bool intact = true;
    for (std::size_t i = 0; i + 1 < hit->size(); ++i) {
      if (!network.connected((*hit)[i], (*hit)[i + 1])) {
        intact = false;
        break;
      }
    }
    if (hit->size() == 1 && !network.alive((*hit)[0])) intact = false;
    if (intact) return *hit;
    cache.note_revalidation_failure();
  }
  std::vector<NodeId> route = shortest_path(network, src, dst);
  cache.insert(src, dst, topo, live, route);
  return route;
}

SinkTree::SinkTree(const Network& network, NodeId sink)
    : sink_(sink),
      parent_(network.size(), kInvalidNode),
      depth_(network.size(), kUnreachable),
      version_(network.topology_version()) {
  if (sink >= network.size() || !network.alive(sink)) return;
  const TopologySnapshot& topo = network.topology_snapshot();
  depth_[sink] = 0;
  order_.push_back(sink);
  level_start_.push_back(0);
  // order_ doubles as the BFS queue.  Depths along it never decrease, so
  // each level is one contiguous run and a new level starts exactly where
  // a node one hop deeper than the current maximum is appended.
  for (std::size_t head = 0; head < order_.size(); ++head) {
    const NodeId at = order_[head];
    // Deterministic child order: snapshot rows are in ascending id order,
    // exactly like neighbors().
    for (NodeId next : topo.row(at)) {
      if (depth_[next] != kUnreachable) continue;
      depth_[next] = depth_[at] + 1;
      if (depth_[next] > max_depth_) {
        max_depth_ = depth_[next];
        level_start_.push_back(order_.size());
      }
      parent_[next] = at;
      order_.push_back(next);
    }
  }
  level_start_.push_back(order_.size());
}

bool SinkTree::contains(NodeId id) const {
  return id < depth_.size() && depth_[id] != kUnreachable;
}

NodeId SinkTree::parent(NodeId id) const {
  return id < parent_.size() ? parent_[id] : kInvalidNode;
}

std::span<const NodeId> SinkTree::level(std::size_t depth) const {
  if (depth + 1 >= level_start_.size()) return {};
  return std::span<const NodeId>(order_).subspan(
      level_start_[depth], level_start_[depth + 1] - level_start_[depth]);
}

std::size_t SinkTree::depth(NodeId id) const {
  return id < depth_.size() ? depth_[id] : kUnreachable;
}

std::vector<NodeId> SinkTree::route_to_sink(NodeId id) const {
  if (!contains(id)) return {};
  std::vector<NodeId> route;
  for (NodeId at = id; at != kInvalidNode; at = parent_[at]) {
    route.push_back(at);
    if (at == sink_) break;
  }
  if (route.back() != sink_) return {};
  return route;
}

}  // namespace pgrid::net
