#include "net/routing.hpp"

#include <algorithm>
#include <limits>
#include <queue>

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
/// thread-local and reused: a lookup allocates only its result.
template <typename ForEachEdge>
std::vector<NodeId> dijkstra(const Network& network, NodeId src, NodeId dst,
                             ForEachEdge&& for_each_edge) {
  const std::size_t n = network.size();
  if (src >= n || dst >= n || !network.alive(src) || !network.alive(dst)) {
    return {};
  }
  if (src == dst) return {src};

  using Cost = std::pair<std::size_t, double>;
  using Entry = std::pair<double, NodeId>;  // (distance, node) in a level
  thread_local std::vector<Cost> best;
  thread_local std::vector<NodeId> prev;
  thread_local std::vector<Entry> level, next;
  best.assign(n, {kUnreachable, 0.0});
  prev.assign(n, kInvalidNode);
  best[src] = {0, 0.0};
  level.assign(1, {0.0, src});

  for (std::size_t hops = 0; !level.empty() && best[dst].first > hops;
       ++hops) {
    std::sort(level.begin(), level.end());
    next.clear();
    for (const auto& [dist, at] : level) {
      if (Cost{hops, dist} > best[at]) continue;  // superseded entry
      for_each_edge(at, [&](NodeId to, double d) {
        const Cost candidate{hops + 1, dist + d};
        if (candidate < best[to]) {
          best[to] = candidate;
          prev[to] = at;
          next.push_back({candidate.second, to});
        }
      });
    }
    level.swap(next);
  }

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
  return dijkstra(network, src, dst, [&topo](NodeId at, auto&& visit) {
    const auto row = topo.row(at);
    const auto dist = topo.row_distance(at);
    for (std::size_t i = 0; i < row.size(); ++i) visit(row[i], dist[i]);
  });
}

std::vector<NodeId> shortest_path_naive(const Network& network, NodeId src,
                                        NodeId dst) {
  return dijkstra(network, src, dst, [&network](NodeId at, auto&& visit) {
    for (NodeId next : network.neighbors_naive(at)) {
      visit(next, distance(network.node(at).pos, network.node(next).pos));
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
      children_(network.size()),
      depth_(network.size(), kUnreachable),
      version_(network.topology_version()) {
  if (sink >= network.size() || !network.alive(sink)) return;
  const TopologySnapshot& topo = network.topology_snapshot();
  depth_[sink] = 0;
  order_.push_back(sink);
  std::queue<NodeId> frontier;
  frontier.push(sink);
  while (!frontier.empty()) {
    const NodeId at = frontier.front();
    frontier.pop();
    // Deterministic child order: snapshot rows are in ascending id order,
    // exactly like neighbors().
    for (NodeId next : topo.row(at)) {
      if (depth_[next] != kUnreachable) continue;
      depth_[next] = depth_[at] + 1;
      if (depth_[next] > max_depth_) max_depth_ = depth_[next];
      parent_[next] = at;
      children_[at].push_back(next);
      order_.push_back(next);
      frontier.push(next);
    }
  }
}

bool SinkTree::contains(NodeId id) const {
  return id < depth_.size() && depth_[id] != kUnreachable;
}

NodeId SinkTree::parent(NodeId id) const {
  return id < parent_.size() ? parent_[id] : kInvalidNode;
}

const std::vector<NodeId>& SinkTree::children(NodeId id) const {
  static const std::vector<NodeId> kEmpty;
  return id < children_.size() ? children_[id] : kEmpty;
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
