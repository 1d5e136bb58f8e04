#include "net/topology.hpp"

#include <algorithm>
#include <cmath>

namespace pgrid::net {

namespace {

/// 64-bit finalizer (splitmix64 tail): spreads cell coordinates over the
/// key space so adjacent cells land in distinct buckets.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

}  // namespace

std::uint64_t spatial_cell_key(std::int64_t cx, std::int64_t cy,
                               std::int64_t cz) {
  std::uint64_t key = mix(static_cast<std::uint64_t>(cx));
  key = mix(key ^ static_cast<std::uint64_t>(cy));
  key = mix(key ^ static_cast<std::uint64_t>(cz));
  return key;
}

std::int64_t spatial_cell_coord(double v, double cell_m) {
  return static_cast<std::int64_t>(std::floor(v / cell_m));
}

std::uint64_t spatial_cell_key(Vec3 pos, double cell_m) {
  return spatial_cell_key(spatial_cell_coord(pos.x, cell_m),
                          spatial_cell_coord(pos.y, cell_m),
                          spatial_cell_coord(pos.z, cell_m));
}

std::uint64_t SpatialGrid::key_of(Vec3 pos) const {
  return spatial_cell_key(pos, cell_m_);
}

void SpatialGrid::rebuild(double new_cell_m) {
  cell_m_ = new_cell_m;
  cells_.clear();
  for (NodeId id = 0; id < entries_.size(); ++id) {
    Entry& entry = entries_[id];
    if (!entry.indexed) continue;
    entry.key = key_of(entry.pos);
    cells_[entry.key].push_back(id);
  }
  ++rebuilds_;
}

void SpatialGrid::remove_from_bucket(std::uint64_t key, NodeId id) {
  auto it = cells_.find(key);
  if (it == cells_.end()) return;
  auto& bucket = it->second;
  auto pos = std::find(bucket.begin(), bucket.end(), id);
  if (pos != bucket.end()) {
    // Swap-erase: bucket order is irrelevant (queries sort), removal O(1).
    *pos = bucket.back();
    bucket.pop_back();
  }
  if (bucket.empty()) cells_.erase(it);
}

void SpatialGrid::insert(NodeId id, Vec3 pos, double range_m) {
  // Cells must be at least as wide as any mutual radio range; a range of
  // zero still needs a positive cell so same-position pairs share a block.
  const double needed = std::max(range_m, 1.0);
  if (needed > cell_m_) rebuild(needed);
  if (id >= entries_.size()) entries_.resize(id + 1);
  Entry& entry = entries_[id];
  if (entry.indexed) remove_from_bucket(entry.key, id);
  else ++indexed_;
  entry.pos = pos;
  entry.range_m = std::max(range_m, 0.0);
  entry.key = key_of(pos);
  entry.indexed = true;
  cells_[entry.key].push_back(id);
}

void SpatialGrid::move(NodeId id, Vec3 pos) {
  if (id >= entries_.size() || !entries_[id].indexed) return;
  Entry& entry = entries_[id];
  const std::uint64_t key = key_of(pos);
  if (key != entry.key) {
    remove_from_bucket(entry.key, id);
    cells_[key].push_back(id);
    entry.key = key;
  }
  entry.pos = pos;
}

void SpatialGrid::gather(NodeId id, std::vector<NodeId>& out) const {
  if (id >= entries_.size() || !entries_[id].indexed) return;
  const Entry& entry = entries_[id];
  const Vec3 pos = entry.pos;
  // Every connected peer lies within the querier's own range r (the link
  // test is d <= min(ra, rb) <= r), so only cells intersecting the box
  // pos ± r can hold neighbours.  r <= cell size, so each axis spans at
  // most 3 cells; short-range radios usually span 1-2.
  const double r = entry.range_m;
  const std::int64_t x0 = spatial_cell_coord(pos.x - r, cell_m_);
  const std::int64_t x1 = spatial_cell_coord(pos.x + r, cell_m_);
  const std::int64_t y0 = spatial_cell_coord(pos.y - r, cell_m_);
  const std::int64_t y1 = spatial_cell_coord(pos.y + r, cell_m_);
  const std::int64_t z0 = spatial_cell_coord(pos.z - r, cell_m_);
  const std::int64_t z1 = spatial_cell_coord(pos.z + r, cell_m_);
  // Hash collisions can map two of the block cells to one key; visiting a
  // bucket twice would emit duplicates, so keys are deduplicated first.
  std::uint64_t seen[27];
  int seen_count = 0;
  for (std::int64_t cz = z0; cz <= z1; ++cz) {
    for (std::int64_t cy = y0; cy <= y1; ++cy) {
      for (std::int64_t cx = x0; cx <= x1; ++cx) {
        const std::uint64_t key = spatial_cell_key(cx, cy, cz);
        bool duplicate = false;
        for (int i = 0; i < seen_count; ++i) {
          if (seen[i] == key) {
            duplicate = true;
            break;
          }
        }
        if (duplicate) continue;
        seen[seen_count++] = key;
        auto it = cells_.find(key);
        if (it == cells_.end()) continue;
        for (NodeId member : it->second) {
          if (member != id) out.push_back(member);
        }
      }
    }
  }
}

void RouteCache::sync_version(std::uint64_t topology_version,
                              std::uint64_t liveness_version) {
  if (has_version_ && topology_version_ == topology_version &&
      liveness_version_ == liveness_version) {
    return;
  }
  if (!map_.empty()) {
    ++stats_.invalidations;
    map_.clear();
    lru_.clear();
  }
  topology_version_ = topology_version;
  liveness_version_ = liveness_version;
  has_version_ = true;
}

void RouteCache::advance_epoch(std::uint64_t from_topology,
                               std::uint64_t from_liveness,
                               std::uint64_t to_topology,
                               std::uint64_t to_liveness,
                               const std::vector<char>& dirty_flag,
                               const std::vector<std::uint32_t>& dist_to_dirty) {
  if (!has_version_ || topology_version_ != from_topology ||
      liveness_version_ != from_liveness) {
    // The delta does not start where this cache stands (a missed epoch, or
    // a fresh cache): fall back to the wholesale clear.
    sync_version(to_topology, to_liveness);
    return;
  }
  ++stats_.scoped_epochs;
  const auto dist_of = [&](NodeId id) {
    return id < dist_to_dirty.size() ? dist_to_dirty[id] : kUnreachable;
  };
  for (auto it = lru_.begin(); it != lru_.end();) {
    const std::uint64_t key = it->first;
    const auto src = static_cast<NodeId>(key >> 32);
    const auto dst = static_cast<NodeId>(key & 0xffffffffu);
    const std::vector<NodeId>& route = it->second;
    bool drop = false;
    if (route.empty()) {
      // "No route": a path can only have appeared through a changed row,
      // so both endpoints would have to reach the dirty set.
      drop = dist_of(src) != kUnreachable && dist_of(dst) != kUnreachable;
    } else {
      for (NodeId hop : route) {
        if (hop < dirty_flag.size() && dirty_flag[hop]) {
          drop = true;
          break;
        }
      }
      if (!drop) {
        // Improvement bound: any fresh path through a dirty node has at
        // least dist[src] + dist[dst] hops; unless that strictly exceeds
        // the cached hop count the fresh optimum (or a tie) could run
        // through the changed region, so the entry must be recomputed.
        const std::uint32_t ds = dist_of(src);
        const std::uint32_t dd = dist_of(dst);
        const std::uint64_t hops = route.size() - 1;
        if (ds != kUnreachable && dd != kUnreachable &&
            std::uint64_t(ds) + std::uint64_t(dd) <= hops) {
          drop = true;
        }
      }
    }
    if (drop) {
      ++stats_.routes_dropped;
      map_.erase(key);
      it = lru_.erase(it);
    } else {
      ++stats_.routes_kept;
      ++it;
    }
  }
  topology_version_ = to_topology;
  liveness_version_ = to_liveness;
}

const std::vector<NodeId>* RouteCache::find(NodeId src, NodeId dst,
                                            std::uint64_t topology_version,
                                            std::uint64_t liveness_version) {
  sync_version(topology_version, liveness_version);
  auto it = map_.find(key_of(src, dst));
  if (it == map_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  lru_.splice(lru_.begin(), lru_, it->second);
  return &it->second->second;
}

void RouteCache::insert(NodeId src, NodeId dst,
                        std::uint64_t topology_version,
                        std::uint64_t liveness_version,
                        std::vector<NodeId> route) {
  sync_version(topology_version, liveness_version);
  const std::uint64_t key = key_of(src, dst);
  auto it = map_.find(key);
  if (it != map_.end()) {
    it->second->second = std::move(route);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.emplace_front(key, std::move(route));
  map_[key] = lru_.begin();
  if (map_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

void bfs_hop_counts(const TopologySnapshot& topo,
                    std::span<const NodeId> sources,
                    std::vector<std::uint32_t>& hops,
                    std::vector<NodeId>& queue) {
  hops.assign(topo.size(), kUnreachableHops);
  queue.clear();
  for (NodeId source : sources) {
    hops[source] = 0;
    queue.push_back(source);
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId at = queue[head];
    const std::uint32_t next = hops[at] + 1;
    for (NodeId peer : topo.row(at)) {
      if (hops[peer] != kUnreachableHops) continue;
      hops[peer] = next;
      queue.push_back(peer);
    }
  }
}

void HopTables::sync(const TopologySnapshot& topo) {
  if (has_version_ && topology_version_ == topo.topology_version &&
      liveness_version_ == topo.liveness_version) {
    return;
  }
  // Reset only what the previous version touched: the flat per-node
  // arrays stay allocated, so a version change costs O(tables + counted).
  for (Table& table : tables_) {
    if (table.dst == kInvalidNode) continue;
    slot_[table.dst] = kNoSlot;
    table.dst = kInvalidNode;
  }
  for (NodeId dst : counted_) explored_[dst] = 0;
  counted_.clear();
  if (slot_.size() < topo.size()) {
    slot_.resize(topo.size(), kNoSlot);
    explored_.resize(topo.size(), 0);
  }
  topology_version_ = topo.topology_version;
  liveness_version_ = topo.liveness_version;
  has_version_ = true;
}

const std::uint32_t* HopTables::find(const TopologySnapshot& topo,
                                     NodeId dst) {
  sync(topo);
  if (dst >= topo.size()) return nullptr;
  if (slot_[dst] != kNoSlot) {
    Table& table = tables_[slot_[dst]];
    table.last_used = ++clock_;
    return table.hop_to.data();
  }
  if (explored_[dst] < kTriggerSweeps * topo.size()) return nullptr;
  // A free slot if there is one, else the least recently used table.
  Table* victim = &tables_[0];
  for (Table& table : tables_) {
    if (table.dst == kInvalidNode) {
      victim = &table;
      break;
    }
    if (table.last_used < victim->last_used) victim = &table;
  }
  if (victim->dst != kInvalidNode) {
    slot_[victim->dst] = kNoSlot;
    explored_[victim->dst] = 0;  // an evicted destination earns anew
  }
  ++built_;
  victim->dst = dst;
  victim->last_used = ++clock_;
  bfs_hop_counts(topo, std::span<const NodeId>(&dst, 1), victim->hop_to,
                 queue_);
  slot_[dst] = static_cast<std::uint8_t>(victim - tables_.data());
  return victim->hop_to.data();
}

void HopTables::note_search(NodeId dst, std::size_t explored) {
  if (dst >= explored_.size() || explored == 0) return;
  if (explored_[dst] == 0) counted_.push_back(dst);
  explored_[dst] += explored;
}

std::size_t HopTables::size() const {
  std::size_t live = 0;
  for (const Table& table : tables_) live += table.dst != kInvalidNode;
  return live;
}

}  // namespace pgrid::net
