// Region assignment for SPMD world partitioning.
//
// The sharded simulation layer (sim/shard.hpp) partitions the world per
// base-station region; this map is the net-layer half of that contract: it
// assigns every node to a region and answers, on the send path, whether a
// frame is about to cross a region boundary — i.e. whether it must ride the
// cross-shard mailbox instead of a local queue.
//
// Assignment is derived from the PR 4 spatial index's quantization: a
// node's position is snapped to a SpatialGrid cell
// (net::spatial_cell_coord / spatial_cell_key, the exact floor-division and
// key mix the index uses), and the *cell* is assigned to the region whose
// center is nearest the cell's center.  Cell-granular assignment keeps the
// partition consistent with the index's notion of locality, makes the
// boundary a union of whole cells (cheap membership, stable under small
// in-cell mobility jitter), and caches one nearest-center computation per
// distinct cell instead of one per node.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/geometry.hpp"
#include "net/ids.hpp"

namespace pgrid::net {

using RegionId = std::uint32_t;
inline constexpr RegionId kInvalidRegion = 0xffffffffu;

/// Maps positions (and registered nodes) to base-station regions at
/// spatial-grid-cell granularity.
class ShardMap {
 public:
  ShardMap() = default;

  /// `centers` are the region anchor points (base-station positions, in
  /// world coordinates); `cell_m` is the assignment granularity — use the
  /// deployment's largest radio range so the map and the SpatialGrid agree
  /// on cell shape.
  ShardMap(std::vector<Vec3> centers, double cell_m);

  std::size_t region_count() const { return centers_.size(); }
  double cell_size_m() const { return cell_m_; }
  const std::vector<Vec3>& centers() const { return centers_; }

  /// Region owning the spatial-grid cell containing `pos`.  Nearest region
  /// center to the cell center, computed once per distinct cell and cached.
  RegionId region_of_pos(Vec3 pos) const;

  /// Registers `id` at `pos` (world coordinates); later moves re-assign.
  void assign(NodeId id, Vec3 pos);

  /// Region of a registered node; kInvalidRegion when never assigned.
  RegionId region_of(NodeId id) const;

  /// True when a frame a -> b crosses a region boundary (both registered
  /// and in different regions) — the send must ride the cross-shard
  /// mailbox rather than a local queue.
  bool boundary(NodeId a, NodeId b) const {
    const RegionId ra = region_of(a);
    const RegionId rb = region_of(b);
    return ra != rb && ra != kInvalidRegion && rb != kInvalidRegion;
  }

  /// Distinct cells whose assignment has been computed (diagnostics).
  std::size_t cells_mapped() const { return cell_region_.size(); }

 private:
  std::vector<Vec3> centers_;
  double cell_m_ = 1.0;
  mutable std::unordered_map<std::uint64_t, RegionId> cell_region_;
  std::vector<RegionId> node_region_;  ///< indexed by NodeId
};

}  // namespace pgrid::net
