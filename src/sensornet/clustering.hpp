// Cluster formation for the cluster-based solution model.
//
// "Cluster based models can enable the computation to be carried out in the
// sensor network. Sensors are divided into clusters and each cluster has a
// cluster head. Cluster heads aggregate information from the sensors in
// individual clusters and send it to the base station" (Section 4).
// Formation is k-means on positions (deterministic seeded init); the head
// of each cluster is the member with the most remaining energy, breaking
// ties toward the centroid — a LEACH-flavoured rotation incentive.
//
// The k-means loop skips sensors whose nearest centroid is settled, using
// Hamerly's bounds (Hamerly, "Making k-means even faster", SDM 2010): each
// sensor keeps an upper bound on the distance to its own centroid (raised
// by that centroid's move every iteration) and a lower bound on the
// distance to every other centroid (lowered by the largest move), and each
// centroid knows half the distance to its nearest other centroid.  A
// sensor is skipped only when its upper bound plus a margin is below the
// larger of the other two.  The margin is a multiple of the rounding
// error at the largest coordinate magnitude among the sensors (city
// regions sit at km-scale world origins), grown by one step per
// iteration, so a skip never hides a tie or a near-tie the plain scan
// would break differently.  Every sensor not skipped runs the plain scan:
// strict `<`, lowest centroid index wins a tie.  Assignments, centroid
// sums (in member order) and the iteration count are therefore exactly
// those of the plain Lloyd loop.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"

namespace pgrid::sensornet {

struct Cluster {
  net::NodeId head = net::kInvalidNode;
  std::vector<net::NodeId> members;  ///< includes the head
  net::Vec3 centroid;
};

/// Partitions `sensors` (alive ones only) into at most `k` clusters.
/// Deterministic given the rng state.  Empty clusters are dropped.
std::vector<Cluster> form_clusters(const net::Network& network,
                                   const std::vector<net::NodeId>& sensors,
                                   std::size_t k, common::Rng& rng,
                                   std::size_t max_iterations = 25);

}  // namespace pgrid::sensornet
