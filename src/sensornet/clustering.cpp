#include "sensornet/clustering.hpp"

#include <algorithm>
#include <limits>

namespace pgrid::sensornet {

std::vector<Cluster> form_clusters(const net::Network& network,
                                   const std::vector<net::NodeId>& sensors,
                                   std::size_t k, common::Rng& rng,
                                   std::size_t max_iterations) {
  std::vector<net::NodeId> alive;
  for (net::NodeId id : sensors) {
    if (network.alive(id)) alive.push_back(id);
  }
  if (alive.empty() || k == 0) return {};
  k = std::min(k, alive.size());

  // Seed centroids with k distinct random members.
  std::vector<net::NodeId> seeds = alive;
  rng.shuffle(std::span<net::NodeId>(seeds));
  std::vector<net::Vec3> centroids;
  centroids.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    centroids.push_back(network.node(seeds[i]).pos);
  }

  std::vector<std::size_t> assignment(alive.size(), 0);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    bool changed = false;
    for (std::size_t i = 0; i < alive.size(); ++i) {
      const auto pos = network.node(alive[i]).pos;
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = distance(pos, centroids[c]);
        if (d < best_d) {
          best_d = d;
          best = c;
        }
      }
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    // Recompute centroids.
    std::vector<net::Vec3> sums(k);
    std::vector<std::size_t> counts(k, 0);
    for (std::size_t i = 0; i < alive.size(); ++i) {
      sums[assignment[i]] = sums[assignment[i]] + network.node(alive[i]).pos;
      ++counts[assignment[i]];
    }
    for (std::size_t c = 0; c < k; ++c) {
      if (counts[c] > 0) {
        centroids[c] = sums[c] * (1.0 / static_cast<double>(counts[c]));
      }
    }
    if (!changed) break;
  }

  std::vector<Cluster> clusters(k);
  for (std::size_t c = 0; c < k; ++c) clusters[c].centroid = centroids[c];
  for (std::size_t i = 0; i < alive.size(); ++i) {
    clusters[assignment[i]].members.push_back(alive[i]);
  }
  // Head selection: most remaining energy, ties toward the centroid.
  for (auto& cluster : clusters) {
    double best_energy = -1.0;
    double best_d = std::numeric_limits<double>::infinity();
    for (net::NodeId id : cluster.members) {
      const auto& node = network.node(id);
      const double energy = network.energy(id).remaining();
      const double d = distance(node.pos, cluster.centroid);
      if (energy > best_energy ||
          (energy == best_energy && d < best_d)) {
        best_energy = energy;
        best_d = d;
        cluster.head = id;
      }
    }
  }
  clusters.erase(std::remove_if(clusters.begin(), clusters.end(),
                                [](const Cluster& c) {
                                  return c.members.empty();
                                }),
                 clusters.end());
  return clusters;
}

}  // namespace pgrid::sensornet
