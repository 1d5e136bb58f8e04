#include "sensornet/clustering.hpp"

#include <algorithm>
#include <cmath>
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

  const std::size_t n = alive.size();
  std::vector<net::Vec3> pos(n);
  double scale = 0.0;  // largest coordinate magnitude in play
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = network.node(alive[i]).pos;
    scale = std::max({scale, std::abs(pos[i].x), std::abs(pos[i].y),
                      std::abs(pos[i].z)});
  }

  // Hamerly bounds (see the header): upper[i] >= |x_i - c_a(i)|,
  // lower[i] <= min over c != a(i) of |x_i - c|, half_gap[c] = half the
  // distance from c to its nearest other centroid.
  std::vector<std::size_t> assignment(n, 0);
  std::vector<double> upper(n, 0.0);
  std::vector<double> lower(n, 0.0);
  std::vector<double> half_gap(k);
  std::vector<double> moved(k);
  std::vector<net::Vec3> sums(k);
  std::vector<std::size_t> counts(k);
  for (std::size_t iter = 0; iter < max_iterations; ++iter) {
    // Every distance compared here is at most 4 * scale (centroids stay in
    // the sensors' bounding box) and is rounded to within a few units of
    // epsilon; a bound takes one rounded move and one rounded add per
    // iteration.  By iteration `iter` the bounds and the scan's own
    // distances are together off by less than (24 + 16 * iter) * epsilon *
    // scale, under half this margin.
    const double margin = 64.0 * static_cast<double>(iter + 1) *
                          std::numeric_limits<double>::epsilon() * scale;
    if (iter > 0) {
      for (std::size_t c = 0; c < k; ++c) {
        double nearest = std::numeric_limits<double>::infinity();
        for (std::size_t o = 0; o < k; ++o) {
          if (o != c) nearest = std::min(nearest, distance(centroids[c],
                                                           centroids[o]));
        }
        half_gap[c] = 0.5 * nearest;
      }
    }
    bool changed = false;
    for (std::size_t i = 0; i < n; ++i) {
      if (iter > 0) {
        // Settled: the bounds prove the current centroid is nearest by
        // more than the margin, so the scan below would pick it again.
        const double bound = std::max(half_gap[assignment[i]], lower[i]);
        if (upper[i] + margin < bound) continue;
        upper[i] = distance(pos[i], centroids[assignment[i]]);
        if (upper[i] + margin < bound) continue;
      }
      std::size_t best = 0;
      double best_d = std::numeric_limits<double>::infinity();
      double second_d = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < k; ++c) {
        const double d = distance(pos[i], centroids[c]);
        if (d < best_d) {
          second_d = best_d;
          best_d = d;
          best = c;
        } else if (d < second_d) {
          second_d = d;
        }
      }
      upper[i] = best_d;
      lower[i] = second_d;
      if (assignment[i] != best) {
        assignment[i] = best;
        changed = true;
      }
    }
    // Recompute centroids.
    std::fill(sums.begin(), sums.end(), net::Vec3{});
    std::fill(counts.begin(), counts.end(), 0);
    for (std::size_t i = 0; i < n; ++i) {
      sums[assignment[i]] = sums[assignment[i]] + pos[i];
      ++counts[assignment[i]];
    }
    double max_move = 0.0;
    for (std::size_t c = 0; c < k; ++c) {
      moved[c] = 0.0;
      if (counts[c] > 0) {
        const net::Vec3 next = sums[c] * (1.0 / static_cast<double>(counts[c]));
        moved[c] = distance(centroids[c], next);
        centroids[c] = next;
      }
      max_move = std::max(max_move, moved[c]);
    }
    if (!changed) break;
    for (std::size_t i = 0; i < n; ++i) {
      upper[i] += moved[assignment[i]];
      lower[i] -= max_move;
    }
  }

  std::vector<Cluster> clusters(k);
  for (std::size_t c = 0; c < k; ++c) clusters[c].centroid = centroids[c];
  for (std::size_t i = 0; i < n; ++i) {
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
