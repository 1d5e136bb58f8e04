// Flow-level network fast path: an analytic second fidelity tier.
//
// The packet tier (Network::transmit / send_route) schedules one event per
// link-layer hop — exact, but the event count is O(hops * messages) and the
// EXP-N1 sweeps top out around N=6400.  SimGrid answered the same scale gap
// with analytic flow/fluid models: compute a whole transfer's latency,
// energy and outcome in closed form and commit it as a single event.  This
// module is that tier for our network:
//
//   - FlowModel::send_flow resolves an entire route analytically from the
//     CSR TopologySnapshot world: per hop, the expected number of
//     link-layer attempts under the truncated-retry loss model, the
//     radio-model energy at that expectation, and the hop success
//     probability; one inverse-CDF draw from the model's own rng stream
//     decides the delivery outcome (and the failing hop), and ONE simulator
//     event fires the completion callback.
//   - Congestion is a per-link concurrent-flow share: while k flows occupy
//     a link, a new flow's service time on that hop scales by
//     (1 + congestion_alpha * k).  The default alpha is 0 — the packet tier
//     models links as contention-free, so zero keeps the two tiers
//     calibrated; positive alpha adds a fidelity the packet tier never had.
//   - Fidelity is selectable per region (through the installed ShardMap).
//     An attached ReliableChannel or an installed FaultInjector forces the
//     whole deployment to the packet tier, so reliability/chaos semantics
//     stay exact where they matter.
//   - Flow plans (per-hop expectations for a (src, dst, bytes) triple) are
//     cached under the same (topology, liveness) version discipline as the
//     RouteCache: mobility, churn, chaos installation and battery death all
//     invalidate analytic state exactly when they invalidate routes.
//
// Kill switch: a Network with no FlowModel installed (RuntimeConfig::flow
// disabled) runs the packet paths byte-for-byte unchanged, and an installed
// model whose fidelity resolves to packet everywhere draws no randomness
// and changes nothing — both identities are regression-tested.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "net/network.hpp"

namespace pgrid::net {

class SinkTree;

/// Fidelity tier of a link or region.
enum class Fidelity : std::uint8_t { kPacket, kFlow };

/// Flow-tier knobs (RuntimeConfig::flow).
struct FlowConfig {
  /// Master kill switch.  Disabled => no FlowModel is constructed and every
  /// packet path runs bit-identically to the pre-flow build.
  bool enabled = false;
  /// Fidelity of links whose regions carry no override (and of the whole
  /// deployment when no ShardMap is installed).
  Fidelity default_fidelity = Fidelity::kFlow;
  /// Per-link fair-share congestion weight: a hop's analytic service time
  /// scales by (1 + congestion_alpha * concurrent flows on the link).
  /// Zero (default) is the packet-equivalent calibration point.
  double congestion_alpha = 0.0;
};

/// Diagnostics for the flow tier.
struct FlowStats {
  std::uint64_t flows = 0;             ///< send_flow transfers accepted
  std::uint64_t delivered = 0;         ///< flows that reached their sink
  std::uint64_t failed = 0;            ///< flows that failed en route
  std::uint64_t analytic_hops = 0;     ///< hops resolved without an event
  std::uint64_t tree_epochs = 0;       ///< whole-subtree TAG collections
  std::uint64_t packet_fallbacks = 0;  ///< eligibility misses (packet tier)
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t plan_invalidations = 0;  ///< version-bump cache clears
  std::uint64_t plan_scoped_epochs = 0;  ///< scoped (delta) plan syncs
  std::uint64_t plans_dropped = 0;       ///< plans killed by a scoped epoch
  std::uint64_t plans_kept = 0;          ///< plans surviving a scoped epoch
  /// Sum of analytic per-hop attempt expectations.  The packet tier counts
  /// every retry in NetworkStats::transmissions / bytes_sent; the flow tier
  /// counts each hop once and keeps the expected-retry mass here.
  double expected_attempts = 0.0;
};

/// The analytic fidelity tier.  Non-owning over the Network; install with
/// Network::set_flow_model.  All randomness flows through the model's own
/// seeded rng stream, so enabling the tier never perturbs the packet tier's
/// draws (the kill-switch identity) and runs replay bit-identically.
class FlowModel {
 public:
  using RouteCallback = Network::RouteCallback;

  /// Analytic outcome of one hop at the current topology.
  struct HopOutcome {
    sim::SimTime latency;           ///< expected service time, uncongested
    sim::SimTime base_latency;      ///< single-attempt transfer time
    double loss_p = 0.0;            ///< per-attempt frame loss probability
    double success_p = 1.0;         ///< P(delivery within the retry budget)
    double expected_attempts = 1.0;
    double tx_joules = 0.0;         ///< sender draw at expected attempts
    double rx_joules = 0.0;         ///< receiver draw on success
    bool wireless = true;
  };

  /// Cached flow plans (per-hop expectations) kept per version epoch.
  static constexpr std::size_t kPlanCacheCapacity = 4096;

  FlowModel(Network& network, FlowConfig config, common::Rng rng);

  const FlowConfig& config() const { return config_; }
  const FlowStats& stats() const { return stats_; }
  Network& network() { return network_; }
  common::Rng& rng() { return rng_; }

  // --- fidelity selection --------------------------------------------------

  /// Overrides the fidelity of one region (see Network::set_shard_map).
  void set_region_fidelity(RegionId region, Fidelity fidelity);
  /// Region fidelity under the overrides (default fidelity when none).
  Fidelity region_fidelity(RegionId region) const;

  /// May hop a->b be served analytically right now?  Requires the tier
  /// enabled, no armed FaultInjector, no attached ReliableChannel, and both
  /// endpoint regions at flow fidelity.
  bool hop_eligible(NodeId a, NodeId b) const;
  /// Every consecutive hop of `route` is eligible (>= 2 nodes required).
  bool route_eligible(const std::vector<NodeId>& route) const;
  /// Every parent edge of the tree's reachable nodes is eligible — the
  /// gate for the sensornet's whole-subtree analytic epoch.  O(1) unless a
  /// region override is installed; then each edge is checked.
  bool tree_eligible(const SinkTree& tree) const;

  // --- analytic service ----------------------------------------------------

  /// Whole-route analytic transfer with the same callback contract as
  /// Network::send_route: cb(delivered, hops_completed) fires from ONE
  /// simulator event at the flow's analytic completion time.  Stats,
  /// ledger charges and battery draws mirror the packet tier at
  /// expectation value.  Call only when route_eligible(route).
  void send_flow(const std::vector<NodeId>& route, std::uint64_t bytes,
                 RouteCallback cb);

  /// Expected attempts/latency/energy/success for hop a->b; false when no
  /// usable link exists right now.  The closed forms are memoised on the
  /// last (link class, retry budget, bytes) seen; the energy draws are
  /// per hop.
  bool hop_outcome(NodeId a, NodeId b, std::uint64_t bytes,
                   HopOutcome& out) const;

  /// Applies one analytic hop's books: network stats, per-node counters,
  /// ledger charge, battery draws (sender always pays; the receiver only on
  /// success).  Returns false when a battery death makes the hop fail even
  /// though the loss draw succeeded (mirrors the packet tier).
  bool charge_hop(NodeId a, NodeId b, std::uint64_t bytes,
                  const HopOutcome& hop, bool success);

  /// Bookkeeping for the sensornet's whole-subtree epoch.
  void note_tree_epoch() { ++stats_.tree_epochs; }
  void note_packet_fallback() { ++stats_.packet_fallbacks; }

  /// Congestion factor a new flow would see on link (a, b) right now.
  double congestion_factor(NodeId a, NodeId b) const;

  // --- the closed forms (shared with tests and the calibration sweep) ------

  /// P(delivery within max_retries+1 attempts) at per-attempt loss p.
  static double hop_success_p(double loss_p, std::size_t max_retries);
  /// E[attempts] of the truncated-retry loop (the packet tier's loop in
  /// Network::transmit): E[min(Geometric(1-p), m+1)].
  static double expected_attempts(double loss_p, std::size_t max_retries);
  /// E[max over n concurrent transmitters of their attempt counts] — the
  /// analytic duration of one TAG level where n children transmit at once:
  /// sum_{k=0}^{m} (1 - (1 - p^k)^n).
  static double expected_max_attempts(std::size_t n, double loss_p,
                                      std::size_t max_retries);

 private:
  /// One hop of a cached flow plan.
  struct PlanHop {
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    HopOutcome outcome;
  };
  struct FlowPlan {
    /// The exact route the plan was built for.  Two different routes can
    /// share (src, dst, bytes) — e.g. a sink-tree route vs a Dijkstra route
    /// between the same endpoints — so a cache hit verifies the route.
    std::vector<NodeId> route;
    std::vector<PlanHop> hops;
    bool viable = false;  ///< false: some hop had no usable link when built
    std::size_t broken_hop = 0;  ///< first unusable hop when !viable
  };

  /// hop_outcome's memo: the HopOutcome fields that depend only on `Key`
  /// (all but `wireless` and the energy draws) for the last key seen.  One
  /// entry: consecutive hops over one link class (every sensor edge of a
  /// TAG round) share one evaluation of the std::pow closed forms.
  struct HopForms {
    struct Key {
      double loss_prob = 0.0;
      std::size_t max_retries = 0;
      double bandwidth_bps = 0.0;
      sim::SimTime latency;
      std::uint64_t bytes = 0;
      bool operator==(const Key&) const = default;
    };
    bool valid = false;
    Key key;
    HopOutcome outcome;
  };

  /// Tier enabled, no armed FaultInjector and no attached ReliableChannel:
  /// the deployment-wide half of hop_eligible().
  bool tier_open() const;

  static std::uint64_t plan_key(NodeId src, NodeId dst, std::uint64_t bytes);
  /// Synchronizes the plan cache with the network's (topology, liveness)
  /// versions — the exact RouteCache discipline, so mobility/churn/chaos/
  /// death invalidate analytic state whenever they invalidate routes.
  /// When the network's last scoped delta covers the whole version gap,
  /// only plans whose route touches a dirty row are dropped (a plan is a
  /// pure function of its route nodes' state, and any changed edge puts an
  /// endpoint row in the dirty set); after a global epoch, or a gap the
  /// delta does not cover, the cache clears wholesale.
  void sync_plan_version();
  const FlowPlan& plan_for(const std::vector<NodeId>& route,
                           std::uint64_t bytes);

  void unregister_flow(const std::vector<std::uint64_t>& keys);

  Network& network_;
  FlowConfig config_;
  common::Rng rng_;
  FlowStats stats_;
  std::unordered_map<RegionId, Fidelity> region_fidelity_;
  /// Active concurrent flows per link (only maintained when
  /// congestion_alpha > 0; empty otherwise).
  std::unordered_map<std::uint64_t, std::uint32_t> active_flows_;
  std::unordered_map<std::uint64_t, FlowPlan> plans_;
  mutable HopForms forms_;  ///< hop_outcome's memo
  std::uint64_t plan_topology_version_ = 0;
  std::uint64_t plan_liveness_version_ = 0;
  bool plan_has_version_ = false;
};

}  // namespace pgrid::net
