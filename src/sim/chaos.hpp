// Deterministic chaos engine: seeded fault-schedule injection over the DES
// kernel and the network substrate.
//
// The paper's runtime must survive "frequent disconnections, low bandwidth,
// high latency and network topology changes" (Section 1).  This module
// systematically explores that failure space: a ChaosEngine arms a
// *deterministic, seeded schedule* of faults — link degradation and blackout
// windows, network partitions that cut a node set off and later heal,
// message drop/duplicate/delay-jitter at the Network send path, node
// crash/restart with configurable state loss, and base-station clock skew
// on reported timestamps.  Every injected fault is a first-class simulator
// event carrying its own TraceId charged to the telemetry ledger
// (Subsystem::kChaos), so a post-mortem shows exactly which fault window
// overlapped which query outcome.
//
// Determinism contract: a schedule is a pure function of (network, config,
// seed); replaying the same seed reproduces the same fault sequence and —
// because all randomness flows through seeded Rng streams — bit-identical
// NetworkStats and ledger totals.  The chaos harness (tests/chaos_harness
// .hpp) leans on this to print a replayable seed + minimized schedule for
// every invariant violation it finds.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "net/churn.hpp"
#include "net/network.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "telemetry/telemetry.hpp"

namespace pgrid::sim {

/// The failure space the engine injects from.
enum class FaultKind : std::uint8_t {
  kLinkDegrade = 0,  ///< added frame loss on hops touching `node`
  kBlackout,         ///< radio silence: all links touching `node` severed
  kPartition,        ///< `group` cut off from the rest, healed after duration
  kDrop,             ///< window: each hop dropped with prob `magnitude`
  kDuplicate,        ///< window: each hop duplicated with prob `magnitude`
  kDelayJitter,      ///< window: each hop delayed uniform(0, magnitude) s
  kCrash,            ///< node down, restart after duration; reboot drains
                     ///< `magnitude` joules (the configurable state loss)
  kClockSkew,        ///< reported timestamps at `node` offset by `magnitude` s
  kStationCrash,     ///< a base station down, restart after duration: the
                     ///< region's query-owning state is lost unless a
                     ///< failover layer replays its last checkpoint
};
inline constexpr std::size_t kFaultKindCount = 9;

std::string to_string(FaultKind kind);

/// One scheduled fault.  `magnitude` is kind-specific (loss probability,
/// drop/duplicate probability, jitter bound in seconds, reboot joules, or
/// skew seconds); `group` is only used by partitions.
struct Fault {
  FaultKind kind = FaultKind::kDrop;
  SimTime at{};
  SimTime duration{};
  net::NodeId node = net::kInvalidNode;
  double magnitude = 0.0;
  std::vector<net::NodeId> group;

  bool operator==(const Fault&) const = default;
};

/// A full fault schedule, sorted by injection time.
using Schedule = std::vector<Fault>;

/// One-line replay-friendly rendering ("t=12.500s crash node=7 dur=3.2s
/// mag=0.004"); format_schedule emits one fault per line.
std::string format_fault(const Fault& fault);
std::string format_schedule(const Schedule& schedule);

/// Relative weights + magnitude envelopes for schedule generation.  The
/// three canned mixes cover the paper's dominant failure modes: handheld
/// disconnection (crash/blackout heavy), lossy mesh transport, and
/// partition storms with skewed base-station clocks.
struct ChaosMix {
  std::string name = "custom";
  std::array<double, kFaultKindCount> weight{};
  double min_duration_s = 0.5;
  double max_duration_s = 8.0;
  /// Largest partition cut, as a fraction of the deployment (clamped to
  /// leave at least one node on each side).
  double max_cut_fraction = 0.5;

  static ChaosMix disconnection_heavy();
  static ChaosMix lossy_mesh();
  static ChaosMix partition_storm();
  /// Base-station outages plus ambient mesh loss — the failover workload
  /// (EXP-R2).  Not part of canned_mixes(): the legacy sweeps' invariants
  /// assume query-owning state survives, which is exactly what a station
  /// crash violates unless RuntimeConfig::failover is on.
  static ChaosMix station_outage();
};

/// The three canned mixes, in a stable order (tests and benches sweep it).
const std::vector<ChaosMix>& canned_mixes();
/// Lookup by ChaosMix::name; resolves the canned mixes plus the named
/// specials (station-outage); throws std::out_of_range on unknown names.
const ChaosMix& mix_by_name(const std::string& name);

struct ChaosConfig {
  SimTime horizon = SimTime::seconds(120.0);
  std::size_t fault_count = 12;
  ChaosMix mix = ChaosMix::lossy_mesh();
};

/// Pure function of (network population, config, seed): same inputs, same
/// schedule, bit for bit.  Every fault expires at or before the horizon, so
/// a run that drains the event queue ends with all faults healed.
Schedule generate_schedule(const net::Network& network,
                           const ChaosConfig& config, std::uint64_t seed);

/// Injects an armed schedule into a deployment.  Installs itself as the
/// network's FaultInjector; exactly one engine per Network at a time.
class ChaosEngine final : public net::FaultInjector {
 public:
  /// A fault that has been applied, with the ledger trace it charged.
  struct InjectedFault {
    std::size_t index = 0;  ///< position in schedule()
    Fault fault;
    telemetry::TraceId trace = telemetry::kNoTrace;
    SimTime applied_at{};
  };

  ChaosEngine(net::Network& network, std::uint64_t seed);
  ~ChaosEngine() override;

  ChaosEngine(const ChaosEngine&) = delete;
  ChaosEngine& operator=(const ChaosEngine&) = delete;

  /// Generates a schedule from `config` and this engine's seed, then arms
  /// it.  Returns the generated schedule.
  const Schedule& arm(const ChaosConfig& config);

  /// Arms an explicit schedule (replay, minimization).  Faults whose time
  /// is already past are clamped to "now".
  const Schedule& arm_schedule(Schedule schedule);

  /// Appends one fault to the armed schedule at runtime without disturbing
  /// faults already armed.  This is how remote shards steer chaos: a
  /// cross-shard control message delivered at a lockstep window barrier
  /// calls inject(), so the fault lands deterministically in the target
  /// region's own timeline.  Times already past are clamped to "now",
  /// mirroring arm_schedule.  Returns the fault's index in schedule().
  std::size_t inject(Fault fault);

  const Schedule& schedule() const { return schedule_; }
  std::uint64_t seed() const { return seed_; }

  /// Faults applied so far, in application order (the post-mortem log).
  const std::vector<InjectedFault>& injected() const { return injected_; }

  /// Fault windows currently open; 0 once every fault has healed.
  std::size_t active_count() const { return active_; }
  bool quiescent() const { return active_ == 0; }

  /// NodeChurn-compatible hook: fires (node, false) on crash and
  /// (node, true) on restart, so fault managers written against churn
  /// transitions observe chaos crashes identically.
  void set_transition_callback(net::NodeChurn::TransitionCallback cb) {
    on_transition_ = std::move(cb);
  }

  /// Base-station liveness hook: fires (station, false/true) whenever a
  /// crash-kind fault (kStationCrash, or a kCrash that happens to land on
  /// a base station) downs or restarts a base-station node.  Fault managers
  /// previously observed only sensor churn through the transition callback;
  /// this one lets a failover layer watch station churn identically.
  void set_station_callback(net::NodeChurn::TransitionCallback cb) {
    on_station_ = std::move(cb);
  }

  /// Test-only observation hook: invoked after each fault is applied.
  void set_fault_applied_hook(std::function<void(const Fault&)> hook) {
    on_fault_applied_ = std::move(hook);
  }

  /// Clock skew currently applied to a node's reported timestamps.
  double clock_skew_s(net::NodeId id) const;
  /// The timestamp `id` would stamp on a report right now (kernel time
  /// plus any active skew fault).
  SimTime report_time(net::NodeId id) const;

  // net::FaultInjector:
  bool severed(net::NodeId a, net::NodeId b) const override;
  HopEffect on_transmit(net::NodeId from, net::NodeId to,
                        std::uint64_t bytes) override;

 private:
  void apply(std::size_t index);
  void expire(std::size_t index);
  void disarm();
  double& slot(std::vector<double>& per_node, net::NodeId id);
  int& count_slot(std::vector<int>& per_node, net::NodeId id);

  net::Network& network_;
  std::uint64_t seed_;
  common::Rng rng_;
  Schedule schedule_;
  std::vector<InjectedFault> injected_;
  std::vector<EventHandle> armed_;  ///< cancelled on destruction

  // Active-fault aggregates.  Per-node vectors are sized lazily and
  // overlapping windows stack additively.
  std::vector<int> blackout_;            ///< refcount per node
  std::vector<double> node_extra_loss_;  ///< added loss per node
  std::vector<double> skew_s_;           ///< clock skew per node
  std::vector<std::vector<bool>> cuts_;  ///< active partition masks
  std::vector<bool> cut_live_;           ///< slot in cuts_ still active
  std::vector<std::size_t> cut_slot_of_;  ///< fault index -> cuts_ slot
  double drop_prob_ = 0.0;
  double dup_prob_ = 0.0;
  double jitter_max_s_ = 0.0;
  std::size_t active_ = 0;

  net::NodeChurn::TransitionCallback on_transition_;
  net::NodeChurn::TransitionCallback on_station_;
  std::function<void(const Fault&)> on_fault_applied_;
};

}  // namespace pgrid::sim
