// The layered perf harness: seeded open-loop workloads over the public
// runtime API, end-to-end metrics from untraced reps, and per-layer metrics
// from one traced rep plus a probe block.
//
// Load is open loop in simulated time: every arrival is generated from the
// seed and placed on the simulator (or the sharded control lane) before the
// timed phase starts, so arrivals never wait on completions.  The timed
// phase advances the clock in fixed kStepS steps via run_until, recording
// each step's host time, then drains to completion.  The harness reaches
// every layer through its public API only; it changes nothing in src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "trace.hpp"

namespace pgrid::perf {

enum class Workload { kStudyBuilding, kCityFlow, kSharedLoad, kMobileFailover };

const std::vector<Workload>& all_workloads();
std::string_view name_of(Workload workload);
std::optional<Workload> workload_from_name(std::string_view name);

/// Simulated seconds per host-timed step.
inline constexpr double kStepS = 0.1;

/// The sizes a workload runs at.  default_shape() is the benchmark; tests
/// shrink it to run the same code paths in milliseconds.
struct Shape {
  std::size_t sensors = 1600;  ///< per region
  std::size_t regions = 1;     ///< city-flow only
  double horizon_s = 100.0;    ///< last arrival before this; then drain
};

Shape default_shape(Workload workload);

/// One handheld query of the open-loop schedule.
struct Arrival {
  double at_s = 0.0;
  std::uint32_t region = 0;    ///< region whose handheld submits
  std::int32_t remote_to = -1; ///< city-flow: forwarded to this region
  bool learn = false;          ///< study-building: what_if_all + retrain first
  std::int32_t sensor = -1;    ///< point reads: sensor index, else -1
  double deadline_s = 0.0;     ///< after at_s; 0 = none
  std::string text;
};

/// City-flow bulk backhaul transfer.
struct Transfer {
  double at_s = 0.0;
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::uint64_t bytes = 0;
};

struct Schedule {
  std::vector<Arrival> arrivals;
  std::vector<Transfer> transfers;
  std::vector<double> crashes_s;       ///< mobile-failover station crashes
  std::vector<std::uint32_t> walkers;  ///< mobile-failover moving sensors
  std::vector<std::pair<std::uint32_t, std::uint32_t>> hot_routes;
};

/// Pure function of (workload, shape, seed).
Schedule make_schedule(Workload workload, const Shape& shape,
                       std::uint64_t seed);

/// Stats-getter counters summed over regions once the rep has drained.
struct LayerCounters {
  std::uint64_t tx = 0, delivered = 0, dropped = 0;
  std::uint64_t route_hits = 0, route_misses = 0;
  std::uint64_t routes_kept = 0, routes_dropped = 0;
  std::uint64_t scoped_epochs = 0, global_epochs = 0;
  std::uint64_t rows_patched = 0, snapshot_builds = 0, moves = 0;
  std::uint64_t flows = 0, fallbacks = 0, plan_hits = 0, plan_misses = 0;
  std::uint64_t analytic_hops = 0;
  std::uint64_t rel_messages = 0, rel_delivered = 0, rel_data_frames = 0;
  std::uint64_t retransmissions = 0, reroutes = 0;
  std::uint64_t admitted = 0, coalesced = 0, queued = 0, shed = 0;
  std::uint64_t collections = 0, fanouts = 0;
  std::uint64_t checkpoints = 0, checkpoint_bytes = 0;
  std::uint64_t crashes = 0, epochs_lost = 0;
  std::uint64_t agent_sent = 0, agent_failed = 0;
  std::uint64_t trace_rows = 0;
  std::uint64_t windows = 0, messages = 0, lookahead_violations = 0;
};

struct RepResult {
  double setup_s = 0.0;  ///< host seconds to build the deployment(s)
  double phase_s = 0.0;  ///< host seconds of the timed phase
  double cpu_s = 0.0;    ///< user+sys CPU seconds of the timed phase
  std::vector<double> step_ms;      ///< host ms per kStepS step
  std::vector<double> responses_s;  ///< simulated arrival -> answer
  std::size_t attempted = 0;
  std::size_t failed = 0;  ///< unanswered, answered twice, shed, or not ok
  std::size_t met = 0;     ///< ok, coverage >= 0.8 and within deadline
  double coverage_sum = 0.0;
  double energy_j = 0.0;  ///< battery energy, summed over regions
  std::vector<double> energy_est_error;  ///< |est - actual| / actual
  std::uint64_t digest = 0;  ///< FNV-1a over answers, energies, responses
  std::uint64_t sim_events = 0;
  std::size_t pending_peak = 0;
  double sim_end_s = 0.0;
  LayerCounters counters;
  std::vector<std::string> gate_failures;  ///< empty = every gate passed
};

/// Extra behaviour for one rep.
struct RepOptions {
  /// Traced rep: spans around the benchmark's calls, the pure pre-calls
  /// before each submit, counters at step boundaries, and a mid-run
  /// checkpoint probe.  Null = untraced.
  Tracer* tracer = nullptr;
  /// City-flow lockstep lanes; 0 = the workload's 4.  The traced run
  /// reruns at 1 for the parallel speedup.
  std::size_t shards = 0;
};

/// Builds a fresh deployment, places the schedule, runs the timed phase,
/// drains, and checks the correctness gates.
RepResult run_rep(Workload workload, const Shape& shape, std::uint64_t seed,
                  const RepOptions& options = {});

/// Host seconds to build the workload's deployment(s) without running it
/// (extra set-up samples).
double time_setup(Workload workload, const Shape& shape, std::uint64_t seed);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts etc.)
};

/// End-to-end metrics over untraced reps (host metrics: median of reps).
std::vector<Metric> end_to_end_metrics(const std::vector<RepResult>& reps,
                                       const std::vector<double>& setup_s,
                                       double peak_rss_mb);

struct LayerReport {
  std::vector<Metric> metrics;
  std::map<std::string, double> self_ms;  ///< per layer, traced rep
  std::vector<std::string> gate_failures;
};

/// Per-layer metrics: one traced rep (whose digest must match `untraced`),
/// the probe block on the drained deployment, the advertisement on/off
/// builds, and for city-flow a serial (shards=1) rerun.
LayerReport layer_report(Workload workload, const Shape& shape,
                         std::uint64_t seed, const RepResult& untraced,
                         Tracer& tracer);

/// Peak resident set of this process in MiB.
double peak_rss_mb();

}  // namespace pgrid::perf
