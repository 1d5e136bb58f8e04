// Trace-scoped cost ledger: the single source of truth for what a query
// spent, and where.
//
// Section 4 of the paper compares *estimated vs actual* computation, data
// transfer, energy and response time per query.  Every layer that spends a
// resource (the radio, the backhaul, the grid scheduler, the agent
// platform, the executor) charges this ledger; per-query attribution rides
// on a TraceId that the simulation kernel propagates along causal event
// chains, so asynchronous continuations inherit the trace of the event
// that scheduled them.  Spans are RAII brackets stamped with simulated
// time.  Exporters (export.hpp) turn the ledger into CSV/JSON.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace pgrid::telemetry {

/// Identifies one end-to-end query (or any other attributable activity).
/// Trace 0 is the ambient "untraced" bucket.
using TraceId = std::uint64_t;
inline constexpr TraceId kNoTrace = 0;

/// Where a cost was incurred.  The four the acceptance study needs
/// (wireless / backhaul / grid compute / agent messaging) plus the edge
/// hosts, in-network sensing, and the runtime envelope itself.
enum class Subsystem : std::uint8_t {
  kWireless = 0,      ///< radio transmissions (sensor net + edge wifi)
  kBackhaul,          ///< wired links (base <-> grid machines)
  kGridCompute,       ///< jobs on grid machines
  kAgentMessaging,    ///< envelope traffic at the agent platform layer
  kSensing,           ///< in-network sampling/aggregation rounds
  kEdgeCompute,       ///< base-station / handheld computation
  kRuntime,           ///< end-to-end query brackets
  kChaos,             ///< injected faults (chaos engine events)
};
inline constexpr std::size_t kSubsystemCount = 8;

std::string to_string(Subsystem subsystem);

/// One bundle of counters.  `bytes` counts transmitted payload bytes (per
/// link-layer attempt, matching NetworkStats::bytes_sent); `joules` is
/// battery energy actually drawn; `ops` are application-level operations
/// (flops for solves, merges for aggregation); `sim_seconds` accumulates
/// closed span durations; `count` tallies charge events (transmissions,
/// messages, closed spans).
struct Cost {
  std::uint64_t bytes = 0;
  double joules = 0.0;
  double ops = 0.0;
  double sim_seconds = 0.0;
  std::uint64_t count = 0;

  Cost& operator+=(const Cost& other) {
    bytes += other.bytes;
    joules += other.joules;
    ops += other.ops;
    sim_seconds += other.sim_seconds;
    count += other.count;
    return *this;
  }
  Cost operator-(const Cost& other) const {
    Cost out;
    out.bytes = bytes - other.bytes;
    out.joules = joules - other.joules;
    out.ops = ops - other.ops;
    out.sim_seconds = sim_seconds - other.sim_seconds;
    out.count = count - other.count;
    return out;
  }
  bool empty() const {
    return bytes == 0 && joules == 0.0 && ops == 0.0 && sim_seconds == 0.0 &&
           count == 0;
  }
};

/// Per-subsystem costs of one trace (or of the whole run).
struct TraceCosts {
  std::array<Cost, kSubsystemCount> by_subsystem{};

  Cost& operator[](Subsystem s) {
    return by_subsystem[static_cast<std::size_t>(s)];
  }
  const Cost& operator[](Subsystem s) const {
    return by_subsystem[static_cast<std::size_t>(s)];
  }
  /// Sum over subsystems.  kAgentMessaging bytes are logical-layer copies
  /// of traffic already counted under wireless/backhaul, and kRuntime spans
  /// bracket the others, so prefer per-subsystem reads where double
  /// counting matters; `network_bytes()` is the physical-layer total.
  Cost total() const {
    Cost sum;
    for (const auto& c : by_subsystem) sum += c;
    return sum;
  }
  /// Physical bytes on links: wireless + backhaul.
  std::uint64_t network_bytes() const {
    return (*this)[Subsystem::kWireless].bytes +
           (*this)[Subsystem::kBackhaul].bytes;
  }
  TraceCosts operator-(const TraceCosts& other) const {
    TraceCosts out;
    for (std::size_t i = 0; i < kSubsystemCount; ++i) {
      out.by_subsystem[i] = by_subsystem[i] - other.by_subsystem[i];
    }
    return out;
  }
  TraceCosts& operator+=(const TraceCosts& other) {
    for (std::size_t i = 0; i < kSubsystemCount; ++i) {
      by_subsystem[i] += other.by_subsystem[i];
    }
    return *this;
  }
};

/// Hierarchical cost counters: global totals plus a row per trace.  One
/// ledger per Network (and therefore per deployment); what_if clones get
/// their own ledger, so trial runs never pollute the real one.
class CostLedger {
 public:
  explicit CostLedger(sim::Simulator& simulator) : sim_(simulator) {}

  CostLedger(const CostLedger&) = delete;
  CostLedger& operator=(const CostLedger&) = delete;

  sim::Simulator& simulator() { return sim_; }

  /// Allocates a fresh trace id (never reused, survives reset()).
  TraceId new_trace() { return next_trace_++; }

  /// The trace the simulation kernel is currently executing under.
  TraceId current_trace() const { return sim_.trace_context(); }

  /// Charges `cost` to `subsystem` under the active trace.
  void charge(Subsystem subsystem, const Cost& cost) {
    charge(subsystem, current_trace(), cost);
  }
  void charge(Subsystem subsystem, TraceId trace, const Cost& cost) {
    totals_[subsystem] += cost;
    // Charges arrive in long runs under one trace (every transmission of a
    // query's collection charges its trace), so the last-charged row is
    // memoised; map nodes never move, and only reset() erases them.
    if (last_row_ == nullptr || last_trace_ != trace) {
      last_row_ = &by_trace_[trace];
      last_trace_ = trace;
    }
    (*last_row_)[subsystem] += cost;
  }

  const TraceCosts& totals() const { return totals_; }
  Cost total() const { return totals_.total(); }

  /// Costs attributed to one trace (zero if the trace never charged).
  TraceCosts trace(TraceId trace) const {
    auto it = by_trace_.find(trace);
    return it == by_trace_.end() ? TraceCosts{} : it->second;
  }

  /// Moves `share` of the costs already attributed to `from` onto `to`.
  /// Global totals are untouched — this is per-subscriber attribution when
  /// one shared transmission serves many traces, not a new charge.  Each
  /// counter is clamped to what `from` actually holds, so a row can never
  /// go negative (unsigned counters would wrap) and the ledger stays
  /// conserved: sum over rows == totals, before and after.
  void reattribute(TraceId from, TraceId to, const TraceCosts& share) {
    if (from == to) return;
    TraceCosts& src = by_trace_[from];
    TraceCosts& dst = by_trace_[to];
    for (std::size_t i = 0; i < kSubsystemCount; ++i) {
      Cost moved = share.by_subsystem[i];
      Cost& avail = src.by_subsystem[i];
      moved.bytes = std::min(moved.bytes, avail.bytes);
      moved.count = std::min(moved.count, avail.count);
      moved.joules = std::min(moved.joules, avail.joules);
      moved.ops = std::min(moved.ops, avail.ops);
      moved.sim_seconds = std::min(moved.sim_seconds, avail.sim_seconds);
      avail = avail - moved;
      dst.by_subsystem[i] += moved;
    }
  }

  /// Traces with at least one charge, ascending (includes 0 if untraced
  /// activity occurred).
  std::vector<TraceId> trace_ids() const {
    std::vector<TraceId> ids;
    ids.reserve(by_trace_.size());
    for (const auto& [id, costs] : by_trace_) ids.push_back(id);
    return ids;
  }

  /// Spans currently open against this ledger (0 when quiescent).
  int open_spans() const { return open_spans_; }

  /// Clears all counters and trace rows; trace-id allocation continues
  /// monotonically so old ids never alias new queries.
  void reset() {
    totals_ = TraceCosts{};
    by_trace_.clear();
    last_row_ = nullptr;
  }

 private:
  friend class Span;

  sim::Simulator& sim_;
  TraceCosts totals_;
  std::map<TraceId, TraceCosts> by_trace_;  // ordered => deterministic export
  TraceCosts* last_row_ = nullptr;  // by_trace_[last_trace_], or none
  TraceId last_trace_ = 0;
  TraceId next_trace_ = 1;
  int open_spans_ = 0;
};

/// Splits `total` into `n` shares that sum EXACTLY to `total`: integer
/// counters divide evenly with the remainder on the last share, and
/// floating counters give the last share the exact residual of the even
/// split — so reattributing every share out of a row drains it to zero and
/// conservation checks hold to the bit, not just to a tolerance.
inline std::vector<TraceCosts> split_even(const TraceCosts& total,
                                          std::size_t n) {
  std::vector<TraceCosts> shares(n);
  if (n == 0) return shares;
  for (std::size_t s = 0; s < kSubsystemCount; ++s) {
    const Cost& whole = total.by_subsystem[s];
    const std::uint64_t count = static_cast<std::uint64_t>(n);
    Cost even;
    even.bytes = whole.bytes / count;
    even.count = whole.count / count;
    even.joules = whole.joules / static_cast<double>(n);
    even.ops = whole.ops / static_cast<double>(n);
    even.sim_seconds = whole.sim_seconds / static_cast<double>(n);
    for (std::size_t i = 0; i + 1 < n; ++i) shares[i].by_subsystem[s] = even;
    Cost& last = shares[n - 1].by_subsystem[s];
    last.bytes = whole.bytes - even.bytes * (count - 1);
    last.count = whole.count - even.count * (count - 1);
    last.joules = whole.joules - even.joules * static_cast<double>(n - 1);
    last.ops = whole.ops - even.ops * static_cast<double>(n - 1);
    last.sim_seconds =
        whole.sim_seconds - even.sim_seconds * static_cast<double>(n - 1);
  }
  return shares;
}

/// Sets the simulation kernel's trace context for the current scope and
/// restores the previous one on exit.  Events scheduled inside the scope
/// inherit the trace, so the id follows the causal chain automatically.
/// Thin telemetry-typed wrapper over the kernel's own save/restore guard —
/// the same mechanism the fire path uses, so scope nesting and event
/// execution compose without special cases.
class TraceScope {
 public:
  TraceScope(sim::Simulator& simulator, TraceId trace)
      : guard_(simulator, trace) {}
  TraceScope(const TraceScope&) = delete;
  TraceScope& operator=(const TraceScope&) = delete;

 private:
  sim::TraceContextGuard guard_;
};

/// RAII bracket stamped with simulated time.  On close (or destruction) it
/// charges {sim_seconds = elapsed, count = 1} to its subsystem under the
/// trace that was active when it opened.  Movable so asynchronous
/// completions can carry the span to the callback that closes it.
class Span {
 public:
  Span(CostLedger& ledger, Subsystem subsystem)
      : ledger_(&ledger),
        subsystem_(subsystem),
        trace_(ledger.current_trace()),
        started_(ledger.sim_.now()) {
    ++ledger_->open_spans_;
  }

  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept {
    if (this != &other) {
      close();
      ledger_ = other.ledger_;
      subsystem_ = other.subsystem_;
      trace_ = other.trace_;
      started_ = other.started_;
      other.ledger_ = nullptr;
    }
    return *this;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { close(); }

  TraceId trace() const { return trace_; }
  bool open() const { return ledger_ != nullptr; }

  /// Records the elapsed simulated time; idempotent.
  void close() {
    if (!ledger_) return;
    Cost cost;
    cost.sim_seconds = (ledger_->sim_.now() - started_).to_seconds();
    cost.count = 1;
    ledger_->charge(subsystem_, trace_, cost);
    --ledger_->open_spans_;
    ledger_ = nullptr;
  }

 private:
  CostLedger* ledger_ = nullptr;
  Subsystem subsystem_ = Subsystem::kRuntime;
  TraceId trace_ = kNoTrace;
  sim::SimTime started_{};
};

}  // namespace pgrid::telemetry
