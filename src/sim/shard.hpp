// SPMD world partitioning: deterministic lockstep execution of spatially
// sharded sub-worlds over the slab-heap kernel.
//
// The paper targets city-scale pervasive-grid deployments; GloMoSim — the
// substrate the paper names in §3 — answered the same scaling problem with
// conservative parallel simulation over spatial partitions.  This module
// keeps the partitioning and runs it serially: the world is split into
// *regions* (one per base-station coverage area), each region owns a full
// `Simulator` (its own slab + 4-ary heap from PR 2), and a `LockstepWorld`
// advances every region, in region order on the calling thread, in bounded
// time windows.  Cross-region interactions (radio frames that cross a region
// boundary, wired backhaul, chaos faults targeting a remote region) never
// touch another region's queue directly: they are posted to a
// `ShardMailbox` and exchanged only at window boundaries, in the canonical
// (deliver-time, source-region, source-sequence) order.
//
// Determinism contract.  A region's trajectory is a pure function of its own
// initial state plus the timestamped message sequence it receives from the
// mailbox.  The mailbox orders deliveries by a key that depends only on
// *what was sent*, so per-region event streams, NetworkStats and ledger
// totals are bit-identical run to run, and equal to one global queue's
// per-region projection when messages honour the lookahead bound.  The
// lockstep window doubles as that conservative bound: messages must be
// timestamped at or after the end of the window in which they were posted
// (violations are counted, and clamped deterministically).
//
// Why partition at all on one thread: it keeps each region's slab, heap and
// node state compact and hot (EXP-K1 measured the kernel's per-event cost
// roughly doubling from depth 256 to 16k — that curve is the cache, not the
// algorithm).  Concurrent region lanes were measured and retired: on the
// `city-flow` workload they never beat one serial lane (EXP-K2).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace pgrid::sim {

/// Lockstep knobs.  Code that never constructs a LockstepWorld is untouched
/// entirely.
struct ShardingConfig {
  /// Unused: regions always run serially, in region order.  Nothing reads
  /// this field; it remains only until the perf harness stops assigning it.
  std::size_t shards = 1;
  /// Lockstep window width = the conservative lookahead bound.  Cross-region
  /// messages posted during a window must be timestamped >= the window's
  /// end; keep this at or below the minimum cross-region latency
  /// (backhaul delay, boundary radio propagation).
  SimTime window = SimTime::milliseconds(5);
};

/// One cross-region message: deliver `fn` into region `dst` at `at`.
/// The (at, src, seq) triple is the canonical exchange key.
struct CrossShardMessage {
  std::int64_t at_us = 0;
  std::uint32_t src = 0;  ///< source region; region_count() for control lane
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;  ///< per-source monotone counter
  Simulator::Callback fn;
};

/// Boundary-exchange statistics (also the bit-identity witnesses the
/// property tests compare across runs).
struct LockstepStats {
  std::uint64_t windows = 0;         ///< barriers executed
  std::uint64_t events = 0;          ///< events fired across all regions
  std::uint64_t messages = 0;        ///< cross-region messages delivered
  std::uint64_t lookahead_violations = 0;  ///< msgs timestamped before the
                                           ///< barrier they were delivered at
};

/// Cross-region mailbox.  post() queues a message while a window executes;
/// deliver_all() runs at the barrier and injects every pending message into
/// its target region's queue in canonical (at, src, seq) order.
class ShardMailbox {
 public:
  /// `regions` source lanes plus one control lane (index == regions) for
  /// out-of-band injectors (chaos targeting a remote shard, remote query
  /// entry points).
  explicit ShardMailbox(std::size_t regions);

  std::uint32_t control_lane() const { return regions_; }

  /// Posts a message from region `src` (or the control lane), stamped with
  /// the source's next sequence number.
  void post(std::uint32_t src, std::uint32_t dst, SimTime at,
            Simulator::Callback fn);

  bool empty() const { return pending_.empty(); }
  std::size_t pending() const { return pending_.size(); }

  /// Drains every pending message into the target simulators, canonically
  /// ordered.  A message timestamped before its target region's clock —
  /// i.e. one the kernel's schedule_at must clamp, because the sender broke
  /// the lookahead bound (window width <= message latency) — counts as a
  /// lookahead violation.  Returns delivered count; folds each delivery
  /// into `digest` (FNV-1a over the canonical keys).
  std::size_t deliver_all(const std::vector<Simulator*>& regions,
                          std::uint64_t& digest, std::uint64_t& violations);

 private:
  std::uint32_t regions_;
  std::vector<CrossShardMessage> pending_;
  std::vector<std::uint64_t> next_seq_;  ///< regions_ + 1 lanes
};

/// Advances a set of region simulators in deterministic lockstep windows.
/// Regions are non-owning: the runtimes (or benches) that built them keep
/// ownership; the world only drives and exchanges.
class LockstepWorld {
 public:
  LockstepWorld(ShardingConfig config, std::vector<Simulator*> regions);

  std::size_t region_count() const { return regions_.size(); }
  Simulator& region(std::size_t r) { return *regions_[r]; }
  const ShardingConfig& config() const { return config_; }

  /// Posts a cross-region message from region `src`.  Call from inside an
  /// executing event of region `src` or between runs.
  void post(std::uint32_t src, std::uint32_t dst, SimTime at,
            Simulator::Callback fn) {
    mailbox_.post(src, dst, at, std::move(fn));
  }

  /// Control-lane post: injection from outside any region (chaos faults
  /// aimed at a remote region, external query arrival).
  void post_control(std::uint32_t dst, SimTime at, Simulator::Callback fn) {
    mailbox_.post(mailbox_.control_lane(), dst, at, std::move(fn));
  }

  /// Runs lockstep windows until every region's queue is empty and the
  /// mailbox has drained.  Each window advances the regions in region order
  /// on the calling thread.
  LockstepStats run();

  /// Runs windows until every region reaches `deadline` (and the mailbox
  /// holds nothing at or before it); idle regions' clocks advance in step.
  LockstepStats run_until(SimTime deadline);

  /// Cumulative stats across run() calls.
  const LockstepStats& stats() const { return stats_; }

  /// Order witness: FNV-1a over every boundary exchange's canonical key and
  /// every window's per-region fire counts, folded in region order.  Equal
  /// digests across runs mean the window barriers, the mailbox order and
  /// every region's event cadence matched exactly.
  std::uint64_t order_digest() const { return digest_; }

  /// Earliest pending event time across regions; false when all drained.
  bool next_event_time(SimTime& out) const;

 private:
  /// One window: [start, start + window].  Returns events fired.
  std::uint64_t run_window(SimTime end);

  ShardingConfig config_;
  std::vector<Simulator*> regions_;
  ShardMailbox mailbox_;
  LockstepStats stats_;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
};

}  // namespace pgrid::sim
