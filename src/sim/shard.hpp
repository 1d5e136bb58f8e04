// SPMD world partitioning: deterministic lockstep execution of spatially
// sharded sub-worlds over the slab-heap kernel.
//
// The paper targets city-scale pervasive-grid deployments; GloMoSim — the
// substrate the paper names in §3 — answered the same scaling problem with
// conservative parallel simulation over spatial partitions.  This module is
// that layer for our kernel: the world is split into *regions* (one per
// base-station coverage area), each region owns a full `Simulator` (its own
// slab + 4-ary heap from PR 2), and a `LockstepWorld` advances every region
// in bounded time windows.  Cross-region interactions (radio frames that
// cross a region boundary, wired backhaul, chaos faults targeting a remote
// region) never touch another region's queue directly: they are posted to a
// `ShardMailbox` and exchanged only at window boundaries, in the canonical
// (deliver-time, source-region, source-sequence) order.
//
// Determinism contract.  A region's trajectory is a pure function of its own
// initial state plus the timestamped message sequence it receives from the
// mailbox.  Because the mailbox orders deliveries canonically — a key that
// depends only on *what was sent*, never on which OS thread or shard lane
// ran the sender — the region-to-shard mapping is invisible to outcomes:
// running R regions on 1, 2 or 4 shards (or serially) produces bit-identical
// per-region event streams, NetworkStats and ledger totals.  The lockstep
// window doubles as the conservative lookahead bound: messages must be
// timestamped at or after the end of the window in which they were posted
// (violations are counted, and clamped deterministically).
//
// Why this also *speeds up* a single core: partitioning keeps each region's
// slab, heap and node state compact and hot (EXP-K1 measured the kernel's
// per-event cost roughly doubling from depth 256 to 16k — that curve is the
// cache, not the algorithm).  Parallel shard lanes then multiply the win on
// multi-core hosts; on a single core the lanes simply interleave.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/thread_pool.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace pgrid::sim {

/// Lockstep knobs.  The default (1 shard) is the kill switch: everything
/// runs on one lane, byte-identical to serial region-by-region execution —
/// and code that never constructs a LockstepWorld is untouched entirely.
struct ShardingConfig {
  /// Worker lanes regions are folded onto (region r runs on lane
  /// r % shards).  1 = single-lane lockstep; the mapping is a pure fold, so
  /// outcomes are identical for every value.
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
/// property tests compare across shard counts).
struct LockstepStats {
  std::uint64_t windows = 0;         ///< barriers executed
  std::uint64_t events = 0;          ///< events fired across all regions
  std::uint64_t messages = 0;        ///< cross-region messages delivered
  std::uint64_t lookahead_violations = 0;  ///< msgs timestamped before the
                                           ///< barrier they were delivered at
};

/// Thread-safe cross-region mailbox.  post() may be called from any shard
/// lane while a window executes; deliver_all() runs at the barrier on the
/// coordinating thread and injects every pending message into its target
/// region's queue in canonical (at, src, seq) order.
class ShardMailbox {
 public:
  /// `regions` source lanes plus one control lane (index == regions) for
  /// out-of-band injectors (chaos targeting a remote shard, remote query
  /// entry points).
  explicit ShardMailbox(std::size_t regions);

  std::uint32_t control_lane() const { return regions_; }

  /// Posts a message from region `src` (or the control lane).  The
  /// per-source sequence number is taken under the lock, so a source's
  /// posts are totally ordered no matter which thread runs its region.
  void post(std::uint32_t src, std::uint32_t dst, SimTime at,
            Simulator::Callback fn);

  bool empty() const;
  std::size_t pending() const;

  /// Drains every pending message into the target simulators, canonically
  /// ordered.  A message timestamped before its target region's clock —
  /// i.e. one the kernel's schedule_at must clamp, because the sender broke
  /// the lookahead bound (window width <= message latency) — counts as a
  /// lookahead violation.  Both the timestamp and the target clock at a
  /// barrier are shard-count-invariant, so the count (and the clamp) are
  /// too.  Returns delivered count; folds each delivery into `digest`
  /// (FNV-1a over the canonical keys).
  std::size_t deliver_all(const std::vector<Simulator*>& regions,
                          std::uint64_t& digest, std::uint64_t& violations);

 private:
  std::uint32_t regions_;
  mutable std::mutex mutex_;
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
  /// executing event of region `src` (any shard lane) or from the
  /// coordinating thread between runs.
  void post(std::uint32_t src, std::uint32_t dst, SimTime at,
            Simulator::Callback fn) {
    mailbox_.post(src, dst, at, std::move(fn));
  }

  /// Control-lane post: injection from outside any region (chaos faults
  /// aimed at a remote shard, external query arrival).
  void post_control(std::uint32_t dst, SimTime at, Simulator::Callback fn) {
    mailbox_.post(mailbox_.control_lane(), dst, at, std::move(fn));
  }

  /// Runs lockstep windows until every region's queue is empty and the
  /// mailbox has drained.  With a `pool`, shard lanes run concurrently (one
  /// task per lane); without one lanes run in order on the calling thread.
  /// Either way the result is bit-identical.
  LockstepStats run(common::ThreadPool* pool = nullptr);

  /// Runs windows until every region reaches `deadline` (and the mailbox
  /// holds nothing at or before it); idle regions' clocks advance in step.
  LockstepStats run_until(SimTime deadline, common::ThreadPool* pool = nullptr);

  /// Cumulative stats across run() calls.
  const LockstepStats& stats() const { return stats_; }

  /// Order witness: FNV-1a over every boundary exchange's canonical key and
  /// every window's per-region fire counts, folded in region order.  Equal
  /// digests across shard counts mean the window barriers, the mailbox
  /// order and every region's event cadence matched exactly.
  std::uint64_t order_digest() const { return digest_; }

  /// Earliest pending event time across regions; false when all drained.
  bool next_event_time(SimTime& out) const;

 private:
  /// One window: [start, start + window].  Returns events fired.
  std::uint64_t run_window(SimTime end, common::ThreadPool* pool);

  ShardingConfig config_;
  std::vector<Simulator*> regions_;
  ShardMailbox mailbox_;
  LockstepStats stats_;
  std::uint64_t digest_ = 1469598103934665603ull;  // FNV-1a offset basis
  std::vector<std::uint64_t> fired_;  ///< per-region scratch, one window
};

}  // namespace pgrid::sim
