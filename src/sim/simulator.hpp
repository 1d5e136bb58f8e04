// Deterministic discrete-event simulation kernel.
//
// This is the substrate stand-in for GloMoSim [31], which the paper extended
// to simulate dynamic service composition.  Events at equal timestamps fire
// in scheduling order (a monotone sequence number breaks ties), so a run is
// a pure function of its seed and inputs.
//
// Hot-path layout: event records live in a slab (fixed-size chunks with a
// free list), callbacks are small-buffer-optimized SmallFn values stored in
// the record, and pending events are grouped into *time buckets*.  A bucket
// is an intrusive FIFO of event slots that share one timestamp (the
// record's bucket/prev/next links).  An index-tracked 4-ary min-heap —
// sibling groups aligned to cache lines — holds one 16-byte key per bucket,
// (when, seq), where seq numbers buckets in creation order: the order in
// which their first events were scheduled.  Most schedules reuse the
// timestamp of the schedule just before them (zero-delay continuations,
// bursts of equal-time sends), so only a new timestamp pays a heap push and
// only an emptied bucket pays a pop; everything else is an O(1) list append
// or unlink.
//
// Why fire order is still exactly (when, scheduling order):
//  * An append may join only the *memo*: the most recently created bucket,
//    and only when the new event's time equals that bucket's.  Creating any
//    bucket replaces the memo; releasing the memo's bucket clears it; it
//    never moves back to an older bucket.
//  * Hence each bucket holds a contiguous run of scheduling order: its
//    events were scheduled after the previous bucket was created and before
//    the next one was.  Two buckets may share a timestamp (a bucket at t,
//    then one at t', then t again); the heap fires the older one first, and
//    every event in it was scheduled before every event in the newer one.
//  * An appended event is the latest scheduled of all, and it joins the
//    newest bucket, so it lands after every pending event at its timestamp.
//    FIFO within a bucket plus (when, seq) across buckets is (when,
//    scheduling order).
//  * A bucket emptied by firing is released (its heap key popped, the memo
//    cleared) *before* its last callback runs, so a zero-delay schedule
//    from that callback opens a fresh bucket rather than joining a dead one.
//
// Cancellation unlinks the event in O(1) and removes the bucket's heap key
// only when the bucket empties — no tombstones — so pending() is exact and
// a handle for a fired event is reliably rejected; steady-state
// schedule/fire cycles reuse slab slots and buckets and perform zero
// allocations.
//
// The kernel also propagates an opaque *trace context* (a uint64, used by
// the telemetry layer as the active TraceId) along causal chains: an event
// captures the context current when it was scheduled and re-establishes it
// while it runs, so asynchronous continuations inherit the trace of the
// activity that spawned them without any plumbing in the callbacks.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/small_fn.hpp"
#include "sim/time.hpp"

namespace pgrid::sim {

/// Handle used to cancel a scheduled event.  Encodes the slab slot and the
/// slot's generation at scheduling time, so a handle goes stale the moment
/// its event fires, is cancelled, or is cleared — even if the slot has been
/// reused since.  A zero (default) handle is never valid.
struct EventHandle {
  std::uint64_t id = 0;
};

/// Event-queue simulator.  Single-threaded by design: determinism is a core
/// requirement for the partitioning study (same seed -> same trace).
class Simulator {
 public:
  /// Inline buffer sized for the capture sets the subsystems actually
  /// schedule (a couple of shared_ptrs plus a completion std::function);
  /// larger captures transparently spill to the heap.
  using Callback = common::SmallFn<void(), 64>;

  SimTime now() const { return now_; }

  /// Schedules `fn` to run `delay` after now. Negative delays clamp to 0.
  EventHandle schedule(SimTime delay, Callback fn);

  /// Schedules `fn` at an absolute time (clamped to now).
  EventHandle schedule_at(SimTime when, Callback fn);

  /// Emplace overloads: a lambda (or any callable) is constructed directly
  /// in the slab record — no intermediate Callback, no relocate.  These win
  /// overload resolution for raw callables; the Callback overloads above
  /// still take pre-built values.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule(SimTime delay, F&& fn) {
    if (delay.us < 0) delay = SimTime::zero();
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, Callback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventHandle schedule_at(SimTime when, F&& fn) {
    const std::uint32_t slot = prepare_slot(when);
    record_at(slot).fn.emplace(std::forward<F>(fn));
    return finish_schedule(slot, when);
  }

  /// Cancels a pending event; returns false if it already fired, was
  /// cancelled, or was dropped by clear().
  bool cancel(EventHandle handle);

  /// Runs until the queue is empty.  Returns events processed.
  std::size_t run();

  /// Runs events with time <= deadline; leaves later events queued and
  /// advances now() to the deadline.
  std::size_t run_until(SimTime deadline);

  /// Runs at most one event; returns false if the queue was empty.
  bool step();

  /// Exact count of live (scheduled, not yet fired or cancelled) events.
  std::size_t pending() const { return count_; }

  /// Timestamp of the earliest pending event; pending() must be > 0.  The
  /// lockstep sharding layer (sim/shard.hpp) uses this to pick window
  /// boundaries without popping.
  SimTime next_time() const {
    assert(count_ > 0);
    return SimTime{entry_at(0).when_us};
  }

  /// Drops all pending events (used between independent experiment runs).
  /// Handles issued before the clear are invalidated, and their slots are
  /// recycled for new events.
  void clear();

  /// The opaque context (telemetry TraceId) new events inherit; restored
  /// around each event the kernel fires.
  std::uint64_t trace_context() const { return trace_; }
  void set_trace_context(std::uint64_t trace);

 private:
  /// Null link / no bucket / no memo.
  static constexpr std::uint32_t kNone = 0xffffffff;

  /// Slab-resident event.  `generation` starts at 1 and is bumped every
  /// time the slot is released, so stale handles never alias a reused slot.
  /// `bucket` is kNone unless the event is pending; `prev`/`next` link it
  /// into its bucket's FIFO.  Records live in fixed-size chunks whose
  /// addresses never move, so the fire path invokes callbacks in place — no
  /// per-event move to the stack — even when the callback schedules and
  /// grows the slab.
  struct EventRecord {
    std::uint64_t trace = 0;
    std::uint32_t generation = 1;
    std::uint32_t bucket = kNone;
    std::uint32_t prev = kNone;
    std::uint32_t next = kNone;
    Callback fn;
  };

  /// One timestamp's FIFO of pending event slots, plus the physical heap
  /// position of its key.  The timestamp itself lives in the heap key.
  struct Bucket {
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    std::uint32_t heap_pos = kNone;
  };

  static constexpr std::size_t kChunkShift = 8;
  static constexpr std::size_t kChunkSize = 1ull << kChunkShift;

  /// Heap node, packed to 16 bytes so a sift touches as few cache lines as
  /// possible: the bucket's timestamp plus (seq << 24 | bucket).  Buckets
  /// are bounded by kMaxPending; seq is 40 bits, counts bucket creations,
  /// and is renumbered compactly before it can wrap, so comparing the
  /// packed word under equal timestamps compares creation order (seqs are
  /// unique — the bucket bits never decide).
  struct HeapEntry {
    std::int64_t when_us;
    std::uint64_t seq_bucket;

    std::uint32_t bucket() const {
      return static_cast<std::uint32_t>(seq_bucket & kBucketMask);
    }
  };

  /// One 4-ary sibling group per cache line.  Physical node p lives in
  /// groups_[p >> 2].lane[p & 3]; the root is physical 0, lanes 1..3 of
  /// group 0 and every lane past the live tail hold +inf sentinels, so the
  /// 4-way child tournament always reads a full, resident line and never
  /// branches on group occupancy.  Children of p occupy group p - 2 (the
  /// root's occupy group 1), so a sift touches exactly one line per level
  /// and the four grandchild groups are contiguous — prefetchable.
  struct alignas(64) HeapGroup {
    HeapEntry lane[4];
  };

  static constexpr std::uint64_t kBucketMask = (1ull << 24) - 1;
  /// Concurrent-pending-event bound from the 24 bucket bits (a bucket holds
  /// at least one event, so buckets never outnumber events).
  static constexpr std::size_t kMaxPending = 1ull << 24;
  /// Renumber threshold for the 40 seq bits.
  static constexpr std::uint64_t kMaxSeq = 1ull << 40;

  static constexpr HeapEntry kSentinel{
      std::numeric_limits<std::int64_t>::max(),
      std::numeric_limits<std::uint64_t>::max()};

  /// Short-circuit lexicographic (when, seq) compare.  Deliberately branchy:
  /// a fully branch-free descent measured ~20% slower because predicted
  /// branches let the next level's loads issue speculatively, while cmov
  /// serializes the address chain.
  static bool entry_less(const HeapEntry& a, const HeapEntry& b) {
    if (a.when_us != b.when_us) return a.when_us < b.when_us;
    return a.seq_bucket < b.seq_bucket;
  }

  /// Branch-free variant for the intra-group pair compares of the 4-way
  /// tournament: those results only select a lane (setcc arithmetic, no
  /// jump), which halves the ~50%-mispredicted branches per level while the
  /// final compare stays branchy so the descent path is still speculated.
  static bool entry_less_flat(const HeapEntry& a, const HeapEntry& b) {
    return (a.when_us < b.when_us) |
           ((a.when_us == b.when_us) & (a.seq_bucket < b.seq_bucket));
  }

  EventRecord& record_at(std::uint32_t slot) {
    return slab_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  HeapEntry& entry_at(std::size_t physical) {
    return groups_[physical >> 2].lane[physical & 3];
  }
  const HeapEntry& entry_at(std::size_t physical) const {
    return groups_[physical >> 2].lane[physical & 3];
  }
  /// Physical index of the i-th live entry in heap fill order (0, 4, 5, ...).
  static std::size_t physical_of(std::size_t i) { return i == 0 ? 0 : i + 3; }
  /// Physical index of the last live entry; heap_size_ must be > 0.
  std::size_t last_physical() const { return physical_of(heap_size_ - 1); }

  void place(std::size_t physical, const HeapEntry& entry) {
    entry_at(physical) = entry;
    buckets_[entry.bucket()].heap_pos = static_cast<std::uint32_t>(physical);
  }
  void sift_up(std::size_t physical, const HeapEntry& entry);
  void sift_down(std::size_t physical, const HeapEntry& entry);
  void heap_push(const HeapEntry& entry);
  void heap_remove(std::size_t physical);
  /// Removes the root (earliest) entry.
  void heap_pop_root();

  /// Clamps `when` to now and acquires a slot.
  std::uint32_t prepare_slot(SimTime& when);
  /// Records the trace context, appends the slot to the memo bucket or
  /// opens a new one, returns the handle.
  EventHandle finish_schedule(std::uint32_t slot, SimTime when);
  /// Creates a bucket holding just `slot`, pushes its heap key, and makes
  /// it the memo.
  void open_bucket(std::uint32_t slot, std::int64_t when_us);

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  std::uint32_t acquire_bucket();
  /// Returns an emptied bucket (already out of the heap) to the free list
  /// and clears the memo if it named this bucket.
  void release_bucket(std::uint32_t bucket);
  /// Compacts pending bucket seqs to 0..n-1 (order-preserving, so heap
  /// positions are unchanged); runs once per 2^40 created buckets.
  void renumber_sequences();

  /// Unlinks the earliest event (releasing its bucket if that empties it,
  /// so nested scheduling never joins a bucket that has left the heap) and
  /// runs the callback under its captured trace context.
  void fire_top();

  std::vector<std::unique_ptr<EventRecord[]>> slab_;  // stable-address chunks
  std::size_t slab_size_ = 0;                         // slots handed out
  std::vector<std::uint32_t> free_slots_;
  std::vector<Bucket> buckets_;
  std::vector<std::uint32_t> free_buckets_;
  std::vector<HeapGroup> groups_;  // index-tracked 4-ary min-heap of buckets
  std::size_t heap_size_ = 0;      // live buckets (heap entries)
  std::size_t count_ = 0;          // live events
  std::uint32_t memo_ = kNone;     // newest bucket, while it is live
  std::int64_t memo_when_us_ = 0;  // its timestamp
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t trace_ = 0;
};

/// Establishes `trace` as the kernel's trace context for the current scope
/// and restores the previous context on exit.  The fire path and the
/// telemetry layer's TraceScope share this one save/restore mechanism.
class TraceContextGuard {
 public:
  TraceContextGuard(Simulator& simulator, std::uint64_t trace)
      : sim_(simulator), saved_(simulator.trace_context()) {
    sim_.set_trace_context(trace);
  }
  ~TraceContextGuard() { sim_.set_trace_context(saved_); }
  TraceContextGuard(const TraceContextGuard&) = delete;
  TraceContextGuard& operator=(const TraceContextGuard&) = delete;

 private:
  Simulator& sim_;
  std::uint64_t saved_;
};

// ---- Hot-path definitions -------------------------------------------------
//
// The per-event cycle (schedule -> append or push -> fire) is defined inline
// here so a caller's TU can fold it into its loop; pushing these out of line
// costs an indirect-call round trip per event that is measurable at
// L1-resident queue depths.  Cold paths — cancel, clear, renumbering, the
// run loops — stay in simulator.cpp.

inline void Simulator::set_trace_context(std::uint64_t trace) {
  if (trace == trace_) return;
  trace_ = trace;
  // Keep log lines correlatable with ledger rows (PGRID_LOG prefixes the
  // active trace id).  The kernel is the only writer of the log trace.
  common::set_log_trace(trace);
}

inline std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  assert(slab_size_ < kMaxPending && "too many concurrent pending events");
  if ((slab_size_ >> kChunkShift) == slab_.size()) {
    slab_.push_back(std::make_unique<EventRecord[]>(kChunkSize));
  }
  return static_cast<std::uint32_t>(slab_size_++);
}

inline void Simulator::release_slot(std::uint32_t slot) {
  ++record_at(slot).generation;
  free_slots_.push_back(slot);
}

inline std::uint32_t Simulator::acquire_bucket() {
  if (!free_buckets_.empty()) {
    const std::uint32_t bucket = free_buckets_.back();
    free_buckets_.pop_back();
    return bucket;
  }
  buckets_.emplace_back();
  return static_cast<std::uint32_t>(buckets_.size() - 1);
}

inline void Simulator::release_bucket(std::uint32_t bucket) {
  if (memo_ == bucket) memo_ = kNone;
  free_buckets_.push_back(bucket);
}

inline std::uint32_t Simulator::prepare_slot(SimTime& when) {
  if (when < now_) when = now_;
  return acquire_slot();
}

inline void Simulator::open_bucket(std::uint32_t slot, std::int64_t when_us) {
  if (next_seq_ >= kMaxSeq) renumber_sequences();
  const std::uint32_t bucket = acquire_bucket();
  Bucket& fifo = buckets_[bucket];
  fifo.head = slot;
  fifo.tail = slot;
  EventRecord& record = record_at(slot);
  record.bucket = bucket;
  record.prev = kNone;
  record.next = kNone;
  heap_push(HeapEntry{when_us, (next_seq_++ << 24) | bucket});
  memo_ = bucket;
  memo_when_us_ = when_us;
}

inline EventHandle Simulator::finish_schedule(std::uint32_t slot,
                                              SimTime when) {
  EventRecord& record = record_at(slot);
  record.trace = trace_;
  if (memo_ != kNone && when.us == memo_when_us_) {
    // Same timestamp as the newest bucket: this event's seq is the largest
    // pending, so it belongs at that bucket's tail.
    Bucket& fifo = buckets_[memo_];
    record.bucket = memo_;
    record.prev = fifo.tail;
    record.next = kNone;
    record_at(fifo.tail).next = slot;
    fifo.tail = slot;
  } else {
    open_bucket(slot, when.us);
  }
  ++count_;
  return EventHandle{(static_cast<std::uint64_t>(record.generation) << 32) |
                     slot};
}

inline void Simulator::sift_up(std::size_t physical, const HeapEntry& entry) {
  while (physical != 0) {
    // Children of physical node p form group p - 2 (the root's form group
    // 1), so the parent of anything in group g >= 2 is node g + 2.
    const std::size_t group = physical >> 2;
    const std::size_t parent = group == 1 ? 0 : group + 2;
    const HeapEntry above = entry_at(parent);
    if (!entry_less(entry, above)) break;
    place(physical, above);
    physical = parent;
  }
  place(physical, entry);
}

inline void Simulator::heap_push(const HeapEntry& entry) {
  const std::size_t physical = physical_of(heap_size_);
  if ((physical >> 2) >= groups_.size()) {
    groups_.push_back(HeapGroup{{kSentinel, kSentinel, kSentinel, kSentinel}});
  }
  ++heap_size_;
  sift_up(physical, entry);
}

inline void Simulator::heap_pop_root() {
  const std::size_t last = last_physical();
  const HeapEntry moved = entry_at(last);
  entry_at(last) = kSentinel;
  --heap_size_;
  if (heap_size_ == 0) return;
  // Floyd's pop: walk the hole to the bottom promoting the best child of
  // every level unconditionally — the descent's only branch is the
  // perfectly-predicted loop bound, not a data-dependent exit compare —
  // then bubble the moved tail entry up from the leaf hole (it was already
  // bottom-tier, so it rises O(1) levels in expectation).
  const std::size_t bottom = last_physical();
  // Prefetching grandchild groups only pays once the heap outgrows L1;
  // below that every group is already resident and the prefetches are pure
  // issue-slot overhead on the descent's critical path.
  const bool deep = heap_size_ > 2048;
  std::size_t hole = 0;
  for (;;) {
    const std::size_t child_group = hole == 0 ? 1 : hole - 2;
    const std::size_t first_child = child_group * 4;
    if (first_child > bottom) break;
#if defined(__GNUC__)
    // The four grandchild groups are contiguous (groups first_child - 2 ..
    // first_child + 1); warm them while the tournament below runs.
    if (deep && first_child + 1 < groups_.size()) {
      __builtin_prefetch(&groups_[first_child - 2]);
      __builtin_prefetch(&groups_[first_child - 1]);
      __builtin_prefetch(&groups_[first_child]);
      __builtin_prefetch(&groups_[first_child + 1]);
    }
#endif
    // Branch-light 4-way tournament over one cache line; lanes past the
    // live tail hold +inf sentinels and can never win.
    const HeapEntry* lane = groups_[child_group].lane;
    const std::size_t b01 = entry_less_flat(lane[1], lane[0]) ? 1 : 0;
    const std::size_t b23 = entry_less_flat(lane[3], lane[2]) ? 3 : 2;
    const std::size_t best = entry_less(lane[b23], lane[b01]) ? b23 : b01;
    place(hole, lane[best]);
    hole = first_child + best;
  }
  sift_up(hole, moved);
}

inline void Simulator::fire_top() {
  const HeapEntry root = entry_at(0);
  const std::uint32_t bucket = root.bucket();
  now_ = SimTime{root.when_us};
  const std::uint32_t slot = buckets_[bucket].head;
  EventRecord& record = record_at(slot);
  if (record.next == kNone) {
    // Last event of its bucket: release the bucket before the callback, so
    // a same-time schedule from it opens a new bucket behind any older
    // ones instead of joining this one after it has left the heap.
    heap_pop_root();
    release_bucket(bucket);
  } else {
    buckets_[bucket].head = record.next;
    record_at(record.next).prev = kNone;
  }
  // Mark not-pending before invoking so a callback cancelling its own (now
  // firing) handle is told no.  The record's chunk address is stable, so
  // the callback runs in place — it may schedule (growing the slab) or
  // clear() freely; the slot itself stays acquired until after the call.
  record.bucket = kNone;
  --count_;
  {
    TraceContextGuard guard(*this, record.trace);
    record.fn();
  }
  record.fn.reset();
  release_slot(slot);
}

inline bool Simulator::step() {
  if (count_ == 0) return false;
  fire_top();
  return true;
}

}  // namespace pgrid::sim
