#include "sim/simulator.hpp"

#include <algorithm>

namespace pgrid::sim {

EventHandle Simulator::schedule(SimTime delay, Callback fn) {
  if (delay.us < 0) delay = SimTime::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

EventHandle Simulator::schedule_at(SimTime when, Callback fn) {
  const std::uint32_t slot = prepare_slot(when);
  record_at(slot).fn = std::move(fn);
  return finish_schedule(slot, when);
}

bool Simulator::cancel(EventHandle handle) {
  const std::uint32_t slot = static_cast<std::uint32_t>(handle.id);
  const std::uint32_t generation =
      static_cast<std::uint32_t>(handle.id >> 32);
  if (generation == 0 || slot >= slab_size_) return false;
  EventRecord& record = record_at(slot);
  // A released slot bumps its generation, so handles for fired, cancelled,
  // or cleared events fail this check even after the slot is reused.
  if (record.generation != generation || record.bucket == kNone) {
    return false;
  }
  const std::uint32_t bucket = record.bucket;
  Bucket& fifo = buckets_[bucket];
  if (record.prev == kNone) {
    fifo.head = record.next;
  } else {
    record_at(record.prev).next = record.next;
  }
  if (record.next == kNone) {
    fifo.tail = record.prev;
  } else {
    record_at(record.next).prev = record.prev;
  }
  if (fifo.head == kNone) {
    heap_remove(fifo.heap_pos);
    release_bucket(bucket);
  }
  record.bucket = kNone;
  --count_;
  record.fn.reset();
  release_slot(slot);
  return true;
}

void Simulator::renumber_sequences() {
  // Order-preserving compaction of the 40-bit seq space: relative seq order
  // is untouched, so (when, seq) comparisons — and therefore every heap
  // position — are unchanged.
  std::vector<std::uint32_t> order(heap_size_);
  for (std::size_t i = 0; i < heap_size_; ++i) {
    order[i] = static_cast<std::uint32_t>(physical_of(i));
  }
  std::sort(order.begin(), order.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return entry_at(a).seq_bucket < entry_at(b).seq_bucket;
            });
  std::uint64_t next = 0;
  for (const std::uint32_t physical : order) {
    HeapEntry& entry = entry_at(physical);
    entry.seq_bucket = (next++ << 24) | (entry.seq_bucket & kBucketMask);
  }
  next_seq_ = next;
}

void Simulator::sift_down(std::size_t physical, const HeapEntry& entry) {
  const std::size_t last = last_physical();
  for (;;) {
    const std::size_t child_group = physical == 0 ? 1 : physical - 2;
    const std::size_t first_child = child_group * 4;
    if (first_child > last) break;
#if defined(__GNUC__)
    // The four grandchild groups are contiguous (groups first_child - 2 ..
    // first_child + 1); warm them while the tournament below runs.
    if (first_child + 1 < groups_.size()) {
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
    const HeapEntry winner = lane[best];
    if (!entry_less(winner, entry)) break;
    place(physical, winner);
    physical = first_child + best;
  }
  place(physical, entry);
}

void Simulator::heap_remove(std::size_t physical) {
  const std::size_t last = last_physical();
  const HeapEntry moved = entry_at(last);
  entry_at(last) = kSentinel;
  --heap_size_;
  if (physical == last) return;  // removed the tail entry
  sift_up(physical, moved);
  sift_down(buckets_[moved.bucket()].heap_pos, moved);
}

std::size_t Simulator::run() {
  std::size_t processed = 0;
  while (count_ > 0) {
    fire_top();
    ++processed;
  }
  return processed;
}

std::size_t Simulator::run_until(SimTime deadline) {
  std::size_t processed = 0;
  while (heap_size_ > 0 && entry_at(0).when_us <= deadline.us) {
    fire_top();
    ++processed;
  }
  if (now_ < deadline) now_ = deadline;
  return processed;
}

void Simulator::clear() {
  for (std::size_t i = 0; i < heap_size_; ++i) {
    HeapEntry& entry = entry_at(physical_of(i));
    const std::uint32_t bucket = entry.bucket();
    std::uint32_t slot = buckets_[bucket].head;
    while (slot != kNone) {
      EventRecord& record = record_at(slot);
      const std::uint32_t next = record.next;
      record.bucket = kNone;
      record.fn.reset();
      release_slot(slot);
      slot = next;
    }
    free_buckets_.push_back(bucket);
    entry = kSentinel;
  }
  heap_size_ = 0;
  count_ = 0;
  memo_ = kNone;
}

}  // namespace pgrid::sim
