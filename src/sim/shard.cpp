#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace pgrid::sim {

namespace {

constexpr std::uint64_t kFnvPrime = 1099511628211ull;

inline std::uint64_t fnv1a(std::uint64_t digest, std::uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    digest ^= (value >> shift) & 0xffull;
    digest *= kFnvPrime;
  }
  return digest;
}

}  // namespace

ShardMailbox::ShardMailbox(std::size_t regions)
    : regions_(static_cast<std::uint32_t>(regions)),
      next_seq_(regions + 1, 0) {}

void ShardMailbox::post(std::uint32_t src, std::uint32_t dst, SimTime at,
                        Simulator::Callback fn) {
  assert(src <= regions_ && dst < regions_ && "mailbox lane out of range");
  pending_.push_back(
      CrossShardMessage{at.us, src, dst, next_seq_[src]++, std::move(fn)});
}

std::size_t ShardMailbox::deliver_all(const std::vector<Simulator*>& regions,
                                      std::uint64_t& digest,
                                      std::uint64_t& violations) {
  std::vector<CrossShardMessage> batch;
  batch.swap(pending_);
  if (batch.empty()) return 0;
  // Canonical exchange order: (deliver time, source region, source seq).
  // Every component is decided by the sender's deterministic execution, so
  // the order does not depend on the order regions ran inside the window.
  // Sort a compact key array, not the messages themselves — message records
  // carry a callback whose moves are not free, and a busy barrier exchanges
  // tens of thousands of them.
  struct Key {
    std::int64_t at_us;
    std::uint32_t src;
    std::uint64_t seq : 40;
    std::uint64_t index : 24;
  };
  std::vector<Key> order;
  order.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    assert(i < (1ull << 24) && "barrier batch exceeds key index width");
    order.push_back(Key{batch[i].at_us, batch[i].src, batch[i].seq, i});
  }
  std::sort(order.begin(), order.end(), [](const Key& a, const Key& b) {
    if (a.at_us != b.at_us) return a.at_us < b.at_us;
    if (a.src != b.src) return a.src < b.src;
    return a.seq < b.seq;
  });
  for (const Key& key : order) {
    CrossShardMessage& message = batch[key.index];
    if (SimTime{message.at_us} < regions[message.dst]->now()) ++violations;
    digest = fnv1a(digest, static_cast<std::uint64_t>(message.at_us));
    digest = fnv1a(digest, (static_cast<std::uint64_t>(message.src) << 32) |
                               message.dst);
    digest = fnv1a(digest, message.seq);
    // schedule_at clamps a pre-barrier timestamp to the target's clock —
    // deterministically, because both inputs are.
    regions[message.dst]->schedule_at(SimTime{message.at_us},
                                      std::move(message.fn));
  }
  return batch.size();
}

LockstepWorld::LockstepWorld(ShardingConfig config,
                             std::vector<Simulator*> regions)
    : config_(config),
      regions_(std::move(regions)),
      mailbox_(regions_.size()) {
  assert(!regions_.empty());
  if (config_.window.us <= 0) config_.window = SimTime::microseconds(1);
}

bool LockstepWorld::next_event_time(SimTime& out) const {
  bool any = false;
  for (const Simulator* region : regions_) {
    if (region->pending() == 0) continue;
    const SimTime t = region->next_time();
    if (!any || t < out) out = t;
    any = true;
  }
  return any;
}

std::uint64_t LockstepWorld::run_window(SimTime end) {
  // Regions are mutually independent inside a window (cross-region effects
  // ride the mailbox), so advancing them one after another is exact.
  std::uint64_t total = 0;
  for (std::size_t r = 0; r < regions_.size(); ++r) {
    const std::uint64_t fired = regions_[r]->run_until(end);
    // Fold (window end, region, fired) in region order: the digest then
    // witnesses every region's per-window cadence, not just the mailbox.
    if (fired != 0) {
      digest_ = fnv1a(digest_, static_cast<std::uint64_t>(end.us));
      digest_ = fnv1a(digest_, (static_cast<std::uint64_t>(r) << 32) | fired);
    }
    total += fired;
  }
  return total;
}

LockstepStats LockstepWorld::run() {
  return run_until(SimTime{std::numeric_limits<std::int64_t>::max()});
}

LockstepStats LockstepWorld::run_until(SimTime deadline) {
  LockstepStats before = stats_;
  for (;;) {
    // Barrier: exchange everything posted during the last window.  The
    // next window's start is derived from global state only.
    SimTime start{};
    const bool have_events = next_event_time(start);
    std::uint64_t violations = 0;
    const std::size_t delivered =
        mailbox_.deliver_all(regions_, digest_, violations);
    stats_.messages += delivered;
    stats_.lookahead_violations += violations;
    if (delivered > 0) continue;  // deliveries may have changed next_time
    if (!have_events || start > deadline) break;
    // Window [start, start + window], clamped to the deadline so callers
    // can interleave lockstep execution with external injection.
    SimTime end = start + config_.window;
    if (end > deadline) end = deadline;
    stats_.events += run_window(end);
    ++stats_.windows;
  }
  // Idle regions' clocks advance in step with the fleet.
  if (deadline.us != std::numeric_limits<std::int64_t>::max()) {
    for (Simulator* region : regions_) region->run_until(deadline);
  }
  LockstepStats delta;
  delta.windows = stats_.windows - before.windows;
  delta.events = stats_.events - before.events;
  delta.messages = stats_.messages - before.messages;
  delta.lookahead_violations =
      stats_.lookahead_violations - before.lookahead_violations;
  return delta;
}

}  // namespace pgrid::sim
