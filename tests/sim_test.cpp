// Unit tests for the discrete-event kernel: ordering, determinism,
// cancellation, bounded runs, and a differential run against a reference
// per-event queue.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <random>
#include <vector>

#include "sim/simulator.hpp"

namespace pgrid::sim {
namespace {

TEST(SimTime, ArithmeticAndConversion) {
  const auto a = SimTime::seconds(1.5);
  const auto b = SimTime::milliseconds(500);
  EXPECT_EQ((a + b).us, 2000000);
  EXPECT_EQ((a - b).us, 1000000);
  EXPECT_DOUBLE_EQ(a.to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(b.to_ms(), 500.0);
  EXPECT_LT(b, a);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::seconds(3.0), [&] { order.push_back(3); });
  sim.schedule(SimTime::seconds(1.0), [&] { order.push_back(1); });
  sim.schedule(SimTime::seconds(2.0), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::seconds(3.0));
}

TEST(Simulator, TiesFireInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule(SimTime::seconds(1.0), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  std::vector<double> times;
  sim.schedule(SimTime::seconds(1.0), [&] {
    times.push_back(sim.now().to_seconds());
    sim.schedule(SimTime::seconds(2.0), [&] {
      times.push_back(sim.now().to_seconds());
    });
  });
  sim.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Simulator, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.schedule(SimTime::seconds(5.0), [&] {
    sim.schedule(SimTime{-1000}, [&] {
      fired = true;
      EXPECT_DOUBLE_EQ(sim.now().to_seconds(), 5.0);
    });
  });
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  auto handle = sim.schedule(SimTime::seconds(1.0), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(handle));
  EXPECT_FALSE(sim.cancel(handle));  // double cancel
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelInvalidHandle) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(EventHandle{0}));
  EXPECT_FALSE(sim.cancel(EventHandle{12345}));
}

TEST(Simulator, RunUntilLeavesLaterEvents) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2.0), [&] { ++fired; });
  sim.schedule(SimTime::seconds(10.0), [&] { ++fired; });
  const auto processed = sim.run_until(SimTime::seconds(5.0));
  EXPECT_EQ(processed, 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(5.0));
  sim.run();
  EXPECT_EQ(fired, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.run_until(SimTime::seconds(7.0));
  EXPECT_EQ(sim.now(), SimTime::seconds(7.0));
}

TEST(Simulator, StepOneEvent) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  sim.schedule(SimTime::seconds(2.0), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, PendingCountExcludesCancelled) {
  Simulator sim;
  sim.schedule(SimTime::seconds(1.0), [] {});
  auto h = sim.schedule(SimTime::seconds(2.0), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(h);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ClearDropsEverything) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  sim.clear();
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 0);
}

TEST(Simulator, ScheduleAtAbsoluteTime) {
  Simulator sim;
  double fire_time = -1.0;
  sim.schedule_at(SimTime::seconds(4.0),
                  [&] { fire_time = sim.now().to_seconds(); });
  sim.run();
  EXPECT_DOUBLE_EQ(fire_time, 4.0);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  int fired = 0;
  auto handle = sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(handle)) << "fired events must not be cancellable";
  EXPECT_EQ(sim.pending(), 0u) << "stale cancel must not corrupt pending()";
  // The queue stays fully usable afterwards.
  sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StaleHandleNeverAliasesAReusedSlot) {
  Simulator sim;
  bool late_fired = false;
  auto first = sim.schedule(SimTime::seconds(1.0), [] {});
  sim.run();
  // The fired event's slot is recycled for the next event; the old handle
  // must not cancel the newcomer.
  auto second = sim.schedule(SimTime::seconds(1.0), [&] { late_fired = true; });
  EXPECT_FALSE(sim.cancel(first));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(late_fired);
  EXPECT_FALSE(sim.cancel(second));
}

TEST(Simulator, CancelledHandleStaysDeadAfterSlotReuse) {
  Simulator sim;
  bool fired = false;
  auto victim = sim.schedule(SimTime::seconds(1.0), [] {});
  EXPECT_TRUE(sim.cancel(victim));
  sim.schedule(SimTime::seconds(2.0), [&] { fired = true; });
  EXPECT_FALSE(sim.cancel(victim)) << "cancel must not hit the reused slot";
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_TRUE(fired);
}

TEST(Simulator, PendingIsExactThroughCancelAndFire) {
  Simulator sim;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 8; ++i) {
    handles.push_back(sim.schedule(SimTime::seconds(1.0 + i), [] {}));
  }
  EXPECT_EQ(sim.pending(), 8u);
  sim.cancel(handles[2]);
  sim.cancel(handles[5]);
  EXPECT_EQ(sim.pending(), 6u);
  sim.run_until(SimTime::seconds(4.0));  // fires 1s, 3s, 4s (2s cancelled)
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_FALSE(sim.cancel(handles[0])) << "already fired";
  EXPECT_EQ(sim.pending(), 3u);
  sim.run();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, RunUntilExactlyAtEventTimestamp) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::seconds(5.0), [&] { ++fired; });
  sim.schedule(SimTime::seconds(5.0), [&] { ++fired; });
  sim.schedule(SimTime{5000001}, [&] { ++fired; });
  // Events at exactly the deadline fire; one microsecond later does not.
  EXPECT_EQ(sim.run_until(SimTime::seconds(5.0)), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now(), SimTime::seconds(5.0));
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, ClearWithPendingCancellations) {
  Simulator sim;
  int fired = 0;
  auto a = sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  auto b = sim.schedule(SimTime::seconds(2.0), [&] { ++fired; });
  sim.schedule(SimTime::seconds(3.0), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  sim.clear();
  EXPECT_EQ(sim.pending(), 0u);
  EXPECT_FALSE(sim.cancel(b)) << "clear() invalidates outstanding handles";
  // Slots recycled by clear() host new events cleanly.
  auto c = sim.schedule(SimTime::seconds(1.0), [&] { ++fired; });
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(b));
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(sim.cancel(c));
}

TEST(Simulator, CancelDuringCallbackTargetsLaterEvent) {
  Simulator sim;
  bool victim_fired = false;
  EventHandle victim;
  sim.schedule(SimTime::seconds(1.0), [&] {
    EXPECT_TRUE(sim.cancel(victim));
    EXPECT_FALSE(sim.cancel(victim));
  });
  victim = sim.schedule(SimTime::seconds(2.0), [&] { victim_fired = true; });
  sim.run();
  EXPECT_FALSE(victim_fired);
}

TEST(Simulator, TraceContextRestoredAcrossNestedSchedules) {
  Simulator sim;
  std::vector<std::uint64_t> observed;
  sim.set_trace_context(7);
  sim.schedule(SimTime::seconds(1.0), [&] {
    observed.push_back(sim.trace_context());  // inherits 7
    sim.set_trace_context(11);
    // This continuation inherits 11, the context at scheduling time...
    sim.schedule(SimTime::seconds(1.0), [&] {
      observed.push_back(sim.trace_context());
      sim.set_trace_context(13);
    });
  });
  sim.schedule(SimTime::seconds(3.0), [&] {
    // ...while a sibling scheduled under 7 still sees 7: the kernel
    // restores the pre-fire context after every event, including ones
    // that mutated it (directly or via nested schedules).
    observed.push_back(sim.trace_context());
  });
  sim.set_trace_context(0);
  sim.schedule(SimTime::seconds(4.0), [&] {
    observed.push_back(sim.trace_context());
  });
  sim.run();
  EXPECT_EQ(observed, (std::vector<std::uint64_t>{7, 11, 7, 0}));
  EXPECT_EQ(sim.trace_context(), 0u);
}

TEST(Simulator, MoveOnlyCaptureAndHeapSpill) {
  Simulator sim;
  // Move-only captures were impossible under std::function; large captures
  // exercise SmallFn's heap fallback on the same code path.
  auto payload = std::make_unique<int>(41);
  int got = 0;
  sim.schedule(SimTime::seconds(1.0),
               [p = std::move(payload), &got] { got = *p + 1; });
  struct Big {
    double a[16] = {3.5};
  } big;
  double big_got = 0.0;
  sim.schedule(SimTime::seconds(2.0), [big, &big_got] { big_got = big.a[0]; });
  sim.run();
  EXPECT_EQ(got, 42);
  EXPECT_DOUBLE_EQ(big_got, 3.5);
}

TEST(Simulator, ManyEventsStressOrdering) {
  Simulator sim;
  std::vector<std::int64_t> fire_us;
  for (int i = 0; i < 5000; ++i) {
    // Deterministic pseudo-scatter of times.
    const auto t = SimTime::microseconds((i * 7919) % 10007);
    sim.schedule(t, [&fire_us, &sim] { fire_us.push_back(sim.now().us); });
  }
  sim.run();
  ASSERT_EQ(fire_us.size(), 5000u);
  for (std::size_t i = 1; i < fire_us.size(); ++i) {
    EXPECT_LE(fire_us[i - 1], fire_us[i]);
  }
}

TEST(Simulator, StressOrderingWithInterleavedCancels) {
  // Heavy mixed workload: scatter-scheduled events, a deterministic third
  // of them cancelled (some from inside callbacks), order still exact and
  // pending() still precise throughout.
  Simulator sim;
  std::vector<std::int64_t> fire_us;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 4000; ++i) {
    const auto t = SimTime::microseconds((i * 6007) % 9973 + 1);
    handles.push_back(
        sim.schedule(t, [&fire_us, &sim] { fire_us.push_back(sim.now().us); }));
  }
  std::size_t cancelled = 0;
  for (std::size_t i = 0; i < handles.size(); i += 3) {
    ASSERT_TRUE(sim.cancel(handles[i]));
    ++cancelled;
  }
  EXPECT_EQ(sim.pending(), 4000u - cancelled);
  sim.run();
  EXPECT_EQ(fire_us.size(), 4000u - cancelled);
  for (std::size_t i = 1; i < fire_us.size(); ++i) {
    EXPECT_LE(fire_us[i - 1], fire_us[i]);
  }
  EXPECT_EQ(sim.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Differential test: the time-bucketed kernel against the per-event order it
// promises, kept as a reference: a std::priority_queue of (when, seq) with
// lazily dropped cancellations.  Every kernel callback pops the reference's
// head and checks it is the event now firing; pending() and next_time() are
// compared inside every callback (before and after its nested actions) and
// after every step or run_until.  Schedules are heavy in zero delays and
// repeated timestamps, so buckets run long, several buckets share one
// timestamp, and the newest bucket moves on and off the one now firing.

struct RefEntry {
  std::int64_t when = 0;
  std::uint64_t seq = 0;
  bool operator>(const RefEntry& other) const {
    if (when != other.when) return when > other.when;
    return seq > other.seq;
  }
};

/// What the seeded runs exercised, summed over seeds; the test requires
/// every counter to be non-zero so a quiet generator cannot pass vacuously.
struct Coverage {
  std::size_t fired = 0;
  std::size_t zero_delay = 0;
  std::size_t past_schedule_at = 0;
  std::size_t cancel_head = 0;
  std::size_t cancel_middle = 0;
  std::size_t cancel_tail = 0;
  std::size_t cancel_firing_time = 0;  // an event due at now(), mid-callback
  std::size_t stale_cancel = 0;
  std::size_t clear_mid_run = 0;
  std::size_t run_until_at_bucket = 0;
};

class KernelOracle {
 public:
  KernelOracle(std::uint64_t seed, std::size_t budget, Coverage& coverage)
      : rng_(seed), budget_(budget), cov_(coverage) {}
  // Pending callbacks hold `this`.
  KernelOracle(const KernelOracle&) = delete;
  KernelOracle& operator=(const KernelOracle&) = delete;

  Simulator sim;

  void seed_events(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) schedule_random();
  }

  /// Drives the kernel to quiescence with a seeded mix of step() and
  /// run_until() calls; returns false once a check has failed.
  bool drive() {
    while (sim.pending() > 0) {
      const std::uint64_t mode = rng_() % 4;
      if (mode < 2) {
        EXPECT_TRUE(sim.step());
      } else {
        // run_until exactly at the head bucket's time, or one microsecond
        // either side of it.
        const std::int64_t head = sim.next_time().us;
        const std::int64_t deadline =
            mode == 2 ? head : head + static_cast<std::int64_t>(rng_() % 3) - 1;
        if (deadline == head) ++cov_.run_until_at_bucket;
        const SimTime before = sim.now();
        sim.run_until(SimTime{deadline});
        EXPECT_EQ(sim.now().us, std::max(before.us, deadline));
        drop_dead_head();
        if (live_ > 0) {
          EXPECT_GT(ref_.top().when, deadline);
        }
      }
      check_state();
      if (::testing::Test::HasFailure()) return false;
    }
    EXPECT_EQ(live_, 0u);
    return !::testing::Test::HasFailure();
  }

 private:
  struct Event {
    EventHandle handle;
    std::int64_t when = 0;
    bool pending = false;
  };

  /// Schedules one event; ids double as reference seqs (both count
  /// schedules), so `events_` is in seq order.
  void schedule_at_time(std::int64_t requested, bool absolute) {
    const auto id = static_cast<std::uint32_t>(events_.size());
    const std::int64_t when = std::max(requested, sim.now().us);
    if (absolute && requested < sim.now().us) ++cov_.past_schedule_at;
    if (when == sim.now().us) ++cov_.zero_delay;
    auto fire = [this, id] { on_fire(id); };
    const EventHandle handle =
        absolute ? sim.schedule_at(SimTime{requested}, fire)
                 : sim.schedule(SimTime{requested - sim.now().us}, fire);
    events_.push_back(Event{handle, when, true});
    ref_.push(RefEntry{when, id});
    ++live_;
  }

  /// Delay mix: 35% zero, 35% a repeated small offset, 15% an absolute
  /// time on a coarse grid (often in the past), 15% scattered.
  void schedule_random() {
    const std::int64_t now = sim.now().us;
    const std::uint64_t pick = rng_() % 20;
    if (pick < 7) {
      schedule_at_time(now, false);
    } else if (pick < 14) {
      schedule_at_time(now + 100 * static_cast<std::int64_t>(1 + rng_() % 3),
                       false);
    } else if (pick < 17) {
      const std::int64_t grid =
          (now / 100 + static_cast<std::int64_t>(rng_() % 5) - 2) * 100;
      schedule_at_time(grid, true);
    } else {
      schedule_at_time(now + static_cast<std::int64_t>(1 + rng_() % 5000),
                       false);
    }
  }

  void on_fire(std::uint32_t id) {
    ++cov_.fired;
    drop_dead_head();
    ASSERT_GT(live_, 0u) << "kernel fired event " << id
                         << " the reference holds no event for";
    const RefEntry head = ref_.top();
    ref_.pop();
    --live_;
    EXPECT_EQ(head.seq, id) << "fire order diverged at t=" << head.when;
    EXPECT_EQ(sim.now().us, head.when);
    events_[head.seq].pending = false;
    events_[id].pending = false;
    check_state();
    act();
    check_state();
  }

  /// Nested work from inside a callback: schedules (1.5 on average until
  /// the budget is spent), cancels, and the occasional clear().
  void act() {
    static constexpr std::size_t kChildren[] = {0, 1, 1, 2, 2, 3};
    std::size_t children = kChildren[rng_() % 6];
    while (children-- > 0 && events_.size() < budget_) schedule_random();
    if (rng_() % 4 == 0) cancel_random();
    if (rng_() % 8 == 0 && events_.size() < budget_) schedule_random();
    if (rng_() % 400 == 0) {
      sim.clear();
      for (Event& event : events_) event.pending = false;
      ref_ = {};
      live_ = 0;
      ++cov_.clear_mid_run;
      // Keep the run going after the clear.
      if (events_.size() < budget_) schedule_random();
    }
  }

  /// Cancels the head, a middle or the tail event among those pending at
  /// one timestamp (now() half the time: the bucket firing, or a newer one
  /// at the same time), or retries a dead handle.
  void cancel_random() {
    if (rng_() % 6 == 0 && !events_.empty()) {
      const Event& event = events_[rng_() % events_.size()];
      if (!event.pending) {
        EXPECT_FALSE(sim.cancel(event.handle)) << "stale handle cancelled";
        ++cov_.stale_cancel;
        return;
      }
    }
    if (live_ == 0) return;
    std::int64_t when = sim.now().us;
    if (rng_() % 2 == 0) {
      // Some pending event's timestamp, found by probing from a random id.
      const std::size_t start = rng_() % events_.size();
      for (std::size_t i = 0; i < events_.size(); ++i) {
        const Event& event = events_[(start + i) % events_.size()];
        if (event.pending) {
          when = event.when;
          break;
        }
      }
    }
    std::vector<std::uint32_t> same_time;
    for (std::uint32_t id = 0; id < events_.size(); ++id) {
      if (events_[id].pending && events_[id].when == when) {
        same_time.push_back(id);
      }
    }
    if (same_time.empty()) return;
    std::size_t pos = 0;
    switch (rng_() % 3) {
      case 0:
        ++cov_.cancel_head;
        break;
      case 1:
        if (same_time.size() < 3) return;
        pos = same_time.size() / 2;
        ++cov_.cancel_middle;
        break;
      default:
        pos = same_time.size() - 1;
        ++cov_.cancel_tail;
        break;
    }
    if (when == sim.now().us) ++cov_.cancel_firing_time;
    Event& victim = events_[same_time[pos]];
    EXPECT_TRUE(sim.cancel(victim.handle)) << "pending event not cancellable";
    victim.pending = false;
    --live_;
  }

  void drop_dead_head() {
    while (!ref_.empty() && !events_[ref_.top().seq].pending) ref_.pop();
  }

  void check_state() {
    drop_dead_head();
    EXPECT_EQ(sim.pending(), live_);
    if (live_ > 0 && sim.pending() > 0) {
      EXPECT_EQ(sim.next_time().us, ref_.top().when);
    }
  }

  std::mt19937_64 rng_;
  std::size_t budget_;
  Coverage& cov_;
  std::vector<Event> events_;
  std::priority_queue<RefEntry, std::vector<RefEntry>, std::greater<>> ref_;
  std::size_t live_ = 0;
};

TEST(SimulatorDifferential, MatchesReferenceOrderUnderTiesAndCancels) {
  Coverage coverage;
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    KernelOracle oracle(seed, 2000, coverage);
    oracle.seed_events(48);
    ASSERT_TRUE(oracle.drive()) << "seed " << seed;
  }
  EXPECT_GT(coverage.fired, 10000u);
  EXPECT_GT(coverage.zero_delay, 0u);
  EXPECT_GT(coverage.past_schedule_at, 0u);
  EXPECT_GT(coverage.cancel_head, 0u);
  EXPECT_GT(coverage.cancel_middle, 0u);
  EXPECT_GT(coverage.cancel_tail, 0u);
  EXPECT_GT(coverage.cancel_firing_time, 0u);
  EXPECT_GT(coverage.stale_cancel, 0u);
  EXPECT_GT(coverage.clear_mid_run, 0u);
  EXPECT_GT(coverage.run_until_at_bucket, 0u);
}

// Two buckets at one timestamp.  With an earlier event at 0.5 ms heading
// the queue, 1 ms opens a bucket, 2 ms a newer one, and the second 1 ms
// schedule must open a third bucket rather than join the first (whose
// events are not the newest).  Inside the first bucket's callback, a
// schedule at 2 ms moves the memo away, so the zero-delay schedule after it
// opens yet another bucket at 1 ms, behind both older ones.
TEST(SimulatorDifferential, SameTimeBucketsKeepSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  const SimTime t1 = SimTime::milliseconds(1);
  const SimTime t2 = SimTime::milliseconds(2);
  sim.schedule_at(SimTime::microseconds(500), [&] { order.push_back(-1); });
  sim.schedule_at(t1, [&] {
    order.push_back(0);
    sim.schedule_at(t2, [&] { order.push_back(5); });
    sim.schedule(SimTime::zero(), [&] { order.push_back(3); });
  });
  sim.schedule_at(t1, [&] { order.push_back(1); });
  sim.schedule_at(t2, [&] { order.push_back(4); });
  sim.schedule_at(t1, [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5}));
}

// The last event of a bucket releases it before its callback runs: a
// zero-delay schedule from that callback must still fire, and next_time()
// inside the callback must not report the released bucket.
TEST(SimulatorDifferential, EmptiedBucketIsReleasedBeforeItsLastCallback) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::milliseconds(1), [&] {
    order.push_back(0);
    EXPECT_EQ(sim.pending(), 1u);
    EXPECT_EQ(sim.next_time(), SimTime::milliseconds(5));
    sim.schedule(SimTime::zero(), [&] { order.push_back(1); });
    EXPECT_EQ(sim.next_time(), SimTime::milliseconds(1));
  });
  sim.schedule(SimTime::milliseconds(5), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.pending(), 0u);
}

}  // namespace
}  // namespace pgrid::sim
