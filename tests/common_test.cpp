// Unit tests for pgrid::common — rng determinism, statistics, thread pool,
// tables, results.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <thread>

#include "common/log.hpp"
#include "common/result.hpp"
#include "common/small_fn.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"

namespace pgrid::common {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  Accumulator acc;
  for (int i = 0; i < 100000; ++i) acc.add(rng.uniform01());
  EXPECT_NEAR(acc.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(acc.mean(), 5.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  Accumulator acc;
  for (int i = 0; i < 200000; ++i) acc.add(rng.exponential(0.5));
  EXPECT_NEAR(acc.mean(), 2.0, 0.05);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(23);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ForkIsIndependentAndDeterministic) {
  Rng parent1(99);
  Rng parent2(99);
  Rng child1 = parent1.fork();
  Rng child2 = parent2.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
  // Parent stream continues identically after the fork.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(parent1.next_u64(), parent2.next_u64());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(31);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto original = v;
  rng.shuffle(std::span<int>(v));
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, original);
}

TEST(Accumulator, Empty) {
  Accumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.variance(), 0.0);
}

TEST(Accumulator, KnownValues) {
  Accumulator acc;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
  EXPECT_DOUBLE_EQ(acc.sum(), 40.0);
}

TEST(Accumulator, MergeMatchesSequential) {
  Rng rng(5);
  Accumulator whole;
  Accumulator left;
  Accumulator right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.normal(3.0, 1.5);
    whole.add(x);
    (i % 2 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(Accumulator, MergeWithEmpty) {
  Accumulator a;
  a.add(1.0);
  a.add(2.0);
  Accumulator empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Percentiles, MedianAndTails) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(static_cast<double>(i));
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.percentile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.percentile(100.0), 100.0, 1e-9);
  EXPECT_NEAR(p.percentile(99.0), 99.01, 0.05);
}

TEST(Percentiles, EmptyIsZero) {
  Percentiles p;
  EXPECT_DOUBLE_EQ(p.percentile(50.0), 0.0);
}

TEST(Histogram, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.add(-5.0);   // clamps to bucket 0
  h.add(0.5);
  h.add(9.5);
  h.add(25.0);   // clamps to last bucket
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(9), 2u);
  EXPECT_DOUBLE_EQ(h.edge(5), 5.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&counter] { counter.fetch_add(1); }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> touched(1000);
  pool.parallel_for(1000, [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) touched[i].fetch_add(1);
  });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPool, ParallelForZeroAndOne) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::atomic<int> sum{0};
  pool.parallel_for(1, [&](std::size_t first, std::size_t last) {
    sum += static_cast<int>(last - first);
  });
  EXPECT_EQ(sum.load(), 1);
}

TEST(ThreadPool, SingleWorkerParallelForRunsInline) {
  ThreadPool pool(1);
  std::vector<int> touched(100, 0);
  pool.parallel_for(100, [&](std::size_t first, std::size_t last) {
    for (std::size_t i = first; i < last; ++i) ++touched[i];
  });
  for (int t : touched) EXPECT_EQ(t, 1);
}

TEST(ThreadPool, ParallelForFromWorkerDoesNotDeadlock) {
  // A worker that blocks on parallel_for futures served by its own queue
  // would deadlock a saturated pool; the pool degrades to inline execution
  // instead.
  ThreadPool pool(2);
  std::atomic<int> covered{0};
  std::vector<std::future<void>> outer;
  for (int t = 0; t < 4; ++t) {
    outer.push_back(pool.submit([&pool, &covered] {
      EXPECT_TRUE(pool.on_worker_thread());
      pool.parallel_for(64, [&covered](std::size_t first, std::size_t last) {
        covered += static_cast<int>(last - first);
      });
    }));
  }
  for (auto& f : outer) f.get();
  EXPECT_EQ(covered.load(), 4 * 64);
  EXPECT_FALSE(pool.on_worker_thread());
}

TEST(ThreadPool, ChunkIndexIsDeterministic) {
  ThreadPool pool(4);
  const std::size_t n = 1003;
  ASSERT_EQ(pool.chunk_count(n), 4u);
  for (int round = 0; round < 10; ++round) {
    std::vector<std::size_t> firsts(pool.chunk_count(n), SIZE_MAX);
    std::vector<std::size_t> lasts(pool.chunk_count(n), 0);
    pool.parallel_for_chunks(
        n, [&](std::size_t chunk, std::size_t first, std::size_t last) {
          firsts[chunk] = first;
          lasts[chunk] = last;
        });
    // Chunk c always owns the same contiguous range, independent of thread
    // scheduling — the property solver reductions rely on for bit-identical
    // floating-point results.
    const std::size_t per = (n + 3) / 4;
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(firsts[c], c * per);
      EXPECT_EQ(lasts[c], std::min(c * per + per, n));
    }
  }
}

TEST(SmallFn, InlineStorageAndInvocation) {
  int hits = 0;
  SmallFn<void(), 64> fn([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(fn));
  fn();
  fn();
  EXPECT_EQ(hits, 2);
  using Fn = SmallFn<void(), 64>;
  struct Small {
    void* p[2];
    void operator()() {}
  };
  static_assert(Fn::stores_inline<Small>, "two pointers must fit inline");
}

TEST(SmallFn, HeapFallbackForLargeCaptures) {
  using Fn = SmallFn<void(), 16>;
  struct Big {
    double values[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    double sum = 0;
    void operator()() {
      for (double v : values) sum += v;
    }
  };
  static_assert(!Fn::stores_inline<Big>, "64-byte capture must spill");
  double got = 0;
  Fn fn([big = Big{}, &got]() mutable {
    big();
    got = big.sum;
  });
  fn();
  EXPECT_DOUBLE_EQ(got, 36.0);
}

TEST(SmallFn, FortyByteBufferFitsACompletionEvent) {
  // The delivery-callback shape: a 40-byte buffer plus the ops pointer,
  // padded to the 16-byte alignment, is 48 bytes.
  using Fn = SmallFn<void(bool), 40>;
  static_assert(sizeof(Fn) == 48, "40-byte buffer must make a 48-byte fn");
  struct FortyBytes {
    char bytes[40];
    void operator()(bool) {}
  };
  struct FortyOneBytes {
    char bytes[41];
    void operator()(bool) {}
  };
  static_assert(Fn::stores_inline<FortyBytes>, "40 bytes must fit inline");
  static_assert(!Fn::stores_inline<FortyOneBytes>, "41 bytes must spill");
  // A completion event (the callback plus its outcome) fits a 64-byte
  // event buffer; a 64-byte-buffer callback plus the outcome would not.
  struct Completion {
    Fn cb;
    bool ok;
    void operator()() { cb(ok); }
  };
  struct WideCompletion {
    SmallFn<void(bool), 64> cb;
    bool ok;
    void operator()() { cb(ok); }
  };
  static_assert(SmallFn<void(), 64>::stores_inline<Completion>,
                "a 40-byte-buffer completion must fit a 64-byte event");
  static_assert(!SmallFn<void(), 64>::stores_inline<WideCompletion>,
                "a 64-byte-buffer completion spills a 64-byte event");

  int calls = 0;
  bool last = false;
  SmallFn<void(), 64> event(
      Completion{Fn([&calls, &last](bool ok) {
                   ++calls;
                   last = ok;
                 }),
                 true});
  event();
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(last);
  // A spilled capture still works at this buffer size.
  Fn spilled([big = FortyOneBytes{}, &calls](bool) mutable {
    big(true);
    ++calls;
  });
  spilled(false);
  EXPECT_EQ(calls, 2);
}

TEST(SmallFn, MoveTransfersOwnership) {
  auto counter = std::make_shared<int>(0);
  SmallFn<void()> a([counter] { ++*counter; });
  EXPECT_EQ(counter.use_count(), 2);
  SmallFn<void()> b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));
  EXPECT_EQ(counter.use_count(), 2) << "move must not copy the capture";
  b();
  EXPECT_EQ(*counter, 1);
  SmallFn<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(*counter, 2);
  c.reset();
  EXPECT_EQ(counter.use_count(), 1);
}

TEST(SmallFn, MoveOnlyCaptureAndArguments) {
  auto owned = std::make_unique<int>(5);
  SmallFn<int(int), 48> fn(
      [p = std::move(owned)](int x) { return *p + x; });
  EXPECT_EQ(fn(10), 15);
}

TEST(Table, AlignsAndCounts) {
  Table t({"model", "energy_j"});
  t.add_row({"tree", Table::num(0.125)});
  t.add_row({"all-to-base", Table::num(1.5)});
  EXPECT_EQ(t.rows(), 2u);
  const std::string s = t.str();
  EXPECT_NE(s.find("model"), std::string::npos);
  EXPECT_NE(s.find("all-to-base"), std::string::npos);
  EXPECT_NE(s.find("0.125"), std::string::npos);
}

TEST(Table, CsvFormat) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, ShortRowIsPadded) {
  Table t({"a", "b", "c"});
  t.add_row({"only"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_NE(t.str().find("only"), std::string::npos);
}

TEST(Result, ValueAndError) {
  Result<int> ok(5);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 5);

  auto bad = Result<int>::failure("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_THROW(bad.value(), std::runtime_error);
}

TEST(Log, TraceIsPerThread) {
  // Two threads set different traces, wait until both have, then read
  // back: each sees its own, and the main thread's is untouched.
  set_log_trace(5);
  std::atomic<int> set_count{0};
  auto worker = [&set_count](std::uint64_t trace, std::uint64_t& seen) {
    set_log_trace(trace);
    set_count.fetch_add(1);
    while (set_count.load() < 2) std::this_thread::yield();
    seen = log_trace();
  };
  std::uint64_t seen_a = 0;
  std::uint64_t seen_b = 0;
  std::thread a(worker, 11, std::ref(seen_a));
  std::thread b(worker, 22, std::ref(seen_b));
  a.join();
  b.join();
  EXPECT_EQ(seen_a, 11u);
  EXPECT_EQ(seen_b, 22u);
  EXPECT_EQ(log_trace(), 5u);
  set_log_trace(0);
}

}  // namespace
}  // namespace pgrid::common
