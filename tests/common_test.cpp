// Unit tests for src/common: RNG, statistics, thread pool, error helpers,
// CRC line framing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/frame.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "common/thread_pool.h"

namespace robotune {
namespace {

// ---------------------------------------------------------------- RNG ----

TEST(SplitMix64Test, KnownSequenceIsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64Test, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformInHalfOpenUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespectsBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 2.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.5);
  }
}

TEST(RngTest, UniformMeanIsCentered) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(RngTest, UniformIndexCoversAllValues) {
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.uniform_index(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, UniformIndexZeroIsZero) {
  Rng rng(1);
  EXPECT_EQ(rng.uniform_index(0), 0u);
  EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(17);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NormalMomentsApproximatelyStandard) {
  Rng rng(19);
  const int n = 100000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double z = rng.normal();
    sum += z;
    sum_sq += z * z;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScalesMeanAndStddev) {
  Rng rng(23);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(10.0, 2.0);
  EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(RngTest, LognormalIsPositive) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(rng.lognormal(0.0, 0.5), 0.0);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(31);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, SplitProducesIndependentStream) {
  Rng a(37);
  Rng b = a.split();
  // Streams should differ from each other and from the parent's past.
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

// ---------------------------------------------------------- statistics ----

TEST(StatsTest, MeanAndVariance) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(stats::mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 2.5);
  EXPECT_NEAR(stats::stddev(xs), std::sqrt(2.5), 1e-12);
}

TEST(StatsTest, EmptyInputsAreSafe) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(stats::mean(xs), 0.0);
  EXPECT_DOUBLE_EQ(stats::variance(xs), 0.0);
  EXPECT_TRUE(std::isnan(stats::quantile(xs, 0.5)));
}

TEST(StatsTest, SingleValueVarianceZero) {
  const std::vector<double> xs = {42.0};
  EXPECT_DOUBLE_EQ(stats::variance(xs), 0.0);
}

TEST(StatsTest, QuantileInterpolates) {
  const std::vector<double> xs = {4, 1, 3, 2};  // unsorted on purpose
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(stats::median(xs), 2.5);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 1.0 / 3.0), 2.0);
}

TEST(StatsTest, QuantileClampsOutOfRangeQ) {
  const std::vector<double> xs = {1, 2, 3};
  EXPECT_DOUBLE_EQ(stats::quantile(xs, -1.0), 1.0);
  EXPECT_DOUBLE_EQ(stats::quantile(xs, 2.0), 3.0);
}

TEST(StatsTest, MinMax) {
  const std::vector<double> xs = {3, -1, 7};
  EXPECT_DOUBLE_EQ(stats::min(xs), -1.0);
  EXPECT_DOUBLE_EQ(stats::max(xs), 7.0);
}

TEST(StatsTest, R2PerfectPrediction) {
  const std::vector<double> y = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(stats::r2_score(y, y), 1.0);
}

TEST(StatsTest, R2MeanPredictionIsZero) {
  const std::vector<double> y = {1, 2, 3, 4};
  const std::vector<double> pred(4, 2.5);
  EXPECT_DOUBLE_EQ(stats::r2_score(y, pred), 0.0);
}

TEST(StatsTest, R2WorseThanMeanIsNegative) {
  const std::vector<double> y = {1, 2, 3, 4};
  const std::vector<double> pred = {4, 3, 2, 1};
  EXPECT_LT(stats::r2_score(y, pred), 0.0);
}

TEST(StatsTest, R2MismatchedSizesIsNan) {
  const std::vector<double> y = {1, 2};
  const std::vector<double> pred = {1};
  EXPECT_TRUE(std::isnan(stats::r2_score(y, pred)));
}

TEST(StatsTest, RecallCountsTruePositives) {
  const std::vector<std::size_t> truth = {1, 2, 3, 4};
  const std::vector<std::size_t> pred = {2, 4, 9};
  EXPECT_DOUBLE_EQ(stats::recall(truth, pred), 0.5);
}

TEST(StatsTest, RecallEmptyTruthIsOne) {
  const std::vector<std::size_t> truth;
  const std::vector<std::size_t> pred = {1};
  EXPECT_DOUBLE_EQ(stats::recall(truth, pred), 1.0);
}

TEST(StatsTest, NormalPdfCdfKnownValues) {
  EXPECT_NEAR(stats::normal_pdf(0.0), 0.3989422804014327, 1e-12);
  EXPECT_NEAR(stats::normal_cdf(0.0), 0.5, 1e-12);
  EXPECT_NEAR(stats::normal_cdf(1.96), 0.9750021048517795, 1e-9);
  EXPECT_NEAR(stats::normal_cdf(-1.96), 1.0 - 0.9750021048517795, 1e-9);
}

TEST(StatsTest, SummaryQuantilesOrdered) {
  std::vector<double> xs;
  Rng rng(3);
  for (int i = 0; i < 500; ++i) xs.push_back(rng.uniform(0, 100));
  const auto s = stats::summarize(xs);
  EXPECT_EQ(s.count, 500u);
  EXPECT_LE(s.min, s.p25);
  EXPECT_LE(s.p25, s.median);
  EXPECT_LE(s.median, s.p75);
  EXPECT_LE(s.p75, s.p90);
  EXPECT_LE(s.p90, s.max);
}

// ---------------------------------------------------------- thread pool ----

TEST(ThreadPoolTest, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 41 + 1; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  pool.parallel_for(64, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPoolTest, SingleWorkerFallsBackToSerial) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for(8, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  // Serial fallback preserves order (no synchronization needed).
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(ThreadPoolTest, ExceptionsPropagateFromSubmit) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, SubmitBatchReturnsFuturesInTaskOrder) {
  ThreadPool pool(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 32; ++i) {
    tasks.emplace_back([i] { return i * i; });
  }
  auto futures = pool.submit_batch(std::move(tasks));
  ASSERT_EQ(futures.size(), 32u);
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, WaitAllRethrowsFirstExceptionByFutureOrder) {
  ThreadPool pool(4);
  std::vector<std::function<int()>> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.emplace_back([i]() -> int {
      // Both 2 and 5 fail; 2 must win regardless of completion timing.
      if (i == 5) throw std::runtime_error("task 5");
      if (i == 2) throw std::invalid_argument("task 2");
      return i;
    });
  }
  auto futures = pool.submit_batch(std::move(tasks));
  EXPECT_THROW(ThreadPool::wait_all(futures), std::invalid_argument);
  // wait_all drained every future, including the losing exception's.
  for (auto& f : futures) EXPECT_FALSE(f.valid());
}

TEST(ThreadPoolTest, WaitAllDrainsAllTasksDespiteEarlyException) {
  ThreadPool pool(2);
  std::atomic<int> completed{0};
  std::vector<std::function<void()>> tasks;
  tasks.emplace_back([] { throw std::runtime_error("first"); });
  for (int i = 0; i < 16; ++i) {
    tasks.emplace_back([&completed] { completed++; });
  }
  auto futures = pool.submit_batch(std::move(tasks));
  EXPECT_THROW(ThreadPool::wait_all(futures), std::runtime_error);
  EXPECT_EQ(completed.load(), 16);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) {
                                     throw std::runtime_error("body");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, DestructorDrainsPendingTasks) {
  std::atomic<int> completed{0};
  std::vector<std::future<void>> futures;
  {
    // One worker + many slow-ish tasks: most are still queued when the
    // pool goes out of scope.  The destructor must run them all.
    ThreadPool pool(1);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 64; ++i) {
      tasks.emplace_back([&completed] { completed++; });
    }
    futures = pool.submit_batch(std::move(tasks));
  }
  EXPECT_EQ(completed.load(), 64);
  for (auto& f : futures) {
    EXPECT_NO_THROW(f.get());  // ready, not broken_promise
  }
}

TEST(ThreadPoolTest, DestructorDrainsPendingExceptionalTasks) {
  std::future<void> fut;
  {
    ThreadPool pool(1);
    fut = pool.submit([] { throw std::runtime_error("queued"); });
  }
  EXPECT_THROW(fut.get(), std::runtime_error);
}

TEST(ThreadPoolTest, GlobalPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::global(), &ThreadPool::global());
  EXPECT_GE(ThreadPool::global().size(), 1u);
}

TEST(ThreadPoolTest, QueuedAndIdleWorkersReportBacklog) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.queued(), 0u);
  EXPECT_EQ(pool.idle_workers(), 1u);

  // Block the only worker, then pile tasks behind it: queued() must see
  // the backlog and idle_workers() the saturation.
  std::promise<void> gate;
  auto blocker = pool.submit([fut = gate.get_future().share()] { fut.wait(); });
  while (pool.queued() != 0 || pool.idle_workers() != 0) {
    std::this_thread::yield();  // until the worker picked the blocker up
  }
  std::vector<std::function<void()>> tasks(5, [] {});
  auto futures = pool.submit_batch(std::move(tasks));
  EXPECT_EQ(pool.queued(), 5u);
  EXPECT_EQ(pool.idle_workers(), 0u);

  gate.set_value();
  blocker.get();
  ThreadPool::wait_all(futures);
  EXPECT_EQ(pool.queued(), 0u);
  // The busy counter is decremented after the future is fulfilled, so
  // give the worker a beat to park again.
  while (pool.idle_workers() != 1) std::this_thread::yield();
}

TEST(ThreadPoolTest, ConfigureGlobalIsFirstUseOnly) {
  // Whether the request takes depends on whether any earlier test (or
  // library path) already touched global(); both outcomes are exercised
  // across the suite's build modes.  What must always hold: once the
  // global pool exists, further requests report failure instead of
  // silently doing nothing.
  const bool took = ThreadPool::configure_global(3);
  ThreadPool& pool = ThreadPool::global();
  if (took) {
    EXPECT_EQ(pool.size(), 3u);
  }
  EXPECT_FALSE(ThreadPool::configure_global(1));
  EXPECT_GE(pool.size(), 1u);
  // Restore the hardware-concurrency default request for any later
  // first-use (no-op here since global() exists, and that is the point).
  EXPECT_FALSE(ThreadPool::configure_global(0));
}

// ----------------------------------------------------------------- error ----

TEST(ErrorTest, RequireThrowsOnViolation) {
  EXPECT_THROW(require(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(require(true, "fine"));
}

// -------------------------------------------------------------- frame ----

TEST(FrameTest, EncodersWriteTheSameBytes) {
  // crc32("hello") == 0x3610a686: the journal and wire bytes are pinned.
  EXPECT_EQ(frame_message("hello"), "3610a686 5 hello\n");
  std::ostringstream out;
  write_frame(out, "hello");
  EXPECT_EQ(out.str(), frame_message("hello"));
  EXPECT_EQ(frame_message(""), "00000000 0 \n");
}

TEST(FrameTest, DecoderAcceptsOnlyWellFormedFrames) {
  constexpr std::size_t kAny = std::numeric_limits<std::size_t>::max();
  struct Case {
    const char* name;
    std::string line;
    std::size_t max_payload;
    const char* error;  ///< nullptr = accepted
    std::string payload;
  };
  const std::string hello = "3610a686 5 hello";
  const std::vector<Case> cases = {
      {"round trip", hello, kAny, nullptr, "hello"},
      {"round trip at the cap", hello, 5, nullptr, "hello"},
      {"empty payload", "00000000 0 ", kAny, nullptr, ""},
      {"payload with spaces", "5bf63f70 6 a b  c", kAny, nullptr, "a b  c"},
      {"short line", "3610a686 5", kAny, "bad frame", ""},
      {"empty line", "", kAny, "bad frame", ""},
      {"no separator", "3610a6865 hello", kAny, "bad frame", ""},
      {"uppercase hex", "3610A686 5 hello", kAny, "bad frame checksum field",
       ""},
      {"non-hex checksum", "3610g686 5 hello", kAny,
       "bad frame checksum field", ""},
      {"non-digit length", "3610a686 x hello", kAny, "bad frame length field",
       ""},
      {"signed length", "3610a686 +5 hello", kAny, "bad frame length field",
       ""},
      {"length runs into payload", "3610a686 5hello", kAny,
       "bad frame length field", ""},
      {"length without payload", "3610a686 12345", kAny,
       "bad frame length field", ""},
      {"torn payload", "3610a686 5 hel", kAny, "frame length mismatch (torn)",
       ""},
      {"bit flip", "3610a686 5 hellp", kAny,
       "frame checksum mismatch (corrupt)", ""},
      {"oversize", hello, 4, "frame too large", ""},
      {"length overflows size_t", "3610a686 99999999999999999999999 hello",
       kAny, "frame too large", ""},
  };
  for (const auto& c : cases) {
    std::string_view payload;
    std::string error;
    const bool ok = unframe_line(c.line, payload, error, c.max_payload);
    if (c.error == nullptr) {
      EXPECT_TRUE(ok) << c.name << ": " << error;
      EXPECT_EQ(payload, c.payload) << c.name;
    } else {
      EXPECT_FALSE(ok) << c.name;
      EXPECT_EQ(error, c.error) << c.name;
    }
  }
}

}  // namespace
}  // namespace robotune
