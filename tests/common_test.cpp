// Unit tests for src/common: geometry, RNG streams, Akima interpolation,
// statistics helpers, time series, and the thread pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/geometry.h"
#include "common/interpolation.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/thread_pool.h"

namespace lbchat {
namespace {

// ---------------------------------------------------------------- geometry

TEST(Vec2Test, ArithmeticAndNorm) {
  const Vec2 a{3.0, 4.0};
  EXPECT_DOUBLE_EQ(a.norm(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 25.0);
  const Vec2 b = a + Vec2{1.0, -1.0};
  EXPECT_EQ(b, (Vec2{4.0, 3.0}));
  EXPECT_EQ(a * 2.0, (Vec2{6.0, 8.0}));
  EXPECT_EQ(2.0 * a, (Vec2{6.0, 8.0}));
  EXPECT_EQ(a / 2.0, (Vec2{1.5, 2.0}));
  EXPECT_DOUBLE_EQ(a.dot(b), 24.0);
  EXPECT_DOUBLE_EQ((Vec2{1, 0}).cross(Vec2{0, 1}), 1.0);
  EXPECT_DOUBLE_EQ((Vec2{0, 1}).cross(Vec2{1, 0}), -1.0);
}

TEST(Vec2Test, NormalizedHandlesZero) {
  EXPECT_EQ((Vec2{0.0, 0.0}).normalized(), (Vec2{1.0, 0.0}));
  const Vec2 n = Vec2{0.0, -2.0}.normalized();
  EXPECT_NEAR(n.x, 0.0, 1e-12);
  EXPECT_NEAR(n.y, -1.0, 1e-12);
}

TEST(Vec2Test, RotationIsCcw) {
  const Vec2 r = Vec2{1.0, 0.0}.rotated(M_PI / 2.0);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
}

TEST(GeometryTest, WrapAngle) {
  EXPECT_NEAR(wrap_angle(3.0 * M_PI), M_PI, 1e-12);
  EXPECT_NEAR(wrap_angle(-3.0 * M_PI), M_PI, 1e-12);  // (-pi, pi] convention
  EXPECT_NEAR(wrap_angle(0.5), 0.5, 1e-12);
  EXPECT_GT(wrap_angle(-M_PI), -M_PI);
}

TEST(GeometryTest, EgoWorldRoundtrip) {
  const Vec2 origin{10.0, -4.0};
  const double heading = 0.7;
  const Vec2 p{3.0, 8.0};
  const Vec2 ego = to_ego_frame(p, origin, heading);
  const Vec2 back = to_world_frame(ego, origin, heading);
  EXPECT_NEAR(back.x, p.x, 1e-9);
  EXPECT_NEAR(back.y, p.y, 1e-9);
}

TEST(GeometryTest, EgoFrameForwardIsPositiveX) {
  // A point straight ahead of a north-facing observer has ego x > 0, y ~ 0.
  const Vec2 ego = to_ego_frame({0.0, 5.0}, {0.0, 0.0}, M_PI / 2.0);
  EXPECT_NEAR(ego.x, 5.0, 1e-9);
  EXPECT_NEAR(ego.y, 0.0, 1e-9);
  // A point to the observer's left has ego y > 0.
  const Vec2 left = to_ego_frame({-3.0, 0.0}, {0.0, 0.0}, M_PI / 2.0);
  EXPECT_NEAR(left.y, 3.0, 1e-9);
}

TEST(GeometryTest, FartherThanMatchesDistance) {
  // The squared-distance shortcut answers exactly as distance() > r, also for
  // points within a few ulps of the circle.
  Rng rng{41};
  for (int i = 0; i < 200000; ++i) {
    const Vec2 a{rng.uniform(-2000.0, 2000.0), rng.uniform(-2000.0, 2000.0)};
    const double r = rng.uniform(0.5, 80.0);
    const double angle = rng.uniform(-M_PI, M_PI);
    // Half the points sit on the circle up to a few ulps, half anywhere near.
    const double scale = i % 2 == 0 ? 1.0 + rng.uniform(-8.0, 8.0) * 1e-16
                                    : rng.uniform(0.0, 2.0);
    const Vec2 b = a + Vec2{std::cos(angle), std::sin(angle)} * (r * scale);
    ASSERT_EQ(farther_than(a, b, r), distance(a, b) > r) << i;
    ASSERT_EQ(farther_than(b, a, r), distance(b, a) > r) << i;
  }
}

TEST(GeometryTest, PointSegmentDistance) {
  EXPECT_DOUBLE_EQ(point_segment_distance({0, 1}, {-1, 0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(point_segment_distance({5, 0}, {-1, 0}, {1, 0}), 4.0);  // past end
  EXPECT_DOUBLE_EQ(point_segment_distance({0, 0}, {2, 2}, {2, 2}), std::sqrt(8.0));
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a{1};
  Rng b{2};
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, ForkIsIndependentOfDrawOrder) {
  Rng root{7};
  Rng child1 = root.fork("alpha");
  // Drawing from the root does not perturb future forks.
  root.next_u64();
  root.next_u64();
  Rng child2 = Rng{7}.fork("alpha");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(child1.next_u64(), child2.next_u64());
}

TEST(RngTest, ForkNamesProduceDistinctStreams) {
  Rng root{7};
  Rng a = root.fork("a");
  Rng b = root.fork("b");
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64() ? 1 : 0;
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInRange) {
  Rng rng{3};
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(-2.0, 5.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(RngTest, UniformIndexCoversSupportWithoutBias) {
  Rng rng{5};
  std::array<int, 7> counts{};
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(7)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), draws / 7.0, 5.0 * std::sqrt(draws / 7.0));
  }
}

TEST(RngTest, UniformIndexRejectsZero) {
  Rng rng{1};
  EXPECT_THROW(rng.uniform_index(0), std::invalid_argument);
}

TEST(RngTest, UniformIntInclusive) {
  Rng rng{11};
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NormalMoments) {
  Rng rng{13};
  double sum = 0.0;
  double sq = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ChanceRespectsProbability) {
  Rng rng{17};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / static_cast<double>(n), 0.3, 0.02);
}

TEST(RngTest, PermutationIsValid) {
  Rng rng{19};
  const auto p = rng.permutation(50);
  ASSERT_EQ(p.size(), 50u);
  std::vector<char> seen(50, 0);
  for (const auto i : p) {
    ASSERT_LT(i, 50u);
    EXPECT_EQ(seen[i], 0);
    seen[i] = 1;
  }
}

TEST(RngTest, WeightedSampleWithoutReplacementBasics) {
  Rng rng{23};
  const std::vector<double> weights{1.0, 0.0, 2.0, 3.0, 0.0};
  const auto sel = rng.weighted_sample_without_replacement(weights, 3);
  ASSERT_EQ(sel.size(), 3u);
  for (const auto i : sel) {
    EXPECT_GT(weights[i], 0.0);  // zero-weight items never selected
  }
  // Distinctness.
  EXPECT_NE(sel[0], sel[1]);
  EXPECT_NE(sel[1], sel[2]);
  EXPECT_NE(sel[0], sel[2]);
}

TEST(RngTest, WeightedSampleRequestingMoreThanPositive) {
  Rng rng{29};
  const std::vector<double> weights{1.0, 0.0, 2.0};
  const auto sel = rng.weighted_sample_without_replacement(weights, 10);
  EXPECT_EQ(sel.size(), 2u);  // only two positive-weight items exist
}

TEST(RngTest, WeightedSampleFavorsHeavyItems) {
  Rng rng{31};
  const std::vector<double> weights{1.0, 10.0};
  int heavy_first = 0;
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    const auto sel = rng.weighted_sample_without_replacement(weights, 1);
    heavy_first += sel[0] == 1 ? 1 : 0;
  }
  EXPECT_NEAR(heavy_first / static_cast<double>(trials), 10.0 / 11.0, 0.03);
}

// ---------------------------------------------------------------- akima

TEST(AkimaTest, ExactAtKnots) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.5, 5.0};
  const std::vector<double> ys{1.0, -1.0, 0.5, 2.0, 1.5};
  const AkimaSpline s{xs, ys};
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_NEAR(s(xs[i]), ys[i], 1e-9);
}

TEST(AkimaTest, ReproducesLinearData) {
  const std::vector<double> xs{0.0, 1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(2.0 * x - 1.0);
  const AkimaSpline s{xs, ys};
  for (double x = 0.0; x <= 4.0; x += 0.13) EXPECT_NEAR(s(x), 2.0 * x - 1.0, 1e-9);
}

TEST(AkimaTest, TwoPointsDegeneratesToLine) {
  const AkimaSpline s{std::vector<double>{0.0, 2.0}, std::vector<double>{1.0, 5.0}};
  EXPECT_NEAR(s(1.0), 3.0, 1e-9);
  EXPECT_NEAR(s(0.5), 2.0, 1e-9);
}

TEST(AkimaTest, LinearExtrapolationOutsideRange) {
  const std::vector<double> xs{0.0, 1.0, 2.0};
  const std::vector<double> ys{0.0, 1.0, 4.0};
  const AkimaSpline s{xs, ys};
  // Outside the domain the extension is linear: second differences vanish.
  const double d1 = s(-1.0) - s(-2.0);
  const double d2 = s(0.0) - s(-1.0);
  EXPECT_NEAR(d1, d2, 1e-9);
}

TEST(AkimaTest, RejectsBadInput) {
  EXPECT_THROW((AkimaSpline{std::vector<double>{0.0}, std::vector<double>{1.0}}),
               std::invalid_argument);
  EXPECT_THROW((AkimaSpline{std::vector<double>{0.0, 0.0}, std::vector<double>{1.0, 2.0}}),
               std::invalid_argument);
  EXPECT_THROW((AkimaSpline{std::vector<double>{0.0, 1.0}, std::vector<double>{1.0}}),
               std::invalid_argument);
}

TEST(AkimaTest, NoOvershootOnStepLikeData) {
  // Akima's selling point: far less ringing than natural cubic splines.
  const std::vector<double> xs{0, 1, 2, 3, 4, 5, 6};
  const std::vector<double> ys{0, 0, 0, 1, 1, 1, 1};
  const AkimaSpline s{xs, ys};
  for (double x = 0.0; x <= 2.0; x += 0.05) EXPECT_GT(s(x), -0.2);
  for (double x = 3.0; x <= 6.0; x += 0.05) EXPECT_LT(s(x), 1.2);
}

TEST(LerpTableTest, InterpolatesAndClamps) {
  const std::vector<double> xs{0.0, 10.0, 20.0};
  const std::vector<double> ys{1.0, 2.0, 4.0};
  EXPECT_DOUBLE_EQ(lerp_table(xs, ys, -5.0), 1.0);
  EXPECT_DOUBLE_EQ(lerp_table(xs, ys, 25.0), 4.0);
  EXPECT_DOUBLE_EQ(lerp_table(xs, ys, 5.0), 1.5);
  EXPECT_DOUBLE_EQ(lerp_table(xs, ys, 15.0), 3.0);
}

// ---------------------------------------------------------------- stats

TEST(StatsTest, MeanAndStddev) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(5.0 / 3.0), 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::vector<double>{}), 0.0);
  EXPECT_DOUBLE_EQ(stddev(std::vector<double>{1.0}), 0.0);
}

TEST(StatsTest, Percentile) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_THROW(percentile({}, 50.0), std::invalid_argument);
}

TEST(StatsTest, EntropyProperties) {
  // Uniform distribution has maximal entropy log(n).
  EXPECT_NEAR(entropy(std::vector<double>{1.0, 1.0, 1.0, 1.0}), std::log(4.0), 1e-12);
  // A point mass has zero entropy.
  EXPECT_DOUBLE_EQ(entropy(std::vector<double>{0.0, 5.0, 0.0}), 0.0);
  // Scale invariance.
  EXPECT_NEAR(entropy(std::vector<double>{1.0, 3.0}),
              entropy(std::vector<double>{10.0, 30.0}), 1e-12);
  EXPECT_DOUBLE_EQ(entropy(std::vector<double>{0.0, 0.0}), 0.0);
}

TEST(TimeSeriesTest, AddAndQuery) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(10.0, 0.5);
  ts.add(20.0, 0.2);
  EXPECT_EQ(ts.size(), 3u);
  EXPECT_DOUBLE_EQ(ts.at(-1.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(5.0), 1.0);
  EXPECT_DOUBLE_EQ(ts.at(10.0), 0.5);
  EXPECT_DOUBLE_EQ(ts.at(100.0), 0.2);
}

TEST(TimeSeriesTest, RejectsDecreasingTime) {
  TimeSeries ts;
  ts.add(5.0, 1.0);
  EXPECT_THROW(ts.add(4.0, 1.0), std::invalid_argument);
}

TEST(TimeSeriesTest, EmptySeriesThrows) {
  const TimeSeries ts;
  EXPECT_TRUE(ts.empty());
  EXPECT_THROW((void)ts.at(0.0), std::out_of_range);
  EXPECT_THROW((void)ts.last(), std::out_of_range);
  EXPECT_THROW((void)ts.last_time(), std::out_of_range);
}

TEST(TimeSeriesTest, LastAndEqualTimes) {
  TimeSeries ts;
  ts.add(1.0, 3.0);
  EXPECT_DOUBLE_EQ(ts.last(), 3.0);
  EXPECT_DOUBLE_EQ(ts.last_time(), 1.0);
  // Non-decreasing means equal timestamps are allowed; last() tracks the
  // newest sample.
  ts.add(1.0, 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.last(), 2.0);
  EXPECT_DOUBLE_EQ(ts.last_time(), 1.0);
}

TEST(StatsTest, PercentileSortedInput) {
  // Already-sorted spans take the no-copy path; results must match the
  // unsorted path exactly.
  const std::vector<double> sorted{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(percentile(sorted, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(sorted, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile(std::vector<double>{7.0}, 99.0), 7.0);
}

TEST(TimeSeriesTest, FirstTimeBelow) {
  TimeSeries ts;
  ts.add(0.0, 1.0);
  ts.add(10.0, 0.6);
  ts.add(20.0, 0.3);
  EXPECT_DOUBLE_EQ(ts.first_time_below(0.5), 20.0);
  EXPECT_DOUBLE_EQ(ts.first_time_below(1.0), 0.0);
  EXPECT_LT(ts.first_time_below(0.1), 0.0);  // never reached
}

// ---------------------------------------------------------------- thread pool

TEST(ThreadPoolTest, ResolveNumThreads) {
  EXPECT_GE(ThreadPool::resolve_num_threads(0), 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(1), 1);
  EXPECT_EQ(ThreadPool::resolve_num_threads(7), 7);
}

TEST(ThreadPoolTest, CoversEveryIndexExactlyOnce) {
  ThreadPool pool{4};
  EXPECT_EQ(pool.size(), 4);
  std::vector<int> hits(1000, 0);
  pool.parallel_for(0, static_cast<std::int64_t>(hits.size()),
                    [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (const int h : hits) EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, NonZeroBeginAndEmptyRange) {
  ThreadPool pool{3};
  std::vector<int> hits(10, 0);
  pool.parallel_for(4, 8, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i], i >= 4 && i < 8 ? 1 : 0);
  pool.parallel_for(5, 5, [&](std::int64_t) { FAIL() << "empty range must not invoke fn"; });
  pool.parallel_for(6, 2, [&](std::int64_t) { FAIL() << "inverted range must not invoke fn"; });
}

TEST(ThreadPoolTest, SequentialPoolRunsInline) {
  ThreadPool pool{1};
  EXPECT_EQ(pool.size(), 1);
  int sum = 0;
  pool.parallel_for(0, 5, [&](std::int64_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 10);
}

TEST(ThreadPoolTest, ReusableAcrossJobs) {
  ThreadPool pool{4};
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.parallel_for(0, 37, [&](std::int64_t i) { total += i; });
  }
  EXPECT_EQ(total.load(), 50L * (36 * 37 / 2));
}

TEST(ThreadPoolTest, RethrowsFirstException) {
  ThreadPool pool{4};
  EXPECT_THROW(pool.parallel_for(0, 100,
                                 [](std::int64_t i) {
                                   if (i == 42) throw std::runtime_error{"boom"};
                                 }),
               std::runtime_error);
  // The pool stays usable after an exception.
  std::atomic<int> count{0};
  pool.parallel_for(0, 10, [&](std::int64_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

/// The index the calling lane ran last, in any job (-1: none yet).
thread_local std::int64_t tl_last_index = -1;

TEST(ThreadPoolTest, FixedChunkBoundaries) {
  // Part p of P = min(lanes, n) parts is [begin + n·p/P, begin + n·(p+1)/P)
  // whichever lane claims it: one lane runs the whole chunk, in ascending
  // order, with no other index in between. Per-chunk thread_local scratch
  // therefore sees the same indices at any timing.
  for (const int lanes : {2, 3, 4}) {
    ThreadPool pool{lanes};
    for (const std::int64_t n : {2, 3, 5, 7, 16, 41, 100}) {
      for (int rep = 0; rep < 20; ++rep) {
        const std::int64_t begin = 10;
        std::vector<std::thread::id> lane(static_cast<std::size_t>(n));
        std::vector<std::int64_t> before(static_cast<std::size_t>(n));
        pool.parallel_for(begin, begin + n, [&](std::int64_t i) {
          const auto k = static_cast<std::size_t>(i - begin);
          lane[k] = std::this_thread::get_id();
          before[k] = tl_last_index;
          tl_last_index = i;
        });
        const std::int64_t parts = std::min<std::int64_t>(lanes, n);
        for (std::int64_t p = 0; p < parts; ++p) {
          const std::int64_t lo = n * p / parts;
          const std::int64_t hi = n * (p + 1) / parts;
          for (std::int64_t k = lo + 1; k < hi; ++k) {
            const auto ku = static_cast<std::size_t>(k);
            EXPECT_EQ(lane[ku], lane[static_cast<std::size_t>(lo)])
                << lanes << " lanes, n " << n << ", index " << k;
            EXPECT_EQ(before[ku], begin + k - 1) << lanes << " lanes, n " << n << ", index " << k;
          }
        }
      }
    }
  }
}

TEST(ThreadPoolTest, BackToBackJobsOfChangingWidth) {
  // Jobs of 2 and 3 parts alternate on 3 lanes with no pause between them:
  // a worker still holding the previous job's claim word must never take a
  // part of the next job, so every index of every job runs exactly once.
  ThreadPool pool{3};
  std::array<std::atomic<int>, 3> hits{};
  for (int job = 0; job < 10000; ++job) {
    const std::int64_t n = 2 + job % 2;
    pool.parallel_for(0, n, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
    for (std::int64_t i = 0; i < 3; ++i) {
      ASSERT_EQ(hits[static_cast<std::size_t>(i)].exchange(0), i < n ? 1 : 0)
          << "job " << job << ", index " << i;
    }
  }
}

TEST(ThreadPoolTest, ThrowWhileWorkersAsleepThenDestroy) {
  // The workers have spun out and sleep when the job arrives; every chunk
  // throws, the first error reaches the caller, and the pool still shuts
  // down cleanly with its workers asleep again.
  auto pool = std::make_unique<ThreadPool>(3);
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  EXPECT_THROW(pool->parallel_for(0, 9,
                                  [](std::int64_t) { throw std::runtime_error{"boom"}; }),
               std::runtime_error);
  std::this_thread::sleep_for(std::chrono::milliseconds{20});
  pool.reset();
}

TEST(ThreadPoolTest, NestedCallRunsInline) {
  // A parallel_for issued from inside a loop body, on the caller's lane or a
  // worker's, runs its whole range inline on that thread, in index order.
  ThreadPool pool{3};
  std::vector<std::vector<std::int64_t>> inner(7);
  std::atomic<int> off_thread{0};
  pool.parallel_for(0, 7, [&](std::int64_t i) {
    const auto lane = std::this_thread::get_id();
    pool.parallel_for(0, 5, [&](std::int64_t j) {
      if (std::this_thread::get_id() != lane) ++off_thread;
      inner[static_cast<std::size_t>(i)].push_back(j);
    });
  });
  EXPECT_EQ(off_thread.load(), 0);
  for (const auto& order : inner) EXPECT_EQ(order, (std::vector<std::int64_t>{0, 1, 2, 3, 4}));
  // The pool is released afterwards: the next job spreads across lanes again.
  std::vector<int> hits(100, 0);
  pool.parallel_for(0, 100, [&](std::int64_t i) { ++hits[static_cast<std::size_t>(i)]; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 100);
}

TEST(ThreadPoolTest, ParallelInvokeRunsBothTasks) {
  ThreadPool pool{2};
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    int first = 0;
    int second = 0;
    parallel_invoke(p, [&] { first = 1; }, [&] { second = 2; });
    EXPECT_EQ(first + second, 3);
    EXPECT_THROW(parallel_invoke(
                     p, [] {}, [] { throw std::runtime_error{"boom"}; }),
                 std::runtime_error);
  }
}

}  // namespace
}  // namespace lbchat
