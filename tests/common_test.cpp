// Tests for impeccable::common — RNG determinism and distributions,
// descriptive statistics and block averaging, thread pool semantics,
// Kabsch superposition.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <numbers>
#include <set>
#include <vector>

#include "impeccable/common/kabsch.hpp"
#include "impeccable/common/rng.hpp"
#include "impeccable/common/stats.hpp"
#include "impeccable/common/thread_pool.hpp"
#include "impeccable/common/vec3.hpp"

namespace ic = impeccable::common;
namespace stats = impeccable::common;
using impeccable::common::Rng;

// ---------------------------------------------------------------- Rng

TEST(Rng, SameSeedSameStream) {
  ic::Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  ic::Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i)
    if (a.next() == b.next()) ++equal;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  ic::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIntIsUnbiasedAcrossSmallRange) {
  ic::Rng rng(123);
  std::vector<int> counts(7, 0);
  const int n = 70000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_int(7)];
  for (int c : counts) {
    EXPECT_GT(c, n / 7 - 700);
    EXPECT_LT(c, n / 7 + 700);
  }
}

TEST(Rng, GaussMomentsMatchStandardNormal) {
  ic::Rng rng(99);
  std::vector<double> xs;
  for (int i = 0; i < 50000; ++i) xs.push_back(rng.gauss());
  EXPECT_NEAR(ic::mean(xs), 0.0, 0.02);
  EXPECT_NEAR(ic::stddev(xs), 1.0, 0.02);
}

TEST(Rng, SpawnGivesIndependentStream) {
  ic::Rng parent(5);
  ic::Rng child = parent.spawn();
  // Child and a fresh same-seed parent must not replicate each other.
  ic::Rng parent2(5);
  parent2.spawn();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (child.next() == parent2.next()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(Rng, ShuffleIsPermutation) {
  ic::Rng rng(11);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::multiset<int> a(v.begin(), v.end()), b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------------- stats

TEST(Stats, MeanVarianceKnownValues) {
  const std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  EXPECT_DOUBLE_EQ(ic::mean(xs), 5.0);
  EXPECT_NEAR(ic::variance(xs), 32.0 / 7.0, 1e-12);
}

TEST(Stats, EmptyAndSingletonAreSafe) {
  const std::vector<double> none;
  const std::vector<double> one{3.0};
  EXPECT_EQ(ic::mean(none), 0.0);
  EXPECT_EQ(ic::variance(one), 0.0);
  EXPECT_EQ(ic::std_error(one), 0.0);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> xs{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(ic::percentile(xs, 0), 1.0);
  EXPECT_DOUBLE_EQ(ic::percentile(xs, 100), 5.0);
  EXPECT_DOUBLE_EQ(ic::percentile(xs, 50), 3.0);
  EXPECT_DOUBLE_EQ(ic::percentile(xs, 25), 2.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> a{1, 2, 3, 4};
  const std::vector<double> b{2, 4, 6, 8};
  const std::vector<double> c{8, 6, 4, 2};
  EXPECT_NEAR(ic::pearson(a, b), 1.0, 1e-12);
  EXPECT_NEAR(ic::pearson(a, c), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantInputIsZero) {
  const std::vector<double> a{1, 1, 1};
  const std::vector<double> b{1, 2, 3};
  EXPECT_EQ(ic::pearson(a, b), 0.0);
}

TEST(Stats, SpearmanIsRankBased) {
  // Monotone but non-linear relation: Spearman 1, Pearson < 1.
  const std::vector<double> a{1, 2, 3, 4, 5};
  const std::vector<double> b{1, 8, 27, 64, 125};
  EXPECT_NEAR(ic::spearman(a, b), 1.0, 1e-12);
  EXPECT_LT(ic::pearson(a, b), 1.0);
}

TEST(Stats, RanksAverageTies) {
  const std::vector<double> xs{10, 20, 20, 30};
  const auto r = ic::ranks(xs);
  EXPECT_DOUBLE_EQ(r[0], 1.0);
  EXPECT_DOUBLE_EQ(r[1], 2.5);
  EXPECT_DOUBLE_EQ(r[2], 2.5);
  EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, BootstrapTracksAnalyticStdError) {
  ic::Rng rng(3);
  std::vector<double> xs;
  for (int i = 0; i < 200; ++i) xs.push_back(rng.gauss(10.0, 2.0));
  const double analytic = ic::std_error(xs);
  const double boot = ic::bootstrap_std_error(xs, 500, 17);
  EXPECT_NEAR(boot, analytic, analytic * 0.25);
}

TEST(Stats, BootstrapCiCoversMean) {
  ic::Rng rng(4);
  std::vector<double> xs;
  for (int i = 0; i < 100; ++i) xs.push_back(rng.gauss(-5.0, 1.0));
  const auto ci = ic::bootstrap_ci95(xs, 400, 21);
  EXPECT_LT(ci.lo, -5.0 + 0.5);
  EXPECT_GT(ci.hi, -5.0 - 0.5);
  EXPECT_LT(ci.lo, ci.hi);
}

TEST(Stats, HistogramClampsOutliersAndCountsAll) {
  ic::Histogram h(0.0, 10.0, 5);
  h.add(-100.0);
  h.add(100.0);
  h.add(5.0);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(0), 1u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(2), 1u);
}

TEST(Stats, HistogramBinCenters) {
  ic::Histogram h(0.0, 10.0, 5);
  EXPECT_DOUBLE_EQ(h.bin_center(0), 1.0);
  EXPECT_DOUBLE_EQ(h.bin_center(4), 9.0);
}

TEST(Stats, HistogramRejectsBadArguments) {
  EXPECT_THROW(ic::Histogram(0.0, 10.0, 0), std::invalid_argument);
  EXPECT_THROW(ic::Histogram(5.0, 5.0, 3), std::invalid_argument);
}

TEST(Stats, RunningStatsMatchesBatch) {
  ic::Rng rng(8);
  std::vector<double> xs;
  ic::RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.gauss(3.0, 4.0);
    xs.push_back(x);
    rs.add(x);
  }
  EXPECT_NEAR(rs.mean(), ic::mean(xs), 1e-9);
  EXPECT_NEAR(rs.variance(), ic::variance(xs), 1e-6);
  EXPECT_DOUBLE_EQ(rs.min(), ic::min_of(xs));
  EXPECT_DOUBLE_EQ(rs.max(), ic::max_of(xs));
}

// ---------------------------------------------------------------- Vec3

TEST(Vec3, BasicAlgebra) {
  const ic::Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, ic::Vec3(5, 7, 9));
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  EXPECT_EQ(a.cross(b), ic::Vec3(-3, 6, -3));
  EXPECT_DOUBLE_EQ(ic::Vec3(3, 4, 0).norm(), 5.0);
}

TEST(Vec3, RotateAboutAxisQuarterTurn) {
  const ic::Vec3 v{1, 0, 0};
  const ic::Vec3 r = ic::rotate_about_axis(v, {0, 0, 1}, std::numbers::pi / 2);
  EXPECT_NEAR(r.x, 0.0, 1e-12);
  EXPECT_NEAR(r.y, 1.0, 1e-12);
  EXPECT_NEAR(r.z, 0.0, 1e-12);
}

TEST(Vec3, NormalizedZeroVectorIsUnitX) {
  EXPECT_EQ(ic::Vec3{}.normalized(), ic::Vec3(1, 0, 0));
}

// ---------------------------------------------------------------- ThreadPool

TEST(ThreadPool, ExecutesAllSubmittedJobs) {
  ic::ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> futs;
  for (int i = 0; i < 100; ++i)
    futs.push_back(pool.submit([&count] { count.fetch_add(1); }));
  for (auto& f : futs) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ReturnsValues) {
  ic::ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, PropagatesExceptions) {
  ic::ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrains) {
  ic::ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i)
    pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ic::ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(0, 257, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ic::ThreadPool pool(2);
  pool.parallel_for(5, 5, [](std::size_t) { FAIL(); });
}

// ---------------------------------------------------------------- Kabsch

TEST(Kabsch, IdenticalSetsHaveZeroRmsd) {
  const std::vector<ic::Vec3> pts{{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}};
  EXPECT_NEAR(ic::rmsd_superposed(pts, pts), 0.0, 1e-10);
}

TEST(Kabsch, RecoverRigidTransform) {
  ic::Rng rng(13);
  std::vector<ic::Vec3> a;
  for (int i = 0; i < 20; ++i)
    a.push_back({rng.uniform(-5, 5), rng.uniform(-5, 5), rng.uniform(-5, 5)});
  // Rotate + translate to build b; superposition must recover RMSD ~ 0.
  const ic::Vec3 axis = ic::Vec3{1, 2, 3}.normalized();
  std::vector<ic::Vec3> b;
  for (const auto& p : a)
    b.push_back(ic::rotate_about_axis(p, axis, 1.1) + ic::Vec3{10, -3, 2});
  EXPECT_NEAR(ic::rmsd_superposed(a, b), 0.0, 1e-8);
  // Raw RMSD must be large by comparison.
  EXPECT_GT(ic::rmsd_raw(a, b), 1.0);
}

TEST(Kabsch, ApplyMapsBOntoA) {
  ic::Rng rng(29);
  std::vector<ic::Vec3> a;
  for (int i = 0; i < 12; ++i)
    a.push_back({rng.gauss(), rng.gauss(), rng.gauss()});
  std::vector<ic::Vec3> b;
  const ic::Vec3 axis = ic::Vec3{-1, 0.5, 2}.normalized();
  for (const auto& p : a)
    b.push_back(ic::rotate_about_axis(p, axis, -0.7) + ic::Vec3{1, 2, 3});
  const auto sup = ic::superpose(a, b);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_NEAR(ic::distance(ic::apply(sup, b[i]), a[i]), 0.0, 1e-8);
}

TEST(Kabsch, NoisyTransformRmsdMatchesNoise) {
  ic::Rng rng(31);
  std::vector<ic::Vec3> a, b;
  const double sigma = 0.1;
  for (int i = 0; i < 500; ++i) {
    const ic::Vec3 p{rng.uniform(-4, 4), rng.uniform(-4, 4), rng.uniform(-4, 4)};
    a.push_back(p);
    b.push_back(p + ic::Vec3{rng.gauss(0, sigma), rng.gauss(0, sigma),
                             rng.gauss(0, sigma)});
  }
  const double r = ic::rmsd_superposed(a, b);
  // Expect roughly sqrt(3)*sigma.
  EXPECT_NEAR(r, std::sqrt(3.0) * sigma, 0.05);
}

TEST(Kabsch, MismatchedSizesThrow) {
  const std::vector<ic::Vec3> a{{0, 0, 0}};
  const std::vector<ic::Vec3> b{{0, 0, 0}, {1, 1, 1}};
  EXPECT_THROW(ic::rmsd_superposed(a, b), std::invalid_argument);
  EXPECT_THROW((void)ic::rmsd_raw(a, b), std::invalid_argument);
}

// ----------------------------------------------------------- block averaging

TEST(BlockAverage, MatchesPlainSemForIidData) {
  Rng rng(6);
  std::vector<double> xs;
  for (int i = 0; i < 4096; ++i) xs.push_back(rng.gauss(0, 1));
  const double plain = stats::std_error(xs);
  const double block = stats::block_average_error(xs);
  EXPECT_GE(block, plain * 0.9);
  EXPECT_LE(block, plain * 1.8);
}

TEST(BlockAverage, ExceedsPlainSemForCorrelatedData) {
  // AR(1) with strong autocorrelation: the naive SEM badly underestimates.
  Rng rng(7);
  std::vector<double> xs;
  double x = 0.0;
  const double phi = 0.95;
  for (int i = 0; i < 4096; ++i) {
    x = phi * x + rng.gauss(0, 1);
    xs.push_back(x);
  }
  const double plain = stats::std_error(xs);
  const double block = stats::block_average_error(xs);
  EXPECT_GT(block, 2.0 * plain);
}

TEST(BlockAverage, SmallInputsAreSafe) {
  EXPECT_EQ(stats::block_average_error({}), 0.0);
  const std::vector<double> one{1.0};
  EXPECT_EQ(stats::block_average_error(one), 0.0);
  const std::vector<double> two{1.0, 2.0};
  EXPECT_GT(stats::block_average_error(two), 0.0);
}

TEST(MiscStats, SpearmanAndPearsonRejectMismatch) {
  const std::vector<double> a{1, 2, 3};
  const std::vector<double> b{1, 2};
  EXPECT_THROW((void)stats::pearson(a, b), std::invalid_argument);
  EXPECT_THROW((void)stats::spearman(a, b), std::invalid_argument);
}

TEST(MiscStats, HistogramTextHasOneLinePerBin) {
  stats::Histogram h(0, 10, 4);
  h.add(1);
  h.add(9);
  const auto text = h.to_text();
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}
