#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <vector>

#include "util/random.h"
#include "util/stats.h"
#include "util/thread_pool.h"

namespace ldr {
namespace {

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double v = rng.NextDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(11);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    int64_t v = rng.UniformInt(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= (v == 2);
    saw_hi |= (v == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyStandard) {
  Rng rng(13);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Gaussian());
  EXPECT_NEAR(Mean(xs), 0.0, 0.05);
  EXPECT_NEAR(StdDev(xs), 1.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(17);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) xs.push_back(rng.Exponential(3.0));
  EXPECT_NEAR(Mean(xs), 3.0, 0.15);
}

TEST(Rng, ForkIndependentStreams) {
  Rng parent(5);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  EXPECT_NE(c1.NextU64(), c2.NextU64());
  // Forking is a pure function of (state, salt).
  Rng parent2(5);
  Rng c1b = parent2.Fork(1);
  Rng check(5);
  (void)check;
  EXPECT_EQ(Rng(5).Fork(1).NextU64(), c1b.NextU64());
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Zipf, WeightsDecreaseAndNormalize) {
  ZipfSampler z(100, 1.2);
  double total = 0;
  for (size_t k = 0; k < z.size(); ++k) {
    total += z.Weight(k);
    if (k > 0) {
      EXPECT_LT(z.Weight(k), z.Weight(k - 1));
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Zipf, SampleFollowsWeights) {
  ZipfSampler z(10, 1.0);
  Rng rng(31);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[z.Sample(&rng)];
  for (size_t k = 0; k < 10; ++k) {
    double freq = static_cast<double>(counts[k]) / kDraws;
    EXPECT_NEAR(freq, z.Weight(k), 0.01) << "rank " << k;
  }
}

TEST(Stats, PercentileBasics) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(Percentile(v, 0), 1);
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 3);
  EXPECT_DOUBLE_EQ(Percentile(v, 100), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 25), 2);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> v{0, 10};
  EXPECT_DOUBLE_EQ(Percentile(v, 50), 5);
  EXPECT_DOUBLE_EQ(Percentile(v, 90), 9);
}

TEST(Stats, PercentileEmptyAndSingle) {
  EXPECT_DOUBLE_EQ(Percentile({}, 50), 0);
  EXPECT_DOUBLE_EQ(Percentile({7}, 99), 7);
}

TEST(Stats, MeanStdDev) {
  std::vector<double> v{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(Mean(v), 5.0);
  EXPECT_NEAR(StdDev(v), 2.138, 1e-3);  // sample stddev
}

TEST(Stats, MinMaxSum) {
  std::vector<double> v{3, -1, 4};
  EXPECT_DOUBLE_EQ(MaxOf(v), 4);
  EXPECT_DOUBLE_EQ(MinOf(v), -1);
  EXPECT_DOUBLE_EQ(Sum(v), 6);
}

TEST(Cdf, FractionAtOrBelow) {
  EmpiricalCdf cdf({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(0), 0.0);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(2.5), 0.5);
  EXPECT_DOUBLE_EQ(cdf.FractionAtOrBelow(10), 1.0);
}

TEST(Cdf, ValueAtQuantile) {
  EmpiricalCdf cdf({10, 20, 30});
  EXPECT_DOUBLE_EQ(cdf.ValueAt(0), 10);
  EXPECT_DOUBLE_EQ(cdf.ValueAt(0.5), 20);
  EXPECT_DOUBLE_EQ(cdf.ValueAt(1), 30);
}

TEST(Cdf, AddThenQuery) {
  EmpiricalCdf cdf;
  for (int i = 1; i <= 100; ++i) cdf.Add(i);
  EXPECT_NEAR(cdf.FractionAtOrBelow(50), 0.5, 1e-9);
  EXPECT_EQ(cdf.size(), 100u);
}

TEST(Cdf, PlotPointsMonotone) {
  EmpiricalCdf cdf;
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) cdf.Add(rng.NextDouble());
  auto pts = cdf.PlotPoints(50);
  EXPECT_LE(pts.size(), 52u);
  for (size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].first, pts[i].first);
    EXPECT_LE(pts[i - 1].second, pts[i].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

// LDR_THREADS comes from outside the program: an oversized request is
// clamped before it can size a pool. Only the count is checked — no pool
// of the requested size is ever built.
TEST(ThreadCount, LdrThreadsIsClampedToTheCeiling) {
  setenv("LDR_THREADS", "1000000", 1);
  EXPECT_EQ(DefaultThreadCount(), kMaxThreads);
  setenv("LDR_THREADS", "99999999999999999999", 1);  // strtol saturates
  EXPECT_EQ(DefaultThreadCount(), kMaxThreads);
  setenv("LDR_THREADS", "256", 1);
  EXPECT_EQ(DefaultThreadCount(), 256u);
  setenv("LDR_THREADS", "3", 1);
  EXPECT_EQ(DefaultThreadCount(), 3u);
  unsetenv("LDR_THREADS");
}

}  // namespace
}  // namespace ldr
