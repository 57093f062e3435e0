#include "src/sim/random.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

namespace tpp::sim {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniformInt(0, 1'000'000) == b.uniformInt(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministic) {
  Rng parent(7);
  Rng f1 = parent.fork("linkA");
  Rng f2 = Rng(7).fork("linkA");
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(f1.uniform(0, 1), f2.uniform(0, 1));
  }
}

TEST(Rng, ForksWithDifferentNamesAreIndependent) {
  Rng parent(7);
  Rng f1 = parent.fork("a");
  Rng f2 = parent.fork("b");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (f1.uniformInt(0, 1'000'000) == f2.uniformInt(0, 1'000'000)) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(9), b(9);
  (void)a.fork("x");
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(0, 1), b.uniform(0, 1));
  }
}

TEST(Rng, UniformStaysInRange) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform(2.0, 5.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(3);
  bool sawLo = false, sawHi = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    sawLo = sawLo || v == 0;
    sawHi = sawHi || v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialMeanApproximates) {
  Rng r(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(Rng, ParetoBoundedStaysInRange) {
  Rng r(13);
  for (int i = 0; i < 2000; ++i) {
    const double v = r.paretoBounded(1.2, 10.0, 1000.0);
    EXPECT_GE(v, 10.0);
    EXPECT_LE(v, 1000.0);
  }
}

TEST(Rng, ParetoIsHeavyTailedTowardMin) {
  Rng r(17);
  int nearMin = 0;
  const int n = 5000;
  for (int i = 0; i < n; ++i) {
    if (r.paretoBounded(1.2, 10.0, 1e6) < 100.0) ++nearMin;
  }
  // Most mass lies near the minimum for shape > 1.
  EXPECT_GT(nearMin, n / 2);
}

TEST(Rng, BernoulliRespectsP) {
  Rng r(19);
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) heads += r.bernoulli(0.25) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.25, 0.02);
}

TEST(Rng, NormalMoments) {
  Rng r(23);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double v = r.normal(10.0, 3.0);
    sum += v;
    sq += v * v;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 3.0, 0.1);
}

// Property sweep: fork determinism holds for arbitrary names and seeds.
class RngForkProperty
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(RngForkProperty, ReproducibleAcrossInstances) {
  const auto [seed, name] = GetParam();
  Rng a = Rng(seed).fork(name);
  Rng b = Rng(seed).fork(name);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.uniformInt(0, 1'000'000'000), b.uniformInt(0, 1'000'000'000));
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndNames, RngForkProperty,
    ::testing::Combine(::testing::Values(0ULL, 1ULL, 42ULL, 0xdeadbeefULL),
                       ::testing::Values("", "flow", "switch/0",
                                         "a-very-long-substream-name")));

}  // namespace
}  // namespace tpp::sim
