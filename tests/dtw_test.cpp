// Unit and property tests for src/dtw, including the exact values of the
// paper's Fig. 4 worked example and the lower bounds AG-TR prunes with.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/rng.h"
#include "dtw/dtw.h"

namespace sybiltd::dtw {
namespace {

TEST(Dtw, IdenticalSeriesHaveZeroDistance) {
  const std::vector<double> a{1, 2, 3, 4};
  const auto r = dtw_full(a, a);
  EXPECT_EQ(r.total_cost, 0.0);
  EXPECT_EQ(r.distance, 0.0);
  EXPECT_EQ(r.path.size(), a.size());
}

TEST(Dtw, RejectsEmptySeries) {
  const std::vector<double> a{1.0};
  EXPECT_THROW(dtw_full({}, a), std::invalid_argument);
  EXPECT_THROW(dtw_distance(a, {}), std::invalid_argument);
}

TEST(Dtw, SingletonSeries) {
  const std::vector<double> a{3.0};
  const std::vector<double> b{5.0};
  const auto r = dtw_full(a, b);
  EXPECT_NEAR(r.total_cost, 4.0, 1e-12);
  EXPECT_EQ(r.path.size(), 1u);
}

// --- The paper's Fig. 4(a) task-series values ----------------------------
// X_1=(1,2,3,4), X_2=(2,3), X_3=(1,2,4), X_4'=X_4''=X_4'''=(1,3,4).
TEST(Dtw, PaperFig4TaskSeriesTotalCosts) {
  const std::vector<double> x1{1, 2, 3, 4};
  const std::vector<double> x2{2, 3};
  const std::vector<double> x3{1, 2, 4};
  const std::vector<double> x4{1, 3, 4};
  EXPECT_NEAR(dtw_full(x1, x2).total_cost, 2.0, 1e-12);
  EXPECT_NEAR(dtw_full(x1, x3).total_cost, 1.0, 1e-12);
  EXPECT_NEAR(dtw_full(x1, x4).total_cost, 1.0, 1e-12);
  EXPECT_NEAR(dtw_full(x2, x3).total_cost, 2.0, 1e-12);
  EXPECT_NEAR(dtw_full(x2, x4).total_cost, 2.0, 1e-12);
  EXPECT_NEAR(dtw_full(x3, x4).total_cost, 1.0, 1e-12);
  EXPECT_NEAR(dtw_full(x4, x4).total_cost, 0.0, 1e-12);
}

TEST(Dtw, SymmetricInArguments) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<double> a(3 + rng.uniform_index(8));
    std::vector<double> b(3 + rng.uniform_index(8));
    for (auto& v : a) v = rng.uniform(-5, 5);
    for (auto& v : b) v = rng.uniform(-5, 5);
    EXPECT_NEAR(dtw_full(a, b).total_cost, dtw_full(b, a).total_cost, 1e-9);
    EXPECT_NEAR(dtw_distance(a, b), dtw_distance(b, a), 1e-9);
  }
}

TEST(Dtw, PathIsValidWarpingPath) {
  Rng rng(2);
  std::vector<double> a(12), b(9);
  for (auto& v : a) v = rng.uniform(-3, 3);
  for (auto& v : b) v = rng.uniform(-3, 3);
  const auto r = dtw_full(a, b);
  // Boundary conditions.
  EXPECT_EQ(r.path.front(), (std::pair<std::size_t, std::size_t>{0, 0}));
  EXPECT_EQ(r.path.back(),
            (std::pair<std::size_t, std::size_t>{a.size() - 1,
                                                 b.size() - 1}));
  // Monotonicity and continuity.
  for (std::size_t k = 1; k < r.path.size(); ++k) {
    const auto [pi, pj] = r.path[k - 1];
    const auto [ci, cj] = r.path[k];
    EXPECT_TRUE(ci == pi || ci == pi + 1);
    EXPECT_TRUE(cj == pj || cj == pj + 1);
    EXPECT_TRUE(ci > pi || cj > pj);
  }
  // Path length bounds from the paper: max(m,n) <= K <= m + n - 1.
  EXPECT_GE(r.path.size(), std::max(a.size(), b.size()));
  EXPECT_LE(r.path.size(), a.size() + b.size() - 1);
  // Path cost equals reported total cost.
  double cost = 0.0;
  for (const auto& [i, j] : r.path) cost += (a[i] - b[j]) * (a[i] - b[j]);
  EXPECT_NEAR(cost, r.total_cost, 1e-9);
}

TEST(Dtw, DistanceOnlyMatchesFullDp) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> a(2 + rng.uniform_index(10));
    std::vector<double> b(2 + rng.uniform_index(10));
    for (auto& v : a) v = rng.uniform(-2, 2);
    for (auto& v : b) v = rng.uniform(-2, 2);
    const auto full = dtw_full(a, b);
    EXPECT_NEAR(dtw_distance(a, b), full.distance, 1e-9);
  }
}

TEST(Dtw, Eq7NormalizationUsesPathLength) {
  const std::vector<double> a{0, 0};
  const std::vector<double> b{1, 1};
  const auto r = dtw_full(a, b);
  EXPECT_NEAR(r.total_cost, 2.0, 1e-12);
  EXPECT_EQ(r.path.size(), 2u);
  EXPECT_NEAR(r.distance, std::sqrt(2.0 / 2.0), 1e-12);
}

TEST(Dtw, TimeShiftCheaperThanValueShift) {
  // DTW should align a shifted copy almost perfectly.
  std::vector<double> a(32), shifted(32), scaled(32);
  for (std::size_t t = 0; t < 32; ++t) {
    a[t] = std::sin(0.4 * static_cast<double>(t));
    shifted[t] = std::sin(0.4 * (static_cast<double>(t) - 2.0));
    scaled[t] = a[t] + 2.0;
  }
  EXPECT_LT(dtw_full(a, shifted).total_cost,
            dtw_full(a, scaled).total_cost);
}

TEST(Dtw, BandZeroMeansUnconstrained) {
  Rng rng(4);
  std::vector<double> a(15), b(10);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  DtwOptions none;
  DtwOptions wide;
  wide.band = 100;
  EXPECT_NEAR(dtw_full(a, b, none).total_cost,
              dtw_full(a, b, wide).total_cost, 1e-12);
}

TEST(Dtw, TighterBandNeverLowersCost) {
  Rng rng(5);
  std::vector<double> a(20), b(20);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  double prev = -1.0;
  for (std::size_t band : {20ul, 5ul, 2ul, 1ul}) {
    DtwOptions opt;
    opt.band = band;
    const double cost = dtw_full(a, b, opt).total_cost;
    if (prev >= 0.0) EXPECT_GE(cost + 1e-12, prev);
    prev = cost;
  }
}

TEST(Dtw, BandWidensForUnequalLengths) {
  // A band narrower than the length difference must still find a path.
  std::vector<double> a(20, 1.0);
  std::vector<double> b(5, 1.0);
  DtwOptions opt;
  opt.band = 1;
  EXPECT_NO_THROW(dtw_full(a, b, opt));
  EXPECT_NEAR(dtw_full(a, b, opt).total_cost, 0.0, 1e-12);
}

TEST(Dtw, ZnormRemovesOffsetAndScale) {
  std::vector<double> a(40), b(40);
  for (std::size_t t = 0; t < 40; ++t) {
    a[t] = std::sin(0.3 * static_cast<double>(t));
    b[t] = 5.0 + 3.0 * a[t];  // affine copy
  }
  EXPECT_GT(dtw_distance(a, b), 1.0);
  EXPECT_NEAR(dtw_distance_znorm(a, b), 0.0, 1e-9);
}

TEST(Dtw, ZnormConstantSeriesIsZeroVector) {
  const std::vector<double> a{2, 2, 2};
  const std::vector<double> b{7, 7, 7};
  EXPECT_NEAR(dtw_distance_znorm(a, b), 0.0, 1e-12);
}

// --- Banded vs dense-reference equivalence ---------------------------------
// The production kernels store only the band (dtw_full) or two rolling rows
// with band-edge infinity clears (dtw_distance).  This reference builds the
// obviously-correct dense m*n matrix, infinity-filled up front, with the
// same Sakoe–Chiba band and the same (cost, path-length) tie-breaking —
// any stale-cell bug in the banded storage shows up as a mismatch here.

struct RefCell {
  double cost;
  std::size_t len;
};

RefCell dense_banded_reference(std::span<const double> a,
                               std::span<const double> b, std::size_t band) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  std::size_t w = band == 0 ? std::max(m, n) : band;
  const std::size_t diff = m > n ? m - n : n - m;
  w = std::max(w, diff);  // same widening as the implementation

  const double inf = std::numeric_limits<double>::infinity();
  std::vector<RefCell> dp(m * n, {inf, 0});
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const std::size_t gap = i > j ? i - j : j - i;
      if (gap > w) continue;
      const double cost = (a[i] - b[j]) * (a[i] - b[j]);
      RefCell best{inf, 0};
      auto consider = [&](const RefCell& c) {
        if (c.cost < best.cost ||
            (c.cost == best.cost && c.len < best.len)) {
          best = c;
        }
      };
      if (i == 0 && j == 0) {
        best = {0.0, 0};
      } else {
        if (i > 0 && j > 0) consider(dp[(i - 1) * n + (j - 1)]);
        if (i > 0) consider(dp[(i - 1) * n + j]);
        if (j > 0) consider(dp[i * n + (j - 1)]);
      }
      dp[i * n + j] = {cost + best.cost, best.len + 1};
    }
  }
  return dp[m * n - 1];
}

TEST(DtwBandedEquivalence, DistanceMatchesDenseReference) {
  Rng rng(40);
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<double> a(2 + rng.uniform_index(24));
    std::vector<double> b(2 + rng.uniform_index(24));
    for (auto& v : a) v = rng.uniform(-3, 3);
    for (auto& v : b) v = rng.uniform(-3, 3);
    for (const std::size_t band : {0ul, 1ul, 2ul, 4ul, 8ul}) {
      DtwOptions opt;
      opt.band = band;
      const RefCell ref = dense_banded_reference(a, b, band);
      ASSERT_TRUE(std::isfinite(ref.cost));
      const double expected =
          std::sqrt(ref.cost / static_cast<double>(ref.len));
      EXPECT_EQ(dtw_distance(a, b, opt), expected)
          << "m=" << a.size() << " n=" << b.size() << " band=" << band
          << " trial=" << trial;
    }
  }
}

TEST(DtwBandedEquivalence, FullMatchesDenseReference) {
  Rng rng(41);
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<double> a(2 + rng.uniform_index(16));
    std::vector<double> b(2 + rng.uniform_index(16));
    for (auto& v : a) v = rng.uniform(-3, 3);
    for (auto& v : b) v = rng.uniform(-3, 3);
    for (const std::size_t band : {0ul, 1ul, 3ul, 6ul}) {
      DtwOptions opt;
      opt.band = band;
      const RefCell ref = dense_banded_reference(a, b, band);
      const auto r = dtw_full(a, b, opt);
      EXPECT_EQ(r.total_cost, ref.cost)
          << "m=" << a.size() << " n=" << b.size() << " band=" << band;
      // The recovered path must realize the optimal cost inside the band.
      double path_cost = 0.0;
      for (const auto& [i, j] : r.path) {
        const std::size_t gap = i > j ? i - j : j - i;
        const std::size_t diff = a.size() > b.size()
                                     ? a.size() - b.size()
                                     : b.size() - a.size();
        const std::size_t w =
            band == 0 ? std::max(a.size(), b.size()) : std::max(band, diff);
        EXPECT_LE(gap, w) << "path left the band";
        path_cost += (a[i] - b[j]) * (a[i] - b[j]);
      }
      EXPECT_NEAR(path_cost, r.total_cost, 1e-9);
    }
  }
}

TEST(DtwBandedEquivalence, RepeatedCallsDoNotLeakStaleCells) {
  // Stale rolling-row state from a previous (larger or differently-banded)
  // call must not bleed into later results: interleave shapes and compare
  // every call against a fresh reference.
  Rng rng(42);
  std::vector<double> big_a(48), big_b(48);
  for (auto& v : big_a) v = rng.uniform(-2, 2);
  for (auto& v : big_b) v = rng.uniform(-2, 2);
  std::vector<double> small_a(7), small_b(9);
  for (auto& v : small_a) v = rng.uniform(-2, 2);
  for (auto& v : small_b) v = rng.uniform(-2, 2);

  DtwOptions narrow;
  narrow.band = 2;
  DtwOptions wide;
  wide.band = 30;
  for (int round = 0; round < 5; ++round) {
    for (const auto* opt : {&narrow, &wide}) {
      const RefCell ref_big =
          dense_banded_reference(big_a, big_b, opt->band);
      EXPECT_EQ(dtw_distance(big_a, big_b, *opt),
                std::sqrt(ref_big.cost / static_cast<double>(ref_big.len)));
      const RefCell ref_small =
          dense_banded_reference(small_a, small_b, opt->band);
      EXPECT_EQ(
          dtw_distance(small_a, small_b, *opt),
          std::sqrt(ref_small.cost / static_cast<double>(ref_small.len)));
    }
  }
}

class DtwLowerBound : public ::testing::TestWithParam<std::uint64_t> {};

// Property: DTW total cost is at most the direct (lock-step) cost for
// equal-length series, and nonnegative.
TEST_P(DtwLowerBound, NeverExceedsLockStepCost) {
  Rng rng(GetParam());
  std::vector<double> a(16), b(16);
  for (auto& v : a) v = rng.uniform(-4, 4);
  for (auto& v : b) v = rng.uniform(-4, 4);
  double lock_step = 0.0;
  for (std::size_t t = 0; t < 16; ++t) {
    lock_step += (a[t] - b[t]) * (a[t] - b[t]);
  }
  const double cost = dtw_full(a, b).total_cost;
  EXPECT_GE(cost, 0.0);
  EXPECT_LE(cost, lock_step + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DtwLowerBound,
                         ::testing::Values(100, 101, 102, 103, 104, 105));

class LbKeoghBound : public ::testing::TestWithParam<std::uint64_t> {};

// Property: LB_Keogh never exceeds the banded DTW total cost.
TEST_P(LbKeoghBound, IsALowerBoundOnBandedDtw) {
  Rng rng(GetParam());
  const std::size_t n = 32;
  std::vector<double> a(n), b(n);
  for (auto& v : a) v = rng.uniform(-2, 2);
  for (auto& v : b) v = rng.uniform(-2, 2);
  for (std::size_t band : {1ul, 3ul, 8ul}) {
    const double bound = lb_keogh(a, b, band);
    DtwOptions opt;
    opt.band = band;
    const double exact = dtw_full(a, b, opt).total_cost;
    EXPECT_LE(bound, exact + 1e-9) << "band " << band;
    EXPECT_GE(bound, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LbKeoghBound,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(LbKeogh, ZeroForSeriesInsideEnvelope) {
  const std::vector<double> a{0, 0, 0, 0};
  const std::vector<double> b{1, -1, 1, -1};
  // Query constant 0 always lies within [min, max] of any window of b.
  EXPECT_EQ(lb_keogh(a, b, 1), 0.0);
}

TEST(LbKeogh, PositiveForSeparatedSeries) {
  const std::vector<double> a{5, 5, 5, 5};
  const std::vector<double> b{0, 0, 0, 0};
  EXPECT_NEAR(lb_keogh(a, b, 1), 4 * 25.0, 1e-12);
}

TEST(LbKeogh, ValidatesInput) {
  const std::vector<double> a{1, 2};
  const std::vector<double> b{1};
  EXPECT_THROW(lb_keogh(a, b, 1), std::invalid_argument);
  EXPECT_THROW(lb_keogh({}, {}, 1), std::invalid_argument);
}

}  // namespace
}  // namespace sybiltd::dtw
