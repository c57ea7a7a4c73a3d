// Determinism of the parallelized kernels: every grouper, the framework
// truths, and the evaluation sweeps must produce identical results at
// pool size 1 (the serial fallback) and pool size 8 on the same seeded
// scenario.  This is the contract documented in docs/PERFORMANCE.md —
// parallel tasks write disjoint slots and reductions fold serially, so
// the outputs are bit-identical, not merely close.
//
// The SIMD dispatch level is a second determinism axis: the grouping
// labels (the ARI-relevant output) must be identical at every available
// level, and at each level the pool-size invariance must hold too.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "common/thread_pool.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "mcs/scenario.h"
#include "simd/simd.h"

namespace sybiltd {
namespace {

class ParallelDeterminismTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_ = new mcs::ScenarioData(
        mcs::generate_scenario(mcs::make_paper_scenario(0.5, 0.5, 4242)));
    input_ = new core::FrameworkInput(eval::to_framework_input(*data_));
  }
  static void TearDownTestSuite() {
    ThreadPool::set_global_concurrency(
        ThreadPool::configured_concurrency());
    delete input_;
    delete data_;
    input_ = nullptr;
    data_ = nullptr;
  }

  // Runs `compute` at 1 and 8 threads and returns the two results.
  template <typename Fn>
  static auto at_1_and_8(Fn compute) {
    ThreadPool::set_global_concurrency(1);
    auto serial = compute();
    ThreadPool::set_global_concurrency(8);
    auto pooled = compute();
    return std::array{std::move(serial), std::move(pooled)};
  }

  static mcs::ScenarioData* data_;
  static core::FrameworkInput* input_;
};

mcs::ScenarioData* ParallelDeterminismTest::data_ = nullptr;
core::FrameworkInput* ParallelDeterminismTest::input_ = nullptr;

TEST_F(ParallelDeterminismTest, AgTrGroupingAndMatrices) {
  const core::AgTr grouper;
  const auto groupings =
      at_1_and_8([&] { return grouper.group(*input_).labels(); });
  EXPECT_EQ(groupings[0], groupings[1]);

  const auto matrices =
      at_1_and_8([&] { return grouper.dissimilarity_matrices(*input_); });
  // Bit-identical: each pair's DTW is computed once and written to slots
  // the pair owns, in both runs.
  EXPECT_EQ(matrices[0].task_dtw, matrices[1].task_dtw);
  EXPECT_EQ(matrices[0].time_dtw, matrices[1].time_dtw);
  EXPECT_EQ(matrices[0].dissimilarity, matrices[1].dissimilarity);
}

TEST_F(ParallelDeterminismTest, AgTrPrunedMatchesAtBothSizes) {
  const core::AgTr pruned;
  core::AgTrStats stats1, stats8;
  ThreadPool::set_global_concurrency(1);
  const auto g1 = pruned.group_with_stats(*input_, &stats1);
  ThreadPool::set_global_concurrency(8);
  const auto g8 = pruned.group_with_stats(*input_, &stats8);
  EXPECT_EQ(g1.labels(), g8.labels());
  // The blocking and cascade decisions per pair depend only on the pair,
  // so the counters match too.
  EXPECT_EQ(stats1.blocked, stats8.blocked);
  EXPECT_EQ(stats1.lb_pruned, stats8.lb_pruned);
  EXPECT_EQ(stats1.task_abandoned, stats8.task_abandoned);
  EXPECT_EQ(stats1.exact_pairs, stats8.exact_pairs);
}

TEST_F(ParallelDeterminismTest, AgTsAffinityAndGrouping) {
  const auto affinities =
      at_1_and_8([&] { return core::AgTs::affinity_matrix(*input_); });
  EXPECT_EQ(affinities[0], affinities[1]);
  const auto groupings =
      at_1_and_8([&] { return core::AgTs().group(*input_).labels(); });
  EXPECT_EQ(groupings[0], groupings[1]);
}

TEST_F(ParallelDeterminismTest, AgFpGrouping) {
  const auto groupings =
      at_1_and_8([&] { return core::AgFp().group(*input_).labels(); });
  EXPECT_EQ(groupings[0], groupings[1]);
}

TEST_F(ParallelDeterminismTest, FrameworkTruths) {
  const auto truths = at_1_and_8(
      [&] { return core::run_framework(*input_, core::AgTr()).truths; });
  ASSERT_EQ(truths[0].size(), truths[1].size());
  for (std::size_t j = 0; j < truths[0].size(); ++j) {
    EXPECT_NEAR(truths[0][j], truths[1][j], 1e-12) << "task " << j;
  }
}

// Pin SYBILTD_SIMD at each available level and re-run the groupers: the
// labels feeding ARI must be identical whether the hot loops ran through
// the scalar reference, SSE2, NEON, or AVX2 kernels — and at every level
// the 1-vs-8-thread invariance above must still hold.
TEST_F(ParallelDeterminismTest, GroupingIdenticalAtEveryDispatchLevel) {
  const simd::Level before = simd::active_level();
  simd::set_active_level(simd::Level::kScalar);
  ThreadPool::set_global_concurrency(1);
  const auto tr_ref = core::AgTr().group(*input_).labels();
  const auto ts_ref = core::AgTs().group(*input_).labels();
  const auto fp_ref = core::AgFp().group(*input_).labels();
  const auto truths_ref = core::run_framework(*input_, core::AgTr()).truths;

  for (simd::Level level : simd::available_levels()) {
    simd::set_active_level(level);
    for (int threads : {1, 8}) {
      ThreadPool::set_global_concurrency(threads);
      EXPECT_EQ(core::AgTr().group(*input_).labels(), tr_ref)
          << "AG-TR at " << simd::level_name(level) << " threads=" << threads;
      EXPECT_EQ(core::AgTs().group(*input_).labels(), ts_ref)
          << "AG-TS at " << simd::level_name(level) << " threads=" << threads;
      EXPECT_EQ(core::AgFp().group(*input_).labels(), fp_ref)
          << "AG-FP at " << simd::level_name(level) << " threads=" << threads;
      // Truths go through the envelope-bounded reductions, so compare
      // within the documented 1e-12 envelope rather than bitwise.
      const auto truths =
          core::run_framework(*input_, core::AgTr()).truths;
      ASSERT_EQ(truths.size(), truths_ref.size());
      for (std::size_t j = 0; j < truths.size(); ++j) {
        EXPECT_NEAR(truths[j], truths_ref[j], 1e-9)
            << "task " << j << " at " << simd::level_name(level);
      }
    }
  }
  simd::set_active_level(before);
}

TEST_F(ParallelDeterminismTest, EvaluationSweeps) {
  const std::vector<double> sybil = {0.3, 0.7};
  const auto ari = at_1_and_8([&] {
    return eval::sweep_ari_stats(eval::GroupingMethod::kAgTs, 0.5, sybil, 3,
                                 77, {});
  });
  ASSERT_EQ(ari[0].size(), ari[1].size());
  for (std::size_t p = 0; p < ari[0].size(); ++p) {
    EXPECT_NEAR(ari[0][p].mean, ari[1][p].mean, 1e-12);
    EXPECT_NEAR(ari[0][p].stddev, ari[1][p].stddev, 1e-12);
  }
  const auto mae = at_1_and_8([&] {
    return eval::sweep_mae(eval::Method::kTdTs, 0.5, sybil, 2, 77, {});
  });
  ASSERT_EQ(mae[0].size(), mae[1].size());
  for (std::size_t p = 0; p < mae[0].size(); ++p) {
    EXPECT_NEAR(mae[0][p], mae[1][p], 1e-12);
  }
}

}  // namespace
}  // namespace sybiltd
