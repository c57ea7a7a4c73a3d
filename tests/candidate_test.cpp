// Tests for the candidate-generation layer (src/candidate/): endpoint-grid
// blocking exactness, the lower-bound cascade, the sparse AG-TS set join,
// the incremental component tracker — and reference oracles for the
// groupers and the pipeline regroup built on them: AG-TR's labels equal the
// components of the phi-thresholded dissimilarity_matrices(), AG-TS's the
// components of the rho-thresholded affinity_matrix(), and the shard's a
// union-find over its own affinity matrix.
#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "candidate/blocking.h"
#include "candidate/cascade.h"
#include "candidate/features.h"
#include "candidate/setjoin.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "dtw/dtw.h"
#include "eval/adapters.h"
#include "graph/graph.h"
#include "graph/incremental.h"
#include "graph/union_find.h"
#include "mcs/scenario.h"
#include "pipeline/shard.h"

namespace sybiltd {
namespace {

core::FrameworkInput scenario_input(std::size_t legit, std::size_t attackers,
                                    std::size_t accounts_per_attacker,
                                    std::size_t tasks, std::uint64_t seed) {
  const auto data = mcs::generate_scenario(mcs::make_large_scenario(
      legit, attackers, accounts_per_attacker, tasks, seed));
  return eval::to_framework_input(data);
}

// Reference groupings: the components of a thresholded full matrix, the
// edges added in canonical (i, j) order.
core::AccountGrouping agtr_reference(const core::FrameworkInput& input,
                                     const core::AgTrOptions& options) {
  const double phi = options.phi;
  const auto matrices = core::AgTr(options).dissimilarity_matrices(input);
  return core::AccountGrouping(
      graph::threshold_graph(matrices.dissimilarity,
                             [phi](double d) { return d < phi; })
          .connected_components(),
      input.accounts.size());
}

core::AccountGrouping agts_reference(const core::FrameworkInput& input,
                                     double rho) {
  return core::AccountGrouping(
      graph::threshold_graph(core::AgTs::affinity_matrix(input),
                             [rho](double a) { return a > rho; })
          .connected_components(),
      input.accounts.size());
}

// --- Blocking --------------------------------------------------------------

TEST(EndpointGrid, DroppedPairsAreProvablyBeyondPhi) {
  const auto input = scenario_input(60, 5, 4, 20, 7);
  const std::size_t n = input.accounts.size();
  std::vector<std::vector<double>> xs(n), ys(n);
  std::vector<candidate::TrajectoryFingerprint> fps(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = core::AgTr::task_series(input.accounts[i]);
    ys[i] = core::AgTr::timestamp_series(input.accounts[i]);
    fps[i].task = candidate::profile_of(xs[i]);
    fps[i].time = candidate::profile_of(ys[i]);
  }
  const double phi = 1.0;
  candidate::BlockingStats stats;
  const auto pairs = candidate::endpoint_grid_candidates(fps, phi, &stats);
  EXPECT_EQ(stats.candidates, pairs.size());
  EXPECT_GT(stats.occupied_cells, 0u);
  // Sorted and unique — the order contract the edge fold depends on.
  for (std::size_t k = 1; k < pairs.size(); ++k) {
    EXPECT_LT(pairs[k - 1], pairs[k]);
  }
  std::set<std::uint64_t> emitted(pairs.begin(), pairs.end());
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (emitted.count(candidate::pack_pair(i, j)) > 0) continue;
      if (xs[i].empty() || xs[j].empty()) continue;  // excluded by design
      // Every dropped pair must already be unreachable from phi by the
      // endpoint bound alone — the grid's exactness invariant.
      const double bound = dtw::endpoint_lower_bound(xs[i], xs[j]) +
                           dtw::endpoint_lower_bound(ys[i], ys[j]);
      EXPECT_GE(bound, phi) << "pair (" << i << ", " << j << ")";
    }
  }
}

TEST(EndpointGrid, NonPositivePhiEmitsNothing) {
  std::vector<candidate::TrajectoryFingerprint> fps(3);
  for (auto& fp : fps) {
    const std::vector<double> series{1.0, 2.0};
    fp.task = candidate::profile_of(series);
    fp.time = candidate::profile_of(series);
  }
  EXPECT_TRUE(candidate::endpoint_grid_candidates(fps, 0.0).empty());
  EXPECT_TRUE(candidate::endpoint_grid_candidates(fps, -1.0).empty());
}

// --- Cascade ---------------------------------------------------------------

TEST(LbCascade, PrunesOnlyPairsBeyondPhiAndReturnsExactValues) {
  std::mt19937_64 rng(1234);
  std::uniform_real_distribution<double> value(0.0, 4.0);
  std::uniform_int_distribution<std::size_t> length(1, 12);
  const std::size_t n = 48;
  std::vector<std::vector<double>> xs(n), ys(n);
  std::vector<candidate::TrajectoryFingerprint> fps(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = length(rng);
    for (std::size_t k = 0; k < len; ++k) {
      xs[i].push_back(value(rng));
      ys[i].push_back(value(rng));
    }
    fps[i].task = candidate::profile_of(xs[i]);
    fps[i].time = candidate::profile_of(ys[i]);
  }
  candidate::CascadeOptions options;
  options.phi = 6.0;
  const candidate::LbCascade cascade(xs, ys, fps, options);
  candidate::CascadeStats stats;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double d = -1.0;
      const auto outcome = cascade.evaluate(i, j, &d);
      stats.count(outcome);
      const double exact = dtw::dtw_total_cost(xs[i], xs[j], {}) +
                           dtw::dtw_total_cost(ys[i], ys[j], {});
      if (outcome == candidate::CascadeOutcome::kExact) {
        EXPECT_DOUBLE_EQ(d, exact);
      } else {
        // Every prune stage is a valid lower bound: a discarded pair's true
        // dissimilarity really is at or beyond phi.
        EXPECT_GE(exact, options.phi)
            << "outcome " << static_cast<int>(outcome);
      }
    }
  }
  // The random data should exercise the funnel, not bypass it.
  EXPECT_GT(stats.endpoint_pruned + stats.envelope_pruned, 0u);
  EXPECT_GT(stats.exact_pairs, 0u);
  EXPECT_EQ(stats.evaluated, n * (n - 1) / 2);
}

// --- AG-TR -----------------------------------------------------------------

// Scenario inputs of n accounts for the reference sweeps.
core::FrameworkInput input_of_size(std::size_t n) {
  switch (n) {
    case 0:
      return {};
    case 1:
      return scenario_input(1, 0, 0, 8, 5);
    case 18:  // the paper's campaign
      return eval::to_framework_input(
          mcs::generate_scenario(mcs::make_paper_scenario(0.5, 0.8, 5)));
    default:  // 10% Sybil accounts in groups of 5, the rest legitimate
      return scenario_input(n - 5 * (n / 50), n / 50, 5, 20 + n / 20, 17 + n);
  }
}

TEST(AgTrReference, LabelsMatchThresholdedMatrices) {
  for (std::size_t n : {0u, 1u, 18u, 80u, 300u}) {
    auto input = input_of_size(n);
    ASSERT_EQ(input.accounts.size(), n);
    if (n >= 80) {
      // Accounts with no reports have no trajectory and stay singletons.
      for (std::size_t i = 3; i < n; i += 11) input.accounts[i].reports.clear();
    }
    for (std::size_t band : {0u, 2u}) {
      for (double phi : {1.0, 4.0, 0.0, -1.0}) {
        core::AgTrOptions options;
        options.phi = phi;
        options.dtw.band = band;
        core::AgTrStats stats;
        const auto got = core::AgTr(options).group_with_stats(input, &stats);
        const auto want = agtr_reference(input, options);
        // Bit-identical, not merely equivalent: same groups, same member
        // order, same labels (the candidate edge fold replays the
        // canonical insertion order).
        EXPECT_EQ(got.labels(), want.labels())
            << "n " << n << " band " << band << " phi " << phi;
        EXPECT_EQ(got.groups(), want.groups())
            << "n " << n << " band " << band << " phi " << phi;
        EXPECT_EQ(stats.blocked + stats.candidates, stats.pairs);
        if (phi <= 0.0) {
          EXPECT_EQ(got.group_count(), n);
        } else if (n >= 18) {
          EXPECT_LT(got.group_count(), n) << "the sweep should find edges";
        }
      }
    }
  }
}

TEST(AgTrCandidates, GroupingBitIdenticalToExactAllPairs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 11ull}) {
    const auto input = scenario_input(40, 4, 5, 20, seed);
    core::AgTrStats stats;
    const auto got = core::AgTr().group_with_stats(input, &stats);
    const auto want = agtr_reference(input, {});
    EXPECT_EQ(got.labels(), want.labels()) << "seed " << seed;
    EXPECT_EQ(got.groups(), want.groups()) << "seed " << seed;
    EXPECT_EQ(stats.blocked + stats.candidates, stats.pairs);
    EXPECT_GT(stats.blocked, 0u) << "blocking should drop some pairs";
  }
}

TEST(AgTrCandidates, FunnelCountersAreConsistent) {
  const auto input = scenario_input(50, 5, 4, 25, 5);
  core::AgTrStats stats;
  (void)core::AgTr().group_with_stats(input, &stats);
  EXPECT_EQ(stats.lb_pruned,
            stats.endpoint_pruned + stats.envelope_pruned +
                stats.keogh_pruned);
  EXPECT_EQ(stats.candidates, stats.lb_pruned + stats.task_abandoned +
                                  stats.exact_pairs);
}

TEST(AgTrCandidates, PathNormalizedModeThresholdsFullMatrix) {
  // Eq. (7) normalization breaks the cascade's bounds: every pair is
  // evaluated, and the grouping is the thresholded matrix's.
  const auto input = scenario_input(10, 1, 2, 10, 3);
  core::AgTrOptions opt;
  opt.mode = core::DtwMode::kPathNormalized;
  opt.phi = 0.3;
  core::AgTrStats stats;
  const auto got = core::AgTr(opt).group_with_stats(input, &stats);
  EXPECT_EQ(got.labels(), agtr_reference(input, opt).labels());
  EXPECT_EQ(stats.blocked, 0u);
  EXPECT_EQ(stats.lb_pruned, 0u);
  EXPECT_EQ(stats.candidates, stats.pairs);
  EXPECT_EQ(stats.exact_pairs, stats.pairs);  // every account has reports
}

// --- AG-TS -----------------------------------------------------------------

TEST(AgTsReference, LabelsMatchThresholdedAffinityMatrix) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 11ull}) {
    const auto input = scenario_input(40, 4, 5, 20, seed);
    for (double rho : {-0.5, 0.0, 1.0}) {
      core::AgTsOptions options;
      options.rho = rho;
      core::AgTsStats stats;
      const auto got = core::AgTs(options).group_with_stats(input, &stats);
      EXPECT_EQ(stats.sparse, rho >= 0.0) << "rho " << rho;
      EXPECT_EQ(got.labels(), agts_reference(input, rho).labels())
          << "seed " << seed << " rho " << rho;
    }
  }
}

TEST(AgTsSparse, MatchesDensePartitionOnScenarios) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 11ull}) {
    const auto input = scenario_input(40, 4, 5, 20, seed);
    core::AgTsStats stats;
    const auto sparse = core::AgTs().group_with_stats(input, &stats);
    EXPECT_TRUE(stats.sparse);
    EXPECT_TRUE(stats.join.exhaustive);  // few distinct sets at this scale
    EXPECT_EQ(agts_reference(input, core::AgTsOptions{}.rho).labels(),
              sparse.labels())
        << "seed " << seed;
  }
}

TEST(AgTsSparse, LshTierMatchesDenseOnScenarios) {
  for (std::uint64_t seed : {1ull, 2ull, 7ull}) {
    const auto input = scenario_input(60, 6, 4, 24, seed);
    core::AgTsOptions lsh_opt;
    lsh_opt.set_join.exact_distinct_cap = 0;  // force the MinHash tier
    core::AgTsStats stats;
    const auto sparse =
        core::AgTs(lsh_opt).group_with_stats(input, &stats);
    EXPECT_TRUE(stats.sparse);
    EXPECT_FALSE(stats.join.exhaustive);
    EXPECT_EQ(agts_reference(input, lsh_opt.rho).labels(), sparse.labels())
        << "seed " << seed;
  }
}

TEST(AgTsSparse, NegativeRhoKeepsDensePath) {
  const auto input = scenario_input(20, 2, 3, 12, 9);
  core::AgTsOptions opt;
  opt.rho = -0.5;
  core::AgTsStats stats;
  (void)core::AgTs(opt).group_with_stats(input, &stats);
  EXPECT_FALSE(stats.sparse) << "rho < 0 must stay dense";
}

TEST(SetJoin, ComponentsMatchBruteForceOnRandomSets) {
  std::mt19937_64 rng(99);
  const std::size_t m = 30;
  const std::size_t n = 120;
  std::uniform_int_distribution<std::uint32_t> task(0, m - 1);
  std::uniform_int_distribution<int> size(0, 10);
  std::vector<std::vector<std::uint32_t>> sets(n);
  for (auto& set : sets) {
    const int s = size(rng);
    std::set<std::uint32_t> chosen;
    while (static_cast<int>(chosen.size()) < s) chosen.insert(task(rng));
    set.assign(chosen.begin(), chosen.end());
  }
  // Clone a few sets to exercise the collapse tier.
  for (std::size_t k = 0; k < 20; ++k) sets[n - 1 - k] = sets[k];
  const double rho = 0.2;
  const auto is_edge = [&](std::size_t both, std::size_t alone) {
    return core::AgTs::affinity(both, alone, m) > rho;
  };
  candidate::SetJoinStats stats;
  const auto edges =
      candidate::sparse_affinity_edges(sets, is_edge, {}, &stats);
  EXPECT_GT(stats.collapsed, 0u);
  graph::UnionFind sparse_uf(n);
  for (const std::uint64_t e : edges) {
    sparse_uf.unite(candidate::pair_first(e), candidate::pair_second(e));
  }
  graph::UnionFind brute_uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      std::size_t both = 0;
      for (std::uint32_t t : sets[i]) {
        both += std::binary_search(sets[j].begin(), sets[j].end(), t);
      }
      const std::size_t alone = sets[i].size() + sets[j].size() - 2 * both;
      if (is_edge(both, alone)) brute_uf.unite(i, j);
    }
  }
  EXPECT_EQ(sparse_uf.labels(), brute_uf.labels());
}

// --- Incremental components ------------------------------------------------

TEST(IncrementalComponents, MatchesFullRebuildUnderChurn) {
  std::mt19937_64 rng(4242);
  const std::size_t n = 64;
  graph::IncrementalComponents inc;
  inc.resize(n);
  // Reference adjacency as sets; set_neighbors must track it exactly.
  std::vector<std::set<std::uint32_t>> ref(n);
  std::uniform_int_distribution<std::size_t> node(0, n - 1);
  std::uniform_int_distribution<int> degree(0, 6);
  for (int round = 0; round < 400; ++round) {
    const std::size_t u = node(rng);
    // New neighbor set for u: some survivors, some fresh nodes.
    std::set<std::uint32_t> next;
    for (std::uint32_t v : ref[u]) {
      if (rng() % 2 == 0) next.insert(v);
    }
    const int fresh = degree(rng);
    for (int k = 0; k < fresh; ++k) {
      const std::size_t v = node(rng);
      if (v != u) next.insert(static_cast<std::uint32_t>(v));
    }
    // Mirror the row replacement in the reference model.
    for (std::uint32_t v : ref[u]) ref[v].erase(static_cast<std::uint32_t>(u));
    ref[u] = next;
    for (std::uint32_t v : next) ref[v].insert(static_cast<std::uint32_t>(u));
    inc.set_neighbors(u,
                      std::vector<std::uint32_t>(next.begin(), next.end()));
    if (round % 7 == 0) {
      graph::UnionFind full(n);
      for (std::size_t a = 0; a < n; ++a) {
        for (std::uint32_t b : ref[a]) {
          if (b > a) full.unite(a, b);
        }
      }
      EXPECT_EQ(inc.labels(), full.labels()) << "round " << round;
    }
  }
  // The churn must have exercised both the cheap and the rebuild paths.
  EXPECT_GT(inc.rebuilds(), 0u);
  EXPECT_GT(inc.incremental_reuses(), 0u);
}

TEST(IncrementalComponents, GrowKeepsExistingMerges) {
  graph::IncrementalComponents inc;
  inc.resize(3);
  inc.set_neighbors(0, {1});
  inc.resize(5);
  const auto labels = inc.labels();
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[3], labels[4]);
  EXPECT_EQ(inc.component_count(), 4u);
}

TEST(UnionFind, GrowAddsIsolatedElements) {
  graph::UnionFind uf(2);
  uf.unite(0, 1);
  uf.grow(4);
  EXPECT_EQ(uf.set_count(), 3u);
  EXPECT_TRUE(uf.connected(0, 1));
  EXPECT_FALSE(uf.connected(0, 2));
  EXPECT_THROW(uf.grow(1), std::invalid_argument);
}

// --- Pipeline lazy regroup -------------------------------------------------

TEST(PipelineIncrementalRegroup, MatchesFullRegroupUnderChurnAndDecay) {
  pipeline::ShardOptions options;
  options.decay = 0.9;  // force evictions → edge removals
  options.influence_floor = 1e-2;

  const std::size_t kTasks = 12;
  pipeline::SnapshotCell cell;
  pipeline::ShardCounters counters;
  pipeline::CampaignState state(0, kTasks, &options, &cell, &counters);

  // Reference: a union-find over every pair of the state's own Eq. (6)
  // affinity matrix.
  const auto full_regroup_labels = [&] {
    const auto affinity = state.affinity_matrix();
    graph::UnionFind components(affinity.size());
    for (std::size_t i = 1; i < affinity.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (affinity[i][j] > options.rho) components.unite(i, j);
      }
    }
    return components.labels();
  };

  std::mt19937_64 rng(77);
  std::uniform_int_distribution<std::size_t> account(0, 39);
  std::uniform_int_distribution<std::size_t> task(0, kTasks - 1);
  std::normal_distribution<double> value(-60.0, 3.0);
  for (int step = 0; step < 600; ++step) {
    pipeline::Report report;
    report.campaign = 0;
    report.account = account(rng);
    report.task = task(rng);
    report.value = value(rng);
    report.timestamp_hours = step * 0.01;
    state.apply(report);
    if (step % 20 == 19) state.evict_stale();
    if (step % 5 == 4) {
      EXPECT_EQ(state.grouping().labels(), full_regroup_labels())
          << "step " << step;
    }
  }
  EXPECT_GT(counters.evictions.load(), 0u);
}

}  // namespace
}  // namespace sybiltd
