#include "core/ag_tr.h"

#include <cstdint>
#include <limits>

#include "candidate/blocking.h"
#include "candidate/cascade.h"
#include "candidate/features.h"
#include "common/thread_pool.h"
#include "graph/graph.h"
#include "obs/metrics.h"

namespace sybiltd::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Registry mirror of AgTrStats, accumulated across every grouping pass so
// pruning effectiveness shows up in obs::snapshot() even when callers do
// not ask for per-call stats.  The cascade stages get their own counters so
// the prune funnel is visible end to end.
struct AgTrMetrics {
  obs::Counter& pairs = obs::MetricsRegistry::global().counter(
      "agtr.pairs", "unordered account pairs considered by AG-TR");
  obs::Counter& blocked = obs::MetricsRegistry::global().counter(
      "agtr.blocked", "pairs excluded by endpoint-grid blocking");
  obs::Counter& candidates = obs::MetricsRegistry::global().counter(
      "agtr.candidates", "pairs that reached the lower-bound cascade");
  obs::Counter& lb_pruned = obs::MetricsRegistry::global().counter(
      "agtr.lb_pruned", "pairs discarded by the cascade's lower bounds");
  obs::Counter& endpoint_pruned = obs::MetricsRegistry::global().counter(
      "agtr.cascade.endpoint_pruned",
      "cascade prunes at the O(1) endpoint stage");
  obs::Counter& envelope_pruned = obs::MetricsRegistry::global().counter(
      "agtr.cascade.envelope_pruned",
      "cascade prunes at the whole-series envelope stage");
  obs::Counter& keogh_pruned = obs::MetricsRegistry::global().counter(
      "agtr.cascade.keogh_pruned",
      "cascade prunes at the strict LB_Keogh stage");
  obs::Counter& task_abandoned = obs::MetricsRegistry::global().counter(
      "agtr.task_abandoned", "pairs abandoned after the task-series DTW");
  obs::Counter& exact_pairs = obs::MetricsRegistry::global().counter(
      "agtr.exact_pairs", "pairs that ran both exact DTW terms");

  static AgTrMetrics& get() {
    static AgTrMetrics metrics;
    return metrics;
  }
};

}  // namespace

std::vector<double> AgTr::task_series(const AccountTrace& account) {
  std::vector<double> series;
  series.reserve(account.reports.size());
  for (const auto& report : account.reports) {
    series.push_back(static_cast<double>(report.task + 1));
  }
  return series;
}

std::vector<double> AgTr::timestamp_series(const AccountTrace& account) {
  std::vector<double> series;
  series.reserve(account.reports.size());
  for (const auto& report : account.reports) {
    series.push_back(report.timestamp_hours);
  }
  return series;
}

double AgTr::dtw_value(const std::vector<double>& a,
                       const std::vector<double>& b) const {
  if (a.empty() || b.empty()) {
    // An account with no reports has no trajectory; treat it as maximally
    // dissimilar so it always lands in its own group.
    return kInf;
  }
  // Total-cost mode (the default) needs no warping path, so it runs the
  // path-free banded DP — same total_cost bits as dtw_full, minus the
  // full band matrix and backtracking.
  if (options_.mode == DtwMode::kTotalCost) {
    return dtw::dtw_total_cost(a, b, options_.dtw);
  }
  return dtw::dtw_full(a, b, options_.dtw).distance;
}

AgTr::Matrices AgTr::dissimilarity_matrices(
    const FrameworkInput& input) const {
  const std::size_t n = input.accounts.size();
  Matrices m;
  m.task_dtw.assign(n, std::vector<double>(n, 0.0));
  m.time_dtw.assign(n, std::vector<double>(n, 0.0));
  m.dissimilarity.assign(n, std::vector<double>(n, 0.0));

  std::vector<std::vector<double>> xs(n), ys(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = task_series(input.accounts[i]);
    ys[i] = timestamp_series(input.accounts[i]);
  }
  // One DTW evaluation per unordered pair fills both triangles; each pair
  // task owns its four mirror cells, so the parallel writes are disjoint.
  parallel_pairwise(n, [&](std::size_t i, std::size_t j) {
    const double dx = dtw_value(xs[i], xs[j]);
    const double dy = dtw_value(ys[i], ys[j]);
    m.task_dtw[i][j] = m.task_dtw[j][i] = dx;
    m.time_dtw[i][j] = m.time_dtw[j][i] = dy;
    m.dissimilarity[i][j] = m.dissimilarity[j][i] = dx + dy;
  });
  return m;
}

AccountGrouping AgTr::group(const FrameworkInput& input) const {
  return group_with_stats(input, nullptr);
}

AccountGrouping AgTr::group_with_stats(const FrameworkInput& input,
                                       AgTrStats* stats) const {
  const std::size_t n = input.accounts.size();
  if (n == 0) {
    if (stats != nullptr) *stats = AgTrStats{};
    return AccountGrouping::singletons(0);
  }
  const double phi = options_.phi;
  AgTrStats local;
  local.pairs = ThreadPool::pair_count(n);

  graph::UndirectedGraph g(n);
  if (options_.mode == DtwMode::kPathNormalized) {
    // Eq. (7)'s path-length normalization breaks the cascade's lower
    // bounds, so this mode thresholds the full matrix.
    g = graph::threshold_graph(dissimilarity_matrices(input).dissimilarity,
                               [phi](double d) { return d < phi; });
    std::size_t with_reports = 0;
    for (const auto& account : input.accounts) {
      with_reports += account.reports.empty() ? 0 : 1;
    }
    local.candidates = local.pairs;
    local.exact_pairs = ThreadPool::pair_count(with_reports);
  } else {
    std::vector<std::vector<double>> xs(n), ys(n);
    std::vector<candidate::TrajectoryFingerprint> fps(n);
    for (std::size_t i = 0; i < n; ++i) {
      xs[i] = task_series(input.accounts[i]);
      ys[i] = timestamp_series(input.accounts[i]);
      fps[i].task = candidate::profile_of(xs[i]);
      fps[i].time = candidate::profile_of(ys[i]);
    }
    candidate::CascadeOptions cascade_options;
    cascade_options.phi = phi;
    cascade_options.dtw = options_.dtw;
    const candidate::LbCascade cascade(xs, ys, fps, cascade_options);

    // Generate-then-verify: the endpoint grid emits the only pairs that
    // could have D < phi, sorted in lexicographic (i, j) order, so the
    // serial edge fold below adds the same edges in the same order as
    // thresholding the full matrix — at every thread count.
    const std::vector<std::uint64_t> pairs =
        candidate::endpoint_grid_candidates(fps, phi);
    local.candidates = pairs.size();
    local.blocked = local.pairs - pairs.size();
    std::vector<double> dissim(pairs.size(), kInf);
    std::vector<candidate::CascadeOutcome> outcome(pairs.size());
    parallel_for(pairs.size(), [&](std::size_t k) {
      outcome[k] = cascade.evaluate(candidate::pair_first(pairs[k]),
                                    candidate::pair_second(pairs[k]),
                                    &dissim[k]);
    });
    candidate::CascadeStats cascade_stats;
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      cascade_stats.count(outcome[k]);
      if (outcome[k] == candidate::CascadeOutcome::kExact &&
          dissim[k] < phi) {
        g.add_edge(candidate::pair_first(pairs[k]),
                   candidate::pair_second(pairs[k]), dissim[k]);
      }
    }
    local.lb_pruned = cascade_stats.lb_pruned();
    local.endpoint_pruned = cascade_stats.endpoint_pruned;
    local.envelope_pruned = cascade_stats.envelope_pruned;
    local.keogh_pruned = cascade_stats.keogh_pruned;
    local.task_abandoned = cascade_stats.task_abandoned;
    local.exact_pairs = cascade_stats.exact_pairs;
  }

  auto& metrics = AgTrMetrics::get();
  metrics.pairs.inc(local.pairs);
  metrics.blocked.inc(local.blocked);
  metrics.candidates.inc(local.candidates);
  metrics.lb_pruned.inc(local.lb_pruned);
  metrics.endpoint_pruned.inc(local.endpoint_pruned);
  metrics.envelope_pruned.inc(local.envelope_pruned);
  metrics.keogh_pruned.inc(local.keogh_pruned);
  metrics.task_abandoned.inc(local.task_abandoned);
  metrics.exact_pairs.inc(local.exact_pairs);
  if (stats != nullptr) *stats = local;
  return AccountGrouping(g.connected_components(), n);
}

}  // namespace sybiltd::core
