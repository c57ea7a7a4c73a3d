// Extension bench: grouping at campaign scale (10^4 .. 10^6 accounts).
//
// The paper's experiment has 18 accounts; this bench measures the
// sub-quadratic candidate-generation paths (src/candidate/) against the
// all-pairs baselines they replace:
//
//   AG-TR   endpoint-grid blocking + lower-bound cascade  vs  the same
//           cascade over every pair (no blocking),
//   AG-TS   signature collapse + MinHash set join          vs  an exact
//           bitset-popcount sweep over every pair.
//
// Both candidate paths are generate-then-verify, so recall against the
// exact grouping is the headline number next to the speedup; the funnel
// fractions show where pairs die.  Baselines only run up to
// --all-pairs-cap accounts (default 10^5) — beyond that the quadratic
// sweep is the point being made.
//
// Modes:
//   scalability [sizes...]          human tables (default 10000 100000)
//   scalability --json [sizes...]   google-benchmark JSON for
//                                   bench/compare_bench.py (BENCH_grouping)
//   scalability --smoke [n]         CI gate: candidates prune > 90% of
//                                   pairs and recall == 1.0 at n (5000)
//   scalability --all-pairs-cap N   largest n that runs exact baselines
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "candidate/cascade.h"
#include "candidate/features.h"
#include "cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "graph/union_find.h"

using namespace sybiltd;

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ---------------------------------------------------------------------------
// Synthetic campaign generator.  mcs::generate_scenario models the paper's
// full sensing physics and becomes the bottleneck near 10^6 accounts, so
// the bench uses a lean generator with the same grouping-relevant shape:
// 90% legitimate accounts with individual task schedules, 10% Sybil
// accounts in groups of 5 that replay one schedule (identical task sets,
// near-identical trajectories — the signature AG-TS / AG-TR detect).
// Tasks scale with n (m = max(64, n / 250)) and the enrollment window
// widens with n so account density per unit time stays realistic.

struct GroupingScenario {
  core::FrameworkInput input;
  std::size_t attacker_groups = 0;
};

GroupingScenario make_grouping_input(std::size_t n, std::uint64_t seed) {
  GroupingScenario out;
  const std::size_t m = std::max<std::size_t>(64, n / 250);
  const double window_hours = std::max(2.0, static_cast<double>(n) / 5000.0);
  const std::size_t groups = n / 50;  // x5 accounts each = 10% of n
  const std::size_t legit = n - groups * 5;
  out.attacker_groups = groups;
  out.input.task_count = m;
  out.input.accounts.reserve(n);

  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> task_of(0, m - 1);
  std::uniform_int_distribution<std::size_t> schedule_len(4, 12);
  std::uniform_real_distribution<double> start_of(0.0, window_hours);
  std::uniform_real_distribution<double> gap(0.05, 0.3);
  std::normal_distribution<double> truth(-60.0, 5.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::uniform_real_distribution<double> clone_offset(0.0, 0.02);

  std::vector<double> task_truth(m);
  for (auto& t : task_truth) t = truth(rng);

  // One schedule: distinct tasks in visit order with increasing timestamps.
  const auto make_schedule = [&](std::vector<core::AccountObservation>* s) {
    const std::size_t len = schedule_len(rng);
    std::vector<std::uint32_t> tasks;
    while (tasks.size() < len) {
      const auto t = static_cast<std::uint32_t>(task_of(rng));
      if (std::find(tasks.begin(), tasks.end(), t) == tasks.end()) {
        tasks.push_back(t);
      }
    }
    double ts = start_of(rng);
    s->clear();
    for (const std::uint32_t t : tasks) {
      s->push_back({t, task_truth[t] + noise(rng), ts});
      ts += gap(rng);
    }
  };

  std::vector<core::AccountObservation> schedule;
  for (std::size_t i = 0; i < legit; ++i) {
    core::AccountTrace trace;
    trace.name = "u" + std::to_string(i);
    make_schedule(&schedule);
    trace.reports = schedule;
    out.input.accounts.push_back(std::move(trace));
  }
  for (std::size_t g = 0; g < groups; ++g) {
    make_schedule(&schedule);
    for (std::size_t c = 0; c < 5; ++c) {
      core::AccountTrace trace;
      trace.name = "a" + std::to_string(g) + "_" + std::to_string(c);
      trace.reports = schedule;
      // Replayed schedule, shifted by a per-clone constant: the task sets
      // stay identical and the timestamp DTW cost stays far below phi.
      const double shift = clone_offset(rng);
      for (auto& report : trace.reports) {
        report.timestamp_hours += shift;
        report.value = -50.0 + 0.5 * noise(rng);
      }
      out.input.accounts.push_back(std::move(trace));
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Pairwise recall of partition `got` against partition `want`: of the
// account pairs `want` groups together, the fraction `got` also groups
// together.  O(n) via the contingency table; 1.0 when `want` has no
// positive pairs.

double pair_recall(const std::vector<std::size_t>& want,
                   const std::vector<std::size_t>& got) {
  std::unordered_map<std::size_t, std::size_t> want_sizes;
  std::unordered_map<std::uint64_t, std::size_t> cell_sizes;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ++want_sizes[want[i]];
    ++cell_sizes[(static_cast<std::uint64_t>(want[i]) << 32) |
                 static_cast<std::uint32_t>(got[i])];
  }
  double positives = 0.0;
  for (const auto& [label, size] : want_sizes) {
    positives += 0.5 * static_cast<double>(size) *
                 static_cast<double>(size - 1);
  }
  if (positives == 0.0) return 1.0;
  double hits = 0.0;
  for (const auto& [cell, size] : cell_sizes) {
    hits += 0.5 * static_cast<double>(size) * static_cast<double>(size - 1);
  }
  return hits / positives;
}

// ---------------------------------------------------------------------------
// Exact AG-TS reference that never materializes the n x n matrix: per
// account a task bitset, then a popcount sweep over every pair straight
// into a union-find.  Same partition as core::AgTs's dense path, at a
// memory cost of n * m / 8 bytes instead of 8 n^2.

std::vector<std::size_t> agts_exact_labels(const core::FrameworkInput& input,
                                           double rho) {
  const std::size_t n = input.accounts.size();
  const std::size_t words = (input.task_count + 63) / 64;
  std::vector<std::uint64_t> bits(n * words, 0);
  std::vector<std::uint32_t> sizes(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& report : input.accounts[i].reports) {
      std::uint64_t& word = bits[i * words + report.task / 64];
      const std::uint64_t mask = 1uLL << (report.task % 64);
      if ((word & mask) == 0) {
        word |= mask;
        ++sizes[i];
      }
    }
  }
  graph::UnionFind uf(n);
  const auto m = static_cast<double>(input.task_count);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t* a = &bits[i * words];
    for (std::size_t j = i + 1; j < n; ++j) {
      const std::uint64_t* b = &bits[j * words];
      std::size_t both = 0;
      for (std::size_t w = 0; w < words; ++w) {
        both += static_cast<std::size_t>(__builtin_popcountll(a[w] & b[w]));
      }
      const std::size_t alone = sizes[i] + sizes[j] - 2 * both;
      const double t = static_cast<double>(both);
      const double l = static_cast<double>(alone);
      if ((t - 2.0 * l) * (t + l) / m > rho) uf.unite(i, j);
    }
  }
  return uf.labels();
}

// ---------------------------------------------------------------------------
// Exact AG-TR reference without blocking: every unordered pair goes through
// candidate::LbCascade — the lower-bound prefilter's exact decisions, then
// exact DTW on the survivors — and the edges D < phi feed a union-find.
// Edges are collected per row, so memory stays O(n + edges).

std::vector<std::size_t> agtr_all_pairs_labels(
    const core::FrameworkInput& input, double phi) {
  const std::size_t n = input.accounts.size();
  std::vector<std::vector<double>> xs(n), ys(n);
  std::vector<candidate::TrajectoryFingerprint> fps(n);
  for (std::size_t i = 0; i < n; ++i) {
    xs[i] = core::AgTr::task_series(input.accounts[i]);
    ys[i] = core::AgTr::timestamp_series(input.accounts[i]);
    fps[i].task = candidate::profile_of(xs[i]);
    fps[i].time = candidate::profile_of(ys[i]);
  }
  candidate::CascadeOptions options;
  options.phi = phi;
  const candidate::LbCascade cascade(xs, ys, fps, options);
  std::vector<std::vector<std::uint32_t>> row_edges(n);
  parallel_for(n, [&](std::size_t i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      double d = 0.0;
      if (cascade.evaluate(i, j, &d) == candidate::CascadeOutcome::kExact &&
          d < phi) {
        row_edges[i].push_back(static_cast<std::uint32_t>(j));
      }
    }
  });
  graph::UnionFind uf(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (const std::uint32_t j : row_edges[i]) uf.unite(i, j);
  }
  return uf.labels();
}

// ---------------------------------------------------------------------------
// Per-size measurements.

struct AgTrRun {
  double candidate_s = 0.0;
  double all_pairs_s = -1.0;  // < 0: baseline skipped
  double recall = -1.0;       // < 0: unmeasured (no baseline)
  core::AgTrStats stats;
};

struct AgTsRun {
  double sparse_s = 0.0;
  double exact_s = -1.0;
  double recall = -1.0;
  core::AgTsStats stats;
};

AgTrRun run_agtr(const core::FrameworkInput& input, bool with_baseline) {
  AgTrRun run;
  const core::AgTrOptions options;
  auto t0 = std::chrono::steady_clock::now();
  const auto cand = core::AgTr(options).group_with_stats(input, &run.stats);
  run.candidate_s = seconds_since(t0);
  if (!with_baseline) return run;

  t0 = std::chrono::steady_clock::now();
  const auto exact = agtr_all_pairs_labels(input, options.phi);
  run.all_pairs_s = seconds_since(t0);
  run.recall = pair_recall(exact, cand.labels());
  return run;
}

AgTsRun run_agts(const core::FrameworkInput& input, double rho,
                 bool with_baseline) {
  AgTsRun run;
  core::AgTsOptions sparse_opt;
  sparse_opt.rho = rho;
  auto t0 = std::chrono::steady_clock::now();
  const auto sparse =
      core::AgTs(sparse_opt).group_with_stats(input, &run.stats);
  run.sparse_s = seconds_since(t0);
  if (!with_baseline) return run;

  t0 = std::chrono::steady_clock::now();
  const auto exact = agts_exact_labels(input, rho);
  run.exact_s = seconds_since(t0);
  run.recall = pair_recall(exact, sparse.labels());
  return run;
}

std::string cell_or_dash(double v, int precision) {
  return v < 0 ? "-" : format_cell(v, precision);
}

// ---------------------------------------------------------------------------
// Modes.

// AG-TS edge threshold used throughout: rho = 0 keeps the paper's Eq. (6)
// rule "positive affinity" (intersection dominates symmetric difference),
// which is scale-free in m — a fixed positive rho would stop firing as the
// task count grows with n.
constexpr double kRho = 0.0;

int run_grouping(const std::vector<std::size_t>& sizes, bool json,
                 std::size_t all_pairs_cap) {
  if (!json) {
    std::printf("=== Extension: sub-quadratic grouping (10%% Sybil accounts "
                "in groups of 5, m = n/250 tasks) ===\n\n");
  }
  TextTable agtr_table({"accounts", "candidates s", "all-pairs s", "speedup",
                        "recall", "blocked %", "cascade-pruned %",
                        "exact DTW pairs"});
  TextTable agts_table({"accounts", "sparse s", "exact s", "speedup",
                        "recall", "collapsed", "verified pairs", "edges"});
  std::string benchmarks;  // JSON entries
  char buf[512];

  for (const std::size_t n : sizes) {
    const auto scenario = make_grouping_input(n, 20'000 + n);
    const auto& input = scenario.input;
    const bool baseline = n <= all_pairs_cap;
    const double pairs = 0.5 * static_cast<double>(n) *
                         static_cast<double>(n - 1);

    const AgTrRun tr = run_agtr(input, baseline);
    const double blocked_frac =
        static_cast<double>(tr.stats.blocked) / pairs;
    const double cascade_frac =
        static_cast<double>(tr.stats.lb_pruned + tr.stats.task_abandoned) /
        pairs;
    agtr_table.add_row(
        {std::to_string(n), format_cell(tr.candidate_s, 2),
         cell_or_dash(tr.all_pairs_s, 2),
         tr.all_pairs_s < 0
             ? "-"
             : format_cell(tr.all_pairs_s / tr.candidate_s, 1) + "x",
         cell_or_dash(tr.recall, 4), format_cell(100.0 * blocked_frac, 3),
         format_cell(100.0 * cascade_frac, 4),
         std::to_string(tr.stats.exact_pairs)});

    const AgTsRun ts = run_agts(input, kRho, baseline);
    agts_table.add_row(
        {std::to_string(n), format_cell(ts.sparse_s, 2),
         cell_or_dash(ts.exact_s, 2),
         ts.exact_s < 0 ? "-"
                        : format_cell(ts.exact_s / ts.sparse_s, 1) + "x",
         cell_or_dash(ts.recall, 4), std::to_string(ts.stats.join.collapsed),
         std::to_string(ts.stats.join.candidates),
         std::to_string(ts.stats.join.edges)});

    if (json) {
      std::snprintf(
          buf, sizeof buf,
          "    {\"name\": \"BM_AgTrCandidates/%zu\", \"run_type\": "
          "\"iteration\", \"real_time\": %.3f, \"cpu_time\": %.3f, "
          "\"time_unit\": \"ms\", \"recall\": %.6f, \"blocked_frac\": "
          "%.6f, \"cascade_pruned_frac\": %.6f, \"exact_dtw_pairs\": %zu},\n",
          n, 1e3 * tr.candidate_s, 1e3 * tr.candidate_s, tr.recall,
          blocked_frac, cascade_frac, tr.stats.exact_pairs);
      benchmarks += buf;
      if (tr.all_pairs_s >= 0) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"BM_AgTrAllPairs/%zu\", \"run_type\": "
                      "\"iteration\", \"real_time\": %.3f, \"cpu_time\": "
                      "%.3f, \"time_unit\": \"ms\"},\n",
                      n, 1e3 * tr.all_pairs_s, 1e3 * tr.all_pairs_s);
        benchmarks += buf;
      }
      std::snprintf(
          buf, sizeof buf,
          "    {\"name\": \"BM_AgTsSparse/%zu\", \"run_type\": "
          "\"iteration\", \"real_time\": %.3f, \"cpu_time\": %.3f, "
          "\"time_unit\": \"ms\", \"recall\": %.6f, \"collapsed\": %zu, "
          "\"verified_pairs\": %zu, \"edges\": %zu, \"exhaustive\": %s},\n",
          n, 1e3 * ts.sparse_s, 1e3 * ts.sparse_s, ts.recall,
          ts.stats.join.collapsed, ts.stats.join.candidates,
          ts.stats.join.edges, ts.stats.join.exhaustive ? "true" : "false");
      benchmarks += buf;
      if (ts.exact_s >= 0) {
        std::snprintf(buf, sizeof buf,
                      "    {\"name\": \"BM_AgTsExact/%zu\", \"run_type\": "
                      "\"iteration\", \"real_time\": %.3f, \"cpu_time\": "
                      "%.3f, \"time_unit\": \"ms\"},\n",
                      n, 1e3 * ts.exact_s, 1e3 * ts.exact_s);
        benchmarks += buf;
      }
    }
  }

  if (json) {
    if (!benchmarks.empty()) benchmarks.resize(benchmarks.size() - 2);
    std::printf("{\n  \"context\": {\"bench\": \"scalability --json\", "
                "\"rho\": %.1f},\n  \"benchmarks\": [\n%s\n  ]\n}\n",
                kRho, benchmarks.c_str());
    return 0;
  }
  std::printf("AG-TR: endpoint-grid blocking + lower-bound cascade vs "
              "the same cascade\nover all pairs.  Recall is pairwise "
              "against the exact grouping\n(1.0 expected: the candidate "
              "path is provably exact).\n\n%s\n",
              agtr_table.render().c_str());
  std::printf("AG-TS: signature collapse + MinHash set join vs an exact "
              "bitset-popcount\nsweep (rho = %.1f).\n\n%s",
              kRho, agts_table.render().c_str());
  return 0;
}

int run_smoke(std::size_t n) {
  std::printf("smoke: n = %zu\n", n);
  const auto scenario = make_grouping_input(n, 20'000 + n);
  const double pairs = 0.5 * static_cast<double>(n) *
                       static_cast<double>(n - 1);
  const AgTrRun tr = run_agtr(scenario.input, /*with_baseline=*/true);
  const double pruned_frac =
      static_cast<double>(tr.stats.blocked + tr.stats.lb_pruned +
                          tr.stats.task_abandoned) /
      pairs;
  std::printf("  agtr: %.2fs candidates vs %.2fs all-pairs, recall %.4f, "
              "%.2f%% of pairs pruned before exact DTW\n",
              tr.candidate_s, tr.all_pairs_s, tr.recall,
              100.0 * pruned_frac);
  const AgTsRun ts = run_agts(scenario.input, kRho, /*with_baseline=*/true);
  std::printf("  agts: %.2fs sparse vs %.2fs exact, recall %.4f, "
              "%zu pairs verified of %.0f\n",
              ts.sparse_s, ts.exact_s, ts.recall, ts.stats.join.candidates,
              pairs);
  bool ok = true;
  if (pruned_frac <= 0.9) {
    std::printf("FAIL: cascade pruned %.2f%% of AG-TR pairs (need > 90%%)\n",
                100.0 * pruned_frac);
    ok = false;
  }
  if (tr.recall < 1.0) {
    std::printf("FAIL: AG-TR candidate recall %.6f (the path is supposed "
                "to be exact)\n", tr.recall);
    ok = false;
  }
  if (ts.recall < 1.0) {
    std::printf("FAIL: AG-TS sparse recall %.6f (exhaustive tier expected "
                "at this scale)\n", ts.recall);
    ok = false;
  }
  std::printf("%s\n", ok ? "smoke OK" : "smoke FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "scalability [accounts...] [--json] [--smoke] [--all-pairs-cap N]";
  bench::handle_help(argc, argv, kUsage);
  bool json = false;
  bool smoke = false;
  std::size_t all_pairs_cap = 100'000;
  std::vector<std::size_t> sizes;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--all-pairs-cap") == 0 &&
               i + 1 < argc) {
      all_pairs_cap = bench::parse_count(argv[++i], kUsage);
    } else {
      sizes.push_back(bench::parse_count(argv[i], kUsage, 1));
    }
  }
  if (smoke) {
    return run_smoke(sizes.empty() ? 5000 : sizes[0]);
  }
  if (sizes.empty()) sizes = {10'000, 100'000};
  return run_grouping(sizes, json, all_pairs_cap);
}
