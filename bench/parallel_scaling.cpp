// Parallel scaling of the pairwise kernels on the shared thread pool.
//
// Runs the three groupers and the end-to-end framework on one 200-account
// Attack-I scenario at 1/2/4/8 threads, reporting wall time, speedup over
// the single-threaded run, and the AG-TR prune rate (blocking plus
// cascade).  The single-threaded run takes the pool's serial fallback, so
// it doubles as the "no pool" baseline.
//
// Determinism gate: at every thread count the groupings must be *identical*
// to the serial labels and the framework truths must match to 1e-12 (they
// are bit-identical by construction — the parallel kernels write disjoint
// slots and every reduction folds serially in a fixed order).  Any mismatch
// makes the binary exit nonzero, so CI can run it as a check.
//
// Usage: parallel_scaling [legit_count] [--markdown | --json]
//   legit_count  scenario size knob (default 150 -> 200 accounts)
//   --markdown   emit the results as a GitHub table (docs/PERFORMANCE.md
//                is generated with `./build/bench/parallel_scaling
//                --markdown`)
//   --json       emit a google-benchmark-compatible JSON document (one
//                entry per kernel/thread-count pair, times in ms) that
//                bench/compare_bench.py can merge with the micro_benchmarks
//                output and diff against BENCH_baseline.json.  The
//                determinism gate still applies: a mismatch exits nonzero.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cli.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "mcs/scenario.h"

using namespace sybiltd;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 4, 8};
constexpr int kReps = 3;  // best-of, to damp scheduler noise

double best_ms(const std::function<void()>& body) {
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto start = std::chrono::steady_clock::now();
    body();
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (rep == 0 || ms < best) best = ms;
  }
  return best;
}

struct KernelRow {
  std::string name;
  double ms[std::size(kThreadCounts)] = {};
};

std::string format_speedup(double serial_ms, double ms) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.1f ms (%.2fx)", ms,
                ms > 0.0 ? serial_ms / ms : 0.0);
  return buffer;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage =
      "parallel_scaling [legit_count] [--markdown | --json]";
  bench::handle_help(argc, argv, kUsage);
  std::size_t legit = 150;
  bool markdown = false;
  bool json = false;
  for (int a = 1; a < argc; ++a) {
    if (std::strcmp(argv[a], "--markdown") == 0) {
      markdown = true;
    } else if (std::strcmp(argv[a], "--json") == 0) {
      json = true;
    } else {
      legit = bench::parse_count(argv[a], kUsage, 1);
    }
  }

  auto config = mcs::make_large_scenario(legit, legit / 15, 5, 40, 99);
  config.capture_fingerprints = true;  // so AG-FP has features to cluster
  const auto data = mcs::generate_scenario(config);
  const auto input = eval::to_framework_input(data);
  const std::size_t accounts = input.accounts.size();

  std::vector<KernelRow> rows = {
      {"AG-TR"}, {"AG-TS"}, {"AG-FP"}, {"framework (TD-TR)"}};
  core::AgTrStats tr_stats;

  // Serial reference outputs, captured at concurrency 1.
  std::vector<std::size_t> ref_tr, ref_ts, ref_fp;
  std::vector<double> ref_truths;

  bool identical = true;
  for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
    ThreadPool::set_global_concurrency(kThreadCounts[t]);

    core::AccountGrouping tr = core::AccountGrouping::singletons(0);
    core::AccountGrouping ts = core::AccountGrouping::singletons(0);
    core::AccountGrouping fp = core::AccountGrouping::singletons(0);
    std::vector<double> truths;

    rows[0].ms[t] = best_ms(
        [&] { tr = core::AgTr().group_with_stats(input, &tr_stats); });
    rows[1].ms[t] = best_ms([&] { ts = core::AgTs().group(input); });
    rows[2].ms[t] = best_ms([&] { fp = core::AgFp().group(input); });
    rows[3].ms[t] = best_ms(
        [&] { truths = core::run_framework(input, tr).truths; });

    if (t == 0) {
      ref_tr = tr.labels();
      ref_ts = ts.labels();
      ref_fp = fp.labels();
      ref_truths = truths;
    } else {
      identical = identical && tr.labels() == ref_tr &&
                  ts.labels() == ref_ts && fp.labels() == ref_fp &&
                  truths.size() == ref_truths.size();
      for (std::size_t j = 0; identical && j < truths.size(); ++j) {
        const double diff = truths[j] - ref_truths[j];
        identical = diff <= 1e-12 && diff >= -1e-12;
      }
    }
  }
  // Leave the pool the way SYBILTD_THREADS configured it.
  ThreadPool::set_global_concurrency(ThreadPool::configured_concurrency());

  const double prune_rate =
      tr_stats.pairs > 0
          ? static_cast<double>(tr_stats.blocked + tr_stats.lb_pruned +
                                tr_stats.task_abandoned) /
                static_cast<double>(tr_stats.pairs)
          : 0.0;

  if (json) {
    // google-benchmark JSON shape: one "iteration" entry per
    // kernel/thread-count pair, so compare_bench.py can treat this file
    // and the micro_benchmarks output uniformly.
    std::printf("{\n");
    std::printf("  \"context\": {\n");
    std::printf("    \"executable\": \"parallel_scaling\",\n");
    std::printf("    \"accounts\": %zu,\n", accounts);
    std::printf("    \"tasks\": %zu,\n", input.task_count);
    std::printf("    \"prune_rate\": %.6f,\n", prune_rate);
    std::printf("    \"deterministic\": %s\n", identical ? "true" : "false");
    std::printf("  },\n");
    std::printf("  \"benchmarks\": [\n");
    bool first = true;
    for (const auto& row : rows) {
      for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
        std::printf("%s    {\n", first ? "" : ",\n");
        first = false;
        std::printf("      \"name\": \"%s/threads:%zu\",\n", row.name.c_str(),
                    kThreadCounts[t]);
        std::printf("      \"run_type\": \"iteration\",\n");
        std::printf("      \"iterations\": %d,\n", kReps);
        std::printf("      \"real_time\": %.6f,\n", row.ms[t]);
        std::printf("      \"cpu_time\": %.6f,\n", row.ms[t]);
        std::printf("      \"time_unit\": \"ms\"\n");
        std::printf("    }");
      }
    }
    std::printf("\n  ]\n}\n");
    if (!identical) return 1;
    return 0;
  }

  if (markdown) {
    std::printf("| kernel | 1 thread | 2 threads | 4 threads | 8 threads "
                "|\n");
    std::printf("|---|---|---|---|---|\n");
    for (const auto& row : rows) {
      std::printf("| %s ", row.name.c_str());
      for (std::size_t t = 0; t < std::size(kThreadCounts); ++t) {
        std::printf("| %s ", format_speedup(row.ms[0], row.ms[t]).c_str());
      }
      std::printf("|\n");
    }
  } else {
    std::printf("=== Parallel scaling: %zu accounts, %zu tasks, hardware "
                "concurrency %u ===\n\n",
                accounts, input.task_count,
                std::thread::hardware_concurrency());
    TextTable table(
        {"kernel", "1 thread", "2 threads", "4 threads", "8 threads"});
    for (const auto& row : rows) {
      table.add_row({row.name, format_speedup(row.ms[0], row.ms[0]),
                     format_speedup(row.ms[0], row.ms[1]),
                     format_speedup(row.ms[0], row.ms[2]),
                     format_speedup(row.ms[0], row.ms[3])});
    }
    std::printf("%s", table.render().c_str());
  }
  std::printf("\nAG-TR pruning: of %zu pairs, %zu blocked by the endpoint "
              "grid, %zu excluded\nby the cascade's lower bounds, %zu more "
              "after the task-series DTW alone\n(prune rate %.1f%%; %zu "
              "exact pairs).\n",
              tr_stats.pairs, tr_stats.blocked, tr_stats.lb_pruned,
              tr_stats.task_abandoned, 100.0 * prune_rate,
              tr_stats.exact_pairs);
  std::printf("Determinism: groupings and truths at 2/4/8 threads %s the "
              "serial run.\n",
              identical ? "match" : "DO NOT match");
  if (!identical) return 1;
  return 0;
}
