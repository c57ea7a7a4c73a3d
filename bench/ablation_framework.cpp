// Ablation study of the framework's design choices (DESIGN.md §5):
//   1. Eq. (5) initialization vs plain-mean initialization.
//   2. Eq. (3) intra-group aggregate: inverse-deviation vs mean vs median.
//   3. Eq. (4) group-size source: task participants vs literal group size.
//   4. Account-level CRH vs the grouped framework vs the oracle grouping.
// Reported as MAE (dBm) averaged over seeds on the paper scenario.
#include <cstdio>

#include "cli.h"
#include "common/table.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "eval/metrics.h"

using namespace sybiltd;

namespace {

// Sections 1–3 use AG-FP's grouping: it is imperfect (same-model phones
// merge, so groups mix legitimate and Sybil accounts), which is exactly
// the regime where the Eq. (3)/(4)/(5) choices matter.  Under AG-TR's
// near-perfect grouping every variant collapses to the same answer.
double framework_mae(const mcs::ScenarioData& data,
                     const core::FrameworkOptions& options) {
  const auto input = eval::to_framework_input(data);
  const auto grouping = core::AgFp().group(input);
  const auto result = core::run_framework(input, grouping, options);
  return eval::mean_absolute_error(result.truths, data.ground_truths());
}

double averaged(double legit, double sybil, std::size_t seeds,
                const core::FrameworkOptions& options) {
  double total = 0.0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto data = mcs::generate_scenario(
        mcs::make_paper_scenario(legit, sybil, 7000 + 131 * s));
    total += framework_mae(data, options);
  }
  return total / static_cast<double>(seeds);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "ablation_framework [seeds]");
  std::printf("=== Ablation: framework design choices (MAE in dBm, "
              "AG-FP grouping for 1-3, %zu seeds) ===\n\n",
              seeds);

  const double grid[][2] = {{0.2, 0.6}, {0.5, 0.6}, {0.5, 1.0}, {1.0, 1.0}};

  // --- 1. Initialization -------------------------------------------------
  {
    TextTable table({"init", "L0.2/S0.6", "L0.5/S0.6", "L0.5/S1.0",
                     "L1.0/S1.0"});
    core::FrameworkOptions eq5, plain;
    plain.init_with_eq5 = false;
    std::vector<double> row_eq5, row_plain;
    for (const auto& g : grid) {
      row_eq5.push_back(averaged(g[0], g[1], seeds, eq5));
      row_plain.push_back(averaged(g[0], g[1], seeds, plain));
    }
    table.add_row("Eq. (5) size-weighted", row_eq5);
    table.add_row("plain mean of aggregates", row_plain);
    std::printf("1. initialization\n%s\n", table.render().c_str());
  }

  // --- 2. Intra-group aggregate (Eq. 3 reading) ---------------------------
  {
    TextTable table({"aggregate", "L0.2/S0.6", "L0.5/S0.6", "L0.5/S1.0",
                     "L1.0/S1.0"});
    for (auto [name, mode] :
         {std::pair{"inverse-deviation (ours)",
                    core::GroupAggregate::kInverseDeviation},
          std::pair{"mean", core::GroupAggregate::kMean},
          std::pair{"median", core::GroupAggregate::kMedian},
          std::pair{"trimmed mean (20%)",
                    core::GroupAggregate::kTrimmedMean},
          std::pair{"Huber M-estimator", core::GroupAggregate::kHuber}}) {
      core::FrameworkOptions opt;
      opt.data_grouping.aggregate = mode;
      std::vector<double> row;
      for (const auto& g : grid) row.push_back(averaged(g[0], g[1], seeds, opt));
      table.add_row(name, row);
    }
    std::printf("2. Eq. (3) intra-group aggregate\n%s\n",
                table.render().c_str());
  }

  // --- 3. Eq. (4) group size source ---------------------------------------
  {
    TextTable table({"group size", "L0.2/S0.6", "L0.5/S0.6", "L0.5/S1.0",
                     "L1.0/S1.0"});
    for (auto [name, participants] :
         {std::pair{"task participants (ours)", true},
          std::pair{"literal |g_k|", false}}) {
      core::FrameworkOptions opt;
      opt.data_grouping.size_from_task_participants = participants;
      std::vector<double> row;
      for (const auto& g : grid) row.push_back(averaged(g[0], g[1], seeds, opt));
      table.add_row(name, row);
    }
    std::printf("3. Eq. (4) group-size source\n%s\n", table.render().c_str());
  }

  // --- 4. Method comparison (CRH / framework / oracle / robust baselines) --
  {
    TextTable table({"method", "L0.2/S0.6", "L0.5/S0.6", "L0.5/S1.0",
                     "L1.0/S1.0"});
    for (eval::Method m : {eval::Method::kCrh, eval::Method::kMedian,
                           eval::Method::kCatd, eval::Method::kGtm,
                           eval::Method::kTruthFinder, eval::Method::kTdTr,
                           eval::Method::kTdOracle}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        double total = 0.0;
        for (std::size_t s = 0; s < seeds; ++s) {
          const auto data = mcs::generate_scenario(
              mcs::make_paper_scenario(g[0], g[1], 7000 + 131 * s));
          total += eval::run_method(m, data).mae;
        }
        row.push_back(total / static_cast<double>(seeds));
      }
      table.add_row(eval::method_name(m), row);
    }
    std::printf("4. aggregation methods under attack\n%s\n",
                table.render().c_str());
  }
  return 0;
}
