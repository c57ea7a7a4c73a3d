// Extension bench: combining the grouping methods — the paper's stated
// future work.  Compares each single method against AG-COMBO in meet
// (conservative intersection) and join (aggressive transitive union) modes,
// on both grouping quality (ARI, pairwise precision/recall) and end-to-end
// accuracy (framework MAE).
#include <cstdio>
#include <memory>

#include "cli.h"
#include "common/table.h"
#include "core/ag_combo.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "ml/clustering_metrics.h"

using namespace sybiltd;

namespace {

struct Candidate {
  std::string name;
  std::shared_ptr<core::AccountGrouper> grouper;
};

std::vector<Candidate> make_candidates() {
  auto fp = std::make_shared<core::AgFp>();
  auto ts = std::make_shared<core::AgTs>();
  auto tr = std::make_shared<core::AgTr>();
  std::vector<Candidate> out;
  out.push_back({"AG-FP", fp});
  out.push_back({"AG-TS", ts});
  out.push_back({"AG-TR", tr});
  out.push_back({"meet(FP,TR)", std::make_shared<core::AgCombo>(
                     std::vector<std::shared_ptr<core::AccountGrouper>>{fp, tr},
                     core::ComboMode::kMeet)});
  out.push_back({"join(FP,TR)", std::make_shared<core::AgCombo>(
                     std::vector<std::shared_ptr<core::AccountGrouper>>{fp, tr},
                     core::ComboMode::kJoin)});
  out.push_back({"meet(FP,TS,TR)",
                 std::make_shared<core::AgCombo>(
                     std::vector<std::shared_ptr<core::AccountGrouper>>{fp, ts,
                                                                        tr},
                     core::ComboMode::kMeet)});
  out.push_back({"join(FP,TS,TR)",
                 std::make_shared<core::AgCombo>(
                     std::vector<std::shared_ptr<core::AccountGrouper>>{fp, ts,
                                                                        tr},
                     core::ComboMode::kJoin)});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "ablation_combined [seeds]");
  std::printf("=== Extension: combined account grouping (paper future "
              "work; %zu seeds) ===\n\n",
              seeds);

  const double grid[][2] = {{0.5, 0.4}, {0.5, 0.8}, {1.0, 0.8}};
  const auto candidates = make_candidates();

  for (const auto& [legit, sybil] : grid) {
    std::printf("legit activeness %.1f, Sybil activeness %.1f\n", legit,
                sybil);
    TextTable table({"grouping", "ARI", "precision", "recall", "MAE"});
    for (const auto& candidate : candidates) {
      double ari = 0.0, precision = 0.0, recall = 0.0, mae = 0.0;
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto data = mcs::generate_scenario(
            mcs::make_paper_scenario(legit, sybil, 6200 + 173 * s));
        const auto input = eval::to_framework_input(data);
        const auto grouping = candidate.grouper->group(input);
        const auto truth_labels = data.true_user_labels();
        ari += ml::adjusted_rand_index(grouping.labels(), truth_labels);
        const auto scores =
            ml::pairwise_scores(grouping.labels(), truth_labels);
        precision += scores.precision;
        recall += scores.recall;
        const auto result = core::run_framework(input, grouping);
        mae += eval::mean_absolute_error(result.truths,
                                         data.ground_truths());
      }
      const double inv = 1.0 / static_cast<double>(seeds);
      table.add_row(candidate.name,
                    {ari * inv, precision * inv, recall * inv, mae * inv},
                    3);
    }
    std::printf("%s\n", table.render().c_str());
  }
  std::printf("Reading: meet() trades recall for precision (false-positive "
              "suppression);\njoin() the reverse.  Both should keep MAE at "
              "or below the best single method\nwhen the combined methods' "
              "errors are uncorrelated.\n");
  return 0;
}
