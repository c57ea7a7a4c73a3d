// Extension bench: incentive-based user selection vs grouping false
// positives — quantifying the paper's Section IV-C remark that similar
// legitimate users are unlikely to BOTH be selected by a marginal-
// contribution incentive mechanism, which alleviates AG-TS/AG-TR false
// positives.
//
// Campaign: 4 pairs of "twin" legitimate users (shared home, start time,
// full activeness — the worst case for AG-TR) plus one Attack-I attacker.
// We compare grouping quality and framework MAE with and without the
// budgeted reverse-auction selection stage.
#include <cstdio>

#include "cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/ag_tr.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "incentive/selection.h"
#include "ml/clustering_metrics.h"

using namespace sybiltd;

namespace {

mcs::ScenarioData build_twin_campaign(std::uint64_t seed) {
  mcs::ScenarioConfig config;
  config.task_count = 10;
  config.seed = seed;
  Rng rng(seed);
  const char* models[] = {"iPhone 6", "iPhone 7", "Nexus 5", "LG G5",
                          "iPhone X", "Nexus 6P", "iPhone SE", "iPhone 6S"};
  for (int pair = 0; pair < 4; ++pair) {
    const mcs::Point home{rng.uniform(50.0, 450.0),
                          rng.uniform(50.0, 450.0)};
    const double start = rng.uniform(0.0, 3600.0);
    for (int twin = 0; twin < 2; ++twin) {
      mcs::LegitimateUserConfig user;
      user.activeness = 1.0;
      user.noise_stddev = rng.uniform(1.5, 3.0);
      user.device_model = models[2 * pair + twin];
      user.home = home;
      user.start_time_s = start;
      config.legit_users.push_back(std::move(user));
    }
  }
  mcs::AttackerConfig attacker;
  attacker.type = mcs::AttackType::kSingleDevice;
  attacker.account_count = 5;
  attacker.device_models = {"iPhone 6S"};
  attacker.activeness = 0.8;
  config.attackers.push_back(std::move(attacker));
  return mcs::generate_scenario(config);
}

struct Row {
  double ari = 0.0;
  double precision = 0.0;
  double recall = 0.0;
  double fp_pairs = 0.0;
  double mae = 0.0;
  double accounts = 0.0;
  double sybil_accounts = 0.0;
};

Row evaluate(const mcs::ScenarioData& campaign) {
  Row row;
  for (const auto& account : campaign.accounts) {
    if (account.is_sybil) row.sybil_accounts += 1.0;
  }
  const auto input = eval::to_framework_input(campaign);
  const auto grouping = core::AgTr().group(input);
  const auto truth = campaign.true_user_labels();
  row.ari = ml::adjusted_rand_index(grouping.labels(), truth);
  const auto scores = ml::pairwise_scores(grouping.labels(), truth);
  row.precision = scores.precision;
  row.recall = scores.recall;
  for (std::size_t i = 0; i < campaign.accounts.size(); ++i) {
    for (std::size_t j = i + 1; j < campaign.accounts.size(); ++j) {
      if (grouping.group_of(i) == grouping.group_of(j) &&
          truth[i] != truth[j]) {
        row.fp_pairs += 1.0;
      }
    }
  }
  const auto result = core::run_framework(input, grouping);
  row.mae = eval::mean_absolute_error(result.truths,
                                      campaign.ground_truths());
  row.accounts = static_cast<double>(campaign.accounts.size());
  return row;
}

void accumulate(Row& into, const Row& from) {
  into.ari += from.ari;
  into.precision += from.precision;
  into.recall += from.recall;
  into.fp_pairs += from.fp_pairs;
  into.mae += from.mae;
  into.accounts += from.accounts;
  into.sybil_accounts += from.sybil_accounts;
}

void emit(TextTable& table, const char* label, Row row, std::size_t seeds) {
  const double inv = 1.0 / static_cast<double>(seeds);
  table.add_row(label,
                {row.accounts * inv, row.sybil_accounts * inv, row.ari * inv,
                 row.precision * inv, row.recall * inv, row.fp_pairs * inv,
                 row.mae * inv},
                3);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "ablation_incentive [seeds]");
  std::printf("=== Extension: incentive selection vs grouping false "
              "positives (twin campaign, AG-TR, %zu seeds) ===\n\n",
              seeds);

  Row without{}, with_selection{};
  double payment_total = 0.0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto campaign = build_twin_campaign(2500 + 41 * s);
    accumulate(without, evaluate(campaign));

    incentive::SelectionConfig selection;
    selection.auction.budget = 14.0;
    selection.auction.coverage_decay = 0.2;
    selection.seed = 3000 + s;
    const auto outcome = incentive::select_participants(campaign, selection);
    accumulate(with_selection, evaluate(outcome.campaign));
    payment_total += outcome.auction.total_payment;
  }

  TextTable table({"pipeline", "accounts", "sybil", "ARI", "precision",
                   "recall", "FP pairs", "MAE"});
  emit(table, "all volunteers", without, seeds);
  emit(table, "auction-selected", with_selection, seeds);
  std::printf("%s", table.render().c_str());
  std::printf("\nmean total payment under critical-value pricing: %.2f "
              "(budget 14.0; critical payments may exceed the cost budget "
              "— standard for greedy budgeted auctions)\n",
              payment_total / static_cast<double>(seeds));
  std::printf(
      "\nReading: without selection, each twin pair is a false-positive\n"
      "component for AG-TR (twins share routes and schedules), 4+ FP pairs\n"
      "per run.  The marginal-contribution auction rarely selects both\n"
      "twins, so FP pairs collapse.  A second effect the paper's related\n"
      "work predicts (Lin et al., INFOCOM'17): the attacker's duplicate\n"
      "accounts are mutually redundant too, so most Sybil accounts are not\n"
      "selected either — the incentive stage deters Sybil duplication\n"
      "before truth discovery even runs.  ARI on the small selected subset\n"
      "is noisy; the FP-pair and Sybil-account columns carry the signal.\n");
  return 0;
}
