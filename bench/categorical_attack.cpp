// Extension bench: the Sybil attack on categorical crowdsensing (e.g.
// "is the parking lot full?" with L discrete states) and the categorical
// variant of the framework.  Sweeps the number of Sybil accounts and
// reports label accuracy for majority vote, categorical CRH, Dawid-Skene
// (all account-level, vulnerable) vs the framework with AG-TR grouping.
#include <cstdio>

#include "cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "core/ag_tr.h"
#include "core/categorical_framework.h"
#include "truth/categorical.h"

using namespace sybiltd;

namespace {

struct Campaign {
  core::FrameworkInput input;
  truth::CategoricalTable table;
  std::vector<std::size_t> truth;
};

constexpr std::size_t kTasks = 20;
constexpr std::size_t kLabels = 3;
constexpr std::size_t kHonest = 8;

Campaign make_campaign(std::size_t sybil_accounts, std::uint64_t seed) {
  Rng rng(seed);
  Campaign campaign{
      {}, truth::CategoricalTable(kHonest + sybil_accounts, kTasks, kLabels),
      {}};
  campaign.input.task_count = kTasks;
  campaign.truth.resize(kTasks);
  for (auto& t : campaign.truth) t = rng.uniform_index(kLabels);

  for (std::size_t i = 0; i < kHonest; ++i) {
    core::AccountTrace trace;
    trace.name = "H" + std::to_string(i);
    std::vector<std::size_t> order(kTasks);
    for (std::size_t j = 0; j < kTasks; ++j) order[j] = j;
    rng.shuffle(order);
    double ts = rng.uniform(8.0, 14.0);
    for (std::size_t j : order) {
      ts += rng.uniform(0.05, 0.2);
      std::size_t label = campaign.truth[j];
      if (!rng.bernoulli(0.85)) label = (label + 1) % kLabels;
      trace.reports.push_back({j, static_cast<double>(label), ts});
      campaign.table.add(i, j, label);
    }
    campaign.input.accounts.push_back(std::move(trace));
  }

  // The attacker walks once and replays from its accounts, always pushing
  // the label after the truth (a consistent lie).
  std::vector<double> visits;
  double ts = 15.0;
  for (std::size_t j = 0; j < kTasks; ++j) {
    ts += rng.uniform(0.05, 0.2);
    visits.push_back(ts);
  }
  for (std::size_t a = 0; a < sybil_accounts; ++a) {
    core::AccountTrace trace;
    trace.name = "S" + std::to_string(a);
    const double delay = static_cast<double>(a) * rng.uniform(0.01, 0.02);
    for (std::size_t j = 0; j < kTasks; ++j) {
      const std::size_t wrong = (campaign.truth[j] + 1) % kLabels;
      trace.reports.push_back(
          {j, static_cast<double>(wrong), visits[j] + delay});
      campaign.table.add(kHonest + a, j, wrong);
    }
    campaign.input.accounts.push_back(std::move(trace));
  }
  return campaign;
}

double label_accuracy(const std::vector<std::size_t>& estimated,
                      const std::vector<std::size_t>& truth) {
  std::size_t correct = 0;
  for (std::size_t j = 0; j < truth.size(); ++j) {
    if (estimated[j] == truth[j]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(truth.size());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "categorical_attack [seeds]");
  std::printf("=== Extension: Sybil attack on categorical tasks (%zu "
              "honest accounts, %zu tasks, %zu labels, %zu seeds) ===\n\n",
              kHonest, kTasks, kLabels, seeds);

  TextTable table({"sybil accounts", "MajorityVote", "CategoricalCRH",
                   "DawidSkene", "Framework(AG-TR)"});
  for (std::size_t sybil : {0ul, 3ul, 6ul, 9ul, 12ul}) {
    double mv = 0.0, crh = 0.0, ds = 0.0, fw = 0.0;
    for (std::size_t s = 0; s < seeds; ++s) {
      const auto campaign = make_campaign(sybil, 4400 + 97 * s);
      mv += label_accuracy(
          truth::MajorityVote().run(campaign.table).labels, campaign.truth);
      crh += label_accuracy(
          truth::CategoricalCrh().run(campaign.table).labels,
          campaign.truth);
      ds += label_accuracy(
          truth::DawidSkene().run(campaign.table).labels, campaign.truth);
      fw += label_accuracy(
          core::run_categorical_framework(campaign.input, kLabels,
                                          core::AgTr())
              .labels,
          campaign.truth);
    }
    const double inv = 1.0 / static_cast<double>(seeds);
    table.add_row(std::to_string(sybil),
                  {mv * inv, crh * inv, ds * inv, fw * inv}, 3);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: once the Sybil accounts outnumber the honest ones (>= 9\n"
      "vs 8), every account-level aggregator flips to the attacker's label\n"
      "on most tasks — the iterative ones (CRH, Dawid-Skene) flip *harder*\n"
      "than plain voting because the mutually-consistent Sybil accounts\n"
      "earn top weight.  The framework collapses them into one group and\n"
      "stays near the honest accuracy regardless of the account count.\n");
  return 0;
}
