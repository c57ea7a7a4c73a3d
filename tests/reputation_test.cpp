// Tests for the cross-campaign reputation ledger and reputation-weighted
// CRH.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "eval/metrics.h"
#include "reputation/ledger.h"

namespace sybiltd::reputation {
namespace {

TEST(Ledger, NewcomersStartAtInitial) {
  ReputationLedger ledger;
  EXPECT_FALSE(ledger.known("alice"));
  EXPECT_NEAR(ledger.get("alice"), 0.2, 1e-12);
  EXPECT_EQ(ledger.size(), 0u);
}

TEST(Ledger, EwmaConvergesTowardScores) {
  LedgerOptions opt;
  opt.ewma_alpha = 0.5;
  ReputationLedger ledger(opt);
  for (int i = 0; i < 20; ++i) ledger.update("good", 1.0);
  for (int i = 0; i < 20; ++i) ledger.update("bad", 0.0);
  EXPECT_GT(ledger.get("good"), 0.99);
  EXPECT_LE(ledger.get("bad"), opt.floor + 1e-12);
  EXPECT_GE(ledger.get("bad"), opt.floor);  // never hits zero
}

TEST(Ledger, ValidatesInput) {
  ReputationLedger ledger;
  EXPECT_THROW(ledger.update("x", 1.5), std::invalid_argument);
  EXPECT_THROW(ledger.update("x", -0.1), std::invalid_argument);
  EXPECT_THROW(ledger.update_campaign({"a"}, {0.1, 0.2}),
               std::invalid_argument);
  LedgerOptions bad;
  bad.ewma_alpha = 0.0;
  EXPECT_THROW(ReputationLedger{bad}, std::invalid_argument);
}

TEST(Ledger, NormalizeScores) {
  const auto scores = normalize_scores({2.0, 4.0, 0.0});
  EXPECT_NEAR(scores[0], 0.5, 1e-12);
  EXPECT_NEAR(scores[1], 1.0, 1e-12);
  EXPECT_NEAR(scores[2], 0.0, 1e-12);
  const auto zero = normalize_scores({0.0, 0.0});
  EXPECT_EQ(zero[0], 0.0);
  EXPECT_THROW(normalize_scores({-1.0}), std::invalid_argument);
}

// A repeating campaign: persistent honest accounts, fresh Sybil accounts
// each round (the attacker abandons flagged accounts).
TEST(ReputationCrh, SybilInfluenceDecaysAcrossCampaigns) {
  Rng rng(3);
  const std::size_t honest = 6, sybil = 8, tasks = 8;
  ReputationLedger ledger;

  double first_mae = 0.0, last_mae = 0.0;
  const int campaigns = 6;
  for (int campaign = 0; campaign < campaigns; ++campaign) {
    std::vector<double> truths(tasks);
    for (auto& t : truths) t = rng.uniform(-90.0, -50.0);
    truth::ObservationTable table(honest + sybil, tasks);
    std::vector<std::string> identities;
    for (std::size_t i = 0; i < honest; ++i) {
      identities.push_back("user-" + std::to_string(i));  // persistent
      for (std::size_t j = 0; j < tasks; ++j) {
        table.add(i, j, truths[j] + rng.normal(0.0, 1.5));
      }
    }
    for (std::size_t s = 0; s < sybil; ++s) {
      // Fresh account name every campaign.
      identities.push_back("sybil-c" + std::to_string(campaign) + "-" +
                           std::to_string(s));
      for (std::size_t j = 0; j < tasks; ++j) {
        table.add(honest + s, j, -50.0 + rng.normal(0.0, 0.3));
      }
    }
    const ReputationWeightedCrh algo(ledger, identities);
    const auto result = algo.run(table);
    const double mae = eval::mean_absolute_error(result.truths, truths);
    if (campaign == 0) first_mae = mae;
    if (campaign == campaigns - 1) last_mae = mae;
    ledger.update_campaign(identities,
                           normalize_scores(result.account_weights));
  }
  // Honest accounts build standing; fresh Sybil accounts keep starting at
  // the newcomer reputation, so accuracy improves over campaigns.
  EXPECT_LT(last_mae, first_mae * 0.6);
  // Residual influence remains (the reputation floor keeps newcomers from
  // being silenced entirely), but the attack is strongly damped.
  EXPECT_LT(last_mae, 6.0);
}

TEST(ReputationCrh, MatchesPlainCrhWithUniformReputation) {
  // With every identity at the same reputation, damping cancels in the
  // weighted mean, so estimates track plain CRH closely.
  Rng rng(4);
  const std::size_t accounts = 5, tasks = 6;
  truth::ObservationTable table(accounts, tasks);
  std::vector<std::string> identities;
  std::vector<double> truths(tasks);
  for (auto& t : truths) t = rng.uniform(-90, -50);
  for (std::size_t i = 0; i < accounts; ++i) {
    identities.push_back("u" + std::to_string(i));
    for (std::size_t j = 0; j < tasks; ++j) {
      table.add(i, j, truths[j] + rng.normal(0.0, 2.0));
    }
  }
  ReputationLedger ledger;  // everyone unknown -> same initial value
  const auto rep = ReputationWeightedCrh(ledger, identities).run(table);
  const auto plain = truth::Crh().run(table);
  for (std::size_t j = 0; j < tasks; ++j) {
    EXPECT_NEAR(rep.truths[j], plain.truths[j], 0.5);
  }
}

TEST(ReputationCrh, ValidatesIdentityCount) {
  truth::ObservationTable table(2, 1);
  table.add(0, 0, 1.0);
  ReputationLedger ledger;
  const ReputationWeightedCrh algo(ledger, {"only-one"});
  EXPECT_THROW(algo.run(table), std::invalid_argument);
}

}  // namespace
}  // namespace sybiltd::reputation
