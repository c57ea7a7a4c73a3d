// Extension bench: how should AG-FP decide the number of devices?
// Compares the paper's elbow method against silhouette maximization, the
// gap statistic, and the k-free clustering backends (agglomerative
// threshold cut, DBSCAN) on fingerprint matrices from the paper scenario,
// reporting the estimated device count and the grouping ARI vs true
// devices and true users.
#include <cstdio>

#include "cli.h"
#include "common/table.h"
#include "core/ag_fp.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "ml/clustering_metrics.h"
#include "ml/elbow.h"
#include "ml/kselect.h"
#include "ml/preprocess.h"

using namespace sybiltd;

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "ablation_kselection [seeds]");
  std::printf("=== Extension: device-count estimation for AG-FP (%zu "
              "seeds; true devices = 11, distinguishable groups ~ "
              "models) ===\n\n",
              seeds);

  // --- k estimators on the raw fingerprint matrix --------------------------
  {
    TextTable table({"estimator", "mean k-hat", "ARI(device)", "ARI(user)"});
    struct Row {
      std::string name;
      double k_sum = 0.0, ari_dev = 0.0, ari_user = 0.0;
    };
    std::vector<Row> rows = {{"elbow curvature", 0, 0, 0},
                             {"elbow explained-variance", 0, 0, 0},
                             {"silhouette max", 0, 0, 0},
                             {"gap statistic", 0, 0, 0}};
    for (std::size_t s = 0; s < seeds; ++s) {
      const auto data = mcs::generate_scenario(
          mcs::make_paper_scenario(0.5, 0.5, 9300 + 311 * s));
      std::vector<std::vector<double>> fps;
      for (const auto& account : data.accounts) {
        fps.push_back(account.fingerprint);
      }
      const Matrix z = ml::standardize(Matrix::from_rows(fps));
      std::vector<std::size_t> khat(4);
      {
        ml::ElbowOptions opt;
        opt.method = ml::ElbowMethod::kCurvature;
        khat[0] = ml::elbow_select_k(z, opt).best_k;
        opt.method = ml::ElbowMethod::kExplainedVariance;
        khat[1] = ml::elbow_select_k(z, opt).best_k;
      }
      khat[2] = ml::select_k_silhouette(z, {}).best_k;
      {
        ml::GapOptions opt;
        opt.reference_sets = 6;
        khat[3] = ml::select_k_gap_statistic(z, opt).best_k;
      }
      for (std::size_t m = 0; m < rows.size(); ++m) {
        const auto run = ml::kmeans(z, khat[m], {});
        rows[m].k_sum += static_cast<double>(khat[m]);
        rows[m].ari_dev += ml::adjusted_rand_index(
            run.labels, data.true_device_labels());
        rows[m].ari_user += ml::adjusted_rand_index(
            run.labels, data.true_user_labels());
      }
    }
    const double inv = 1.0 / static_cast<double>(seeds);
    for (const auto& row : rows) {
      table.add_row(row.name, {row.k_sum * inv, row.ari_dev * inv,
                               row.ari_user * inv},
                    3);
    }
    std::printf("1. k estimators + k-means\n%s\n", table.render().c_str());
  }

  // --- full AG-FP backends (end-to-end grouping ARI) ------------------------
  {
    TextTable table({"AG-FP backend", "ARI(device)", "ARI(user)", "groups"});
    struct Backend {
      std::string name;
      core::AgFpOptions options;
    };
    std::vector<Backend> backends;
    backends.push_back({"k-means + elbow (paper)", {}});
    {
      core::AgFpOptions opt;
      opt.clustering = core::FpClustering::kAgglomerative;
      backends.push_back({"agglomerative cut", opt});
    }
    {
      core::AgFpOptions opt;
      opt.clustering = core::FpClustering::kDbscan;
      backends.push_back({"DBSCAN (auto eps)", opt});
    }
    for (const auto& backend : backends) {
      double ari_dev = 0.0, ari_user = 0.0, groups = 0.0;
      for (std::size_t s = 0; s < seeds; ++s) {
        const auto data = mcs::generate_scenario(
            mcs::make_paper_scenario(0.5, 0.5, 9300 + 311 * s));
        const auto input = eval::to_framework_input(data);
        const auto grouping = core::AgFp(backend.options).group(input);
        ari_dev += ml::adjusted_rand_index(grouping.labels(),
                                           data.true_device_labels());
        ari_user += ml::adjusted_rand_index(grouping.labels(),
                                            data.true_user_labels());
        groups += static_cast<double>(grouping.group_count());
      }
      const double inv = 1.0 / static_cast<double>(seeds);
      table.add_row(backend.name,
                    {ari_dev * inv, ari_user * inv, groups * inv}, 3);
    }
    std::printf("2. AG-FP clustering backends\n%s\n",
                table.render().c_str());
  }
  return 0;
}
