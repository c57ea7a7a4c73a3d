// Ablation study of the grouping methods' knobs:
//   1. AG-TS threshold rho sweep.
//   2. AG-TR threshold phi sweep and DTW mode (total cost vs Eq. 7).
//   3. AG-TR Sakoe–Chiba band width.
//   4. AG-FP elbow method (curvature vs explained-variance) and fixed-k.
// Reported as mean ARI over seeds against the true account->user labels.
#include <cstdio>

#include <memory>

#include "cli.h"
#include "common/table.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "ml/clustering_metrics.h"

using namespace sybiltd;

namespace {

template <typename MakeGrouper>
double mean_ari(double legit, double sybil, std::size_t seeds,
                MakeGrouper make_grouper) {
  double total = 0.0;
  for (std::size_t s = 0; s < seeds; ++s) {
    const auto data = mcs::generate_scenario(
        mcs::make_paper_scenario(legit, sybil, 8100 + 211 * s));
    const auto input = eval::to_framework_input(data);
    const auto grouping = make_grouper()->group(input);
    total += ml::adjusted_rand_index(grouping.labels(),
                                     data.true_user_labels());
  }
  return total / static_cast<double>(seeds);
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "ablation_grouping [seeds]");
  std::printf("=== Ablation: grouping method knobs (mean ARI, %zu seeds) "
              "===\n\n",
              seeds);
  const double grid[][2] = {{0.5, 0.4}, {0.5, 0.8}, {1.0, 0.8}};
  const std::vector<std::string> header{"setting", "L0.5/S0.4", "L0.5/S0.8",
                                        "L1.0/S0.8"};

  // --- 1. AG-TS rho --------------------------------------------------------
  {
    TextTable table(header);
    for (double rho : {0.5, 1.0, 2.0, 4.0}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        row.push_back(mean_ari(g[0], g[1], seeds, [&] {
          core::AgTsOptions opt;
          opt.rho = rho;
          return std::make_unique<core::AgTs>(opt);
        }));
      }
      table.add_row("AG-TS rho=" + format_cell(rho, 1), row, 3);
    }
    std::printf("1. AG-TS affinity threshold\n%s\n", table.render().c_str());
  }

  // --- 2. AG-TR phi and DTW mode -------------------------------------------
  {
    TextTable table(header);
    for (double phi : {0.25, 0.5, 1.0, 2.0}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        row.push_back(mean_ari(g[0], g[1], seeds, [&] {
          core::AgTrOptions opt;
          opt.phi = phi;
          return std::make_unique<core::AgTr>(opt);
        }));
      }
      table.add_row("AG-TR phi=" + format_cell(phi, 2), row, 3);
    }
    for (double phi : {0.1, 0.3}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        row.push_back(mean_ari(g[0], g[1], seeds, [&] {
          core::AgTrOptions opt;
          opt.mode = core::DtwMode::kPathNormalized;
          opt.phi = phi;
          return std::make_unique<core::AgTr>(opt);
        }));
      }
      table.add_row("AG-TR Eq.(7) phi=" + format_cell(phi, 1), row, 3);
    }
    std::printf("2. AG-TR threshold and DTW normalization\n%s\n",
                table.render().c_str());
  }

  // --- 3. AG-TR band --------------------------------------------------------
  {
    TextTable table(header);
    for (std::size_t band : {0ul, 1ul, 2ul, 5ul}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        row.push_back(mean_ari(g[0], g[1], seeds, [&] {
          core::AgTrOptions opt;
          opt.dtw.band = band;
          return std::make_unique<core::AgTr>(opt);
        }));
      }
      table.add_row(band == 0 ? "AG-TR band=off"
                              : "AG-TR band=" + std::to_string(band),
                    row, 3);
    }
    std::printf("3. AG-TR Sakoe-Chiba band\n%s\n", table.render().c_str());
  }

  // --- 4. AG-FP k selection --------------------------------------------------
  {
    TextTable table(header);
    for (auto [name, method] :
         {std::pair{"AG-FP elbow=expl.var (ours)",
                    ml::ElbowMethod::kExplainedVariance},
          std::pair{"AG-FP elbow=curvature", ml::ElbowMethod::kCurvature}}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        row.push_back(mean_ari(g[0], g[1], seeds, [&] {
          core::AgFpOptions opt;
          opt.elbow.method = method;
          return std::make_unique<core::AgFp>(opt);
        }));
      }
      table.add_row(name, row, 3);
    }
    for (std::size_t k : {8ul, 11ul}) {
      std::vector<double> row;
      for (const auto& g : grid) {
        row.push_back(mean_ari(g[0], g[1], seeds, [&] {
          core::AgFpOptions opt;
          opt.fixed_k = k;
          return std::make_unique<core::AgFp>(opt);
        }));
      }
      table.add_row("AG-FP fixed k=" + std::to_string(k), row, 3);
    }
    std::printf("4. AG-FP cluster-count selection\n%s\n",
                table.render().c_str());
  }
  return 0;
}
