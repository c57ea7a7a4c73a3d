// Reproduces Fig. 7: MAE of CRH vs the Sybil-resistant framework with each
// grouping method (TD-FP, TD-TS, TD-TR), in three settings of legitimate
// activeness, sweeping the Sybil attackers' activeness — plus the oracle
// grouping as the framework's upper bound.
//
// Shapes from the paper to verify:
//   * every method's MAE decreases with legitimate activeness
//   * MAE increases with Sybil activeness
//   * CRH is the worst everywhere; TD-TR is the best (tracks the oracle)
//   * TD-TS wins in the diverse-task-set regimes; at legitimate
//     activeness 1 its grouping degenerates (identical task sets — the
//     regime the paper itself assigns to AG-TR; see EXPERIMENTS.md)
#include <cstdio>

#include "cli.h"
#include "common/table.h"
#include "eval/experiment.h"

using namespace sybiltd;

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "fig7_mae_comparison [seeds]");
  std::printf("=== Fig. 7: MAE of aggregation methods (%zu seeds per point, "
              "dBm) ===\n",
              seeds);

  const std::vector<double> sybil_activeness{0.2, 0.4, 0.6, 0.8, 1.0};
  const eval::Method methods[] = {eval::Method::kCrh, eval::Method::kTdFp,
                                  eval::Method::kTdTs, eval::Method::kTdTr,
                                  eval::Method::kTdOracle};
  const char* subplot[] = {"(a)", "(b)", "(c)"};
  const double legit_settings[] = {0.2, 0.5, 1.0};

  for (int s = 0; s < 3; ++s) {
    std::printf("\n%s legitimate accounts' activeness = %.1f\n", subplot[s],
                legit_settings[s]);
    std::vector<std::string> header{"method"};
    for (double a : sybil_activeness) {
      header.push_back("sybil " + format_cell(a, 1));
    }
    TextTable table(header);
    for (const auto method : methods) {
      const auto mae = eval::sweep_mae(method, legit_settings[s],
                                       sybil_activeness, seeds, 4000 + s);
      table.add_row(eval::method_name(method), mae, 2);
    }
    std::printf("%s", table.render().c_str());
  }

  std::printf("\nCSV (for plotting):\nlegit,sybil,method,mae,mae_std\n");
  for (double legit : legit_settings) {
    for (const auto method : methods) {
      const auto stats = eval::sweep_mae_stats(method, legit,
                                               sybil_activeness, seeds, 4000);
      for (std::size_t i = 0; i < sybil_activeness.size(); ++i) {
        std::printf("%.1f,%.1f,%s,%.4f,%.4f\n", legit, sybil_activeness[i],
                    eval::method_name(method).c_str(), stats[i].mean,
                    stats[i].stddev);
      }
    }
  }
  return 0;
}
