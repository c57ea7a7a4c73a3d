// Reproduces Fig. 6: ARI of the three account grouping methods against the
// true account->user mapping, in three settings of legitimate-user
// activeness (0.2, 0.5, 1.0), sweeping the Sybil attackers' activeness
// from 0.2 to 1.0.  Each point averages several scenario seeds.
//
// Shapes from the paper to verify:
//   * AG-TS and AG-TR rise with Sybil activeness (more tasks = more signal)
//   * AG-TR >= AG-TS (it also uses the timestamp pattern)
//   * AG-FP is the weakest and roughly flat in activeness (it only sees
//     fingerprints; the paper attributes its decline to same-model phones)
#include <cstdio>

#include "cli.h"
#include "common/table.h"
#include "eval/experiment.h"

using namespace sybiltd;

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "fig6_ari_comparison [seeds]");
  std::printf("=== Fig. 6: ARI of account grouping methods (%zu seeds per "
              "point) ===\n",
              seeds);

  const std::vector<double> sybil_activeness{0.2, 0.4, 0.6, 0.8, 1.0};
  const eval::GroupingMethod methods[] = {eval::GroupingMethod::kAgFp,
                                          eval::GroupingMethod::kAgTs,
                                          eval::GroupingMethod::kAgTr};
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
      const auto ari = eval::sweep_ari(method, legit_settings[s],
                                       sybil_activeness, seeds, 9000 + s);
      table.add_row(eval::grouping_method_name(method), ari, 3);
    }
    std::printf("%s", table.render().c_str());
  }

  std::printf("\nCSV (for plotting):\nlegit,sybil,method,ari,ari_std\n");
  for (double legit : legit_settings) {
    for (const auto method : methods) {
      const auto stats = eval::sweep_ari_stats(method, legit,
                                               sybil_activeness, seeds, 9000);
      for (std::size_t i = 0; i < sybil_activeness.size(); ++i) {
        std::printf("%.1f,%.1f,%s,%.4f,%.4f\n", legit, sybil_activeness[i],
                    eval::grouping_method_name(method).c_str(),
                    stats[i].mean, stats[i].stddev);
      }
    }
  }
  return 0;
}
