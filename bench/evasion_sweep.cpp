// Extension bench: adversarial robustness of the grouping methods.
//
// A defense-aware Sybil attacker can diversify its accounts' timestamps
// (vs AG-TR), task sets (vs AG-TS), and values (vs weighting).  This sweep
// quantifies the trade-off the attacker faces: evasion lowers detection
// (grouping ARI) but also blunts the attack itself (the CRH damage it
// could do shrinks) and the framework's residual error stays bounded.
#include <cstdio>

#include "cli.h"
#include "common/table.h"
#include "eval/experiment.h"

using namespace sybiltd;

namespace {

struct Cell {
  double agts_ari = 0.0;
  double agtr_ari = 0.0;
  double crh_mae = 0.0;      // damage to the undefended platform
  double tdts_mae = 0.0;     // framework with AG-TS
  double tdtr_mae = 0.0;     // framework with AG-TR
  double tdfp_mae = 0.0;     // framework with AG-FP (hardware backstop)
};

Cell run_cell(const mcs::EvasionConfig& evasion, std::size_t seeds) {
  Cell cell;
  for (std::size_t s = 0; s < seeds; ++s) {
    auto config = mcs::make_paper_scenario(0.5, 0.8, 5100 + 67 * s);
    for (auto& attacker : config.attackers) attacker.evasion = evasion;
    const auto data = mcs::generate_scenario(config);
    cell.agts_ari +=
        eval::run_grouping(eval::GroupingMethod::kAgTs, data).ari;
    cell.agtr_ari +=
        eval::run_grouping(eval::GroupingMethod::kAgTr, data).ari;
    cell.crh_mae += eval::run_method(eval::Method::kCrh, data).mae;
    cell.tdts_mae += eval::run_method(eval::Method::kTdTs, data).mae;
    cell.tdtr_mae += eval::run_method(eval::Method::kTdTr, data).mae;
    cell.tdfp_mae += eval::run_method(eval::Method::kTdFp, data).mae;
  }
  const double inv = 1.0 / static_cast<double>(seeds);
  cell.agts_ari *= inv;
  cell.agtr_ari *= inv;
  cell.crh_mae *= inv;
  cell.tdts_mae *= inv;
  cell.tdtr_mae *= inv;
  cell.tdfp_mae *= inv;
  return cell;
}

void sweep(const char* title, const std::vector<double>& knob_values,
           mcs::EvasionConfig (*make)(double), std::size_t seeds) {
  std::printf("%s\n", title);
  TextTable table({"knob", "AG-TS ARI", "AG-TR ARI", "CRH MAE",
                   "TD-TS MAE", "TD-TR MAE", "TD-FP MAE"});
  for (double knob : knob_values) {
    const Cell cell = run_cell(make(knob), seeds);
    table.add_row(format_cell(knob, 2),
                  {cell.agts_ari, cell.agtr_ari, cell.crh_mae,
                   cell.tdts_mae, cell.tdtr_mae, cell.tdfp_mae},
                  3);
  }
  std::printf("%s\n", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "evasion_sweep [seeds]");
  std::printf("=== Extension: attacker evasion sweep (legit 0.5 / sybil "
              "0.8, %zu seeds) ===\n\n",
              seeds);

  sweep("1. timestamp jitter (seconds) — targets AG-TR",
        {0.0, 300.0, 900.0, 1800.0, 3600.0},
        [](double v) {
          mcs::EvasionConfig e;
          e.timestamp_jitter_s = v;
          return e;
        },
        seeds);

  sweep("2. task dropout (fraction) — targets AG-TS",
        {0.0, 0.2, 0.4, 0.6},
        [](double v) {
          mcs::EvasionConfig e;
          e.task_dropout = v;
          return e;
        },
        seeds);

  sweep("3. value jitter (dBm stddev) — targets weighting",
        {0.0, 2.0, 5.0, 10.0},
        [](double v) {
          mcs::EvasionConfig e;
          e.value_jitter = v;
          return e;
        },
        seeds);

  std::printf(
      "Reading (a robustness finding of this reproduction): the behavioral\n"
      "methods are evadable within the paper's threat model.  Timestamps\n"
      "cannot be *fabricated*, but a patient attacker can *delay* account\n"
      "switches; a few minutes of jitter reorders the submission sequences\n"
      "and AG-TR's ARI collapses while the attack stays fully effective\n"
      "(TD-TR MAE -> CRH MAE).  Task dropout likewise defeats AG-TS/AG-TR,\n"
      "at the real cost of attack coverage (CRH MAE shrinks with the knob).\n"
      "The hardware-based AG-FP is untouched by behavioral evasion: TD-FP\n"
      "MAE is flat across all three sweeps, making it the backstop and\n"
      "motivating the combined grouping of bench/ablation_combined.\n");
  return 0;
}
