// Extension bench: temperature drift vs fingerprint stability.
//
// MEMS biases drift with temperature; if a Sybil attacker's sign-in
// captures happen at different ambient temperatures (morning vs noon,
// indoors vs outdoors), the same device's fingerprints drift apart and
// AG-FP's clustering degrades.  This sweep captures each device at
// temperatures drawn uniformly from 25 ± spread/2 °C and reports AG-FP
// grouping quality — quantifying how much of the fingerprint signal
// survives realistic thermal variation, and whether the temperature-
// insensitive features keep the method usable.
#include <cstdio>

#include "cli.h"
#include "common/rng.h"
#include "common/table.h"
#include "ml/clustering_metrics.h"
#include "ml/elbow.h"
#include "ml/kmeans.h"
#include "ml/preprocess.h"
#include "sensing/fingerprint.h"

using namespace sybiltd;

int main(int argc, char** argv) {
  const std::size_t seeds =
      bench::optional_count(argc, argv, 5, "ablation_temperature [seeds]");
  std::printf("=== Extension: fingerprint stability vs ambient temperature "
              "(8 devices x 5 captures, %zu seeds) ===\n\n",
              seeds);

  TextTable table({"temp spread (K)", "ARI @ true k", "ARI @ elbow k",
                   "mean elbow k"});
  for (double spread : {0.0, 2.0, 5.0, 10.0, 20.0}) {
    double ari_true = 0.0, ari_elbow = 0.0, mean_k = 0.0;
    for (std::size_t s = 0; s < seeds; ++s) {
      Rng rng(6100 + 71 * s);
      const auto& catalog = sensing::device_catalog();
      std::vector<std::vector<double>> fingerprints;
      std::vector<std::size_t> device_labels;
      const std::size_t n_devices = catalog.size();
      for (std::size_t d = 0; d < n_devices; ++d) {
        sensing::Device device(catalog[d], 900 + d);
        for (int c = 0; c < 5; ++c) {
          sensing::CaptureOptions capture;
          capture.ambient_temperature_c =
              25.0 + rng.uniform(-spread / 2.0, spread / 2.0);
          Rng r = rng.split();
          fingerprints.push_back(
              sensing::capture_fingerprint(device, capture, r));
          device_labels.push_back(d);
        }
      }
      const Matrix z = ml::standardize(Matrix::from_rows(fingerprints));
      const auto at_true = ml::kmeans(z, n_devices, {});
      ari_true += ml::adjusted_rand_index(at_true.labels, device_labels);
      const auto elbow = ml::elbow_select_k(z, {});
      mean_k += static_cast<double>(elbow.best_k);
      const auto at_elbow = ml::kmeans(z, elbow.best_k, {});
      ari_elbow += ml::adjusted_rand_index(at_elbow.labels, device_labels);
    }
    const double inv = 1.0 / static_cast<double>(seeds);
    table.add_row(format_cell(spread, 0),
                  {ari_true * inv, ari_elbow * inv, mean_k * inv}, 3);
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nReading: bias-derived features (means, RMS) drift with temperature"
      "\nwhile the spectral shape (noise floor, resonance location) does"
      "\nnot, so AG-FP degrades gracefully rather than collapsing.  A"
      "\nproduction deployment should either record ambient temperature"
      "\nwith each capture or restrict the fingerprint to the drift-"
      "\ninsensitive spectral features.\n");
  return 0;
}
