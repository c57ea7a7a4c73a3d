#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const std::size_t rank = nearest_rank(samples.size(), q);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  out.reportable = out.beyond >= kMinBeyond;
  return out;
}

Percentile sliced_percentile(const std::vector<double>& in_order, double q,
                             std::size_t max_slices) {
  const std::size_t n = in_order.size();
  std::size_t k = max_slices;
  while (k > 1) {
    const std::size_t slice = n / k;
    if (slice > 0 && slice - nearest_rank(slice, q) >= kMinBeyond) break;
    --k;
  }
  if (k <= 1) return percentile(in_order, q);
  Percentile out;
  out.samples = n;
  out.reportable = true;
  out.beyond = n;
  std::vector<double> per_slice;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t begin = i * n / k;
    const std::size_t end = (i + 1) * n / k;
    const Percentile p = percentile(
        std::vector<double>(in_order.begin() + static_cast<std::ptrdiff_t>(begin),
                            in_order.begin() + static_cast<std::ptrdiff_t>(end)),
        q);
    per_slice.push_back(p.value);
    out.beyond = std::min(out.beyond, p.beyond);
  }
  out.value = trimmed_mean(per_slice);
  return out;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double trimmed_mean(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t trim = samples.size() >= 3 ? 1 : 0;
  double sum = 0.0;
  for (std::size_t i = trim; i + trim < samples.size(); ++i) sum += samples[i];
  return sum / static_cast<double>(samples.size() - 2 * trim);
}

double bucket_percentile(const std::vector<double>& edges,
                         const std::vector<double>& counts, double q) {
  double total = 0.0;
  for (const double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  const double rank = std::ceil(q * total - 1e-9);
  double seen = 0.0;
  for (std::size_t i = 0; i < edges.size() && i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) return edges[i];
  }
  return edges.empty() ? 0.0 : edges.back();
}

}  // namespace perfbench
