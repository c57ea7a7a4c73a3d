// Sample statistics for the benchmark's reported numbers.
//
// Percentiles use the nearest-rank definition: the q-th percentile of N
// samples is the value at rank ceil(q * N) of the sorted samples.  A
// percentile is only *reportable* when at least kMinBeyond samples lie
// beyond that rank, so a "p99" always rests on a real tail and never on
// the single slowest sample.
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinBeyond = 10;

struct Percentile {
  double value = 0.0;
  std::size_t samples = 0;  // N
  std::size_t beyond = 0;   // samples strictly past the rank
  bool reportable = false;  // beyond >= kMinBeyond
};

// Nearest-rank percentile, q in (0, 1].  Empty input gives an unreportable
// zero.
Percentile percentile(std::vector<double> samples, double q);

// Robust form for open-loop latencies: split the samples (in arrival
// order) into k contiguous slices and report the trimmed mean of the
// slices' q-th percentiles.  k is the largest value up to `max_slices`
// that keeps kMinBeyond samples beyond the rank in every slice, so each
// slice percentile is itself reportable.  A single stall (a descheduled
// generator or server thread) moves one slice, which the trim drops; a
// host that runs slower for part of the run moves the result in
// proportion to that part, where a median of the slices would jump
// between the fast and the slow value.  `samples` counts all of them.
Percentile sliced_percentile(const std::vector<double>& in_order, double q,
                             std::size_t max_slices = 10);

// Median of a non-empty sample (mean of the two middle values when even).
double median(std::vector<double> samples);

// Mean without the single highest and lowest value (plain mean below
// three values); zero for an empty sample.
double trimmed_mean(std::vector<double> samples);

// p99 read off a log2-bucket histogram delta: the upper edge of the bucket
// holding nearest rank ceil(0.99 * N).  `edges` ascending; `counts` are
// per-bucket (not cumulative).  Zero for an empty histogram.
double bucket_percentile(const std::vector<double>& edges,
                         const std::vector<double>& counts, double q);

}  // namespace perfbench
