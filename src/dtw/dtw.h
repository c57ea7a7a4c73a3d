// Dynamic Time Warping (Berndt & Clifford 1994).
//
// AG-TR measures trajectory dissimilarity as the sum of DTW distances over
// an account's task-index series and timestamp series (Eq. 8).  The paper
// uses the Ratanamahatana–Keogh normalization (Eq. 7):
//     DTW(A, B) = sqrt( sum of squared distances along the optimal path / K )
// where K is the path length.  This file provides the full O(mn) dynamic
// program, an optional Sakoe–Chiba band constraint, warping-path recovery,
// a z-normalized variant, and the two lower bounds AG-TR prunes with.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace sybiltd::dtw {

struct DtwOptions {
  // Sakoe–Chiba band half-width; 0 means unconstrained.  With a band w,
  // cell (i, j) is admissible iff |i - j| <= max(w, |m - n|), which keeps
  // the corner-to-corner path feasible for unequal lengths.
  std::size_t band = 0;
};

struct DtwResult {
  // Normalized distance per Eq. (7): sqrt(total squared cost / path length).
  double distance = 0.0;
  // Total accumulated squared distance along the optimal path.
  double total_cost = 0.0;
  // Optimal warping path as (i, j) index pairs from (0,0) to (m-1,n-1).
  std::vector<std::pair<std::size_t, std::size_t>> path;
};

// Full DTW with path recovery.  Both series must be non-empty.
DtwResult dtw_full(std::span<const double> a, std::span<const double> b,
                   const DtwOptions& options = {});

// Distance only (no path materialization; O(min(m,n)) memory).
double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwOptions& options = {});

// Total accumulated squared cost only — the value dtw_full reports as
// total_cost, bit-identical, without materializing the path.  The cost
// recurrence is a pure min over exact values, so the result is the same
// at every SIMD dispatch level.
double dtw_total_cost(std::span<const double> a, std::span<const double> b,
                      const DtwOptions& options = {});

// DTW distance after z-normalizing both series (constant series map to 0).
double dtw_distance_znorm(std::span<const double> a,
                          std::span<const double> b,
                          const DtwOptions& options = {});

// Lower bounds on the total squared cost, used by AG-TR's candidate cascade
// (src/candidate/cascade.h) to skip exact DTW on clearly-dissimilar pairs.

// LB_Keogh (Keogh & Ratanamahatana 2005): a bound on the total squared cost
// of any band-constrained warping of `candidate` onto `query`.  Requires
// equal lengths; band is the Sakoe–Chiba half-width used for the bound's
// envelope.
double lb_keogh(std::span<const double> query,
                std::span<const double> candidate, std::size_t band);

// An unconditional bound on the unconstrained DTW total cost: every warping
// path aligns the first elements and the last elements, so
// (a0-b0)^2 + (a_end-b_end)^2 can never be beaten (for length >= 2 on
// either side; two singletons contribute the single alignment).
double endpoint_lower_bound(std::span<const double> a,
                            std::span<const double> b);

}  // namespace sybiltd::dtw
