// The DTW lower-bound cascade: cheapest-first staged filtering of one
// candidate pair, short-circuiting to "pruned" as soon as any stage's bound
// reaches phi.
//
// Stages, each a valid lower bound on D(i,j) = DTW(X) + DTW(Y) in
// accumulated-squared-cost (total-cost) mode:
//   1. endpoint (LB_Kim flavor)  — O(1): warping aligns first-with-first
//      and last-with-last, so the endpoint squared distances are a floor.
//   2. envelope (degenerate LB_Keogh) — O(len): each element aligns with
//      *something* in the other series, so its distance to [lo, hi] counts.
//      Taken per term as max(endpoint, envelope both directions).
//   3. strict LB_Keogh — O(len), only when a Sakoe-Chiba band is configured
//      and the pair has equal lengths (the bound's validity conditions).
//   4. exact banded DTW, task series first: the time term can only add, so
//      a task cost >= phi abandons the pair before the second DP.
//
// Because the bounds are monotone across stages (each stage takes a max
// with the previous), the cascade prunes a pair if and only if the single
// combined bound max(endpoint, envelope, LB_Keogh) reaches phi, and every
// surviving pair gets its exact D(i,j).  The staging only changes how early
// the cheap rejections exit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "candidate/features.h"
#include "dtw/dtw.h"

namespace sybiltd::candidate {

enum class CascadeOutcome : std::uint8_t {
  kEmptySeries = 0,    // one side has no reports; never an edge
  kEndpointPruned,     // stage 1 reached phi
  kEnvelopePruned,     // stage 2 reached phi
  kKeoghPruned,        // stage 3 reached phi
  kTaskAbandoned,      // task-series DTW alone reached phi
  kExact,              // both DTW terms evaluated; value returned
};

struct CascadeStats {
  std::size_t evaluated = 0;
  std::size_t empty_series = 0;
  std::size_t endpoint_pruned = 0;
  std::size_t envelope_pruned = 0;
  std::size_t keogh_pruned = 0;
  std::size_t task_abandoned = 0;
  std::size_t exact_pairs = 0;

  std::size_t lb_pruned() const {
    return endpoint_pruned + envelope_pruned + keogh_pruned;
  }
  void count(CascadeOutcome outcome);
};

struct CascadeOptions {
  double phi = 1.0;
  dtw::DtwOptions dtw;  // band forwarded to the exact DP and LB_Keogh
};

// Stateless evaluator over borrowed per-account series and fingerprints;
// safe to call concurrently from the thread pool.
class LbCascade {
 public:
  LbCascade(std::span<const std::vector<double>> task_series,
            std::span<const std::vector<double>> time_series,
            std::span<const TrajectoryFingerprint> fingerprints,
            const CascadeOptions& options)
      : xs_(task_series),
        ys_(time_series),
        fps_(fingerprints),
        options_(options) {}

  // Evaluate one pair.  On kExact, *dissimilarity holds the total D(i,j)
  // (which may itself still be >= phi — the caller applies the edge rule);
  // on every other outcome it is untouched.
  CascadeOutcome evaluate(std::size_t i, std::size_t j,
                          double* dissimilarity) const;

 private:
  std::span<const std::vector<double>> xs_;
  std::span<const std::vector<double>> ys_;
  std::span<const TrajectoryFingerprint> fps_;
  CascadeOptions options_;
};

}  // namespace sybiltd::candidate
