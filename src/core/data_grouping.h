// Data grouping: Eqs. (3) and (4) of the framework.
//
// For each task, the reports of each account group collapse into a single
// value, so a Sybil attacker's k duplicate submissions count once.
//
// Eq. (3) as printed,
//     d~ = sum_i (d_i - mean) d_i / sum_i (d_i - mean),
// has a denominator that is identically zero (deviations from the mean sum
// to zero), so it cannot be evaluated literally.  We read it as the
// intended robust intra-group aggregate and implement inverse-deviation
// weighting
//     w_i = 1 / (|d_i - mean| + eps),   d~ = sum w_i d_i / sum w_i,
// which (a) equals the arithmetic mean for symmetric or duplicated values —
// the Sybil case the paper designs for — and (b) leans toward the dense
// mass of the group when a member deviates, which matches the paper's
// stated intent that a mixed legit/Sybil group aggregates "close to the
// average" while suspicious outliers lose influence.  Plain mean and median
// modes are provided for the ablation bench.
//
// Eq. (4) gives each group's *initial* per-task weight
//     w~_k = 1 - |g_k| / |U_j|,
// down-weighting large groups (many accounts, one suspected user).  By
// default |g_k| counts only the group members who reported task j (the
// literal full-group count can exceed |U_j| and go negative; that literal
// mode is kept for the ablation).  Weights are floored at a small epsilon
// so a task covered by a single group still gets a defined initial truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "core/framework_input.h"
#include "core/grouping.h"

namespace sybiltd::core {

enum class GroupAggregate {
  kInverseDeviation,  // default: our reading of Eq. (3)
  kMean,
  kMedian,
  kTrimmedMean,  // drop trim_fraction from each tail
  kHuber,        // Huber M-estimator of location
};

struct DataGroupingOptions {
  GroupAggregate aggregate = GroupAggregate::kInverseDeviation;
  double deviation_epsilon = 1e-6;
  double trim_fraction = 0.2;   // for kTrimmedMean
  double huber_k = 1.345;       // for kHuber
  // Eq. (4): count only group members who reported the task (default) or
  // the literal full group size.
  bool size_from_task_participants = true;
  double weight_floor = 1e-3;
};

// The grouped view of a campaign: one compressed per-task table.
//
// Cell c of task j, for c in [task_offsets[j], task_offsets[j + 1]), is one
// group's presence on that task; the cells of a task are sorted by group
// ascending.  The per-cell fields are parallel arrays, so a task's values
// and group ids are contiguous slices the SIMD kernels read directly.
struct GroupedData {
  std::vector<std::size_t> task_offsets;      // n_tasks + 1 entries
  std::vector<std::uint32_t> groups;          // group id k
  std::vector<double> values;                 // d~_j^k from Eq. (3)
  std::vector<double> initial_weights;        // Eq. (4), seeds Eq. (5)
  std::vector<std::uint32_t> member_counts;   // members reporting task j
  // group_task_counts[k] = |T~_k|, the number of tasks group k covers.
  std::vector<std::uint32_t> group_task_counts;

  std::size_t task_count() const {
    return task_offsets.empty() ? 0 : task_offsets.size() - 1;
  }
  std::size_t group_count() const { return group_task_counts.size(); }
  std::size_t cell_count() const { return values.size(); }
  // Number of groups reporting task j.
  std::size_t task_size(std::size_t j) const {
    return task_offsets[j + 1] - task_offsets[j];
  }
};

// Aggregate values with the configured intra-group aggregator.
double aggregate_group_values(const std::vector<double>& values,
                              const DataGroupingOptions& options);

// Build the grouped view of the input under a grouping (Algorithm 2,
// lines 2–6).  Two stable counting sorts order every report by (task,
// group) — O(reports + tasks + groups) time and memory — and each run is
// one cell.  A cell's values keep account order, so every aggregate is
// the one the values of that (task, group) pair would give in isolation.
GroupedData group_data(const FrameworkInput& input,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options = {});

// The same build into an existing table, reusing its capacity.
void group_data(const FrameworkInput& input, const AccountGrouping& grouping,
                const DataGroupingOptions& options, GroupedData& out);

// The same build with a caller-supplied cell aggregate in place of
// options.aggregate; Eq. (4) still follows `options`.  The categorical
// framework passes its plurality label here.
using CellAggregate = std::function<double(std::span<const double>)>;
void group_data(const FrameworkInput& input, const AccountGrouping& grouping,
                const DataGroupingOptions& options,
                const CellAggregate& aggregate, GroupedData& out);

}  // namespace sybiltd::core
