#include "core/categorical_framework.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/data_grouping.h"
#include "truth/categorical.h"

namespace sybiltd::core {

namespace {

using truth::kNoLabel;

std::size_t to_label(double value, std::size_t label_count) {
  const double rounded = std::round(value);
  SYBILTD_CHECK(std::abs(value - rounded) < 1e-9 && rounded >= 0.0 &&
                    rounded < static_cast<double>(label_count),
                "categorical report value is not a valid label id");
  return static_cast<std::size_t>(rounded);
}

}  // namespace

CategoricalFrameworkResult run_categorical_framework(
    const FrameworkInput& input, std::size_t label_count,
    const AccountGrouping& grouping,
    const CategoricalFrameworkOptions& options) {
  SYBILTD_CHECK(label_count >= 2, "need at least two labels");
  const std::size_t n_tasks = input.task_count;
  const std::size_t n_groups = grouping.group_count();

  CategoricalFrameworkResult result;
  result.grouping = grouping;
  result.labels.assign(n_tasks, kNoLabel);
  result.group_weights.assign(n_groups, 1.0);

  // --- data grouping: the numeric framework's table, one cell per
  // (task, group) holding the group's plurality label (ties to the lowest
  // label) and the Eq. (4) weight over the members who voted --------------
  std::vector<double> votes(label_count);
  const CellAggregate plurality = [&](std::span<const double> values) {
    std::fill(votes.begin(), votes.end(), 0.0);
    for (double v : values) votes[to_label(v, label_count)] += 1.0;
    std::size_t best = 0;
    for (std::size_t l = 0; l < label_count; ++l) {
      if (votes[l] > votes[best]) best = l;
    }
    return static_cast<double>(best);
  };
  DataGroupingOptions eq4;
  eq4.size_from_task_participants = true;
  eq4.weight_floor = options.weight_floor;
  GroupedData grouped;
  group_data(input, grouping, eq4, plurality, grouped);
  const auto label_of = [&](std::size_t c) {
    return static_cast<std::size_t>(grouped.values[c]);
  };

  // --- initialization: Eq. (4)-weighted plurality over groups -------------
  std::vector<double> tally(label_count);
  for (std::size_t j = 0; j < n_tasks; ++j) {
    if (grouped.task_size(j) == 0) continue;
    std::fill(tally.begin(), tally.end(), 0.0);
    for (std::size_t c = grouped.task_offsets[j];
         c < grouped.task_offsets[j + 1]; ++c) {
      tally[label_of(c)] +=
          options.init_with_eq4 ? grouped.initial_weights[c] : 1.0;
    }
    result.labels[j] = static_cast<std::size_t>(
        std::max_element(tally.begin(), tally.end()) - tally.begin());
  }

  // --- iterations -----------------------------------------------------------
  std::vector<double> errors(n_groups);
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    // Group weights from 0/1 losses of the group aggregates.
    std::fill(errors.begin(), errors.end(), 0.0);
    double total = 0.0;
    for (std::size_t j = 0; j < n_tasks; ++j) {
      if (result.labels[j] == kNoLabel) continue;
      for (std::size_t c = grouped.task_offsets[j];
           c < grouped.task_offsets[j + 1]; ++c) {
        if (label_of(c) != result.labels[j]) errors[grouped.groups[c]] += 1.0;
      }
    }
    for (std::size_t k = 0; k < n_groups; ++k) {
      if (grouped.group_task_counts[k] == 0) continue;
      errors[k] = std::max(errors[k], options.error_epsilon);
      total += errors[k];
    }
    for (std::size_t k = 0; k < n_groups; ++k) {
      if (grouped.group_task_counts[k] == 0) {
        result.group_weights[k] = 0.0;
      } else {
        result.group_weights[k] = std::log(total / errors[k]);
        if (result.group_weights[k] <= 0.0) result.group_weights[k] = 1.0;
      }
    }
    // Weighted plurality over groups.
    bool changed = false;
    for (std::size_t j = 0; j < n_tasks; ++j) {
      if (grouped.task_size(j) == 0) continue;
      std::fill(tally.begin(), tally.end(), 0.0);
      for (std::size_t c = grouped.task_offsets[j];
           c < grouped.task_offsets[j + 1]; ++c) {
        tally[label_of(c)] += result.group_weights[grouped.groups[c]];
      }
      const auto next = static_cast<std::size_t>(
          std::max_element(tally.begin(), tally.end()) - tally.begin());
      if (next != result.labels[j]) changed = true;
      result.labels[j] = next;
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  return result;
}

CategoricalFrameworkResult run_categorical_framework(
    const FrameworkInput& input, std::size_t label_count,
    const AccountGrouper& grouper,
    const CategoricalFrameworkOptions& options) {
  return run_categorical_framework(input, label_count, grouper.group(input),
                                   options);
}

}  // namespace sybiltd::core
