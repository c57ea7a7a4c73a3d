#include "core/data_grouping.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/stats.h"

namespace sybiltd::core {

namespace {

double aggregate_values(std::span<const double> values,
                        const DataGroupingOptions& options) {
  SYBILTD_CHECK(!values.empty(), "aggregating an empty group");
  switch (options.aggregate) {
    case GroupAggregate::kMean:
      return mean(values);
    case GroupAggregate::kMedian:
      return median(values);
    case GroupAggregate::kTrimmedMean:
      return trimmed_mean(values, options.trim_fraction);
    case GroupAggregate::kHuber:
      return huber_location(values, options.huber_k);
    case GroupAggregate::kInverseDeviation: {
      const double mu = mean(values);
      double num = 0.0, den = 0.0;
      for (double v : values) {
        const double w = 1.0 / (std::abs(v - mu) + options.deviation_epsilon);
        num += w * v;
        den += w;
      }
      return num / den;
    }
  }
  SYBILTD_ASSERT(false);
  return 0.0;
}

// Fill `out` from the input's reports; `aggregate` maps the values of one
// (task, group) cell, in account order, to the cell's value.
template <typename Aggregate>
void build_table(const FrameworkInput& input, const AccountGrouping& grouping,
                 const DataGroupingOptions& options,
                 const Aggregate& aggregate, GroupedData& out) {
  SYBILTD_CHECK(grouping.account_count() == input.accounts.size(),
                "grouping does not match the input accounts");
  const std::size_t n_tasks = input.task_count;
  const std::size_t n_groups = grouping.group_count();
  const std::size_t n_accounts = input.accounts.size();
  // Group and account ids are stored as 32 bits (groups <= accounts).
  SYBILTD_CHECK(n_accounts <= std::numeric_limits<std::uint32_t>::max(),
                "too many accounts for 32-bit ids");

  // Sort 1, stable by group.  Every report of an account carries the
  // account's group, so ordering the accounts orders their reports.  One
  // cursor array serves as the write position of both sorts.
  std::vector<std::size_t> cursor(std::max(n_groups, n_tasks) + 1, 0);
  for (std::size_t i = 0; i < n_accounts; ++i) {
    ++cursor[grouping.group_of(i) + 1];
  }
  for (std::size_t k = 0; k < n_groups; ++k) cursor[k + 1] += cursor[k];
  std::vector<std::uint32_t> accounts_by_group(n_accounts);
  for (std::size_t i = 0; i < n_accounts; ++i) {
    accounts_by_group[cursor[grouping.group_of(i)]++] =
        static_cast<std::uint32_t>(i);
  }

  // Sort 2, stable by task: |U_j| reports land in [task_start[j],
  // task_start[j + 1]), by group and then by account within the task.
  std::vector<std::size_t> task_start(n_tasks + 1, 0);
  for (const AccountTrace& trace : input.accounts) {
    for (const AccountObservation& report : trace.reports) {
      SYBILTD_CHECK(report.task < n_tasks, "report task out of range");
      ++task_start[report.task + 1];
    }
  }
  for (std::size_t j = 0; j < n_tasks; ++j) task_start[j + 1] += task_start[j];
  const std::size_t n_reports = task_start[n_tasks];
  std::copy(task_start.begin(), task_start.end() - 1, cursor.begin());
  std::vector<std::uint32_t> report_group(n_reports);
  std::vector<double> report_value(n_reports);
  for (const std::uint32_t i : accounts_by_group) {
    const auto k = static_cast<std::uint32_t>(grouping.group_of(i));
    for (const AccountObservation& report : input.accounts[i].reports) {
      const std::size_t at = cursor[report.task]++;
      report_group[at] = k;
      report_value[at] = report.value;
    }
  }

  // One cell per (task, group) run: Eq. (3) aggregate, Eq. (4) weight.
  out.task_offsets.assign(n_tasks + 1, 0);
  out.groups.clear();
  out.values.clear();
  out.initial_weights.clear();
  out.member_counts.clear();
  out.group_task_counts.assign(n_groups, 0);
  for (std::size_t j = 0; j < n_tasks; ++j) {
    const std::size_t end = task_start[j + 1];
    const double submitters = static_cast<double>(end - task_start[j]);
    for (std::size_t begin = task_start[j]; begin < end;) {
      const std::uint32_t k = report_group[begin];
      std::size_t run_end = begin + 1;
      while (run_end < end && report_group[run_end] == k) ++run_end;
      const std::size_t members = run_end - begin;
      const double group_size =
          options.size_from_task_participants
              ? static_cast<double>(members)
              : static_cast<double>(grouping.group(k).size());
      const double w = 1.0 - group_size / submitters;  // Eq. (4)
      out.groups.push_back(k);
      out.values.push_back(aggregate(
          std::span<const double>(report_value.data() + begin, members)));
      out.initial_weights.push_back(std::max(w, options.weight_floor));
      out.member_counts.push_back(static_cast<std::uint32_t>(members));
      ++out.group_task_counts[k];
      begin = run_end;
    }
    out.task_offsets[j + 1] = out.values.size();
  }
}

}  // namespace

double aggregate_group_values(const std::vector<double>& values,
                              const DataGroupingOptions& options) {
  return aggregate_values(values, options);
}

GroupedData group_data(const FrameworkInput& input,
                       const AccountGrouping& grouping,
                       const DataGroupingOptions& options) {
  GroupedData out;
  group_data(input, grouping, options, out);
  return out;
}

void group_data(const FrameworkInput& input, const AccountGrouping& grouping,
                const DataGroupingOptions& options, GroupedData& out) {
  build_table(
      input, grouping, options,
      [&options](std::span<const double> values) {
        return aggregate_values(values, options);
      },
      out);
}

void group_data(const FrameworkInput& input, const AccountGrouping& grouping,
                const DataGroupingOptions& options,
                const CellAggregate& aggregate, GroupedData& out) {
  build_table(input, grouping, options, aggregate, out);
}

}  // namespace sybiltd::core
