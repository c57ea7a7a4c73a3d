#include "pipeline/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>

#include "common/error.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sybiltd::pipeline {

using truth::nan_value;

namespace {

// Process-wide registry mirror of the per-shard work counters, plus the
// micro-batch latency distribution.  Shards bump these alongside their own
// ShardCounters so obs::snapshot() covers the pipeline without holding a
// CampaignEngine pointer.
struct PipelineMetrics {
  obs::Counter& accepted = obs::MetricsRegistry::global().counter(
      "pipeline.accepted", "reports enqueued across all shards");
  obs::Counter& dropped = obs::MetricsRegistry::global().counter(
      "pipeline.dropped", "reports discarded by kDropNewest backpressure");
  obs::Counter& rejected = obs::MetricsRegistry::global().counter(
      "pipeline.rejected", "reports refused by kReject backpressure");
  obs::Counter& applied = obs::MetricsRegistry::global().counter(
      "pipeline.applied", "reports applied to campaign states");
  obs::Counter& batches = obs::MetricsRegistry::global().counter(
      "pipeline.batches", "micro-batches processed");
  obs::Counter& regroups = obs::MetricsRegistry::global().counter(
      "pipeline.regroups", "incremental grouping rebuilds");
  obs::Counter& regroup_uf_rebuilds = obs::MetricsRegistry::global().counter(
      "pipeline.regroups.uf_rebuilds",
      "union-find rebuilds forced by edge removals during a regroup");
  obs::Counter& evictions = obs::MetricsRegistry::global().counter(
      "pipeline.evictions", "observations decayed out");
  obs::Counter& publications = obs::MetricsRegistry::global().counter(
      "pipeline.publications", "campaign snapshots published");
  obs::Histogram& batch_us = obs::MetricsRegistry::global().histogram(
      "pipeline.batch_us", "micro-batch processing latency (us)");
  obs::Histogram& queue_wait_us = obs::MetricsRegistry::global().histogram(
      "pipeline.queue_wait_us",
      "time the oldest report of each micro-batch spent in a shard queue "
      "before the batch was applied (us)");
  // Per-campaign report-lifecycle latency.  Series are keyed by the
  // campaign id; when more campaigns than the cardinality cap ever exist,
  // the least-recently-active series folds into `_other`.
  obs::HistogramFamily& ingest_to_apply_us =
      obs::MetricsRegistry::global().histogram_family(
          "pipeline.ingest_to_apply_us", "campaign",
          "report latency from HTTP arrival to shard apply (us)");
  obs::HistogramFamily& ingest_to_publish_us =
      obs::MetricsRegistry::global().histogram_family(
          "pipeline.ingest_to_publish_us", "campaign",
          "report latency from HTTP arrival to the snapshot that first "
          "reflects it (us)");
  obs::GaugeFamily& shard_queue_depth =
      obs::MetricsRegistry::global().gauge_family(
          "pipeline.shard.queue_depth", "shard",
          "shard ingestion queue occupancy");
  obs::GaugeFamily& shard_queue_hwm =
      obs::MetricsRegistry::global().gauge_family(
          "pipeline.shard.queue_high_watermark", "shard",
          "max shard queue occupancy ever observed");

  static PipelineMetrics& get() {
    static PipelineMetrics metrics;
    return metrics;
  }
};

// Rate-limited warn stream for pipeline shed events: drops, rejects and
// decay evictions can fire per report under overload, so the log sees a
// bounded sample rather than one line per loss.
obs::LogRateLimiter& pipeline_warn_limiter() {
  static obs::LogRateLimiter limiter(/*per_second=*/10.0, /*burst=*/20.0);
  return limiter;
}

double ticks_to_us_since(std::uint64_t ingest_ticks,
                         std::chrono::steady_clock::time_point now) {
  const std::chrono::steady_clock::duration age =
      now.time_since_epoch() -
      std::chrono::steady_clock::duration(
          static_cast<std::chrono::steady_clock::rep>(ingest_ticks));
  return std::chrono::duration<double, std::micro>(age).count();
}

}  // namespace

// --- CampaignState ---------------------------------------------------------

CampaignState::CampaignState(std::size_t campaign, std::size_t task_count,
                             const ShardOptions* options, SnapshotCell* cell,
                             ShardCounters* counters)
    : campaign_(campaign),
      task_count_(task_count),
      options_(options),
      cell_(cell),
      counters_(counters),
      truths_(task_count, nan_value()),
      label_(std::to_string(campaign)) {
  SYBILTD_CHECK(task_count_ > 0, "campaign needs at least one task");
  store_.task_count = task_count_;
  auto& metrics = PipelineMetrics::get();
  ingest_to_apply_hist_ = &metrics.ingest_to_apply_us.at(label_);
  ingest_to_publish_hist_ = &metrics.ingest_to_publish_us.at(label_);
  // Version-0 snapshot so readers never observe a null cell.
  auto snapshot = std::make_shared<CampaignSnapshot>();
  snapshot->campaign = campaign_;
  snapshot->truths = truths_;
  cell_->publish(std::move(snapshot));
}

std::uint32_t& CampaignState::pair_both(std::size_t i, std::size_t j) {
  return i > j ? both_[i][j] : both_[j][i];
}

std::uint32_t& CampaignState::pair_alone(std::size_t i, std::size_t j) {
  return i > j ? alone_[i][j] : alone_[j][i];
}

void CampaignState::mark_dirty(std::size_t account) {
  if (dirty_account_.size() < store_.accounts.size()) {
    dirty_account_.resize(store_.accounts.size(), 0);
  }
  if (!dirty_account_[account]) {
    dirty_account_[account] = 1;
    dirty_list_.push_back(static_cast<std::uint32_t>(account));
  }
}

void CampaignState::ensure_account(std::size_t account) {
  while (store_.accounts.size() <= account) {
    const std::size_t n = store_.accounts.size();
    store_.accounts.emplace_back();
    born_.emplace_back();
    has_task_.emplace_back(task_count_, false);
    // A fresh account's task set is empty: T_ij = 0 and L_ij = |T_j| for
    // every existing account j.
    both_.emplace_back(n, 0u);
    std::vector<std::uint32_t> alone_row(n);
    for (std::size_t j = 0; j < n; ++j) alone_row[j] = tasks_of_account_[j];
    alone_.push_back(std::move(alone_row));
    tasks_of_account_.push_back(0);
    grouping_dirty_ = true;  // a new singleton changes the partition
    mark_dirty(n);
  }
}

void CampaignState::add_membership(std::size_t account, std::size_t task) {
  has_task_[account][task] = true;
  ++tasks_of_account_[account];
  const std::size_t n = store_.accounts.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == account) continue;
    if (has_task_[j][task]) {
      // The task moves from j's side of the symmetric difference into the
      // intersection.
      ++pair_both(account, j);
      --pair_alone(account, j);
    } else {
      ++pair_alone(account, j);
    }
  }
  grouping_dirty_ = true;
  mark_dirty(account);
}

void CampaignState::remove_membership(std::size_t account, std::size_t task) {
  has_task_[account][task] = false;
  --tasks_of_account_[account];
  const std::size_t n = store_.accounts.size();
  for (std::size_t j = 0; j < n; ++j) {
    if (j == account) continue;
    if (has_task_[j][task]) {
      --pair_both(account, j);
      ++pair_alone(account, j);
    } else {
      --pair_alone(account, j);
    }
  }
  grouping_dirty_ = true;
  mark_dirty(account);
}

void CampaignState::apply(const Report& report) {
  SYBILTD_ASSERT(report.campaign == campaign_ && report.task < task_count_);
  ensure_account(report.account);
  ++step_;
  ++applied_;
  auto& row = store_.accounts[report.account].reports;
  auto& born = born_[report.account];
  const auto it = std::lower_bound(
      row.begin(), row.end(), report.task,
      [](const core::AccountObservation& slot, std::size_t task) {
        return slot.task < task;
      });
  const std::size_t at = static_cast<std::size_t>(it - row.begin());
  if (it != row.end() && it->task == report.task) {
    // Re-submission: last write wins, influence age resets.
    it->value = report.value;
    it->timestamp_hours = report.timestamp_hours;
    born[at] = step_;
  } else {
    row.insert(it, {report.task, report.value, report.timestamp_hours});
    born.insert(born.begin() + static_cast<std::ptrdiff_t>(at), step_);
    ++live_;
    add_membership(report.account, report.task);
  }
  if (report.ingest_ticks != 0) {
    pending_publish_ticks_.push_back(report.ingest_ticks);
  }
}

void CampaignState::evict_stale() {
  if (options_->decay >= 1.0) return;
  const std::size_t n = store_.accounts.size();
  std::uint64_t evicted = 0;
  for (std::size_t i = 0; i < n; ++i) {
    auto& row = store_.accounts[i].reports;
    auto& born = born_[i];
    for (std::size_t r = 0; r < row.size();) {
      const double age = static_cast<double>(step_ - born[r]);
      if (std::pow(options_->decay, age) < options_->influence_floor) {
        remove_membership(i, row[r].task);
        row.erase(row.begin() + static_cast<std::ptrdiff_t>(r));
        born.erase(born.begin() + static_cast<std::ptrdiff_t>(r));
        --live_;
        ++evicted;
        counters_->evictions.fetch_add(1, std::memory_order_relaxed);
        PipelineMetrics::get().evictions.inc();
      } else {
        ++r;
      }
    }
  }
  if (evicted > 0 && obs::log_enabled(obs::LogLevel::kDebug) &&
      pipeline_warn_limiter().allow()) {
    obs::LogEvent(obs::LogLevel::kDebug, "observations_evicted")
        .field("campaign", campaign_)
        .field("evicted", evicted)
        .field("live", live_);
  }
}

const core::AccountGrouping& CampaignState::grouping() {
  if (!grouping_dirty_) return grouping_;
  obs::TraceSpan span("campaign/regroup");
  span.arg("campaign", static_cast<double>(campaign_));
  const std::size_t n = store_.accounts.size();
  span.arg("accounts", static_cast<double>(n));
  auto& metrics = PipelineMetrics::get();
  // Only accounts whose task set changed since the last regroup can have
  // different affinity edges (a report only mutates its own account's pair
  // counts), so recomputing those rows and handing them to
  // IncrementalComponents yields the partition — and the canonical labels
  // — of a union-find over every pair, in O(dirty · n).
  span.arg("dirty", static_cast<double>(dirty_list_.size()));
  components_.resize(n);
  std::sort(dirty_list_.begin(), dirty_list_.end());
  std::vector<std::uint32_t> neighbors;
  for (std::uint32_t a : dirty_list_) {
    neighbors.clear();
    for (std::size_t j = 0; j < n; ++j) {
      if (j == a) continue;
      const std::uint32_t both = a > j ? both_[a][j] : both_[j][a];
      const std::uint32_t alone = a > j ? alone_[a][j] : alone_[j][a];
      if (core::AgTs::affinity(both, alone, task_count_) > options_->rho) {
        neighbors.push_back(static_cast<std::uint32_t>(j));
      }
    }
    components_.set_neighbors(a, neighbors);
    dirty_account_[a] = 0;
  }
  dirty_list_.clear();
  grouping_ = core::AccountGrouping::from_labels(components_.labels());
  const std::uint64_t rebuilds = components_.rebuilds();
  metrics.regroup_uf_rebuilds.inc(rebuilds - component_rebuilds_seen_);
  component_rebuilds_seen_ = rebuilds;
  grouping_dirty_ = false;
  counters_->regroups.fetch_add(1, std::memory_order_relaxed);
  metrics.regroups.inc();
  return grouping_;
}

std::vector<std::vector<double>> CampaignState::affinity_matrix() const {
  const std::size_t n = store_.accounts.size();
  std::vector<std::vector<double>> matrix(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 1; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      const double a =
          core::AgTs::affinity(both_[i][j], alone_[i][j], task_count_);
      matrix[i][j] = a;
      matrix[j][i] = a;
    }
  }
  return matrix;
}

void CampaignState::refine_and_publish(bool to_convergence) {
  obs::TraceSpan span("campaign/refine");
  span.arg("campaign", static_cast<double>(campaign_));
  const core::AccountGrouping& current = grouping();
  std::size_t iterations = 0;
  bool converged = false;
  double final_residual = 0.0;

  if (to_convergence) {
    // The drain path *is* the batch path: identical grouped data through
    // identical code, so a drained campaign equals core::run_framework.
    core::FrameworkResult result =
        core::run_framework(store_, current, options_->framework);
    truths_ = std::move(result.truths);
    group_weights_ = std::move(result.group_weights);
    iterations = result.iterations;
    converged = result.converged;
    final_residual = result.final_residual;
  } else {
    core::group_data(store_, current, options_->framework.data_grouping,
                     grouped_);
    const std::vector<double> norm =
        core::framework_task_normalizers(grouped_, task_count_);
    const std::vector<double> init = core::framework_initial_truths(
        grouped_, task_count_, options_->framework.init_with_eq5);
    // Warm start: keep converged truths, seed newly-covered tasks with the
    // Eq. (5) initializer.
    for (std::size_t j = 0; j < task_count_; ++j) {
      if (std::isnan(truths_[j])) truths_[j] = init[j];
    }
    for (std::size_t k = 0; k < options_->refine_iterations; ++k) {
      ++iterations;
      const double delta = core::framework_iterate_once(
          grouped_, norm, options_->framework.loss_epsilon, truths_,
          group_weights_);
      final_residual = delta;
      if (delta < options_->framework.convergence.truth_tolerance) {
        converged = true;
        break;
      }
    }
  }
  span.arg("iterations", static_cast<double>(iterations));

  {
    obs::TraceSpan publish_span("campaign/publish");
    publish_span.arg("campaign", static_cast<double>(campaign_));
    publish_span.arg("reports",
                     static_cast<double>(pending_publish_ticks_.size()));
    auto snapshot = std::make_shared<CampaignSnapshot>();
    snapshot->campaign = campaign_;
    snapshot->version = ++version_;
    snapshot->truths = truths_;
    snapshot->group_weights = group_weights_;
    snapshot->group_of = current.labels();
    snapshot->group_count = current.group_count();
    snapshot->live_observations = live_;
    snapshot->applied_reports = applied_;
    snapshot->iterations = iterations;
    snapshot->converged = converged;
    snapshot->final_residual = final_residual;
    snapshot->weight_entropy = core::group_weight_entropy(group_weights_);
    cell_->publish(std::move(snapshot));
  }
  counters_->publications.fetch_add(1, std::memory_order_relaxed);
  PipelineMetrics::get().publications.inc();
  if (!pending_publish_ticks_.empty()) {
    // This snapshot is the first that reflects every report applied since
    // the last publication: close out their ingest→publish latencies.
    const auto now = std::chrono::steady_clock::now();
    for (const std::uint64_t ticks : pending_publish_ticks_) {
      ingest_to_publish_hist_->record(ticks_to_us_since(ticks, now));
    }
    pending_publish_ticks_.clear();
  }
}

// --- Shard -----------------------------------------------------------------

Shard::Shard(std::size_t index, const ShardOptions& options,
             std::size_t queue_capacity, std::size_t max_batch)
    : index_(index),
      options_(options),
      max_batch_(max_batch),
      queue_(queue_capacity) {
  SYBILTD_CHECK(options_.decay > 0.0 && options_.decay <= 1.0,
                "decay must be in (0, 1]");
  SYBILTD_CHECK(options_.influence_floor > 0.0,
                "influence floor must be positive");
  SYBILTD_CHECK(options_.refine_iterations >= 1,
                "need at least one refinement iteration per micro-batch");
  SYBILTD_CHECK(max_batch_ >= 1, "micro-batch size must be positive");
  batch_.reserve(max_batch_);
  // Index-labeled series, so repeated engine constructions (tests,
  // benchmark sweeps) reuse the same registry entries.
  auto& metrics = PipelineMetrics::get();
  const std::string label = std::to_string(index_);
  queue_depth_gauge_ = &metrics.shard_queue_depth.at(label);
  queue_hwm_gauge_ = &metrics.shard_queue_hwm.at(label);
}

void Shard::record_push(PushResult result) {
  auto& metrics = PipelineMetrics::get();
  switch (result) {
    case PushResult::kOk:
      counters_.accepted.fetch_add(1, std::memory_order_relaxed);
      metrics.accepted.inc();
      break;
    case PushResult::kDropped:
      counters_.dropped.fetch_add(1, std::memory_order_relaxed);
      metrics.dropped.inc();
      break;
    case PushResult::kRejected:
      counters_.rejected.fetch_add(1, std::memory_order_relaxed);
      metrics.rejected.inc();
      break;
    case PushResult::kClosed:
      break;
  }
}

void Shard::record_accepted(std::size_t n) {
  if (n == 0) return;
  counters_.accepted.fetch_add(n, std::memory_order_relaxed);
  PipelineMetrics::get().accepted.inc(n);
}

void Shard::add_campaign(std::size_t campaign, std::size_t task_count,
                         SnapshotCell* cell) {
  const bool inserted =
      states_
          .try_emplace(campaign, campaign, task_count, &options_, cell,
                       &counters_)
          .second;
  SYBILTD_CHECK(inserted, "campaign already registered with this shard");
}

void Shard::enqueue_campaign(std::size_t campaign, std::size_t task_count,
                             SnapshotCell* cell) {
  std::lock_guard<std::mutex> lock(pending_mutex_);
  pending_campaigns_.push_back({campaign, task_count, cell});
}

void Shard::adopt_pending_campaigns() {
  std::vector<PendingCampaign> pending;
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    if (pending_campaigns_.empty()) return;
    pending.swap(pending_campaigns_);
  }
  for (const PendingCampaign& p : pending) {
    add_campaign(p.campaign, p.task_count, p.cell);
  }
}

const CampaignState* Shard::campaign_state(std::size_t campaign) const {
  const auto it = states_.find(campaign);
  return it == states_.end() ? nullptr : &it->second;
}

void Shard::process_batch(const std::vector<Report>& batch) {
  const auto batch_start = std::chrono::steady_clock::now();
  auto& latency_metrics = PipelineMetrics::get();
  // Apply everything first, then evict/refine/publish once per touched
  // campaign — the micro-batch amortizes regrouping and iteration cost.
  std::vector<CampaignState*> touched;
  std::uint64_t earliest_ingest = 0;
  {
    obs::TraceSpan apply_span("shard/apply");
    apply_span.arg("shard", static_cast<double>(index_));
    apply_span.arg("reports", static_cast<double>(batch.size()));
    for (const Report& report : batch) {
      const auto it = states_.find(report.campaign);
      SYBILTD_ASSERT(it != states_.end());
      CampaignState& state = it->second;
      if (report.ingest_ticks != 0) {
        state.ingest_to_apply_hist_->record(
            ticks_to_us_since(report.ingest_ticks, batch_start));
        if (earliest_ingest == 0 || report.ingest_ticks < earliest_ingest) {
          earliest_ingest = report.ingest_ticks;
        }
      }
      state.apply(report);
      if (!state.touched_) {
        state.touched_ = true;
        touched.push_back(&state);
      }
    }
  }
  if (earliest_ingest != 0) {
    // One sample per micro-batch, for the batch's oldest report: recording
    // per report would triple the histogram traffic on the apply path for
    // a distribution the batch-level view already characterizes.
    const double wait_us = ticks_to_us_since(earliest_ingest, batch_start);
    latency_metrics.queue_wait_us.record(wait_us);
    if (obs::trace_enabled()) {
      // Retro-dated span covering the oldest report's time in the shard
      // queue: starts at its HTTP arrival, ends now.
      const std::uint64_t end_us = obs::detail::trace_now_us();
      const std::uint64_t span_us = static_cast<std::uint64_t>(
          std::max(0.0, wait_us));
      obs::detail::trace_span_end(
          "shard/queue_wait", end_us > span_us ? end_us - span_us : 0,
          "shard", static_cast<double>(index_), "reports",
          static_cast<double>(batch.size()));
    }
  }
  for (CampaignState* state : touched) {
    state->touched_ = false;
    state->evict_stale();
    state->refine_and_publish(false);
  }
  counters_.applied.fetch_add(batch.size(), std::memory_order_relaxed);
  counters_.batches.fetch_add(1, std::memory_order_relaxed);
  auto& metrics = PipelineMetrics::get();
  metrics.applied.inc(batch.size());
  metrics.batches.inc();
  metrics.batch_us.record(
      std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
          std::chrono::steady_clock::now() - batch_start)
          .count());
}

void Shard::finalize_all() {
  for (auto& [campaign, state] : states_) {
    (void)campaign;
    state.refine_and_publish(true);
  }
}

std::uint64_t Shard::request_finalize() {
  return finalize_requested_.fetch_add(1, std::memory_order_acq_rel) + 1;
}

void Shard::wait_finalized(std::uint64_t ticket) {
  std::unique_lock<std::mutex> lock(finalize_mutex_);
  finalize_cv_.wait(lock, [&] {
    return finalize_done_.load(std::memory_order_acquire) >= ticket;
  });
}

bool Shard::step() {
  constexpr std::chrono::milliseconds kIdlePoll{2};
  batch_.clear();
  if (queue_.pop_batch(batch_, max_batch_, kIdlePoll) > 0) {
    // A report can only be enqueued after its campaign's pending entry was
    // handed to this shard (the engine orders both under its campaign
    // registry lock), so adopting here — after the pop, before the apply —
    // guarantees every popped report finds its campaign installed.
    adopt_pending_campaigns();
    // Spanned only when there is work — idle polls would otherwise flood
    // the trace with 2 ms no-op events.
    obs::TraceSpan span("shard/step");
    span.arg("shard", static_cast<double>(index_));
    span.arg("reports", static_cast<double>(batch_.size()));
    queue_depth_gauge_->set(static_cast<double>(queue_.size()));
    queue_hwm_gauge_->set(static_cast<double>(queue_.high_watermark()));
    process_batch(batch_);
    return true;
  }
  queue_depth_gauge_->set(static_cast<double>(queue_.size()));
  queue_hwm_gauge_->set(static_cast<double>(queue_.high_watermark()));
  // Adopt before any finalize below, so a drain covers campaigns that were
  // registered (possibly empty, awaiting their first report) before it.
  adopt_pending_campaigns();
  // Idle tick: honor a pending drain barrier, but only once the queue is
  // verifiably empty (the acquire load orders the emptiness check after
  // every push that preceded the finalize request).
  const std::uint64_t requested =
      finalize_requested_.load(std::memory_order_acquire);
  if (finalize_done_.load(std::memory_order_relaxed) < requested) {
    if (!queue_.empty()) return true;
    finalize_all();
    finalize_done_.store(requested, std::memory_order_release);
    {
      // Empty critical section: pairs with the waiter's predicate check
      // so the notify cannot be lost.
      std::lock_guard<std::mutex> lock(finalize_mutex_);
    }
    finalize_cv_.notify_all();
    return true;
  }
  if (!(queue_.closed() && queue_.empty())) return true;
  // Shutting down.  Safety net: never strand a drain that raced with close
  // (the finalize request may have landed after the idle check above).
  const std::uint64_t late =
      finalize_requested_.load(std::memory_order_acquire);
  if (finalize_done_.load(std::memory_order_relaxed) < late) {
    finalize_all();
    finalize_done_.store(late, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lock(finalize_mutex_);
    }
    finalize_cv_.notify_all();
  }
  return false;
}

void Shard::run() {
  while (step()) {
  }
}

}  // namespace sybiltd::pipeline
