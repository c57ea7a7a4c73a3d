// Pipeline shard: thread-confined incremental state for a subset of
// campaigns, plus the worker loop that consumes the shard's report queue.
//
// Each shard owns the campaigns the engine routed to it.  Per campaign it
// keeps an incremental mirror of exactly the state the batch framework
// derives from scratch:
//
//   * an observation store: a core::FrameworkInput the campaign owns (per
//     account, reports sorted by task; last write wins, so re-submissions
//     update in place as the paper's one-report-per-task rule implies),
//     with each report's arrival step kept beside it for decay; the batch
//     framework reads the store as it is, with no copy,
//   * AG-TS pair statistics — for every account pair the counts T_ij
//     (tasks both did) and L_ij (tasks either did alone) that Eq. (6)
//     combines into the affinity.  Applying a report touches one row of
//     those counts (O(accounts)) instead of recomputing the O(n²·m)
//     matrix,
//   * the connected-component grouping over the affinity > rho graph,
//     updated lazily only when some report changed a task-set membership:
//     only the affinity rows of accounts dirtied since the last regroup
//     are recomputed — O(dirty · n) instead of O(n²) — and handed to
//     graph::IncrementalComponents,
//   * the grouped table (Eqs. 3-4), rebuilt in place per micro-batch so
//     warm batches reuse its capacity, and warm CRH truth state at the
//     group granularity, refined a few warm-started iterations per
//     micro-batch rather than re-run from scratch.
//
// Forgetting is exponential decay by arrival order: each observation
// records its arrival step (counted per campaign), its influence is
// decay^age, and once that falls below influence_floor the observation is
// evicted outright, which updates the pair counts and (possibly) splits
// groups.  With decay = 1 nothing is ever forgotten and a drained shard
// reproduces the batch core::run_framework output exactly (tested to
// 1e-9).
//
// Threading contract: all CampaignState mutation happens on the shard's
// worker thread; readers see results only through the published
// SnapshotCell.  The finalize handshake (request_finalize/wait_finalized)
// is how the engine's drain() barrier asks the worker to run every owned
// campaign to full convergence once its queue is empty.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/framework.h"
#include "core/grouping.h"
#include "graph/incremental.h"
#include "pipeline/report_queue.h"
#include "pipeline/snapshot.h"

namespace sybiltd {

namespace obs {
class Gauge;
class Histogram;
}  // namespace obs

namespace pipeline {

struct ShardOptions {
  // AG-TS edge threshold rho (Eq. 6): accounts with affinity > rho share a
  // group.
  double rho = 1.0;
  // Influence decay per arrival step within a campaign; 1 = never forget.
  double decay = 1.0;
  // Observations whose decayed influence drops below this are evicted.
  double influence_floor = 1e-4;
  // Warm-started CRH iterations per micro-batch (drain() always runs to
  // convergence instead).
  std::size_t refine_iterations = 2;
  // Eq. 3/4 aggregation and convergence configuration shared with the
  // batch framework.
  core::FrameworkOptions framework;
};

// Monotonic work counters, aggregated across a shard's campaigns.  Atomics
// so the engine can sum them while workers run; each is read with a relaxed
// load, so a sum across shards is per-counter monotone but not a single
// consistent cut (see EngineCounters).
struct ShardCounters {
  std::atomic<std::uint64_t> accepted{0};      // reports enqueued here
  std::atomic<std::uint64_t> dropped{0};       // kDropNewest discards here
  std::atomic<std::uint64_t> rejected{0};      // kReject refusals here
  std::atomic<std::uint64_t> applied{0};       // reports applied to states
  std::atomic<std::uint64_t> batches{0};       // micro-batches processed
  std::atomic<std::uint64_t> regroups{0};      // grouping rebuilds
  std::atomic<std::uint64_t> evictions{0};     // decayed-out observations
  std::atomic<std::uint64_t> publications{0};  // snapshots published
};

// Incremental per-campaign state.  Single-writer: only the owning shard's
// worker thread calls the mutating members.
class CampaignState {
 public:
  CampaignState(std::size_t campaign, std::size_t task_count,
                const ShardOptions* options, SnapshotCell* cell,
                ShardCounters* counters);

  std::size_t campaign() const { return campaign_; }
  std::size_t task_count() const { return task_count_; }
  std::size_t account_count() const { return store_.accounts.size(); }
  std::size_t live_observations() const { return live_; }
  std::uint64_t applied_reports() const { return applied_; }

  // Upsert one report: new (account, task) memberships update the AG-TS
  // pair counts incrementally and dirty the grouping; repeat reports only
  // refresh value and age.
  void apply(const Report& report);

  // Drop observations whose influence decayed below the floor (no-op when
  // decay = 1).  Membership removals dirty the grouping.
  void evict_stale();

  // Current grouping; the dirty accounts' affinity rows are recomputed
  // from the pair counts and folded into the component structure.
  const core::AccountGrouping& grouping();

  // Refine the warm truth state (a few iterations, or to convergence via
  // the batch run_framework path) and publish a fresh snapshot.
  void refine_and_publish(bool to_convergence);

  // The full Eq. (6) affinity matrix from the incremental pair counts;
  // matches core::AgTs::affinity_matrix on the same data (tested).
  std::vector<std::vector<double>> affinity_matrix() const;

 private:
  void ensure_account(std::size_t account);
  void add_membership(std::size_t account, std::size_t task);
  void remove_membership(std::size_t account, std::size_t task);
  void mark_dirty(std::size_t account);
  std::uint32_t& pair_both(std::size_t i, std::size_t j);
  std::uint32_t& pair_alone(std::size_t i, std::size_t j);

  std::size_t campaign_;
  std::size_t task_count_;
  const ShardOptions* options_;
  SnapshotCell* cell_;
  ShardCounters* counters_;

  // Per-account observations sorted by task (at most one per task), and
  // born_[i][r] = arrival step of store_.accounts[i].reports[r].
  core::FrameworkInput store_;
  std::vector<std::vector<std::uint64_t>> born_;
  // Per-account task membership bitmap and |T_i| counts.
  std::vector<std::vector<bool>> has_task_;
  std::vector<std::uint32_t> tasks_of_account_;
  // Lower-triangular pair counts: row i holds entries for j < i.
  std::vector<std::vector<std::uint32_t>> both_;
  std::vector<std::vector<std::uint32_t>> alone_;

  core::AccountGrouping grouping_;
  bool grouping_dirty_ = false;
  // Lazy-regroup bookkeeping: accounts whose affinity row changed since the
  // incremental component structure last consumed them.
  std::vector<std::uint8_t> dirty_account_;
  std::vector<std::uint32_t> dirty_list_;
  graph::IncrementalComponents components_;
  std::uint64_t component_rebuilds_seen_ = 0;

  core::GroupedData grouped_;          // rebuilt per micro-batch
  std::vector<double> truths_;         // warm CRH state, per task
  std::vector<double> group_weights_;  // last iterated weights, per group

  std::uint64_t step_ = 0;     // arrivals, ages decay
  std::uint64_t applied_ = 0;  // reports applied (including upserts)
  std::uint64_t version_ = 0;  // snapshot publications
  std::size_t live_ = 0;       // distinct (account, task) pairs held
  // Marker used by the worker to dedupe touched campaigns per micro-batch.
  bool touched_ = false;
  // Label value for this campaign's series in the obs registry's labeled
  // families (pipeline.ingest_to_*_us{campaign=...}); cached so the
  // per-report family lookup never allocates.
  std::string label_;
  // Series resolved once at construction: at() takes a shared lock plus a
  // hash probe, which is measurable at per-report frequency.  Family
  // references stay valid forever (series live in a deque); after an
  // eviction the pointer counts toward whatever label the slot was
  // reassigned to, which the family contract documents as acceptable.
  obs::Histogram* ingest_to_apply_hist_ = nullptr;
  obs::Histogram* ingest_to_publish_hist_ = nullptr;
  // Ingest stamps of reports applied since the last publication; drained
  // into the ingest→publish histogram when the covering snapshot goes out.
  // Bounded by the shard's micro-batch size between publications.
  std::vector<std::uint64_t> pending_publish_ticks_;

  friend class Shard;
};

class Shard {
 public:
  // `index` is the shard's position in the engine — it is the `shard` label
  // on the queue-occupancy gauge family (`pipeline.shard.queue_depth{shard=
  // <index>}` / `.queue_high_watermark`), so repeated engine constructions
  // reuse the same registry series.
  Shard(std::size_t index, const ShardOptions& options,
        std::size_t queue_capacity, std::size_t max_batch);

  // Register an owned campaign.  Must happen before run() starts; publishes
  // the version-0 empty snapshot so readers never observe a null cell.
  void add_campaign(std::size_t campaign, std::size_t task_count,
                    SnapshotCell* cell);

  // Thread-safe registration while the shard chain runs (the engine's live
  // add_campaign path).  The worker adopts pending campaigns at the top of
  // every step — always before applying a popped batch and before honoring
  // a finalize request, so a report or drain that post-dates the hand-off
  // can never observe the campaign missing.
  void enqueue_campaign(std::size_t campaign, std::size_t task_count,
                        SnapshotCell* cell);

  ReportQueue& queue() { return queue_; }
  const ShardCounters& counters() const { return counters_; }
  std::size_t index() const { return index_; }

  // Record the outcome of a push into this shard's queue (called by the
  // engine's submit path; thread-safe relaxed increments).
  void record_push(PushResult result);

  // Bulk form of record_push(kOk) for the batched submit path: one pair of
  // counter updates per run instead of one per report.
  void record_accepted(std::size_t n);

  // One cooperative scheduling round: pop one micro-batch and process it,
  // or (when idle) honor a pending finalize request.  Returns false once
  // the queue is closed and drained — after running any finalize that
  // raced with shutdown — at which point the shard's chain ends.  The
  // engine schedules step() as a self-resubmitting thread-pool task, so a
  // shard never monopolizes a pool worker between batches.
  bool step();

  // Worker loop: step() until the shard is done.  Equivalent to the chain
  // the engine schedules, for callers that dedicate a thread to the shard.
  void run();

  // Drain barrier: ask the worker to run every owned campaign to full
  // convergence once its queue is empty.  Returns a ticket for
  // wait_finalized.  Callers must not submit concurrently with a drain
  // they expect to cover those reports.
  std::uint64_t request_finalize();
  void wait_finalized(std::uint64_t ticket);

  // Test/diagnostic access to a campaign's state.  Only safe when the
  // worker is not running (before start or after the engine stopped, whose
  // join provides the happens-before edge).
  const CampaignState* campaign_state(std::size_t campaign) const;

 private:
  void process_batch(const std::vector<Report>& batch);
  void finalize_all();
  // Install campaigns registered via enqueue_campaign (worker thread only).
  void adopt_pending_campaigns();

  struct PendingCampaign {
    std::size_t campaign = 0;
    std::size_t task_count = 0;
    SnapshotCell* cell = nullptr;
  };

  std::size_t index_;
  ShardOptions options_;
  std::size_t max_batch_;
  ReportQueue queue_;
  // Registry gauges for this shard's queue occupancy, refreshed once per
  // step() round (never on the producer path).
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* queue_hwm_gauge_ = nullptr;
  std::unordered_map<std::size_t, CampaignState> states_;
  ShardCounters counters_;
  // Reused micro-batch buffer; only touched from step(), which the engine
  // runs strictly sequentially per shard.
  std::vector<Report> batch_;

  std::atomic<std::uint64_t> finalize_requested_{0};
  std::atomic<std::uint64_t> finalize_done_{0};
  std::mutex finalize_mutex_;
  std::condition_variable finalize_cv_;

  // Campaigns registered while the chain runs, waiting for worker adoption.
  std::mutex pending_mutex_;
  std::vector<PendingCampaign> pending_campaigns_;
};

}  // namespace pipeline
}  // namespace sybiltd
