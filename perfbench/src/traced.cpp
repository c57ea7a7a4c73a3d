// Per-layer measurement for the traced run.  Spans wrap calls into each
// layer's public functions from here; counters come from obs::snapshot()
// (in-process) or the server's /metrics (see serving.cpp).
#include <algorithm>
#include <memory>
#include <thread>
#include <vector>

#include "candidate/blocking.h"
#include "candidate/features.h"
#include "candidate/setjoin.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "core/framework.h"
#include "http_client.h"
#include "layers.h"
#include "pipeline/engine.h"
#include "pipeline/shard.h"
#include "pipeline/status_json.h"
#include "server/handlers.h"
#include "server/http.h"
#include "server/report_decode.h"

namespace perfbench {

namespace sy = sybiltd;

namespace {

constexpr std::size_t kReadStride = 8;
constexpr std::size_t kQueueCapacity = 1u << 17;

// Waits, outside the spans, until `engine` has applied all but a quarter
// queue of what it accepted, so the replay never outruns the background
// shards into queue-full refusals.  Returns the time waited.
double wait_for_room(const sy::pipeline::CampaignEngine& engine) {
  const double start = now_s();
  while (true) {
    const sy::pipeline::EngineCounters c = engine.counters();
    if (c.accepted - c.applied < kQueueCapacity / 4) break;
    std::this_thread::yield();
  }
  return now_s() - start;
}

}  // namespace

std::uint64_t replay_serving_layers(const ServingRecording& recording,
                                    Tracer& tracer, LayerValues& out,
                                    double* plain_s, double* traced_s) {
  std::uint64_t refused = 0;
  double regroup_dirty_ns = 0.0;
  double regroup_dirty_calls = 0.0;
  double timed_reports = 0.0;
  double timed_requests = 0.0;
  // Passes: plain, traced, plain; the plain baseline is the mean of the
  // two, which cancels a steady drift of the machine's speed.
  double plain_total = 0.0;
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass == 1;
    sy::pipeline::EngineOptions engine_options;
    engine_options.shard_count = 2;
    engine_options.queue_capacity = kQueueCapacity;
    sy::pipeline::CampaignEngine handle_engine(engine_options);
    sy::pipeline::CampaignEngine submit_engine(engine_options);
    const sy::pipeline::ShardOptions shard_options;
    sy::pipeline::ShardCounters counters;
    std::vector<std::unique_ptr<sy::pipeline::SnapshotCell>> cells;
    std::vector<std::unique_ptr<sy::pipeline::CampaignState>> states;
    for (std::size_t c = 0; c < recording.campaigns; ++c) {
      handle_engine.add_campaign(recording.tasks);
      submit_engine.add_campaign(recording.tasks);
      cells.push_back(std::make_unique<sy::pipeline::SnapshotCell>());
      states.push_back(std::make_unique<sy::pipeline::CampaignState>(
          c, recording.tasks, &shard_options, cells.back().get(), &counters));
    }
    handle_engine.start();
    submit_engine.start();

    sy::server::HttpParser parser;
    std::string render;
    const double start = now_s();
    double waited = 0.0;
    std::uint64_t id = 0;
    std::size_t reads = 0;
    for (const ServingRecording::Op& op : recording.ops) {
      // Reads leave no state behind; every kReadStride-th one is enough
      // for the per-read means and keeps the replay short.
      if (!op.ingest && reads++ % kReadStride != 0) continue;
      if (op.ingest) {
        waited += wait_for_room(submit_engine) + wait_for_room(handle_engine);
      }
      const bool on = traced && op.timed;
      tracer.set_enabled(on);
      ++id;
      Tracer::Scope request_span(tracer, "replay/request", id);
      sy::server::HttpRequest request;
      {
        Tracer::Scope span(tracer, "server/parse", id);
        parser.feed(*op.bytes);
        parser.next(request);
      }
      if (on) timed_requests += 1.0;
      if (op.ingest) {
        sy::server::DecodedReports decoded;
        {
          Tracer::Scope span(tracer, "server/decode", id);
          decoded = sy::server::decode_reports(request.body, op.campaign,
                                               recording.tasks);
        }
        sy::pipeline::SubmitBatchResult submitted;
        {
          Tracer::Scope span(tracer, "pipeline/submit", id);
          submitted = submit_engine.try_submit_batch(decoded.reports);
        }
        int status = 0;
        {
          Tracer::Scope span(tracer, "server/handle", id);
          status = sy::server::handle_api_request(handle_engine, request).status;
        }
        if (!decoded.ok ||
            submitted.status != sy::pipeline::SubmitStatus::kAccepted) {
          ++refused;
        }
        if (status != 202) ++refused;
        auto& state = *states[op.campaign];
        {
          Tracer::Scope span(tracer, "pipeline/apply", id);
          for (const sy::pipeline::Report& r : decoded.reports) state.apply(r);
        }
        if (on) timed_reports += static_cast<double>(decoded.reports.size());
        const std::uint64_t regroups = counters.regroups.load();
        const std::uint64_t t0 = monotonic_ns();
        {
          Tracer::Scope span(tracer, "pipeline/regroup", id);
          state.grouping();
        }
        if (on && counters.regroups.load() != regroups) {
          regroup_dirty_ns += static_cast<double>(monotonic_ns() - t0);
          regroup_dirty_calls += 1.0;
        }
        {
          Tracer::Scope span(tracer, "pipeline/refine_publish", id);
          state.refine_and_publish(false);
        }
      } else {
        int status = 0;
        {
          Tracer::Scope span(tracer, "server/handle", id);
          status = sy::server::handle_api_request(handle_engine, request).status;
        }
        if (status != 200) ++refused;
        const auto snapshot = handle_engine.snapshot(op.campaign);
        render.clear();
        Tracer::Scope span(tracer, "server/render", id);
        if (request.target.size() >= 7 &&
            request.target.compare(request.target.size() - 7, 7, "/groups") == 0) {
          sy::pipeline::groups_json_into(*snapshot, render);
        } else {
          sy::pipeline::to_json_into(*snapshot, render);
        }
      }
    }
    if (traced) {
      *traced_s = now_s() - start - waited;
    } else {
      plain_total += now_s() - start - waited;
    }
    tracer.set_enabled(true);
    handle_engine.stop();
    submit_engine.stop();
  }

  *plain_s = plain_total / 2.0;
  const auto self_ns = [&](const char* name) {
    return tracer.totals(name).self_ns;
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(tracer.totals(name).count);
  };
  const double reports = std::max(timed_reports, 1.0);
  out["server.parse_ns_per_req"] =
      self_ns("server/parse") / std::max(timed_requests, 1.0);
  out["server.decode_ns_per_report"] = self_ns("server/decode") / reports;
  out["server.handle_ns_per_req"] =
      self_ns("server/handle") / std::max(count("server/handle"), 1.0);
  out["server.render_us_per_snapshot"] =
      1e-3 * self_ns("server/render") / std::max(count("server/render"), 1.0);
  out["pipeline.submit_ns_per_report"] = self_ns("pipeline/submit") / reports;
  out["pipeline.apply_ns_per_report"] = self_ns("pipeline/apply") / reports;
  out["pipeline.regroup_us_per_call"] =
      regroup_dirty_calls > 0.0 ? 1e-3 * regroup_dirty_ns / regroup_dirty_calls
                                : 0.0;
  out["pipeline.refine_publish_us_per_call"] =
      1e-3 * self_ns("pipeline/refine_publish") /
      std::max(count("pipeline/refine_publish"), 1.0);
  return refused;
}

void measure_framework(const sy::core::FrameworkInput& input,
                       const sy::core::AccountGrouping& grouping,
                       Tracer& tracer, LayerValues& out) {
  const sy::core::FrameworkOptions options;
  std::uint64_t t0 = monotonic_ns();
  sy::core::GroupedData grouped;
  {
    Tracer::Scope span(tracer, "core/group_data");
    grouped = sy::core::group_data(input, grouping, options.data_grouping);
  }
  per_call(out, "core.group_data_ms",
           1e-6 * static_cast<double>(monotonic_ns() - t0));
  const auto norm =
      sy::core::framework_task_normalizers(grouped, input.task_count);
  auto truths = sy::core::framework_initial_truths(grouped, input.task_count,
                                                   options.init_with_eq5);
  std::vector<double> weights(grouping.group_count(), 1.0);
  std::size_t iterations = 0;
  for (; iterations < options.convergence.max_iterations;) {
    ++iterations;
    t0 = monotonic_ns();
    double residual = 0.0;
    {
      Tracer::Scope span(tracer, "core/iterate");
      residual = sy::core::framework_iterate_once(
          grouped, norm, options.loss_epsilon, truths, weights);
    }
    per_call(out, "core.iterate_us",
             1e-3 * static_cast<double>(monotonic_ns() - t0));
    if (residual < options.convergence.truth_tolerance) break;
  }
  per_call(out, "core.iterations", static_cast<double>(iterations));
}

void measure_agtr_framework(const sy::core::FrameworkInput& input,
                            const sy::core::AgTrOptions& options,
                            Tracer& tracer, LayerValues& out) {
  sy::core::AgTrStats stats;
  std::uint64_t t0 = monotonic_ns();
  sy::core::AccountGrouping grouping = sy::core::AccountGrouping::singletons(0);
  {
    Tracer::Scope span(tracer, "core/ag_tr");
    grouping = sy::core::AgTr(options).group_with_stats(input, &stats);
  }
  per_call(out, "core.ag_tr_s", 1e-9 * static_cast<double>(monotonic_ns() - t0));
  const double pairs = std::max(static_cast<double>(stats.pairs), 1.0);
  per_call(out, "candidate.blocked_frac", static_cast<double>(stats.blocked) / pairs);
  per_call(out, "candidate.cascade_pruned_frac",
           static_cast<double>(stats.lb_pruned + stats.task_abandoned) / pairs);
  per_call(out, "candidate.exact_pairs", static_cast<double>(stats.exact_pairs));
  if (stats.blocked > 0 || stats.candidates < stats.pairs) {
    // Blocking alone, on the fingerprints AG-TR builds.
    std::vector<sy::candidate::TrajectoryFingerprint> fps(input.accounts.size());
    for (std::size_t i = 0; i < fps.size(); ++i) {
      fps[i].task = sy::candidate::profile_of(
          sy::core::AgTr::task_series(input.accounts[i]));
      fps[i].time = sy::candidate::profile_of(
          sy::core::AgTr::timestamp_series(input.accounts[i]));
    }
    t0 = monotonic_ns();
    {
      Tracer::Scope span(tracer, "candidate/block");
      sy::candidate::endpoint_grid_candidates(fps, options.phi);
    }
    per_call(out, "candidate.block_ms",
             1e-6 * static_cast<double>(monotonic_ns() - t0));
  }
  measure_framework(input, grouping, tracer, out);
}

void measure_agts_framework(const sy::core::FrameworkInput& input, double rho,
                            Tracer& tracer, LayerValues& out) {
  sy::core::AgTsOptions options;
  options.rho = rho;
  sy::core::AgTsStats stats;
  std::uint64_t t0 = monotonic_ns();
  sy::core::AccountGrouping grouping = sy::core::AccountGrouping::singletons(0);
  {
    Tracer::Scope span(tracer, "core/ag_ts");
    grouping = sy::core::AgTs(options).group_with_stats(input, &stats);
  }
  per_call(out, "core.ag_ts_s", 1e-9 * static_cast<double>(monotonic_ns() - t0));
  if (stats.sparse) {
    // The set join alone, on the same task sets AG-TS builds.
    std::vector<std::vector<std::uint32_t>> sets(input.accounts.size());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      for (const auto& r : input.accounts[i].reports) {
        sets[i].push_back(static_cast<std::uint32_t>(r.task));
      }
      std::sort(sets[i].begin(), sets[i].end());
      sets[i].erase(std::unique(sets[i].begin(), sets[i].end()), sets[i].end());
    }
    const double m = static_cast<double>(input.task_count);
    sy::candidate::SetJoinStats join;
    t0 = monotonic_ns();
    {
      Tracer::Scope span(tracer, "candidate/setjoin");
      sy::candidate::sparse_affinity_edges(
          sets,
          [rho, m](std::size_t both, std::size_t alone) {
            const double t = static_cast<double>(both);
            const double l = static_cast<double>(alone);
            return (t - 2.0 * l) * (t + l) / m > rho;
          },
          options.set_join, &join);
    }
    per_call(out, "candidate.setjoin_ms",
             1e-6 * static_cast<double>(monotonic_ns() - t0));
    per_call(out, "candidate.verified_pairs",
             static_cast<double>(join.candidates));
  }
  measure_framework(input, grouping, tracer, out);
}

void emit_layer_metrics(const LayerValues& values, RunResult& result) {
  for (const LayerMetric& m : layer_metrics()) {
    double value = 0.0;
    const auto it = values.find(m.name);
    if (it != values.end()) {
      value = it->second;
      const auto n = values.find(std::string("_n.") + m.name);
      if (n != values.end() && n->second > 0.0) value /= n->second;
    }
    result.add(m.name, value, m.unit, 0, m.source);
  }
}

}  // namespace perfbench
