// Batch workloads: the library's public API in-process.
//
//   batch_scale  one synthetic campaign at n = 10^5 accounts (the shape of
//                bench/scalability: 90% legitimate schedules, 10% Sybil
//                clones in groups of 5), grouped by AG-TR and by AG-TS on
//                the candidate paths, each followed by run_framework.
//                Work: candidate (blocking, cascade, set join), dtw,
//                graph, core.
//   batch_paper  the Fig. 6 + Fig. 7 grid at the paper's n = 18: AG-FP /
//                AG-TS / AG-TR groupings and the CRH / TD-* methods over
//                3 x 5 activeness settings x 5 scenario seeds.  The only
//                workload that runs sensing, signal, ml and the small-n
//                exact grouping paths.
//
// Latency families, one sample per timed public-API call, timed from the
// moment the call's input is handed in:
//   request_*  a grouping call returns         (AG-TR/AG-TS group, run_grouping)
//   fresh_*    a truth result returns          (grouping + run_framework, run_method)
//   read_*     the results are checked         (scale: per grouper; paper: per scenario)
// batch_scale times two calls per family and job (AG-TR, AG-TS), too few
// for a percentile; its *_p50_ms are the trimmed mean over jobs of each
// job's mean of the two, and its *_p99_ms are not reported (see emit()).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/matrix.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/framework.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "http_client.h"
#include "layers.h"
#include "mcs/scenario.h"
#include "ml/elbow.h"
#include "ml/preprocess.h"
#include "obs/metrics.h"
#include "sensing/fingerprint.h"
#include "sensing/imu_stream.h"
#include "truth/crh.h"

namespace perfbench {

namespace sy = sybiltd;

namespace {

constexpr int kSetupRepetitions = 3;

double process_cpu_s() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}


std::size_t report_count(const sy::core::FrameworkInput& input) {
  std::size_t n = 0;
  for (const auto& a : input.accounts) n += a.reports.size();
  return n;
}

// Latency samples and totals shared by both batch workloads.  Samples are
// call latencies in seconds; n is the number of timed calls.
struct BatchLedger {
  struct Job {
    std::vector<double> request, fresh, read;
  };
  std::vector<Job> jobs;
  std::vector<double> job_s;
  double reports = 0.0;
  double busy_s = 0.0;
  double cpu_s = 0.0;

  // The trimmed mean over jobs of each job's median call, so one job
  // slowed by the host is dropped (the batch form of sliced_percentile).
  // A p50 by the percentile rule when every job has ten calls beyond its
  // rank (batch_paper, whose odd call counts make the median the
  // nearest-rank value); otherwise noted as not one.
  void add_p50(RunResult& result, const std::string& name,
               std::vector<double> Job::*family) const {
    std::vector<double> per_job;
    std::size_t calls = 0;
    bool rule = !jobs.empty();
    for (const Job& job : jobs) {
      per_job.push_back(median(job.*family));
      calls += (job.*family).size();
      rule = rule && percentile(job.*family, 0.5).reportable;
    }
    result.add(name, 1e3 * trimmed_mean(per_job), "ms", calls);
    if (!rule) {
      result.notes.push_back(
          name + ": not a percentile, the trimmed mean over " +
          std::to_string(jobs.size()) + " jobs of each job's median of its " +
          std::to_string(calls / std::max<std::size_t>(jobs.size(), 1)) +
          " calls (too few for ten beyond the rank)");
    }
  }

  // The nearest-rank p99 of every call of the run, or 0 with a note when
  // fewer than ten calls lie beyond its rank.
  void add_p99(RunResult& result, const std::string& name,
               std::vector<double> Job::*family) const {
    std::vector<double> calls;
    for (const Job& job : jobs) {
      calls.insert(calls.end(), (job.*family).begin(), (job.*family).end());
    }
    const Percentile p = percentile(calls, 0.99);
    result.add(name, p.reportable ? 1e3 * p.value : 0.0, "ms", p.samples);
    if (!p.reportable) {
      result.notes.push_back(name + ": not reported, " +
                             std::to_string(p.beyond) + " of " +
                             std::to_string(p.samples) +
                             " calls beyond the rank");
    }
  }

  void add_tails(RunResult& result) const {
    add_p99(result, "request_p99_ms", &Job::request);
    add_p99(result, "fresh_p99_ms", &Job::fresh);
    add_p99(result, "read_p99_ms", &Job::read);
  }

  void emit(RunResult& result, const std::vector<double>& setups) const {
    result.add("setup_s", median(setups), "s", setups.size());
    result.add("reports_per_s", reports / std::max(busy_s, 1e-9), "reports/s");
    result.add("cpu_us_per_report", 1e6 * cpu_s / std::max(reports, 1.0), "us");
    add_p50(result, "request_p50_ms", &Job::request);
    add_p50(result, "fresh_p50_ms", &Job::fresh);
    add_p50(result, "read_p50_ms", &Job::read);
    result.add("batch_s", trimmed_mean(job_s), "s", job_s.size());
    result.add("peak_rss_mb", peak_rss_mb("self"), "MB");
    // Tails are per-layer metrics (traced run); print them here too.
    RunResult tails;
    add_tails(tails);
    for (const Metric& m : tails.metrics) {
      result.notes.push_back(m.name + " " + std::to_string(m.value) + " " +
                             m.unit + " (n=" + std::to_string(m.samples) + ")");
    }
    result.notes.insert(result.notes.end(), tails.notes.begin(), tails.notes.end());
  }
};

// The traced run's own end-to-end figures (from its public-API job), as
// notes: their gap to an untraced run is the tracing overhead.
void note_e2e(const BatchLedger& ledger, const std::vector<double>& setups,
              RunResult& result) {
  RunResult e2e;
  ledger.emit(e2e, setups);
  for (const Metric& m : e2e.metrics) {
    result.notes.push_back("traced-run e2e " + m.name + " " +
                           std::to_string(m.value) + " " + m.unit);
  }
}

// obs::snapshot() readers for the in-process counters.
double counter(const sy::obs::MetricsSnapshot& s, const std::string& name) {
  double total = 0.0;
  for (const auto& c : s.counters) {
    if (c.name == name) total += static_cast<double>(c.value);
  }
  return total;
}

double histogram_delta_p99(const sy::obs::MetricsSnapshot& before,
                           const sy::obs::MetricsSnapshot& after,
                           const std::string& name) {
  std::map<double, double> buckets;
  for (const auto& h : after.histograms) {
    if (h.name != name || !h.label_key.empty()) continue;
    for (const auto& b : h.buckets) buckets[b.upper_edge] += static_cast<double>(b.count);
  }
  for (const auto& h : before.histograms) {
    if (h.name != name || !h.label_key.empty()) continue;
    for (const auto& b : h.buckets) buckets[b.upper_edge] -= static_cast<double>(b.count);
  }
  std::vector<double> edges;
  std::vector<double> counts;
  for (const auto& [edge, count] : buckets) {
    edges.push_back(edge);
    counts.push_back(count);
  }
  return bucket_percentile(edges, counts, 0.99);
}

void pool_and_dtw_layers(const sy::obs::MetricsSnapshot& before,
                         const sy::obs::MetricsSnapshot& after,
                         LayerValues& out) {
  out["dtw.evals"] = counter(after, "dtw.evals") - counter(before, "dtw.evals");
  out["common.pool_queue_wait_p99_us"] =
      histogram_delta_p99(before, after, "threadpool.queue_wait_us");
  out["common.pool_steal_frac"] =
      (counter(after, "threadpool.stolen") - counter(before, "threadpool.stolen")) /
      std::max(counter(after, "threadpool.executed") -
                   counter(before, "threadpool.executed"),
               1.0);
}

// ---------------------------------------------------------------------------
// batch_scale

struct ScaleCampaign {
  sy::core::FrameworkInput input;
  std::vector<std::size_t> planted;  // planted group per account
};

// Same shape as bench/scalability's generator: m = n / 250 tasks, 4..12
// distinct tasks per schedule, clones replaying one schedule shifted by a
// per-clone constant.
ScaleCampaign make_scale_campaign(std::size_t n, std::uint64_t seed) {
  ScaleCampaign out;
  const std::size_t m = std::max<std::size_t>(64, n / 250);
  const double window_hours = std::max(2.0, static_cast<double>(n) / 5000.0);
  const std::size_t groups = n / 50;
  const std::size_t legit = n - groups * 5;
  out.input.task_count = m;
  out.input.accounts.reserve(n);
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::size_t> task_of(0, m - 1);
  std::uniform_int_distribution<std::size_t> schedule_len(4, 12);
  std::uniform_real_distribution<double> start_of(0.0, window_hours);
  std::uniform_real_distribution<double> gap(0.05, 0.3);
  std::normal_distribution<double> truth(-60.0, 5.0);
  std::normal_distribution<double> noise(0.0, 2.0);
  std::uniform_real_distribution<double> clone_offset(0.0, 0.02);
  std::vector<double> task_truth(m);
  for (double& t : task_truth) t = truth(rng);

  std::vector<sy::core::AccountObservation> schedule;
  const auto make_schedule = [&] {
    const std::size_t len = schedule_len(rng);
    std::vector<std::size_t> tasks;
    while (tasks.size() < len) {
      const std::size_t t = task_of(rng);
      if (std::find(tasks.begin(), tasks.end(), t) == tasks.end()) tasks.push_back(t);
    }
    double ts = start_of(rng);
    schedule.clear();
    for (const std::size_t t : tasks) {
      schedule.push_back({t, task_truth[t] + noise(rng), ts});
      ts += gap(rng);
    }
  };
  for (std::size_t i = 0; i < legit; ++i) {
    make_schedule();
    sy::core::AccountTrace trace;
    trace.reports = schedule;
    out.input.accounts.push_back(std::move(trace));
    out.planted.push_back(i);
  }
  for (std::size_t g = 0; g < groups; ++g) {
    make_schedule();
    for (std::size_t c = 0; c < 5; ++c) {
      sy::core::AccountTrace trace;
      trace.reports = schedule;
      const double shift = clone_offset(rng);
      for (auto& r : trace.reports) {
        r.timestamp_hours += shift;
        r.value = -50.0 + 0.5 * noise(rng);
      }
      out.input.accounts.push_back(std::move(trace));
      out.planted.push_back(legit + g);
    }
  }
  return out;
}

// Pairwise recall of `got` against the planted partition.
double planted_recall(const std::vector<std::size_t>& planted,
                      const std::vector<std::size_t>& got) {
  std::map<std::size_t, std::vector<std::size_t>> members;
  for (std::size_t i = 0; i < planted.size(); ++i) members[planted[i]].push_back(i);
  double positives = 0.0;
  double hits = 0.0;
  for (const auto& [group, accounts] : members) {
    for (std::size_t a = 0; a < accounts.size(); ++a) {
      for (std::size_t b = a + 1; b < accounts.size(); ++b) {
        positives += 1.0;
        if (got[accounts[a]] == got[accounts[b]]) hits += 1.0;
      }
    }
  }
  return positives == 0.0 ? 1.0 : hits / positives;
}

sy::core::AgTrOptions scale_agtr_options() {
  sy::core::AgTrOptions o;
  o.candidates.mode = sy::candidate::Mode::kOn;
  return o;
}

sy::core::AgTsOptions scale_agts_options() {
  sy::core::AgTsOptions o;
  o.rho = 0.0;  // clones share 4..12 of n / 250 tasks; rho = 1 never links
  o.candidates.mode = sy::candidate::Mode::kOn;
  return o;
}

// One job: both groupers, each followed by run_framework, plus checks.
void scale_job(const ScaleCampaign& campaign, BatchLedger& ledger,
               RunResult& result) {
  const double reports = static_cast<double>(report_count(campaign.input));
  const double job_start = now_s();
  const double cpu_start = process_cpu_s();
  BatchLedger::Job& samples = ledger.jobs.emplace_back();
  bool recall_ok = true;
  bool truths_ok = true;
  for (int method = 0; method < 2; ++method) {
    const double t0 = now_s();
    const sy::core::AccountGrouping grouping =
        method == 0 ? sy::core::AgTr(scale_agtr_options()).group(campaign.input)
                    : sy::core::AgTs(scale_agts_options()).group(campaign.input);
    const double t1 = now_s();
    const sy::core::FrameworkResult fw =
        sy::core::run_framework(campaign.input, grouping);
    const double t2 = now_s();
    recall_ok = recall_ok && planted_recall(campaign.planted, grouping.labels()) == 1.0;
    truths_ok = truths_ok && fw.converged &&
                std::all_of(fw.truths.begin(), fw.truths.end(),
                            [](double v) { return std::isfinite(v); });
    const double t3 = now_s();
    samples.request.push_back(t1 - t0);
    samples.fresh.push_back(t2 - t0);
    samples.read.push_back(t3 - t0);
    ledger.reports += reports;
  }
  ledger.job_s.push_back(now_s() - job_start);
  ledger.busy_s += now_s() - job_start;
  ledger.cpu_s += process_cpu_s() - cpu_start;
  result.check(recall_ok, "AG-TR and AG-TS recover every planted 5-clone group "
                          "(pairwise recall 1.0)");
  result.check(truths_ok, "run_framework converged with finite truths");
}

void traced_scale_job(const ScaleCampaign& campaign, Tracer& tracer,
                      LayerValues& out) {
  Tracer::Scope job(tracer, "job");
  measure_agtr_framework(campaign.input, scale_agtr_options(), tracer, out);
  measure_agts_framework(campaign.input, scale_agts_options().rho, tracer, out);
}

// The traced part of a batch run, after the public-API jobs in `ledger`
// (the first half of the window): pairs of the decomposed job, without
// then with spans, until `deadline` (the median traced / plain ratio is
// the tracing overhead);
// per-job counter deltas from obs::snapshot(); every per-layer metric;
// spans written out.
template <typename TracedJob>
void finish_traced(const Options& options, double deadline,
                   const BatchLedger& ledger, const std::vector<double>& setups,
                   RunResult& result, TracedJob&& traced_job) {
  Tracer tracer;
  LayerValues layers;
  const auto before = sy::obs::snapshot();
  std::vector<double> ratios;  // traced / plain, one per pair
  std::size_t traced_jobs = 0;
  do {
    LayerValues discard;
    tracer.set_enabled(false);
    double t = now_s();
    traced_job(tracer, discard);
    const double plain_s = now_s() - t;
    tracer.set_enabled(true);
    t = now_s();
    traced_job(tracer, layers);
    ratios.push_back((now_s() - t) / plain_s);
    ++traced_jobs;
  } while (now_s() < deadline);
  const auto after = sy::obs::snapshot();
  pool_and_dtw_layers(before, after, layers);
  // Both halves of every pair count DTW evaluations.
  layers["dtw.evals"] /= static_cast<double>(2 * traced_jobs);
  const double hits = counter(after, "fft.plan_hits") +
                      counter(after, "welch.plan_hits") -
                      counter(before, "fft.plan_hits") -
                      counter(before, "welch.plan_hits");
  const double misses = counter(after, "fft.plan_misses") +
                        counter(after, "welch.plan_misses") -
                        counter(before, "fft.plan_misses") -
                        counter(before, "welch.plan_misses");
  layers["signal.plan_hit_frac"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  layers["trace.overhead_frac"] = median(ratios) - 1.0;
  emit_layer_metrics(layers, result);
  ledger.add_tails(result);
  note_e2e(ledger, setups, result);
  write_spans(tracer, options, result);
}

RunResult run_scale(const Options& options) {
  const double process_start = now_s();
  RunResult result;
  add_machine_context(result);
  constexpr std::size_t kAccounts = 100000;
  std::vector<double> setups;
  ScaleCampaign campaign;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = rep == 0 ? process_start : now_s();
    campaign = make_scale_campaign(kAccounts, options.seed);
    setups.push_back(now_s() - start);
  }
  result.set_context("setup_s_each", json_list(setups));
  result.set_context("accounts", std::to_string(kAccounts));
  result.set_context("tasks", std::to_string(campaign.input.task_count));
  result.set_context("reports", std::to_string(report_count(campaign.input)));

  // The traced run gives the first half of its window to public-API jobs
  // (for the tails) and the rest to the decomposed jobs (for the layers).
  BatchLedger ledger;
  const double deadline = now_s() + options.seconds;
  const double public_until =
      options.trace ? now_s() + 0.5 * options.seconds : deadline;
  do {
    scale_job(campaign, ledger, result);
  } while (now_s() < public_until);
  result.set_context("job_s", json_list(ledger.job_s));
  if (options.trace) {
    finish_traced(options, deadline, ledger, setups, result,
                  [&](Tracer& tracer, LayerValues& layers) {
                    traced_scale_job(campaign, tracer, layers);
                  });
    return result;
  }
  ledger.emit(result, setups);
  return result;
}

// ---------------------------------------------------------------------------
// batch_paper

const std::vector<double> kSybil{0.2, 0.4, 0.6, 0.8, 1.0};
const double kLegit[] = {0.2, 0.5, 1.0};
constexpr std::size_t kSeedsPerPoint = 5;
const sy::eval::GroupingMethod kGroupings[] = {sy::eval::GroupingMethod::kAgFp,
                                               sy::eval::GroupingMethod::kAgTs,
                                               sy::eval::GroupingMethod::kAgTr};
const sy::eval::Method kMethods[] = {sy::eval::Method::kCrh, sy::eval::Method::kTdFp,
                                     sy::eval::Method::kTdTs, sy::eval::Method::kTdTr,
                                     sy::eval::Method::kTdOracle};

// Printed means of a figure's CSV section: "legit,sybil,method" -> "%.4f".
using FigureCsv = std::map<std::string, std::string>;

FigureCsv read_figure_csv(const std::string& path) {
  FigureCsv rows;
  std::ifstream in(path);
  bool csv = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("legit,sybil,method", 0) == 0) {
      csv = true;
      continue;
    }
    if (!csv || line.empty()) continue;
    std::vector<std::string> f;
    std::stringstream ss(line);
    for (std::string cell; std::getline(ss, cell, ',');) f.push_back(cell);
    if (f.size() >= 4) rows[f[0] + "," + f[1] + "," + f[2]] = f[3];
  }
  return rows;
}

std::string cell_key(double legit, double sybil, const std::string& method) {
  char key[64];
  std::snprintf(key, sizeof(key), "%.1f,%.1f,%s", legit, sybil, method.c_str());
  return key;
}

std::string printed(double mean) {
  char value[32];
  std::snprintf(value, sizeof(value), "%.4f", mean);
  return value;
}

struct PaperGrid {
  std::vector<sy::mcs::ScenarioConfig> configs;
  std::vector<sy::mcs::ScenarioData> scenarios;
  std::vector<std::pair<double, double>> cell;  // (legit, sybil) activeness
};

// The Fig. 6 grid at the figure's own scenario seeds (base 9000 + 1000 s,
// as eval::sweep_ari_stats builds it), so every pass's ARI means are
// checked against results/fig6.txt.  The run seed only shuffles the order
// in which the scenarios run: a grid drawn from the run seed made the
// per-report cost, and with it every metric, swing 25% from seed to seed.
PaperGrid make_paper_grid(std::uint64_t seed) {
  PaperGrid canonical;
  for (const double legit : kLegit) {
    for (const double sybil : kSybil) {
      for (std::size_t s = 0; s < kSeedsPerPoint; ++s) {
        canonical.configs.push_back(
            sy::mcs::make_paper_scenario(legit, sybil, 9000 + 1000 * s));
        canonical.scenarios.push_back(
            sy::mcs::generate_scenario(canonical.configs.back()));
        canonical.cell.emplace_back(legit, sybil);
      }
    }
  }
  std::vector<std::size_t> order(canonical.configs.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  PaperGrid grid;
  for (const std::size_t i : order) {
    grid.configs.push_back(canonical.configs[i]);
    grid.scenarios.push_back(std::move(canonical.scenarios[i]));
    grid.cell.push_back(canonical.cell[i]);
  }
  return grid;
}

void paper_pass(const PaperGrid& grid, const FigureCsv& fig6,
                BatchLedger& ledger, RunResult& result) {
  const double pass_start = now_s();
  const double cpu_start = process_cpu_s();
  BatchLedger::Job& samples = ledger.jobs.emplace_back();
  std::map<std::string, double> ari_sum;
  bool finite = true;
  for (std::size_t k = 0; k < grid.scenarios.size(); ++k) {
    const sy::mcs::ScenarioData& data = grid.scenarios[k];
    std::size_t n = 0;
    for (const auto& a : data.accounts) n += a.reports.size();
    const double t0 = now_s();
    for (const auto method : kGroupings) {
      const double ari = sy::eval::run_grouping(method, data).ari;
      samples.request.push_back(now_s() - t0);
      ari_sum[cell_key(grid.cell[k].first, grid.cell[k].second,
                       sy::eval::grouping_method_name(method))] += ari;
    }
    const double t1 = now_s();
    for (const auto method : kMethods) {
      const double mae = sy::eval::run_method(method, data).mae;
      samples.fresh.push_back(now_s() - t1);
      finite = finite && std::isfinite(mae);
    }
    samples.read.push_back(now_s() - t0);
    ledger.reports += static_cast<double>(n) * (3 + 5);
  }
  ledger.job_s.push_back(now_s() - pass_start);
  ledger.busy_s += now_s() - pass_start;
  ledger.cpu_s += process_cpu_s() - cpu_start;
  std::size_t equal = 0;
  for (const auto& [key, sum] : ari_sum) {
    const auto it = fig6.find(key);
    if (it != fig6.end() && it->second == printed(sum / kSeedsPerPoint)) ++equal;
  }
  result.check(finite && equal == 45 && ari_sum.size() == 45 && fig6.size() == 45,
               "pass ARI means equal results/fig6.txt (" +
                   std::to_string(equal) + "/45 cells), every MAE finite");
}

// Fig. 7 MAE at the figure's own seeds (base 4000) against its CSV.
void check_fig7(RunResult& result) {
  const FigureCsv fig7 = read_figure_csv("results/fig7.txt");
  std::size_t equal = 0;
  for (const double legit : kLegit) {
    for (const auto method : kMethods) {
      const auto stats = sy::eval::sweep_mae_stats(method, legit, kSybil,
                                                   kSeedsPerPoint, 4000);
      for (std::size_t i = 0; i < kSybil.size(); ++i) {
        const auto it =
            fig7.find(cell_key(legit, kSybil[i], sy::eval::method_name(method)));
        if (it != fig7.end() && it->second == printed(stats[i].mean)) ++equal;
      }
    }
  }
  result.check(equal == 75 && fig7.size() == 75,
               "Fig. 7 MAE at the figure's seeds equals results/fig7.txt (" +
                   std::to_string(equal) + "/75 cells)");
}

void traced_paper_pass(const PaperGrid& grid, Tracer& tracer,
                       LayerValues& out) {
  Tracer::Scope pass(tracer, "pass");
  for (std::size_t k = 0; k < grid.configs.size(); ++k) {
    const sy::mcs::ScenarioConfig& config = grid.configs[k];
    Tracer::Scope scenario(tracer, "scenario", k + 1);
    std::uint64_t t0 = monotonic_ns();
    sy::mcs::ScenarioData data;
    {
      Tracer::Scope span(tracer, "mcs/scenario", k + 1);
      data = sy::mcs::generate_scenario(config);
    }
    per_call(out, "mcs.scenario_ms", 1e-6 * static_cast<double>(monotonic_ns() - t0));

    // Fingerprint featurization of one fresh capture per account.
    sy::Rng rng(config.seed);
    for (const auto& account : data.accounts) {
      const auto capture =
          sy::sensing::capture_imu(data.devices[account.device], config.capture, rng);
      t0 = monotonic_ns();
      {
        Tracer::Scope span(tracer, "signal/featurize", k + 1);
        sy::sensing::fingerprint_features(sy::sensing::to_streams(capture));
      }
      per_call(out, "signal.featurize_us_per_capture",
               1e-3 * static_cast<double>(monotonic_ns() - t0));
    }

    const sy::core::FrameworkInput input = sy::eval::to_framework_input(data);
    // The elbow scan AG-FP runs, on the same standardized features.
    const std::size_t dim = input.accounts.front().fingerprint.size();
    sy::Matrix features(input.accounts.size(), dim);
    for (std::size_t r = 0; r < input.accounts.size(); ++r) {
      for (std::size_t c = 0; c < dim; ++c) features(r, c) = input.accounts[r].fingerprint[c];
    }
    features = sy::ml::standardize(features);
    sy::ml::ElbowOptions elbow = sy::core::AgFpOptions{}.elbow;
    elbow.kmeans.seed = sy::core::AgFpOptions{}.seed;
    t0 = monotonic_ns();
    {
      Tracer::Scope span(tracer, "ml/elbow", k + 1);
      sy::ml::elbow_select_k(features, elbow);
    }
    per_call(out, "ml.elbow_ms", 1e-6 * static_cast<double>(monotonic_ns() - t0));

    t0 = monotonic_ns();
    {
      Tracer::Scope span(tracer, "core/ag_fp", k + 1);
      sy::core::AgFp().group(input);
    }
    per_call(out, "core.ag_fp_s", 1e-9 * static_cast<double>(monotonic_ns() - t0));

    sy::core::AgTrStats stats;
    t0 = monotonic_ns();
    {
      Tracer::Scope span(tracer, "core/ag_tr", k + 1);
      sy::core::AgTr().group_with_stats(input, &stats);
    }
    per_call(out, "core.ag_tr_s", 1e-9 * static_cast<double>(monotonic_ns() - t0));
    measure_agts_framework(input, sy::core::AgTsOptions{}.rho, tracer, out);

    t0 = monotonic_ns();
    {
      Tracer::Scope span(tracer, "truth/crh", k + 1);
      sy::truth::Crh().run(sy::eval::to_observation_table(data));
    }
    per_call(out, "truth.crh_ms", 1e-6 * static_cast<double>(monotonic_ns() - t0));
  }
}

RunResult run_paper(const Options& options) {
  const double process_start = now_s();
  RunResult result;
  add_machine_context(result);
  std::vector<double> setups;
  PaperGrid grid;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    const double start = rep == 0 ? process_start : now_s();
    grid = make_paper_grid(options.seed);
    setups.push_back(now_s() - start);
  }
  result.set_context("setup_s_each", json_list(setups));
  result.set_context("scenarios", std::to_string(grid.scenarios.size()));

  const FigureCsv fig6 = read_figure_csv("results/fig6.txt");
  BatchLedger ledger;
  const double deadline = now_s() + options.seconds;
  const double public_until =
      options.trace ? now_s() + 0.5 * options.seconds : deadline;
  do {
    paper_pass(grid, fig6, ledger, result);
  } while (now_s() < public_until);
  result.set_context("pass_s", json_list(ledger.job_s));
  if (options.trace) {
    finish_traced(options, deadline, ledger, setups, result,
                  [&](Tracer& tracer, LayerValues& layers) {
                    traced_paper_pass(grid, tracer, layers);
                  });
    return result;
  }
  // The untimed figure check may use every core.
  sy::ThreadPool::set_global_concurrency(sy::ThreadPool::configured_concurrency());
  check_fig7(result);
  ledger.emit(result, setups);
  return result;
}

}  // namespace

RunResult run_batch(const Options& options) {
  // The batch workloads run on the calling thread alone: on a virtual
  // machine every wake-up of an idle pool worker waits for the host
  // scheduler, which made pass times swing run to run, and at these sizes
  // the pool bought no throughput (n = 10^5: 370k vs 360k reports/s).
  sy::ThreadPool::set_global_concurrency(1);
  RunResult result = options.workload == "batch_scale" ? run_scale(options)
                                                       : run_paper(options);
  result.set_context("pool_threads", "1");
  result.set_context("workload", json_string(options.workload));
  result.set_context("seed", std::to_string(options.seed));
  return result;
}

}  // namespace perfbench
