// Google-benchmark microbenchmarks of the computational substrates: FFT,
// feature extraction, DTW, k-means, elbow, truth discovery, the grouping
// methods and the full framework.
//
// `--json` is shorthand for google-benchmark's `--benchmark_format=json`;
// the CI perf-smoke job captures that output and diffs it against the
// committed BENCH_baseline.json with bench/compare_bench.py.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/ag_fp.h"
#include "core/ag_tr.h"
#include "core/ag_ts.h"
#include "core/data_grouping.h"
#include "core/framework.h"
#include "dtw/dtw.h"
#include "eval/adapters.h"
#include "eval/experiment.h"
#include "ml/elbow.h"
#include "ml/kmeans.h"
#include "ml/pca.h"
#include "obs/metrics.h"
#include "pipeline/engine.h"
#include "pipeline/status_json.h"
#include "sensing/fingerprint.h"
#include "server/report_decode.h"
#include "server/snapshot_cache.h"
#include "signal/features.h"
#include "signal/fft.h"
#include "signal/welch.h"
#include "simd/simd.h"
#include "truth/crh.h"

// Replacement global operator new/delete forwarding to malloc/free with an
// opt-in counter (same idiom as tests/workspace_test.cpp): the decode
// benchmarks report heap allocations per iteration as `allocs_per_op`, and
// the CI perf-smoke job asserts it is exactly 0 for BM_ReportDecodeFast —
// the zero-copy claim is measured, not asserted in prose.
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

using namespace sybiltd;

namespace {

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-1, 1);
  return out;
}

// Delta of a registry counter across the timed loop, attached to the
// benchmark as a per-iteration rate: proves zero-alloc / cache-hit claims
// directly in the `--json` report instead of a separate test binary.
// compare_bench.py only reads the timing metric, so the extra counters
// never affect the perf gate.
class CounterDelta {
 public:
  explicit CounterDelta(const char* name)
      : counter_(obs::MetricsRegistry::global().counter(name)),
        start_(counter_.value()) {}
  double delta() const {
    return static_cast<double>(counter_.value() - start_);
  }

 private:
  obs::Counter& counter_;
  std::uint64_t start_;
};

// The active SIMD dispatch level (0=scalar 1=sse2 2=neon 3=avx2) as a
// user counter, so the `--json` report records which kernel backend the
// numbers were measured with.  The CI perf-smoke job asserts this is > 0
// on its x86-64 runner (i.e. the vector path was actually selected).
void attach_simd_level(benchmark::State& state) {
  state.counters["simd_level"] =
      static_cast<double>(static_cast<int>(simd::active_level()));
}

void BM_FftPowerOfTwo(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::fft_real(x));
  }
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_FftPowerOfTwo)->RangeMultiplier(4)->Range(64, 16384)
    ->Complexity(benchmark::oNLogN);

void BM_FftBluestein(benchmark::State& state) {
  // Prime-ish lengths force the chirp-z path.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto x = random_series(n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::fft_real(x));
  }
}
BENCHMARK(BM_FftBluestein)->Arg(601)->Arg(1201)->Arg(4801);

void BM_WelchPsd(benchmark::State& state) {
  // welch_psd_into with reused output storage: zero heap allocations per
  // call once the WelchPlan and workspace buffers are warm.  The registry
  // deltas back that up in the JSON report: ws_heap_allocs/iter ~ 0 and
  // plan_misses/iter ~ 0 once warm, while plan_hits tracks iterations.
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 13);
  signal::PowerSpectralDensity out;
  signal::welch_psd_into(x, 100.0, {}, out);  // warm plan + workspace
  CounterDelta heap_allocs("workspace.heap_allocations");
  CounterDelta plan_hits("welch.plan_hits");
  CounterDelta plan_misses("welch.plan_misses");
  for (auto _ : state) {
    signal::welch_psd_into(x, 100.0, {}, out);
    benchmark::DoNotOptimize(out.psd.data());
  }
  state.counters["ws_heap_allocs"] =
      benchmark::Counter(heap_allocs.delta(), benchmark::Counter::kAvgIterations);
  state.counters["plan_hits"] =
      benchmark::Counter(plan_hits.delta(), benchmark::Counter::kAvgIterations);
  state.counters["plan_misses"] =
      benchmark::Counter(plan_misses.delta(), benchmark::Counter::kAvgIterations);
  attach_simd_level(state);
}
BENCHMARK(BM_WelchPsd)->Arg(600)->Arg(6000);

void BM_StreamFeatures(benchmark::State& state) {
  const auto x = random_series(static_cast<std::size_t>(state.range(0)), 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(signal::extract_stream_features(x));
  }
}
BENCHMARK(BM_StreamFeatures)->Arg(600)->Arg(6000);

void BM_FingerprintCapture(benchmark::State& state) {
  sensing::Device device(sensing::find_model("iPhone 6S"), 9);
  Rng rng(4);
  for (auto _ : state) {
    Rng r = rng.split();
    benchmark::DoNotOptimize(sensing::capture_fingerprint(device, {}, r));
  }
}
BENCHMARK(BM_FingerprintCapture);

void BM_DtwFull(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto a = random_series(n, 5);
  const auto b = random_series(n, 6);
  benchmark::DoNotOptimize(dtw::dtw_distance(a, b));  // warm workspace
  CounterDelta heap_allocs("workspace.heap_allocations");
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distance(a, b));
  }
  state.counters["ws_heap_allocs"] =
      benchmark::Counter(heap_allocs.delta(), benchmark::Counter::kAvgIterations);
  state.SetComplexityN(static_cast<benchmark::IterationCount>(n));
}
BENCHMARK(BM_DtwFull)->RangeMultiplier(2)->Range(16, 512)
    ->Complexity(benchmark::oNSquared);

void BM_DtwBanded(benchmark::State& state) {
  const auto a = random_series(512, 7);
  const auto b = random_series(512, 8);
  dtw::DtwOptions opt;
  opt.band = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distance(a, b, opt));
  }
}
BENCHMARK(BM_DtwBanded)->Arg(8)->Arg(32)->Arg(128)->Arg(0);

void BM_DtwZnorm(benchmark::State& state) {
  const auto a = random_series(512, 21);
  const auto b = random_series(512, 22);
  dtw::DtwOptions opt;
  opt.band = 32;
  benchmark::DoNotOptimize(dtw::dtw_distance_znorm(a, b, opt));
  CounterDelta heap_allocs("workspace.heap_allocations");
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_distance_znorm(a, b, opt));
  }
  state.counters["ws_heap_allocs"] =
      benchmark::Counter(heap_allocs.delta(), benchmark::Counter::kAvgIterations);
  attach_simd_level(state);
}
BENCHMARK(BM_DtwZnorm);

void BM_DtwWavefront(benchmark::State& state) {
  // The cost-only DP: at vector levels this runs the diagonal-wavefront
  // recurrence through the dtw_wave_cost kernel, at scalar the serial
  // rolling rows — the same number the AG-TR kTotalCost mode consumes.
  const auto a = random_series(512, 23);
  const auto b = random_series(512, 24);
  benchmark::DoNotOptimize(dtw::dtw_total_cost(a, b));  // warm workspace
  for (auto _ : state) {
    benchmark::DoNotOptimize(dtw::dtw_total_cost(a, b));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_DtwWavefront);

void BM_KMeans(benchmark::State& state) {
  Rng rng(9);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  Matrix data(n, 20);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  ml::KMeansOptions opt;
  opt.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(data, 8, opt));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_KMeans)->Arg(50)->Arg(200)->Arg(800);

void BM_KmeansAssign(benchmark::State& state) {
  // The assignment scan in isolation: 800 points x 8 centroids in 20
  // dimensions, each distance one squared_distance kernel call — the inner
  // loop Lloyd iterations and k-means++ seeding spend their time in.
  Rng rng(14);
  Matrix data(800, 20);
  for (std::size_t r = 0; r < 800; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  Matrix centroids(8, 20);
  for (std::size_t r = 0; r < 8; ++r) {
    for (std::size_t c = 0; c < 20; ++c) centroids(r, c) = rng.normal();
  }
  std::vector<std::size_t> labels(800, 0);
  for (auto _ : state) {
    for (std::size_t i = 0; i < 800; ++i) {
      double best = ml::squared_distance(data.row(i), centroids.row(0));
      std::size_t arg = 0;
      for (std::size_t j = 1; j < 8; ++j) {
        const double d = ml::squared_distance(data.row(i), centroids.row(j));
        if (d < best) {
          best = d;
          arg = j;
        }
      }
      labels[i] = arg;
    }
    benchmark::DoNotOptimize(labels.data());
  }
  attach_simd_level(state);
}
BENCHMARK(BM_KmeansAssign);

void BM_ElbowScan(benchmark::State& state) {
  Rng rng(10);
  Matrix data(40, 20);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::elbow_select_k(data, {}));
  }
}
BENCHMARK(BM_ElbowScan);

void BM_Pca(benchmark::State& state) {
  Rng rng(11);
  Matrix data(60, 80);
  for (std::size_t r = 0; r < 60; ++r) {
    for (std::size_t c = 0; c < 80; ++c) data(r, c) = rng.normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::fit_pca(data, 2));
  }
}
BENCHMARK(BM_Pca);

const mcs::ScenarioData& shared_scenario() {
  static const mcs::ScenarioData data =
      mcs::generate_scenario(mcs::make_paper_scenario(0.5, 0.5, 1234));
  return data;
}

void BM_ScenarioGeneration(benchmark::State& state) {
  std::uint64_t seed = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        mcs::generate_scenario(mcs::make_paper_scenario(0.5, 0.5, seed++)));
  }
}
BENCHMARK(BM_ScenarioGeneration);

void BM_Crh(benchmark::State& state) {
  const auto table = eval::to_observation_table(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(truth::Crh().run(table));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_Crh);

void BM_CrhIterate(benchmark::State& state) {
  // One framework CRH sweep (weight + truth estimation) over a dense
  // synthetic workload: 512 tasks x 64 groups, every group reporting every
  // task.  Exercises residual_sq, weighted_sum_gather, safe_divide and
  // max_abs_diff with no grouping or convergence logic in the timer.
  constexpr std::size_t kTasks = 512;
  constexpr std::size_t kAccounts = 64;
  Rng rng(15);
  core::FrameworkInput input;
  input.task_count = kTasks;
  input.accounts.resize(kAccounts);
  for (std::size_t i = 0; i < kAccounts; ++i) {
    input.accounts[i].reports.reserve(kTasks);
    for (std::size_t j = 0; j < kTasks; ++j) {
      input.accounts[i].reports.push_back(
          {j, rng.uniform(-1, 1), static_cast<double>(j)});
    }
  }
  const auto grouping = core::AccountGrouping::singletons(kAccounts);
  const core::GroupedData grouped = core::group_data(input, grouping, {});
  const auto norm = core::framework_task_normalizers(grouped, kTasks);
  const auto initial = core::framework_initial_truths(grouped, kTasks, true);
  std::vector<double> truths;
  std::vector<double> group_weights(kAccounts, 1.0);
  for (auto _ : state) {
    // Reset the truths each iteration so every sweep does the same work.
    truths = initial;
    benchmark::DoNotOptimize(core::framework_iterate_once(
        grouped, norm, 1e-9, truths, group_weights));
  }
  attach_simd_level(state);
}
BENCHMARK(BM_CrhIterate);

void BM_AgFp(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgFp().group(input));
  }
}
BENCHMARK(BM_AgFp);

void BM_AgTs(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgTs().group(input));
  }
}
BENCHMARK(BM_AgTs);

void BM_AgTr(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgTr().group(input));
  }
}
BENCHMARK(BM_AgTr);

void BM_FrameworkEndToEnd(benchmark::State& state) {
  const auto input = eval::to_framework_input(shared_scenario());
  const core::AgTr grouper;
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_framework(input, grouper));
  }
}
BENCHMARK(BM_FrameworkEndToEnd);

// --- Thread-pool scaling of the pairwise kernels ---------------------------
// Arg(0) is the pool size; 1 takes the serial fallback.  A larger
// behavioral-only scenario so the quadratic stage dominates the timer.
// bench/parallel_scaling reports the same sweep as a speedup table plus a
// determinism check.

const mcs::ScenarioData& large_scenario() {
  static const mcs::ScenarioData data = mcs::generate_scenario(
      mcs::make_large_scenario(150, 10, 5, 40, 1234));
  return data;
}

// Restores the SYBILTD_THREADS-configured pool when the sweep item ends,
// so the non-parallel benchmarks above are unaffected by ordering.
struct PoolSizeGuard {
  explicit PoolSizeGuard(std::size_t threads) {
    ThreadPool::set_global_concurrency(threads);
  }
  ~PoolSizeGuard() {
    ThreadPool::set_global_concurrency(
        ThreadPool::configured_concurrency());
  }
};

void BM_AgTrThreads(benchmark::State& state) {
  const auto input = eval::to_framework_input(large_scenario());
  PoolSizeGuard guard(static_cast<std::size_t>(state.range(0)));
  const core::AgTr grouper;
  core::AgTrStats stats;
  for (auto _ : state) {
    benchmark::DoNotOptimize(grouper.group_with_stats(input, &stats));
  }
  state.counters["prune_rate"] =
      stats.pairs > 0 ? static_cast<double>(stats.blocked + stats.lb_pruned +
                                            stats.task_abandoned) /
                            static_cast<double>(stats.pairs)
                      : 0.0;
}
BENCHMARK(BM_AgTrThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_AgTsThreads(benchmark::State& state) {
  const auto input = eval::to_framework_input(large_scenario());
  PoolSizeGuard guard(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::AgTs().group(input));
  }
}
BENCHMARK(BM_AgTsThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_KMeansThreads(benchmark::State& state) {
  Rng rng(12);
  Matrix data(800, 20);
  for (std::size_t r = 0; r < 800; ++r) {
    for (std::size_t c = 0; c < 20; ++c) data(r, c) = rng.normal();
  }
  PoolSizeGuard guard(static_cast<std::size_t>(state.range(0)));
  ml::KMeansOptions opt;
  opt.restarts = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::kmeans(data, 8, opt));
  }
}
BENCHMARK(BM_KMeansThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Contended ingestion hot path: N benchmark threads hammering one started
// engine, the way N event loops do in the multi-loop server.  BM_TrySubmit
// measures the per-report path (wait-free routing + one queue lock per
// report); BM_TrySubmitBatch measures the batched path (one validation
// snapshot + one queue lock per shard per 64-report batch).  Rejected
// pushes (a full shard queue under the 1-consumer-per-shard drain rate)
// still traverse the full path, so items/s stays an honest submit rate.
constexpr std::size_t kSubmitTasks = 64;

pipeline::CampaignEngine* g_submit_engine = nullptr;

void submit_bench_setup(benchmark::State& state) {
  if (state.thread_index() == 0) {
    pipeline::EngineOptions options;
    options.shard_count = 4;
    options.queue_capacity = 1 << 15;
    g_submit_engine = new pipeline::CampaignEngine(options);
    g_submit_engine->add_campaign(kSubmitTasks);
    g_submit_engine->start();
  }
}

void submit_bench_teardown(benchmark::State& state) {
  if (state.thread_index() == 0) {
    g_submit_engine->drain();
    g_submit_engine->stop();
    delete g_submit_engine;
    g_submit_engine = nullptr;
  }
}

void BM_TrySubmit(benchmark::State& state) {
  submit_bench_setup(state);
  pipeline::Report report;
  report.account = static_cast<std::size_t>(state.thread_index());
  std::size_t task = 0;
  for (auto _ : state) {
    report.task = task;
    report.value = static_cast<double>(task);
    task = (task + 1) % kSubmitTasks;
    benchmark::DoNotOptimize(g_submit_engine->try_submit(report));
  }
  state.SetItemsProcessed(state.iterations());
  submit_bench_teardown(state);
}
BENCHMARK(BM_TrySubmit)->ThreadRange(1, 8)->UseRealTime();

void BM_TrySubmitBatch(benchmark::State& state) {
  submit_bench_setup(state);
  constexpr std::size_t kBatch = 64;
  std::vector<pipeline::Report> batch(kBatch);
  for (std::size_t k = 0; k < kBatch; ++k) {
    batch[k].account = static_cast<std::size_t>(state.thread_index());
    batch[k].task = k % kSubmitTasks;
    batch[k].value = static_cast<double>(k);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(g_submit_engine->try_submit_batch(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kBatch));
  submit_bench_teardown(state);
}
BENCHMARK(BM_TrySubmitBatch)->ThreadRange(1, 8)->UseRealTime();

// --- Ingest decode & snapshot rendering ------------------------------------
// The two halves of the zero-copy fast path (docs/PERFORMANCE.md "Ingest
// decode").  Registered arg-less so the CI perf-smoke filter matches the
// plain names.

// A canonical 100-report bare-array batch, the wire shape bench/server_load
// sends.  Varied digits so number parsing isn't unrealistically uniform.
std::string decode_bench_body() {
  std::string body = "[";
  Rng rng(31);
  for (int i = 0; i < 100; ++i) {
    if (i > 0) body += ',';
    body += "{\"account\":" + std::to_string(i) +
            ",\"task\":" + std::to_string(i % kSubmitTasks) +
            ",\"value\":" + std::to_string(rng.uniform(-100, 100)) +
            ",\"timestamp_hours\":" + std::to_string(i / 24) + "}";
  }
  body += "]";
  return body;
}

void attach_alloc_count(benchmark::State& state, std::uint64_t allocs) {
  state.counters["allocs_per_op"] =
      benchmark::Counter(static_cast<double>(allocs),
                         benchmark::Counter::kAvgIterations);
}

void BM_ReportDecodeFast(benchmark::State& state) {
  const std::string body = decode_bench_body();
  {
    // Warm the thread's workspace pool; the timed loop must not heap-allocate.
    const server::DecodedReports warm = server::decode_reports(body, 0, kSubmitTasks);
    if (!warm.ok || !warm.fast_path) {
      state.SkipWithError("fast path did not engage on the canonical body");
      return;
    }
  }
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    const server::DecodedReports decoded =
        server::decode_reports(body, 0, kSubmitTasks);
    benchmark::DoNotOptimize(decoded.reports.data());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
  attach_simd_level(state);
}
BENCHMARK(BM_ReportDecodeFast);

void BM_ReportDecodeGeneric(benchmark::State& state) {
  // The same body through the JsonValue-tree codec the fallback uses: the
  // gap between this and BM_ReportDecodeFast is what the fast path buys.
  const std::string body = decode_bench_body();
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  for (auto _ : state) {
    const server::DecodedReports decoded =
        server::decode_reports(body, 0, kSubmitTasks, /*allow_fast=*/false);
    benchmark::DoNotOptimize(decoded.reports.data());
  }
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(body.size()));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 100);
  attach_alloc_count(state, g_alloc_count.load(std::memory_order_relaxed));
  attach_simd_level(state);
}
BENCHMARK(BM_ReportDecodeGeneric);

void BM_SnapshotRenderCached(benchmark::State& state) {
  // Repeat GETs of one snapshot version: after the first miss every get()
  // is a hash lookup + shared_ptr copy.  cache_hits/iter ~ 1 in the JSON
  // report proves the render really happened once.
  auto snapshot = std::make_shared<pipeline::CampaignSnapshot>();
  snapshot->campaign = 0;
  snapshot->version = 1;
  snapshot->truths.resize(256);
  snapshot->group_of.resize(512);
  snapshot->group_weights.resize(32, 1.0);
  snapshot->group_count = 32;
  Rng rng(32);
  for (auto& t : snapshot->truths) t = rng.uniform(-100, 100);
  for (auto& g : snapshot->group_of) g = static_cast<std::size_t>(rng.uniform(0, 32));
  const std::shared_ptr<const pipeline::CampaignSnapshot> frozen = snapshot;
  server::SnapshotResponseCache cache;
  // The cache counters are a per-campaign labeled family, so the delta reads
  // campaign 0's series rather than a plain registry counter.
  obs::Counter& hit_series =
      obs::MetricsRegistry::global()
          .counter_family("server.snapshot_cache.hits", "campaign")
          .at("0");
  const std::uint64_t hits_before = hit_series.value();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.get(0, frozen, server::SnapshotResponseCache::View::kTruths));
  }
  state.counters["cache_hits"] = benchmark::Counter(
      static_cast<double>(hit_series.value() - hits_before),
      benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_SnapshotRenderCached);

void BM_SnapshotRenderUncached(benchmark::State& state) {
  // The render a cache miss pays, with reused output storage.
  pipeline::CampaignSnapshot snapshot;
  snapshot.campaign = 0;
  snapshot.version = 1;
  snapshot.truths.resize(256);
  snapshot.group_of.resize(512);
  snapshot.group_weights.resize(32, 1.0);
  snapshot.group_count = 32;
  Rng rng(33);
  for (auto& t : snapshot.truths) t = rng.uniform(-100, 100);
  for (auto& g : snapshot.group_of) g = static_cast<std::size_t>(rng.uniform(0, 32));
  std::string out;
  for (auto _ : state) {
    out.clear();
    pipeline::to_json_into(snapshot, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(out.size()));
}
BENCHMARK(BM_SnapshotRenderUncached);

}  // namespace

// BENCHMARK_MAIN plus a `--json` alias for --benchmark_format=json, so CI
// scripts don't need to remember the long flag.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char json_flag[] = "--benchmark_format=json";
  for (char*& arg : args) {
    if (std::strcmp(arg, "--json") == 0) arg = json_flag;
  }
  int adjusted_argc = static_cast<int>(args.size());
  benchmark::Initialize(&adjusted_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(adjusted_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
