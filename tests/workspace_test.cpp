// Tests for the per-thread workspace arena and the cached FFT/Welch plans.
//
// The headline assertions replace this binary's global operator new with a
// counting forwarder to malloc, warm each hot kernel once, and then prove
// the steady state performs *zero* heap allocations — the contract
// documented in src/common/workspace.h.  The cold-vs-cached plan tests
// prove caching never changes a single output bit, and the concurrent
// lookup test gives ThreadSanitizer a target for the plan-cache mutexes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <future>
#include <new>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/workspace.h"
#include "core/data_grouping.h"
#include "core/framework.h"
#include "dtw/dtw.h"
#include "signal/fft.h"
#include "signal/welch.h"

// --- Counting allocation probe ---------------------------------------------
// Replacement global operator new/delete forwarding to malloc/free with an
// opt-in atomic counter.  Replacing the global operators is valid for the
// whole binary and composes with ASan/TSan (their malloc interceptors still
// see every allocation).

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

void* operator new(std::size_t n) {
  if (g_alloc_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sybiltd {
namespace {

// Run `body` with allocation counting on; return how many allocations it
// performed.  `body` must be a plain lambda (std::function would allocate).
template <typename Fn>
std::uint64_t count_allocations(Fn&& body) {
  g_alloc_count.store(0, std::memory_order_relaxed);
  g_alloc_tracking.store(true, std::memory_order_relaxed);
  body();
  g_alloc_tracking.store(false, std::memory_order_relaxed);
  return g_alloc_count.load(std::memory_order_relaxed);
}

std::vector<double> random_series(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.uniform(-1.0, 1.0);
  return out;
}

// --- Arena mechanics --------------------------------------------------------

TEST(WorkspaceTest, BorrowIsWritableAndSized) {
  auto buf = Workspace::local().borrow<double>(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_EQ(buf.span().size(), 100u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    buf[i] = static_cast<double>(i);
  }
  EXPECT_EQ(buf[99], 99.0);
  EXPECT_EQ(buf.end() - buf.begin(), 100);
}

TEST(WorkspaceTest, NestedBorrowsAreDistinct) {
  auto outer = Workspace::local().borrow<double>(64);
  auto inner = Workspace::local().borrow<double>(64);
  EXPECT_NE(outer.data(), inner.data());
  outer[0] = 1.0;
  inner[0] = 2.0;
  EXPECT_EQ(outer[0], 1.0);
  EXPECT_EQ(inner[0], 2.0);
}

TEST(WorkspaceTest, BufferIsReusedAfterRelease) {
  auto& workspace = Workspace::local();
  double* first = nullptr;
  {
    auto buf = workspace.borrow<double>(256);
    first = buf.data();
  }
  const auto before = workspace.stats();
  auto again = workspace.borrow<double>(256);
  const auto after = workspace.stats();
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(after.heap_allocations, before.heap_allocations);
  EXPECT_EQ(after.borrows, before.borrows + 1);
}

TEST(WorkspaceTest, SizeClassBucketing) {
  // A fresh arena so the pool contents are fully known.
  Workspace workspace;
  { auto a = workspace.borrow<double>(1); }
  // 8 doubles still fit the smallest (64-byte) class: pool hit.
  const auto before = workspace.stats();
  { auto b = workspace.borrow<double>(8); }
  EXPECT_EQ(workspace.stats().heap_allocations, before.heap_allocations);
  // 9 doubles (72 bytes) need the next class: pool miss.
  { auto c = workspace.borrow<double>(9); }
  EXPECT_EQ(workspace.stats().heap_allocations,
            before.heap_allocations + 1);
  EXPECT_EQ(workspace.stats().pooled_buffers, 2u);
  workspace.trim();
  EXPECT_EQ(workspace.stats().pooled_buffers, 0u);
  EXPECT_EQ(workspace.stats().pooled_bytes, 0u);
}

TEST(WorkspaceTest, EndTaskScopeOrphansLiveBorrows) {
  Workspace workspace;
  auto leaked = workspace.borrow<double>(32);
  EXPECT_EQ(workspace.stats().live_borrows, 1u);
  workspace.end_task_scope();  // simulates the thread-pool task boundary
  EXPECT_EQ(workspace.stats().live_borrows, 0u);
  leaked.reset();
  // The late release must not re-pool a buffer the arena disowned.
  EXPECT_EQ(workspace.stats().orphaned, 1u);
  EXPECT_EQ(workspace.stats().pooled_buffers, 0u);
}

TEST(WorkspaceTest, EndTaskScopeWithoutLeaksKeepsThePool) {
  Workspace workspace;
  { auto buf = workspace.borrow<double>(32); }
  workspace.end_task_scope();
  // A clean boundary keeps pooled buffers valid for the next task.
  const auto before = workspace.stats();
  { auto buf = workspace.borrow<double>(32); }
  EXPECT_EQ(workspace.stats().heap_allocations, before.heap_allocations);
  EXPECT_EQ(workspace.stats().orphaned, 0u);
}

TEST(WorkspaceTest, PoolTasksReuseTheWorkerArena) {
  // Two tasks on a single-threaded pool land on the same worker thread;
  // the second's borrow must be a pool hit from the first's buffer.
  ThreadPool pool(1);
  std::promise<Workspace::Stats> first_done;
  pool.submit([&] {
    { auto buf = Workspace::local().borrow<double>(512); }
    first_done.set_value(Workspace::local().stats());
  });
  const auto stats1 = first_done.get_future().get();

  std::promise<Workspace::Stats> second_done;
  pool.submit([&] {
    { auto buf = Workspace::local().borrow<double>(512); }
    second_done.set_value(Workspace::local().stats());
  });
  const auto stats2 = second_done.get_future().get();

  EXPECT_EQ(stats2.heap_allocations, stats1.heap_allocations);
  EXPECT_EQ(stats2.borrows, stats1.borrows + 1);
  EXPECT_EQ(stats2.orphaned, 0u);
}

// --- Zero allocations after warm-up ----------------------------------------

TEST(ZeroAllocation, DtwDistanceAfterWarmUp) {
  const auto a = random_series(128, 1);
  const auto b = random_series(128, 2);
  dtw::DtwOptions banded;
  banded.band = 16;

  // Warm-up: one call per shape pools the row buffers.
  dtw::dtw_distance(a, b);
  dtw::dtw_distance(a, b, banded);
  dtw::dtw_distance_znorm(a, b);

  double sink = 0.0;
  const auto allocs = count_allocations([&] {
    for (int i = 0; i < 5; ++i) {
      sink += dtw::dtw_distance(a, b);
      sink += dtw::dtw_distance(a, b, banded);
      sink += dtw::dtw_distance_znorm(a, b);
    }
  });
  EXPECT_EQ(allocs, 0u) << "dtw_distance allocated in steady state";
  EXPECT_TRUE(std::isfinite(sink));
}

TEST(ZeroAllocation, WelchPsdIntoAfterWarmUp) {
  const auto signal_data = random_series(4000, 3);
  signal::PowerSpectralDensity out;
  signal::welch_psd_into(signal_data, 50.0, {}, out);  // warm plan + storage

  const auto allocs = count_allocations([&] {
    for (int i = 0; i < 5; ++i) {
      signal::welch_psd_into(signal_data, 50.0, {}, out);
    }
  });
  EXPECT_EQ(allocs, 0u) << "welch_psd_into allocated in steady state";
  EXPECT_EQ(out.segment_length, 128u);
  EXPECT_GE(out.segments_averaged, 1u);
}

TEST(ZeroAllocation, FrameworkIterateOnceAfterWarmUp) {
  // Small grouped dataset: 3 groups over 4 tasks.
  core::FrameworkInput input;
  input.task_count = 4;
  Rng rng(5);
  for (std::size_t i = 0; i < 6; ++i) {
    core::AccountTrace trace;
    trace.name = "acct" + std::to_string(i);
    for (std::size_t j = 0; j < 4; ++j) {
      trace.reports.push_back(
          {j, rng.uniform(-10.0, 10.0), static_cast<double>(j)});
    }
    input.accounts.push_back(std::move(trace));
  }
  const core::AccountGrouping grouping({{0, 1}, {2, 3}, {4, 5}}, 6);
  const core::GroupedData grouped = core::group_data(input, grouping);
  const std::vector<double> norm =
      core::framework_task_normalizers(grouped, input.task_count);
  std::vector<double> truths =
      core::framework_initial_truths(grouped, input.task_count, true);
  std::vector<double> group_weights;
  // Warm-up: sizes group_weights and pools the workspace buffers.
  core::framework_iterate_once(grouped, norm, 1e-9, truths, group_weights);

  double sink = 0.0;
  const auto allocs = count_allocations([&] {
    for (int i = 0; i < 5; ++i) {
      sink += core::framework_iterate_once(grouped, norm, 1e-9, truths,
                                           group_weights);
    }
  });
  EXPECT_EQ(allocs, 0u)
      << "framework_iterate_once allocated in steady state";
  EXPECT_TRUE(std::isfinite(sink));
}

// --- Plan caching ------------------------------------------------------------

TEST(PlanCache, FftColdMatchesCachedExactly) {
  // Power-of-two, prime (Bluestein), and composite non-power-of-two
  // lengths, forward and inverse: caching must never change a single bit.
  for (const std::size_t n : {std::size_t{64}, std::size_t{13},
                              std::size_t{601}, std::size_t{60}}) {
    for (const bool inverse : {false, true}) {
      Rng rng(100 + n);
      std::vector<signal::Complex> data(n);
      for (auto& c : data) {
        c = signal::Complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0));
      }
      std::vector<signal::Complex> via_cache = data;
      std::vector<signal::Complex> via_cold = data;
      const auto cached = signal::FftPlan::plan_for(n, inverse);
      const auto cold = signal::FftPlan::make_cold(n, inverse);
      EXPECT_EQ(cached->length(), n);
      EXPECT_EQ(cached->inverse(), inverse);
      cached->apply(via_cache);
      cold->apply(via_cold);
      for (std::size_t k = 0; k < n; ++k) {
        EXPECT_EQ(via_cache[k].real(), via_cold[k].real())
            << "n=" << n << " inverse=" << inverse << " k=" << k;
        EXPECT_EQ(via_cache[k].imag(), via_cold[k].imag())
            << "n=" << n << " inverse=" << inverse << " k=" << k;
      }
    }
  }
}

TEST(PlanCache, PlanForReturnsTheSameInstance) {
  const auto a = signal::FftPlan::plan_for(256, false);
  const auto b = signal::FftPlan::plan_for(256, false);
  EXPECT_EQ(a.get(), b.get());
  // Forward and inverse plans are distinct cache entries.
  const auto inv = signal::FftPlan::plan_for(256, true);
  EXPECT_NE(a.get(), inv.get());
}

TEST(PlanCache, WelchColdMatchesCached) {
  const auto cached =
      signal::WelchPlan::plan_for(signal::WindowKind::kHann, 128);
  const auto cold =
      signal::WelchPlan::make_cold(signal::WindowKind::kHann, 128);
  ASSERT_EQ(cached->length(), 128u);
  ASSERT_EQ(cold->length(), 128u);
  EXPECT_EQ(cached->window_power(), cold->window_power());
  for (std::size_t i = 0; i < 128; ++i) {
    EXPECT_EQ(cached->window()[i], cold->window()[i]) << "i=" << i;
  }
}

TEST(PlanCache, ConcurrentLookupsAreRaceFree) {
  // Hammer both plan caches from many threads at once; ThreadSanitizer
  // (the CI tsan job runs this binary) verifies the mutex discipline, and
  // the assertions verify every thread sees a working plan.
  constexpr std::size_t kThreads = 8;
  const std::size_t lengths[] = {64, 13, 601, 60, 128, 17};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int round = 0; round < 25; ++round) {
        for (const std::size_t n : lengths) {
          const auto plan = signal::FftPlan::plan_for(n, (round % 2) != 0);
          std::vector<signal::Complex> data(n);
          for (auto& c : data) c = signal::Complex(rng.uniform(-1, 1), 0.0);
          plan->apply(data);
          if (plan->length() != n) failures.fetch_add(1);
          const auto welch =
              signal::WelchPlan::plan_for(signal::WindowKind::kHann, n);
          if (welch->window().size() != n) failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  // Every thread's lookups converged on one shared instance per key.
  const auto first = signal::FftPlan::plan_for(601, false);
  const auto second = signal::FftPlan::plan_for(601, false);
  EXPECT_EQ(first.get(), second.get());
}

}  // namespace
}  // namespace sybiltd
