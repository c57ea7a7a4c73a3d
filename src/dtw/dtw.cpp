#include "dtw/dtw.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.h"
#include "common/stats.h"
#include "common/workspace.h"
#include "obs/metrics.h"
#include "simd/simd.h"

namespace sybiltd::dtw {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

inline double sq(double x) { return x * x; }

// Full dynamic programs actually run (the pruned ones never get here), so
// the AG-TR lower-bound effectiveness is `dtw.evals` vs `agtr.pairs`.
obs::Counter& dtw_evals() {
  static obs::Counter& counter = obs::MetricsRegistry::global().counter(
      "dtw.evals", "DTW dynamic programs evaluated");
  return counter;
}

// Effective band: widen to |m-n| so the end cell stays reachable.
std::size_t effective_band(std::size_t m, std::size_t n, std::size_t band) {
  if (band == 0) return std::max(m, n);  // unconstrained
  const std::size_t diff = m > n ? m - n : n - m;
  return std::max(band, diff);
}

// DP cell for the distance-only recursion: (cost, path length), so Eq. (7)
// normalization works without materializing the path.
struct Cell {
  double cost;
  std::size_t len;
};
constexpr Cell kInfCell{kInf, 0};

// --- Diagonal wavefront (vector dispatch levels) ---------------------------
//
// Cells on anti-diagonal d = i + j depend only on diagonals d-1 (the
// vertical (i-1, j) and horizontal (i, j-1) predecessors) and d-2 (the
// diagonal (i-1, j-1) predecessor), so a whole diagonal is computed with
// one SIMD kernel call instead of a serial row scan.  Indexing is by i;
// three rolling buffers of length m+2 hold diagonals d, d-1 and d-2 with
// cell i stored at index i+1, so the i-1 reads at the band edge fall on a
// maintained infinity cell instead of branching.
//
// The in-band range of diagonal d is
//     lo(d) = max(0, d-(n-1), d > w ? ceil((d-w)/2) : 0)
//     hi(d) = min(d, m-1, (d+w)/2)
// Both bounds are non-decreasing in d and hi grows by at most one per
// diagonal, so after computing [lo, hi] it suffices to reset the single
// cell on each side to infinity: every out-of-range read of the next two
// diagonals lands on a freshly maintained edge cell.  The reversed copy of
// b makes the cost row contiguous: b[d-i] == b_rev[n-1-d+i].
//
// The band region is connected (every in-band cell with i+j > 0 has an
// in-band predecessor), so computed cells are always finite and the
// edge cells' {inf, 0} never reaches a finite result; the compare/blend
// tie-break in the kernel then selects exactly the cell the serial
// rolling-row recurrence selects, bit for bit.

struct WaveBounds {
  std::size_t lo;
  std::size_t hi;
};

inline WaveBounds wave_bounds(std::size_t d, std::size_t m, std::size_t n,
                              std::size_t w) {
  std::size_t lo = d >= n ? d - (n - 1) : 0;
  if (d > w) lo = std::max(lo, (d - w + 1) / 2);
  std::size_t hi = std::min(d, m - 1);
  hi = std::min(hi, (d + w) / 2);
  return {lo, hi};
}

double wave_distance(std::span<const double> a, std::span<const double> b,
                     std::size_t w) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const auto& kernels = simd::kernels();
  auto& workspace = Workspace::local();

  auto brev_storage = workspace.borrow<double>(n);
  double* brev = brev_storage.data();
  for (std::size_t t = 0; t < n; ++t) brev[t] = b[n - 1 - t];

  const std::size_t len = m + 2;
  auto c0 = workspace.borrow<double>(len);
  auto c1 = workspace.borrow<double>(len);
  auto c2 = workspace.borrow<double>(len);
  auto l0 = workspace.borrow<double>(len);
  auto l1 = workspace.borrow<double>(len);
  auto l2 = workspace.borrow<double>(len);
  auto cost_storage = workspace.borrow<double>(m);
  double* cost = cost_storage.data();
  double* D0c = c0.data();
  double* D1c = c1.data();
  double* D2c = c2.data();
  double* D0l = l0.data();
  double* D1l = l1.data();
  double* D2l = l2.data();
  std::fill(D0c, D0c + len, kInf);
  std::fill(D1c, D1c + len, kInf);
  std::fill(D2c, D2c + len, kInf);
  std::fill(D0l, D0l + len, 0.0);
  std::fill(D1l, D1l + len, 0.0);
  std::fill(D2l, D2l + len, 0.0);

  for (std::size_t d = 0; d <= m + n - 2; ++d) {
    const auto [lo, hi] = wave_bounds(d, m, n, w);
    const std::size_t count = hi - lo + 1;
    kernels.sq_diff(a.data() + lo, brev + (n - 1 - d + lo), count, cost);
    if (d == 0) {
      D0c[1] = cost[0];
      D0l[1] = 1.0;
    } else {
      kernels.dtw_wave_cell(cost, D2c + lo, D2l + lo, D1c + lo, D1l + lo,
                            D1c + lo + 1, D1l + lo + 1, count, D0c + lo + 1,
                            D0l + lo + 1);
    }
    D0c[lo] = kInf;
    D0l[lo] = 0.0;
    D0c[hi + 2] = kInf;
    D0l[hi + 2] = 0.0;
    double* tc = D2c;
    double* tl = D2l;
    D2c = D1c;
    D2l = D1l;
    D1c = D0c;
    D1l = D0l;
    D0c = tc;
    D0l = tl;
  }
  const double end_cost = D1c[m];
  const double end_len = D1l[m];
  SYBILTD_ASSERT(end_cost < kInf && end_len > 0.0);
  return std::sqrt(end_cost / end_len);
}

double wave_total_cost(std::span<const double> a, std::span<const double> b,
                       std::size_t w) {
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const auto& kernels = simd::kernels();
  auto& workspace = Workspace::local();

  auto brev_storage = workspace.borrow<double>(n);
  double* brev = brev_storage.data();
  for (std::size_t t = 0; t < n; ++t) brev[t] = b[n - 1 - t];

  const std::size_t len = m + 2;
  auto c0 = workspace.borrow<double>(len);
  auto c1 = workspace.borrow<double>(len);
  auto c2 = workspace.borrow<double>(len);
  auto cost_storage = workspace.borrow<double>(m);
  double* cost = cost_storage.data();
  double* D0 = c0.data();
  double* D1 = c1.data();
  double* D2 = c2.data();
  std::fill(D0, D0 + len, kInf);
  std::fill(D1, D1 + len, kInf);
  std::fill(D2, D2 + len, kInf);

  for (std::size_t d = 0; d <= m + n - 2; ++d) {
    const auto [lo, hi] = wave_bounds(d, m, n, w);
    const std::size_t count = hi - lo + 1;
    kernels.sq_diff(a.data() + lo, brev + (n - 1 - d + lo), count, cost);
    if (d == 0) {
      D0[1] = cost[0];
    } else {
      kernels.dtw_wave_cost(cost, D2 + lo, D1 + lo, D1 + lo + 1, count,
                            D0 + lo + 1);
    }
    D0[lo] = kInf;
    D0[hi + 2] = kInf;
    double* t = D2;
    D2 = D1;
    D1 = D0;
    D0 = t;
  }
  const double end_cost = D1[m];
  SYBILTD_ASSERT(end_cost < kInf);
  return end_cost;
}

}  // namespace

DtwResult dtw_full(std::span<const double> a, std::span<const double> b,
                   const DtwOptions& options) {
  SYBILTD_CHECK(!a.empty() && !b.empty(), "DTW of an empty series");
  dtw_evals().inc();
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t w = effective_band(m, n, options.band);

  // r(i, j) = cost(i, j) + min(r(i-1,j-1), r(i-1,j), r(i,j-1)), stored
  // band-only: row i keeps columns [base(i), min(n-1, i+w)], at most
  // min(n, 2w+1) cells, instead of the dense m*n infinity matrix.  Every
  // in-band cell is written before it is read, so no fill is needed;
  // out-of-band reads return infinity from the accessor, exactly as the
  // dense matrix's untouched cells did.
  const std::size_t width = std::min(n, 2 * w + 1);
  auto band_storage = Workspace::local().borrow<double>(m * width);
  double* band = band_storage.data();
  auto base = [&](std::size_t i) { return i > w ? i - w : 0; };
  auto at = [&](std::size_t i, std::size_t j) -> double& {
    return band[i * width + (j - base(i))];
  };
  auto in_band = [&](std::size_t i, std::size_t j) {
    return j >= base(i) && j <= i + w && j < n;
  };
  auto cost_at = [&](std::size_t i, std::size_t j) {
    return in_band(i, j) ? at(i, j) : kInf;
  };

  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j_lo = base(i);
    const std::size_t j_hi = std::min(n - 1, i + w);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = sq(a[i] - b[j]);
      double best = kInf;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        if (i > 0 && j > 0) best = std::min(best, cost_at(i - 1, j - 1));
        if (i > 0) best = std::min(best, cost_at(i - 1, j));
        if (j > 0) best = std::min(best, cost_at(i, j - 1));
      }
      at(i, j) = cost + best;
    }
  }
  SYBILTD_ASSERT(cost_at(m - 1, n - 1) < kInf);

  DtwResult result;
  result.total_cost = at(m - 1, n - 1);

  // Recover the optimal path by walking back along minimal predecessors.
  std::size_t i = m - 1, j = n - 1;
  result.path.emplace_back(i, j);
  while (i > 0 || j > 0) {
    double best = kInf;
    std::size_t bi = i, bj = j;
    if (i > 0 && j > 0 && cost_at(i - 1, j - 1) < best) {
      best = at(i - 1, j - 1);
      bi = i - 1;
      bj = j - 1;
    }
    if (i > 0 && cost_at(i - 1, j) < best) {
      best = at(i - 1, j);
      bi = i - 1;
      bj = j;
    }
    if (j > 0 && cost_at(i, j - 1) < best) {
      best = at(i, j - 1);
      bi = i;
      bj = j - 1;
    }
    SYBILTD_ASSERT(best < kInf);
    i = bi;
    j = bj;
    result.path.emplace_back(i, j);
  }
  std::reverse(result.path.begin(), result.path.end());

  result.distance = std::sqrt(result.total_cost /
                              static_cast<double>(result.path.size()));
  return result;
}

double dtw_distance(std::span<const double> a, std::span<const double> b,
                    const DtwOptions& options) {
  SYBILTD_CHECK(!a.empty() && !b.empty(), "DTW of an empty series");
  dtw_evals().inc();
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t w = effective_band(m, n, options.band);

  // Vector levels run the diagonal-wavefront formulation (bit-identical to
  // the rolling rows below — see the proof sketch at wave_distance); the
  // scalar level keeps the original serial row scan.
  if (simd::active_level() != simd::Level::kScalar) {
    return wave_distance(a, b, w);
  }

  // Two rolling rows from the per-thread workspace.  The rows start
  // uninitialized and only the band-edge cells are ever cleared: row i
  // writes its whole band [j_lo, j_hi], so the only cells a later row can
  // read without this row having written them are the two just outside the
  // band (the bands of consecutive rows shift by at most one column).
  // Those get an explicit infinity; everything further out is unreachable.
  auto prev_storage = Workspace::local().borrow<Cell>(n);
  auto curr_storage = Workspace::local().borrow<Cell>(n);
  Cell* prev = prev_storage.data();
  Cell* curr = curr_storage.data();

  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j_lo = i > w ? i - w : 0;
    const std::size_t j_hi = std::min(n - 1, i + w);
    // Left edge: curr[j_lo - 1] is read as this row's in-row predecessor
    // and as the next row's diagonal/vertical predecessor.
    if (j_lo > 0) curr[j_lo - 1] = kInfCell;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = sq(a[i] - b[j]);
      Cell best{kInf, 0};
      auto consider = [&](const Cell& c) {
        if (c.cost < best.cost ||
            (c.cost == best.cost && c.len < best.len)) {
          best = c;
        }
      };
      if (i == 0 && j == 0) {
        best = {0.0, 0};
      } else {
        if (i > 0 && j > 0) consider(prev[j - 1]);
        if (i > 0) consider(prev[j]);
        if (j > 0) consider(curr[j - 1]);
      }
      curr[j] = {cost + best.cost, best.len + 1};
    }
    // Right edge: the next row's band may reach one past this row's.
    if (j_hi + 1 < n) curr[j_hi + 1] = kInfCell;
    std::swap(prev, curr);
  }
  const Cell end = prev[n - 1];
  SYBILTD_ASSERT(end.cost < kInf && end.len > 0);
  return std::sqrt(end.cost / static_cast<double>(end.len));
}

double dtw_total_cost(std::span<const double> a, std::span<const double> b,
                      const DtwOptions& options) {
  SYBILTD_CHECK(!a.empty() && !b.empty(), "DTW of an empty series");
  dtw_evals().inc();
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t w = effective_band(m, n, options.band);

  if (simd::active_level() != simd::Level::kScalar) {
    return wave_total_cost(a, b, w);
  }

  // Cost-only rolling rows, same structure as dtw_distance without the
  // path-length tracking.  The min over exact values makes this identical
  // to dtw_full's total_cost.
  auto prev_storage = Workspace::local().borrow<double>(n);
  auto curr_storage = Workspace::local().borrow<double>(n);
  double* prev = prev_storage.data();
  double* curr = curr_storage.data();

  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t j_lo = i > w ? i - w : 0;
    const std::size_t j_hi = std::min(n - 1, i + w);
    if (j_lo > 0) curr[j_lo - 1] = kInf;
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const double cost = sq(a[i] - b[j]);
      double best = kInf;
      if (i == 0 && j == 0) {
        best = 0.0;
      } else {
        if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
        if (i > 0) best = std::min(best, prev[j]);
        if (j > 0) best = std::min(best, curr[j - 1]);
      }
      curr[j] = cost + best;
    }
    if (j_hi + 1 < n) curr[j_hi + 1] = kInf;
    std::swap(prev, curr);
  }
  const double end = prev[n - 1];
  SYBILTD_ASSERT(end < kInf);
  return end;
}

double dtw_distance_znorm(std::span<const double> a,
                          std::span<const double> b,
                          const DtwOptions& options) {
  auto& workspace = Workspace::local();
  auto na = workspace.borrow<double>(a.size());
  auto nb = workspace.borrow<double>(b.size());
  auto znorm = [](std::span<const double> xs, double* out) {
    const double mu = mean(xs);
    const double sd = stddev(xs);
    simd::kernels().znorm(xs.data(), xs.size(), mu, sd, out);
  };
  znorm(a, na.data());
  znorm(b, nb.data());
  return dtw_distance(na.span(), nb.span(), options);
}

double lb_keogh(std::span<const double> query,
                std::span<const double> candidate, std::size_t band) {
  SYBILTD_CHECK(query.size() == candidate.size(),
                "LB_Keogh needs equal-length series");
  SYBILTD_CHECK(!query.empty(), "LB_Keogh of an empty series");
  const std::size_t n = query.size();
  double bound = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = i > band ? i - band : 0;
    const std::size_t hi = std::min(n - 1, i + band);
    double upper = -kInf, lower = kInf;
    for (std::size_t j = lo; j <= hi; ++j) {
      upper = std::max(upper, candidate[j]);
      lower = std::min(lower, candidate[j]);
    }
    if (query[i] > upper) {
      bound += sq(query[i] - upper);
    } else if (query[i] < lower) {
      bound += sq(query[i] - lower);
    }
  }
  return bound;
}

double endpoint_lower_bound(std::span<const double> a,
                            std::span<const double> b) {
  SYBILTD_CHECK(!a.empty() && !b.empty(),
                "endpoint bound of an empty series");
  const double first = sq(a.front() - b.front());
  if (a.size() == 1 && b.size() == 1) return first;
  return first + sq(a.back() - b.back());
}

}  // namespace sybiltd::dtw
