#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/logging.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "fragment/fragmenter.h"

namespace nashdb {
namespace {

constexpr Money kInf = std::numeric_limits<Money>::infinity();

/// A layer must span at least this many DP rows before its recursion
/// subranges are dispatched to the pool; below it, task overhead dominates.
constexpr std::size_t kMinParallelRows = 2048;
/// Smallest subrange the parallel carve hands to one pool task.
constexpr std::size_t kMinRowsPerTask = 512;

/// O(1) Eq.-4 error of the merged intervals [t, i) over the candidate
/// boundary list, via boundary-aligned cumulative sums. Avoids the per-call
/// binary search inside PrefixStats (this is evaluated O(k m log m) — or
/// O(k m^2) for the reference solver — times per Refragment).
class SegmentCost {
 public:
  SegmentCost(const PrefixStats& stats, const std::vector<TupleIndex>& bounds)
      : bounds_(bounds),
        cs_(bounds.size(), 0.0),
        cs2_(bounds.size(), 0.0) {
    for (std::size_t i = 1; i < bounds.size(); ++i) {
      cs_[i] = cs_[i - 1] + stats.Sum(bounds[i - 1], bounds[i]);
      cs2_[i] = cs2_[i - 1] + stats.SumSq(bounds[i - 1], bounds[i]);
    }
  }

  Money operator()(std::size_t t, std::size_t i) const {
    const Money n = static_cast<Money>(bounds_[i] - bounds_[t]);
    const Money s = cs_[i] - cs_[t];
    const Money e = (cs2_[i] - cs2_[t]) - s * s / n;
    return e < 0.0 ? 0.0 : e;
  }

 private:
  const std::vector<TupleIndex>& bounds_;
  std::vector<Money> cs_, cs2_;
};

/// Candidate fragment boundaries: the value change points (optimal
/// boundaries lie there, [10, 29]), deduplicated up front and then
/// uniformly subsampled down to `max_candidates` interior points when a
/// budget is set. Deduping *before* sampling keeps the budget exact — a
/// duplicate-skipping sample would silently shrink it.
std::vector<TupleIndex> CandidateBounds(const PrefixStats& stats,
                                        std::size_t max_candidates) {
  std::vector<TupleIndex> bounds = stats.boundaries();
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());
  NASHDB_CHECK(std::is_sorted(bounds.begin(), bounds.end()));
  if (max_candidates > 0 && bounds.size() > max_candidates + 2) {
    std::vector<TupleIndex> sub;
    sub.reserve(max_candidates + 2);
    sub.push_back(bounds.front());
    // With interior > max_candidates the sampled indices are strictly
    // increasing, so over the deduped input every pick is distinct.
    const std::size_t interior = bounds.size() - 2;
    for (std::size_t i = 0; i < max_candidates; ++i) {
      sub.push_back(bounds[1 + i * interior / max_candidates]);
    }
    sub.push_back(bounds.back());
    bounds = std::move(sub);
  }
  NASHDB_CHECK(std::adjacent_find(bounds.begin(), bounds.end()) ==
               bounds.end())
      << "candidate boundaries must be unique";
  return bounds;
}

/// The reference O(k m^2) solver (full dp/prev tables, exactly the paper's
/// §5.2 recurrence). Returns the optimal path of k+1 boundary indices
/// 0 = p_0 < p_1 < ... < p_k = m.
std::vector<std::size_t> SolveQuadratic(const SegmentCost& seg_err,
                                        std::size_t m, std::size_t k) {
  // dp[j][i]: minimum error splitting intervals [0, i) into exactly j
  // fragments; prev[j][i]: the argmin boundary index. Since splitting never
  // increases unnormalized variance, using exactly k fragments is optimal.
  std::vector<std::vector<Money>> dp(k + 1, std::vector<Money>(m + 1, kInf));
  std::vector<std::vector<std::size_t>> prev(
      k + 1, std::vector<std::size_t>(m + 1, 0));

  for (std::size_t i = 1; i <= m; ++i) {
    dp[1][i] = seg_err(0, i);
  }
  for (std::size_t j = 2; j <= k; ++j) {
    for (std::size_t i = j; i <= m; ++i) {
      Money best = kInf;
      std::size_t best_t = j - 1;
      for (std::size_t t = j - 1; t < i; ++t) {
        if (dp[j - 1][t] == kInf) continue;
        const Money cand = dp[j - 1][t] + seg_err(t, i);
        if (cand < best) {
          best = cand;
          best_t = t;
        }
      }
      dp[j][i] = best;
      prev[j][i] = best_t;
    }
  }

  std::vector<std::size_t> path(k + 1);
  path[k] = m;
  for (std::size_t j = k; j >= 2; --j) {
    path[j - 1] = prev[j][path[j]];
  }
  path[0] = 0;
  return path;
}

/// Divide-and-conquer monotone solver. The Eq.-4 cost is concave Monge
/// (merging a high-variance superset never beats the matched split), so
/// within each layer the smallest argmin opt(i) is non-decreasing in i and
/// each layer resolves in O(m log m) by recursing on [lo, hi] with the
/// argmin window [optlo, opthi] pinched by the midpoint's argmin. Memory is
/// two rolling Money rows plus one uint32 cut row recorded per layer for
/// boundary reconstruction.
std::vector<std::size_t> SolveDivideAndConquer(const SegmentCost& seg_err,
                                               std::size_t m, std::size_t k,
                                               ThreadPool* pool) {
  NASHDB_CHECK_LT(m, std::numeric_limits<std::uint32_t>::max());
  std::vector<Money> dp_prev(m + 1, kInf), dp_cur(m + 1, kInf);
  std::vector<std::vector<std::uint32_t>> cuts(k + 1);

  for (std::size_t i = 1; i <= m; ++i) {
    dp_prev[i] = seg_err(0, i);
  }

  for (std::size_t j = 2; j <= k; ++j) {
    cuts[j].assign(m + 1, 0);
    std::vector<std::uint32_t>& cut = cuts[j];

    // dp_cur[i] = min over t in [j-1, i-1] of dp_prev[t] + seg_err(t, i);
    // returns (and records) the smallest argmin within [tlo, thi].
    auto compute_row = [&](std::size_t i, std::size_t tlo,
                           std::size_t thi) -> std::size_t {
      thi = std::min(thi, i - 1);
      NASHDB_DCHECK(tlo <= thi);
      Money best = kInf;
      std::size_t best_t = tlo;
      for (std::size_t t = tlo; t <= thi; ++t) {
        const Money cand = dp_prev[t] + seg_err(t, i);
        if (cand < best) {
          best = cand;
          best_t = t;
        }
      }
      dp_cur[i] = best;
      cut[i] = static_cast<std::uint32_t>(best_t);
      return best_t;
    };

    auto solve = [&](auto&& self, std::size_t lo, std::size_t hi,
                     std::size_t optlo, std::size_t opthi) -> void {
      if (lo > hi) return;
      const std::size_t mid = lo + (hi - lo) / 2;
      const std::size_t best_t = compute_row(mid, optlo, opthi);
      self(self, lo, mid - 1, optlo, best_t);
      self(self, mid + 1, hi, best_t, opthi);
    };

    const std::size_t rows = m - j + 1;
    if (pool != nullptr && pool->num_threads() > 1 &&
        rows >= kMinParallelRows) {
      // Carve the top of the recursion on this thread until the remaining
      // subranges are independent and roughly one per worker, then let the
      // pool solve them. Subranges write disjoint dp_cur/cut entries and
      // only read dp_prev, so no synchronization is needed beyond the join.
      struct Subrange {
        std::size_t lo, hi, optlo, opthi;
      };
      std::vector<Subrange> leaves;
      auto carve = [&](auto&& self, std::size_t lo, std::size_t hi,
                       std::size_t optlo, std::size_t opthi,
                       std::size_t depth) -> void {
        if (lo > hi) return;
        if (depth == 0 || hi - lo < kMinRowsPerTask) {
          leaves.push_back(Subrange{lo, hi, optlo, opthi});
          return;
        }
        const std::size_t mid = lo + (hi - lo) / 2;
        const std::size_t best_t = compute_row(mid, optlo, opthi);
        self(self, lo, mid - 1, optlo, best_t, depth - 1);
        self(self, mid + 1, hi, best_t, opthi, depth - 1);
      };
      std::size_t depth = 1;
      while ((std::size_t{1} << depth) < 4 * pool->num_threads()) ++depth;
      carve(carve, j, m, j - 1, m - 1, depth);
      ParallelFor(pool, leaves.size(), [&](std::size_t idx) {
        const Subrange& r = leaves[idx];
        solve(solve, r.lo, r.hi, r.optlo, r.opthi);
      });
    } else {
      solve(solve, j, m, j - 1, m - 1);
    }
    dp_prev.swap(dp_cur);
  }

  std::vector<std::size_t> path(k + 1);
  path[k] = m;
  for (std::size_t j = k; j >= 2; --j) {
    path[j - 1] = cuts[j][path[j]];
  }
  path[0] = 0;
  return path;
}

/// True when the chunk values are nondecreasing or nonincreasing. For a
/// monotone tuple-value sequence the Eq.-4 segment cost satisfies the
/// concave quadrangle inequality, which is exactly the precondition under
/// which the divide-and-conquer solver is optimal (DESIGN.md "issue
/// errata" has the non-monotone counterexample).
bool ValuesMonotone(const ValueProfile& profile) {
  const std::vector<ValueChunk>& chunks = profile.chunks();
  bool non_decreasing = true, non_increasing = true;
  for (std::size_t i = 1; i < chunks.size(); ++i) {
    if (chunks[i].value < chunks[i - 1].value) non_decreasing = false;
    if (chunks[i].value > chunks[i - 1].value) non_increasing = false;
  }
  return non_decreasing || non_increasing;
}

}  // namespace

FragmentationScheme OptimalFragmenter::Refragment(
    const FragmentationContext& ctx, std::size_t max_frags) {
  NASHDB_CHECK_GT(max_frags, 0u);
  FragmentationScheme scheme;
  scheme.table = ctx.table;
  scheme.table_size = ctx.table_size();
  if (scheme.table_size == 0) return scheme;

  PrefixStats stats(*ctx.profile);
  const std::vector<TupleIndex> bounds =
      CandidateBounds(stats, options_.max_candidates);

  const std::size_t m = bounds.size() - 1;  // number of atomic intervals
  const std::size_t k = std::min<std::size_t>(max_frags, m);

  Algorithm algorithm = options_.algorithm;
  if (algorithm == Algorithm::kAuto) {
    algorithm = ValuesMonotone(*ctx.profile) ? Algorithm::kDivideAndConquer
                                             : Algorithm::kQuadratic;
  }

  const SegmentCost seg_err(stats, bounds);
  std::vector<std::size_t> path;
  if (k == 1) {
    path = {0, m};
  } else if (algorithm == Algorithm::kQuadratic) {
    // Which solver ran (after kAuto resolution).
    metrics::Count("frag.dp_quadratic_runs");
    metrics::ScopedTimerMs timer("frag.dp_ms");
    path = SolveQuadratic(seg_err, m, k);
  } else {
    metrics::Count("frag.dp_dc_runs");
    metrics::ScopedTimerMs timer("frag.dp_ms");
    path = SolveDivideAndConquer(seg_err, m, k, options_.pool);
  }

  scheme.fragments.reserve(k);
  for (std::size_t j = 1; j <= k; ++j) {
    scheme.fragments.push_back(
        TupleRange{bounds[path[j - 1]], bounds[path[j]]});
  }
  NASHDB_DCHECK(scheme.Valid());
  return scheme;
}

}  // namespace nashdb
