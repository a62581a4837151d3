#ifndef NASHDB_FRAGMENT_FRAGMENTER_H_
#define NASHDB_FRAGMENT_FRAGMENTER_H_

#include <cstddef>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "common/query.h"
#include "common/types.h"
#include "fragment/prefix_stats.h"
#include "fragment/scheme.h"
#include "value/value_profile.h"

namespace nashdb {

class ThreadPool;

/// Everything a fragmentation algorithm may consult when (re)fragmenting
/// one table: the current tuple value profile V(x) and the window of recent
/// scans over this table (needed only by the hypergraph baseline, which
/// partitions the scan-tuple hypergraph rather than the value function).
struct FragmentationContext {
  TableId table = 0;
  const ValueProfile* profile = nullptr;
  std::span<const Scan> window_scans;

  TupleCount table_size() const { return profile->table_size(); }
};

/// Abstract fragmentation algorithm (paper §5). Implementations may be
/// stateful across calls (the greedy split/merge fragmenter adapts its
/// previous scheme); call Reset() to drop adaptation state.
class Fragmenter {
 public:
  virtual ~Fragmenter() = default;

  virtual std::string_view name() const = 0;

  /// Produces a fragmentation of ctx's table into at most `max_frags`
  /// fragments. The returned scheme always satisfies
  /// FragmentationScheme::Valid().
  virtual FragmentationScheme Refragment(const FragmentationContext& ctx,
                                         std::size_t max_frags) = 0;

  /// Drops any cross-call adaptation state.
  virtual void Reset() {}
};

/// The best single split of fragment [start, end): the interior position
/// minimizing Err(left) + Err(right) (paper Eq. 7 / Algorithm 2, run at
/// value-chunk granularity per the Appendix C optimization).
struct SplitResult {
  TupleIndex split_point = 0;
  Money split_error = 0.0;    // Err(left) + Err(right)
  Money original_error = 0.0; // Err(whole)

  Money reduction() const { return original_error - split_error; }
};

/// Finds the optimal split point of [start, end) over the profile's value
/// change points. Returns nullopt when the fragment has no interior
/// candidate (its value is constant, so any split is error-neutral).
std::optional<SplitResult> FindBestSplit(const PrefixStats& stats,
                                         TupleIndex start, TupleIndex end);

// ---------------------------------------------------------------------------
// Concrete algorithms
// ---------------------------------------------------------------------------

/// Dynamic-programming optimal fragmentation (§5.2, after [29]): minimizes
/// total unnormalized variance over all schemes with at most `max_frags`
/// fragments, restricting boundaries to value change points (optimal per
/// [10, 29]).
///
/// Solvers over m value chunks and k fragments:
///  - kDivideAndConquer: when the tuple-value sequence is monotone, the
///    Eq.-4 segment cost satisfies the concave quadrangle inequality (the
///    sorted-data precondition of the 1-D optimal-partitioning
///    literature), each DP layer's argmins are monotone, and
///    divide-and-conquer evaluates a layer in O(m log m) instead of
///    O(m^2). Total O(k m log m) time; O(m) working memory (two rolling
///    DP rows) plus one recorded uint32 cut row per layer for boundary
///    reconstruction. Independent recursion subranges of a layer can run
///    on a borrowed ThreadPool. On non-monotone profiles the quadrangle
///    inequality can fail (DESIGN.md "issue errata": V = [0, 10, 0] is a
///    counterexample), making this a near-optimal heuristic there.
///  - kQuadratic: the straightforward O(k m^2) reference implementation
///    the paper describes, exact on every profile; kept for
///    cross-validation (the property tests assert both solvers produce
///    the same total Eq.-4 error where the precondition holds).
///  - kAuto (default): detects monotonicity of the profile in O(m) and
///    picks kDivideAndConquer exactly when it is provably exact, else
///    kQuadratic — so the default is always optimal, and fast whenever
///    the workload's value profile allows it.
class OptimalFragmenter : public Fragmenter {
 public:
  enum class Algorithm {
    kAuto,
    kDivideAndConquer,
    kQuadratic,
  };

  struct Options {
    Algorithm algorithm = Algorithm::kAuto;
    /// If the profile has more than `max_candidates` change points they are
    /// uniformly subsampled to bound DP cost (0 = unlimited). With the
    /// divide-and-conquer solver this is rarely needed: 200k change points
    /// solve in well under a second (bench_refrag_scale tracks this).
    std::size_t max_candidates = 0;
    /// Borrowed, not owned; may be null (serial). Used to evaluate
    /// independent DP-layer subranges in parallel once a layer is large
    /// enough to be worth it.
    ThreadPool* pool = nullptr;
  };

  explicit OptimalFragmenter(std::size_t max_candidates = 0)
      : OptimalFragmenter(Options{.max_candidates = max_candidates}) {}
  explicit OptimalFragmenter(const Options& options) : options_(options) {}

  std::string_view name() const override { return "Optimal"; }
  FragmentationScheme Refragment(const FragmentationContext& ctx,
                                 std::size_t max_frags) override;

 private:
  Options options_;
};

/// NashDB's greedy split/merge fragmenter (§5.3). Stateful: it adapts the
/// scheme produced by the previous call. While under the fragment cap it
/// splits the fragment whose best split most reduces error (a split must
/// reduce it by more than zero); at the cap it merges the cheapest
/// adjacent triplet into two fragments and then splits again, letting the
/// scheme track workload drift. One call runs at most max_frags + 2
/// split or merge+split rounds, enough to build max_frags fragments from
/// scratch.
class GreedyFragmenter : public Fragmenter {
 public:
  std::string_view name() const override { return "NashDB"; }
  FragmentationScheme Refragment(const FragmentationContext& ctx,
                                 std::size_t max_frags) override;
  void Reset() override { state_.reset(); }

 private:
  std::optional<FragmentationScheme> state_;
};

/// Decision-tree-style recursive splitting (the paper's "DT" baseline,
/// CART-like): repeatedly applies the globally best split until the cap is
/// reached or no split reduces error. Runs the greedy fragmenter's split
/// step alone, stateless.
class DtFragmenter : public Fragmenter {
 public:
  std::string_view name() const override { return "DT"; }
  FragmentationScheme Refragment(const FragmentationContext& ctx,
                                 std::size_t max_frags) override;
};

/// Equal-size fragments ("Naive" baseline).
class NaiveFragmenter : public Fragmenter {
 public:
  std::string_view name() const override { return "Naive"; }
  FragmentationScheme Refragment(const FragmentationContext& ctx,
                                 std::size_t max_frags) override;
};

/// SWORD-style hypergraph partitioning baseline (§10.1): tuples are
/// vertices, window scans are hyperedges; the table is cut into parts
/// minimizing the weight of hyperedges spanning a cut. Because scans are
/// contiguous ranges, the min-cut k-way partition reduces to choosing k-1
/// cut positions minimizing the total number of scans crossing them, which
/// we solve exactly by DP over candidate boundaries.
class HypergraphFragmenter : public Fragmenter {
 public:
  struct Options {
    /// Maximum part size as a multiple of the ideal n/k (imbalance
    /// tolerance). <= 0 means unconstrained — which reproduces the paper's
    /// observation that Bernoulli-style workloads are adversarial for this
    /// method (zero-cost cuts pile up at the cold end of the table).
    double max_imbalance = 0.0;
    /// Hyperedge weight: scan price if true, else 1 per scan.
    bool price_weighted = false;
  };

  HypergraphFragmenter() : HypergraphFragmenter(Options{}) {}
  explicit HypergraphFragmenter(const Options& options) : options_(options) {}

  std::string_view name() const override { return "Hypergraph"; }
  FragmentationScheme Refragment(const FragmentationContext& ctx,
                                 std::size_t max_frags) override;

 private:
  Options options_;
};

/// Total Eq.-4 error of a scheme under a profile; the quantity plotted in
/// the paper's Figures 6a/6b.
Money SchemeError(const FragmentationScheme& scheme,
                  const ValueProfile& profile);

}  // namespace nashdb

#endif  // NASHDB_FRAGMENT_FRAGMENTER_H_
