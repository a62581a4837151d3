#ifndef NASHDB_FRAGMENT_PREFIX_STATS_H_
#define NASHDB_FRAGMENT_PREFIX_STATS_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "value/value_profile.h"

namespace nashdb {

/// Constant-time fragment statistics over a piecewise-constant value
/// profile. This realizes the paper's §5.2 precomputation: the cumulative
/// sum `s` and cumulative sum-of-squares `s2` of tuple values, except that
/// we accumulate per *value chunk* instead of per tuple (Appendix C notes
/// the value function only changes at chunk boundaries), so construction is
/// O(#chunks) regardless of table cardinality.
///
/// Err(f) is the unnormalized variance of Eq. 4:
///     Err(a, b) = sum_{x=a}^{b-1} V(x)^2  -  (sum V(x))^2 / (b - a)
/// (Eq. 6 in the paper omits the 1/(b-a) normalizer of the squared-sum
/// term; that form is dimensionally inconsistent with Eq. 4's definition,
/// so we implement Eq. 4 exactly. See DESIGN.md "paper errata".)
class PrefixStats {
 public:
  explicit PrefixStats(const ValueProfile& profile);

  TupleCount table_size() const { return table_size_; }

  /// Sum of V(x) for x in [a, b). O(log #chunks).
  Money Sum(TupleIndex a, TupleIndex b) const;

  /// Sum of V(x)^2 for x in [a, b). O(log #chunks).
  Money SumSq(TupleIndex a, TupleIndex b) const;

  /// Eq. 4: unnormalized variance of the tuple values in [a, b).
  Money Err(TupleIndex a, TupleIndex b) const;
  Money Err(const TupleRange& r) const { return Err(r.start, r.end); }

  /// Running sums of V(x) and V(x)^2 over [0, p).
  struct Cumulative {
    Money sum = 0.0;
    Money sumsq = 0.0;
  };

  /// The running sums at any position p <= table_size. O(log #chunks).
  Cumulative CumulativeAt(TupleIndex p) const;

  /// The running sums at change point boundaries()[i]. O(1), and equal to
  /// CumulativeAt(boundaries()[i]) for finite values: at a chunk start the
  /// lookup adds value * 0.0, which is a signed zero.
  Cumulative CumulativeAtBoundary(std::size_t i) const {
    return Cumulative{cum_sum_[i], cum_sumsq_[i]};
  }

  /// Eq. 4 over the n = b - a > 0 tuples between running sums `lo` (at a)
  /// and `hi` (at b); Err(a, b) is this with both from CumulativeAt.
  static Money ErrBetween(const Cumulative& lo, const Cumulative& hi,
                          TupleCount n) {
    const Money sum = hi.sum - lo.sum;
    const Money err = (hi.sumsq - lo.sumsq) -
                      sum * sum / static_cast<Money>(n);
    // Guard against tiny negative values from floating-point cancellation.
    return err < 0.0 ? 0.0 : err;
  }

  /// Value(f) = Sum over the fragment (Eq. 3).
  Money Value(const TupleRange& r) const { return Sum(r.start, r.end); }

  /// Positions where V(x) changes, including 0 and table_size. Optimal
  /// fragment boundaries can be restricted to these points ([10, 29], used
  /// by the DP and split-point searches).
  const std::vector<TupleIndex>& boundaries() const { return boundaries_; }

 private:
  // Index of the chunk containing x (x < table_size).
  std::size_t ChunkOf(TupleIndex x) const;

  TupleCount table_size_;
  std::vector<TupleIndex> starts_;      // chunk start positions
  std::vector<Money> values_;           // chunk values
  std::vector<Money> cum_sum_;          // cum_sum_[i]: sum over chunks < i
  std::vector<Money> cum_sumsq_;        // same for squares
  std::vector<TupleIndex> boundaries_;  // starts_ + table_size
};

}  // namespace nashdb

#endif  // NASHDB_FRAGMENT_PREFIX_STATS_H_
