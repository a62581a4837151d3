#include "fragment/fragmenter.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace nashdb {

NASHDB_HOT std::optional<SplitResult> FindBestSplit(const PrefixStats& stats,
                                                    TupleIndex start,
                                                    TupleIndex end) {
  // The candidates are the change points strictly inside (start, end), a
  // run of boundaries() found by one binary search. Each is scored from
  // its own running sums; only the endpoints, which need not be change
  // points (the greedy fragmenter carries its scheme across profiles),
  // take the chunk lookup.
  const std::vector<TupleIndex>& bounds = stats.boundaries();
  std::size_t i = static_cast<std::size_t>(
      std::upper_bound(bounds.begin(), bounds.end(), start) - bounds.begin());
  if (i == bounds.size() || bounds[i] >= end) return std::nullopt;

  const PrefixStats::Cumulative at_start = stats.CumulativeAt(start);
  const PrefixStats::Cumulative at_end = stats.CumulativeAt(end);
  SplitResult best;
  best.original_error = PrefixStats::ErrBetween(at_start, at_end, end - start);
  bool found = false;
  for (; i < bounds.size() && bounds[i] < end; ++i) {
    const TupleIndex p = bounds[i];
    const PrefixStats::Cumulative at = stats.CumulativeAtBoundary(i);
    const Money err = PrefixStats::ErrBetween(at_start, at, p - start) +
                      PrefixStats::ErrBetween(at, at_end, end - p);
    if (!found || err < best.split_error) {
      best.split_point = p;
      best.split_error = err;
      found = true;
    }
  }
  return best;
}

Money SchemeError(const FragmentationScheme& scheme,
                  const ValueProfile& profile) {
  PrefixStats stats(profile);
  Money total = 0.0;
  for (const TupleRange& f : scheme.fragments) total += stats.Err(f);
  return total;
}

}  // namespace nashdb
