#ifndef NASHDB_VALUE_ESTIMATOR_H_
#define NASHDB_VALUE_ESTIMATOR_H_

#include <cstddef>
#include <deque>
#include <map>
#include <vector>

#include "common/metrics.h"
#include "common/query.h"
#include "common/types.h"
#include "value/endpoint_table.h"
#include "value/value_profile.h"

namespace nashdb {

/// The paper's tuple value estimator (§4): a sliding window of the |W| most
/// recent range scans (a circular buffer of (start, end, price) triples) and
/// one store of the window's scan endpoints per table. When a new scan
/// arrives and the buffer is full, the oldest scan is evicted from both the
/// buffer and its table's store, so each store always reflects exactly the
/// scans in the window. The averaged tuple value V(x) (Eq. 2) is the
/// store's cumulative raw value divided by the number of scans currently in
/// the window.
///
/// The store is an EndpointTable, not the paper's value estimation tree
/// (DESIGN.md §5): the system reads V only as whole per-table profiles,
/// once per reconfiguration round, so an observed scan costs O(1) expected
/// and a profile read sorts the keys. Profiles are bit-identical to the
/// tree's.
class TupleValueEstimator {
 public:
  /// `window_size` is |W|, the maximum number of scans retained. Larger
  /// windows capture longer workload trends; smaller windows react faster
  /// (paper §4.2, "Scan Window Size").
  explicit TupleValueEstimator(std::size_t window_size);

  TupleValueEstimator(const TupleValueEstimator&) = delete;
  TupleValueEstimator& operator=(const TupleValueEstimator&) = delete;
  TupleValueEstimator(TupleValueEstimator&&) = default;
  TupleValueEstimator& operator=(TupleValueEstimator&&) = default;

  /// Records one scan; evicts the oldest scan first if the window is full.
  /// Empty scans are ignored.
  void AddScan(const Scan& scan);

  /// Records every scan of `query` (the scan router sees whole queries).
  void AddQuery(const Query& query);

  /// Number of scans currently in the window (<= window capacity).
  std::size_t window_scans() const { return buffer_.size(); }

  /// The windowed scans themselves, oldest first (the §4.2 circular
  /// buffer). Consumed by the hypergraph baseline, which partitions the
  /// scan hypergraph rather than the value function.
  const std::deque<Scan>& window() const { return buffer_; }

  std::size_t window_capacity() const { return window_size_; }

  /// Averaged value V(x) of one tuple of `table` (Eq. 2). O(|W|); the
  /// system reads profiles, not points.
  Money ValueAt(TableId table, TupleIndex x) const;

  /// Materializes the piecewise-constant V(x) profile for `table` over
  /// [0, table_size), filling unreferenced gaps with zero value.
  ValueProfile Profile(TableId table, TupleCount table_size) const;

  /// Tables that have at least one windowed scan.
  std::vector<TableId> ActiveTables() const;

  /// Approximate heap footprint (endpoint tables + buffer) in bytes, for
  /// the §10.1 overhead experiment.
  std::size_t SizeBytes() const;

  /// A table's endpoint store, the stand-in for its §4.2 value tree
  /// (creates none); nullptr if the table has no windowed scans. Exposed
  /// for tests, micro-benchmarks and the reconfiguration trace.
  const EndpointTable* tree(TableId table) const;

 private:
  std::size_t window_size_;
  std::deque<Scan> buffer_;
  std::map<TableId, EndpointTable> tables_;
  metrics::CounterHandle scans_added_{"value.scans_added"};
  metrics::CounterHandle scans_evicted_{"value.scans_evicted"};
};

}  // namespace nashdb

#endif  // NASHDB_VALUE_ESTIMATOR_H_
