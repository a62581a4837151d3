#ifndef NASHDB_REPLICATION_NODE_DATA_H_
#define NASHDB_REPLICATION_NODE_DATA_H_

#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"

namespace nashdb {

/// The set of tuples materialized on one node: per table, the union of the
/// ranges of the fragment replicas stored there, as sorted, coalesced
/// intervals. The packer asks it which previous nodes already hold a
/// fragment; the transition planner's validator prices node-to-node moves
/// with it.
class NodeData {
 public:
  struct Interval {
    TableId table;
    TupleRange range;
  };

  /// Builds the interval set for `node` of `config`.
  static NodeData Of(const ClusterConfig& config, NodeId node);

  /// Sorts `intervals` by (table, start) and coalesces adjacent or
  /// overlapping intervals of the same table.
  static NodeData FromIntervals(std::vector<Interval> intervals);

  /// Total tuples in this set.
  TupleCount TotalTuples() const;

  /// Tuples present in `this` but absent from `other`:
  /// |Data(this) - Data(other)| (paper §7's edge-weight primitive).
  TupleCount TuplesNotIn(const NodeData& other) const;

  /// True if [range) of `table` lies entirely inside this set. Coalesced
  /// intervals of one table are disjoint and separated by gaps, so only
  /// the last interval starting at or before the range can contain it:
  /// one binary search.
  bool Covers(TableId table, const TupleRange& range) const;

  /// Sorted, coalesced intervals per (table, range).
  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  std::vector<Interval> intervals_;
};

}  // namespace nashdb

#endif  // NASHDB_REPLICATION_NODE_DATA_H_
