#ifndef NASHDB_REPLICATION_NODE_DATA_H_
#define NASHDB_REPLICATION_NODE_DATA_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"

namespace nashdb {

/// The set of tuples materialized on one node: per table, the union of the
/// ranges of the fragment replicas stored there, as sorted, coalesced
/// intervals. The packer's CovererIndex asks it which previous nodes
/// already hold a fragment; the transition planner's validator prices
/// node-to-node moves with it.
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

  /// Sorted, coalesced intervals per (table, range).
  const std::vector<Interval>& intervals() const { return intervals_; }

 private:
  std::vector<Interval> intervals_;
};

/// For every fragment, the nodes whose data contains its whole range, in
/// ascending node order: the previous nodes the packer keeps a replica on
/// (RepackIncremental). Built in one sweep per node: the fragments sorted
/// by (table, start) walk the node's coalesced intervals, and since those
/// are disjoint and separated by gaps, only the last interval starting at
/// or before a fragment can contain it. Flat storage: fragment f's list is
/// [begin(f), end(f)).
class CovererIndex {
 public:
  /// Indexes `fragments` against `data[m]` for every node m.
  CovererIndex(const std::vector<FragmentInfo>& fragments,
               const std::vector<NodeData>& data);

  const NodeId* begin(std::size_t frag) const {
    return nodes_.data() + off_[frag];
  }
  const NodeId* end(std::size_t frag) const {
    return nodes_.data() + off_[frag + 1];
  }

 private:
  std::vector<std::uint32_t> off_;  // per fragment, plus a sentinel
  std::vector<NodeId> nodes_;
};

}  // namespace nashdb

#endif  // NASHDB_REPLICATION_NODE_DATA_H_
