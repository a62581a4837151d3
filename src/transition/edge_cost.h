#ifndef NASHDB_TRANSITION_EDGE_COST_H_
#define NASHDB_TRANSITION_EDGE_COST_H_

#include <cstddef>
#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"
#include "transition/hungarian.h"

namespace nashdb {

/// Single source of truth for the paper's §7 transition edge weights.
///
/// The §7 cost of matching old node i to new node j is
///   cost(i, j) = |Data(j) - Data(i)| = |Data(j)| - overlap(i, j)
/// with the dummy-padding conventions
///   cost(dummy, j) = |Data(j)|   (fresh provision: full copy)
///   cost(i, dummy) = 0           (decommission: no transfer).
/// Everything is therefore determined by the per-new-node base cost
/// |Data(j)| and the sparse overlap matrix — most node pairs share no
/// tuples, so overlap(i, j) == 0 and their edge is "trivial" (full
/// bootstrap cost). TransitionGraph stores exactly the non-trivial part:
/// one explicit edge per (old, new) pair with positive overlap. Both the
/// dense Hungarian path and the sparse matching solver price their edges
/// from this one structure, so the two solvers can never disagree on a
/// weight; all quantities are integer tuple counts, so agreement is
/// bit-exact.

/// One non-trivial edge of the old/new overlap graph: the pair shares
/// `overlap` > 0 tuples, so matching them transfers
/// new_total[new_node] - overlap tuples instead of a full copy.
struct TransitionEdge {
  NodeId old_node = kInvalidNode;
  NodeId new_node = kInvalidNode;
  TupleCount overlap = 0;
};

/// The explicit sparse §7 cost graph between an old and a new
/// configuration. Edges are sorted by (new_node, old_node) and carry only
/// positive overlaps; `new_total[j]` is |Data(j)|, the full-bootstrap
/// cost of new node j (and the row base every real edge discounts from).
struct TransitionGraph {
  std::size_t n_old = 0;
  std::size_t n_new = 0;
  std::vector<TupleCount> new_total;   ///< size n_new: |Data(new j)|.
  std::vector<TransitionEdge> edges;   ///< positive overlaps, sorted.

  /// Sum of |Data(j)| over all new nodes — the cost of bootstrapping the
  /// whole new configuration from scratch (every plan cost is this total
  /// minus the matched overlap).
  TupleCount TotalNewTuples() const {
    TupleCount t = 0;
    for (TupleCount v : new_total) t += v;
    return t;
  }
};

/// Builds the sparse overlap graph for the transition old_config ->
/// new_config. A per-table merge of the two fragment tilings pairs each
/// new fragment with the old fragments it overlaps, O(F log F). The pair
/// overlaps are then summed into one row per new node, indexed by old
/// node, in one of two ways, whichever a fixed rule over two counts of
/// the merge prices cheaper (DESIGN.md §15.1):
///   - dense rows, where nearly every old/new node pair overlaps: each
///     new fragment's overlap with every live old node is built once and
///     added into the n_old-wide row of each of its new holders by a
///     contiguous loop, O((new replicas + n_new) x n_old) time and an
///     n_new x n_old block of scratch;
///   - the scatter, where overlaps are local: each new node adds its
///     pairs into a stamped row, one add per (live old replica, new
///     replica) pair of every overlapping fragment pair, and sorts the
///     touched old ids; O(n_old) scratch.
/// Both emit the same edges in the same order. Exact because a node's
/// fragments of one table are disjoint (both configurations tile their
/// tables, as ValidateConfig checks), so the summed pair overlaps equal
/// |Data(i) ∩ Data(j)|. Old nodes flagged in `old_node_dead` contribute
/// nothing: their replicas are unreadable, so every edge touching them is
/// trivial (full copy), exactly like the failure-aware dense path. Pass
/// nullptr when no node is dead. Deterministic: output depends only on
/// the two configurations.
TransitionGraph BuildTransitionGraph(const ClusterConfig& old_config,
                                     const ClusterConfig& new_config,
                                     const std::vector<bool>* old_node_dead);

/// Materializes the dense §7 cost matrix (dummy-padded to n x n,
/// n = max(n_old, n_new)) from the sparse graph — the row-major matrix
/// the dense Hungarian solver consumes. Row i < n_old is a real old node,
/// column j < n_new a real new node; padding rows/columns follow the
/// dummy conventions above. Every entry is an exact integer tuple count
/// stored in a double (tuple counts are far below 2^53).
CostMatrix DenseCostMatrix(const TransitionGraph& graph);

}  // namespace nashdb

#endif  // NASHDB_TRANSITION_EDGE_COST_H_
