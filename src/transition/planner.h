#ifndef NASHDB_TRANSITION_PLANNER_H_
#define NASHDB_TRANSITION_PLANNER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"

namespace nashdb {

struct TransitionGraph;

/// One old-node → new-node move in a transition plan.
struct NodeTransition {
  /// kInvalidNode means "freshly provisioned" (matched a dummy old vertex).
  NodeId old_node = kInvalidNode;
  /// kInvalidNode means "decommissioned" (matched a dummy new vertex).
  NodeId new_node = kInvalidNode;
  /// Tuples that must be copied onto the node.
  TupleCount transfer_tuples = 0;
};

/// A complete minimal-transfer transition strategy (paper §7): a perfect
/// matching between old and new cluster nodes.
struct TransitionPlan {
  std::vector<NodeTransition> moves;
  TupleCount total_transfer_tuples = 0;
  std::size_t nodes_added = 0;
  std::size_t nodes_removed = 0;

  /// How the plan was computed (filled by PlanDense and PlanSparse; purely
  /// informational — ValidatePlan ignores it).
  struct SolverStats {
    bool used_sparse = false;          ///< sparse SSP vs dense Hungarian.
    std::size_t graph_edges = 0;       ///< positive-overlap edges priced.
    std::uint64_t solver_iterations = 0;  ///< sparse Dijkstra settles.
  };
  SolverStats stats;
};

/// PlanTransition solves dense at max(|V|, |V'|) <= this many nodes and
/// sparse above it (DESIGN.md §15.2). Dense is cheap at this size and
/// keeps the plans, move order included, of the historical
/// implementation; above it the O(n^3) matrix is what the sparse solver
/// exists to avoid.
inline constexpr std::size_t kDensePlanMaxNodes = 256;

/// Computes the optimal (minimum data transfer) transition from `old_config`
/// to `new_config` by min-weight perfect matching on the bipartite
/// old-node/new-node graph with dummy vertices padding the smaller side
/// (paper §7), with the solver kDensePlanMaxNodes picks.
///
/// Failure awareness: `old_node_dead[m]` marks old nodes that are crashed
/// at transition time. A dead machine's data cannot be copied from (nor
/// does it survive a match), so its holdings are priced as empty —
/// matching it to a new node costs that node's full data, exactly like
/// provisioning a fresh replacement. nullptr (or an all-false vector)
/// marks none.
TransitionPlan PlanTransition(const ClusterConfig& old_config,
                              const ClusterConfig& new_config,
                              const std::vector<bool>* old_node_dead = nullptr);

/// The two solvers PlanTransition picks between, each from the one
/// §7 graph (transition/edge_cost.h), so both price every edge alike and
/// their total transfer costs are bit-identical; only the tie-break among
/// equal-cost plans differs (DESIGN.md §15.2). Tests and benches call them
/// directly, each as the other's oracle.
///
/// PlanDense: the paper's dummy-padded O(n^3) Kuhn–Munkres, verbatim. A
/// graph with no edge (a bootstrap, or every old node dead) has identical
/// rows, and gets the solver's plan in closed form, O(n log n), without
/// running it (DESIGN.md §15.8).
TransitionPlan PlanDense(const TransitionGraph& graph);
/// PlanSparse: successive shortest paths over the positive-overlap edges
/// only — near-linear when overlaps are local, the only tractable choice
/// at thousands of nodes.
TransitionPlan PlanSparse(const TransitionGraph& graph);

}  // namespace nashdb

#endif  // NASHDB_TRANSITION_PLANNER_H_
