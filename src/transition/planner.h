#ifndef NASHDB_TRANSITION_PLANNER_H_
#define NASHDB_TRANSITION_PLANNER_H_

#include <cstdint>
#include <vector>

#include "common/types.h"
#include "replication/cluster_config.h"

namespace nashdb {

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

  /// How the plan was computed (filled by PlanTransition; purely
  /// informational — ValidatePlan ignores it).
  struct SolverStats {
    bool used_sparse = false;          ///< sparse SSP vs dense Hungarian.
    std::size_t graph_edges = 0;       ///< positive-overlap edges priced.
    std::uint64_t solver_iterations = 0;  ///< sparse Dijkstra settles.
  };
  SolverStats stats;
};

/// Which matching solver PlanTransition runs. Both are exact: they
/// price every edge from the one shared §7 weight function
/// (transition/edge_cost.h) and produce bit-identical total transfer
/// costs; only the tie-break among equal-cost plans differs (see
/// DESIGN.md "Scalable control plane").
enum class TransitionSolver {
  /// Dense Hungarian at or below TransitionPlannerOptions::dense_threshold
  /// nodes, sparse successive-shortest-paths above it.
  kAuto,
  /// Dense O(n^3) Kuhn–Munkres on the dummy-padded matrix (the paper's
  /// formulation, verbatim). A graph with no edge (a bootstrap, or every
  /// old node dead) has identical rows, and gets the solver's plan in
  /// closed form, O(n log n), without running it.
  kDense,
  /// Sparse successive-shortest-paths over the positive-overlap graph —
  /// near-linear when overlaps are local, the only tractable choice at
  /// thousands of nodes.
  kSparse,
};

struct TransitionPlannerOptions {
  TransitionSolver solver = TransitionSolver::kAuto;
  /// kAuto runs dense Hungarian when max(|V|, |V'|) <= this (identical
  /// plans to the historical implementation, cheap at this size) and the
  /// sparse solver beyond it.
  std::size_t dense_threshold = 256;
};

/// Computes the optimal (minimum data transfer) transition from `old_config`
/// to `new_config` by min-weight perfect matching on the bipartite
/// old-node/new-node graph with dummy vertices padding the smaller side.
/// Solver choice per TransitionPlannerOptions (default kAuto).
TransitionPlan PlanTransition(const ClusterConfig& old_config,
                              const ClusterConfig& new_config);

/// Failure-aware variant: `old_node_dead[m]` marks old nodes that are
/// crashed at transition time. A dead machine's data cannot be copied
/// from (nor does it survive a match), so its holdings are priced as
/// empty — matching it to a new node costs that node's full data, exactly
/// like provisioning a fresh replacement. Passing nullptr (or an
/// all-false vector) is identical to the two-argument overload.
TransitionPlan PlanTransition(const ClusterConfig& old_config,
                              const ClusterConfig& new_config,
                              const std::vector<bool>* old_node_dead);

/// Full-control overload: failure awareness plus explicit solver choice.
TransitionPlan PlanTransition(const ClusterConfig& old_config,
                              const ClusterConfig& new_config,
                              const std::vector<bool>* old_node_dead,
                              const TransitionPlannerOptions& options);

}  // namespace nashdb

#endif  // NASHDB_TRANSITION_PLANNER_H_
