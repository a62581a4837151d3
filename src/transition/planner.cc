#include "transition/planner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"
#include "transition/edge_cost.h"
#include "transition/hungarian.h"
#include "transition/sparse_matching.h"

namespace nashdb {

namespace {

/// Appends the move that matches padded row i to padded column j, at
/// `transfer` tuples, and counts it.
void AddMove(const TransitionGraph& graph, std::size_t i, std::size_t j,
             TupleCount transfer, TransitionPlan* plan) {
  NodeTransition move;
  move.old_node = i < graph.n_old ? static_cast<NodeId>(i) : kInvalidNode;
  move.new_node = j < graph.n_new ? static_cast<NodeId>(j) : kInvalidNode;
  move.transfer_tuples = transfer;
  if (move.old_node == kInvalidNode) ++plan->nodes_added;
  if (move.new_node == kInvalidNode) ++plan->nodes_removed;
  plan->total_transfer_tuples += move.transfer_tuples;
  plan->moves.push_back(move);
}

/// The dense plan of a graph with no edge (a bootstrap from an empty
/// cluster, every old node dead, or no tuple shared), without the O(n^3)
/// solve. Every row of the padded matrix is then the same: real column j
/// costs |Data(j)|, a dummy column 0. On identical rows the Hungarian of
/// SolveAssignment gives row i the i-th column of that row's stable
/// ascending order (its scans take the first strict minimum), so this is
/// its assignment, move order included (DESIGN.md §15.8 has the proof).
void SolveEdgeFree(const TransitionGraph& graph, TransitionPlan* plan) {
  const std::size_t n = std::max(graph.n_old, graph.n_new);
  const auto column_cost = [&graph](std::size_t j) {
    return j < graph.n_new ? graph.new_total[j] : TupleCount{0};
  };
  std::vector<std::size_t> order(n);
  for (std::size_t j = 0; j < n; ++j) order[j] = j;
  std::stable_sort(order.begin(), order.end(),
                   [&column_cost](std::size_t a, std::size_t b) {
                     return column_cost(a) < column_cost(b);
                   });
  for (std::size_t i = 0; i < n; ++i) {
    AddMove(graph, i, order[i], column_cost(order[i]), plan);
  }
  metrics::Count("transition.edge_free_plans");
}

}  // namespace

/// The row-major matrix is materialized from the shared sparse graph
/// (identical integer weights to the sparse path by construction).
TransitionPlan PlanDense(const TransitionGraph& graph) {
  TransitionPlan plan;
  plan.stats.graph_edges = graph.edges.size();
  if (graph.edges.empty()) {
    SolveEdgeFree(graph, &plan);
    return plan;
  }
  const std::size_t n = std::max(graph.n_old, graph.n_new);
  const CostMatrix cost = DenseCostMatrix(graph);

  AssignmentResult matching;
  {
    metrics::ScopedTimerMs solve_timer("transition.solve_ms");
    matching = SolveAssignment(cost);
  }

  // Padding only fills the smaller side, so no row i >= n_old meets a
  // column j >= n_new: every move names at least one real node.
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t j = matching.assignment[i];
    AddMove(graph, i, j, static_cast<TupleCount>(cost(i, j)), &plan);
  }
  metrics::Count("transition.dense_solves");
  return plan;
}

/// Canonical move order: new nodes ascending (matched or fresh), then
/// decommissioned old nodes ascending.
TransitionPlan PlanSparse(const TransitionGraph& graph) {
  TransitionPlan plan;
  plan.stats.graph_edges = graph.edges.size();
  SparseMatchingResult matching;
  {
    metrics::ScopedTimerMs solve_timer("transition.solve_ms");
    matching = SolveMaxOverlapMatching(graph);
  }
  plan.stats.used_sparse = true;
  plan.stats.solver_iterations = matching.iterations;

  std::vector<bool> old_used(graph.n_old, false);
  for (NodeId j = 0; j < graph.n_new; ++j) {
    const NodeId i = matching.new_to_old[j];
    NodeTransition move;
    move.new_node = j;
    if (i == kInvalidNode) {
      move.old_node = kInvalidNode;
      move.transfer_tuples = graph.new_total[j];
      ++plan.nodes_added;
    } else {
      old_used[i] = true;
      move.old_node = i;
      // The matched pair's overlap discounts the full copy; find it in
      // the (new, old)-sorted edge list.
      const auto it = std::lower_bound(
          graph.edges.begin(), graph.edges.end(), std::make_pair(j, i),
          [](const TransitionEdge& e, const std::pair<NodeId, NodeId>& key) {
            if (e.new_node != key.first) return e.new_node < key.first;
            return e.old_node < key.second;
          });
      NASHDB_CHECK(it != graph.edges.end() && it->new_node == j &&
                   it->old_node == i)
          << "sparse plan: matched pair without an overlap edge";
      move.transfer_tuples = graph.new_total[j] - it->overlap;
    }
    plan.total_transfer_tuples += move.transfer_tuples;
    plan.moves.push_back(move);
  }
  for (NodeId i = 0; i < graph.n_old; ++i) {
    if (old_used[i]) continue;
    NodeTransition move;
    move.old_node = i;
    move.new_node = kInvalidNode;
    move.transfer_tuples = 0;
    ++plan.nodes_removed;
    plan.moves.push_back(move);
  }
  // Exactness cross-check, integer arithmetic end to end: total cost ==
  // bootstrap-everything minus the matching's kept overlap.
  NASHDB_CHECK(plan.total_transfer_tuples ==
               graph.TotalNewTuples() - matching.total_overlap)
      << "sparse plan: per-move costs disagree with the matching objective";
  metrics::Count("transition.sparse_solves");
  metrics::Observe("transition.solver_iterations",
                   static_cast<double>(matching.iterations));
  return plan;
}

TransitionPlan PlanTransition(const ClusterConfig& old_config,
                              const ClusterConfig& new_config,
                              const std::vector<bool>* old_node_dead) {
  metrics::ScopedTimerMs timer("transition.plan_ms");
  const std::size_t n_old = old_config.node_count();
  const std::size_t n_new = new_config.node_count();
  if (n_old == 0 && n_new == 0) return TransitionPlan{};

  // Both solvers price their edges from this one graph — the single
  // source of truth for the §7 weight formula (transition/edge_cost.h).
  TransitionGraph graph;
  {
    metrics::ScopedTimerMs build_timer("transition.graph_build_ms");
    graph = BuildTransitionGraph(old_config, new_config, old_node_dead);
  }
  metrics::Observe("transition.sparse_edges",
                   static_cast<double>(graph.edges.size()));

  TransitionPlan plan = std::max(n_old, n_new) > kDensePlanMaxNodes
                            ? PlanSparse(graph)
                            : PlanDense(graph);
  metrics::Count("transition.plans");
  metrics::Count("transition.planned_transfer_tuples",
                 plan.total_transfer_tuples);
  return plan;
}

}  // namespace nashdb
