#ifndef NASHDB_TRANSITION_HUNGARIAN_H_
#define NASHDB_TRANSITION_HUNGARIAN_H_

#include <cstddef>
#include <vector>

namespace nashdb {

/// A square n x n cost matrix in one row-major array:
/// (i, j) is cells[i * n + j].
struct CostMatrix {
  std::size_t n = 0;
  std::vector<double> cells;

  explicit CostMatrix(std::size_t size) : n(size), cells(size * size, 0.0) {}

  double* row(std::size_t i) { return cells.data() + i * n; }
  const double* row(std::size_t i) const { return cells.data() + i * n; }
  double operator()(std::size_t i, std::size_t j) const {
    return cells[i * n + j];
  }
};

/// Solves the assignment problem: given a square cost matrix
/// (cost(i, j) = cost of assigning row i to column j), finds the
/// minimum-total-cost perfect matching using the Kuhn–Munkres (Hungarian)
/// algorithm with potentials, O(n^3) ([23, 43] in the paper).
///
/// This is the planner's *dense* solver: materializing the full n x n
/// matrix and running O(n^3) is only done at or below kDensePlanMaxNodes
/// (transition/planner.h). Above it PlanTransition uses the sparse
/// successive-shortest-paths solver
/// (transition/sparse_matching.h); both price edges from the shared
/// transition/edge_cost.h graph, so their total costs are bit-identical.
///
/// Returns `assignment` where assignment[i] is the column matched to row i.
/// The matrix must be non-empty; costs must be finite.
struct AssignmentResult {
  std::vector<std::size_t> assignment;
  double total_cost = 0.0;
};

AssignmentResult SolveAssignment(const CostMatrix& cost);

}  // namespace nashdb

#endif  // NASHDB_TRANSITION_HUNGARIAN_H_
