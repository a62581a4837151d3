#include "transition/hungarian.h"

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace nashdb {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// State of the potentials-based Hungarian algorithm, 1-indexed (index 0 is
// a sentinel column). u/v are row/column potentials; p[j] is the row
// matched to column j; way[j] is the previous column on the augmenting
// path; minv[j] is column j's slack; used[j] marks the columns in the
// current alternating tree, and tree lists them in the order they joined.
// All of it is allocated once per solve; minv and used are reset per row.
struct Potentials {
  explicit Potentials(std::size_t n)
      : u(n + 1, 0.0),
        v(n + 1, 0.0),
        minv(n + 1, kInf),
        p(n + 1, 0),
        way(n + 1, 0),
        tree(n + 1, 0),
        used(n + 1, 0) {}

  std::vector<double> u, v, minv;
  std::vector<std::size_t> p, way, tree;
  std::vector<std::uint8_t> used;
};

// Adds row i (1-indexed) to the matching: grows the alternating tree from
// it, scanning the free columns in ascending order with strict-<
// tie-breaks, until it reaches a free column, then augments along the
// path.
//
// Each step lowers the tree's potentials by the step's delta and every
// free column's slack by the same delta. The slack update is deferred
// into the next step's scan, which visits exactly the columns still free,
// in the same order; so every minv, u and v sees the same operations in
// the same order as the textbook two-pass step, and the assignment is
// bit-identical. The last step's deferred update is dead: minv is reset
// before the next row reads it.
NASHDB_HOT void AddRow(const CostMatrix& cost, std::size_t i,
                       Potentials& s) {
  const std::size_t n = cost.n;
  double* const u = s.u.data();
  double* const v = s.v.data();
  double* const minv = s.minv.data();
  std::size_t* const p = s.p.data();
  std::size_t* const way = s.way.data();
  std::size_t* const tree = s.tree.data();
  std::uint8_t* const used = s.used.data();
  std::fill(minv, minv + n + 1, kInf);
  std::fill(used, used + n + 1, std::uint8_t{0});

  p[0] = i;
  std::size_t j0 = 0;
  std::size_t tree_size = 0;
  double pending = 0.0;  // the previous step's delta, owed by free columns
  do {
    used[j0] = 1;
    tree[tree_size++] = j0;
    const std::size_t i0 = p[j0];
    const double* const row = cost.row(i0 - 1);
    const double u_i0 = u[i0];
    double delta = kInf;
    std::size_t j1 = 0;
    for (std::size_t j = 1; j <= n; ++j) {
      if (used[j] != 0) continue;
      minv[j] -= pending;
      const double cur = row[j - 1] - u_i0 - v[j];
      if (cur < minv[j]) {
        minv[j] = cur;
        way[j] = j0;
      }
      if (minv[j] < delta) {
        delta = minv[j];
        j1 = j;
      }
    }
    for (std::size_t k = 0; k < tree_size; ++k) {
      u[p[tree[k]]] += delta;
      v[tree[k]] -= delta;
    }
    pending = delta;
    j0 = j1;
  } while (p[j0] != 0);
  // Augment along the path.
  do {
    const std::size_t j1 = way[j0];
    p[j0] = p[j1];
    j0 = j1;
  } while (j0 != 0);
}

}  // namespace

AssignmentResult SolveAssignment(const CostMatrix& cost) {
  const std::size_t n = cost.n;
  NASHDB_CHECK_GT(n, 0u) << "empty cost matrix";
  NASHDB_CHECK_EQ(cost.cells.size(), n * n);

  Potentials s(n);
  for (std::size_t i = 1; i <= n; ++i) AddRow(cost, i, s);

  AssignmentResult result;
  result.assignment.resize(n);
  for (std::size_t j = 1; j <= n; ++j) {
    result.assignment[s.p[j] - 1] = j - 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    result.total_cost += cost(i, result.assignment[i]);
  }
  return result;
}

}  // namespace nashdb
