#include "transition/edge_cost.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace nashdb {
namespace {

/// A dense-row add is one lane of a contiguous, vectorized add into a
/// cache-resident row; a scatter add is a random-access add behind a
/// stamp test. The graph build sums in dense rows when they make fewer
/// than this many adds per scatter add; below 10 they were the faster
/// accumulation on every shape measured (DESIGN.md §15.1).
constexpr std::size_t kDenseAddsPerScatterAdd = 8;

/// Flat fragment ids of `config` sorted by (table, start): each table's
/// fragments form one contiguous run, in tiling order.
std::vector<FlatFragmentId> ByTableStart(const ClusterConfig& config) {
  const std::vector<FragmentInfo>& frags = config.fragments();
  std::vector<FlatFragmentId> order(frags.size());
  for (FlatFragmentId fid = 0; fid < order.size(); ++fid) order[fid] = fid;
  std::sort(order.begin(), order.end(),
            [&frags](FlatFragmentId a, FlatFragmentId b) {
              if (frags[a].table != frags[b].table) {
                return frags[a].table < frags[b].table;
              }
              if (frags[a].range.start != frags[b].range.start) {
                return frags[a].range.start < frags[b].range.start;
              }
              return a < b;
            });
  return order;
}

/// One old fragment a new fragment overlaps, and by how many tuples.
struct FragmentOverlap {
  FlatFragmentId old_fid = 0;
  TupleCount overlap = 0;
};

/// Every positive (new fragment, old fragment) overlap. The pairs of new
/// fragment f are pairs[span[f].first, span[f].second). Over the new
/// fragments with a pair, `new_replicas` sums their replicas and
/// `scatter_adds` their replicas times the old replicas of the fragments
/// each overlaps.
struct FragmentOverlaps {
  std::vector<std::pair<std::size_t, std::size_t>> span;
  std::vector<FragmentOverlap> pairs;
  std::size_t new_replicas = 0;
  std::size_t scatter_adds = 0;
};

/// One merge per table over both (table, start)-sorted fragment lists. It
/// finds every positive overlap for any fragment lists, and when the old
/// fragments tile their tables it is linear after the sorts.
FragmentOverlaps OverlappingFragments(const ClusterConfig& old_config,
                                      const ClusterConfig& new_config) {
  const std::vector<FragmentInfo>& olds = old_config.fragments();
  const std::vector<FragmentInfo>& news = new_config.fragments();
  const std::vector<FlatFragmentId> old_order = ByTableStart(old_config);
  FragmentOverlaps out;
  out.span.resize(news.size());
  std::size_t io = 0;
  for (FlatFragmentId fid : ByTableStart(new_config)) {
    const FragmentInfo& f = news[fid];
    // Old fragments of earlier tables, or ending at or before f starts,
    // overlap neither f nor any later new fragment of f's table.
    while (io < old_order.size() &&
           (olds[old_order[io]].table < f.table ||
            (olds[old_order[io]].table == f.table &&
             olds[old_order[io]].range.end <= f.range.start))) {
      ++io;
    }
    const std::size_t first = out.pairs.size();
    std::size_t old_replicas = 0;
    for (std::size_t k = io; k < old_order.size() &&
                             olds[old_order[k]].table == f.table &&
                             olds[old_order[k]].range.start < f.range.end;
         ++k) {
      const TupleCount overlap =
          f.range.Intersect(olds[old_order[k]].range).size();
      if (overlap > 0) {
        out.pairs.push_back({old_order[k], overlap});
        old_replicas += old_config.FragmentNodes(old_order[k]).size();
      }
    }
    out.span[fid] = {first, out.pairs.size()};
    if (out.pairs.size() > first) {
      const std::size_t replicas = new_config.FragmentNodes(fid).size();
      out.new_replicas += replicas;
      out.scatter_adds += replicas * old_replicas;
    }
  }
  return out;
}

/// True when old node i is flagged dead (a short mask leaves the nodes
/// past its end live).
bool Dead(const std::vector<bool>* old_node_dead, NodeId i) {
  return old_node_dead != nullptr && i < old_node_dead->size() &&
         (*old_node_dead)[i];
}

/// Scatter: each new node j adds its fragments' pair overlaps into one
/// dense row indexed by old node, once per live old replica. The row of
/// j is valid where stamp[i] == j + 1, and `touched` lists those i, so
/// the row is never cleared; the touched ids are sorted and emitted.
void ScatterRows(const ClusterConfig& old_config,
                 const ClusterConfig& new_config,
                 const FragmentOverlaps& overlaps,
                 const std::vector<bool>* old_node_dead,
                 TransitionGraph* graph) {
  std::vector<TupleCount> row(graph->n_old, 0);
  std::vector<std::size_t> stamp(graph->n_old, 0);
  std::vector<NodeId> touched;
  for (NodeId j = 0; j < graph->n_new; ++j) {
    touched.clear();
    for (FlatFragmentId fid : new_config.NodeFragments(j)) {
      const auto [first, last] = overlaps.span[fid];
      for (std::size_t p = first; p < last; ++p) {
        const FragmentOverlap& pair = overlaps.pairs[p];
        for (NodeId i : old_config.FragmentNodes(pair.old_fid)) {
          if (Dead(old_node_dead, i)) {
            continue;  // unreadable replica: the edge stays trivial
          }
          if (stamp[i] != j + 1) {
            stamp[i] = j + 1;
            row[i] = 0;
            touched.push_back(i);
          }
          row[i] += pair.overlap;
        }
      }
    }
    std::sort(touched.begin(), touched.end());
    for (NodeId i : touched) graph->edges.push_back({i, j, row[i]});
  }
}

/// Dense rows: each new fragment's overlap with every live old node is
/// summed once into `fragment_row`, then added into the n_old-wide row of
/// each of its new holders in one contiguous, branch-free loop. Every
/// positive entry of the n_new x n_old block is an edge, emitted in
/// (new, old) order.
void DenseRows(const ClusterConfig& old_config,
               const ClusterConfig& new_config,
               const FragmentOverlaps& overlaps,
               const std::vector<bool>* old_node_dead,
               TransitionGraph* graph) {
  const std::size_t n_old = graph->n_old;
  std::vector<TupleCount> block(graph->n_new * n_old, 0);
  std::vector<TupleCount> fragment_row(n_old);
  for (FlatFragmentId fid = 0; fid < overlaps.span.size(); ++fid) {
    const auto [first, last] = overlaps.span[fid];
    if (first == last) continue;
    std::fill(fragment_row.begin(), fragment_row.end(), 0);
    for (std::size_t p = first; p < last; ++p) {
      const FragmentOverlap& pair = overlaps.pairs[p];
      for (NodeId i : old_config.FragmentNodes(pair.old_fid)) {
        if (!Dead(old_node_dead, i)) fragment_row[i] += pair.overlap;
      }
    }
    const TupleCount* const src = fragment_row.data();
    for (NodeId j : new_config.FragmentNodes(fid)) {
      TupleCount* const dst = block.data() + j * n_old;
      for (std::size_t i = 0; i < n_old; ++i) dst[i] += src[i];
    }
  }
  for (NodeId j = 0; j < graph->n_new; ++j) {
    const TupleCount* const row = block.data() + j * n_old;
    for (NodeId i = 0; i < n_old; ++i) {
      if (row[i] != 0) graph->edges.push_back({i, j, row[i]});
    }
  }
}

}  // namespace

TransitionGraph BuildTransitionGraph(const ClusterConfig& old_config,
                                     const ClusterConfig& new_config,
                                     const std::vector<bool>* old_node_dead) {
  TransitionGraph graph;
  graph.n_old = old_config.node_count();
  graph.n_new = new_config.node_count();
  graph.new_total.resize(graph.n_new);
  for (NodeId j = 0; j < graph.n_new; ++j) {
    graph.new_total[j] = new_config.NodeUsage(j);
  }

  // A node's fragments of one table are disjoint (each configuration
  // tiles its tables), so summing fragment-pair overlaps over every (live
  // old replica, new replica) pair gives |Data(i) ∩ Data(j)| exactly, in
  // either order of summation, and NodeUsage is |Data(j)|. Dense rows
  // add n_old entries per new replica of a fragment with a pair, and
  // fill and scan the n_new x n_old block; the scatter adds once per
  // (new replica, old replica) of each overlapping fragment pair. So the
  // block never holds more entries than kDenseAddsPerScatterAdd times
  // the adds the scatter would make.
  const FragmentOverlaps overlaps =
      OverlappingFragments(old_config, new_config);
  const std::size_t dense_adds =
      (overlaps.new_replicas + graph.n_new) * graph.n_old;
  if (dense_adds < kDenseAddsPerScatterAdd * overlaps.scatter_adds) {
    DenseRows(old_config, new_config, overlaps, old_node_dead, &graph);
    metrics::Count("transition.graph_dense_rows");
  } else {
    ScatterRows(old_config, new_config, overlaps, old_node_dead, &graph);
  }
  return graph;
}

CostMatrix DenseCostMatrix(const TransitionGraph& graph) {
  const std::size_t n = std::max(graph.n_old, graph.n_new);
  CostMatrix cost(n);
  // Base fill: every real new column j costs its full bootstrap |Data(j)|
  // from any row (real or dummy); dummy columns (decommission) cost 0.
  for (std::size_t i = 0; i < n; ++i) {
    double* const row = cost.row(i);
    for (std::size_t j = 0; j < graph.n_new; ++j) {
      row[j] = static_cast<double>(graph.new_total[j]);
    }
  }
  // Discount the non-trivial edges: cost(i, j) = |Data(j)| - overlap(i, j).
  for (const TransitionEdge& e : graph.edges) {
    NASHDB_DCHECK(e.old_node < graph.n_old && e.new_node < graph.n_new);
    NASHDB_DCHECK(e.overlap <= graph.new_total[e.new_node]);
    cost.row(e.old_node)[e.new_node] =
        static_cast<double>(graph.new_total[e.new_node] - e.overlap);
  }
  return cost;
}

}  // namespace nashdb
