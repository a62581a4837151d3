#include "transition/edge_cost.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace nashdb {
namespace {

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
/// fragment f are pairs[span[f].first, span[f].second).
struct FragmentOverlaps {
  std::vector<std::pair<std::size_t, std::size_t>> span;
  std::vector<FragmentOverlap> pairs;
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
    for (std::size_t k = io; k < old_order.size() &&
                             olds[old_order[k]].table == f.table &&
                             olds[old_order[k]].range.start < f.range.end;
         ++k) {
      const TupleCount overlap =
          f.range.Intersect(olds[old_order[k]].range).size();
      if (overlap > 0) out.pairs.push_back({old_order[k], overlap});
    }
    out.span[fid] = {first, out.pairs.size()};
  }
  return out;
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

  const FragmentOverlaps overlaps =
      OverlappingFragments(old_config, new_config);

  // One dense row per new node j, indexed by old node: the row of j is
  // valid where stamp[i] == j + 1, and `touched` lists those i. A node's
  // fragments of one table are disjoint (each configuration tiles its
  // tables), so summing fragment-pair overlaps over every (live old
  // replica, new replica) pair gives |Data(i) ∩ Data(j)| exactly, and
  // NodeUsage is |Data(j)|.
  std::vector<TupleCount> row(graph.n_old, 0);
  std::vector<std::size_t> stamp(graph.n_old, 0);
  std::vector<NodeId> touched;
  for (NodeId j = 0; j < graph.n_new; ++j) {
    touched.clear();
    for (FlatFragmentId fid : new_config.NodeFragments(j)) {
      const auto [first, last] = overlaps.span[fid];
      for (std::size_t p = first; p < last; ++p) {
        const FragmentOverlap& pair = overlaps.pairs[p];
        for (NodeId i : old_config.FragmentNodes(pair.old_fid)) {
          if (old_node_dead != nullptr && i < old_node_dead->size() &&
              (*old_node_dead)[i]) {
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
    for (NodeId i : touched) graph.edges.push_back({i, j, row[i]});
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
