#include "replication/packer.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "common/metrics.h"

namespace nashdb {
namespace {

/// The one BFFD processing order: decreasing replica count, ties broken by
/// decreasing size for tighter packing, then by id for determinism (a
/// strict total order, so the order is unique).
struct BffdLess {
  const std::vector<FragmentInfo>* frags;
  bool operator()(FlatFragmentId a, FlatFragmentId b) const {
    const FragmentInfo& fa = (*frags)[a];
    const FragmentInfo& fb = (*frags)[b];
    if (fa.replicas != fb.replicas) return fa.replicas > fb.replicas;
    if (fa.size() != fb.size()) return fa.size() > fb.size();
    return a < b;
  }
};

/// Segment (max) tree over per-node remaining capacity answering "first
/// node with remaining >= need" in O(log nodes) — the first-fit scan of
/// BFFD without the linear walk. Slots beyond the live node count hold
/// remaining capacity 0 and are excluded by the `limit` bound, so they can
/// never be chosen (not even by zero-sized fragments).
class FirstFitTree {
 public:
  void AddNode(TupleCount disk) {
    if (n_ == cap_) Grow();
    Set(n_, disk);
    ++n_;
  }

  void Consume(NodeId node, TupleCount size) {
    NASHDB_DCHECK(node < n_ && Get(node) >= size);
    Set(node, Get(node) - size);
  }

  /// First node id in [lo, node count) with remaining >= need, or
  /// kInvalidNode when none exists.
  NodeId FindFirstFit(NodeId lo, TupleCount need) const {
    if (lo >= n_) return kInvalidNode;
    const std::size_t found = Find(1, 0, cap_, lo, need);
    return found == kNotFound ? kInvalidNode : static_cast<NodeId>(found);
  }

 private:
  static constexpr std::size_t kNotFound = ~std::size_t{0};

  TupleCount Get(std::size_t leaf) const { return tree_[cap_ + leaf]; }

  void Set(std::size_t leaf, TupleCount v) {
    std::size_t i = cap_ + leaf;
    tree_[i] = v;
    for (i /= 2; i >= 1; i /= 2) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  void Grow() {
    const std::size_t new_cap = cap_ == 0 ? 1 : cap_ * 2;
    std::vector<TupleCount> old_leaves;
    old_leaves.reserve(n_);
    for (std::size_t i = 0; i < n_; ++i) old_leaves.push_back(Get(i));
    cap_ = new_cap;
    tree_.assign(2 * cap_, 0);
    for (std::size_t i = 0; i < n_; ++i) tree_[cap_ + i] = old_leaves[i];
    for (std::size_t i = cap_ - 1; i >= 1; --i) {
      tree_[i] = std::max(tree_[2 * i], tree_[2 * i + 1]);
    }
  }

  /// First leaf >= lo within [node_lo, node_hi) whose value >= need; the
  /// live-node bound is enforced by the caller (leaves >= n_ hold 0 and
  /// need can be 0 only for zero-sized fragments, which FindFirstFit
  /// screens via `lo >= n_` plus the explicit n_ cap below).
  std::size_t Find(std::size_t node, std::size_t node_lo, std::size_t node_hi,
                   std::size_t lo, TupleCount need) const {
    if (node_hi <= lo || tree_[node] < need || node_lo >= n_) return kNotFound;
    if (node_hi - node_lo == 1) return node_lo;
    const std::size_t mid = node_lo + (node_hi - node_lo) / 2;
    const std::size_t left = Find(2 * node, node_lo, mid, lo, need);
    if (left != kNotFound) return left;
    return Find(2 * node + 1, mid, node_hi, lo, need);
  }

  std::size_t n_ = 0;    ///< live nodes
  std::size_t cap_ = 0;  ///< power-of-two leaf capacity
  std::vector<TupleCount> tree_;
};

}  // namespace

Result<ClusterConfig> PackReplicasBffd(const ReplicationParams& params,
                                       std::vector<FragmentInfo> fragments) {
  metrics::ScopedTimerMs timer("transition.pack_ms");
  if (params.node_disk == 0) {
    return Status::InvalidArgument("node_disk must be positive");
  }
  for (const FragmentInfo& f : fragments) {
    if (f.size() > params.node_disk) {
      return Status::InvalidArgument(
          "fragment larger than node disk capacity");
    }
  }

  ClusterConfig config(params, std::move(fragments));

  std::vector<FlatFragmentId> order(config.fragments().size());
  std::iota(order.begin(), order.end(), FlatFragmentId{0});
  std::sort(order.begin(), order.end(), BffdLess{&config.fragments()});

  // First fit with a capacity tree: semantically the historical scan
  // "first node where Fits && !Holds, else AddNode", with Fits answered by
  // the tree (remaining >= size <=> Fits) and Holds screened by resuming
  // the search past a node that already stores the fragment.
  FirstFitTree tree;
  for (FlatFragmentId fid : order) {
    const FragmentInfo& f = config.fragment(fid);
    for (std::size_t r = 0; r < f.replicas; ++r) {
      NodeId lo = 0;
      NodeId node = kInvalidNode;
      while (true) {
        node = tree.FindFirstFit(lo, f.size());
        if (node == kInvalidNode) break;
        if (!config.Holds(node, fid)) break;
        lo = node + 1;  // holds a replica already: keep scanning upward
      }
      if (node == kInvalidNode) {
        node = config.AddNode();
        tree.AddNode(params.node_disk);
      }
      config.Place(node, fid);
      tree.Consume(node, f.size());
    }
  }
  return config;
}

Result<ClusterConfig> BuildConfigFromPlacement(
    const ReplicationParams& params, std::vector<FragmentInfo> fragments,
    const std::vector<std::vector<FlatFragmentId>>& node_fragments) {
  if (params.node_disk == 0) {
    return Status::InvalidArgument("node_disk must be positive");
  }
  // Recompute achieved replica counts.
  std::vector<std::size_t> achieved(fragments.size(), 0);
  for (const auto& frags : node_fragments) {
    for (FlatFragmentId fid : frags) {
      if (fid >= fragments.size()) {
        return Status::InvalidArgument("placement references unknown fragment");
      }
      ++achieved[fid];
    }
  }
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    fragments[i].replicas = achieved[i];
  }

  // Per node, in list order: a duplicate, then the capacity. Nodes are
  // visited one at a time, so a fragment is already on the current node
  // exactly when the current node is its last holder so far: the
  // duplicate check is one stamp per fragment, not a scan of the node.
  std::vector<NodeId> last_holder(fragments.size(), kInvalidNode);
  std::vector<TupleCount> usage(node_fragments.size(), 0);
  for (NodeId node = 0; node < node_fragments.size(); ++node) {
    TupleCount used = 0;
    for (FlatFragmentId fid : node_fragments[node]) {
      if (last_holder[fid] == node) {
        return Status::InvalidArgument("duplicate replica on one node");
      }
      last_holder[fid] = node;
      used += fragments[fid].size();
      if (used > params.node_disk) {
        return Status::InvalidArgument("node over capacity");
      }
    }
    usage[node] = used;
  }
  return ClusterConfig(params, std::move(fragments), node_fragments,
                       std::move(usage));
}

}  // namespace nashdb
