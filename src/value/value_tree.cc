#include "value/value_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/logging.h"

namespace nashdb {

using internal_value::FlatNode;

// ---- arena ------------------------------------------------------------

std::int32_t ValueEstimationTree::NewNode(TupleIndex key) {
  std::int32_t n;
  if (free_head_ != kNil) {
    n = free_head_;
    free_head_ = nodes_[n].left;
    nodes_[n] = FlatNode{};
  } else {
    NASHDB_CHECK_LT(
        nodes_.size(),
        static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
        << "value tree arena exhausted 32-bit indexing";
    n = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[n].key = key;
  return n;
}

void ValueEstimationTree::ReleaseNode(std::int32_t n) {
  nodes_[n].left = free_head_;
  free_head_ = n;
}

// ---- AVL primitives ---------------------------------------------------
//
// Functional style: every mutator takes a subtree root index and returns
// the root index afterwards.

void ValueEstimationTree::Refresh(std::int32_t n) {
  FlatNode& node = nodes_[n];
  node.height = 1 + std::max(HeightOf(node.left), HeightOf(node.right));
  node.subtree_delta =
      node.delta() + SubtreeDelta(node.left) + SubtreeDelta(node.right);
}

// Right rotation around `root`; root's left child becomes the new root.
std::int32_t ValueEstimationTree::RotateRight(std::int32_t root) {
  const std::int32_t l = nodes_[root].left;
  nodes_[root].left = nodes_[l].right;
  Refresh(root);
  nodes_[l].right = root;
  Refresh(l);
  return l;
}

std::int32_t ValueEstimationTree::RotateLeft(std::int32_t root) {
  const std::int32_t r = nodes_[root].right;
  nodes_[root].right = nodes_[r].left;
  Refresh(root);
  nodes_[r].left = root;
  Refresh(r);
  return r;
}

std::int32_t ValueEstimationTree::Rebalance(std::int32_t root) {
  Refresh(root);
  const int bf = BalanceFactor(root);
  if (bf > 1) {
    if (BalanceFactor(nodes_[root].left) < 0) {
      nodes_[root].left = RotateLeft(nodes_[root].left);
    }
    return RotateRight(root);
  }
  if (bf < -1) {
    if (BalanceFactor(nodes_[root].right) > 0) {
      nodes_[root].right = RotateRight(nodes_[root].right);
    }
    return RotateLeft(root);
  }
  return root;
}

// Inserts `amount` into the s (is_start) or e (!is_start) field of the node
// with key `key`, creating the node if absent (sets *created).
std::int32_t ValueEstimationTree::AddAt(std::int32_t root, TupleIndex key,
                                        Money amount, bool is_start,
                                        bool* created) {
  if (root == kNil) {
    const std::int32_t n = NewNode(key);
    FlatNode& node = nodes_[n];
    if (is_start) {
      node.s = amount;
      node.s_count = 1;
    } else {
      node.e = amount;
      node.e_count = 1;
    }
    Refresh(n);
    *created = true;
    return n;
  }
  if (key < nodes_[root].key) {
    // Re-assign through the index: the recursive call may grow the arena,
    // so no reference into nodes_ survives across it.
    const std::int32_t nl = AddAt(nodes_[root].left, key, amount, is_start,
                                  created);
    nodes_[root].left = nl;
  } else if (key > nodes_[root].key) {
    const std::int32_t nr = AddAt(nodes_[root].right, key, amount, is_start,
                                  created);
    nodes_[root].right = nr;
  } else {
    FlatNode& node = nodes_[root];
    if (is_start) {
      node.s += amount;
      ++node.s_count;
    } else {
      node.e += amount;
      ++node.e_count;
    }
  }
  return Rebalance(root);
}

// Detaches the minimum node of the subtree into *min and returns the
// remaining subtree's root. *min keeps stale children; the caller rewires
// them.
std::int32_t ValueEstimationTree::PopMin(std::int32_t root,
                                         std::int32_t* min) {
  if (nodes_[root].left == kNil) {
    *min = root;
    return nodes_[root].right;
  }
  const std::int32_t nl = PopMin(nodes_[root].left, min);
  nodes_[root].left = nl;
  return Rebalance(root);
}

// Deletes the node with key `key` (which must exist) and releases its slot.
std::int32_t ValueEstimationTree::DeleteAt(std::int32_t root,
                                           TupleIndex key) {
  if (root == kNil) return kNil;
  if (key < nodes_[root].key) {
    const std::int32_t nl = DeleteAt(nodes_[root].left, key);
    nodes_[root].left = nl;
  } else if (key > nodes_[root].key) {
    const std::int32_t nr = DeleteAt(nodes_[root].right, key);
    nodes_[root].right = nr;
  } else {
    const std::int32_t left = nodes_[root].left;
    const std::int32_t right = nodes_[root].right;
    std::int32_t replacement;
    if (left == kNil) {
      replacement = right;
    } else if (right == kNil) {
      replacement = left;
    } else {
      std::int32_t succ = kNil;
      const std::int32_t new_right = PopMin(right, &succ);
      nodes_[succ].left = left;
      nodes_[succ].right = new_right;
      replacement = succ;
    }
    ReleaseNode(root);
    root = replacement;
  }
  if (root == kNil) return kNil;
  return Rebalance(root);
}

std::int32_t ValueEstimationTree::FindMutable(TupleIndex key) {
  std::int32_t n = root_;
  while (n != kNil) {
    if (key < nodes_[n].key) {
      n = nodes_[n].left;
    } else if (key > nodes_[n].key) {
      n = nodes_[n].right;
    } else {
      return n;
    }
  }
  return kNil;
}

// Recomputes subtree_delta along the search path to `key` (after a field of
// that node was modified in place).
void ValueEstimationTree::RefreshPath(std::int32_t root, TupleIndex key) {
  if (root == kNil) return;
  if (key < nodes_[root].key) {
    RefreshPath(nodes_[root].left, key);
  } else if (key > nodes_[root].key) {
    RefreshPath(nodes_[root].right, key);
  }
  Refresh(root);
}

// ---- public API -------------------------------------------------------

void ValueEstimationTree::AddScan(TupleIndex start, TupleIndex end,
                                  Money np) {
  NASHDB_DCHECK(start < end);
  NASHDB_DCHECK(np >= 0.0);
  bool created = false;
  root_ = AddAt(root_, start, np, /*is_start=*/true, &created);
  if (created) ++node_count_;
  created = false;
  root_ = AddAt(root_, end, np, /*is_start=*/false, &created);
  if (created) ++node_count_;
}

void ValueEstimationTree::RemoveScan(TupleIndex start, TupleIndex end,
                                     Money np) {
  NASHDB_DCHECK(start < end);
  for (const auto& [key, is_start] :
       {std::pair{start, true}, std::pair{end, false}}) {
    const std::int32_t ni = FindMutable(key);
    NASHDB_CHECK(ni != kNil)
        << "RemoveScan for a scan not present in the tree (key=" << key
        << ")";
    FlatNode& n = nodes_[ni];
    // Liveness is decided by the contribution counts, never by the
    // magnitude of the accumulator: an epsilon test would wipe a co-keyed
    // live scan whose normalized price is below the tolerance, and its own
    // later eviction would then CHECK-fail on the missing node. When the
    // last contributor leaves, the accumulator is snapped to exactly 0.0
    // so cancellation residue cannot leak into the value function.
    if (is_start) {
      NASHDB_CHECK_GT(n.s_count, 0u)
          << "RemoveScan start without a matching AddScan (key=" << key
          << ")";
      --n.s_count;
      n.s -= np;
      if (n.s_count == 0) n.s = 0.0;
    } else {
      NASHDB_CHECK_GT(n.e_count, 0u)
          << "RemoveScan end without a matching AddScan (key=" << key << ")";
      --n.e_count;
      n.e -= np;
      if (n.e_count == 0) n.e = 0.0;
    }
    if (n.s_count == 0 && n.e_count == 0) {
      root_ = DeleteAt(root_, key);
      --node_count_;
    } else {
      RefreshPath(root_, key);
    }
  }
}

Money ValueEstimationTree::RawValueAt(TupleIndex x) const {
  // Sum delta over all keys <= x using the subtree aggregates.
  Money acc = 0.0;
  std::int32_t n = root_;
  while (n != kNil) {
    const FlatNode& node = nodes_[n];
    if (node.key <= x) {
      acc += SubtreeDelta(node.left) + node.delta();
      n = node.right;
    } else {
      n = node.left;
    }
  }
  return acc;
}

std::size_t ValueEstimationTree::CheckSubtree(std::int32_t ni,
                                              const TupleIndex* lo,
                                              const TupleIndex* hi) const {
  if (ni == kNil) return 0;
  const FlatNode& n = nodes_[ni];
  if (lo) NASHDB_CHECK_GT(n.key, *lo);
  if (hi) NASHDB_CHECK_LT(n.key, *hi);
  // A node exists iff some buffered scan still references its key, and
  // an accumulator with no contributors must have been snapped to 0.
  NASHDB_CHECK(n.s_count > 0 || n.e_count > 0)
      << "zombie node at key " << n.key;
  if (n.s_count == 0) NASHDB_CHECK_EQ(n.s, 0.0);
  if (n.e_count == 0) NASHDB_CHECK_EQ(n.e, 0.0);
  NASHDB_CHECK_LE(std::abs(BalanceFactor(ni)), 1);
  NASHDB_CHECK_EQ(n.height, 1 + std::max(HeightOf(n.left), HeightOf(n.right)));
  const Money expect =
      n.delta() + SubtreeDelta(n.left) + SubtreeDelta(n.right);
  NASHDB_CHECK(std::abs(n.subtree_delta - expect) < 1e-9)
      << "subtree_delta stale at key " << n.key;
  return 1 + CheckSubtree(n.left, lo, &n.key) + CheckSubtree(n.right, &n.key, hi);
}

void ValueEstimationTree::CheckInvariants() const {
  const std::size_t counted = CheckSubtree(root_, nullptr, nullptr);
  NASHDB_CHECK_EQ(counted, node_count_);
  // Arena accounting: every slot is either a live node or on the free list
  // (a broken free list would leak slots or double-allocate).
  std::size_t free_slots = 0;
  for (std::int32_t f = free_head_; f != kNil; f = nodes_[f].left) {
    ++free_slots;
    NASHDB_CHECK_LE(free_slots, nodes_.size()) << "free list cycle";
  }
  NASHDB_CHECK_EQ(node_count_ + free_slots, nodes_.size());
}

}  // namespace nashdb
