#ifndef NASHDB_VALUE_VALUE_TREE_H_
#define NASHDB_VALUE_VALUE_TREE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/logging.h"
#include "common/types.h"

namespace nashdb {

/// The tuple value estimation tree of paper §4.2: an augmented,
/// height-balanced (AVL) binary search tree with one node per *unique* scan
/// start or end index within the current scan window. Node n stores:
///
///   - K(n): the tuple index (the BST key),
///   - S(n): the summed normalized price (Price(s)/Size(s)) of window scans
///           that *start* at K(n),
///   - E(n): the summed normalized price of window scans that *end* at K(n).
///
/// The (un-averaged) value of tuple x is sum_{K(n) <= x} S(n) - E(n); the
/// averaged estimate V(x) divides by the window size |W| (Eq. 2). An
/// in-order traversal with an accumulator (Algorithm 1) yields the whole
/// piecewise-constant value function in O(#nodes) time.
///
/// Each node is additionally augmented with the subtree sum of
/// Delta(n) = S(n) - E(n) (the Appendix A quantity), which makes single-point
/// lookups O(log n) instead of O(n).
///
/// Representation (DESIGN.md §10): nodes live in one contiguous arena
/// (std::vector) and children are 32-bit indices instead of owning
/// pointers. Deleted slots are threaded onto a free list (through the
/// `left` field) and reused before the arena grows, so a steady-state scan
/// window — whose evictions and insertions roughly balance — performs no
/// allocation at all, and the in-order walk touches one cache-friendly
/// array instead of chasing 16-byte-apart heap pointers. The walk itself
/// (ForEachChunk) is iterative over an explicit height-bounded stack and
/// templated on the callback, so per-reconfiguration Profile() calls pay
/// neither recursion nor std::function dispatch.
///
/// Nothing in the pipeline ships the tree: TupleValueEstimator keeps its
/// window in an EndpointTable (value/endpoint_table.h), and this tree is
/// that table's oracle (endpoint_table_test pins the two bit for bit) and
/// the paper-AVL row of bench_tree_overhead. The tree does NOT own the
/// scan window; its caller adds and removes the window's scans.
namespace internal_value {

/// One arena slot. 56 bytes/node vs the pointer AVL's 64-byte node plus
/// per-node malloc metadata; exposed so tests can assert SizeBytes honesty.
struct FlatNode {
  TupleIndex key = 0;
  Money s = 0.0;  // summed normalized price of scans starting here
  Money e = 0.0;  // summed normalized price of scans ending here
  Money subtree_delta = 0.0;  // sum of (s - e) over this subtree
  // Number of buffered scans contributing to s / e. A node may be deleted
  // only when both counts reach zero; when one does, its accumulator is
  // snapped to exactly 0.0, discarding cancellation residue.
  std::uint32_t s_count = 0;
  std::uint32_t e_count = 0;
  std::int32_t left = -1;   // arena index; -1 = none (free list: next free)
  std::int32_t right = -1;  // arena index; -1 = none
  std::int32_t height = 1;

  Money delta() const { return s - e; }
};

/// Tolerance below which an accumulated value is considered floating-point
/// noise (ForEachChunk chunk suppression). Deliberately NOT used to decide
/// node lifetime: a live scan's normalized price can be far below any fixed
/// epsilon (price 1e-6 over 1e7 tuples is 1e-13), so liveness is tracked by
/// the per-key contribution counts instead of a magnitude test.
inline constexpr Money kChunkEps = 1e-12;

/// AVL height bound: < 1.4405 log2(n + 2), so 64 levels covers any arena
/// addressable by 32-bit indices. ForEachChunk's stack is this deep.
inline constexpr int kMaxHeight = 64;

}  // namespace internal_value

class ValueEstimationTree {
 public:
  ValueEstimationTree() = default;

  ValueEstimationTree(const ValueEstimationTree&) = delete;
  ValueEstimationTree& operator=(const ValueEstimationTree&) = delete;
  ValueEstimationTree(ValueEstimationTree&&) noexcept = default;
  ValueEstimationTree& operator=(ValueEstimationTree&&) noexcept = default;

  /// Records one scan [start, end) with normalized price `np` (that is,
  /// Price(s)/Size(s)): S at `start` and E at `end` are incremented by `np`,
  /// creating nodes as needed. O(log n).
  void AddScan(TupleIndex start, TupleIndex end, Money np);

  /// Removes a previously-added scan: decrements S at `start` and E at
  /// `end`. Each node tracks how many buffered scans contribute to its S
  /// and E; a node is deleted only when both counts reach zero (a
  /// magnitude test would wipe co-keyed live scans with tiny normalized
  /// prices). O(log n). The (start, end, np) triple must match a prior
  /// AddScan. The freed slot is recycled by a later AddScan, not released.
  void RemoveScan(TupleIndex start, TupleIndex end, Money np);

  /// Un-averaged cumulative value at tuple x: sum of S(n) - E(n) over all
  /// nodes with K(n) <= x. Divide by |W| to obtain V(x). O(log n).
  Money RawValueAt(TupleIndex x) const;

  /// Algorithm 1: walks the tree in order, invoking
  /// `fn(chunk_start, chunk_end, raw_value)` for each maximal run of tuples
  /// sharing the same un-averaged value. Chunks with raw_value == 0 before
  /// the first key and after the last key are not reported. O(#nodes) time,
  /// O(height) space, no allocation, no indirect dispatch.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    // Iterative in-order traversal: push the left spine, pop, descend right.
    std::int32_t stack[internal_value::kMaxHeight];
    int top = 0;
    std::int32_t cur = root_;
    Money alpha = 0.0;
    bool have_prev = false;
    TupleIndex prev_key = 0;
    while (cur != kNil || top > 0) {
      while (cur != kNil) {
        stack[top++] = cur;
        cur = nodes_[cur].left;
      }
      const internal_value::FlatNode& n = nodes_[stack[--top]];
      if (have_prev && std::abs(alpha) > internal_value::kChunkEps &&
          n.key > prev_key) {
        fn(prev_key, n.key, alpha);
      }
      alpha += n.delta();
      prev_key = n.key;
      have_prev = true;
      cur = n.right;
    }
    // After the final node the accumulator must return to ~0 (every scan
    // that starts also ends); any residual is floating-point noise, and
    // there is no chunk to emit past the last key.
  }

  /// Type-erased ForEachChunk, kept for callers that store the callback.
  using ChunkFn =
      std::function<void(TupleIndex start, TupleIndex end, Money raw_value)>;
  void IterateValues(const ChunkFn& fn) const { ForEachChunk(fn); }

  /// Number of distinct start/end keys currently stored.
  std::size_t node_count() const { return node_count_; }

  bool empty() const { return node_count_ == 0; }

  /// Heap footprint of the tree in bytes (for the paper's §10.1 overhead
  /// measurement): the whole arena allocation, including free-listed and
  /// not-yet-used slots — what the process actually holds, not
  /// node_count() * sizeof(node).
  std::size_t SizeBytes() const {
    return nodes_.capacity() * sizeof(internal_value::FlatNode);
  }

  /// Arena slots ever occupied (live nodes + free list). Tests use this to
  /// assert slot recycling and SizeBytes honesty.
  std::size_t arena_slots() const { return nodes_.size(); }

  /// Height of the tree (0 for empty); exposed for balance tests.
  int Height() const { return HeightOf(root_); }

  /// Validates AVL balance, key ordering, augmented sums, and arena/free-
  /// list accounting; CHECK-fails on violation. Exposed for tests.
  void CheckInvariants() const;

 private:
  static constexpr std::int32_t kNil = -1;

  int HeightOf(std::int32_t n) const {
    return n == kNil ? 0 : nodes_[n].height;
  }
  Money SubtreeDelta(std::int32_t n) const {
    return n == kNil ? 0.0 : nodes_[n].subtree_delta;
  }
  void Refresh(std::int32_t n);
  int BalanceFactor(std::int32_t n) const {
    return HeightOf(nodes_[n].left) - HeightOf(nodes_[n].right);
  }

  std::int32_t NewNode(TupleIndex key);
  void ReleaseNode(std::int32_t n);

  // Functional-style AVL primitives: take a subtree root index, return the
  // (possibly different) root index afterwards. Indices stay valid across
  // arena growth, unlike pointers into the vector.
  std::int32_t RotateRight(std::int32_t root);
  std::int32_t RotateLeft(std::int32_t root);
  std::int32_t Rebalance(std::int32_t root);
  std::int32_t AddAt(std::int32_t root, TupleIndex key, Money amount,
                     bool is_start, bool* created);
  std::int32_t PopMin(std::int32_t root, std::int32_t* min);
  std::int32_t DeleteAt(std::int32_t root, TupleIndex key);
  std::int32_t FindMutable(TupleIndex key);
  void RefreshPath(std::int32_t root, TupleIndex key);

  std::size_t CheckSubtree(std::int32_t n, const TupleIndex* lo,
                           const TupleIndex* hi) const;

  std::vector<internal_value::FlatNode> nodes_;
  std::int32_t root_ = kNil;
  /// Head of the free-slot list, threaded through FlatNode::left.
  std::int32_t free_head_ = kNil;
  std::size_t node_count_ = 0;
};

}  // namespace nashdb

#endif  // NASHDB_VALUE_VALUE_TREE_H_
