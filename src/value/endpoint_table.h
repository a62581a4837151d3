#ifndef NASHDB_VALUE_ENDPOINT_TABLE_H_
#define NASHDB_VALUE_ENDPOINT_TABLE_H_

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "value/value_tree.h"

namespace nashdb {

/// The scan window's value function as its endpoints (DESIGN.md §10): one
/// slot per distinct scan start or end key in the window, holding exactly
/// a ValueEstimationTree node's fields (K, S, E and the two contribution
/// counts), in a flat open-addressing table.
///
/// The estimator reads the value function only as a whole profile, once
/// per reconfiguration round, so it keeps no order between reads: an
/// observed scan costs two hashed upserts and an evicted one two hashed
/// updates, O(1) expected each, and ForEachChunk sorts the k <= 2|W| live
/// keys when a profile is read (O(k log k)).
///
/// Bit-identical to ValueEstimationTree, its oracle (endpoint_table_test
/// pins the chunk streams bit for bit): the per-key arithmetic is the
/// tree's (a new key's accumulator is assigned, later contributions are
/// added or subtracted, a count that reaches zero snaps its accumulator
/// to exactly 0.0, a key lives while either count is nonzero), and the
/// walk visits keys in ascending order, as the tree's in-order walk does,
/// so Algorithm 1's accumulator sums the same deltas in the same order.
///
/// Layout: linear probing from a fixed multiplicative (Fibonacci) hash of
/// the key, no seed and no addresses, so the layout is a function of the
/// operation history alone. Load stays <= 1/2; the table doubles only
/// when the live-key count reaches a new high and never shrinks, and a
/// removal shifts its probe run back (no tombstones), so observing a
/// steady window allocates nothing.
class EndpointTable {
 public:
  EndpointTable() = default;

  EndpointTable(const EndpointTable&) = delete;
  EndpointTable& operator=(const EndpointTable&) = delete;
  EndpointTable(EndpointTable&&) noexcept = default;
  EndpointTable& operator=(EndpointTable&&) noexcept = default;

  /// Records one scan [start, end) with normalized price `np`. O(1)
  /// expected.
  void AddScan(TupleIndex start, TupleIndex end, Money np);

  /// Removes a previously added scan; CHECK-fails when (start, end) was
  /// never added. O(1) expected.
  void RemoveScan(TupleIndex start, TupleIndex end, Money np);

  /// Un-averaged value at tuple x: the sum of S - E over keys <= x, taken
  /// in slot order, so it may differ from the profile's chunk value in
  /// the last bits. O(capacity); nothing on the query path calls it.
  Money RawValueAt(TupleIndex x) const;

  /// Algorithm 1, as ValueEstimationTree::ForEachChunk: invokes
  /// `fn(chunk_start, chunk_end, raw_value)` for each maximal run of
  /// tuples between consecutive keys whose accumulated value is nonzero
  /// (beyond internal_value::kChunkEps). Sorts the live keys first.
  template <typename Fn>
  void ForEachChunk(Fn&& fn) const {
    const std::vector<std::pair<TupleIndex, Money>> deltas = SortedDeltas();
    Money alpha = 0.0;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (i > 0 && std::abs(alpha) > internal_value::kChunkEps) {
        fn(deltas[i - 1].first, deltas[i].first, alpha);
      }
      alpha += deltas[i].second;
    }
  }

  /// Number of distinct start/end keys stored.
  std::size_t node_count() const { return count_; }

  bool empty() const { return count_ == 0; }

  /// Slots allocated (a power of two, or 0 before the first scan).
  std::size_t capacity() const { return slots_.size(); }

  /// Heap footprint in bytes: every allocated slot, live or not.
  std::size_t SizeBytes() const;

  /// Validates the count, the load bound, snapped accumulators, unique
  /// keys, and that every key is reachable from its home slot without
  /// crossing an empty slot; CHECK-fails on violation. Exposed for tests.
  void CheckInvariants() const;

 private:
  /// One live endpoint; a slot with both counts zero is empty.
  struct Slot {
    TupleIndex key = 0;
    Money s = 0.0;  // summed normalized price of scans starting at key
    Money e = 0.0;  // summed normalized price of scans ending at key
    std::uint32_t s_count = 0;
    std::uint32_t e_count = 0;

    bool live() const { return s_count != 0 || e_count != 0; }
  };

  std::size_t Home(TupleIndex key) const;
  /// Index of `key`'s slot, or of the empty slot that ends its probe run.
  std::size_t Probe(TupleIndex key) const;
  /// The slot for `key`, claiming one (and growing first if the live-key
  /// count would pass half the capacity) when the key is absent; sets
  /// *created in that case.
  Slot& Upsert(TupleIndex key, bool* created);
  void Grow();
  /// Empties slot `i` and shifts the rest of its probe run back.
  void EraseAt(std::size_t i);
  /// (key, S - E) of every live key, in ascending key order.
  std::vector<std::pair<TupleIndex, Money>> SortedDeltas() const;

  std::vector<Slot> slots_;
  std::size_t count_ = 0;
  /// 64 - log2(capacity): Home() keeps the top bits of the hash product.
  int shift_ = 64;
};

}  // namespace nashdb

#endif  // NASHDB_VALUE_ENDPOINT_TABLE_H_
