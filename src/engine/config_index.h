#ifndef NASHDB_ENGINE_CONFIG_INDEX_H_
#define NASHDB_ENGINE_CONFIG_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/query.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "routing/scan_batch.h"

namespace nashdb {

/// Lookup structure over one ClusterConfig: maps a range scan to the
/// fragment read requests it induces (the scan router's F(s) with
/// candidate nodes E(s) — §8). Built once per configuration as flat
/// contiguous storage: one entry record per fragment, grouped per table
/// and sorted by range start, with each entry's candidate nodes a span
/// into a single flat NodeId pool. A block of scans resolves in one pass
/// with no allocation once its buffers have grown (ResolveBatchInto).
///
/// Epoch contract (DESIGN.md §12): an index may carry the epoch number of
/// the configuration it was built from. The index is immutable after
/// construction — once a ConfigEpoch bundle holding it is published to
/// the query path (the driver's pointer swap), no thread may mutate it or
/// the ClusterConfig it points at, so concurrent readers need no
/// synchronization beyond the publish edge.
class ConfigIndex {
 public:
  explicit ConfigIndex(const ClusterConfig& config, std::uint64_t epoch = 0);

  /// The fragment requests needed to serve `scan`: every fragment of the
  /// scan's table overlapping its range, each carrying the fragment's full
  /// tuple count (a fragment is the minimum read granularity, like a disk
  /// block — §5.1) and the nodes holding a replica.
  ///
  /// Seed (reference) API: materializes fresh vectors per call. Kept as
  /// the oracle the resolve tests compare ResolveBatchInto against.
  std::vector<FragmentRequest> RequestsFor(const Scan& scan) const;

  /// Resolves every scan of `*batch` (its SoA scan arrays must be filled)
  /// into the batch's prefix-offset request table, candidate spans
  /// pointing at the index's pool (DESIGN.md §11). Scan i produces
  /// exactly the requests RequestsFor would, in the same order, at
  /// requests[req_off[i] .. req_off[i+1]). The inner loop streams the SoA
  /// arrays with an O(1) dense table-span lookup and a bucket index
  /// instead of a per-scan binary search. A one-scan batch is the
  /// per-scan resolve.
  void ResolveBatchInto(ScanBatch* batch) const;

  const ClusterConfig& config() const { return *config_; }

  /// Epoch of the configuration this index was built from (0 for indexes
  /// built outside the epoch machinery).
  std::uint64_t epoch() const { return epoch_; }

 private:
  /// One fragment of one table, with its range inlined so the binary
  /// search and the overlap walk touch only this contiguous array.
  struct Entry {
    TupleIndex start = 0;
    TupleIndex end = 0;
    FlatFragmentId frag = 0;
    TupleCount tuples = 0;
    std::uint32_t cand_begin = 0;
    std::uint32_t cand_count = 0;
  };
  /// Per-table span into `entries_`, sorted by table id. Each span also
  /// carries a bucket index over its key range: bucket b (of width
  /// 2^bucket_shift, starting at `base`) stores the index of the first
  /// entry whose end lies beyond the bucket's start, so the batched
  /// resolve finds the first overlapping fragment with a shift and a
  /// load (plus at most a few forward steps when fragments are smaller
  /// than a bucket) instead of a binary search.
  struct TableSpan {
    TableId table = 0;
    std::uint32_t begin = 0;
    std::uint32_t end = 0;
    TupleIndex base = 0;            // start of the table's covered range
    std::uint32_t bucket_begin = 0; // offset into bucket_pool_
    std::uint32_t bucket_count = 0;
    std::uint32_t bucket_shift = 0;
  };

  /// The table's entry span; CHECK-fails on an unknown table (a scan over
  /// a table the configuration does not cover is a caller bug).
  const TableSpan& SpanFor(TableId table) const;

  const ClusterConfig* config_;
  std::uint64_t epoch_ = 0;
  std::vector<TableSpan> tables_;
  std::vector<Entry> entries_;  // grouped by table, sorted by range start
  std::vector<NodeId> cand_pool_;
  /// Dense table id -> index into `tables_` (kNoTable for ids the
  /// configuration does not cover), so the batched resolve loop finds a
  /// scan's entry span with one load instead of a binary search.
  static constexpr std::uint32_t kNoTable = 0xffffffffu;
  std::vector<std::uint32_t> table_slot_;
  /// Backing storage for every table's bucket index (entry indices into
  /// `entries_`); bucket counts are capped at ~4x the table's fragment
  /// count so the pool stays O(total fragments) even for tiny fragments.
  std::vector<std::uint32_t> bucket_pool_;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_CONFIG_INDEX_H_
