#include "engine/config_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_annotations.h"

namespace nashdb {

ConfigIndex::ConfigIndex(const ClusterConfig& config, std::uint64_t epoch)
    : config_(&config), epoch_(epoch) {
  const std::size_t frag_count = config.fragments().size();
  entries_.reserve(frag_count);

  // Group fragment ids per table, sorted by range start within each table
  // (ranges of one table tile the key space, so starts are unique and the
  // order matches the seed index exactly).
  std::vector<FlatFragmentId> order(frag_count);
  for (FlatFragmentId fid = 0; fid < frag_count; ++fid) order[fid] = fid;
  std::sort(order.begin(), order.end(),
            [&](FlatFragmentId a, FlatFragmentId b) {
              const FragmentInfo& fa = config.fragment(a);
              const FragmentInfo& fb = config.fragment(b);
              if (fa.table != fb.table) return fa.table < fb.table;
              return fa.range.start < fb.range.start;
            });

  std::size_t cand_total = 0;
  for (FlatFragmentId fid = 0; fid < frag_count; ++fid) {
    cand_total += config.FragmentNodes(fid).size();
  }
  cand_pool_.reserve(cand_total);

  for (FlatFragmentId fid : order) {
    const FragmentInfo& info = config.fragment(fid);
    if (tables_.empty() || tables_.back().table != info.table) {
      tables_.push_back(TableSpan{
          info.table, static_cast<std::uint32_t>(entries_.size()), 0});
    }
    Entry e;
    e.start = info.range.start;
    e.end = info.range.end;
    e.frag = fid;
    e.tuples = info.size();
    e.cand_begin = static_cast<std::uint32_t>(cand_pool_.size());
    const std::vector<NodeId>& homes = config.FragmentNodes(fid);
    e.cand_count = static_cast<std::uint32_t>(homes.size());
    cand_pool_.insert(cand_pool_.end(), homes.begin(), homes.end());
    entries_.push_back(e);
    tables_.back().end = static_cast<std::uint32_t>(entries_.size());
  }

  TableId max_table = 0;
  for (const TableSpan& span : tables_) max_table = std::max(max_table, span.table);
  table_slot_.assign(tables_.empty() ? 0 : max_table + 1, kNoTable);
  for (std::size_t i = 0; i < tables_.size(); ++i) {
    table_slot_[tables_[i].table] = static_cast<std::uint32_t>(i);
  }

  // Bucket index per table: width is the largest power of two no bigger
  // than the table's smallest fragment (so a bucket start falls inside at
  // most one preceding fragment and the lookup advances at most one
  // entry), floored so the bucket count never exceeds ~4x the fragment
  // count (tiny fragments would otherwise blow the pool up; the lookup
  // then advances through the few entries sharing a bucket).
  for (TableSpan& span : tables_) {
    const Entry* first = entries_.data() + span.begin;
    const Entry* last = entries_.data() + span.end;
    span.base = first->start;
    const TupleIndex range = (last - 1)->end - span.base;
    TupleCount min_size = range;
    for (const Entry* e = first; e != last; ++e) {
      min_size = std::min<TupleCount>(min_size, e->end - e->start);
    }
    std::uint32_t shift = 0;
    while ((TupleIndex{2} << shift) <= min_size) ++shift;
    const TupleIndex max_buckets = TupleIndex{4} * (last - first);
    while ((((range - 1) >> shift) + 1) > max_buckets) ++shift;
    span.bucket_shift = shift;
    span.bucket_begin = static_cast<std::uint32_t>(bucket_pool_.size());
    span.bucket_count = static_cast<std::uint32_t>(((range - 1) >> shift) + 1);
    const Entry* e = first;
    for (std::uint32_t b = 0; b < span.bucket_count; ++b) {
      const TupleIndex bucket_start = span.base + (TupleIndex{b} << shift);
      while (e != last && e->end <= bucket_start) ++e;
      bucket_pool_.push_back(
          static_cast<std::uint32_t>(e - entries_.data()));
    }
  }
}

const ConfigIndex::TableSpan& ConfigIndex::SpanFor(TableId table) const {
  const auto it = std::lower_bound(
      tables_.begin(), tables_.end(), table,
      [](const TableSpan& s, TableId t) { return s.table < t; });
  NASHDB_CHECK(it != tables_.end() && it->table == table)
      << "scan over unknown table " << table;
  return *it;
}

NASHDB_HOT void ConfigIndex::ResolveBatchInto(ScanBatch* batch) const {
  const std::size_t n = batch->size();
  batch->req_off.clear();
  batch->requests.clear();
  // NASHDB_LINT_ALLOW(hot-alloc): offsets reuse the batch's capacity
  batch->req_off.reserve(n + 1);
  // NASHDB_LINT_ALLOW(hot-alloc): offsets reuse the batch's capacity
  batch->req_off.push_back(0);
  // Tight SoA streaming loop: dense O(1) table-span lookup, then a
  // bucket jump and an overlap walk, so the block pass touches only the
  // parallel scan arrays and the entry table.
  const TupleIndex* starts = batch->starts.data();
  const TupleIndex* ends = batch->ends.data();
  const TableId* scan_tables = batch->tables.data();
  std::vector<FlatRequest>* out = &batch->requests;
  for (std::size_t i = 0; i < n; ++i) {
    const TupleIndex start = starts[i];
    const TupleIndex end = ends[i];
    if (end > start) {
      const TableId table = scan_tables[i];
      const std::uint32_t slot =
          table < table_slot_.size() ? table_slot_[table] : kNoTable;
      NASHDB_CHECK(slot != kNoTable) << "scan over unknown table " << table;
      const TableSpan& span = tables_[slot];
      const Entry* last = entries_.data() + span.end;
      // Bucket lookup: the bucket holding `start` points at the first
      // entry whose end reaches past the bucket's start; at most a few
      // forward steps land on the first entry overlapping the scan —
      // the same entry RequestsFor's binary search finds.
      std::uint64_t b =
          start >= span.base ? (start - span.base) >> span.bucket_shift : 0;
      if (b >= span.bucket_count) b = span.bucket_count - 1;
      const Entry* e = entries_.data() + bucket_pool_[span.bucket_begin + b];
      while (e != last && e->end <= start) ++e;
      for (; e != last && e->start < end; ++e) {
        NASHDB_CHECK(e->cand_count > 0)
            << "fragment " << e->frag << " has no replicas";
        FlatRequest req;
        req.frag = e->frag;
        req.tuples = e->tuples;
        req.cand_begin = e->cand_begin;
        req.cand_count = e->cand_count;
        // NASHDB_LINT_ALLOW(hot-alloc): append into batch-reused capacity
        out->push_back(req);
      }
    }
    // NASHDB_LINT_ALLOW(hot-alloc): offsets reuse the batch's capacity
    batch->req_off.push_back(static_cast<std::uint32_t>(out->size()));
  }
  batch->cand_pool = cand_pool_.data();
}

std::vector<FragmentRequest> ConfigIndex::RequestsFor(const Scan& scan) const {
  std::vector<FragmentRequest> requests;
  if (scan.range.empty()) return requests;
  const TableSpan& span = SpanFor(scan.table);
  const Entry* first = entries_.data() + span.begin;
  const Entry* last = entries_.data() + span.end;

  const Entry* e = std::lower_bound(
      first, last, scan.range.start,
      [](const Entry& entry, TupleIndex v) { return entry.end <= v; });
  for (; e != last && e->start < scan.range.end; ++e) {
    NASHDB_CHECK(e->cand_count > 0)
        << "fragment " << e->frag << " has no replicas";
    FragmentRequest req;
    req.frag = e->frag;
    req.tuples = e->tuples;
    req.candidates.assign(cand_pool_.begin() + e->cand_begin,
                          cand_pool_.begin() + e->cand_begin + e->cand_count);
    requests.push_back(std::move(req));
  }
  return requests;
}

}  // namespace nashdb
