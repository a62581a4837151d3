#include "value/estimator.h"

#include "common/logging.h"

namespace nashdb {

TupleValueEstimator::TupleValueEstimator(std::size_t window_size)
    : window_size_(window_size) {
  NASHDB_CHECK_GT(window_size_, 0u) << "scan window must hold >= 1 scan";
}

void TupleValueEstimator::AddScan(const Scan& scan) {
  if (scan.range.empty()) return;
  if (buffer_.size() == window_size_) {
    const Scan& oldest = buffer_.front();
    auto it = tables_.find(oldest.table);
    NASHDB_CHECK(it != tables_.end());
    it->second.RemoveScan(oldest.range.start, oldest.range.end,
                          oldest.NormalizedPrice());
    if (it->second.empty()) tables_.erase(it);
    buffer_.pop_front();
    scans_evicted_.Inc();
  }
  buffer_.push_back(scan);
  tables_[scan.table].AddScan(scan.range.start, scan.range.end,
                              scan.NormalizedPrice());
  scans_added_.Inc();
}

void TupleValueEstimator::AddQuery(const Query& query) {
  for (const Scan& s : query.scans) AddScan(s);
}

Money TupleValueEstimator::ValueAt(TableId table, TupleIndex x) const {
  const EndpointTable* t = tree(table);
  if (t == nullptr || buffer_.empty()) return 0.0;
  return t->RawValueAt(x) / static_cast<Money>(buffer_.size());
}

ValueProfile TupleValueEstimator::Profile(TableId table,
                                          TupleCount table_size) const {
  std::vector<ValueChunk> chunks;
  const EndpointTable* t = tree(table);
  if (t != nullptr && !buffer_.empty()) {
    const Money w = static_cast<Money>(buffer_.size());
    // Profile is called once per table per reconfiguration round; the
    // walk sorts the table's keys.
    t->ForEachChunk([&](TupleIndex start, TupleIndex end, Money raw) {
      chunks.push_back(ValueChunk{start, end, raw / w});
    });
  }
  return ValueProfile::FromSparseChunks(table_size, std::move(chunks));
}

std::vector<TableId> TupleValueEstimator::ActiveTables() const {
  std::vector<TableId> tables;
  tables.reserve(tables_.size());
  for (const auto& [table, endpoints] : tables_) {
    (void)endpoints;
    tables.push_back(table);
  }
  return tables;
}

std::size_t TupleValueEstimator::SizeBytes() const {
  std::size_t bytes = buffer_.size() * sizeof(Scan);
  for (const auto& [table, endpoints] : tables_) {
    (void)table;
    bytes += endpoints.SizeBytes();
  }
  return bytes;
}

const EndpointTable* TupleValueEstimator::tree(TableId table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? nullptr : &it->second;
}

}  // namespace nashdb
