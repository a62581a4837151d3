#include "replication/node_data.h"

#include <algorithm>
#include <utility>

namespace nashdb {

NodeData NodeData::Of(const ClusterConfig& config, NodeId node) {
  std::vector<Interval> intervals;
  for (FlatFragmentId fid : config.NodeFragments(node)) {
    const FragmentInfo& f = config.fragment(fid);
    intervals.push_back(Interval{f.table, f.range});
  }
  return FromIntervals(std::move(intervals));
}

NodeData NodeData::FromIntervals(std::vector<Interval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const Interval& a, const Interval& b) {
              if (a.table != b.table) return a.table < b.table;
              return a.range.start < b.range.start;
            });
  // Coalesce adjacent/overlapping intervals of the same table, so coverage
  // spanning fragment boundaries is recognized.
  NodeData data;
  for (const Interval& iv : intervals) {
    if (!data.intervals_.empty() && data.intervals_.back().table == iv.table &&
        data.intervals_.back().range.end >= iv.range.start) {
      data.intervals_.back().range.end =
          std::max(data.intervals_.back().range.end, iv.range.end);
    } else {
      data.intervals_.push_back(iv);
    }
  }
  return data;
}

TupleCount NodeData::TotalTuples() const {
  TupleCount total = 0;
  for (const Interval& iv : intervals_) total += iv.range.size();
  return total;
}

TupleCount NodeData::TuplesNotIn(const NodeData& other) const {
  // Both interval lists are sorted by (table, start) and coalesced; sweep
  // them in tandem, subtracting overlap.
  TupleCount missing = 0;
  std::size_t j = 0;
  for (const Interval& mine : intervals_) {
    TupleCount overlap = 0;
    // Advance to intervals of `other` that may overlap `mine`.
    while (j < other.intervals_.size() &&
           (other.intervals_[j].table < mine.table ||
            (other.intervals_[j].table == mine.table &&
             other.intervals_[j].range.end <= mine.range.start))) {
      ++j;
    }
    for (std::size_t k = j; k < other.intervals_.size(); ++k) {
      const Interval& theirs = other.intervals_[k];
      if (theirs.table != mine.table || theirs.range.start >= mine.range.end) {
        break;
      }
      overlap += mine.range.Intersect(theirs.range).size();
    }
    missing += mine.range.size() - overlap;
  }
  return missing;
}

bool NodeData::Covers(TableId table, const TupleRange& range) const {
  // First interval ordered after (table, range.start), then step back.
  const auto after = std::upper_bound(
      intervals_.begin(), intervals_.end(), std::make_pair(table, range.start),
      [](const std::pair<TableId, TupleIndex>& key, const Interval& iv) {
        if (key.first != iv.table) return key.first < iv.table;
        return key.second < iv.range.start;
      });
  if (after == intervals_.begin()) return false;
  const Interval& iv = *(after - 1);
  return iv.table == table && range.end <= iv.range.end;
}

}  // namespace nashdb
