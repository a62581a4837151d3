#include "replication/node_data.h"

#include <algorithm>
#include <numeric>
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

CovererIndex::CovererIndex(const std::vector<FragmentInfo>& fragments,
                           const std::vector<NodeData>& data) {
  std::vector<std::uint32_t> order(fragments.size());
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    if (fragments[a].table != fragments[b].table) {
      return fragments[a].table < fragments[b].table;
    }
    return fragments[a].range.start < fragments[b].range.start;
  });
  // Covered fragments node by node, then regrouped by fragment with a
  // counting sort, which keeps each fragment's nodes ascending.
  std::vector<std::uint32_t> covered;
  std::vector<std::uint32_t> node_end(data.size());
  off_.assign(fragments.size() + 1, 0);
  for (std::size_t m = 0; m < data.size(); ++m) {
    const std::vector<NodeData::Interval>& ivs = data[m].intervals();
    std::size_t j = 0;
    for (const std::uint32_t f : order) {
      const FragmentInfo& frag = fragments[f];
      while (j < ivs.size() &&
             (ivs[j].table < frag.table ||
              (ivs[j].table == frag.table &&
               ivs[j].range.start <= frag.range.start))) {
        ++j;
      }
      if (j > 0 && ivs[j - 1].table == frag.table &&
          frag.range.end <= ivs[j - 1].range.end) {
        covered.push_back(f);
        ++off_[f + 1];
      }
    }
    node_end[m] = static_cast<std::uint32_t>(covered.size());
  }
  for (std::size_t f = 0; f < fragments.size(); ++f) off_[f + 1] += off_[f];
  std::vector<std::uint32_t> cursor(off_.begin(), off_.end() - 1);
  nodes_.resize(covered.size());
  std::size_t e = 0;
  for (std::size_t m = 0; m < data.size(); ++m) {
    for (; e < node_end[m]; ++e) {
      nodes_[cursor[covered[e]]++] = static_cast<NodeId>(m);
    }
  }
}

}  // namespace nashdb
