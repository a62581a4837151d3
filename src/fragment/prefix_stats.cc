#include "fragment/prefix_stats.h"

#include <algorithm>

#include "common/logging.h"

namespace nashdb {

PrefixStats::PrefixStats(const ValueProfile& profile)
    : table_size_(profile.table_size()) {
  const auto& chunks = profile.chunks();
  starts_.reserve(chunks.size());
  values_.reserve(chunks.size());
  cum_sum_.resize(chunks.size() + 1, 0.0);
  cum_sumsq_.resize(chunks.size() + 1, 0.0);
  boundaries_.reserve(chunks.size() + 1);
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    const ValueChunk& c = chunks[i];
    starts_.push_back(c.start);
    values_.push_back(c.value);
    boundaries_.push_back(c.start);
    const Money n = static_cast<Money>(c.size());
    cum_sum_[i + 1] = cum_sum_[i] + c.value * n;
    cum_sumsq_[i + 1] = cum_sumsq_[i] + c.value * c.value * n;
  }
  boundaries_.push_back(table_size_);
}

std::size_t PrefixStats::ChunkOf(TupleIndex x) const {
  NASHDB_DCHECK(x < table_size_);
  // Last chunk whose start is <= x.
  auto it = std::upper_bound(starts_.begin(), starts_.end(), x);
  NASHDB_DCHECK(it != starts_.begin());
  return static_cast<std::size_t>(it - starts_.begin()) - 1;
}

PrefixStats::Cumulative PrefixStats::CumulativeAt(TupleIndex p) const {
  if (p == 0) return Cumulative{0.0, 0.0};
  if (p >= table_size_) return Cumulative{cum_sum_.back(), cum_sumsq_.back()};
  // Full chunks before p's chunk plus a partial contribution from it.
  const std::size_t c = ChunkOf(p);
  const Money partial = static_cast<Money>(p - starts_[c]);
  return Cumulative{cum_sum_[c] + values_[c] * partial,
                    cum_sumsq_[c] + values_[c] * values_[c] * partial};
}

Money PrefixStats::Sum(TupleIndex a, TupleIndex b) const {
  if (b <= a) return 0.0;
  NASHDB_DCHECK(b <= table_size_);
  return CumulativeAt(b).sum - CumulativeAt(a).sum;
}

Money PrefixStats::SumSq(TupleIndex a, TupleIndex b) const {
  if (b <= a) return 0.0;
  NASHDB_DCHECK(b <= table_size_);
  return CumulativeAt(b).sumsq - CumulativeAt(a).sumsq;
}

Money PrefixStats::Err(TupleIndex a, TupleIndex b) const {
  if (b <= a) return 0.0;
  NASHDB_DCHECK(b <= table_size_);
  return ErrBetween(CumulativeAt(a), CumulativeAt(b), b - a);
}

}  // namespace nashdb
