#include <algorithm>
#include <limits>

#include "common/logging.h"
#include "fragment/fragmenter.h"

namespace nashdb {
namespace {

// One best-split application across all fragments: the split with the
// largest error reduction, the first fragment's on a tie. Returns that
// reduction, or nullopt if no split strictly reduces error. The greedy
// fragmenter's split phase and DT both run it.
std::optional<Money> ApplyBestSplit(const PrefixStats& stats,
                                    std::vector<TupleRange>* frags) {
  Money best_gain = 0.0;
  std::size_t best_idx = 0;
  TupleIndex best_point = 0;
  bool found = false;
  for (std::size_t i = 0; i < frags->size(); ++i) {
    const auto split = FindBestSplit(stats, (*frags)[i].start, (*frags)[i].end);
    if (!split) continue;
    if (split->reduction() > best_gain) {
      best_gain = split->reduction();
      best_idx = i;
      best_point = split->split_point;
      found = true;
    }
  }
  if (!found) return std::nullopt;
  const TupleRange f = (*frags)[best_idx];
  (*frags)[best_idx] = TupleRange{f.start, best_point};
  frags->insert(frags->begin() + static_cast<std::ptrdiff_t>(best_idx) + 1,
                TupleRange{best_point, f.end});
  return best_gain;
}

// Merges the adjacent triplet whose optimal 3->2 recombination (paper
// §5.3.2) increases total error the least. Returns the error increase
// (possibly negative, i.e. an improvement), or nullopt if there are fewer
// than three fragments. `errs` is scratch for each fragment's Err, which
// every triplet covering the fragment reuses.
std::optional<Money> ApplyBestTripletMerge(const PrefixStats& stats,
                                           std::vector<TupleRange>* frags,
                                           std::vector<Money>* errs) {
  if (frags->size() < 3) return std::nullopt;
  constexpr Money kInf = std::numeric_limits<Money>::infinity();
  Money best_increase = kInf;
  std::size_t best_i = 0;
  TupleIndex best_point = 0;

  errs->clear();
  for (const TupleRange& f : *frags) errs->push_back(stats.Err(f));
  for (std::size_t i = 0; i + 2 < frags->size(); ++i) {
    const TupleRange& fi = (*frags)[i];
    const TupleRange& fj = (*frags)[i + 1];
    const TupleRange& fk = (*frags)[i + 2];
    const Money old_err = (*errs)[i] + (*errs)[i + 1] + (*errs)[i + 2];

    // Best single split of the combined range [fi.start, fk.end). If the
    // combined range has no interior change point, split at the original
    // middle boundary (error is zero either way).
    TupleIndex point = fj.start;
    Money new_err;
    if (const auto split = FindBestSplit(stats, fi.start, fk.end)) {
      point = split->split_point;
      new_err = split->split_error;
    } else {
      new_err = 0.0;
    }
    const Money increase = new_err - old_err;
    if (increase < best_increase) {
      best_increase = increase;
      best_i = i;
      best_point = point;
    }
  }
  if (best_increase == kInf) return std::nullopt;

  const TupleIndex start = (*frags)[best_i].start;
  const TupleIndex end = (*frags)[best_i + 2].end;
  (*frags)[best_i] = TupleRange{start, best_point};
  (*frags)[best_i + 1] = TupleRange{best_point, end};
  frags->erase(frags->begin() + static_cast<std::ptrdiff_t>(best_i) + 2);
  return best_increase;
}

}  // namespace

FragmentationScheme GreedyFragmenter::Refragment(
    const FragmentationContext& ctx, std::size_t max_frags) {
  NASHDB_CHECK_GT(max_frags, 0u);
  const TupleCount n = ctx.table_size();

  // (Re)initialize state if absent or the table changed shape.
  if (!state_ || state_->table != ctx.table || state_->table_size != n) {
    FragmentationScheme fresh;
    fresh.table = ctx.table;
    fresh.table_size = n;
    if (n > 0) fresh.fragments.push_back(TupleRange{0, n});
    state_ = std::move(fresh);
  }
  if (n == 0) return *state_;

  PrefixStats stats(*ctx.profile);
  std::vector<TupleRange>& frags = state_->fragments;
  std::vector<Money> errs;

  // If the cap shrank below the current fragment count, merge down first.
  while (frags.size() > max_frags) {
    if (frags.size() >= 3) {
      ApplyBestTripletMerge(stats, &frags, &errs);
    } else {
      // Two fragments -> one.
      frags[0].end = frags[1].end;
      frags.pop_back();
    }
  }

  for (std::size_t r = 0; r < max_frags + 2; ++r) {
    if (frags.size() < max_frags) {
      // Split phase: one split per round.
      if (!ApplyBestSplit(stats, &frags)) break;
    } else {
      // At the cap: merge three into two, then try to split again. Stop if
      // the merge+split cycle no longer reduces total error.
      const auto increase = ApplyBestTripletMerge(stats, &frags, &errs);
      if (!increase) break;
      const auto gain = ApplyBestSplit(stats, &frags);
      const Money net = (gain ? *gain : 0.0) - *increase;
      if (net <= 1e-12) break;
    }
  }

  NASHDB_DCHECK(state_->Valid());
  return *state_;
}

FragmentationScheme DtFragmenter::Refragment(const FragmentationContext& ctx,
                                             std::size_t max_frags) {
  NASHDB_CHECK_GT(max_frags, 0u);
  FragmentationScheme scheme;
  scheme.table = ctx.table;
  scheme.table_size = ctx.table_size();
  if (scheme.table_size == 0) return scheme;

  PrefixStats stats(*ctx.profile);
  scheme.fragments.push_back(TupleRange{0, scheme.table_size});
  // CART-style top-down induction: the greedy split step until the cap is
  // reached or no split strictly reduces error.
  while (scheme.fragments.size() < max_frags) {
    if (!ApplyBestSplit(stats, &scheme.fragments)) break;
  }
  NASHDB_DCHECK(scheme.Valid());
  return scheme;
}

}  // namespace nashdb
