#include "common/logging.h"
#include "fragment/fragmenter.h"

namespace nashdb {

FragmentationScheme NaiveFragmenter::Refragment(
    const FragmentationContext& ctx, std::size_t max_frags) {
  NASHDB_CHECK_GT(max_frags, 0u);
  FragmentationScheme scheme;
  scheme.table = ctx.table;
  scheme.table_size = ctx.table_size();
  const TupleCount n = scheme.table_size;
  if (n == 0) return scheme;

  const std::size_t k = static_cast<std::size_t>(
      std::min<TupleCount>(max_frags, n));
  scheme.fragments.reserve(k);
  TupleIndex cursor = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // Distribute remainder tuples across the first (n % k) fragments.
    const TupleCount len = n / k + (i < n % k ? 1 : 0);
    scheme.fragments.push_back(TupleRange{cursor, cursor + len});
    cursor += len;
  }
  NASHDB_DCHECK(scheme.Valid());
  return scheme;
}

}  // namespace nashdb
