#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/stats.h"
#include "fragment/prefix_stats.h"
#include "value/value_profile.h"

namespace nashdb {
namespace {

// Expands a profile to a per-tuple value vector for brute-force checks.
std::vector<double> Densify(const ValueProfile& p) {
  std::vector<double> v(p.table_size());
  for (TupleIndex x = 0; x < p.table_size(); ++x) {
    v[x] = p.ValueAt(x);
  }
  return v;
}

ValueProfile RandomProfile(Rng* rng, TupleCount n, int max_chunks) {
  std::vector<ValueChunk> chunks;
  TupleIndex cursor = 0;
  while (cursor < n && static_cast<int>(chunks.size()) < max_chunks) {
    const TupleIndex len = 1 + rng->Uniform(n / 4 + 1);
    const TupleIndex end = std::min<TupleIndex>(n, cursor + len);
    chunks.push_back(
        ValueChunk{cursor, end, 0.125 * static_cast<double>(rng->Uniform(64))});
    cursor = end;
  }
  return ValueProfile::FromSparseChunks(n, chunks);
}

TEST(PrefixStatsTest, SumMatchesBruteForce) {
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 200, 12);
    const PrefixStats stats(p);
    const std::vector<double> dense = Densify(p);
    for (int q = 0; q < 30; ++q) {
      TupleIndex a = rng.Uniform(200);
      TupleIndex b = a + rng.Uniform(200 - a + 1);
      double ref = 0.0, ref2 = 0.0;
      for (TupleIndex x = a; x < b; ++x) {
        ref += dense[x];
        ref2 += dense[x] * dense[x];
      }
      EXPECT_NEAR(stats.Sum(a, b), ref, 1e-9);
      EXPECT_NEAR(stats.SumSq(a, b), ref2, 1e-9);
    }
  }
}

TEST(PrefixStatsTest, ErrEqualsUnnormalizedVariance) {
  // Eq. 4: Err(f) = sum over tuples of (V(x) - mean)^2.
  Rng rng(6);
  for (int trial = 0; trial < 20; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 150, 10);
    const PrefixStats stats(p);
    const std::vector<double> dense = Densify(p);
    for (int q = 0; q < 20; ++q) {
      TupleIndex a = rng.Uniform(150);
      TupleIndex b = a + rng.Uniform(150 - a + 1);
      if (a == b) continue;
      std::vector<double> window(dense.begin() + static_cast<long>(a),
                                 dense.begin() + static_cast<long>(b));
      EXPECT_NEAR(stats.Err(a, b), SumSquaredDeviations(window), 1e-8)
          << "range [" << a << "," << b << ")";
    }
  }
}

TEST(PrefixStatsTest, ErrOfConstantRegionIsZero) {
  const ValueProfile p = ValueProfile::Uniform(100, 3.0);
  const PrefixStats stats(p);
  EXPECT_NEAR(stats.Err(0, 100), 0.0, 1e-12);
  EXPECT_NEAR(stats.Err(17, 63), 0.0, 1e-12);
}

TEST(PrefixStatsTest, ErrNeverNegative) {
  Rng rng(7);
  const ValueProfile p = RandomProfile(&rng, 500, 40);
  const PrefixStats stats(p);
  for (int q = 0; q < 200; ++q) {
    TupleIndex a = rng.Uniform(500);
    TupleIndex b = a + rng.Uniform(500 - a + 1);
    EXPECT_GE(stats.Err(a, b), 0.0);
  }
}

TEST(PrefixStatsTest, EmptyAndSingletonRanges) {
  const ValueProfile p = ValueProfile::Uniform(10, 2.0);
  const PrefixStats stats(p);
  EXPECT_EQ(stats.Err(5, 5), 0.0);
  EXPECT_EQ(stats.Err(5, 6), 0.0);  // single tuple has zero variance
  EXPECT_EQ(stats.Sum(3, 3), 0.0);
}

TEST(PrefixStatsTest, BoundariesIncludeEndsAndChangePoints) {
  std::vector<ValueChunk> chunks = {{0, 10, 1.0}, {10, 30, 2.0},
                                    {30, 50, 0.0}};
  const ValueProfile p = ValueProfile::FromSparseChunks(50, chunks);
  const PrefixStats stats(p);
  const std::vector<TupleIndex> expect = {0, 10, 30, 50};
  EXPECT_EQ(stats.boundaries(), expect);
}

// The boundary points strictly inside (a, b): the candidate split points
// of a fragment [a, b).
std::vector<TupleIndex> InteriorBoundaries(const PrefixStats& stats,
                                           TupleIndex a, TupleIndex b) {
  std::vector<TupleIndex> out;
  for (TupleIndex x : stats.boundaries()) {
    if (a < x && x < b) out.push_back(x);
  }
  return out;
}

TEST(PrefixStatsTest, InteriorBoundariesAreStrictlyInside) {
  std::vector<ValueChunk> chunks = {{0, 10, 1.0}, {10, 30, 2.0},
                                    {30, 50, 3.0}};
  const ValueProfile p = ValueProfile::FromSparseChunks(50, chunks);
  const PrefixStats stats(p);
  EXPECT_EQ(InteriorBoundaries(stats, 0, 50),
            (std::vector<TupleIndex>{10, 30}));
  EXPECT_EQ(InteriorBoundaries(stats, 10, 30),
            (std::vector<TupleIndex>()));
  EXPECT_EQ(InteriorBoundaries(stats, 5, 30),
            (std::vector<TupleIndex>{10}));
  EXPECT_EQ(InteriorBoundaries(stats, 10, 31),
            (std::vector<TupleIndex>{30}));
}

TEST(PrefixStatsTest, ValueAliasMatchesSum) {
  Rng rng(8);
  const ValueProfile p = RandomProfile(&rng, 100, 8);
  const PrefixStats stats(p);
  EXPECT_NEAR(stats.Value(TupleRange{20, 60}), stats.Sum(20, 60), 0.0);
}

// Verifies the paper's Appendix B claim in its corrected form: Err can be
// computed from prefix sums alone, i.e. Err(a,b) = S2 - S^2/n.
TEST(PrefixStatsTest, PrefixFormMatchesDefinition) {
  Rng rng(9);
  const ValueProfile p = RandomProfile(&rng, 300, 25);
  const PrefixStats stats(p);
  for (int q = 0; q < 100; ++q) {
    TupleIndex a = rng.Uniform(300);
    TupleIndex b = a + 1 + rng.Uniform(300 - a);
    const double n = static_cast<double>(b - a);
    const double s = stats.Sum(a, b);
    const double s2 = stats.SumSq(a, b);
    EXPECT_NEAR(stats.Err(a, b), std::max(0.0, s2 - s * s / n), 1e-9);
  }
}

}  // namespace
}  // namespace nashdb
