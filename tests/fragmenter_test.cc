#include <algorithm>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "fragment/fragmenter.h"
#include "fragment/prefix_stats.h"
#include "fragment/scheme.h"
#include "value/value_profile.h"

namespace nashdb {
namespace {

ValueProfile StepProfile(TupleCount n, std::vector<ValueChunk> chunks) {
  return ValueProfile::FromSparseChunks(n, std::move(chunks));
}

FragmentationContext Ctx(const ValueProfile& p,
                         std::span<const Scan> scans = {}) {
  FragmentationContext ctx;
  ctx.table = 0;
  ctx.profile = &p;
  ctx.window_scans = scans;
  return ctx;
}

ValueProfile RandomProfile(Rng* rng, TupleCount n, int max_chunks) {
  std::vector<ValueChunk> chunks;
  TupleIndex cursor = 0;
  while (cursor < n && static_cast<int>(chunks.size()) < max_chunks) {
    const TupleIndex len = 1 + rng->Uniform(n / 3 + 1);
    const TupleIndex end = std::min<TupleIndex>(n, cursor + len);
    chunks.push_back(ValueChunk{cursor, end,
                                0.25 * static_cast<double>(rng->Uniform(16))});
    cursor = end;
  }
  return ValueProfile::FromSparseChunks(n, chunks);
}

// Exhaustive optimum over chunk boundaries, for validating the DP.
Money BruteForceOptimum(const PrefixStats& stats, std::size_t k) {
  const auto& bounds = stats.boundaries();
  const std::size_t m = bounds.size() - 1;
  if (k >= m) {
    Money e = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      e += stats.Err(bounds[i], bounds[i + 1]);
    }
    return e;
  }
  struct Rec {
    const PrefixStats& stats;
    const std::vector<TupleIndex>& bounds;
    std::size_t m, k;
    Money best = std::numeric_limits<Money>::infinity();
    std::vector<std::size_t> cur;
    void Go(std::size_t start) {
      if (cur.size() == k - 1) {
        Money e = 0.0;
        TupleIndex prev = bounds.front();
        for (std::size_t c : cur) {
          e += stats.Err(prev, bounds[c]);
          prev = bounds[c];
        }
        e += stats.Err(prev, bounds.back());
        best = std::min(best, e);
        return;
      }
      for (std::size_t i = start; i < m; ++i) {
        cur.push_back(i);
        Go(i + 1);
        cur.pop_back();
      }
    }
  } rec{stats, bounds, m, k, std::numeric_limits<Money>::infinity(), {}};
  rec.Go(1);
  return rec.best;
}

// ---------------------------------------------------------------- split

TEST(FindBestSplitTest, FindsTheObviousStep) {
  // Figure 3's situation: low region then high region — the optimal split
  // is exactly at the step.
  const ValueProfile p = StepProfile(100, {{0, 60, 1.0}, {60, 100, 5.0}});
  const PrefixStats stats(p);
  const auto split = FindBestSplit(stats, 0, 100);
  ASSERT_TRUE(split.has_value());
  EXPECT_EQ(split->split_point, 60u);
  EXPECT_NEAR(split->split_error, 0.0, 1e-9);
  EXPECT_GT(split->reduction(), 0.0);
}

TEST(FindBestSplitTest, NoInteriorCandidateOnUniformFragment) {
  const ValueProfile p = ValueProfile::Uniform(100, 2.0);
  const PrefixStats stats(p);
  EXPECT_FALSE(FindBestSplit(stats, 10, 90).has_value());
}

TEST(FindBestSplitTest, MatchesExhaustiveTupleSearch) {
  // The optimal split point over all tuple positions coincides with a
  // value change point ([10, 29]); verify on random profiles.
  Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 60, 8);
    const PrefixStats stats(p);
    const auto split = FindBestSplit(stats, 0, 60);
    if (!split) continue;
    Money best_any = std::numeric_limits<Money>::infinity();
    for (TupleIndex x = 1; x < 60; ++x) {
      best_any = std::min(best_any, stats.Err(0, x) + stats.Err(x, 60));
    }
    EXPECT_NEAR(split->split_error, best_any, 1e-9);
  }
}

// -------------------------------------------------------------- optimal

TEST(OptimalFragmenterTest, SingleFragmentIsWholeTable) {
  const ValueProfile p = StepProfile(50, {{0, 25, 1.0}, {25, 50, 3.0}});
  OptimalFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 1);
  ASSERT_EQ(scheme.fragments.size(), 1u);
  EXPECT_EQ(scheme.fragments[0], (TupleRange{0, 50}));
}

TEST(OptimalFragmenterTest, PerfectSplitAtSteps) {
  const ValueProfile p =
      StepProfile(90, {{0, 30, 1.0}, {30, 60, 5.0}, {60, 90, 2.0}});
  OptimalFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 3);
  ASSERT_EQ(scheme.fragments.size(), 3u);
  EXPECT_NEAR(SchemeError(scheme, p), 0.0, 1e-9);
  EXPECT_EQ(scheme.fragments[0].end, 30u);
  EXPECT_EQ(scheme.fragments[1].end, 60u);
}

TEST(OptimalFragmenterTest, MatchesBruteForce) {
  Rng rng(55);
  for (int trial = 0; trial < 15; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 120, 9);
    const PrefixStats stats(p);
    for (std::size_t k : {2u, 3u, 4u}) {
      OptimalFragmenter frag;
      const auto scheme = frag.Refragment(Ctx(p), k);
      EXPECT_TRUE(scheme.Valid());
      const Money dp_err = SchemeError(scheme, p);
      const Money brute = BruteForceOptimum(stats, k);
      EXPECT_NEAR(dp_err, brute, 1e-8) << "trial " << trial << " k=" << k;
    }
  }
}

TEST(OptimalFragmenterTest, ErrorMonotoneInFragmentCount) {
  Rng rng(56);
  const ValueProfile p = RandomProfile(&rng, 200, 14);
  Money prev = std::numeric_limits<Money>::infinity();
  for (std::size_t k = 1; k <= 8; ++k) {
    OptimalFragmenter frag;
    const Money err = SchemeError(frag.Refragment(Ctx(p), k), p);
    EXPECT_LE(err, prev + 1e-9);
    prev = err;
  }
}

TEST(OptimalFragmenterTest, CandidateSubsamplingStillValid) {
  Rng rng(57);
  const ValueProfile p = RandomProfile(&rng, 300, 40);
  OptimalFragmenter coarse(/*max_candidates=*/8);
  const auto scheme = coarse.Refragment(Ctx(p), 5);
  EXPECT_TRUE(scheme.Valid());
  EXPECT_LE(scheme.fragments.size(), 5u);
}

// A profile with monotone chunk values (where the Eq.-4 segment cost is
// concave Monge and the divide-and-conquer solver is provably optimal).
// The last chunk is stretched to n so FromSparseChunks never inserts a
// zero-valued gap filler that would break monotonicity.
ValueProfile MonotoneProfile(Rng* rng, TupleCount n, std::size_t max_chunks,
                             bool increasing, TupleCount max_chunk_len = 0) {
  if (max_chunk_len == 0) max_chunk_len = std::max<TupleCount>(1, n / 8);
  std::vector<ValueChunk> chunks;
  TupleIndex cursor = 0;
  Money v = increasing ? 0.0 : 1000.0;
  while (cursor < n) {
    const TupleIndex len = 1 + rng->Uniform(max_chunk_len);
    TupleIndex end = std::min<TupleIndex>(n, cursor + len);
    if (chunks.size() + 1 == max_chunks) end = n;
    const Money step = 0.125 * static_cast<Money>(1 + rng->Uniform(16));
    v += increasing ? step : -step;
    chunks.push_back(ValueChunk{cursor, end, v});
    cursor = end;
  }
  return ValueProfile::FromSparseChunks(n, std::move(chunks));
}

OptimalFragmenter::Options SolverOpts(OptimalFragmenter::Algorithm algorithm,
                                      ThreadPool* pool = nullptr) {
  OptimalFragmenter::Options opts;
  opts.algorithm = algorithm;
  opts.pool = pool;
  return opts;
}

// Property (tentpole invariant): on monotone profiles the divide-and-
// conquer DP is exact, so its total Eq.-4 error equals the quadratic
// reference's on every randomized trial.
TEST(OptimalFragmenterTest, DivideAndConquerMatchesQuadraticOnMonotone) {
  Rng rng(60);
  for (int trial = 0; trial < 20; ++trial) {
    const bool increasing = (trial % 2) == 0;
    const ValueProfile p = MonotoneProfile(&rng, 400, 64, increasing);
    for (std::size_t k : {2u, 3u, 5u, 9u, 16u}) {
      OptimalFragmenter dc(
          SolverOpts(OptimalFragmenter::Algorithm::kDivideAndConquer));
      OptimalFragmenter quad(
          SolverOpts(OptimalFragmenter::Algorithm::kQuadratic));
      const auto s_dc = dc.Refragment(Ctx(p), k);
      const auto s_quad = quad.Refragment(Ctx(p), k);
      EXPECT_TRUE(s_dc.Valid());
      const Money e_dc = SchemeError(s_dc, p);
      const Money e_quad = SchemeError(s_quad, p);
      EXPECT_NEAR(e_dc, e_quad, 1e-9 + 1e-9 * e_quad)
          << "trial " << trial << " k=" << k;
    }
  }
}

// Property: the default (kAuto) dispatch is always exact — it must match
// the quadratic reference on arbitrary (non-monotone) profiles too,
// because it only selects divide-and-conquer when monotonicity holds.
TEST(OptimalFragmenterTest, AutoMatchesQuadraticOnArbitraryProfiles) {
  Rng rng(61);
  for (int trial = 0; trial < 20; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 300, 25);
    for (std::size_t k : {2u, 4u, 7u}) {
      OptimalFragmenter fast;  // default Options: kAuto
      OptimalFragmenter quad(
          SolverOpts(OptimalFragmenter::Algorithm::kQuadratic));
      const Money e_auto = SchemeError(fast.Refragment(Ctx(p), k), p);
      const Money e_quad = SchemeError(quad.Refragment(Ctx(p), k), p);
      EXPECT_NEAR(e_auto, e_quad, 1e-9 + 1e-9 * e_quad)
          << "trial " << trial << " k=" << k;
    }
  }
}

// On non-monotone profiles forced divide-and-conquer is a heuristic: never
// better than the optimum (that would be a solver bug), and on these seeds
// within a few percent of it (regression guard for the heuristic gap).
TEST(OptimalFragmenterTest, DivideAndConquerNearOptimalOnArbitrary) {
  Rng rng(62);
  for (int trial = 0; trial < 20; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 300, 25);
    for (std::size_t k : {2u, 4u, 7u}) {
      OptimalFragmenter dc(
          SolverOpts(OptimalFragmenter::Algorithm::kDivideAndConquer));
      OptimalFragmenter quad(
          SolverOpts(OptimalFragmenter::Algorithm::kQuadratic));
      const auto s_dc = dc.Refragment(Ctx(p), k);
      EXPECT_TRUE(s_dc.Valid());
      const Money e_dc = SchemeError(s_dc, p);
      const Money e_quad = SchemeError(quad.Refragment(Ctx(p), k), p);
      EXPECT_GE(e_dc, e_quad - 1e-9);
      // Worst observed gap over these seeds is ~14% (trial 3, k=2); the
      // bound is a regression guard, not a theorem.
      EXPECT_LE(e_dc, 1.5 * e_quad + 1e-6) << "trial " << trial << " k=" << k;
    }
  }
}

// A pool-backed divide-and-conquer run must produce the same scheme error
// as the serial one; the profile is made large enough (m > 2048 chunks)
// that the parallel subrange carve actually engages.
TEST(OptimalFragmenterTest, ParallelDivideAndConquerMatchesSerial) {
  Rng rng(63);
  const TupleCount n = 12'000;
  const ValueProfile p =
      MonotoneProfile(&rng, n, /*max_chunks=*/0, /*increasing=*/true,
                      /*max_chunk_len=*/3);
  ASSERT_GT(p.chunks().size(), 3000u);
  ThreadPool pool(4);
  OptimalFragmenter serial(
      SolverOpts(OptimalFragmenter::Algorithm::kDivideAndConquer));
  OptimalFragmenter parallel(
      SolverOpts(OptimalFragmenter::Algorithm::kDivideAndConquer, &pool));
  for (std::size_t k : {4u, 12u}) {
    const auto s_serial = serial.Refragment(Ctx(p), k);
    const auto s_parallel = parallel.Refragment(Ctx(p), k);
    EXPECT_TRUE(s_parallel.Valid());
    const Money e_serial = SchemeError(s_serial, p);
    const Money e_parallel = SchemeError(s_parallel, p);
    EXPECT_NEAR(e_parallel, e_serial, 1e-9 + 1e-9 * e_serial) << "k=" << k;
  }
}

// The subsample budget must be honored exactly: a scheme asked for k
// fragments with max_candidates >= k - 1 interior points cannot come back
// coarser than k fragments when the profile has plenty of change points
// (the pre-dedupe would previously have been allowed to shrink silently).
TEST(OptimalFragmenterTest, CandidateSubsamplingKeepsExactBudget) {
  Rng rng(64);
  // A dense profile: short chunks with distinct-ish values so it keeps far
  // more than max_candidates change points.
  std::vector<ValueChunk> dense;
  TupleIndex cursor = 0;
  while (cursor < 600) {
    const TupleIndex end =
        std::min<TupleIndex>(600, cursor + 1 + rng.Uniform(5));
    dense.push_back(ValueChunk{cursor, end,
                               0.5 * static_cast<Money>(1 + rng.Uniform(64))});
    cursor = end;
  }
  const ValueProfile p = ValueProfile::FromSparseChunks(600, std::move(dense));
  ASSERT_GT(p.chunks().size(), 34u);
  OptimalFragmenter::Options opts;
  opts.max_candidates = 32;
  OptimalFragmenter coarse(opts);
  const auto scheme = coarse.Refragment(Ctx(p), 33);
  EXPECT_TRUE(scheme.Valid());
  // 32 interior candidates support exactly 33 fragments.
  EXPECT_EQ(scheme.fragments.size(), 33u);
}

// --------------------------------------------------------------- greedy

TEST(GreedyFragmenterTest, ReachesZeroErrorOnSteps) {
  const ValueProfile p =
      StepProfile(90, {{0, 30, 1.0}, {30, 60, 5.0}, {60, 90, 2.0}});
  GreedyFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 3);
  EXPECT_TRUE(scheme.Valid());
  EXPECT_NEAR(SchemeError(scheme, p), 0.0, 1e-9);
}

TEST(GreedyFragmenterTest, SplitsNeverIncreaseError) {
  Rng rng(58);
  const ValueProfile p = RandomProfile(&rng, 150, 12);
  // DT runs the greedy split step alone, so DT at caps 1, 2, ..., 11 is
  // the greedy split phase one split at a time: error must never go up.
  DtFragmenter frag;
  Money prev = std::numeric_limits<Money>::infinity();
  for (std::size_t cap = 1; cap <= 11; ++cap) {
    const auto scheme = frag.Refragment(Ctx(p), cap);
    const Money err = SchemeError(scheme, p);
    EXPECT_LE(err, prev + 1e-9);
    prev = err;
  }
}

TEST(GreedyFragmenterTest, WithinConstantFactorOfOptimal) {
  // The paper reports NashDB within ~50% of Optimal on static workloads;
  // our greedy should stay within a small factor too.
  Rng rng(59);
  for (int trial = 0; trial < 10; ++trial) {
    const ValueProfile p = RandomProfile(&rng, 200, 10);
    OptimalFragmenter opt;
    GreedyFragmenter greedy;
    const Money e_opt = SchemeError(opt.Refragment(Ctx(p), 5), p);
    const Money e_greedy = SchemeError(greedy.Refragment(Ctx(p), 5), p);
    EXPECT_GE(e_greedy, e_opt - 1e-9);
    if (e_opt > 1e-9) {
      EXPECT_LE(e_greedy, 3.0 * e_opt + 1e-6) << "trial " << trial;
    }
  }
}

TEST(GreedyFragmenterTest, AdaptsToShiftedWorkloadViaMerge) {
  // Phase 1: structure on the left half. Phase 2: structure moves right.
  // The stateful greedy must re-cut via the 3->2 merge and keep error low.
  const ValueProfile phase1 =
      StepProfile(100, {{0, 20, 4.0}, {20, 40, 1.0}, {40, 100, 0.0}});
  const ValueProfile phase2 =
      StepProfile(100, {{0, 60, 0.0}, {60, 80, 1.0}, {80, 100, 4.0}});
  GreedyFragmenter frag;
  for (int i = 0; i < 5; ++i) frag.Refragment(Ctx(phase1), 3);
  Money err2 = 0.0;
  FragmentationScheme scheme;
  for (int i = 0; i < 12; ++i) {
    scheme = frag.Refragment(Ctx(phase2), 3);
    err2 = SchemeError(scheme, phase2);
  }
  EXPECT_TRUE(scheme.Valid());
  // With 3 fragments and two change points, zero error is reachable.
  EXPECT_NEAR(err2, 0.0, 1e-9);
}

TEST(GreedyFragmenterTest, RespectsShrunkenCap) {
  Rng rng(60);
  const ValueProfile p = RandomProfile(&rng, 200, 20);
  GreedyFragmenter frag;
  auto scheme = frag.Refragment(Ctx(p), 10);
  EXPECT_LE(scheme.fragments.size(), 10u);
  scheme = frag.Refragment(Ctx(p), 4);
  EXPECT_LE(scheme.fragments.size(), 4u);
  EXPECT_TRUE(scheme.Valid());
}

TEST(GreedyFragmenterTest, ResetDropsState) {
  const ValueProfile p = StepProfile(100, {{0, 50, 1.0}, {50, 100, 2.0}});
  GreedyFragmenter frag;
  frag.Refragment(Ctx(p), 4);
  frag.Reset();
  const auto scheme = frag.Refragment(Ctx(p), 4);
  EXPECT_TRUE(scheme.Valid());
}

// ------------------------------------------------------------------- dt

TEST(DtFragmenterTest, StopsWhenNoBeneficialSplit) {
  const ValueProfile p = ValueProfile::Uniform(100, 1.0);
  DtFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 8);
  EXPECT_EQ(scheme.fragments.size(), 1u);  // uniform value: nothing to gain
}

TEST(DtFragmenterTest, EquivalentToGreedyUnderCap) {
  // While strictly splitting (never hitting the cap), DT and greedy make
  // the same sequence of globally-best splits.
  Rng rng(61);
  const ValueProfile p = RandomProfile(&rng, 200, 10);
  DtFragmenter dt;
  GreedyFragmenter greedy;
  const auto s_dt = dt.Refragment(Ctx(p), 6);
  const auto s_greedy = greedy.Refragment(Ctx(p), 6);
  EXPECT_NEAR(SchemeError(s_dt, p), SchemeError(s_greedy, p), 1e-9);
}

TEST(DtFragmenterTest, StatelessAcrossCalls) {
  const ValueProfile p1 = StepProfile(100, {{0, 50, 1.0}, {50, 100, 3.0}});
  const ValueProfile p2 = StepProfile(100, {{0, 20, 5.0}, {20, 100, 0.0}});
  DtFragmenter frag;
  frag.Refragment(Ctx(p1), 4);
  const auto scheme = frag.Refragment(Ctx(p2), 4);
  // Must reflect only p2's structure.
  EXPECT_EQ(scheme.fragments[0].end, 20u);
}

// ---------------------------------------------------------------- naive

TEST(NaiveFragmenterTest, EqualSizes) {
  const ValueProfile p = ValueProfile::Uniform(100, 1.0);
  NaiveFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 4);
  ASSERT_EQ(scheme.fragments.size(), 4u);
  for (const TupleRange& f : scheme.fragments) {
    EXPECT_EQ(f.size(), 25u);
  }
  EXPECT_TRUE(scheme.Valid());
}

TEST(NaiveFragmenterTest, RemainderSpreadAcrossFirstFragments) {
  const ValueProfile p = ValueProfile::Uniform(10, 1.0);
  NaiveFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 3);
  ASSERT_EQ(scheme.fragments.size(), 3u);
  EXPECT_EQ(scheme.fragments[0].size(), 4u);
  EXPECT_EQ(scheme.fragments[1].size(), 3u);
  EXPECT_EQ(scheme.fragments[2].size(), 3u);
}

TEST(NaiveFragmenterTest, MoreFragmentsThanTuples) {
  const ValueProfile p = ValueProfile::Uniform(3, 1.0);
  NaiveFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 10);
  EXPECT_EQ(scheme.fragments.size(), 3u);
  EXPECT_TRUE(scheme.Valid());
}

// ------------------------------------------------------------ hypergraph

std::vector<Scan> ScansOf(std::vector<std::pair<TupleIndex, TupleIndex>> rs) {
  std::vector<Scan> scans;
  for (auto [a, b] : rs) {
    Scan s;
    s.table = 0;
    s.range = TupleRange{a, b};
    s.price = static_cast<Money>(b - a);
    scans.push_back(s);
  }
  return scans;
}

TEST(HypergraphFragmenterTest, CutsAvoidScanInteriors) {
  // Two disjoint scan clusters; the min-cut boundary lies between them.
  const ValueProfile p = ValueProfile::Uniform(100, 1.0);
  const auto scans = ScansOf({{0, 40}, {5, 35}, {60, 100}, {65, 95}});
  HypergraphFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p, scans), 2);
  ASSERT_EQ(scheme.fragments.size(), 2u);
  const TupleIndex cut = scheme.fragments[0].end;
  EXPECT_GE(cut, 40u);
  EXPECT_LE(cut, 60u);
}

TEST(HypergraphFragmenterTest, BernoulliAdversarialPilesCutsAtColdFront) {
  // Every scan ends at the last tuple; starts near the end. Unconstrained
  // min-cut then places the first k-1 cut positions at the cold front
  // (weight-0 cuts), the paper's §10.1 observation.
  const ValueProfile p = ValueProfile::Uniform(1000, 1.0);
  const auto scans =
      ScansOf({{900, 1000}, {950, 1000}, {800, 1000}, {990, 1000}});
  HypergraphFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p, scans), 5);
  ASSERT_EQ(scheme.fragments.size(), 5u);
  // First four fragments are single tuples at the front.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(scheme.fragments[static_cast<std::size_t>(i)].size(), 1u);
  }
}

TEST(HypergraphFragmenterTest, BalancedModeRespectsImbalance) {
  const ValueProfile p = ValueProfile::Uniform(1000, 1.0);
  const auto scans = ScansOf({{900, 1000}, {950, 1000}, {800, 1000}});
  HypergraphFragmenter::Options opts;
  opts.max_imbalance = 0.10;
  HypergraphFragmenter frag(opts);
  const auto scheme = frag.Refragment(Ctx(p, scans), 4);
  EXPECT_TRUE(scheme.Valid());
  for (const TupleRange& f : scheme.fragments) {
    EXPECT_LE(f.size(), static_cast<TupleCount>(1000.0 / 4 * 1.10) + 1);
  }
}

TEST(HypergraphFragmenterTest, NoScansFallsBackToValidScheme) {
  const ValueProfile p = ValueProfile::Uniform(100, 0.0);
  HypergraphFragmenter frag;
  const auto scheme = frag.Refragment(Ctx(p), 4);
  EXPECT_TRUE(scheme.Valid());
  EXPECT_EQ(scheme.fragments.size(), 4u);
}

// --------------------------------------------------------------- scheme

TEST(SchemeTest, FragmentContaining) {
  FragmentationScheme s;
  s.table_size = 100;
  s.fragments = {{0, 30}, {30, 70}, {70, 100}};
  EXPECT_EQ(s.FragmentContaining(0), 0u);
  EXPECT_EQ(s.FragmentContaining(29), 0u);
  EXPECT_EQ(s.FragmentContaining(30), 1u);
  EXPECT_EQ(s.FragmentContaining(99), 2u);
}

TEST(SchemeTest, FragmentsOverlapping) {
  FragmentationScheme s;
  s.table_size = 100;
  s.fragments = {{0, 30}, {30, 70}, {70, 100}};
  EXPECT_EQ(s.FragmentsOverlapping(TupleRange{10, 20}),
            (std::vector<FragmentId>{0}));
  EXPECT_EQ(s.FragmentsOverlapping(TupleRange{20, 80}),
            (std::vector<FragmentId>{0, 1, 2}));
  EXPECT_EQ(s.FragmentsOverlapping(TupleRange{30, 70}),
            (std::vector<FragmentId>{1}));
  EXPECT_TRUE(s.FragmentsOverlapping(TupleRange{50, 50}).empty());
}

TEST(SchemeTest, ValidDetectsGapsAndOverlaps) {
  FragmentationScheme s;
  s.table_size = 100;
  s.fragments = {{0, 30}, {30, 70}, {70, 100}};
  EXPECT_TRUE(s.Valid());
  s.fragments[1].start = 31;  // gap
  EXPECT_FALSE(s.Valid());
  s.fragments[1].start = 29;  // overlap
  EXPECT_FALSE(s.Valid());
  s.fragments[1].start = 30;
  s.fragments[2].end = 99;  // does not reach table end
  EXPECT_FALSE(s.Valid());
}

// ------------------------------------------------- parameterized sweep

class FragmenterSweepTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::size_t>> {
};

TEST_P(FragmenterSweepTest, AllAlgorithmsProduceValidSchemesAndOrdering) {
  const auto [seed, max_frags] = GetParam();
  Rng rng(seed);
  const ValueProfile p = RandomProfile(&rng, 400, 20);
  const auto scans = ScansOf({{0, 100}, {50, 200}, {300, 400}});

  OptimalFragmenter optimal;
  GreedyFragmenter greedy;
  DtFragmenter dt;
  NaiveFragmenter naive;
  HypergraphFragmenter hyper;

  std::vector<Fragmenter*> algos = {&optimal, &greedy, &dt, &naive, &hyper};
  std::vector<Money> errors;
  for (Fragmenter* algo : algos) {
    const auto scheme = algo->Refragment(Ctx(p, scans), max_frags);
    EXPECT_TRUE(scheme.Valid()) << algo->name();
    EXPECT_LE(scheme.fragments.size(), max_frags) << algo->name();
    errors.push_back(SchemeError(scheme, p));
  }
  // Optimal <= greedy and optimal <= DT (the paper's Figure 6 ordering).
  EXPECT_LE(errors[0], errors[1] + 1e-9);
  EXPECT_LE(errors[0], errors[2] + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FragmenterSweepTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u),
                       ::testing::Values(2u, 5u, 9u)));

}  // namespace
}  // namespace nashdb
