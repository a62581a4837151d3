// Router equivalence suite (DESIGN.md §10): for each of the four scan
// routers, the per-scan adapters RouteInto and Route, which route one scan
// as a one-scan block through the shipped RouteBatchInto, must make
// exactly the decisions of the seed router (tests/seed_routers.h, the
// oracle) — node for node, tie for tie, RNG draw for RNG draw — on
// randomized request sets including empty batches, empty candidate lists,
// and single-node clusters. Also pins the PowerOfTwo RNG-consumption
// contract that the bit-identical golden test depends on.

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "routing/router.h"
#include "seed_routers.h"

namespace nashdb {
namespace {

FragmentRequest Req(FlatFragmentId frag, TupleCount tuples,
                    std::vector<NodeId> candidates) {
  FragmentRequest r;
  r.frag = frag;
  r.tuples = tuples;
  r.candidates = std::move(candidates);
  return r;
}

/// Owns the flat form of a seed request set (what ConfigIndex /
/// LivenessOverlay produce on the driver's hot path).
struct FlatSet {
  std::vector<FlatRequest> requests;
  std::vector<NodeId> pool;

  RequestBatch Batch() const {
    return RequestBatch{requests.data(), requests.size(), pool.data()};
  }
};

FlatSet Flatten(const std::vector<FragmentRequest>& reqs) {
  FlatSet fs;
  for (const FragmentRequest& r : reqs) {
    FlatRequest fr;
    fr.frag = r.frag;
    fr.tuples = r.tuples;
    fr.cand_begin = static_cast<std::uint32_t>(fs.pool.size());
    fr.cand_count = static_cast<std::uint32_t>(r.candidates.size());
    fs.pool.insert(fs.pool.end(), r.candidates.begin(), r.candidates.end());
    fs.requests.push_back(fr);
  }
  return fs;
}

std::vector<FragmentRequest> RandomRequests(Rng* rng, std::size_t node_count,
                                            std::size_t max_requests) {
  const std::size_t n_req = rng->Uniform(max_requests + 1);
  std::vector<FragmentRequest> reqs;
  reqs.reserve(n_req);
  for (std::size_t i = 0; i < n_req; ++i) {
    std::vector<NodeId> all(node_count);
    std::iota(all.begin(), all.end(), NodeId{0});
    rng->Shuffle(&all);
    const std::size_t n_cand =
        1 + rng->Uniform(std::min<std::size_t>(node_count, 6));
    all.resize(n_cand);
    reqs.push_back(Req(static_cast<FlatFragmentId>(i),
                       1 + rng->Uniform(500000), std::move(all)));
  }
  return reqs;
}

std::vector<double> RandomWaits(Rng* rng, std::size_t node_count) {
  std::vector<double> waits(node_count);
  for (double& w : waits) w = rng->NextDouble() * 10.0;
  return waits;
}

/// Asserts that `routed` (the shipped path) equals `ref` (the oracle).
void ExpectSameReads(const ScanRouter& router,
                     const Result<std::vector<RoutedRead>>& ref,
                     bool shipped_ok,
                     const std::vector<RoutedRead>& routed) {
  ASSERT_EQ(ref.ok(), shipped_ok) << router.name() << ": one path failed";
  if (!ref.ok()) return;
  ASSERT_EQ(routed.size(), ref->size()) << router.name();
  for (std::size_t i = 0; i < routed.size(); ++i) {
    EXPECT_EQ(routed[i].request_index, (*ref)[i].request_index)
        << router.name() << " diverged at position " << i;
    EXPECT_EQ(routed[i].node, (*ref)[i].node)
        << router.name() << " diverged at position " << i;
  }
}

/// Routes `reqs` through the seed oracle and through `router`'s RouteInto
/// (the flattened batch over a WaitView), then through the oracle and
/// `router`'s Route again, and asserts identical outcomes each time. A
/// PowerOfTwo oracle draws from an Rng seeded like the router, so the two
/// streams stay in lockstep only if every call consumes identically.
void ExpectSameRouting(const SeedRoute& seed, ScanRouter* router,
                       const std::vector<FragmentRequest>& reqs,
                       const std::vector<double>& waits, double rspt,
                       double phi, RouterScratch* scratch,
                       std::vector<RoutedRead>* out) {
  const FlatSet fs = Flatten(reqs);
  const Result<std::vector<RoutedRead>> ref = seed(reqs, waits, rspt, phi);
  const WaitView view(waits.data(), waits.size(), /*at=*/0.0);
  const Status st =
      router->RouteInto(fs.Batch(), view, rspt, phi, scratch, out);
  ExpectSameReads(*router, ref, st.ok(), *out);

  const Result<std::vector<RoutedRead>> ref2 = seed(reqs, waits, rspt, phi);
  const Result<std::vector<RoutedRead>> routed =
      router->Route(reqs, waits, rspt, phi);
  ExpectSameReads(*router, ref2, routed.ok(),
                  routed.ok() ? *routed : std::vector<RoutedRead>{});
}

class RouterEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(RouterEquivalenceTest, DeterministicRoutersMatchOnRandomSets) {
  Rng rng(GetParam());
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  RouterScratch scratch;  // deliberately reused across routers and scans
  std::vector<RoutedRead> out;
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 8; ++round) {
      const auto reqs = RandomRequests(&rng, node_count, 20);
      const auto waits = RandomWaits(&rng, node_count);
      const double rspt = 1e-6 * (1 + rng.Uniform(100));
      const double phi = rng.NextDouble();
      ExpectSameRouting(SeedMaxOfMinsRoute, &mm, reqs, waits, rspt, phi,
                        &scratch, &out);
      ExpectSameRouting(SeedShortestQueueRoute, &sq, reqs, waits, rspt, phi,
                        &scratch, &out);
      ExpectSameRouting(SeedGreedyScRoute, &gsc, reqs, waits, rspt, phi,
                        &scratch, &out);
    }
  }
}

TEST_P(RouterEquivalenceTest, PowerOfTwoMatchesWithPairedRngStreams) {
  Rng rng(GetParam());
  // A same-seeded pair: the oracle consumes one stream, the router the
  // other. They stay in lockstep across many calls only if every call
  // consumes identically — a drift anywhere poisons all later
  // comparisons, which is exactly the property the driver relies on.
  Rng seed_rng(GetParam());
  PowerOfTwoRouter router(GetParam());
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 8; ++round) {
      const auto reqs = RandomRequests(&rng, node_count, 20);
      const auto waits = RandomWaits(&rng, node_count);
      ExpectSameRouting(SeedPowerOfTwo(&seed_rng), &router, reqs, waits,
                        1e-5, 0.35, &scratch, &out);
    }
  }
  EXPECT_EQ(router.mutable_rng_for_test()->NextU64(), seed_rng.NextU64())
      << "the router's and the oracle's RNG streams diverged";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterEquivalenceTest,
                         ::testing::Range<std::uint64_t>(1, 13));

// ------------------------------------------------------------ edge cases

TEST(RouterEquivalenceEdgeTest, EmptyBatchRoutesToNothing) {
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  PowerOfTwoRouter p2(7);
  Rng p2_rng(7);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const std::vector<FragmentRequest> none;
  const std::vector<double> waits = {1.0, 2.0};
  ExpectSameRouting(SeedMaxOfMinsRoute, &mm, none, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedShortestQueueRoute, &sq, none, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedGreedyScRoute, &gsc, none, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedPowerOfTwo(&p2_rng), &p2, none, waits, 1e-5, 0.35,
                    &scratch, &out);
  EXPECT_TRUE(out.empty());
}

TEST(RouterEquivalenceEdgeTest, EmptyCandidateListFailsOnBothPaths) {
  // A fragment with no live replica (mid-fault): both paths must return
  // FailedPrecondition, and RouteInto must not have touched the output.
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  PowerOfTwoRouter p2(7);
  Rng p2_rng(7);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {1}), Req(1, 10, {})};
  const std::vector<double> waits = {0.0, 0.0, 0.0};
  ExpectSameRouting(SeedMaxOfMinsRoute, &mm, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedShortestQueueRoute, &sq, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedGreedyScRoute, &gsc, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedPowerOfTwo(&p2_rng), &p2, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);

  const FlatSet fs = Flatten(reqs);
  const WaitView view(waits.data(), waits.size(), 0.0);
  out = {RoutedRead{7, 2}};
  const Status st = mm.RouteInto(fs.Batch(), view, 1e-5, 0.35, &scratch, &out);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(st.message(), SeedMaxOfMinsRoute(reqs, waits, 1e-5, 0.35)
                              .status()
                              .message());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].request_index, 7u);
  EXPECT_EQ(out[0].node, 2u);
}

TEST(RouterEquivalenceEdgeTest, SingleNodeClusterPinsEverything) {
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  PowerOfTwoRouter p2(9);
  Rng p2_rng(9);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  std::vector<FragmentRequest> reqs;
  for (int i = 0; i < 6; ++i) reqs.push_back(Req(i, 100 * (i + 1), {0}));
  const std::vector<double> waits = {3.5};
  ExpectSameRouting(SeedMaxOfMinsRoute, &mm, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedShortestQueueRoute, &sq, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedGreedyScRoute, &gsc, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  ExpectSameRouting(SeedPowerOfTwo(&p2_rng), &p2, reqs, waits, 1e-5, 0.35,
                    &scratch, &out);
  for (const RoutedRead& rr : out) EXPECT_EQ(rr.node, 0u);
}

TEST(RouterEquivalenceEdgeTest, WaitViewAppliesTheWaitSecondsFormula) {
  // WaitView must clamp exactly like ClusterSim::WaitSeconds: busy-until
  // values in the past read as zero wait, not negative.
  const std::vector<SimTime> busy_until = {5.0, 100.0, 250.0};
  const WaitView view(busy_until.data(), busy_until.size(), /*at=*/100.0);
  EXPECT_EQ(view.At(0), 0.0);
  EXPECT_EQ(view.At(1), 0.0);
  EXPECT_EQ(view.At(2), 150.0);
}

// ----------------------------------------- PowerOfTwo RNG contract (§10)

/// Routes `reqs` once, through the seed oracle or through the router's
/// RouteInto, and returns the generator that routing drew from.
Rng* RouteOnce(bool use_seed, const std::vector<FragmentRequest>& reqs,
               const std::vector<double>& waits, Rng* seed_rng,
               PowerOfTwoRouter* router) {
  if (use_seed) {
    EXPECT_TRUE(SeedPowerOfTwoRoute(reqs, waits, 1e-5, 0.35, seed_rng).ok());
    return seed_rng;
  }
  const FlatSet fs = Flatten(reqs);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const WaitView view(waits.data(), waits.size(), 0.0);
  EXPECT_TRUE(
      router->RouteInto(fs.Batch(), view, 1e-5, 0.35, &scratch, &out).ok());
  return router->mutable_rng_for_test();
}

// A request with <= 2 candidates must not consume randomness at all.
TEST(PowerOfTwoRngContractTest, NoDrawForTwoOrFewerCandidates) {
  for (const bool use_seed : {true, false}) {
    PowerOfTwoRouter router(42);
    Rng seed_rng(42);
    const std::vector<FragmentRequest> reqs = {Req(0, 10, {0}),
                                               Req(1, 10, {1, 2})};
    const std::vector<double> waits = {0.0, 1.0, 2.0};
    Rng* drawn = RouteOnce(use_seed, reqs, waits, &seed_rng, &router);
    // The generator must be exactly where a fresh same-seeded generator
    // starts.
    Rng untouched(42);
    EXPECT_EQ(drawn->NextU64(), untouched.NextU64())
        << (use_seed ? "the seed router" : "RouteInto")
        << " consumed randomness";
  }
}

// A request with > 2 candidates draws exactly twice: Uniform(c) then
// Uniform(c - 1).
TEST(PowerOfTwoRngContractTest, ExactlyTwoDrawsPerLargeRequest) {
  for (const bool use_seed : {true, false}) {
    PowerOfTwoRouter router(42);
    Rng seed_rng(42);
    // Candidate counts 1, 5, 2, 3: draws only for the 5 and the 3.
    const std::vector<FragmentRequest> reqs = {
        Req(0, 10, {0}), Req(1, 10, {0, 1, 2, 3, 4}), Req(2, 10, {1, 2}),
        Req(3, 10, {2, 3, 4})};
    const std::vector<double> waits = {0.0, 0.5, 1.0, 1.5, 2.0};
    Rng* drawn = RouteOnce(use_seed, reqs, waits, &seed_rng, &router);
    Rng reference(42);
    (void)reference.Uniform(5);
    (void)reference.Uniform(4);
    (void)reference.Uniform(3);
    (void)reference.Uniform(2);
    // After replaying the expected draws the two streams must coincide.
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(drawn->NextU64(), reference.NextU64())
          << (use_seed ? "the seed router" : "RouteInto")
          << " draw count/order mismatch";
    }
  }
}

}  // namespace
}  // namespace nashdb
