#include <set>
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

void ExpectValid(const std::vector<FragmentRequest>& requests,
                 const std::vector<RoutedRead>& routed) {
  ASSERT_EQ(routed.size(), requests.size());
  std::set<std::size_t> seen;
  for (const RoutedRead& rr : routed) {
    EXPECT_TRUE(seen.insert(rr.request_index).second)
        << "request routed twice";
    const auto& cand = requests[rr.request_index].candidates;
    EXPECT_NE(std::find(cand.begin(), cand.end(), rr.node), cand.end())
        << "routed to a node without a replica";
  }
}

// ------------------------------------------------------------ MaxOfMins

TEST(MaxOfMinsTest, SingleRequestGoesToShortestQueue) {
  MaxOfMinsRouter router;
  const std::vector<FragmentRequest> reqs = {Req(0, 100, {0, 1, 2})};
  const auto routed = *router.Route(reqs, {5.0, 1.0, 3.0}, 0.001, 0.0);
  ExpectValid(reqs, routed);
  EXPECT_EQ(routed[0].node, 1u);
}

TEST(MaxOfMinsTest, SpanPenaltyKeepsQueryOnOneNode) {
  // Node 0 holds both fragments; node 1 holds only the second and is
  // slightly less loaded — but not by more than φ, so the router should
  // not widen the span.
  MaxOfMinsRouter router;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {0}),
                                             Req(1, 10, {0, 1})};
  // read_seconds_per_tuple = 0.001 -> each read adds 0.01 s.
  const auto routed = *router.Route(reqs, {0.2, 0.1}, 0.001, 0.35);
  ExpectValid(reqs, routed);
  EXPECT_EQ(SpanOf(routed), 1u);
  for (const RoutedRead& rr : routed) EXPECT_EQ(rr.node, 0u);
}

TEST(MaxOfMinsTest, SpanGrowsWhenBeneficial) {
  // Node 0's queue exceeds node 1's by far more than φ: use both.
  MaxOfMinsRouter router;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {0}),
                                             Req(1, 10, {0, 1})};
  const auto routed = *router.Route(reqs, {10.0, 0.0}, 0.001, 0.35);
  ExpectValid(reqs, routed);
  EXPECT_EQ(SpanOf(routed), 2u);
}

TEST(MaxOfMinsTest, SchedulesBottleneckFirst) {
  // Eq. 11 schedules the request with the max of min waits first. The
  // request confined to the busy node is the bottleneck; it must be
  // scheduled before the flexible one.
  MaxOfMinsRouter router;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {0, 1}),
                                             Req(1, 10, {1})};
  const auto routed = *router.Route(reqs, {0.0, 5.0}, 0.001, 0.0);
  ExpectValid(reqs, routed);
  EXPECT_EQ(routed[0].request_index, 1u);  // bottleneck first
  EXPECT_EQ(routed[0].node, 1u);
  EXPECT_EQ(routed[1].node, 0u);
}

TEST(MaxOfMinsTest, AccountsForItsOwnSchedulingLoad) {
  // Three identical requests over two idle nodes: the router must spread
  // them (after placing one, that node's wait grows).
  MaxOfMinsRouter router;
  const std::vector<FragmentRequest> reqs = {
      Req(0, 1000, {0, 1}), Req(1, 1000, {0, 1}), Req(2, 1000, {0, 1})};
  const auto routed = *router.Route(reqs, {0.0, 0.0}, 0.001, 0.0);
  ExpectValid(reqs, routed);
  EXPECT_EQ(SpanOf(routed), 2u);
}

// --------------------------------------------------------- ShortestQueue

TEST(ShortestQueueTest, AlwaysPicksShortestIgnoringSpan) {
  ShortestQueueRouter router;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {0, 1}),
                                             Req(1, 10, {0, 1})};
  // With a huge φ MaxOfMins would stay on one node; shortest-queue
  // ignores φ entirely and alternates.
  const auto routed = *router.Route(reqs, {0.0, 0.001}, 1.0, 100.0);
  ExpectValid(reqs, routed);
  EXPECT_EQ(SpanOf(routed), 2u);
}

TEST(ShortestQueueTest, UpdatesWaitsAsItSchedules) {
  ShortestQueueRouter router;
  const std::vector<FragmentRequest> reqs = {
      Req(0, 100, {0, 1}), Req(1, 100, {0, 1}), Req(2, 100, {0, 1}),
      Req(3, 100, {0, 1})};
  const auto routed = *router.Route(reqs, {0.0, 0.0}, 0.01, 0.0);
  ExpectValid(reqs, routed);
  int on0 = 0, on1 = 0;
  for (const RoutedRead& rr : routed) (rr.node == 0 ? on0 : on1)++;
  EXPECT_EQ(on0, 2);
  EXPECT_EQ(on1, 2);
}

// -------------------------------------------------------------- GreedySC

TEST(GreedyScTest, MinimizesSpan) {
  // Node 2 can serve everything; greedy set cover must use only node 2.
  GreedyScRouter router;
  const std::vector<FragmentRequest> reqs = {
      Req(0, 10, {0, 2}), Req(1, 10, {1, 2}), Req(2, 10, {2})};
  const auto routed = *router.Route(reqs, {0.0, 0.0, 100.0}, 0.001, 0.35);
  ExpectValid(reqs, routed);
  EXPECT_EQ(SpanOf(routed), 1u);
  for (const RoutedRead& rr : routed) EXPECT_EQ(rr.node, 2u);
}

TEST(GreedyScTest, CoversDisjointReplicaSets) {
  GreedyScRouter router;
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {0}),
                                             Req(1, 10, {1})};
  const auto routed = *router.Route(reqs, {0.0, 0.0}, 0.001, 0.35);
  ExpectValid(reqs, routed);
  EXPECT_EQ(SpanOf(routed), 2u);
}

TEST(GreedyScTest, WeighsByTuples) {
  // Node 0 covers one big request; node 1 covers two small ones. Greedy
  // SC picks by remaining tuple mass, so node 0 (1000) goes first, but
  // both nodes end up used.
  GreedyScRouter router;
  const std::vector<FragmentRequest> reqs = {
      Req(0, 1000, {0}), Req(1, 10, {1}), Req(2, 10, {1})};
  const auto routed = *router.Route(reqs, {0.0, 0.0}, 0.001, 0.35);
  ExpectValid(reqs, routed);
  EXPECT_EQ(routed[0].node, 0u);
}

// ------------------------------------------------- comparative property

TEST(RouterComparisonTest, SpanOrderingAcrossRouters) {
  // The paper's Figure 9c: span(GreedySC) <= span(MaxOfMins) <=
  // span(ShortestQueue) — on average over random instances.
  Rng rng(21);
  double span_sq = 0.0, span_mm = 0.0, span_sc = 0.0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    const std::size_t num_nodes = 3 + rng.Uniform(6);
    const std::size_t num_reqs = 2 + rng.Uniform(8);
    std::vector<FragmentRequest> reqs;
    for (std::size_t i = 0; i < num_reqs; ++i) {
      std::vector<NodeId> cands;
      const std::size_t nc = 1 + rng.Uniform(num_nodes);
      for (std::size_t c = 0; c < nc; ++c) {
        const NodeId m = static_cast<NodeId>(rng.Uniform(num_nodes));
        if (std::find(cands.begin(), cands.end(), m) == cands.end()) {
          cands.push_back(m);
        }
      }
      reqs.push_back(Req(static_cast<FlatFragmentId>(i),
                         10 + rng.Uniform(500), cands));
    }
    std::vector<double> waits(num_nodes);
    for (double& w : waits) w = rng.NextDouble() * 0.5;

    MaxOfMinsRouter mm;
    ShortestQueueRouter sq;
    GreedyScRouter sc;
    const auto r_mm = *mm.Route(reqs, waits, 0.0005, 0.35);
    const auto r_sq = *sq.Route(reqs, waits, 0.0005, 0.35);
    const auto r_sc = *sc.Route(reqs, waits, 0.0005, 0.35);
    ExpectValid(reqs, r_mm);
    ExpectValid(reqs, r_sq);
    ExpectValid(reqs, r_sc);
    span_mm += static_cast<double>(SpanOf(r_mm));
    span_sq += static_cast<double>(SpanOf(r_sq));
    span_sc += static_cast<double>(SpanOf(r_sc));
  }
  EXPECT_LE(span_sc, span_mm + 1e-9);
  EXPECT_LE(span_mm, span_sq + 1e-9);
}

TEST(SpanOfTest, CountsDistinctNodes) {
  EXPECT_EQ(SpanOf({}), 0u);
  EXPECT_EQ(SpanOf({{0, 3}, {1, 3}, {2, 5}}), 2u);
}

// With exactly two replicas, a d=2 sample without replacement would draw
// both candidates anyway, so the router evaluates them exhaustively and
// deterministically — no RNG draw. Pin that: every seed must make the same
// (best-wait) pick.
TEST(PowerOfTwoTest, TwoCandidatesPickedExhaustivelyAndDeterministically) {
  const std::vector<FragmentRequest> reqs = {Req(0, 100, {0, 1})};
  for (std::uint64_t seed : {1u, 7u, 42u, 12345u}) {
    PowerOfTwoRouter router(seed);
    const auto routed = *router.Route(reqs, {5.0, 1.0}, 0.001, 0.0);
    ASSERT_EQ(routed.size(), 1u);
    EXPECT_EQ(routed[0].node, 1u) << "seed=" << seed;
  }
}

TEST(PowerOfTwoTest, TwoCandidatesRespectSpanPenalty) {
  // Node 1 has the shorter queue, but the φ span penalty applies only to
  // nodes not yet used by this query; with φ = 3 the already-used node 0
  // (wait 2.0) beats node 1 (wait 0.5 + φ = 3.5) for the second request.
  const std::vector<FragmentRequest> reqs = {Req(0, 100, {0}),
                                             Req(1, 100, {0, 1})};
  PowerOfTwoRouter router(1);
  const auto routed = *router.Route(reqs, {2.0, 0.5}, 0.0, 3.0);
  ASSERT_EQ(routed.size(), 2u);
  EXPECT_EQ(routed[0].node, 0u);
  EXPECT_EQ(routed[1].node, 0u);
}

TEST(PowerOfTwoTest, SingleCandidateAlwaysPicked) {
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {3})};
  PowerOfTwoRouter router(9);
  const auto routed = *router.Route(reqs, {0.0, 0.0, 0.0, 9.0}, 0.001, 0.35);
  ASSERT_EQ(routed.size(), 1u);
  EXPECT_EQ(routed[0].node, 3u);
}

// -------------------------------------------- empty-candidate hardening
//
// Under node failures the driver strips dead replicas from each request's
// candidate list, which can leave it empty. Every router must then report
// a routing failure — FailedPrecondition, naming the fragment — instead
// of indexing into the empty list.

TEST(RouterFailureTest, EmptyCandidatesIsRoutingFailureNotUb) {
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter sc;
  PowerOfTwoRouter p2(3);
  const std::vector<FragmentRequest> reqs = {Req(0, 10, {0}),
                                             Req(7, 10, {})};
  for (ScanRouter* router :
       std::vector<ScanRouter*>{&mm, &sq, &sc, &p2}) {
    const auto routed = router->Route(reqs, {0.0, 0.0}, 0.001, 0.35);
    ASSERT_FALSE(routed.ok()) << router->name();
    EXPECT_EQ(routed.status().code(), StatusCode::kFailedPrecondition)
        << router->name();
    EXPECT_NE(routed.status().message().find("fragment 7"),
              std::string::npos)
        << router->name() << ": " << routed.status().message();
  }
}

TEST(RouterFailureTest, AllRequestsEmptyAlsoFails) {
  MaxOfMinsRouter router;
  const std::vector<FragmentRequest> reqs = {Req(1, 10, {}), Req(2, 5, {})};
  const auto routed = router.Route(reqs, {0.0, 0.0}, 0.001, 0.35);
  ASSERT_FALSE(routed.ok());
  EXPECT_EQ(routed.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RouterFailureTest, NoRequestsIsTriviallyRoutable) {
  // An empty request list is not a failure — there is nothing to route.
  ShortestQueueRouter router;
  const auto routed = router.Route({}, {0.0}, 0.001, 0.35);
  ASSERT_TRUE(routed.ok());
  EXPECT_TRUE(routed->empty());
}

TEST(PowerOfTwoTest, ManyCandidatesStillRouteValidly) {
  Rng rng(77);
  std::vector<FragmentRequest> reqs;
  for (std::size_t i = 0; i < 40; ++i) {
    reqs.push_back(Req(static_cast<FlatFragmentId>(i), 10 + rng.Uniform(100),
                       {0, 1, 2, 3, 4, 5}));
  }
  PowerOfTwoRouter router(5);
  const auto routed = *router.Route(reqs, std::vector<double>(6, 0.0), 0.001,
                                   0.35);
  ASSERT_EQ(routed.size(), reqs.size());
  for (const RoutedRead& rr : routed) EXPECT_LT(rr.node, 6u);
}

}  // namespace
}  // namespace nashdb
