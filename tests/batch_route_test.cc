// Batch-route equivalence suite (DESIGN.md §11): for each of the four
// scan routers, RouteBatchInto over a block of scans must make exactly
// the decisions of the seed router (tests/seed_routers.h, the oracle)
// applied to each scan alone — node for node, tie for tie, RNG draw for
// RNG draw — under both frozen waits and live busy-until state mutated
// between scans (the driver's enqueue-between-scans regime), at low
// replication and at up to 128 candidates per request with idle nodes,
// where the Max-of-mins sweep stops at its lower bound, and on scans of
// 17-150 requests over ~62-node spans, idle and saturated, where it takes
// its incremental wide core. Also pins the sink ordering contract, the
// partial-commit guarantee on unroutable scans, and the PowerOfTwo
// RNG-consumption contract per batch element.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
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

/// Owns a hand-built ScanBatch over arbitrary per-scan request sets (the
/// router-level analogue of what ConfigIndex::ResolveBatchInto produces).
struct BatchSet {
  ScanBatch batch;
  std::vector<NodeId> pool;
};

BatchSet MakeBatch(const std::vector<std::vector<FragmentRequest>>& scans) {
  BatchSet bs;
  bs.batch.req_off.push_back(0);
  for (std::size_t s = 0; s < scans.size(); ++s) {
    bs.batch.ids.push_back(s);
    bs.batch.tables.push_back(0);
    bs.batch.starts.push_back(0);
    bs.batch.ends.push_back(1);
    bs.batch.prices.push_back(1.0);
    for (const FragmentRequest& r : scans[s]) {
      FlatRequest fr;
      fr.frag = r.frag;
      fr.tuples = r.tuples;
      fr.cand_begin = static_cast<std::uint32_t>(bs.pool.size());
      fr.cand_count = static_cast<std::uint32_t>(r.candidates.size());
      bs.pool.insert(bs.pool.end(), r.candidates.begin(),
                     r.candidates.end());
      bs.batch.requests.push_back(fr);
    }
    bs.batch.req_off.push_back(
        static_cast<std::uint32_t>(bs.batch.requests.size()));
  }
  bs.batch.cand_pool = bs.pool.data();
  return bs;
}

/// Captures every sink callback verbatim.
class RecordingSink : public BatchSink {
 public:
  struct Event {
    std::size_t scan = 0;
    std::vector<RoutedRead> reads;
  };
  std::vector<Event> events;

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    events.push_back(Event{scan_index, {reads, reads + count}});
  }
};

/// Sink that applies each scan's reads to a live busy-until array the
/// moment they are reported — the driver's enqueue-between-scans shape —
/// so later scans of the block route against updated state.
class MutatingSink : public BatchSink {
 public:
  MutatingSink(const ScanBatch* batch, std::vector<SimTime>* busy,
               double seconds_per_tuple)
      : batch_(batch), busy_(busy), spt_(seconds_per_tuple) {}

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    const FlatRequest* reqs =
        batch_->requests.data() + batch_->req_off[scan_index];
    for (std::size_t k = 0; k < count; ++k) {
      (*busy_)[reads[k].node] +=
          static_cast<double>(reqs[reads[k].request_index].tuples) * spt_ +
          0.35;
    }
  }

 private:
  const ScanBatch* batch_;
  std::vector<SimTime>* busy_;
  const double spt_;
};

std::vector<std::vector<FragmentRequest>> RandomScans(Rng* rng,
                                                      std::size_t node_count,
                                                      std::size_t max_scans) {
  const std::size_t n_scans = rng->Uniform(max_scans + 1);
  std::vector<std::vector<FragmentRequest>> scans(n_scans);
  for (auto& scan : scans) {
    const std::size_t n_req = rng->Uniform(8);  // 0 = empty scan
    for (std::size_t i = 0; i < n_req; ++i) {
      std::vector<NodeId> all(node_count);
      std::iota(all.begin(), all.end(), NodeId{0});
      rng->Shuffle(&all);
      all.resize(1 + rng->Uniform(std::min<std::size_t>(node_count, 6)));
      scan.push_back(Req(static_cast<FlatFragmentId>(i),
                         1 + rng->Uniform(500000), std::move(all)));
    }
  }
  return scans;
}

/// Each node's wait at `at` over a busy-until array: ClusterSim's
/// WaitSeconds formula, max(0, busy_until[m] - at), which is exactly what
/// WaitView::At reads.
std::vector<double> WaitsAt(const std::vector<SimTime>& busy, SimTime at) {
  std::vector<double> waits(busy.size());
  for (std::size_t m = 0; m < busy.size(); ++m) {
    waits[m] = std::max<SimTime>(0.0, busy[m] - at);
  }
  return waits;
}

/// Routes `scans` scan by scan through the seed oracle and as one block
/// through `router` (RouteBatchInto), both against live busy-until state
/// advanced identically between scans, and asserts identical decisions,
/// identical sink slices, and bit-identical final busy-until arrays. A
/// PowerOfTwo oracle draws from an Rng seeded like the router.
void ExpectBatchMatchesSeed(
    const SeedRoute& seed, ScanRouter* router,
    const std::vector<std::vector<FragmentRequest>>& scans,
    const std::vector<SimTime>& base_busy, double rspt, double phi) {
  const BatchSet bs = MakeBatch(scans);

  // Seed reference: one oracle call per scan over the waits the sim
  // reports at time 0, committing each scan's reads into the busy array
  // before routing the next.
  std::vector<SimTime> busy_seed = base_busy;
  std::vector<RoutedRead> expected;
  for (std::size_t s = 0; s < scans.size(); ++s) {
    if (scans[s].empty()) continue;
    const Result<std::vector<RoutedRead>> routed =
        seed(scans[s], WaitsAt(busy_seed, /*at=*/0.0), rspt, phi);
    ASSERT_TRUE(routed.ok()) << router->name();
    for (const RoutedRead& rr : *routed) {
      busy_seed[rr.node] +=
          static_cast<double>(scans[s][rr.request_index].tuples) * rspt +
          0.35;
      expected.push_back(rr);
    }
  }

  // Batched run with the same mutation applied through the sink.
  std::vector<SimTime> busy_batch = base_busy;
  struct BothSinks : BatchSink {
    RecordingSink* rec;
    MutatingSink* mut;
    void OnScanRouted(std::size_t i, const RoutedRead* r,
                      std::size_t n) override {
      rec->OnScanRouted(i, r, n);
      mut->OnScanRouted(i, r, n);
    }
  };
  RecordingSink rec;
  MutatingSink mut(&bs.batch, &busy_batch, rspt);
  BothSinks sink;
  sink.rec = &rec;
  sink.mut = &mut;
  RouterScratch batch_scratch;
  std::vector<RoutedRead> batch_out;
  const WaitView view(busy_batch.data(), busy_batch.size(), /*at=*/0.0);
  ASSERT_TRUE(router
                  ->RouteBatchInto(bs.batch, view, rspt, phi, &batch_scratch,
                                   &batch_out, &sink)
                  .ok());

  ASSERT_EQ(batch_out.size(), expected.size()) << router->name();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(batch_out[i].request_index, expected[i].request_index)
        << router->name() << " diverged at position " << i;
    EXPECT_EQ(batch_out[i].node, expected[i].node)
        << router->name() << " diverged at position " << i;
  }
  // Exactly one sink event per scan, in batch order, empty scans included.
  ASSERT_EQ(rec.events.size(), scans.size()) << router->name();
  std::size_t cursor = 0;
  for (std::size_t s = 0; s < scans.size(); ++s) {
    EXPECT_EQ(rec.events[s].scan, s);
    for (const RoutedRead& rr : rec.events[s].reads) {
      ASSERT_LT(cursor, expected.size());
      EXPECT_EQ(rr.node, expected[cursor].node);
      EXPECT_EQ(rr.request_index, expected[cursor].request_index);
      ++cursor;
    }
  }
  EXPECT_EQ(cursor, expected.size()) << router->name();
  // The recorded waits the two paths produced — the busy-until arrays —
  // must agree to the last double bit.
  for (std::size_t m = 0; m < base_busy.size(); ++m) {
    EXPECT_EQ(busy_batch[m], busy_seed[m])
        << router->name() << " wait diverged on node " << m;
  }
}

std::vector<SimTime> RandomBusy(Rng* rng, std::size_t node_count) {
  std::vector<SimTime> busy(node_count);
  for (SimTime& b : busy) b = rng->NextDouble() * 10.0;
  return busy;
}

class BatchRouteTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatchRouteTest, DeterministicRoutersMatchPerScanPath) {
  Rng rng(GetParam());
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 4; ++round) {
      const auto scans = RandomScans(&rng, node_count, 12);
      const auto busy = RandomBusy(&rng, node_count);
      const double rspt = 1e-6 * (1 + rng.Uniform(100));
      const double phi = rng.NextDouble();
      ExpectBatchMatchesSeed(SeedMaxOfMinsRoute, &mm, scans, busy, rspt,
                             phi);
      ExpectBatchMatchesSeed(SeedShortestQueueRoute, &sq, scans, busy, rspt,
                             phi);
      ExpectBatchMatchesSeed(SeedGreedyScRoute, &gsc, scans, busy, rspt, phi);
    }
  }
}

TEST_P(BatchRouteTest, PowerOfTwoMatchesWithPairedRngStreams) {
  Rng rng(GetParam());
  // Same-seeded pair: the oracle consumes one stream, the batched path
  // the other. They stay in lockstep across many blocks only if every
  // scan of every block consumes identically.
  Rng seed_rng(GetParam());
  PowerOfTwoRouter batched(GetParam());
  for (const std::size_t node_count : {1u, 2u, 3u, 5u, 8u, 16u, 64u}) {
    for (int round = 0; round < 4; ++round) {
      const auto scans = RandomScans(&rng, node_count, 12);
      const auto busy = RandomBusy(&rng, node_count);
      ExpectBatchMatchesSeed(SeedPowerOfTwo(&seed_rng), &batched, scans, busy,
                             1e-5, 0.35);
    }
  }
  EXPECT_EQ(batched.mutable_rng_for_test()->NextU64(), seed_rng.NextU64())
      << "the router's and the oracle's RNG streams diverged";
}

// ------------------------------------------------ high replication

/// A block of up to `max_scans` scans in the regime real configurations
/// produce at high replication: scans of 1, 2, 3-16 and more than 16
/// requests, each candidate span 1 to `node_count` nodes long in shuffled
/// order, reads short enough that a used node's advanced wait often stays
/// below phi.
std::vector<std::vector<FragmentRequest>> WideScans(Rng* rng,
                                                    std::size_t node_count,
                                                    std::size_t max_scans) {
  std::vector<std::vector<FragmentRequest>> scans(1 +
                                                  rng->Uniform(max_scans));
  for (auto& scan : scans) {
    std::size_t n_req = 0;
    switch (rng->Uniform(4)) {
      case 0:
        n_req = 1;
        break;
      case 1:
        n_req = 2;
        break;
      case 2:
        n_req = 3 + rng->Uniform(14);
        break;
      default:
        n_req = 17 + rng->Uniform(16);
        break;
    }
    for (std::size_t i = 0; i < n_req; ++i) {
      std::vector<NodeId> all(node_count);
      std::iota(all.begin(), all.end(), NodeId{0});
      rng->Shuffle(&all);
      all.resize(1 + rng->Uniform(node_count));
      scan.push_back(Req(static_cast<FlatFragmentId>(i),
                         1 + rng->Uniform(2000), std::move(all)));
    }
  }
  return scans;
}

/// Busy-until times (view time 0) that put every case of the sweep's
/// lower bound in play: a quarter of the nodes idle, so their candidates
/// tie at exactly phi; a quarter busy for less than half an ulp of phi, so
/// At > 0 yet At + phi == phi; a quarter at one of three shared values, so
/// candidates tie above the bound; the rest uniform.
std::vector<SimTime> BoundaryBusy(Rng* rng, std::size_t node_count,
                                  double phi) {
  const SimTime below_half_ulp = phi * 1e-17;
  EXPECT_GT(below_half_ulp, 0.0);
  EXPECT_EQ(below_half_ulp + phi, phi);
  std::vector<SimTime> busy(node_count);
  for (SimTime& b : busy) {
    switch (rng->Uniform(4)) {
      case 0:
        b = 0.0;
        break;
      case 1:
        b = below_half_ulp;
        break;
      case 2:
        b = 0.25 * static_cast<double>(1 + rng->Uniform(3));
        break;
      default:
        b = rng->NextDouble();
        break;
    }
  }
  return busy;
}

TEST_P(BatchRouteTest, DeterministicRoutersMatchAtHighReplication) {
  Rng rng(GetParam());
  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  for (const std::size_t node_count : {2u, 17u, 64u, 128u}) {
    for (int round = 0; round < 6; ++round) {
      const double phi = 0.05 + rng.NextDouble();
      const double rspt = 1e-6 * static_cast<double>(1 + rng.Uniform(100));
      const auto scans = WideScans(&rng, node_count, 12);
      const auto busy = BoundaryBusy(&rng, node_count, phi);
      ExpectBatchMatchesSeed(SeedMaxOfMinsRoute, &mm, scans, busy, rspt,
                             phi);
      ExpectBatchMatchesSeed(SeedShortestQueueRoute, &sq, scans, busy, rspt,
                             phi);
      ExpectBatchMatchesSeed(SeedGreedyScRoute, &gsc, scans, busy, rspt, phi);
    }
  }
}

// ------------------------------------------------ wide Max-of-mins scans

/// One scan of `n_req` requests over `node_count` nodes, each candidate
/// span `span` - 2 to `span` + 2 nodes in shuffled order, `lo` to `hi`
/// tuples per read.
std::vector<FragmentRequest> WideScan(Rng* rng, std::size_t n_req,
                                      std::size_t node_count,
                                      std::size_t span, TupleCount lo,
                                      TupleCount hi) {
  std::vector<FragmentRequest> scan;
  for (std::size_t i = 0; i < n_req; ++i) {
    std::vector<NodeId> all(node_count);
    std::iota(all.begin(), all.end(), NodeId{0});
    rng->Shuffle(&all);
    all.resize(span - 2 + rng->Uniform(5));
    scan.push_back(Req(static_cast<FlatFragmentId>(i),
                       lo + rng->Uniform(hi - lo + 1), std::move(all)));
  }
  return scan;
}

/// Busy-until times (view time 0) of a saturated cluster: every node
/// busy for at least a second, a third of them at one of three shared
/// values, so candidates tie exactly and the least-loaded node is the
/// argmin of many requests at once.
std::vector<SimTime> SaturatedBusy(Rng* rng, std::size_t node_count) {
  std::vector<SimTime> busy(node_count);
  for (SimTime& b : busy) {
    b = rng->Uniform(3) == 0 ? 1.0 + static_cast<double>(rng->Uniform(3))
                             : 1.0 + 20.0 * rng->NextDouble();
  }
  return busy;
}

// Scans wider than 16 requests take the incremental core. Real
// configurations' regime: ~130 nodes, ~62-node spans, blocks mixing wide
// scans, idle-boundary waits and saturated ones. Saturated reads take
// 1-10 s (tuples x read time >> phi), so scheduling one lifts a shared
// argmin far above the other candidates and every request holding it
// must be swept again.
TEST_P(BatchRouteTest, MaxOfMinsMatchesSeedOnWideScans) {
  Rng rng(GetParam());
  MaxOfMinsRouter mm;
  for (const std::size_t n_req : {17u, 32u, 100u, 150u}) {
    for (const bool saturated : {false, true}) {
      const std::size_t node_count = 126 + rng.Uniform(9);
      const double phi = saturated ? 0.35 : 0.05 + rng.NextDouble();
      const double rspt =
          saturated ? 1e-5 : 1e-6 * static_cast<double>(1 + rng.Uniform(100));
      const TupleCount lo = saturated ? 100'000 : 1;
      const TupleCount hi = saturated ? 1'000'000 : 2000;
      std::vector<std::vector<FragmentRequest>> scans;
      scans.push_back(WideScan(&rng, n_req, node_count, 62, lo, hi));
      scans.push_back(WideScan(&rng, 1 + rng.Uniform(16), node_count, 62, lo,
                               hi));
      scans.push_back(WideScan(&rng, n_req, node_count, 62, lo, hi));
      const auto busy = saturated ? SaturatedBusy(&rng, node_count)
                                  : BoundaryBusy(&rng, node_count, phi);
      ExpectBatchMatchesSeed(SeedMaxOfMinsRoute, &mm, scans, busy, rspt,
                             phi);
      if (HasFailure()) return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchRouteTest,
                         ::testing::Range<std::uint64_t>(1, 9));

/// The nodes RouteBatchInto picks for a one-scan block, in read order.
std::vector<NodeId> BatchNodes(ScanRouter* router,
                               const std::vector<FragmentRequest>& scan,
                               const std::vector<SimTime>& busy) {
  const BatchSet bs = MakeBatch({scan});
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const WaitView view(busy.data(), busy.size(), 0.0);
  EXPECT_TRUE(
      router->RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out,
                             nullptr)
          .ok());
  std::vector<NodeId> nodes;
  for (const RoutedRead& rr : out) nodes.push_back(rr.node);
  return nodes;
}

TEST(BatchRouteEdgeTest, MaxOfMinsTiesKeepTheFirstCandidate) {
  MaxOfMinsRouter mm;
  // Idle nodes tie at exactly phi.
  EXPECT_EQ(BatchNodes(&mm, {Req(0, 10, {3, 1, 2})}, {1.0, 0.0, 0.0, 0.0}),
            std::vector<NodeId>({3}));
  // A wait below half an ulp of phi ties with an idle node.
  EXPECT_EQ(BatchNodes(&mm, {Req(0, 10, {1, 0})}, {0.0, 1e-18}),
            std::vector<NodeId>({1}));
  // Ties above the bound: nodes 1 and 2 both wait 0.5 + phi.
  EXPECT_EQ(BatchNodes(&mm, {Req(0, 10, {0, 1, 2})}, {1.0, 0.5, 0.5}),
            std::vector<NodeId>({1}));
}

TEST(BatchRouteEdgeTest, MaxOfMinsPrefersAUsedNodeBelowPhi) {
  // Round one schedules request 0 (minimum 0.1 + phi, the larger) on node
  // 4, whose advanced wait 0.1 + 1e-4 stays below phi. Request 1 lists
  // the idle nodes 0-3, tied at phi, before node 4: the sweep must not
  // stop at phi once the scan uses a node that beats it.
  const std::vector<FragmentRequest> scan = {Req(0, 10, {4}),
                                             Req(1, 10, {0, 1, 2, 3, 4})};
  const std::vector<SimTime> busy = {0.0, 0.0, 0.0, 0.0, 0.1};
  MaxOfMinsRouter mm;
  EXPECT_EQ(BatchNodes(&mm, scan, busy), std::vector<NodeId>({4, 4}));
  ExpectBatchMatchesSeed(SeedMaxOfMinsRoute, &mm, {scan}, busy, 1e-5, 0.35);
}

// ------------------------------------------------------------ edge cases

TEST(BatchRouteEdgeTest, EmptyBatchRoutesToNothing) {
  MaxOfMinsRouter mm;
  RouterScratch scratch;
  std::vector<RoutedRead> out = {RoutedRead{}};  // must be cleared
  const BatchSet bs = MakeBatch({});
  const std::vector<SimTime> busy = {1.0, 2.0};
  RecordingSink sink;
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      mm.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, &sink)
          .ok());
  EXPECT_TRUE(out.empty());
  EXPECT_TRUE(sink.events.empty());
}

TEST(BatchRouteEdgeTest, EmptyScansReportedWithZeroCount) {
  MaxOfMinsRouter mm;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs =
      MakeBatch({{}, {Req(0, 10, {0}), Req(1, 20, {1})}, {}});
  const std::vector<SimTime> busy = {0.0, 0.0};
  RecordingSink sink;
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      mm.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, &sink)
          .ok());
  ASSERT_EQ(sink.events.size(), 3u);
  EXPECT_EQ(sink.events[0].scan, 0u);
  EXPECT_TRUE(sink.events[0].reads.empty());
  EXPECT_EQ(sink.events[1].reads.size(), 2u);
  EXPECT_TRUE(sink.events[2].reads.empty());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BatchRouteEdgeTest, NullSinkIsAllowed) {
  ShortestQueueRouter sq;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs = MakeBatch({{Req(0, 10, {0, 1})}, {Req(1, 5, {1})}});
  const std::vector<SimTime> busy = {0.0, 4.0};
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      sq.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, nullptr)
          .ok());
  EXPECT_EQ(out.size(), 2u);
}

TEST(BatchRouteEdgeTest, PartialCommitOnUnroutableScan) {
  // Scan 2 carries a request with no live replica: the batch call must
  // fail *after* fully routing and reporting scans 0 and 1, leaving scans
  // 2 and 3 untouched — the driver's fallback resumes from the first
  // unreported scan.
  for (int which = 0; which < 4; ++which) {
    MaxOfMinsRouter mm;
    ShortestQueueRouter sq;
    GreedyScRouter gsc;
    PowerOfTwoRouter p2(7);
    ScanRouter* routers[] = {&mm, &sq, &gsc, &p2};
    ScanRouter* router = routers[which];

    RouterScratch scratch;
    std::vector<RoutedRead> out;
    const BatchSet bs = MakeBatch({{Req(0, 10, {0}), Req(1, 10, {1, 2})},
                                   {Req(2, 10, {2})},
                                   {Req(3, 10, {0}), Req(4, 10, {})},
                                   {Req(5, 10, {1})}});
    const std::vector<SimTime> busy = {0.0, 1.0, 2.0};
    RecordingSink sink;
    const WaitView view(busy.data(), busy.size(), 0.0);
    const Status st = router->RouteBatchInto(bs.batch, view, 1e-5, 0.35,
                                             &scratch, &out, &sink);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << router->name();
    ASSERT_EQ(sink.events.size(), 2u) << router->name();
    EXPECT_EQ(sink.events[0].scan, 0u);
    EXPECT_EQ(sink.events[1].scan, 1u);
    // Only the committed scans' reads are in the output: 2 + 1.
    EXPECT_EQ(out.size(), 3u) << router->name();
  }
}

TEST(BatchRouteEdgeTest, MaxOfMinsWideScanWithEmptySpanRollsBack) {
  // Scans 0 and 1 route; scan 2 is 40 wide and request 23 has no live
  // replica, so it fails before any of its reads is kept, and scan 3 is
  // never routed.
  Rng rng(17);
  std::vector<std::vector<FragmentRequest>> scans;
  scans.push_back(WideScan(&rng, 3, 130, 62, 1000, 100'000));
  scans.push_back(WideScan(&rng, 30, 130, 62, 1000, 100'000));
  scans.push_back(WideScan(&rng, 40, 130, 62, 1000, 100'000));
  scans[2][23].frag = 9023;
  scans[2][23].candidates.clear();
  scans.push_back(WideScan(&rng, 20, 130, 62, 1000, 100'000));
  const std::vector<SimTime> busy = SaturatedBusy(&rng, 130);

  std::vector<RoutedRead> want;
  std::vector<SimTime> seed_busy = busy;
  for (std::size_t s = 0; s < 2; ++s) {
    const auto routed =
        SeedMaxOfMinsRoute(scans[s], WaitsAt(seed_busy, 0.0), 1e-5, 0.35);
    ASSERT_TRUE(routed.ok());
    for (const RoutedRead& rr : *routed) {
      seed_busy[rr.node] +=
          static_cast<double>(scans[s][rr.request_index].tuples) * 1e-5 +
          0.35;
      want.push_back(rr);
    }
  }

  const BatchSet bs = MakeBatch(scans);
  std::vector<SimTime> live = busy;
  RecordingSink rec;
  MutatingSink mut(&bs.batch, &live, 1e-5);
  struct BothSinks : BatchSink {
    RecordingSink* rec;
    MutatingSink* mut;
    void OnScanRouted(std::size_t i, const RoutedRead* r,
                      std::size_t n) override {
      rec->OnScanRouted(i, r, n);
      mut->OnScanRouted(i, r, n);
    }
  } sink;
  sink.rec = &rec;
  sink.mut = &mut;
  MaxOfMinsRouter mm;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const WaitView view(live.data(), live.size(), 0.0);
  const Status st =
      mm.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, &sink);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("fragment 9023 "), std::string_view::npos)
      << st.message();
  ASSERT_EQ(rec.events.size(), 2u);
  ASSERT_EQ(out.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(out[i].request_index, want[i].request_index) << i;
    EXPECT_EQ(out[i].node, want[i].node) << i;
  }
}

TEST(BatchRouteEdgeTest, MaxOfMinsInfiniteWaitIsUnroutableAtEveryWidth) {
  // A request whose every candidate waits +inf has no argmin, as an empty
  // span has none: at every scan width, that request fails the scan
  // (nothing here waits longer, so it is scheduled first) instead of
  // being routed onto a node it ties with at +inf.
  Rng rng(23);
  for (const std::size_t n_req : {5u, 40u}) {
    std::vector<FragmentRequest> scan =
        WideScan(&rng, n_req, 130, 62, 1000, 100'000);
    std::vector<SimTime> busy = SaturatedBusy(&rng, 130);
    const std::size_t stuck = n_req / 2;
    scan[stuck].frag = 7000;
    scan[stuck].candidates = {3, 7, 9};
    for (const NodeId m : scan[stuck].candidates) {
      busy[m] = std::numeric_limits<SimTime>::infinity();
    }
    const BatchSet bs = MakeBatch({scan});
    MaxOfMinsRouter mm;
    RouterScratch scratch;
    std::vector<RoutedRead> out;
    const WaitView view(busy.data(), busy.size(), 0.0);
    const Status st =
        mm.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out, nullptr);
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << n_req;
    EXPECT_NE(st.message().find("fragment 7000 "), std::string_view::npos)
        << st.message();
    EXPECT_TRUE(out.empty()) << n_req;
  }
}

// ---------------------------------- PowerOfTwo RNG contract, per element

TEST(BatchRouteRngContractTest, ExactDrawSequenceAcrossTheBlock) {
  // Candidate counts per scan: {1, 5}, {2}, {3, 3}. Only the three
  // requests with > 2 candidates draw, two draws each, in block order:
  // U(5) U(4), then U(3) U(2), U(3) U(2).
  PowerOfTwoRouter router(42);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs =
      MakeBatch({{Req(0, 10, {0}), Req(1, 10, {0, 1, 2, 3, 4})},
                 {Req(2, 10, {1, 2})},
                 {Req(3, 10, {2, 3, 4}), Req(4, 10, {0, 1, 3})}});
  const std::vector<SimTime> busy = {0.0, 0.5, 1.0, 1.5, 2.0};
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      router.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out,
                            nullptr)
          .ok());
  Rng reference(42);
  (void)reference.Uniform(5);
  (void)reference.Uniform(4);
  (void)reference.Uniform(3);
  (void)reference.Uniform(2);
  (void)reference.Uniform(3);
  (void)reference.Uniform(2);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(router.mutable_rng_for_test()->NextU64(), reference.NextU64())
        << "draw count/order mismatch at comparison " << i;
  }
}

TEST(BatchRouteRngContractTest, SmallRequestsDrawNothingAcrossTheBlock) {
  PowerOfTwoRouter router(42);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  const BatchSet bs = MakeBatch(
      {{Req(0, 10, {0})}, {Req(1, 10, {1, 2}), Req(2, 10, {0, 1})}, {}});
  const std::vector<SimTime> busy = {0.0, 1.0, 2.0};
  const WaitView view(busy.data(), busy.size(), 0.0);
  ASSERT_TRUE(
      router.RouteBatchInto(bs.batch, view, 1e-5, 0.35, &scratch, &out,
                            nullptr)
          .ok());
  Rng untouched(42);
  EXPECT_EQ(router.mutable_rng_for_test()->NextU64(), untouched.NextU64())
      << "a <= 2-candidate block consumed randomness";
}

}  // namespace
}  // namespace nashdb
