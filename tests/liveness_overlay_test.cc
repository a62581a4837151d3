// LivenessOverlay::FilterLive on a resolved ScanBatch (DESIGN.md §10):
// under faults the driver resolves a query's block against the current
// epoch and, when some node is down at the attempt time, rewrites the
// block's candidate spans to the routable replicas before routing it.
// Pins the rewrite (dead and partitioned candidates dropped, order kept,
// an unroutable request left with an empty span) and what routing the
// rewritten block does at such a span: the partial commit the driver's
// retry and resume are built on.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/sim.h"
#include "common/query.h"
#include "engine/config_index.h"
#include "engine/liveness_overlay.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "routing/scan_batch.h"

namespace nashdb {
namespace {

constexpr TupleCount kFragSize = 100;

/// One table of four fragments on four nodes:
///   f0 on {0, 1, 2}, f1 on {3, 1}, f2 on {2}, f3 on {1, 3, 0}.
ClusterConfig MakeConfig() {
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = 100 * kFragSize;
  params.window_scans = 10;
  std::vector<FragmentInfo> frags;
  const std::vector<std::vector<NodeId>> homes = {
      {0, 1, 2}, {3, 1}, {2}, {1, 3, 0}};
  for (std::size_t i = 0; i < homes.size(); ++i) {
    FragmentInfo f;
    f.table = 0;
    f.index_in_table = static_cast<FragmentId>(i);
    f.range = TupleRange{i * kFragSize, (i + 1) * kFragSize};
    f.replicas = homes[i].size();
    frags.push_back(f);
  }
  ClusterConfig config(params, std::move(frags));
  for (int m = 0; m < 4; ++m) config.AddNode();
  for (std::size_t f = 0; f < homes.size(); ++f) {
    for (NodeId m : homes[f]) config.Place(m, f);
  }
  return config;
}

Scan MakeScan(TupleIndex start, TupleIndex end) {
  Scan s;
  s.table = 0;
  s.range = TupleRange{start, end};
  s.price = 1.0;
  return s;
}

/// Block of four scans: f0; f0+f1; f2 (only on node 2); f3.
ScanBatch MakeBlock() {
  ScanBatch batch;
  batch.AddScan(0, MakeScan(10, 90));
  batch.AddScan(1, MakeScan(50, 150));
  batch.AddScan(2, MakeScan(210, 290));
  batch.AddScan(3, MakeScan(310, 390));
  return batch;
}

/// Node 1 crashed until t=50, node 2 partitioned until t=80.
ClusterSim MakeSim(const ClusterConfig& config) {
  ClusterSim sim((ClusterSimOptions()));
  sim.ApplyConfig(config, 0.0, nullptr);
  sim.FailNode(1, 0.0, 50.0);
  sim.PartitionNode(2, 0.0, 80.0);
  return sim;
}

std::vector<NodeId> Candidates(const ScanBatch& batch, std::size_t scan,
                               std::size_t request) {
  const RequestBatch reqs = batch.ScanRequests(scan);
  const FlatRequest& req = reqs.requests[request];
  const NodeId* cand = reqs.cands(req);
  return std::vector<NodeId>(cand, cand + req.cand_count);
}

class RecordingSink : public BatchSink {
 public:
  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    (void)reads;
    scans.push_back(scan_index);
    read_counts.push_back(count);
  }
  std::vector<std::size_t> scans;
  std::vector<std::size_t> read_counts;
};

TEST(LivenessOverlayTest, FilterLiveDropsDeadAndPartitionedKeepingOrder) {
  const ClusterConfig config = MakeConfig();
  const ConfigIndex index(config);
  const ClusterSim sim = MakeSim(config);
  LivenessOverlay overlay;
  overlay.SyncFrom(sim);
  ASSERT_TRUE(overlay.AnyDeadAt(10.0));

  ScanBatch resolved = MakeBlock();
  index.ResolveBatchInto(&resolved);
  ScanBatch filtered = MakeBlock();
  index.ResolveBatchInto(&filtered);
  std::vector<NodeId> pool;
  overlay.FilterLive(10.0, &filtered, &pool);

  // The request table is untouched: same offsets, fragments and sizes.
  ASSERT_EQ(filtered.req_off, resolved.req_off);
  for (std::size_t i = 0; i < resolved.requests.size(); ++i) {
    EXPECT_EQ(filtered.requests[i].frag, resolved.requests[i].frag);
    EXPECT_EQ(filtered.requests[i].tuples, resolved.requests[i].tuples);
  }
  EXPECT_EQ(filtered.cand_pool, pool.data());

  // Every request keeps exactly its routable candidates, in the order the
  // index lists them.
  for (std::size_t s = 0; s < resolved.size(); ++s) {
    for (std::size_t r = 0; r < resolved.ScanRequests(s).count; ++r) {
      std::vector<NodeId> want;
      for (NodeId m : Candidates(resolved, s, r)) {
        if (sim.NodeRoutable(m, 10.0)) want.push_back(m);
      }
      EXPECT_EQ(Candidates(filtered, s, r), want)
          << "scan " << s << " request " << r;
    }
  }
  EXPECT_EQ(Candidates(filtered, 0, 0), (std::vector<NodeId>{0}));
  EXPECT_EQ(Candidates(filtered, 1, 1), (std::vector<NodeId>{3}));
  EXPECT_EQ(Candidates(filtered, 3, 0), (std::vector<NodeId>{3, 0}));
  // f2's only home is behind the partition: an empty span, not a drop.
  ASSERT_EQ(filtered.ScanRequests(2).count, 1u);
  EXPECT_TRUE(Candidates(filtered, 2, 0).empty());

  // Once node 1 recovers, it is routable again — in its original place.
  ScanBatch later = MakeBlock();
  index.ResolveBatchInto(&later);
  overlay.FilterLive(60.0, &later, &pool);
  EXPECT_EQ(Candidates(later, 0, 0), (std::vector<NodeId>{0, 1}));
  EXPECT_EQ(Candidates(later, 3, 0), (std::vector<NodeId>{1, 3, 0}));
  EXPECT_FALSE(overlay.AnyDeadAt(80.0));
}

// The routable set's next change after `at`: +inf while every node is
// routable, otherwise the least routable-until time above `at`, as of the
// last SyncFrom.
TEST(LivenessOverlayTest, NextChangeIsTheLeastRoutableUntilAboveAt) {
  const ClusterConfig config = MakeConfig();
  LivenessOverlay overlay;
  ClusterSim sim((ClusterSimOptions()));
  sim.ApplyConfig(config, 0.0, nullptr);
  overlay.SyncFrom(sim);
  EXPECT_EQ(overlay.NextChangeAfter(0.0), kNeverRecovers);
  EXPECT_EQ(overlay.NextChangeAfter(500.0), kNeverRecovers);

  // Node 1 crashed until 50, node 2 partitioned until 80.
  sim = MakeSim(config);
  overlay.SyncFrom(sim);
  EXPECT_EQ(overlay.NextChangeAfter(0.0), 50.0);
  EXPECT_EQ(overlay.NextChangeAfter(49.5), 50.0);
  EXPECT_EQ(overlay.NextChangeAfter(50.0), 80.0);
  EXPECT_EQ(overlay.NextChangeAfter(79.5), 80.0);
  EXPECT_EQ(overlay.NextChangeAfter(80.0), kNeverRecovers);

  // Node 3 crashes at 100 until 130 and node 0 for good: a node that
  // never recovers adds no change.
  sim.FailNode(3, 100.0, 130.0);
  sim.FailNode(0, 100.0, kNeverRecovers);
  EXPECT_EQ(overlay.NextChangeAfter(100.0), kNeverRecovers);  // not synced
  overlay.SyncFrom(sim);
  EXPECT_EQ(overlay.NextChangeAfter(100.0), 130.0);
  EXPECT_EQ(overlay.NextChangeAfter(130.0), kNeverRecovers);
  EXPECT_TRUE(overlay.AnyDeadAt(130.0));

  // A partition of node 1 until 110 comes before node 3's recovery.
  sim.PartitionNode(1, 100.0, 110.0);
  overlay.SyncFrom(sim);
  EXPECT_EQ(overlay.NextChangeAfter(100.0), 110.0);
  EXPECT_EQ(overlay.NextChangeAfter(110.0), 130.0);
}

TEST(LivenessOverlayTest, RoutingAFilteredBlockCommitsUpToTheGap) {
  const ClusterConfig config = MakeConfig();
  const ConfigIndex index(config);
  const ClusterSim sim = MakeSim(config);
  LivenessOverlay overlay;
  overlay.SyncFrom(sim);

  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter gsc;
  PowerOfTwoRouter p2(7);
  ScanRouter* routers[] = {&mm, &sq, &gsc, &p2};
  for (ScanRouter* router : routers) {
    ScanBatch block = MakeBlock();
    index.ResolveBatchInto(&block);
    std::vector<NodeId> pool;
    overlay.FilterLive(10.0, &block, &pool);
    const WaitView waits(sim.BusyUntil().data(), sim.node_count(), 10.0);
    RouterScratch scratch;
    std::vector<RoutedRead> out;
    RecordingSink sink;
    const Status st = router->RouteBatchInto(block, waits, 1e-3, 0.35,
                                             &scratch, &out, &sink);
    // Scans 0 and 1 are committed, scan 2 fails on f2, scan 3 untouched.
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition) << router->name();
    EXPECT_NE(st.message().find("fragment 2"), std::string::npos)
        << router->name() << ": " << st.message();
    EXPECT_EQ(sink.scans, (std::vector<std::size_t>{0, 1})) << router->name();
    EXPECT_EQ(sink.read_counts, (std::vector<std::size_t>{1, 2}))
        << router->name();
    ASSERT_EQ(out.size(), 3u) << router->name();
    // Every committed read went to a routable node.
    for (const RoutedRead& rr : out) {
      EXPECT_TRUE(sim.NodeRoutable(rr.node, 10.0)) << router->name();
    }
  }
}

}  // namespace
}  // namespace nashdb
