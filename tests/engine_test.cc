#include <cstddef>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/hypergraph_system.h"
#include "baselines/threshold_system.h"
#include "engine/config_index.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "replication/nash.h"
#include "routing/scan_batch.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace nashdb {
namespace {

Dataset OneTable(TupleCount n) {
  Dataset ds;
  ds.tables.push_back(TableSpec{0, "t", n});
  return ds;
}

NashDbOptions SmallOptions() {
  NashDbOptions o;
  o.window_scans = 20;
  o.block_tuples = 1000;
  o.node_cost = 10.0;
  o.node_disk = 20000;
  return o;
}

Query RangeQuery(QueryId id, Money price, TupleIndex a, TupleIndex b) {
  return MakeQuery(id, price, {{0, TupleRange{a, b}}});
}

// ---------------------------------------------------------- NashDbSystem

TEST(NashDbSystemTest, ColdStartProducesValidMinimalConfig) {
  NashDbSystem sys(OneTable(10000), SmallOptions());
  const ClusterConfig config = sys.BuildConfig();
  EXPECT_TRUE(config.Valid());
  // No observed scans: every fragment at the availability floor of 1.
  for (const FragmentInfo& f : config.fragments()) {
    EXPECT_EQ(f.replicas, 1u);
  }
  EXPECT_GE(config.node_count(), 1u);
}

TEST(NashDbSystemTest, ParallelRefragmentationMatchesSerial) {
  // The per-table refragmentation fan-out must emit the identical
  // configuration at any thread count (results are assembled in table
  // order). Forced to 4 threads so the parallel path runs even on 1-core
  // machines.
  TpchOptions topts;
  topts.db_gb = 5.0;
  const Dataset ds = MakeTpchDataset(topts);
  NashDbOptions serial_opts = SmallOptions();
  serial_opts.reconfig_threads = 1;
  NashDbOptions parallel_opts = SmallOptions();
  parallel_opts.reconfig_threads = 4;
  NashDbSystem serial(ds, serial_opts);
  NashDbSystem parallel(ds, parallel_opts);
  for (QueryId q = 0; q < 30; ++q) {
    const TableSpec& t = ds.tables[q % ds.tables.size()];
    const TupleIndex start = (97 * q) % std::max<TupleCount>(1, t.tuples / 2);
    const TupleIndex end =
        std::min<TupleCount>(t.tuples, start + t.tuples / 3 + 1);
    const Query query = MakeQuery(q, 2.0, {{t.id, TupleRange{start, end}}});
    serial.Observe(query);
    parallel.Observe(query);
  }
  for (int round = 0; round < 3; ++round) {
    const ClusterConfig a = serial.BuildConfig();
    const ClusterConfig b = parallel.BuildConfig();
    EXPECT_TRUE(b.Valid());
    ASSERT_EQ(a.fragments().size(), b.fragments().size()) << round;
    for (std::size_t i = 0; i < a.fragments().size(); ++i) {
      const FragmentInfo& fa = a.fragments()[i];
      const FragmentInfo& fb = b.fragments()[i];
      EXPECT_EQ(fa.table, fb.table);
      EXPECT_EQ(fa.range.start, fb.range.start);
      EXPECT_EQ(fa.range.end, fb.range.end);
      EXPECT_EQ(fa.replicas, fb.replicas);
    }
  }
}

TEST(NashDbSystemTest, FragmentsTileEveryTable) {
  TpchOptions topts;
  topts.db_gb = 5.0;
  const Dataset ds = MakeTpchDataset(topts);
  NashDbSystem sys(ds, SmallOptions());
  const ClusterConfig config = sys.BuildConfig();
  for (const TableSpec& t : ds.tables) {
    TupleCount covered = 0;
    for (const FragmentInfo& f : config.fragments()) {
      if (f.table == t.id) covered += f.size();
    }
    EXPECT_EQ(covered, t.tuples) << t.name;
  }
}

TEST(NashDbSystemTest, HotDataGetsMoreReplicas) {
  NashDbSystem sys(OneTable(10000), SmallOptions());
  // Hammer the region [0, 1000) with expensive queries.
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 5.0, 0, 1000));
  }
  const ClusterConfig config = sys.BuildConfig();
  std::size_t hot_replicas = 0, cold_replicas_max = 0;
  for (const FragmentInfo& f : config.fragments()) {
    if (f.range.end <= 1000) {
      hot_replicas = std::max(hot_replicas, f.replicas);
    } else if (f.range.start >= 1000) {
      cold_replicas_max = std::max(cold_replicas_max, f.replicas);
    }
  }
  EXPECT_GT(hot_replicas, cold_replicas_max);
}

TEST(NashDbSystemTest, PureEconomicConfigIsNashEquilibrium) {
  NashDbOptions opts = SmallOptions();
  opts.min_replicas = 0;  // pure Eq. 9 mode
  NashDbSystem sys(OneTable(10000), opts);
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 2.0,
                           (i % 4) * 2000u, (i % 4) * 2000u + 3000u));
  }
  const ClusterConfig config = sys.BuildConfig();
  EXPECT_TRUE(config.Valid());
  const NashReport report = CheckNashEquilibrium(config);
  EXPECT_TRUE(report.is_equilibrium) << report.violation;
}

TEST(NashDbSystemTest, AvailabilityFloorConfigIsEquilibriumModuloFloor) {
  NashDbSystem sys(OneTable(10000), SmallOptions());
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 2.0, 0, 3000));
  }
  const ClusterConfig config = sys.BuildConfig();
  const NashReport report =
      CheckNashEquilibrium(config, /*exempt_min_replicas=*/true);
  EXPECT_TRUE(report.is_equilibrium) << report.violation;
}

TEST(NashDbSystemTest, HigherPricesProvisionMoreNodes) {
  auto run_with_price = [&](Money price) {
    NashDbSystem sys(OneTable(100000), SmallOptions());
    for (int i = 0; i < 20; ++i) {
      sys.Observe(RangeQuery(static_cast<QueryId>(i), price, 0, 50000));
    }
    return sys.BuildConfig().node_count();
  };
  EXPECT_GT(run_with_price(16.0), run_with_price(1.0));
}

TEST(NashDbSystemTest, WindowEvictionShrinksClusterAfterSpike) {
  NashDbOptions opts = SmallOptions();
  opts.window_scans = 10;
  NashDbSystem sys(OneTable(50000), opts);
  for (int i = 0; i < 10; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 10.0, 0, 40000));
  }
  const std::size_t spike_nodes = sys.BuildConfig().node_count();
  // Lull: cheap tiny queries push the spike out of the window.
  for (int i = 0; i < 10; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(100 + i), 0.01, 0, 100));
  }
  const std::size_t lull_nodes = sys.BuildConfig().node_count();
  EXPECT_LT(lull_nodes, spike_nodes);
}

TEST(NashDbSystemTest, MaxFragsFollowsBlockRule) {
  NashDbOptions opts = SmallOptions();
  opts.block_tuples = 1000;
  NashDbSystem sys(OneTable(10500), opts);
  EXPECT_EQ(sys.MaxFragsFor(10500), 11u);
}

TEST(NashDbSystemTest, ResetForgetsWorkload) {
  NashDbSystem sys(OneTable(10000), SmallOptions());
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 5.0, 0, 5000));
  }
  const std::size_t warm_nodes = sys.BuildConfig().node_count();
  sys.Reset();
  const std::size_t cold_nodes = sys.BuildConfig().node_count();
  EXPECT_LE(cold_nodes, warm_nodes);
  EXPECT_EQ(sys.estimator().window_scans(), 0u);
}

// ------------------------------------------------------------ ConfigIndex

TEST(ConfigIndexTest, ResolvesScansToOverlappingFragments) {
  NashDbSystem sys(OneTable(10000), SmallOptions());
  const ClusterConfig config = sys.BuildConfig();
  const ConfigIndex index(config);
  Scan scan;
  scan.table = 0;
  scan.range = TupleRange{500, 2500};
  scan.price = 1.0;
  const auto requests = index.RequestsFor(scan);
  ASSERT_FALSE(requests.empty());
  // Requests must cover the scan and carry candidates.
  TupleCount covered = 0;
  for (const auto& req : requests) {
    const FragmentInfo& f = config.fragment(req.frag);
    EXPECT_TRUE(f.range.Overlaps(scan.range));
    EXPECT_FALSE(req.candidates.empty());
    covered += f.range.Intersect(scan.range).size();
  }
  EXPECT_EQ(covered, scan.range.size());
}

TEST(ConfigIndexTest, EmptyScanYieldsNoRequests) {
  NashDbSystem sys(OneTable(1000), SmallOptions());
  const ClusterConfig config = sys.BuildConfig();
  const ConfigIndex index(config);
  Scan scan;
  scan.table = 0;
  scan.range = TupleRange{10, 10};
  EXPECT_TRUE(index.RequestsFor(scan).empty());
}

/// 80 Bernoulli queries over four hours on a 3 GB table.
Workload ShardedWorkload() {
  BernoulliOptions wopts;
  wopts.db_gb = 3.0;
  wopts.num_queries = 80;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeBernoulliWorkload(wopts);
}

/// The configuration NashDB builds after observing the whole workload.
ClusterConfig BuildEpoch(const Workload& workload) {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  NashDbSystem sys(workload.dataset, opts);
  for (const TimedQuery& tq : workload.queries) sys.Observe(tq.query);
  return sys.BuildConfig();
}

TEST(ConfigIndexTest, ResolveBatchMatchesPerScanResolution) {
  // ConfigIndex::ResolveBatchInto must produce, per scan, exactly the
  // requests the seed RequestsFor resolves — same fragments, same order,
  // same candidate nodes (spans into the index's one pool).
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  const ConfigIndex index(config);

  ScanBatch batch;
  std::vector<const Scan*> scans;
  for (const TimedQuery& tq : workload.queries) {
    for (const Scan& scan : tq.query.scans) {
      batch.AddScan(tq.query.id, scan);
      scans.push_back(&scan);
    }
  }
  index.ResolveBatchInto(&batch);
  ASSERT_EQ(batch.req_off.size(), scans.size() + 1);

  for (std::size_t i = 0; i < scans.size(); ++i) {
    const std::vector<FragmentRequest> want = index.RequestsFor(*scans[i]);
    const RequestBatch got = batch.ScanRequests(i);
    ASSERT_EQ(got.count, want.size()) << "scan " << i;
    for (std::size_t r = 0; r < got.count; ++r) {
      const FlatRequest& req = got.requests[r];
      EXPECT_EQ(req.frag, want[r].frag);
      EXPECT_EQ(req.tuples, want[r].tuples);
      const NodeId* cand = got.cands(req);
      EXPECT_EQ(std::vector<NodeId>(cand, cand + req.cand_count),
                want[r].candidates)
          << "scan " << i << " request " << r;
    }
  }
}

// ------------------------------------------------------------- baselines

TEST(ThresholdSystemTest, ProducesValidFixedSizeConfig) {
  ThresholdOptions opts;
  opts.num_nodes = 4;
  opts.node_disk = 10000;
  opts.cold_block_tuples = 2000;
  ThresholdSystem sys(OneTable(20000), opts);
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 1.0, 0, 2000));
  }
  const ClusterConfig config = sys.BuildConfig();
  EXPECT_TRUE(config.Valid());
  EXPECT_EQ(config.node_count(), 4u);
  // Full coverage: at least one replica of every region.
  TupleCount covered = 0;
  for (const FragmentInfo& f : config.fragments()) {
    EXPECT_GE(f.replicas, 1u);
    covered += f.size();
  }
  EXPECT_EQ(covered, 20000u);
}

TEST(ThresholdSystemTest, HotDataReplicatedMore) {
  ThresholdOptions opts;
  opts.num_nodes = 6;
  opts.node_disk = 10000;
  opts.cold_block_tuples = 2000;
  ThresholdSystem sys(OneTable(20000), opts);
  for (int i = 0; i < 30; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 1.0, 0, 500));
  }
  const ClusterConfig config = sys.BuildConfig();
  std::size_t hot_max = 0, cold_max = 0;
  for (const FragmentInfo& f : config.fragments()) {
    if (f.range.start < 500) {
      hot_max = std::max(hot_max, f.replicas);
    } else {
      cold_max = std::max(cold_max, f.replicas);
    }
  }
  EXPECT_GT(hot_max, cold_max);
}

TEST(ThresholdSystemTest, PriceBlind) {
  // Two runs differing only in query prices must produce identical
  // configurations — the E-Store-like baseline ignores priorities.
  auto build = [&](Money price) {
    ThresholdOptions opts;
    opts.num_nodes = 4;
    opts.node_disk = 10000;
    ThresholdSystem sys(OneTable(20000), opts);
    for (int i = 0; i < 20; ++i) {
      sys.Observe(RangeQuery(static_cast<QueryId>(i), price, 0, 3000));
    }
    return sys.BuildConfig();
  };
  const ClusterConfig cheap = build(0.01);
  const ClusterConfig dear = build(100.0);
  ASSERT_EQ(cheap.fragments().size(), dear.fragments().size());
  for (std::size_t i = 0; i < cheap.fragments().size(); ++i) {
    EXPECT_EQ(cheap.fragments()[i].replicas, dear.fragments()[i].replicas);
    EXPECT_EQ(cheap.fragments()[i].range, dear.fragments()[i].range);
  }
  EXPECT_EQ(cheap.node_count(), dear.node_count());
}

TEST(HypergraphSystemTest, ProducesValidConfigWithKNodes) {
  HypergraphSystemOptions opts;
  opts.num_partitions = 5;
  opts.node_disk = 10000;
  HypergraphSystem sys(OneTable(20000), opts);
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 1.0,
                           (i % 2) * 10000u, (i % 2) * 10000u + 5000u));
  }
  const ClusterConfig config = sys.BuildConfig();
  EXPECT_TRUE(config.Valid());
  EXPECT_EQ(config.node_count(), 5u);
  TupleCount covered = 0;
  for (const FragmentInfo& f : config.fragments()) covered += f.size();
  EXPECT_EQ(covered, 20000u);
}

TEST(HypergraphSystemTest, LmbrReplicationFillsSpareSpace) {
  HypergraphSystemOptions opts;
  opts.num_partitions = 4;
  opts.node_disk = 15000;  // plenty of spare room
  HypergraphSystem sys(OneTable(20000), opts);
  // Scans repeatedly span the middle of the table -> consolidation
  // replicas should appear.
  for (int i = 0; i < 20; ++i) {
    sys.Observe(RangeQuery(static_cast<QueryId>(i), 1.0, 8000, 12000));
  }
  const ClusterConfig config = sys.BuildConfig();
  std::size_t total_replicas = 0;
  for (const FragmentInfo& f : config.fragments()) {
    total_replicas += f.replicas;
  }
  EXPECT_GT(total_replicas, config.fragments().size());
}

// ----------------------------------------------------------------- driver

TEST(DriverTest, RunsBatchWorkloadEndToEnd) {
  TpchOptions topts;
  topts.db_gb = 2.0;
  topts.num_queries = 22;
  const Workload wl = MakeTpchWorkload(topts);

  NashDbOptions nopts = SmallOptions();
  nopts.block_tuples = 2000;
  nopts.node_disk = 30000;
  NashDbSystem sys(wl.dataset, nopts);
  MaxOfMinsRouter router;
  DriverOptions dopts;
  dopts.warmup_observe = true;
  dopts.periodic_reconfigure = false;

  const RunResult result = RunWorkload(wl, &sys, &router, dopts);
  ASSERT_EQ(result.records.size(), wl.queries.size());
  EXPECT_GT(result.total_cost, 0.0);
  EXPECT_GT(result.read_tuples, 0u);
  EXPECT_GT(result.makespan_s, 0.0);
  for (const QueryRecord& r : result.records) {
    EXPECT_GE(r.latency_s, 0.0);
    EXPECT_GE(r.span, 1u);
    // Block granularity reads at least the tuples the query asked for.
    EXPECT_GT(r.tuples_read, 0u);
  }
  EXPECT_GE(result.read_tuples, wl.TotalTuplesRead());
}

TEST(DriverTest, PeriodicReconfigurationTriggersTransitions) {
  RandomWorkloadOptions ropts;
  ropts.db_gb = 3.0;
  ropts.num_queries = 60;
  ropts.span_s = 4.0 * 3600.0;
  const Workload wl = MakeRandomWorkload(ropts);

  NashDbOptions nopts = SmallOptions();
  nopts.block_tuples = 3000;
  nopts.node_disk = 40000;
  NashDbSystem sys(wl.dataset, nopts);
  MaxOfMinsRouter router;
  DriverOptions dopts;
  dopts.reconfigure_interval_s = 3600.0;

  const RunResult result = RunWorkload(wl, &sys, &router, dopts);
  // Bootstrap + one per elapsed hour.
  EXPECT_GE(result.transitions, 4u);
  EXPECT_GT(result.transferred_tuples, 0u);
}

TEST(DriverTest, ThroughputSeriesCoversMakespan) {
  RandomWorkloadOptions ropts;
  ropts.db_gb = 2.0;
  ropts.num_queries = 40;
  ropts.span_s = 1800.0;
  const Workload wl = MakeRandomWorkload(ropts);
  NashDbOptions nopts = SmallOptions();
  nopts.block_tuples = 2000;
  nopts.node_disk = 30000;
  NashDbSystem sys(wl.dataset, nopts);
  ShortestQueueRouter router;
  DriverOptions dopts;
  const RunResult result = RunWorkload(wl, &sys, &router, dopts);
  const auto series = result.ThroughputPerMinute();
  ASSERT_FALSE(series.empty());
  double total = 0.0;
  for (const auto& [minute, tuples] : series) {
    (void)minute;
    total += tuples;
  }
  EXPECT_NEAR(total, static_cast<double>(result.read_tuples), 1.0);
}

TEST(DriverTest, TailLatencyAtLeastMean) {
  TpchOptions topts;
  topts.db_gb = 2.0;
  topts.num_queries = 44;
  const Workload wl = MakeTpchWorkload(topts);
  NashDbOptions nopts = SmallOptions();
  nopts.block_tuples = 2000;
  nopts.node_disk = 30000;
  NashDbSystem sys(wl.dataset, nopts);
  MaxOfMinsRouter router;
  DriverOptions dopts;
  dopts.warmup_observe = true;
  dopts.periodic_reconfigure = false;
  const RunResult result = RunWorkload(wl, &sys, &router, dopts);
  EXPECT_GE(result.TailLatency(99.0), result.TailLatency(95.0));
  EXPECT_GE(result.TailLatency(95.0), result.TailLatency(50.0));
}

}  // namespace
}  // namespace nashdb
