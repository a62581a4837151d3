// Sharded data-plane suite (DESIGN.md §11). The contracts under test:
// a 1-shard run reproduces the serial driver's QueryRecord stream bit
// for bit (all four routers); each shard of an N-shard run reproduces a
// serial run of exactly its partition; block size never changes results;
// the table-hash partitioner is deterministic; and merged billing counts
// per-cluster quantities (rent, bootstrap copy) once while summing real
// per-shard work. Pinned digests fix the records themselves for every
// router, shard count and block size, and at high replication. The
// multi-thread cases double as the TSan pass over the SPSC rings (this
// file carries the tsan label) and, with the plane label, as the ASan
// and UBSan pass over the shard threads.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ios>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "engine/config_index.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "engine/sharded_driver.h"
#include "golden_run.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/streaming.h"
#include "workload/synthetic.h"

namespace nashdb {
namespace {

Workload ShardedWorkload() {
  BernoulliOptions wopts;
  wopts.db_gb = 3.0;
  wopts.num_queries = 80;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeBernoulliWorkload(wopts);
}

/// The single configuration epoch both drivers run against, built the
/// same way RunWorkload's warmup_observe path builds it: observe the
/// whole workload, then one BuildConfig.
ClusterConfig BuildEpoch(const Workload& workload) {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  NashDbSystem sys(workload.dataset, opts);
  for (const TimedQuery& tq : workload.queries) sys.Observe(tq.query);
  return sys.BuildConfig();
}

/// Serial reference: the regular driver on the same epoch regime (whole
/// workload observed up front, no reconfiguration, no faults).
RunResult RunSerial(const Workload& workload, ScanRouter* router,
                    std::size_t route_batch_size) {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  NashDbSystem sys(workload.dataset, opts);
  DriverOptions dopts;
  dopts.warmup_observe = true;
  dopts.periodic_reconfigure = false;
  dopts.collect_metrics = false;
  dopts.route_batch_size = route_batch_size;
  return RunWorkload(workload, &sys, router, dopts);
}

void ExpectSameRecords(const std::vector<QueryRecord>& a,
                       const std::vector<QueryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "record " << i;
    // EXPECT_EQ on doubles is exact comparison — bit-identity is the
    // contract, not approximate agreement.
    EXPECT_EQ(a[i].price, b[i].price) << "record " << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << "record " << i;
    EXPECT_EQ(a[i].completion, b[i].completion) << "record " << i;
    EXPECT_EQ(a[i].latency_s, b[i].latency_s) << "record " << i;
    EXPECT_EQ(a[i].span, b[i].span) << "record " << i;
    EXPECT_EQ(a[i].tuples_read, b[i].tuples_read) << "record " << i;
  }
}

using Factory = std::function<std::unique_ptr<ScanRouter>()>;

const Factory kFactories[] = {
    [] { return std::unique_ptr<ScanRouter>(new MaxOfMinsRouter); },
    [] { return std::unique_ptr<ScanRouter>(new ShortestQueueRouter); },
    [] { return std::unique_ptr<ScanRouter>(new GreedyScRouter); },
    [] { return std::unique_ptr<ScanRouter>(new PowerOfTwoRouter(1234)); },
};

TEST(ShardedDriverTest, OneShardMatchesSerialDriverForEveryRouter) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  for (const Factory& make_router : kFactories) {
    const std::unique_ptr<ScanRouter> serial_router = make_router();
    const RunResult serial = RunSerial(workload, serial_router.get(), 64);

    ShardedDriverOptions so;
    so.shards = 1;
    so.batch_size = 64;
    const ShardedRunResult sharded =
        RunSharded(workload, config, make_router, so);

    ExpectSameRecords(sharded.merged.records, serial.records);
    EXPECT_EQ(sharded.merged.total_cost, serial.total_cost);
    EXPECT_EQ(sharded.merged.read_tuples, serial.read_tuples);
    EXPECT_EQ(sharded.merged.transferred_tuples, serial.transferred_tuples);
    EXPECT_EQ(sharded.merged.bootstrap_transfer_tuples,
              serial.bootstrap_transfer_tuples);
    EXPECT_EQ(sharded.merged.makespan_s, serial.makespan_s);
    EXPECT_EQ(sharded.merged.transitions, serial.transitions);
    EXPECT_EQ(sharded.merged.final_nodes, serial.final_nodes);
  }
}

TEST(ShardedDriverTest, EachShardMatchesASerialRunOfItsPartition) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  constexpr std::size_t kShards = 4;
  for (const Factory& make_router : kFactories) {
    ShardedDriverOptions so;
    so.shards = kShards;
    so.batch_size = 32;
    const ShardedRunResult sharded =
        RunSharded(workload, config, make_router, so);

    std::size_t total_records = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
      // The shard's partition as a standalone workload, same epoch.
      Workload partition;
      partition.name = workload.name;
      partition.dataset = workload.dataset;
      for (const TimedQuery& tq : workload.queries) {
        if (ShardOfQuery(tq.query, kShards) == s) {
          partition.queries.push_back(tq);
        }
      }
      ShardedDriverOptions serial_opts;
      serial_opts.shards = 1;
      serial_opts.batch_size = 32;
      const ShardedRunResult serial =
          RunSharded(partition, config, make_router, serial_opts);
      ExpectSameRecords(sharded.shards[s].records, serial.merged.records);
      EXPECT_EQ(sharded.shards[s].read_tuples, serial.merged.read_tuples);
      EXPECT_EQ(sharded.shards[s].makespan_s, serial.merged.makespan_s);
      total_records += sharded.shards[s].records.size();
    }
    EXPECT_EQ(total_records, workload.queries.size());
  }
}

TEST(ShardedDriverTest, BlockSizeNeverChangesResults) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  const Factory make_router = kFactories[0];

  ShardedRunResult reference;
  bool first = true;
  for (const std::size_t batch : {1u, 16u, 256u}) {
    ShardedDriverOptions so;
    so.shards = 3;
    so.batch_size = batch;
    ShardedRunResult r = RunSharded(workload, config, make_router, so);
    if (first) {
      reference = std::move(r);
      first = false;
      continue;
    }
    ExpectSameRecords(r.merged.records, reference.merged.records);
    EXPECT_EQ(r.merged.makespan_s, reference.merged.makespan_s);
    EXPECT_EQ(r.merged.read_tuples, reference.merged.read_tuples);
  }
}

TEST(ShardedDriverTest, RepeatedRunsAreBitIdentical) {
  // Thread scheduling must never leak into results: the partitioner and
  // the per-shard sims are deterministic, so two runs coincide exactly.
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  ShardedDriverOptions so;
  so.shards = 4;
  so.batch_size = 64;
  so.queue_capacity = 8;  // tiny ring: force producer/consumer contention
  const ShardedRunResult a = RunSharded(workload, config, kFactories[3], so);
  const ShardedRunResult b = RunSharded(workload, config, kFactories[3], so);
  ExpectSameRecords(a.merged.records, b.merged.records);
  for (std::size_t s = 0; s < 4; ++s) {
    ExpectSameRecords(a.shards[s].records, b.shards[s].records);
  }
}

TEST(ShardedDriverTest, MergedBillingCountsClusterQuantitiesOnce) {
  const Workload workload = ShardedWorkload();
  const ClusterConfig config = BuildEpoch(workload);
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    ShardedDriverOptions so;
    so.shards = shards;
    const ShardedRunResult r = RunSharded(workload, config, kFactories[0], so);
    // Real work sums across shards...
    TupleCount shard_reads = 0;
    SimTime max_makespan = 0.0;
    for (const ShardResult& sr : r.shards) {
      shard_reads += sr.read_tuples;
      max_makespan = std::max(max_makespan, sr.makespan_s);
    }
    EXPECT_EQ(r.merged.read_tuples, shard_reads);
    EXPECT_EQ(r.merged.makespan_s, max_makespan);
    // ...while per-cluster quantities are independent of the shard count:
    // one bootstrap copy, one fleet of rented nodes, one transition.
    EXPECT_EQ(r.merged.transferred_tuples, r.merged.bootstrap_transfer_tuples);
    EXPECT_EQ(r.merged.transitions, 1u);
    EXPECT_EQ(r.merged.final_nodes, config.node_count());
  }
  // Total read volume is fragment coverage — every request is read
  // exactly once wherever it is routed — so it is invariant across shard
  // counts: check the 4-shard run against the serial driver.
  const std::unique_ptr<ScanRouter> serial_router = kFactories[0]();
  const RunResult serial = RunSerial(workload, serial_router.get(), 64);
  ShardedDriverOptions so;
  so.shards = 4;
  const ShardedRunResult four = RunSharded(workload, config, kFactories[0], so);
  EXPECT_EQ(four.merged.read_tuples, serial.read_tuples);
  EXPECT_EQ(four.merged.transferred_tuples, serial.transferred_tuples);
}

// Pinned digests (tests/golden_run.h) of RunSharded on the TPC-H regime,
// [router][shards 1, 4][batch 1, 64], in kFactories order. Captured from
// the sharded driver while it still kept its own copy of the query path
// (a per-query node set for the span, its own sink and flush), so they
// check the shared data plane against that independent implementation.
constexpr std::uint64_t kShardedGolden[4][2][2] = {
    {{0x3f9ac686478eaa12ULL, 0x3f9ac686478eaa12ULL},
     {0xe0c29bc6aa1be973ULL, 0xe0c29bc6aa1be973ULL}},
    {{0x48da710b73aaabc7ULL, 0x48da710b73aaabc7ULL},
     {0x9d7590924f929c01ULL, 0x9d7590924f929c01ULL}},
    {{0x63c83b2ff099732bULL, 0x63c83b2ff099732bULL},
     {0xbea6b5ef8a2979ddULL, 0xbea6b5ef8a2979ddULL}},
    {{0xda7b52fd24cd51d0ULL, 0xda7b52fd24cd51d0ULL},
     {0xc8b7f8a892c32f4eULL, 0xc8b7f8a892c32f4eULL}},
};
constexpr std::size_t kGoldenShards[2] = {1, 4};
constexpr std::size_t kGoldenBatches[2] = {1, 64};

TEST(ShardedDriverTest, PinnedDigestsForEveryRouterShardCountAndBlockSize) {
  const Workload& workload = GoldenTpchWorkload();
  const ClusterConfig config =
      BuildGoldenTpchConfig(workload.queries.size());
  std::set<std::uint64_t> one_shard_digests;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t b = 0; b < 2; ++b) {
        ShardedDriverOptions so;
        so.shards = kGoldenShards[s];
        so.batch_size = kGoldenBatches[b];
        so.sim.tuples_per_second = kGoldenTuplesPerSecond;
        const ShardedRunResult run =
            RunSharded(workload, config, kFactories[r], so);
        const std::uint64_t digest = DigestSharded(run);
        EXPECT_EQ(digest, kShardedGolden[r][s][b])
            << "router " << r << " shards " << so.shards << " batch "
            << so.batch_size << ": digest 0x" << std::hex << digest;
        if (so.shards == 1) one_shard_digests.insert(digest);
        // The run must spread over the shards and span nodes, or the
        // digest pins little.
        std::size_t busy_shards = 0;
        for (const ShardResult& sr : run.shards) {
          busy_shards += !sr.records.empty();
        }
        EXPECT_GE(busy_shards, std::min<std::size_t>(so.shards, 3));
        std::size_t multi_span = 0;
        for (const QueryRecord& q : run.merged.records) {
          multi_span += q.span > 1;
        }
        EXPECT_GT(multi_span, 0u);
      }
    }
  }
  // Every router routes differently here.
  EXPECT_EQ(one_shard_digests.size(), 4u);
}

// Pinned digests of the high-replication case, [shards 1, 4][batch 1,
// 64], captured like kShardedGolden.
constexpr std::uint64_t kHighReplicationGolden[2][2] = {
    {0xbba310d90eef744fULL, 0xbba310d90eef744fULL},
    {0xb5ab0bcfcf15df4fULL, 0xb5ab0bcfcf15df4fULL},
};

/// The streaming workload of query_path_golden_test's high-replication
/// case: streaming_10m's single-table stream, cut to 3000 queries over
/// five minutes, with scans 5x longer so that some cover more than 16
/// fragments.
Workload HighReplicationWorkload() {
  PhasedStreamOptions o;
  o.db_gb = 100.0;
  o.tuples_per_gb = 100;
  o.num_queries = 3000;
  o.duration_s = 300.0;
  o.scan_frac = 0.1;
  return PhasedQueryStream(o).Materialize();
}

TEST(ShardedDriverTest, PinnedDigestsAtHighReplication) {
  // streaming_10m's system and disks, one epoch built after observing the
  // whole workload: 128 nodes and ~127 candidates per request, where
  // Max-of-mins stops its sweep at its lower bound.
  const Workload workload = HighReplicationWorkload();
  NashDbOptions opts;
  opts.window_scans = 250;
  opts.block_tuples = 250;
  opts.node_cost = 3.0;
  opts.node_disk = 120'000;
  opts.max_replicas = 128;
  opts.reconfig_threads = 1;
  NashDbSystem sys(workload.dataset, opts);
  for (const TimedQuery& tq : workload.queries) sys.Observe(tq.query);
  const ClusterConfig config = sys.BuildConfig();
  ASSERT_GE(config.node_count(), 64u);

  const ConfigIndex index(config);
  ScanBatch batch;
  for (const TimedQuery& tq : workload.queries) {
    for (const Scan& scan : tq.query.scans) batch.AddScan(tq.query.id, scan);
  }
  index.ResolveBatchInto(&batch);
  std::size_t candidates = 0;
  for (const FlatRequest& req : batch.requests) candidates += req.cand_count;
  EXPECT_GE(candidates, 50 * batch.requests.size());

  for (std::size_t s = 0; s < 2; ++s) {
    for (std::size_t b = 0; b < 2; ++b) {
      ShardedDriverOptions so;
      so.shards = kGoldenShards[s];
      so.batch_size = kGoldenBatches[b];
      so.sim.tuples_per_second = 1500.0;
      so.sim.transfer_tuples_per_second = 5000.0;
      const ShardedRunResult run =
          RunSharded(workload, config, kFactories[0], so);
      EXPECT_EQ(DigestSharded(run), kHighReplicationGolden[s][b])
          << "shards " << so.shards << " batch " << so.batch_size
          << ": digest 0x" << std::hex << DigestSharded(run);
      std::size_t multi_span = 0;
      for (const QueryRecord& q : run.merged.records) {
        multi_span += q.span > 1;
      }
      EXPECT_GT(multi_span, 0u);
    }
  }
}

TEST(ShardedDriverTest, PartitionerIsDeterministicAndCoversAllShards) {
  // Pure function: same inputs, same shard — across calls and shard
  // counts (the sharded golden runs above depend on this).
  for (TableId t = 0; t < 64; ++t) {
    EXPECT_EQ(ShardOfTable(t, 4), ShardOfTable(t, 4));
    EXPECT_LT(ShardOfTable(t, 4), 4u);
    EXPECT_EQ(ShardOfTable(t, 1), 0u);
  }
  // The hash spreads: 64 consecutive table ids over 4 shards must not
  // collapse onto one shard.
  std::set<std::size_t> seen;
  for (TableId t = 0; t < 64; ++t) seen.insert(ShardOfTable(t, 4));
  EXPECT_EQ(seen.size(), 4u);

  Query scanless;
  scanless.id = 7;
  EXPECT_EQ(ShardOfQuery(scanless, 8), 0u);
}

TEST(ShardedDriverTest, ResolveBatchMatchesPerScanResolution) {
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

}  // namespace
}  // namespace nashdb
