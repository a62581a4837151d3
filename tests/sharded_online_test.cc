// Online sharded data plane (DESIGN.md §12). The contracts under test:
// scheduled epochs are published by the producer while shards route and
// adopted at batch boundaries purely by query arrival time, so results
// are bit-identical run to run regardless of thread timing; every record
// is stamped with the epoch count of activations at or before its
// arrival; each shard of an N-shard online run reproduces a 1-shard
// online run of exactly its partition; and an empty schedule reproduces
// the single-epoch RunSharded stream bit for bit. Pinned digests fix the
// records of a two-step TPC-H schedule themselves. The multi-thread cases
// double as the TSan pass over the epoch chain's release/acquire publish
// (this file carries the tsan label) and, with the plane label, as the
// ASan and UBSan pass over the shard threads.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <ios>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "engine/sharded_driver.h"
#include "golden_run.h"
#include "routing/router.h"
#include "workload/synthetic.h"

namespace nashdb {
namespace {

Workload OnlineWorkload() {
  BernoulliOptions wopts;
  wopts.db_gb = 3.0;
  wopts.num_queries = 120;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeBernoulliWorkload(wopts);
}

/// Builds a configuration from the first `observe` queries of the
/// workload — different prefixes give genuinely different configurations,
/// which is what makes the scheduled transitions move data.
ClusterConfig BuildEpochConfig(const Workload& workload, std::size_t observe) {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  NashDbSystem sys(workload.dataset, opts);
  std::size_t n = 0;
  for (const TimedQuery& tq : workload.queries) {
    if (n++ >= observe) break;
    sys.Observe(tq.query);
  }
  return sys.BuildConfig();
}

/// A two-step schedule: re-fragment at 1h and again at 2h30, both built
/// from successively longer workload prefixes.
std::vector<ScheduledEpoch> MakeSchedule(const Workload& workload) {
  std::vector<ScheduledEpoch> epochs;
  epochs.push_back({BuildEpochConfig(workload, 60), 3600.0});
  epochs.push_back({BuildEpochConfig(workload, workload.queries.size()),
                    2.5 * 3600.0});
  return epochs;
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
    EXPECT_EQ(a[i].epoch, b[i].epoch) << "record " << i;
  }
}

using Factory = std::function<std::unique_ptr<ScanRouter>()>;

const Factory kFactories[] = {
    [] { return std::unique_ptr<ScanRouter>(new MaxOfMinsRouter); },
    [] { return std::unique_ptr<ScanRouter>(new PowerOfTwoRouter(1234)); },
};

TEST(ShardedOnlineTest, RepeatedRunsAreBitIdenticalUnderContention) {
  // Thread scheduling must never leak into results even while the
  // producer publishes epochs mid-run: adoption points depend only on
  // query arrivals. Tiny rings force producer/consumer contention so the
  // publish genuinely races the routing (the TSan pass exercises the
  // epoch chain's release/acquire edges here).
  const Workload workload = OnlineWorkload();
  const ClusterConfig bootstrap = BuildEpochConfig(workload, 30);
  const std::vector<ScheduledEpoch> epochs = MakeSchedule(workload);
  ShardedDriverOptions so;
  so.shards = 4;
  so.batch_size = 32;
  so.queue_capacity = 8;
  for (const Factory& make_router : kFactories) {
    const ShardedRunResult a =
        RunShardedOnline(workload, bootstrap, epochs, make_router, so);
    const ShardedRunResult b =
        RunShardedOnline(workload, bootstrap, epochs, make_router, so);
    ExpectSameRecords(a.merged.records, b.merged.records);
    for (std::size_t s = 0; s < 4; ++s) {
      ExpectSameRecords(a.shards[s].records, b.shards[s].records);
    }
    EXPECT_EQ(a.merged.transitions, 3u);  // bootstrap + two activations
    EXPECT_EQ(a.merged.final_nodes, epochs.back().config.node_count());
  }
}

TEST(ShardedOnlineTest, EpochStampCountsActivationsBeforeArrival) {
  // Adoption is a pure function of arrival time, identical on every
  // shard: a record's epoch is exactly the number of scheduled
  // activations at or before its arrival.
  const Workload workload = OnlineWorkload();
  const ClusterConfig bootstrap = BuildEpochConfig(workload, 30);
  const std::vector<ScheduledEpoch> epochs = MakeSchedule(workload);
  ShardedDriverOptions so;
  so.shards = 4;
  const ShardedRunResult r =
      RunShardedOnline(workload, bootstrap, epochs, kFactories[0], so);
  ASSERT_EQ(r.merged.records.size(), workload.queries.size());
  bool saw_every_epoch[3] = {false, false, false};
  for (const QueryRecord& rec : r.merged.records) {
    std::uint64_t want = 0;
    for (const ScheduledEpoch& se : epochs) {
      if (rec.arrival >= se.at) ++want;
    }
    EXPECT_EQ(rec.epoch, want) << "query " << rec.id;
    ASSERT_LT(rec.epoch, 3u);
    saw_every_epoch[rec.epoch] = true;
  }
  // The schedule must actually split the workload, or the test is vacuous.
  EXPECT_TRUE(saw_every_epoch[0]);
  EXPECT_TRUE(saw_every_epoch[1]);
  EXPECT_TRUE(saw_every_epoch[2]);
}

TEST(ShardedOnlineTest, EachShardMatchesASingleShardRunOfItsPartition) {
  const Workload workload = OnlineWorkload();
  const ClusterConfig bootstrap = BuildEpochConfig(workload, 30);
  const std::vector<ScheduledEpoch> epochs = MakeSchedule(workload);
  constexpr std::size_t kShards = 4;
  ShardedDriverOptions so;
  so.shards = kShards;
  so.batch_size = 32;
  const ShardedRunResult sharded =
      RunShardedOnline(workload, bootstrap, epochs, kFactories[0], so);

  std::size_t total_records = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    Workload partition;
    partition.name = workload.name;
    partition.dataset = workload.dataset;
    for (const TimedQuery& tq : workload.queries) {
      if (ShardOfQuery(tq.query, kShards) == s) partition.queries.push_back(tq);
    }
    ShardedDriverOptions serial_opts;
    serial_opts.shards = 1;
    serial_opts.batch_size = 32;
    const ShardedRunResult serial = RunShardedOnline(
        partition, bootstrap, epochs, kFactories[0], serial_opts);
    ExpectSameRecords(sharded.shards[s].records, serial.merged.records);
    EXPECT_EQ(sharded.shards[s].read_tuples, serial.merged.read_tuples);
    EXPECT_EQ(sharded.shards[s].makespan_s, serial.merged.makespan_s);
    total_records += sharded.shards[s].records.size();
  }
  EXPECT_EQ(total_records, workload.queries.size());
}

TEST(ShardedOnlineTest, EmptyScheduleMatchesRunSharded) {
  // With nothing scheduled the online entry point must reproduce the
  // single-epoch data plane bit for bit (same chain, no-op producer
  // hook).
  const Workload workload = OnlineWorkload();
  const ClusterConfig config = BuildEpochConfig(workload, 30);
  for (const std::size_t shards : {1u, 4u}) {
    ShardedDriverOptions so;
    so.shards = shards;
    const ShardedRunResult plain =
        RunSharded(workload, config, kFactories[0], so);
    const ShardedRunResult online =
        RunShardedOnline(workload, config, {}, kFactories[0], so);
    ExpectSameRecords(online.merged.records, plain.merged.records);
    EXPECT_EQ(online.merged.total_cost, plain.merged.total_cost);
    EXPECT_EQ(online.merged.transferred_tuples,
              plain.merged.transferred_tuples);
    EXPECT_EQ(online.merged.transitions, plain.merged.transitions);
    EXPECT_EQ(online.merged.final_nodes, plain.merged.final_nodes);
  }
}

// Pinned digests (tests/golden_run.h) of RunShardedOnline on the TPC-H
// regime with a two-step schedule, [router][shards 1, 4][batch 1, 64], in
// kFactories order. Captured from the sharded driver while it still kept
// its own copy of the query path, so they check the shared data plane
// against that independent implementation.
constexpr std::uint64_t kOnlineGolden[2][2][2] = {
    {{0xd8b2c858aa26dd27ULL, 0xd8b2c858aa26dd27ULL},
     {0x7c8711dc83e339a4ULL, 0x7c8711dc83e339a4ULL}},
    {{0x86695c3be7b1dae3ULL, 0x86695c3be7b1dae3ULL},
     {0x834adb63e7d0e002ULL, 0x834adb63e7d0e002ULL}},
};

TEST(ShardedOnlineTest, PinnedDigestsOfATwoStepSchedule) {
  // Bootstrap from the first 30 queries, then re-fragment at 40 min and
  // 80 min from successively longer prefixes.
  const Workload& workload = GoldenTpchWorkload();
  const ClusterConfig bootstrap = BuildGoldenTpchConfig(30);
  std::vector<ScheduledEpoch> epochs;
  epochs.push_back({BuildGoldenTpchConfig(60), 2400.0});
  epochs.push_back({BuildGoldenTpchConfig(workload.queries.size()), 4800.0});
  const std::size_t shard_counts[2] = {1, 4};
  const std::size_t batches[2] = {1, 64};
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t s = 0; s < 2; ++s) {
      for (std::size_t b = 0; b < 2; ++b) {
        ShardedDriverOptions so;
        so.shards = shard_counts[s];
        so.batch_size = batches[b];
        so.sim.tuples_per_second = kGoldenTuplesPerSecond;
        const ShardedRunResult run =
            RunShardedOnline(workload, bootstrap, epochs, kFactories[r], so);
        const std::uint64_t digest = DigestSharded(run);
        EXPECT_EQ(digest, kOnlineGolden[r][s][b])
            << "router " << r << " shards " << so.shards << " batch "
            << so.batch_size << ": digest 0x" << std::hex << digest;
        EXPECT_EQ(run.merged.transitions, 3u);
        EXPECT_GT(run.merged.records.back().epoch, 0u);
      }
    }
  }
}

TEST(ShardedOnlineTest, EpochsScheduledAfterTheLastArrivalAreNotPublished) {
  // Mirrors the serial driver: publication only happens at admissions, so
  // a schedule entry past the workload's end never activates (and is not
  // billed).
  const Workload workload = OnlineWorkload();
  const ClusterConfig bootstrap = BuildEpochConfig(workload, 30);
  std::vector<ScheduledEpoch> epochs;
  epochs.push_back(
      {BuildEpochConfig(workload, workload.queries.size()), 100.0 * 3600.0});
  ShardedDriverOptions so;
  so.shards = 2;
  const ShardedRunResult r =
      RunShardedOnline(workload, bootstrap, epochs, kFactories[0], so);
  EXPECT_EQ(r.merged.transitions, 1u);
  EXPECT_EQ(r.merged.final_nodes, bootstrap.node_count());
  for (const QueryRecord& rec : r.merged.records) EXPECT_EQ(rec.epoch, 0u);
}

}  // namespace
}  // namespace nashdb
