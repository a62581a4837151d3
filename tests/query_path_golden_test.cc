// Driver goldens (DESIGN.md §10–§12): the serial driver's whole output —
// every QueryRecord field plus the RunResult totals — pinned by a
// field-by-field FNV-1a digest, for every router on a setup that
// exercises the whole query path: ~11 nodes with up to 3 replicas per
// fragment (real routing choices), TPC-H queries of ~6 scans each
// (multi-scan spans), and a crash schedule that, with repair off, forces
// retries and aborts, with admission control on, sheds, and with more
// retries and fast disks, lets a retried scan succeed mid-query so the
// rest of the query resumes. A single-epoch mode observes the whole
// workload up front and routes it against that one configuration, with
// no round: the data plane alone. One more Max-of-mins case runs the
// streaming workload's regime: 128 nodes, ~127 candidates per request,
// nearly every read at zero wait, and scans of 1 to more than 16
// fragments.
//
// The digests were captured from the driver before its query path and
// reconfiguration round were unified, and at capture time every case
// agreed across the three runtime paths that then existed (the seed
// allocating path, the per-scan path and the batched path) and across
// the stop-the-world and window-0 online rounds. They are exact x86-64
// doubles under the repository's compiler flags: a change to the
// floating-point evaluation order (or -ffast-math) changes them.
//
// Any divergence in candidate ordering, wait arithmetic, RNG consumption,
// liveness filtering, retry/abort/shed handling, epoch stamping or round
// timing shows up here as a digest mismatch. Each case also asserts the
// counts that make it meaningful, so the setup cannot quietly stop
// exercising what it pins.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/faults.h"
#include "common/query.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "golden_run.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/streaming.h"
#include "workload/workload.h"

namespace nashdb {
namespace {

enum Router { kMaxOfMins, kShortestQueue, kGreedySc, kPowerOfTwo };

enum Mode {
  kFaultFree,
  kFaults,                   // crash schedule, emergency repair on
  kFaultsNoRepair,           // same crashes, repair off: retries, aborts
  kFaultsNoRepairAdmission,  // plus max_pending_queries = 1: sheds
  // Repair off, 8 retries and 100x faster disks: some retries succeed
  // and the query resumes while nodes sit idle, so the time the rest of
  // the query routes at is visible in the records.
  kFaultsNoRepairPatient,
  // Fault-free, the whole workload observed before the bootstrap build,
  // and no reconfiguration: one epoch for the run.
  kSingleEpoch,
};

constexpr SimTime kInterval = 1800.0;

// Golden digests at the default zero build window, [router][mode]. The
// single-epoch column equals the merged records and totals of the
// one-shard runs of the sharded driver the repository once had, whose
// query path was then an independent copy.
constexpr std::uint64_t kGolden[4][6] = {
    {0xaca67443b845d0fdULL, 0x7ea45bd5aa6af897ULL, 0x4260605bb3840406ULL,
     0x8dd6d4a6c2a61b59ULL, 0xad6ff103ba3a28afULL, 0x40a46dd3dffb3122ULL},
    {0x9d9c41c1d9effb5dULL, 0xe773a6989e8255c9ULL, 0xb5407d0546deaeb3ULL,
     0xf7ad4bb09e387f83ULL, 0xa58775f9fee20fcaULL, 0xb9bd2dff0831fc7aULL},
    {0x48c9e3f682ad008bULL, 0x501463ca834b246cULL, 0xd586f8f39483a584ULL,
     0x211101c67521b7f9ULL, 0x93585a59242b946fULL, 0xf4e62ff6e91acdebULL},
    {0x8dc36aaaacfa8630ULL, 0xd1ca278ad6e28215ULL, 0xd3555bfbfe2cb269ULL,
     0x6bd065a12e645cf6ULL, 0x9acb5fbb6e829d55ULL, 0xe73886630fb41eb5ULL},
};

// Golden digests with a 900 s build window (queries inside the window
// route against the outgoing epoch), [router][mode].
constexpr std::uint64_t kWindowGolden[4][5] = {
    {0xe1fcf352c1925c29ULL, 0x86e46c55532625d0ULL, 0xa79cbd3aeb56cbcfULL,
     0x05940693291c6b86ULL, 0x33302e441331e3f4ULL},
    {0x26952556431c1a28ULL, 0xe401ea2c3a8412c6ULL, 0x16bdb2321a79eff5ULL,
     0x6cdb9c7ab7b45328ULL, 0xc56aa8b2db3ffd16ULL},
    {0xa0222f99ebf51779ULL, 0x3e69632001d4cbb7ULL, 0x220eae3dd2bd19fbULL,
     0x34fe9db13c41ca5dULL, 0x0a7d12aef375d28fULL},
    {0x71c6d0b7f8e510dcULL, 0xf963d6fc124ce7d6ULL, 0xc4d5fb016cb08cc6ULL,
     0x67597bbdc61edfe7ULL, 0x6e01d6da1c5d63e6ULL},
};

std::unique_ptr<ScanRouter> MakeRouter(Router router) {
  switch (router) {
    case kMaxOfMins:
      return std::make_unique<MaxOfMinsRouter>();
    case kShortestQueue:
      return std::make_unique<ShortestQueueRouter>();
    case kGreedySc:
      return std::make_unique<GreedyScRouter>();
    case kPowerOfTwo:
      break;
  }
  return std::make_unique<PowerOfTwoRouter>(1234);
}

/// The golden setup of `mode`, routed by `scan_router`.
RunResult RunGoldenWith(ScanRouter* scan_router, Mode mode,
                        std::size_t route_batch_size,
                        SimTime build_window_s = 0.0) {
  const Workload& workload = GoldenTpchWorkload();
  NashDbOptions opts;
  opts.window_scans = 60;
  opts.block_tuples = 500;
  opts.node_disk = 8000;
  opts.node_cost = 0.5;
  opts.max_replicas = 3;
  opts.reconfig_threads = 1;
  NashDbSystem sys(workload.dataset, opts);
  DriverOptions d;
  d.sim.tuples_per_second = kGoldenTuplesPerSecond;
  d.reconfigure_interval_s = kInterval;
  d.route_batch_size = route_batch_size;
  d.online_build_window_s = build_window_s;
  if (mode == kSingleEpoch) {
    d.warmup_observe = true;
    d.periodic_reconfigure = false;
  } else if (mode != kFaultFree) {
    d.faults.spec = *FaultSpec::Parse(
        "crash@2000:n0:for=600;crash@4000:n1;crash@6000:n2:for=900;"
        "mttf=7200;mttr=1800");
    d.faults.seed = 7;
    d.faults.emergency_repair = mode == kFaults;
  }
  if (mode == kFaultsNoRepairAdmission) d.overload.max_pending_queries = 1;
  if (mode == kFaultsNoRepairPatient) {
    d.faults.max_scan_retries = 8;
    d.sim.tuples_per_second = 15000.0;
  }
  return RunWorkload(workload, &sys, scan_router, d);
}

RunResult RunGolden(Router router, Mode mode, std::size_t route_batch_size,
                    SimTime build_window_s = 0.0) {
  const std::unique_ptr<ScanRouter> scan_router = MakeRouter(router);
  return RunGoldenWith(scan_router.get(), mode, route_batch_size,
                       build_window_s);
}

/// The counts that make `mode` worth pinning.
void ExpectExercised(const RunResult& r, Mode mode) {
  std::size_t multi_scan = 0;
  for (const TimedQuery& tq : GoldenTpchWorkload().queries) {
    multi_scan += tq.query.scans.size() > 1;
  }
  EXPECT_GT(multi_scan, 0u);
  EXPECT_GT(r.final_nodes, 1u);
  std::size_t multi_span = 0;
  for (const QueryRecord& q : r.records) multi_span += q.span > 1;
  EXPECT_GT(multi_span, 0u);
  if (mode == kSingleEpoch) {
    EXPECT_EQ(r.transitions, 1u);
  } else if (mode != kFaultFree) {
    EXPECT_GT(r.crashes, 0u);
  }
  if (mode == kFaults) {
    EXPECT_GT(r.emergency_repairs, 0u);
  }
  if (mode == kFaultsNoRepair || mode == kFaultsNoRepairAdmission ||
      mode == kFaultsNoRepairPatient) {
    EXPECT_GT(r.scan_retries, 0u);
    EXPECT_GT(r.aborted_queries, 0u);
  }
  if (mode == kFaultsNoRepairPatient) {
    // Some retried query completes: a retry succeeded and the query's
    // remaining scans resumed.
    std::size_t recovered = 0;
    for (const QueryRecord& q : r.records) {
      recovered += q.retries > 0 && !q.aborted;
    }
    EXPECT_GT(recovered, 0u);
  }
  if (mode == kFaultsNoRepairAdmission) {
    EXPECT_GT(r.shed_queries, 0u);
  }
}

/// Runs `mode` at block sizes 64 and 1 and checks both against the
/// pinned digest.
void ExpectGolden(Router router, Mode mode) {
  for (const std::size_t batch : {std::size_t{64}, std::size_t{1}}) {
    const RunResult r = RunGolden(router, mode, batch);
    EXPECT_EQ(DigestRun(r), kGolden[router][mode])
        << "router " << router << " mode " << mode << " batch " << batch;
    ExpectExercised(r, mode);
  }
}

TEST(QueryPathGoldenTest, MaxOfMinsFaultFree) {
  ExpectGolden(kMaxOfMins, kFaultFree);
}
TEST(QueryPathGoldenTest, MaxOfMinsUnderFaults) {
  ExpectGolden(kMaxOfMins, kFaults);
}
TEST(QueryPathGoldenTest, MaxOfMinsUnderFaultsNoRepair) {
  ExpectGolden(kMaxOfMins, kFaultsNoRepair);
}
TEST(QueryPathGoldenTest, MaxOfMinsAdmissionControlUnderFaults) {
  ExpectGolden(kMaxOfMins, kFaultsNoRepairAdmission);
}
TEST(QueryPathGoldenTest, MaxOfMinsRetriesThenResumes) {
  ExpectGolden(kMaxOfMins, kFaultsNoRepairPatient);
}

TEST(QueryPathGoldenTest, ShortestQueueFaultFree) {
  ExpectGolden(kShortestQueue, kFaultFree);
}
TEST(QueryPathGoldenTest, ShortestQueueUnderFaults) {
  ExpectGolden(kShortestQueue, kFaults);
}
TEST(QueryPathGoldenTest, ShortestQueueUnderFaultsNoRepair) {
  ExpectGolden(kShortestQueue, kFaultsNoRepair);
}
TEST(QueryPathGoldenTest, ShortestQueueAdmissionControlUnderFaults) {
  ExpectGolden(kShortestQueue, kFaultsNoRepairAdmission);
}
TEST(QueryPathGoldenTest, ShortestQueueRetriesThenResumes) {
  ExpectGolden(kShortestQueue, kFaultsNoRepairPatient);
}

TEST(QueryPathGoldenTest, GreedyScFaultFree) {
  ExpectGolden(kGreedySc, kFaultFree);
}
TEST(QueryPathGoldenTest, GreedyScUnderFaults) {
  ExpectGolden(kGreedySc, kFaults);
}
TEST(QueryPathGoldenTest, GreedyScUnderFaultsNoRepair) {
  ExpectGolden(kGreedySc, kFaultsNoRepair);
}
TEST(QueryPathGoldenTest, GreedyScAdmissionControlUnderFaults) {
  ExpectGolden(kGreedySc, kFaultsNoRepairAdmission);
}
TEST(QueryPathGoldenTest, GreedyScRetriesThenResumes) {
  ExpectGolden(kGreedySc, kFaultsNoRepairPatient);
}

// Same seed on every run: the digest includes the RNG draw sequence.
TEST(QueryPathGoldenTest, PowerOfTwoFaultFree) {
  ExpectGolden(kPowerOfTwo, kFaultFree);
}
TEST(QueryPathGoldenTest, PowerOfTwoUnderFaults) {
  ExpectGolden(kPowerOfTwo, kFaults);
}
TEST(QueryPathGoldenTest, PowerOfTwoUnderFaultsNoRepair) {
  ExpectGolden(kPowerOfTwo, kFaultsNoRepair);
}
TEST(QueryPathGoldenTest, PowerOfTwoAdmissionControlUnderFaults) {
  ExpectGolden(kPowerOfTwo, kFaultsNoRepairAdmission);
}
TEST(QueryPathGoldenTest, PowerOfTwoRetriesThenResumes) {
  ExpectGolden(kPowerOfTwo, kFaultsNoRepairPatient);
}

TEST(QueryPathGoldenTest, MaxOfMinsSingleEpoch) {
  ExpectGolden(kMaxOfMins, kSingleEpoch);
}
TEST(QueryPathGoldenTest, ShortestQueueSingleEpoch) {
  ExpectGolden(kShortestQueue, kSingleEpoch);
}
TEST(QueryPathGoldenTest, GreedyScSingleEpoch) {
  ExpectGolden(kGreedySc, kSingleEpoch);
}
TEST(QueryPathGoldenTest, PowerOfTwoSingleEpoch) {
  ExpectGolden(kPowerOfTwo, kSingleEpoch);
}

// Block boundaries at odd places (blocks of 7 split queries mid-way;
// blocks of 256 span a whole reconfiguration interval, or a fault run's
// stretch between fault events and liveness changes) never change the
// records, with or without faults and admission control.
void ExpectBatchSizeInvariant(Router router) {
  for (const Mode mode : {kFaultFree, kFaults, kFaultsNoRepair,
                          kFaultsNoRepairAdmission, kFaultsNoRepairPatient}) {
    for (const std::size_t batch : {std::size_t{7}, std::size_t{256}}) {
      EXPECT_EQ(DigestRun(RunGolden(router, mode, batch)),
                kGolden[router][mode])
          << "mode " << mode << " batch " << batch;
    }
  }
}

TEST(QueryPathGoldenTest, MaxOfMinsBatchSizeInvariant) {
  ExpectBatchSizeInvariant(kMaxOfMins);
}
TEST(QueryPathGoldenTest, ShortestQueueBatchSizeInvariant) {
  ExpectBatchSizeInvariant(kShortestQueue);
}
TEST(QueryPathGoldenTest, GreedyScBatchSizeInvariant) {
  ExpectBatchSizeInvariant(kGreedySc);
}
TEST(QueryPathGoldenTest, PowerOfTwoBatchSizeInvariant) {
  ExpectBatchSizeInvariant(kPowerOfTwo);
}

/// Forwards every block to a MaxOfMinsRouter and counts the blocks, and
/// the failed blocks that hold scans of more than one query: a coverage
/// gap inside a multi-query block, whose failing scan the data plane
/// then retries alone.
class BlockCounter : public ScanRouter {
 public:
  std::size_t calls = 0;
  std::size_t multi_query_failures = 0;

  std::string_view name() const override { return inner_.name(); }
  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override {
    ++calls;
    const Status status = inner_.RouteBatchInto(
        batch, waits, read_seconds_per_tuple, phi_s, scratch, out, sink);
    if (!status.ok() && batch.ids.front() != batch.ids.back()) {
      ++multi_query_failures;
    }
    return status;
  }

 private:
  MaxOfMinsRouter inner_;
};

// Fault runs route in multi-query blocks: at block 64 they make fewer
// routing calls than they admit queries, with the records still those
// the goldens pin. With repair on, every
// coverage gap is repaired as its crash is delivered, so no scan retries;
// with repair off, a coverage gap is met inside a block of several
// queries and retried there.
TEST(QueryPathGoldenTest, FaultRunsRouteInMultiQueryBlocks) {
  for (const Mode mode : {kFaults, kFaultsNoRepairPatient}) {
    BlockCounter counter;
    const RunResult r = RunGoldenWith(&counter, mode, 64);
    EXPECT_EQ(DigestRun(r), kGolden[kMaxOfMins][mode]) << "mode " << mode;
    EXPECT_LT(counter.calls, r.total_queries - r.shed_queries)
        << "mode " << mode;
    if (mode == kFaultsNoRepairPatient) {
      EXPECT_GT(r.scan_retries, 0u);
      EXPECT_GT(counter.multi_query_failures, 0u);
    }
  }
}

// --------------------------------- where a multi-query block flushes (§11)

constexpr TupleCount kFixedFragment = 100;

/// Provisions the same four nodes on every build, for one table of four
/// 100-tuple fragments: f0 on {0, 1, 2}, f1 on {3, 1}, f2 on node 2
/// alone, f3 on {1, 3, 0}. A read of f2 is routable only while node 2 is.
class FixedSystem : public DistributionSystem {
 public:
  std::string_view name() const override { return "fixed"; }
  void Observe(const Query& query) override { (void)query; }
  ClusterConfig BuildConfig() override {
    ReplicationParams params;
    params.node_disk = 4 * kFixedFragment;
    params.window_scans = 10;
    const std::vector<std::vector<NodeId>> homes = {
        {0, 1, 2}, {3, 1}, {2}, {1, 3, 0}};
    std::vector<FragmentInfo> frags;
    for (std::size_t i = 0; i < homes.size(); ++i) {
      FragmentInfo f;
      f.index_in_table = static_cast<FragmentId>(i);
      f.range = TupleRange{i * kFixedFragment, (i + 1) * kFixedFragment};
      f.replicas = homes[i].size();
      frags.push_back(f);
    }
    ClusterConfig config(params, std::move(frags));
    for (std::size_t m = 0; m < 4; ++m) config.AddNode();
    for (std::size_t f = 0; f < homes.size(); ++f) {
      for (const NodeId m : homes[f]) config.Place(m, f);
    }
    return config;
  }
  void Reset() override {}
};

/// One-scan queries at (arrival, fragment), each reading most of its
/// fragment, routed at `batch` under `faults` with no round and no repair.
RunResult RunFixed(const char* faults,
                   const std::vector<std::pair<SimTime, std::size_t>>& reads,
                   std::size_t batch, BlockCounter* counter) {
  Workload wl;
  wl.dataset.tables.push_back(TableSpec{0, "t", 4 * kFixedFragment});
  for (std::size_t q = 0; q < reads.size(); ++q) {
    const TupleIndex start = reads[q].second * kFixedFragment;
    TimedQuery tq;
    tq.arrival = reads[q].first;
    tq.query = MakeQuery(q, 1.0, {{0, TupleRange{start + 10, start + 90}}});
    wl.queries.push_back(tq);
  }
  FixedSystem system;
  DriverOptions d;
  d.periodic_reconfigure = false;
  d.sim.tuples_per_second = 100.0;
  d.route_batch_size = batch;
  d.faults.spec = *FaultSpec::Parse(faults);
  d.faults.emergency_repair = false;
  return RunWorkload(wl, &system, counter, d);
}

// A fault delivered while a block is pending lands after the block's
// queries route: the two f2 reads that arrive before node 2 crashes
// still read it, at block 64 as at block 1, and the crash is where the
// first block ends.
TEST(QueryPathGoldenTest, BlockFlushesBeforeADueFault) {
  const std::vector<std::pair<SimTime, std::size_t>> reads = {
      {10.0, 2}, {20.0, 2}, {30.0, 0}};
  BlockCounter one;
  const RunResult per_query = RunFixed("crash@25:n2:for=100", reads, 1, &one);
  EXPECT_EQ(per_query.crashes, 1u);
  EXPECT_EQ(per_query.scan_retries, 0u);
  EXPECT_EQ(one.calls, 3u);
  BlockCounter blocks;
  const RunResult r = RunFixed("crash@25:n2:for=100", reads, 64, &blocks);
  EXPECT_EQ(DigestRun(r), DigestRun(per_query));
  EXPECT_EQ(blocks.calls, 2u);
}

// A block is filtered at its first arrival, so it ends where the
// routable set changes: node 2 recovers at 15, between a query at 6 and
// an f2 read at 20, which then routes to node 2 without a retry.
TEST(QueryPathGoldenTest, BlockFlushesAtTheNextLivenessChange) {
  const std::vector<std::pair<SimTime, std::size_t>> reads = {
      {6.0, 0}, {20.0, 2}, {21.0, 0}};
  BlockCounter one;
  const RunResult per_query = RunFixed("crash@5:n2:for=10", reads, 1, &one);
  EXPECT_EQ(per_query.crashes, 1u);
  EXPECT_EQ(per_query.scan_retries, 0u);
  EXPECT_EQ(one.calls, 3u);
  BlockCounter blocks;
  const RunResult r = RunFixed("crash@5:n2:for=10", reads, 64, &blocks);
  EXPECT_EQ(DigestRun(r), DigestRun(per_query));
  EXPECT_EQ(blocks.calls, 2u);
}

// ------------------------------------------ reconfiguration rounds (§12)

/// Boundaries k * kInterval (k >= 1) published at or before `arrival`
/// with a `window`-second build window — every one of them applies
/// (non-adaptive, fault-free), so this is the epoch a record admitted at
/// `arrival` must carry.
std::uint64_t PublishedBy(SimTime arrival, SimTime window) {
  const double k = std::floor((arrival - window) / kInterval);
  return k < 0.0 ? 0 : static_cast<std::uint64_t>(k);
}

/// With an occupied window, queries between a boundary and its publish
/// route against the outgoing epoch at both block sizes; the records are
/// pinned by their own digests.
void ExpectWindowGolden(Router router, Mode mode) {
  for (const std::size_t batch : {std::size_t{64}, std::size_t{1}}) {
    const RunResult r = RunGolden(router, mode, batch, 900.0);
    EXPECT_EQ(DigestRun(r), kWindowGolden[router][mode])
        << "router " << router << " mode " << mode << " batch " << batch;
    ExpectExercised(r, mode);
  }
}

void ExpectWindowGoldenUnderFaults(Router router) {
  for (const Mode mode : {kFaults, kFaultsNoRepair, kFaultsNoRepairAdmission,
                          kFaultsNoRepairPatient}) {
    ExpectWindowGolden(router, mode);
  }
}

TEST(OnlineReconfigGoldenTest, MaxOfMinsFaultFree) {
  ExpectWindowGolden(kMaxOfMins, kFaultFree);
}
TEST(OnlineReconfigGoldenTest, MaxOfMinsUnderFaults) {
  ExpectWindowGoldenUnderFaults(kMaxOfMins);
}
TEST(OnlineReconfigGoldenTest, ShortestQueueFaultFree) {
  ExpectWindowGolden(kShortestQueue, kFaultFree);
}
TEST(OnlineReconfigGoldenTest, ShortestQueueUnderFaults) {
  ExpectWindowGoldenUnderFaults(kShortestQueue);
}
TEST(OnlineReconfigGoldenTest, GreedyScFaultFree) {
  ExpectWindowGolden(kGreedySc, kFaultFree);
}
TEST(OnlineReconfigGoldenTest, GreedyScUnderFaults) {
  ExpectWindowGoldenUnderFaults(kGreedySc);
}
TEST(OnlineReconfigGoldenTest, PowerOfTwoFaultFree) {
  ExpectWindowGolden(kPowerOfTwo, kFaultFree);
}
TEST(OnlineReconfigGoldenTest, PowerOfTwoUnderFaults) {
  ExpectWindowGoldenUnderFaults(kPowerOfTwo);
}

// The epoch stamp of every record is the number of rounds published by
// its admission: at a zero window each boundary publishes as soon as an
// admission reaches it, at 900 s a window later. Checked at block size 1
// and at a block larger than any interval's worth of scans.
TEST(OnlineReconfigGoldenTest, ScalarPathFaultFree) {
  for (const SimTime window : {0.0, 900.0}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4096}}) {
      const RunResult r = RunGolden(kMaxOfMins, kFaultFree, batch, window);
      ASSERT_FALSE(r.records.empty());
      for (const QueryRecord& q : r.records) {
        EXPECT_EQ(q.epoch, PublishedBy(q.arrival, window))
            << "window " << window << " batch " << batch << " query "
            << q.id;
      }
      if (window == 0.0) {
        EXPECT_EQ(r.records.back().epoch, r.transitions - 1);
      }
    }
  }
}

// ------------------------------- high replication (stream's regime)

// Golden digests of the high-replication case, [fault-free, faults,
// single epoch], at the default zero build window. The first two were
// captured from the driver before the Max-of-mins sweep stopped at its
// lower bound; the single-epoch one equals the one-shard sharded run, as
// kGolden's single-epoch column does.
constexpr std::uint64_t kHighReplicationGolden[3] = {
    0x963a32203710f42aULL, 0x39864d3240f70f66ULL, 0xd41d77dff02df768ULL};

/// Forwards every call to a MaxOfMinsRouter and tallies the regime the
/// driver's blocks route in: scans by request count (1, 2, 3-16, > 16),
/// candidates per request, and reads whose node was idle when their scan
/// was routed.
class RegimeProbe : public ScanRouter {
 public:
  std::size_t scans_by_requests[4] = {};
  std::size_t requests = 0;
  std::size_t candidates = 0;
  std::size_t reads = 0;
  std::size_t idle_reads = 0;

  std::string_view name() const override { return inner_.name(); }
  Result<std::vector<RoutedRead>> Route(
      const std::vector<FragmentRequest>& reqs, std::vector<double> waits,
      double read_seconds_per_tuple, double phi_s) override {
    return inner_.Route(reqs, std::move(waits), read_seconds_per_tuple,
                        phi_s);
  }
  Status RouteInto(const RequestBatch& reqs, const WaitView& waits,
                   double read_seconds_per_tuple, double phi_s,
                   RouterScratch* scratch,
                   std::vector<RoutedRead>* out) override {
    return inner_.RouteInto(reqs, waits, read_seconds_per_tuple, phi_s,
                            scratch, out);
  }
  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override {
    for (std::size_t s = 0; s < batch.size(); ++s) {
      const RequestBatch reqs = batch.ScanRequests(s);
      if (reqs.count == 0) continue;
      ++scans_by_requests[reqs.count == 1   ? 0
                          : reqs.count == 2 ? 1
                          : reqs.count <= 16 ? 2
                                             : 3];
      requests += reqs.count;
      for (std::size_t i = 0; i < reqs.count; ++i) {
        candidates += reqs.requests[i].cand_count;
      }
    }
    // The router reports a scan before the driver's sink enqueues its
    // reads, so the view still shows the waits the scan was routed at.
    struct ProbeSink : BatchSink {
      RegimeProbe* probe;
      const WaitView* waits;
      BatchSink* inner;
      void OnScanRouted(std::size_t s, const RoutedRead* reads,
                        std::size_t count) override {
        for (std::size_t k = 0; k < count; ++k) {
          ++probe->reads;
          probe->idle_reads += waits->At(reads[k].node) == 0.0;
        }
        if (inner != nullptr) inner->OnScanRouted(s, reads, count);
      }
    } probe_sink;
    probe_sink.probe = this;
    probe_sink.waits = &waits;
    probe_sink.inner = sink;
    return inner_.RouteBatchInto(batch, waits, read_seconds_per_tuple, phi_s,
                                 scratch, out, &probe_sink);
  }

 private:
  MaxOfMinsRouter inner_;
};

/// streaming_10m's single-table stream, cut to 3000 queries over five
/// minutes, with scans 5x longer so that some cover more than 16
/// fragments.
const Workload& HighReplicationWorkload() {
  static const Workload workload = [] {
    PhasedStreamOptions o;
    o.db_gb = 100.0;
    o.tuples_per_gb = 100;
    o.num_queries = 3000;
    o.duration_s = 300.0;
    o.scan_frac = 0.1;
    return PhasedQueryStream(o).Materialize();
  }();
  return workload;
}

/// streaming_10m's system and disks, with a reconfiguration round every
/// simulated minute: 128 nodes, ~127 candidates per request, and nearly
/// every read finds its node idle.
RunResult RunHighReplication(Mode mode, std::size_t route_batch_size,
                             RegimeProbe* probe) {
  const Workload& workload = HighReplicationWorkload();
  NashDbOptions opts;
  opts.window_scans = 250;
  opts.block_tuples = 250;
  opts.node_cost = 3.0;
  opts.node_disk = 120'000;
  opts.max_replicas = 128;
  opts.reconfig_threads = 1;
  NashDbSystem sys(workload.dataset, opts);
  DriverOptions d;
  d.sim.tuples_per_second = 1500.0;
  d.sim.transfer_tuples_per_second = 5000.0;
  d.reconfigure_interval_s = 60.0;
  d.prewarm_scans = 250;
  d.route_batch_size = route_batch_size;
  if (mode == kSingleEpoch) {
    d.warmup_observe = true;
    d.periodic_reconfigure = false;
  }
  if (mode == kFaults) {
    d.faults.spec = *FaultSpec::Parse(
        "crash@50:n0:for=60;crash@120:n1;crash@200:n2:for=90");
    d.faults.seed = 7;
  }
  return RunWorkload(workload, &sys, probe, d);
}

void ExpectHighReplicationGolden(Mode mode) {
  for (const std::size_t batch : {std::size_t{64}, std::size_t{1}}) {
    RegimeProbe probe;
    const RunResult r = RunHighReplication(mode, batch, &probe);
    const int column = mode == kFaults ? 1 : mode == kSingleEpoch ? 2 : 0;
    EXPECT_EQ(DigestRun(r), kHighReplicationGolden[column])
        << "mode " << mode << " batch " << batch;
    EXPECT_GE(r.final_nodes, 64u);
    std::size_t multi_span = 0;
    for (const QueryRecord& q : r.records) multi_span += q.span > 1;
    EXPECT_GT(multi_span, 0u);
    if (mode == kFaults) {
      EXPECT_GT(r.crashes, 0u);
    }
    for (const std::size_t scans : probe.scans_by_requests) {
      EXPECT_GT(scans, 0u);
    }
    EXPECT_GE(probe.candidates, 50 * probe.requests);
    // Most reads route at zero wait, where the sweep stops at phi; a few
    // find no idle candidate.
    EXPECT_GT(2 * probe.idle_reads, probe.reads);
    EXPECT_LT(probe.idle_reads, probe.reads);
  }
}

TEST(QueryPathGoldenTest, MaxOfMinsHighReplicationFaultFree) {
  ExpectHighReplicationGolden(kFaultFree);
}
TEST(QueryPathGoldenTest, MaxOfMinsHighReplicationUnderFaults) {
  ExpectHighReplicationGolden(kFaults);
}
TEST(QueryPathGoldenTest, MaxOfMinsHighReplicationSingleEpoch) {
  ExpectHighReplicationGolden(kSingleEpoch);
}

}  // namespace
}  // namespace nashdb
