// The admission loop's two pipeline stages (DESIGN.md §11): the driver's
// producer thread running QueryStream::Next ahead of the loop, and
// NashDbSystem's estimator worker. Both must be invisible in every
// output: the loop sees the stream's queries in order with Next called
// one at a time and never after a false, and every reader of the
// estimator sees exactly the scans observed before it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/query.h"
#include "common/random.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "routing/router.h"
#include "value/estimator.h"
#include "workload/workload.h"

namespace nashdb {
namespace {

constexpr TupleCount kTableTuples = 20'000;

Dataset TwoTables() {
  Dataset ds;
  ds.tables.push_back(TableSpec{0, "a", kTableTuples});
  ds.tables.push_back(TableSpec{1, "b", kTableTuples / 2});
  return ds;
}

NashDbOptions SmallEngine(std::size_t window) {
  NashDbOptions o;
  o.window_scans = window;
  o.block_tuples = 1000;
  o.node_cost = 5.0;
  o.node_disk = 8000;
  o.reconfig_threads = 1;
  return o;
}

/// Query `i` of a seeded mix: one to three scans over both tables and,
/// with `empty_scans`, an empty scan in one query of seven (which the
/// estimator skips).
Query MixQuery(Rng* rng, std::size_t i, bool empty_scans) {
  std::vector<std::pair<TableId, TupleRange>> ranges;
  const std::size_t scans = 1 + rng->Uniform(3);
  for (std::size_t s = 0; s < scans; ++s) {
    const TableId table = static_cast<TableId>(rng->Uniform(2));
    const TupleCount n = table == 0 ? kTableTuples : kTableTuples / 2;
    const TupleIndex a = rng->Uniform(n - 600);
    ranges.push_back({table, TupleRange{a, a + 50 + rng->Uniform(500)}});
  }
  if (empty_scans && i % 7 == 3) ranges.push_back({0, TupleRange{10, 10}});
  return MakeQuery(static_cast<QueryId>(i),
                   1.0 + static_cast<double>(rng->Uniform(9)), ranges);
}

/// `n` queries of the mix, one simulated second apart.
std::vector<TimedQuery> MixQueries(std::size_t n, bool empty_scans) {
  Rng rng(17);
  std::vector<TimedQuery> queries(n);
  for (std::size_t i = 0; i < n; ++i) {
    queries[i].arrival = static_cast<double>(i);
    queries[i].query = MixQuery(&rng, i, empty_scans);
  }
  return queries;
}

// ------------------------------------------------- the query producer

/// Plays `queries` and checks the QueryStream contract the driver keeps:
/// no two Next calls overlap and none follows a false. Violations are
/// counted (from whichever thread makes them) and read once the run has
/// returned. Also counts the calls made on the constructing thread (the
/// driver's, before its producer starts) and flags one that follows a
/// call from another thread.
class ContractStream : public QueryStream {
 public:
  explicit ContractStream(std::vector<TimedQuery> queries)
      : queries_(std::move(queries)), driver_(std::this_thread::get_id()) {}

  bool Next(TimedQuery* out) override {
    if (active_.fetch_add(1) != 0) overlaps_.fetch_add(1);
    if (ended_.load()) after_false_.fetch_add(1);
    if (std::this_thread::get_id() == driver_) {
      inline_calls_.fetch_add(1);
      if (produced_.load()) inline_after_producer_.fetch_add(1);
    } else {
      produced_.store(true);
    }
    // Widen the window an overlapping call would land in.
    if (calls_.fetch_add(1) % 97 == 0) std::this_thread::yield();
    const bool ok = next_ < queries_.size();
    if (ok) {
      *out = queries_[next_++];
    } else {
      ended_.store(true);
    }
    active_.fetch_sub(1);
    return ok;
  }

  int active() const { return active_.load(); }
  int overlaps() const { return overlaps_.load(); }
  int after_false() const { return after_false_.load(); }
  std::size_t calls() const { return calls_.load(); }
  bool ended() const { return ended_.load(); }
  std::size_t inline_calls() const { return inline_calls_.load(); }
  int inline_after_producer() const { return inline_after_producer_.load(); }

 private:
  std::vector<TimedQuery> queries_;
  const std::thread::id driver_;
  std::size_t next_ = 0;
  std::atomic<std::size_t> inline_calls_{0};
  std::atomic<bool> produced_{false};
  std::atomic<int> inline_after_producer_{0};
  std::atomic<int> active_{0};
  std::atomic<int> overlaps_{0};
  std::atomic<int> after_false_{0};
  std::atomic<std::size_t> calls_{0};
  std::atomic<bool> ended_{false};
};

/// Forwards to NashDB and sleeps in every 1000th Observe, so the producer
/// meets a full ring and parks on it.
class StallingSystem : public DistributionSystem {
 public:
  explicit StallingSystem(NashDbSystem* inner) : inner_(inner) {}
  std::string_view name() const override { return inner_->name(); }
  void Observe(const Query& query) override {
    if (++observed_ % 1000 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    inner_->Observe(query);
  }
  ClusterConfig BuildConfig() override { return inner_->BuildConfig(); }
  std::future<ClusterConfig> BuildConfigAsync() override {
    return inner_->BuildConfigAsync();
  }
  void NoteAppliedConfig(const ClusterConfig& config) override {
    inner_->NoteAppliedConfig(config);
  }
  void Reset() override { inner_->Reset(); }

 private:
  NashDbSystem* inner_;
  std::size_t observed_ = 0;
};

DriverOptions StreamOptions(std::size_t prewarm_scans) {
  DriverOptions d;
  d.sim.tuples_per_second = 50'000.0;
  d.sim.transfer_tuples_per_second = 200'000.0;
  d.reconfigure_interval_s = 1800.0;
  d.prewarm_scans = prewarm_scans;
  return d;
}

/// Next calls the driver makes on its own thread: the prewarm's reads
/// (until `prewarm_scans` scans or the stream's end), or the first read
/// when there is no prewarm. The producer makes every later call.
std::size_t InlineReads(const std::vector<TimedQuery>& queries,
                        std::size_t prewarm_scans) {
  if (prewarm_scans == 0) return 1;
  std::size_t fed = 0;
  std::size_t reads = 0;
  while (fed < prewarm_scans && reads < queries.size()) {
    fed += queries[reads++].query.scans.size();
  }
  return fed < prewarm_scans ? reads + 1 : reads;
}

/// Runs `queries` through RunQueryStream and checks the stream's
/// contract, that setup read the stream inline, and that the loop
/// admitted every query in the stream's order.
void RunContract(std::vector<TimedQuery> queries, std::size_t prewarm_scans,
                 bool stall = false) {
  const std::size_t n = queries.size();
  const std::size_t inline_reads = InlineReads(queries, prewarm_scans);
  SCOPED_TRACE(::testing::Message() << n << " queries, prewarm "
                                    << prewarm_scans);
  ContractStream stream(std::move(queries));
  NashDbSystem nash(TwoTables(), SmallEngine(64));
  StallingSystem stalling(&nash);
  DistributionSystem* system =
      stall ? static_cast<DistributionSystem*>(&stalling) : &nash;
  MaxOfMinsRouter router;
  const RunResult r =
      RunQueryStream(&stream, system, &router, StreamOptions(prewarm_scans));
  // Every call has finished, the last returned false, and no call
  // overlapped another or followed the false.
  EXPECT_EQ(stream.active(), 0);
  EXPECT_EQ(stream.overlaps(), 0);
  EXPECT_EQ(stream.after_false(), 0);
  EXPECT_TRUE(stream.ended());
  EXPECT_EQ(stream.calls(), n + 1);
  // Nothing of the pipeline ran before the first admission.
  EXPECT_EQ(stream.inline_calls(), inline_reads);
  EXPECT_EQ(stream.inline_after_producer(), 0);
  ASSERT_EQ(r.records.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(r.records[i].id, static_cast<QueryId>(i)) << "record " << i;
  }
}

constexpr std::size_t kQueryBatch = kStreamAheadSlots / 2;

TEST(StreamAheadTest, EmptyStream) {
  RunContract({}, 0);
  RunContract({}, 40);
}

TEST(StreamAheadTest, OnlyThePrewarmPrefix) {
  // Single-scan queries, so the prewarm takes exactly all of them and
  // the stream ends at the producer's first call.
  std::vector<TimedQuery> queries(40);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const TupleIndex a = 100 * i;
    queries[i].arrival = static_cast<double>(i);
    queries[i].query = MakeQuery(static_cast<QueryId>(i), 2.0,
                                 {{0, TupleRange{a, a + 300}}});
  }
  RunContract(queries, 40);
}

TEST(StreamAheadTest, OneQueryWithoutPrewarm) {
  RunContract(MixQueries(1, false), 0);
}

TEST(StreamAheadTest, EndsMidPublishBatch) {
  RunContract(MixQueries(3 * kQueryBatch + 37, false), 0);
  RunContract(MixQueries(3 * kQueryBatch + 37, false), 100);
}

TEST(StreamAheadTest, WrapsTheRingWithTheProducerParked) {
  RunContract(MixQueries(10 * kStreamAheadSlots, false), 50,
              /*stall=*/true);
}

/// Throws from Next at query `throw_at`.
class ThrowingStream : public QueryStream {
 public:
  explicit ThrowingStream(std::size_t throw_at)
      : queries_(MixQueries(throw_at, false)) {}
  bool Next(TimedQuery* out) override {
    if (next_ == queries_.size()) throw std::runtime_error("stream failed");
    *out = queries_[next_++];
    return true;
  }

 private:
  std::vector<TimedQuery> queries_;
  std::size_t next_ = 0;
};

TEST(StreamAheadTest, AnExceptionFromNextLeavesTheRun) {
  ThrowingStream stream(kQueryBatch + 5);
  NashDbSystem nash(TwoTables(), SmallEngine(64));
  MaxOfMinsRouter router;
  EXPECT_THROW(RunQueryStream(&stream, &nash, &router, StreamOptions(0)),
               std::runtime_error);
}

// ---------------------------------------------- the estimator worker

constexpr std::size_t kScanBatch = NashDbSystem::kScanRingSlots / 2;

/// Scans in `queries[begin, end)`, at least `min_scans` of them, ending
/// part-way into a publish batch of the worker's ring.
std::size_t QueriesForScans(const std::vector<TimedQuery>& queries,
                            std::size_t begin, std::size_t min_scans) {
  std::size_t scans = 0;
  std::size_t end = begin;
  while (end < queries.size() &&
         (scans < min_scans || scans % kScanBatch == 0)) {
    for (const Scan& s : queries[end].query.scans) {
      scans += s.range.empty() ? 0 : 1;
    }
    ++end;
  }
  return end;
}

/// Applies `query` to the reference estimator. Uncounted, so that the
/// value.* counters count only what the system under test observes.
void Apply(const Query& query, TupleValueEstimator* ref) {
  for (const Scan& s : query.scans) ref->AddScanUncounted(s);
}

void Feed(const std::vector<TimedQuery>& queries, std::size_t begin,
          std::size_t end, NashDbSystem* sys, TupleValueEstimator* ref) {
  for (std::size_t i = begin; i < end; ++i) {
    sys->Observe(queries[i].query);
    if (ref != nullptr) Apply(queries[i].query, ref);
  }
}

void ExpectSameScan(const Scan& a, const Scan& b) {
  EXPECT_EQ(a.table, b.table);
  EXPECT_EQ(a.range.start, b.range.start);
  EXPECT_EQ(a.range.end, b.range.end);
  EXPECT_EQ(a.price, b.price);
}

/// `got`'s window and every table's value profile equal `want`'s, bit for
/// bit.
void ExpectSameEstimator(const TupleValueEstimator& got,
                         const TupleValueEstimator& want) {
  ASSERT_EQ(got.window_scans(), want.window_scans());
  for (std::size_t i = 0; i < want.window_scans(); ++i) {
    ExpectSameScan(got.window()[i], want.window()[i]);
  }
  EXPECT_EQ(got.ActiveTables(), want.ActiveTables());
  for (const TableSpec& t : TwoTables().tables) {
    const ValueProfile g = got.Profile(t.id, t.tuples);
    const ValueProfile w = want.Profile(t.id, t.tuples);
    ASSERT_EQ(g.chunks().size(), w.chunks().size()) << "table " << t.id;
    for (std::size_t c = 0; c < w.chunks().size(); ++c) {
      EXPECT_EQ(g.chunks()[c].start, w.chunks()[c].start);
      EXPECT_EQ(g.chunks()[c].end, w.chunks()[c].end);
      EXPECT_EQ(g.chunks()[c].value, w.chunks()[c].value);
    }
  }
}

class EstimatorWorkerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::Registry::Global().Reset();
    metrics::Registry::Global().Enable();
  }
  void TearDown() override { metrics::Registry::Global().Disable(); }
};

// After the first build every Observe goes through the worker; the
// estimator read back equals one fed the same queries inline, and so do
// the scan counters, for a window that evicts and one that does not.
TEST_F(EstimatorWorkerTest, EstimatorMatchesInlineFeeding) {
  const std::vector<TimedQuery> queries = MixQueries(6000, true);
  for (const std::size_t window : {std::size_t{50}, std::size_t{1 << 14}}) {
    SCOPED_TRACE(::testing::Message() << "window " << window);
    metrics::Registry::Global().Reset();
    NashDbSystem sys(TwoTables(), SmallEngine(window));
    TupleValueEstimator ref(window);
    Feed(queries, 0, 20, &sys, &ref);  // the prewarm, applied inline
    sys.BuildConfig();
    std::size_t begin = 20;
    // Three reads, each landing part-way into a publish batch.
    for (const std::size_t scans : {3 * kScanBatch, kScanBatch / 3, std::size_t{5}}) {
      const std::size_t end = QueriesForScans(queries, begin, scans);
      Feed(queries, begin, end, &sys, &ref);
      begin = end;
      ExpectSameEstimator(sys.estimator(), ref);
    }
    const metrics::Registry& reg = metrics::Registry::Global();
    std::uint64_t scans = 0;
    for (std::size_t i = 0; i < begin; ++i) {
      for (const Scan& s : queries[i].query.scans) {
        scans += s.range.empty() ? 0 : 1;
      }
    }
    EXPECT_EQ(reg.CounterValue("value.scans_added"), scans);
    EXPECT_EQ(reg.CounterValue("value.scans_evicted"),
              scans > window ? scans - window : 0);
  }
}

/// The last build's snapshot, as its reconfiguration trace records it,
/// matches `ref`: the window's scan count, the tables it touches and
/// their distinct scan endpoints.
void ExpectSnapshotOf(const TupleValueEstimator& ref) {
  std::size_t endpoints = 0;
  for (const TableId t : ref.ActiveTables()) {
    endpoints += ref.tree(t)->node_count();
  }
  metrics::ReconfigTrace snapped;
  ASSERT_TRUE(metrics::Registry::Global().AnnotateLastReconfig(
      [&](metrics::ReconfigTrace& t) { snapped = t; }));
  EXPECT_EQ(snapped.window_scans, ref.window_scans());
  EXPECT_EQ(snapped.active_tables, ref.ActiveTables().size());
  EXPECT_EQ(snapped.tree_nodes, endpoints);
}

// A build's snapshot holds exactly the scans observed before the build,
// and Observe may continue while BuildConfigAsync runs.
TEST_F(EstimatorWorkerTest, BuildSnapshotsEveryScanObservedBefore) {
  const std::vector<TimedQuery> queries = MixQueries(6000, true);
  const std::size_t window = 1 << 14;  // never evicts: the count is exact
  NashDbSystem sys(TwoTables(), SmallEngine(window));
  TupleValueEstimator ref(window);
  Feed(queries, 0, 20, &sys, &ref);
  sys.BuildConfig();
  std::size_t begin = 20;
  for (const bool async : {true, false, true}) {
    const std::size_t end = QueriesForScans(queries, begin, 2 * kScanBatch);
    Feed(queries, begin, end, &sys, &ref);
    begin = end;
    if (async) {
      std::future<ClusterConfig> built = sys.BuildConfigAsync();
      // Observe while the build runs; the snapshot must not see these.
      const std::size_t more = QueriesForScans(queries, begin, kScanBatch);
      Feed(queries, begin, more, &sys, nullptr);
      built.get();
      ExpectSnapshotOf(ref);
      for (std::size_t i = begin; i < more; ++i) {
        Apply(queries[i].query, &ref);
      }
      begin = more;
    } else {
      sys.BuildConfig();
      ExpectSnapshotOf(ref);
    }
  }
  ExpectSameEstimator(sys.estimator(), ref);
}

// Reset with scans still in the ring: the next run starts from an empty
// estimator, observes inline until its first build, and sees none of
// the scans from before the Reset.
TEST_F(EstimatorWorkerTest, ResetWithScansPending) {
  const std::vector<TimedQuery> queries = MixQueries(3000, true);
  NashDbSystem sys(TwoTables(), SmallEngine(300));
  Feed(queries, 0, 20, &sys, nullptr);
  sys.BuildConfig();
  Feed(queries, 20, QueriesForScans(queries, 20, kScanBatch + 1), &sys,
       nullptr);
  sys.Reset();
  TupleValueEstimator ref(300);
  Feed(queries, 1000, 1010, &sys, &ref);
  ExpectSameEstimator(sys.estimator(), ref);
  sys.BuildConfig();
  const std::size_t end = QueriesForScans(queries, 1010, 2 * kScanBatch);
  Feed(queries, 1010, end, &sys, &ref);
  ExpectSameEstimator(sys.estimator(), ref);
}

// Destruction with scans still in the ring, published and not: the
// worker stops and is joined (clean under the sanitizers).
TEST_F(EstimatorWorkerTest, DestroyWithScansPending) {
  const std::vector<TimedQuery> queries = MixQueries(3000, true);
  for (const std::size_t scans : {kScanBatch / 2, 3 * kScanBatch + 11}) {
    auto sys = std::make_unique<NashDbSystem>(TwoTables(), SmallEngine(100));
    Feed(queries, 0, 20, sys.get(), nullptr);
    sys->BuildConfig();
    Feed(queries, 20, QueriesForScans(queries, 20, scans), sys.get(),
         nullptr);
    sys.reset();
  }
}

}  // namespace
}  // namespace nashdb
