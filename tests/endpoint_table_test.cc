// Differential tests of the estimator's EndpointTable against the paper's
// value estimation tree (ValueEstimationTree, the oracle). After every
// operation the two must emit the same Algorithm 1 chunk stream, bit for
// bit (EXPECT_EQ on every double), and store the same number of distinct
// keys. Then the same contract one level up: TupleValueEstimator's
// profiles against a scan window replayed into one tree per table.

#include <cstddef>
#include <deque>
#include <map>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "scenario/scenario.h"
#include "value/endpoint_table.h"
#include "value/estimator.h"
#include "value/value_tree.h"
#include "workload/streaming.h"

namespace nashdb {
namespace {

// Normalized prices 19 orders of magnitude apart, plus exact zeros: tiny
// ones fall below the chunk epsilon and cancel catastrophically against
// the huge ones, which is where a different accumulation order would
// show.
constexpr Money kPrices[] = {0.0,     1e-13, 1e-12, 5e-10, 1e-6,
                             0.03125, 1.0,   3.5,   1e3,   1e6};
constexpr std::size_t kPriceCount = sizeof(kPrices) / sizeof(kPrices[0]);

struct WindowScan {
  TupleIndex start;
  TupleIndex end;
  Money np;
};

WindowScan RandomScan(Rng* rng, TupleIndex key_space) {
  const TupleIndex start = rng->Uniform(key_space - 1);
  const TupleIndex end = start + 1 + rng->Uniform(key_space - 1 - start);
  return WindowScan{start, end, kPrices[rng->Uniform(kPriceCount)]};
}

using Chunk = std::tuple<TupleIndex, TupleIndex, Money>;

template <typename Store>
std::vector<Chunk> ChunksOf(const Store& store) {
  std::vector<Chunk> chunks;
  store.ForEachChunk([&](TupleIndex s, TupleIndex e, Money v) {
    chunks.emplace_back(s, e, v);
  });
  return chunks;
}

/// The contract: same key count, same chunk stream bit for bit.
void ExpectIdentical(const EndpointTable& table,
                     const ValueEstimationTree& tree) {
  table.CheckInvariants();
  ASSERT_EQ(table.node_count(), tree.node_count());
  EXPECT_EQ(table.empty(), tree.empty());
  const std::vector<Chunk> tc = ChunksOf(table);
  const std::vector<Chunk> rc = ChunksOf(tree);
  ASSERT_EQ(tc.size(), rc.size());
  for (std::size_t i = 0; i < tc.size(); ++i) {
    EXPECT_EQ(std::get<0>(tc[i]), std::get<0>(rc[i])) << "chunk " << i;
    EXPECT_EQ(std::get<1>(tc[i]), std::get<1>(rc[i])) << "chunk " << i;
    EXPECT_EQ(std::get<2>(tc[i]), std::get<2>(rc[i])) << "chunk " << i;
  }
}

/// Both stores, driven in lockstep and compared after every operation.
struct Pair {
  EndpointTable table;
  ValueEstimationTree tree;

  void Add(const WindowScan& s) {
    table.AddScan(s.start, s.end, s.np);
    tree.AddScan(s.start, s.end, s.np);
    ExpectIdentical(table, tree);
  }
  void Remove(const WindowScan& s) {
    table.RemoveScan(s.start, s.end, s.np);
    tree.RemoveScan(s.start, s.end, s.np);
    ExpectIdentical(table, tree);
  }
};

class EndpointTableVsTreeTest
    : public ::testing::TestWithParam<std::uint64_t> {};

// The estimator's access pattern: FIFO eviction from a bounded window,
// over a small key space so starts and ends collide constantly.
TEST_P(EndpointTableVsTreeTest, FifoWindowAdversarialPrices) {
  Rng rng(GetParam());
  Pair p;
  std::deque<WindowScan> window;
  const std::size_t window_cap = 1 + rng.Uniform(40);
  for (int step = 0; step < 400; ++step) {
    window.push_back(RandomScan(&rng, 64));
    p.Add(window.back());
    if (window.size() > window_cap) {
      p.Remove(window.front());
      window.pop_front();
    }
    if (HasFailure()) return;
  }
  while (!window.empty()) {
    p.Remove(window.front());
    window.pop_front();
  }
  EXPECT_TRUE(p.table.empty());
}

// Removal in arbitrary order: every probe-run shape of the backward shift.
TEST_P(EndpointTableVsTreeTest, RandomOrderRemoval) {
  Rng rng(GetParam() ^ 0xabcdef);
  Pair p;
  std::vector<WindowScan> live;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.Uniform(3) == 0) {
      const std::size_t i = rng.Uniform(live.size());
      const WindowScan s = live[i];
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
      p.Remove(s);
    } else {
      live.push_back(RandomScan(&rng, 48));
      p.Add(live.back());
    }
    if (HasFailure()) return;
  }
}

// Growth: a widening key space pushes the live-key count to new highs
// (the only time the table doubles) while scans keep leaving.
TEST_P(EndpointTableVsTreeTest, GrowthUnderChurn) {
  Rng rng(GetParam() * 7919);
  Pair p;
  std::deque<WindowScan> window;
  std::size_t high = 0;
  std::size_t capacity = p.table.capacity();
  for (int step = 0; step < 1500; ++step) {
    window.push_back(RandomScan(&rng, 8 + static_cast<TupleIndex>(step)));
    p.Add(window.back());
    if (p.table.capacity() != capacity) {
      EXPECT_GT(p.table.node_count(), high)
          << "grew without a new live-key high";
      capacity = p.table.capacity();
    }
    high = std::max(high, p.table.node_count());
    if (window.size() > 300 || rng.Uniform(4) == 0) {
      p.Remove(window.front());
      window.pop_front();
    }
    if (HasFailure()) return;
  }
  EXPECT_GE(p.table.capacity(), 2 * high);
  EXPECT_GT(high, 256u);  // the table doubled several times
}

INSTANTIATE_TEST_SUITE_P(Seeds, EndpointTableVsTreeTest,
                         ::testing::Range<std::uint64_t>(1, 9));

// A start and an end that share a key, and tiny prices co-keyed with
// large ones (value_tree_test's snap-to-zero cases): liveness follows the
// counts, and an accumulator whose last contributor leaves is exactly 0.
TEST(EndpointTableTest, SharedKeysAndSnapToZero) {
  Pair p;
  const Money a = 0.1, b = 1e17, c = 1.0;
  p.Add({0, 10, a});
  p.Add({0, 10, b});
  p.Add({10, 20, c});  // key 10 carries E(a + b) and S(c)
  p.Remove({0, 10, b});
  p.Remove({0, 10, a});  // E at key 10 loses its last contributor
  // (a + b) - b - a is not 0 in doubles: without the snap, the chunk
  // over [10, 20) would carry the residue.
  ASSERT_EQ(ChunksOf(p.table).size(), 1u);
  EXPECT_EQ(std::get<2>(ChunksOf(p.table)[0]), c);
  EXPECT_EQ(p.table.RawValueAt(15), c);
  p.Remove({10, 20, c});
  EXPECT_TRUE(p.table.empty());

  p.Add({0, 100, 1.0});
  p.Add({0, 50, 1e-13});  // shares start key 0
  p.Remove({0, 100, 1.0});
  EXPECT_EQ(p.table.node_count(), 2u);  // key 0 survives on the tiny scan
  EXPECT_GT(p.table.RawValueAt(25), 0.0);
  p.Remove({0, 50, 1e-13});
  EXPECT_TRUE(p.table.empty());
}

// The home slot of `key` in a table of `capacity` slots, as the table
// hashes it (a fixed Fibonacci multiplier keeping the top bits).
std::size_t HomeOf(TupleIndex key, std::size_t capacity) {
  int bits = 0;
  while ((std::size_t{1} << bits) < capacity) ++bits;
  return static_cast<std::size_t>(
      (static_cast<std::uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
      (64 - bits));
}

// Probe runs that wrap from the last slot to the first: keys homed at the
// last two slots of the initial 16-slot table, removed from the middle of
// their run, so the backward shift has to carry entries across the wrap.
TEST(EndpointTableTest, ProbeRunsThatWrapSurviveRemoval) {
  std::vector<TupleIndex> keys;
  for (TupleIndex k = 1; keys.size() < 7; ++k) {
    if (HomeOf(k, 16) >= 14) keys.push_back(k);
  }
  Pair p;
  // Pair the chosen keys up as (start, end) = (k0, k1), (k2, k3), ... so
  // the scans add only keys homed at the table's end; the last scan adds
  // one more end key, 8 keys in all.
  std::vector<WindowScan> scans;
  for (std::size_t i = 0; i + 1 < keys.size(); i += 2) {
    scans.push_back({keys[i], keys[i + 1], 1.0 + static_cast<Money>(i)});
  }
  scans.push_back({keys.back(), keys.back() + 1000000, 0.5});
  for (const WindowScan& s : scans) p.Add(s);
  ASSERT_EQ(p.table.capacity(), 16u);  // the premise: one 16-slot table
  // Remove from the front of the run first, then re-add and remove in
  // reverse: every entry's position relative to the wrap changes.
  for (const WindowScan& s : scans) p.Remove(s);
  for (const WindowScan& s : scans) p.Add(s);
  for (auto it = scans.rbegin(); it != scans.rend(); ++it) p.Remove(*it);
  EXPECT_TRUE(p.table.empty());
}

// 10^6 insert/evict pairs at a steady window: backward-shift deletion
// leaves no tombstones, so the table never grows past what the live-key
// high needs, and it still holds exactly the window. Prices are small
// dyadic values, so every accumulator is exact whatever its history and
// a tree built from the final window alone is a bit-exact oracle.
TEST(EndpointTableTest, MillionChurnPairsLeaveNoTombstones) {
  constexpr Money kDyadic[] = {0.5, 1.0, 2.0};
  constexpr std::size_t kWindow = 64;
  Rng rng(99);
  EndpointTable table;
  std::deque<WindowScan> window;
  std::size_t high = 0;
  for (int step = 0; step < 1'000'000; ++step) {
    const TupleIndex start = rng.Uniform(1u << 30);
    window.push_back({start, start + 1 + rng.Uniform(1u << 20),
                      kDyadic[rng.Uniform(3)]});
    table.AddScan(window.back().start, window.back().end, window.back().np);
    high = std::max(high, table.node_count());
    if (window.size() > kWindow) {
      const WindowScan& old = window.front();
      table.RemoveScan(old.start, old.end, old.np);
      window.pop_front();
    }
  }
  ValueEstimationTree tree;
  for (const WindowScan& s : window) tree.AddScan(s.start, s.end, s.np);
  ExpectIdentical(table, tree);
  EXPECT_LE(high, 2 * (kWindow + 1));
  // Load <= 1/2 of the smallest power of two that holds the high.
  std::size_t need = 16;
  while (need < 2 * high) need *= 2;
  EXPECT_EQ(table.capacity(), need);
}

TEST(EndpointTableTest, RemovingAnAbsentScanAborts) {
  EndpointTable table;
  EXPECT_DEATH(table.RemoveScan(5, 15, 1.0), "RemoveScan");
  table.AddScan(0, 10, 1.0);
  EXPECT_DEATH(table.RemoveScan(5, 15, 1.0), "RemoveScan");
}

// ------------------------------------------------- estimator vs reference

Scan MakeScan(TableId table, TupleIndex start, TupleIndex end, Money price) {
  Scan s;
  s.table = table;
  s.range = TupleRange{start, end};
  s.price = price;
  return s;
}

/// The estimator's definition, replayed: a FIFO window of |W| scans and
/// one ValueEstimationTree per table, a table dropped when it empties.
class ReferenceEstimator {
 public:
  explicit ReferenceEstimator(std::size_t window) : window_(window) {}

  void AddScan(const Scan& s) {
    if (s.range.empty()) return;
    if (buffer_.size() == window_) {
      const Scan& old = buffer_.front();
      ValueEstimationTree& t = trees_.at(old.table);
      t.RemoveScan(old.range.start, old.range.end, old.NormalizedPrice());
      if (t.empty()) trees_.erase(old.table);
      buffer_.pop_front();
    }
    buffer_.push_back(s);
    trees_[s.table].AddScan(s.range.start, s.range.end, s.NormalizedPrice());
  }

  ValueProfile Profile(TableId table, TupleCount table_size) const {
    std::vector<ValueChunk> chunks;
    auto it = trees_.find(table);
    if (it != trees_.end() && !buffer_.empty()) {
      const Money w = static_cast<Money>(buffer_.size());
      it->second.ForEachChunk([&](TupleIndex s, TupleIndex e, Money raw) {
        chunks.push_back(ValueChunk{s, e, raw / w});
      });
    }
    return ValueProfile::FromSparseChunks(table_size, std::move(chunks));
  }

  std::vector<TableId> ActiveTables() const {
    std::vector<TableId> tables;
    for (const auto& [t, tree] : trees_) {
      (void)tree;
      tables.push_back(t);
    }
    return tables;
  }

  std::size_t NodeCount(TableId table) const {
    auto it = trees_.find(table);
    return it == trees_.end() ? 0 : it->second.node_count();
  }

 private:
  std::size_t window_;
  std::deque<Scan> buffer_;
  std::map<TableId, ValueEstimationTree> trees_;
};

void ExpectSameProfile(const ValueProfile& got, const ValueProfile& want) {
  ASSERT_EQ(got.table_size(), want.table_size());
  ASSERT_EQ(got.chunks().size(), want.chunks().size());
  for (std::size_t i = 0; i < got.chunks().size(); ++i) {
    EXPECT_EQ(got.chunks()[i].start, want.chunks()[i].start) << i;
    EXPECT_EQ(got.chunks()[i].end, want.chunks()[i].end) << i;
    EXPECT_EQ(got.chunks()[i].value, want.chunks()[i].value) << i;
  }
}

void ExpectSameEstimates(const TupleValueEstimator& est,
                         const ReferenceEstimator& ref,
                         const std::map<TableId, TupleCount>& tables) {
  EXPECT_EQ(est.ActiveTables(), ref.ActiveTables());
  for (const auto& [table, size] : tables) {
    const EndpointTable* store = est.tree(table);
    EXPECT_EQ(store == nullptr ? 0 : store->node_count(),
              ref.NodeCount(table));
    ExpectSameProfile(est.Profile(table, size), ref.Profile(table, size));
  }
}

// Several tables of different sizes; table 3 stops receiving scans
// midway, so the window drains it and it must drop out of both.
TEST(EstimatorVsReferenceTest, ProfilesMatchOnEveryTable) {
  const std::map<TableId, TupleCount> tables = {
      {0, 1000}, {1, 64}, {2, 100000}, {3, 500}};
  TupleValueEstimator est(40);
  ReferenceEstimator ref(40);
  Rng rng(5);
  for (int step = 0; step < 2000; ++step) {
    TableId t = static_cast<TableId>(rng.Uniform(4));
    if (step >= 1000 && t == 3) t = 0;  // table 3 empties out
    const TupleCount n = tables.at(t);
    const TupleIndex a = rng.Uniform(n);
    const Scan s = MakeScan(t, a, a + 1 + rng.Uniform(n - a),
                            kPrices[rng.Uniform(kPriceCount)] *
                                static_cast<Money>(1 + rng.Uniform(50)));
    est.AddScan(s);
    ref.AddScan(s);
    if (step % 10 == 0) ExpectSameEstimates(est, ref, tables);
    if (HasFailure()) return;
  }
  ExpectSameEstimates(est, ref, tables);
  EXPECT_EQ(est.tree(3), nullptr);
}

// The stream workload's regime: e2ebench's stream spec (streaming_10m at
// 10^6 queries) with the default |W| = 250. Replays its first 50k scans
// and compares the profile every 1000th scan.
TEST(EstimatorVsReferenceTest, StreamWorkloadFirst50kScans) {
  const Result<ScenarioSpec> spec = ScenarioSpec::Parse(
      "[workload]\nqueries = 1000000\ndb_gb = 100\ntuples_per_gb = 100\n"
      "price = 1.0\nduration_s = 259200\nscan_frac = 0.02\n"
      "stream_seed = 23\n[phase]\nkind = diurnal\nperiod_s = 86400\n"
      "amplitude = 0.5\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  PhasedQueryStream stream(spec->workload);
  const TableSpec& table = stream.dataset().tables.at(0);
  TupleValueEstimator est(spec->window);
  ReferenceEstimator ref(spec->window);
  std::size_t scans = 0;
  TimedQuery tq;
  while (scans < 50000 && stream.Next(&tq)) {
    for (const Scan& s : tq.query.scans) {
      est.AddScan(s);
      ref.AddScan(s);
      if (++scans % 1000 == 0) {
        ExpectSameEstimates(est, ref, {{table.id, table.tuples}});
        if (HasFailure()) return;
      }
    }
  }
  EXPECT_GE(scans, 50000u);
}

}  // namespace
}  // namespace nashdb
