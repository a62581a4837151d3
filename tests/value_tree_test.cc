#include <cmath>
#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "value/estimator.h"
#include "value/value_tree.h"

namespace nashdb {
namespace {

// Brute-force reference: cumulative raw value at x is the sum of
// normalized prices of scans containing x.
struct RefScan {
  TupleIndex start, end;
  Money np;
};

Money RefValueAt(const std::vector<RefScan>& scans, TupleIndex x) {
  Money v = 0.0;
  for (const RefScan& s : scans) {
    if (x >= s.start && x < s.end) v += s.np;
  }
  return v;
}

TEST(ValueTreeTest, EmptyTree) {
  ValueEstimationTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.node_count(), 0u);
  EXPECT_EQ(tree.RawValueAt(5), 0.0);
  int chunks = 0;
  tree.IterateValues([&](TupleIndex, TupleIndex, Money) { ++chunks; });
  EXPECT_EQ(chunks, 0);
}

// The worked example of paper §4.2 / Figure 2: three scans
//   s1 = [7, 10) price 6, s2 = [4, 10) price 3, s3 = [0, 5) price 5
// over a window of |W| = 3.
class PaperExampleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_.AddScan(7, 10, 6.0 / 3.0);   // s1: price 6, size 3
    tree_.AddScan(4, 10, 3.0 / 6.0);   // s2: price 3, size 6
    tree_.AddScan(0, 5, 5.0 / 5.0);    // s3: price 5, size 5
  }
  ValueEstimationTree tree_;
};

TEST_F(PaperExampleTest, NodeCountMatchesUniqueEndpoints) {
  // Keys: 0, 4, 5, 7, 10.
  EXPECT_EQ(tree_.node_count(), 5u);
}

TEST_F(PaperExampleTest, RawValuesMatchFigure2) {
  // Figure 2 annotates raw (un-averaged) tuple values 1, 1.5, .5, 2.5, 0.
  EXPECT_NEAR(tree_.RawValueAt(0), 1.0, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(3), 1.0, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(4), 1.5, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(5), 0.5, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(6), 0.5, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(7), 2.5, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(9), 2.5, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(10), 0.0, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(1000), 0.0, 1e-12);
}

TEST_F(PaperExampleTest, IterateValuesWalksAlgorithm1) {
  // Expected chunks (start, end, raw): (0,4,1), (4,5,1.5), (5,7,0.5),
  // (7,10,2.5). Averaged by |W|=3 in the paper's walkthrough.
  std::vector<std::tuple<TupleIndex, TupleIndex, Money>> chunks;
  tree_.IterateValues([&](TupleIndex s, TupleIndex e, Money v) {
    chunks.emplace_back(s, e, v);
  });
  ASSERT_EQ(chunks.size(), 4u);
  EXPECT_EQ(std::get<0>(chunks[0]), 0u);
  EXPECT_EQ(std::get<1>(chunks[0]), 4u);
  EXPECT_NEAR(std::get<2>(chunks[0]), 1.0, 1e-12);
  EXPECT_NEAR(std::get<2>(chunks[1]), 1.5, 1e-12);
  EXPECT_NEAR(std::get<2>(chunks[2]), 0.5, 1e-12);
  EXPECT_EQ(std::get<0>(chunks[3]), 7u);
  EXPECT_EQ(std::get<1>(chunks[3]), 10u);
  EXPECT_NEAR(std::get<2>(chunks[3]), 2.5, 1e-12);
}

TEST_F(PaperExampleTest, RemovingScansRestoresEmptyTree) {
  tree_.RemoveScan(7, 10, 6.0 / 3.0);
  tree_.RemoveScan(4, 10, 3.0 / 6.0);
  tree_.RemoveScan(0, 5, 5.0 / 5.0);
  EXPECT_TRUE(tree_.empty());
  EXPECT_EQ(tree_.RawValueAt(8), 0.0);
}

TEST_F(PaperExampleTest, PartialRemovalKeepsSharedEndpoints) {
  // s1 and s2 share endpoint 10; removing s1 must keep the node alive.
  tree_.RemoveScan(7, 10, 6.0 / 3.0);
  EXPECT_NEAR(tree_.RawValueAt(8), 0.5, 1e-12);
  EXPECT_NEAR(tree_.RawValueAt(4), 1.5, 1e-12);
  tree_.CheckInvariants();
}

TEST_F(PaperExampleTest, InvariantsHold) { tree_.CheckInvariants(); }

TEST(ValueTreeTest, OverlappingScansAtSameKeyAccumulate) {
  ValueEstimationTree tree;
  tree.AddScan(5, 10, 1.0);
  tree.AddScan(5, 10, 2.5);
  EXPECT_EQ(tree.node_count(), 2u);
  EXPECT_NEAR(tree.RawValueAt(7), 3.5, 1e-12);
  tree.RemoveScan(5, 10, 1.0);
  EXPECT_NEAR(tree.RawValueAt(7), 2.5, 1e-12);
  EXPECT_EQ(tree.node_count(), 2u);
}

TEST(ValueTreeTest, HeightStaysLogarithmic) {
  ValueEstimationTree tree;
  // Sorted insertion — the adversarial case for an unbalanced BST.
  const int n = 4096;
  for (int i = 0; i < n; ++i) {
    tree.AddScan(static_cast<TupleIndex>(2 * i),
                 static_cast<TupleIndex>(2 * i + 1), 1.0);
  }
  tree.CheckInvariants();
  // AVL height bound: ~1.44 log2(n). Node count is 2n.
  EXPECT_LE(tree.Height(), static_cast<int>(1.45 * std::log2(2.0 * n)) + 2);
}

TEST(ValueTreeTest, SizeBytesGrowsWithNodes) {
  ValueEstimationTree tree;
  const std::size_t empty = tree.SizeBytes();
  tree.AddScan(0, 10, 1.0);
  EXPECT_GT(tree.SizeBytes(), empty);
}

TEST(ValueTreeTest, RandomizedAgainstBruteForce) {
  Rng rng(99);
  ValueEstimationTree tree;
  std::vector<RefScan> live;

  for (int round = 0; round < 2000; ++round) {
    const bool remove = !live.empty() && rng.Bernoulli(0.4);
    if (remove) {
      const std::size_t i =
          static_cast<std::size_t>(rng.Uniform(live.size()));
      tree.RemoveScan(live[i].start, live[i].end, live[i].np);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      TupleIndex a = rng.Uniform(200);
      TupleIndex b = a + 1 + rng.Uniform(50);
      const Money np = 0.25 * static_cast<Money>(1 + rng.Uniform(8));
      tree.AddScan(a, b, np);
      live.push_back(RefScan{a, b, np});
    }
    if (round % 100 == 0) {
      tree.CheckInvariants();
      for (TupleIndex x = 0; x < 260; x += 7) {
        EXPECT_NEAR(tree.RawValueAt(x), RefValueAt(live, x), 1e-9)
            << "x=" << x << " round=" << round;
      }
    }
  }
  tree.CheckInvariants();
}

TEST(ValueTreeTest, IterateValuesTilesCoveredRegion) {
  Rng rng(123);
  ValueEstimationTree tree;
  std::vector<RefScan> live;
  for (int i = 0; i < 100; ++i) {
    TupleIndex a = rng.Uniform(1000);
    TupleIndex b = a + 1 + rng.Uniform(300);
    const Money np = 1.0;
    tree.AddScan(a, b, np);
    live.push_back(RefScan{a, b, np});
  }
  // Chunks must be in order, non-overlapping, and agree with brute force.
  TupleIndex last_end = 0;
  tree.IterateValues([&](TupleIndex s, TupleIndex e, Money v) {
    EXPECT_LT(s, e);
    EXPECT_GE(s, last_end);
    last_end = e;
    EXPECT_NEAR(v, RefValueAt(live, s), 1e-9);
    EXPECT_NEAR(v, RefValueAt(live, e - 1), 1e-9);
  });
}

TEST(ValueTreeTest, MoveConstruction) {
  ValueEstimationTree a;
  a.AddScan(0, 10, 2.0);
  ValueEstimationTree b(std::move(a));
  EXPECT_NEAR(b.RawValueAt(5), 2.0, 1e-12);
  EXPECT_EQ(b.node_count(), 2u);
}

// Regression: a scan whose normalized price is below the old epsilon
// (1e-12 — e.g. price 1e-6 over 1e7 tuples) used to be wiped from a shared
// key when a co-keyed large scan was removed: the magnitude snap zeroed the
// ~1e-13 residue, the node was deleted, and the tiny scan's own later
// eviction CHECK-failed on the missing node. Liveness is now decided by
// per-key contribution counts, so the node must survive and the tiny scan
// must remain individually removable.
TEST(ValueTreeTest, TinyPriceCoKeyedScanSurvivesLargeRemoval) {
  constexpr Money kTinyNp = 1e-13;
  ValueEstimationTree tree;
  tree.AddScan(0, 100, 1.0);     // keys 0 (S) and 100 (E)
  tree.AddScan(0, 50, kTinyNp);  // shares start key 0; adds key 50 (E)
  ASSERT_EQ(tree.node_count(), 3u);

  tree.RemoveScan(0, 100, 1.0);
  tree.CheckInvariants();
  // Key 0 still carries the tiny scan's S contribution; key 100 is gone.
  // The surviving accumulator holds (1.0 + 1e-13) - 1.0, i.e. the tiny
  // price up to double cancellation error — crucially nonzero and ~1e-13,
  // not snapped away.
  EXPECT_EQ(tree.node_count(), 2u);
  EXPECT_GT(tree.RawValueAt(25), 0.0);
  EXPECT_NEAR(tree.RawValueAt(25), kTinyNp, 1e-15);

  // The tiny scan's own eviction must find its node and empty the tree.
  tree.RemoveScan(0, 50, kTinyNp);
  tree.CheckInvariants();
  EXPECT_TRUE(tree.empty());
}

// Same latent crash, driven through the estimator's window eviction: with
// a window of 2, adding a third scan evicts the large co-keyed scan, and
// adding a fourth evicts the tiny one — which used to die on the node the
// first eviction deleted.
TEST(ValueTreeTest, TinyPriceScanSurvivesWindowEviction) {
  TupleValueEstimator est(2);
  auto scan = [](TupleIndex a, TupleIndex b, Money price) {
    Scan s;
    s.table = 0;
    s.range = TupleRange{a, b};
    s.price = price;
    return s;
  };
  est.AddScan(scan(0, 100, 100.0));  // np = 1.0
  est.AddScan(scan(0, 50, 5e-12));   // np = 1e-13, shares start key 0
  est.AddScan(scan(200, 300, 1.0));  // evicts the large scan
  est.tree(0)->CheckInvariants();
  est.AddScan(scan(200, 300, 1.0));  // evicts the tiny scan (crashed before)
  est.tree(0)->CheckInvariants();
  EXPECT_EQ(est.tree(0)->node_count(), 2u);  // only keys 200 and 300 remain
}

// When the last contributor of a key's accumulator leaves, the accumulator
// is snapped to exactly 0.0 — cancellation residue from unordered float
// adds must not leak into the value function.
TEST(ValueTreeTest, AccumulatorSnapsToZeroWhenLastContributorLeaves) {
  ValueEstimationTree tree;
  // a and b chosen so (a + b) - b - a != 0 in double arithmetic: without
  // the snap, key 10's E accumulator would keep the residue and skew
  // delta() for as long as the key stays alive through its S side.
  const Money a = 0.1, b = 1e17, c = 1.0;
  tree.AddScan(0, 10, a);
  tree.AddScan(0, 10, b);
  tree.AddScan(10, 20, c);  // key 10 now carries E(a + b) and S(c)
  tree.RemoveScan(0, 10, b);
  tree.RemoveScan(0, 10, a);  // E at key 10 loses its last contributor
  tree.CheckInvariants();     // checks e_count == 0 implies e == 0.0
  EXPECT_EQ(tree.RawValueAt(15), c);  // exactly c: no residue in delta
  tree.RemoveScan(10, 20, c);
  EXPECT_TRUE(tree.empty());
}

// ------------------------------------------------------- arena honesty

TEST(FlatTreeArenaTest, SizeBytesReportsArenaFootprint) {
  ValueEstimationTree tree;
  EXPECT_EQ(tree.SizeBytes(), 0u);
  // 100 scans over disjoint keys: 200 live nodes, 200 arena slots.
  for (TupleIndex i = 0; i < 100; ++i) {
    tree.AddScan(2 * i, 2 * i + 1, 1.0);
  }
  EXPECT_EQ(tree.node_count(), 200u);
  EXPECT_EQ(tree.arena_slots(), 200u);
  // SizeBytes covers the whole allocation (capacity), never less than the
  // occupied slots.
  EXPECT_GE(tree.SizeBytes(),
            tree.arena_slots() * sizeof(internal_value::FlatNode));
  const std::size_t at_peak = tree.SizeBytes();

  // Removing everything empties the tree but keeps the arena: SizeBytes
  // must keep reporting the held memory, not drop to node_count * size.
  for (TupleIndex i = 0; i < 100; ++i) {
    tree.RemoveScan(2 * i, 2 * i + 1, 1.0);
  }
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.SizeBytes(), at_peak);
  EXPECT_EQ(tree.arena_slots(), 200u);
  tree.CheckInvariants();

  // Steady state: re-adding recycles free-listed slots instead of growing
  // the arena — the allocation-free property the scan window relies on.
  for (TupleIndex i = 0; i < 100; ++i) {
    tree.AddScan(2 * i, 2 * i + 1, 1.0);
  }
  EXPECT_EQ(tree.node_count(), 200u);
  EXPECT_EQ(tree.arena_slots(), 200u);
  EXPECT_EQ(tree.SizeBytes(), at_peak);
  tree.CheckInvariants();
}

TEST(FlatTreeArenaTest, MovePreservesArenaAndValues) {
  ValueEstimationTree a;
  a.AddScan(1, 5, 2.0);
  a.AddScan(3, 9, 0.25);
  const Money at4 = a.RawValueAt(4);
  ValueEstimationTree b(std::move(a));
  EXPECT_EQ(b.node_count(), 4u);
  EXPECT_EQ(b.RawValueAt(4), at4);
  b.CheckInvariants();
}

}  // namespace
}  // namespace nashdb
