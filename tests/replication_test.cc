#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/config_index.h"
#include "replication/cluster_config.h"
#include "replication/nash.h"
#include "replication/packer.h"
#include "replication/replication.h"

namespace nashdb {
namespace {

ReplicationParams Params(Money cost, TupleCount disk, std::size_t window,
                         std::size_t min_replicas = 0) {
  ReplicationParams p;
  p.node_cost = cost;
  p.node_disk = disk;
  p.window_scans = window;
  p.min_replicas = min_replicas;
  return p;
}

FragmentInfo Frag(TableId table, FragmentId idx, TupleIndex a, TupleIndex b,
                  Money value, std::size_t replicas = 0) {
  FragmentInfo f;
  f.table = table;
  f.index_in_table = idx;
  f.range = TupleRange{a, b};
  f.value = value;
  f.replicas = replicas;
  return f;
}

/// The placement built the checked way: AddNode and Place, replica by
/// replica, in list order.
ClusterConfig ByPlace(const ReplicationParams& params,
                      std::vector<FragmentInfo> fragments,
                      const std::vector<std::vector<FlatFragmentId>>& nodes) {
  std::vector<std::size_t> placed(fragments.size(), 0);
  for (const auto& list : nodes) {
    for (FlatFragmentId fid : list) ++placed[fid];
  }
  for (std::size_t f = 0; f < fragments.size(); ++f) {
    fragments[f].replicas = placed[f];
  }
  ClusterConfig config(params, std::move(fragments));
  for (const auto& list : nodes) {
    const NodeId node = config.AddNode();
    for (FlatFragmentId fid : list) config.Place(node, fid);
  }
  return config;
}

// ---------------------------------------------------------------- Eq. 9

TEST(IdealReplicasTest, MatchesFormula) {
  // Ideal = floor(|W| * Value * Disk / (Size * Cost)).
  const auto p = Params(/*cost=*/10.0, /*disk=*/1000, /*window=*/50);
  // 50 * 2.0 * 1000 / (100 * 10) = 100.
  EXPECT_EQ(IdealReplicas(2.0, 100, p), 100u);
  // 50 * 0.5 * 1000 / (400 * 10) = 6.25 -> 6.
  EXPECT_EQ(IdealReplicas(0.5, 400, p), 6u);
}

TEST(IdealReplicasTest, ProfitBoundary) {
  // At Ideal replicas, profit >= 0; at Ideal+1, profit < 0 — the marginal
  // condition behind Theorem 6.1.
  Rng rng(3);
  const auto p = Params(7.0, 5000, 50);
  for (int trial = 0; trial < 200; ++trial) {
    const Money value = rng.NextDouble() * 2.0;
    const TupleCount size = 1 + rng.Uniform(4999);
    const std::size_t ideal = IdealReplicas(value, size, p);
    const Money cost = ReplicaCost(size, p);
    if (ideal > 0) {
      EXPECT_GE(ReplicaIncome(value, ideal, p) - cost, -1e-9);
    }
    EXPECT_LT(ReplicaIncome(value, ideal + 1, p) - cost, 1e-9);
  }
}

TEST(IdealReplicasTest, ZeroValueMeansZeroReplicas) {
  const auto p = Params(10.0, 1000, 50);
  EXPECT_EQ(IdealReplicas(0.0, 100, p), 0u);
}

TEST(IdealReplicasTest, MinReplicasFloor) {
  const auto p = Params(10.0, 1000, 50, /*min_replicas=*/1);
  EXPECT_EQ(IdealReplicas(0.0, 100, p), 1u);
}

TEST(IdealReplicasTest, MaxReplicasCap) {
  auto p = Params(10.0, 1000, 50);
  p.max_replicas = 5;
  EXPECT_EQ(IdealReplicas(100.0, 10, p), 5u);
}

TEST(IdealReplicasTest, CeterisParibusMonotonicity) {
  // Paper §6: replicas increase with window, value, disk; decrease with
  // size and node cost.
  const auto base = Params(10.0, 1000, 50);
  const std::size_t r0 = IdealReplicas(1.0, 200, base);
  EXPECT_GE(IdealReplicas(2.0, 200, base), r0);
  EXPECT_GE(IdealReplicas(1.0, 100, base), r0);
  EXPECT_LE(IdealReplicas(1.0, 400, base), r0);
  EXPECT_GE(IdealReplicas(1.0, 200, Params(10.0, 2000, 50)), r0);
  EXPECT_LE(IdealReplicas(1.0, 200, Params(20.0, 1000, 50)), r0);
  EXPECT_GE(IdealReplicas(1.0, 200, Params(10.0, 1000, 100)), r0);
}

TEST(DecideReplicationTest, FillsAllFragments) {
  const auto p = Params(10.0, 1000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 100, 2.0),
                                     Frag(0, 1, 100, 500, 0.5)};
  DecideReplication(p, &frags);
  EXPECT_EQ(frags[0].replicas, IdealReplicas(2.0, 100, p));
  EXPECT_EQ(frags[1].replicas, IdealReplicas(0.5, 400, p));
}

// ----------------------------------------------------------------- BFFD

TEST(BffdTest, PacksValidConfiguration) {
  const auto p = Params(10.0, 1000, 50);
  std::vector<FragmentInfo> frags = {
      Frag(0, 0, 0, 400, 0.0, 3), Frag(0, 1, 400, 700, 0.0, 2),
      Frag(0, 2, 700, 1000, 0.0, 1)};
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->Valid());
}

TEST(BffdTest, NoNodeHoldsDuplicates) {
  const auto p = Params(10.0, 500, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 100, 0.0, 10)};
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->Valid());
  // 10 replicas of the same fragment need 10 distinct nodes, despite each
  // node having room for 5 copies.
  EXPECT_EQ(config->node_count(), 10u);
}

TEST(BffdTest, RespectsCapacity) {
  const auto p = Params(10.0, 100, 50);
  std::vector<FragmentInfo> frags = {
      Frag(0, 0, 0, 60, 0.0, 1), Frag(0, 1, 60, 120, 0.0, 1),
      Frag(0, 2, 120, 180, 0.0, 1)};
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  for (NodeId m = 0; m < config->node_count(); ++m) {
    EXPECT_LE(config->NodeUsage(m), 100u);
  }
  // 3 * 60 tuples at 100/node: needs >= 2 nodes, first-fit gives 3? No —
  // 60+60 > 100 so one per node.
  EXPECT_EQ(config->node_count(), 3u);
}

TEST(BffdTest, RejectsOversizedFragment) {
  const auto p = Params(10.0, 100, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 200, 0.0, 1)};
  auto config = PackReplicasBffd(p, frags);
  EXPECT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
}

TEST(BffdTest, ZeroReplicaFragmentsUnplaced) {
  const auto p = Params(10.0, 1000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 100, 0.0, 0),
                                     Frag(0, 1, 100, 200, 1.0, 2)};
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->Valid());
  EXPECT_TRUE(config->FragmentNodes(0).empty());
  EXPECT_EQ(config->FragmentNodes(1).size(), 2u);
}

TEST(BffdTest, AllZeroReplicaConfigIndexesEveryFragment) {
  // With min_replicas = 0 and no income, no fragment gets a replica and
  // the packer places nothing. The fragment->node index must still cover
  // every fragment: ConfigIndex reads it for each one.
  const auto p = Params(10.0, 1000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 100, 0.0, 0),
                                     Frag(0, 1, 100, 200, 0.0, 0)};
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config->node_count(), 0u);
  EXPECT_TRUE(config->FragmentNodes(0).empty());
  EXPECT_TRUE(config->FragmentNodes(1).empty());
  const ConfigIndex index(*config);
  EXPECT_EQ(index.config().fragments().size(), 2u);
}

TEST(BffdTest, NodeCountWithinTwiceLowerBound) {
  // BFFD has approximation factor 2 ([45]); check against the volume
  // lower bound ceil(total / disk) on random instances (the replica-count
  // lower bound can exceed the volume bound; take the max).
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = Params(10.0, 1000, 50);
    std::vector<FragmentInfo> frags;
    TupleCount total = 0;
    std::size_t max_reps = 0;
    TupleIndex cursor = 0;
    const int nf = 3 + static_cast<int>(rng.Uniform(10));
    for (int i = 0; i < nf; ++i) {
      const TupleCount size = 50 + rng.Uniform(900);
      const std::size_t reps = 1 + rng.Uniform(6);
      frags.push_back(Frag(0, static_cast<FragmentId>(i), cursor,
                           cursor + size, 0.0, reps));
      cursor += size;
      total += size * reps;
      max_reps = std::max(max_reps, reps);
    }
    auto config = PackReplicasBffd(p, frags);
    ASSERT_TRUE(config.ok());
    EXPECT_TRUE(config->Valid());
    const std::size_t volume_lb =
        static_cast<std::size_t>((total + 999) / 1000);
    const std::size_t lb = std::max(volume_lb, max_reps);
    EXPECT_LE(config->node_count(), 2 * lb + 1) << "trial " << trial;
  }
}

// ------------------------------------------------------- config & Nash

TEST(ClusterConfigTest, PlaceAndLookup) {
  const auto p = Params(10.0, 1000, 50);
  ClusterConfig config(p, {Frag(0, 0, 0, 100, 1.0, 1)});
  const NodeId n0 = config.AddNode();
  config.Place(n0, 0);
  EXPECT_TRUE(config.Holds(n0, 0));
  EXPECT_EQ(config.NodeUsage(n0), 100u);
  EXPECT_EQ(config.FragmentNodes(0), (std::vector<NodeId>{n0}));
  EXPECT_TRUE(config.Valid());
}

TEST(ClusterConfigTest, BitIdenticalComparesEveryFieldByBits) {
  const auto params = Params(5.0, 100, 50);
  const std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 40, 0.5),
                                           Frag(0, 1, 40, 80, 0.25)};
  const std::vector<std::vector<FlatFragmentId>> nodes = {{0, 1}, {1}};
  const ClusterConfig base = ByPlace(params, frags, nodes);
  EXPECT_TRUE(base.BitIdentical(ByPlace(params, frags, nodes)));

  // node_cost and value compare by their bits: -0.0 is not 0.0.
  EXPECT_FALSE(ByPlace(Params(0.0, 100, 50), frags, nodes)
                   .BitIdentical(ByPlace(Params(-0.0, 100, 50), frags, nodes)));
  EXPECT_FALSE(base.BitIdentical(ByPlace(Params(5.0, 100, 51), frags, nodes)));
  EXPECT_FALSE(
      base.BitIdentical(ByPlace(Params(5.0, 100, 50, 1), frags, nodes)));
  std::vector<FragmentInfo> value = frags;
  value[1].value = std::nextafter(0.25, 1.0);
  EXPECT_FALSE(base.BitIdentical(ByPlace(params, value, nodes)));
  std::vector<FragmentInfo> index = frags;
  index[1].index_in_table = 7;
  EXPECT_FALSE(base.BitIdentical(ByPlace(params, index, nodes)));

  // The same replicas per fragment on other node lists or in another order.
  EXPECT_FALSE(base.BitIdentical(ByPlace(params, frags, {{1, 0}, {1}})));
  EXPECT_FALSE(base.BitIdentical(ByPlace(params, frags, {{1}, {0, 1}})));
  EXPECT_FALSE(base.BitIdentical(ByPlace(params, frags, {{0, 1}, {1}, {}})));
}

TEST(ClusterConfigTest, CostPerPeriod) {
  const auto p = Params(12.5, 1000, 50);
  ClusterConfig config(p, {});
  config.AddNode();
  config.AddNode();
  EXPECT_NEAR(config.CostPerPeriod(), 25.0, 1e-12);
}

TEST(NashTest, PackedIdealConfigurationIsEquilibrium) {
  // Theorem 6.1: Eq. 9 replica counts + any placement = Nash equilibrium.
  Rng rng(88);
  for (int trial = 0; trial < 20; ++trial) {
    const auto p = Params(5.0, 2000, 50);
    std::vector<FragmentInfo> frags;
    TupleIndex cursor = 0;
    const int nf = 2 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < nf; ++i) {
      const TupleCount size = 100 + rng.Uniform(1900);
      const Money value = rng.NextDouble() * 3.0;
      frags.push_back(
          Frag(0, static_cast<FragmentId>(i), cursor, cursor + size, value));
      cursor += size;
    }
    DecideReplication(p, &frags);
    auto config = PackReplicasBffd(p, frags);
    ASSERT_TRUE(config.ok());
    const NashReport report = CheckNashEquilibrium(*config);
    EXPECT_TRUE(report.is_equilibrium) << report.violation;
  }
}

TEST(NashTest, OverReplicationViolatesCondition1) {
  const auto p = Params(5.0, 2000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 1000, 1.0)};
  DecideReplication(p, &frags);
  frags[0].replicas += 3;  // manufacture an over-replicated config
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  const NashReport report = CheckNashEquilibrium(*config);
  EXPECT_FALSE(report.is_equilibrium);
  EXPECT_NE(report.violation.find("condition 1"), std::string::npos);
}

TEST(NashTest, UnderReplicationViolatesCondition2) {
  const auto p = Params(5.0, 2000, 50);
  // Value chosen so profit at the ideal count is strictly positive (the
  // floor in Eq. 9 is not exact), making under-replication a strict
  // condition-2 violation.
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 1000, 1.01)};
  DecideReplication(p, &frags);
  ASSERT_GT(frags[0].replicas, 1u);
  frags[0].replicas -= 1;  // leave profit on the table
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  const NashReport report = CheckNashEquilibrium(*config);
  EXPECT_FALSE(report.is_equilibrium);
  EXPECT_NE(report.violation.find("condition 2"), std::string::npos);
}

TEST(NashTest, MinReplicaFloorExemption) {
  // A fragment pinned at 1 replica despite zero value violates pure
  // equilibrium, but passes when the availability floor is exempted.
  const auto p = Params(5.0, 2000, 50, /*min_replicas=*/1);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 500, 0.0),
                                     Frag(0, 1, 500, 1000, 1.0)};
  DecideReplication(p, &frags);
  auto config = PackReplicasBffd(p, frags);
  ASSERT_TRUE(config.ok());
  EXPECT_FALSE(CheckNashEquilibrium(*config, false).is_equilibrium);
  const NashReport exempted = CheckNashEquilibrium(*config, true);
  EXPECT_TRUE(exempted.is_equilibrium) << exempted.violation;
}

TEST(NashTest, NodeProfitSumsMargins) {
  const auto p = Params(5.0, 2000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 1000, 1.0, 2)};
  ClusterConfig config(p, frags);
  const NodeId n0 = config.AddNode();
  const NodeId n1 = config.AddNode();
  config.Place(n0, 0);
  config.Place(n1, 0);
  const Money expect =
      ReplicaIncome(1.0, 2, p) - ReplicaCost(1000, p);
  EXPECT_NEAR(NodeProfit(config, n0), expect, 1e-9);
  EXPECT_NEAR(NodeProfit(config, n1), expect, 1e-9);
}

TEST(PlacementBuilderTest, BuildsFromExplicitPlan) {
  const auto p = Params(5.0, 1000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 300, 1.0),
                                     Frag(0, 1, 300, 600, 1.0)};
  std::vector<std::vector<FlatFragmentId>> plan = {{0, 1}, {0}};
  auto config = BuildConfigFromPlacement(p, frags, plan);
  ASSERT_TRUE(config.ok());
  EXPECT_TRUE(config->Valid());
  EXPECT_EQ(config->fragment(0).replicas, 2u);
  EXPECT_EQ(config->fragment(1).replicas, 1u);
  EXPECT_EQ(config->node_count(), 2u);
}

TEST(PlacementBuilderTest, RejectsDuplicateOnNode) {
  const auto p = Params(5.0, 1000, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 300, 1.0)};
  auto config = BuildConfigFromPlacement(p, frags, {{0, 0}});
  EXPECT_FALSE(config.ok());
  EXPECT_EQ(config.status().message(), "duplicate replica on one node");
  // A fragment on two nodes is fine; twice on the second node is not.
  std::vector<FragmentInfo> two = {Frag(0, 0, 0, 10, 1.0),
                                   Frag(0, 1, 10, 20, 1.0)};
  auto later = BuildConfigFromPlacement(p, two, {{1}, {0, 1, 1}});
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(later.status().message(), "duplicate replica on one node");
  // A duplicate reached before the node overflows is the one reported.
  auto first = BuildConfigFromPlacement(Params(5.0, 500, 50),
                                        {Frag(0, 0, 0, 300, 1.0),
                                         Frag(0, 1, 300, 600, 1.0)},
                                        {{0, 0, 1}});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().message(), "duplicate replica on one node");
}

TEST(PlacementBuilderTest, RejectsOverCapacity) {
  const auto p = Params(5.0, 500, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 300, 1.0),
                                     Frag(0, 1, 300, 600, 1.0)};
  auto config = BuildConfigFromPlacement(p, frags, {{0, 1}});
  EXPECT_FALSE(config.ok());
  EXPECT_EQ(config.status().message(), "node over capacity");
  auto later = BuildConfigFromPlacement(p, frags, {{0}, {1}, {1, 0}});
  ASSERT_FALSE(later.ok());
  EXPECT_EQ(later.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(later.status().message(), "node over capacity");
  // An overflow reached before a duplicate is the one reported.
  auto first = BuildConfigFromPlacement(p, frags, {{0, 1, 1}});
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.status().message(), "node over capacity");
}

TEST(PlacementBuilderTest, RejectsUnknownFragmentBeforeAnyNodeCheck) {
  const auto p = Params(5.0, 500, 50);
  std::vector<FragmentInfo> frags = {Frag(0, 0, 0, 300, 1.0),
                                     Frag(0, 1, 300, 600, 1.0)};
  // The node before the unknown id holds a duplicate and is over
  // capacity; the unknown id is still what is reported.
  auto config = BuildConfigFromPlacement(p, frags, {{0, 1, 0}, {2}});
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(config.status().message(),
            "placement references unknown fragment");
}

// The one-pass builder against the Place path: same node lists, fragment
// lists, usage and replica counts, on random valid placements.
TEST(PlacementBuilderTest, MatchesPlacePathOnRandomPlacements) {
  Rng rng(23);
  for (int trial = 0; trial < 300; ++trial) {
    const TupleCount disk = 100 + rng.Uniform(200);
    const std::size_t n_frags = 1 + rng.Uniform(40);
    std::vector<FragmentInfo> frags;
    TupleIndex start = 0;
    for (std::size_t f = 0; f < n_frags; ++f) {
      // Sizes from 0 (an empty fragment) to the whole disk.
      const TupleCount size = rng.Uniform(disk + 1);
      frags.push_back(Frag(static_cast<TableId>(f % 3),
                           static_cast<FragmentId>(f), start, start + size,
                           rng.NextDouble()));
      start += size;
    }
    // Each node takes a random subset of the fragments in random order,
    // as long as it fits; some nodes stay empty.
    std::vector<std::vector<FlatFragmentId>> nodes(rng.Uniform(25));
    for (auto& list : nodes) {
      std::vector<FlatFragmentId> order(n_frags);
      for (std::size_t f = 0; f < n_frags; ++f) {
        order[f] = static_cast<FlatFragmentId>(f);
      }
      rng.Shuffle(&order);
      const std::size_t want = rng.Uniform(n_frags + 1);
      TupleCount used = 0;
      for (FlatFragmentId fid : order) {
        if (list.size() == want) break;
        if (used + frags[fid].size() > disk) continue;
        used += frags[fid].size();
        list.push_back(fid);
      }
    }
    const auto p = Params(5.0, disk, 50);
    auto built = BuildConfigFromPlacement(p, frags, nodes);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    const ClusterConfig oracle = ByPlace(p, frags, nodes);
    ASSERT_EQ(built->node_count(), oracle.node_count());
    for (NodeId m = 0; m < oracle.node_count(); ++m) {
      EXPECT_EQ(built->NodeFragments(m), oracle.NodeFragments(m));
      EXPECT_EQ(built->NodeUsage(m), oracle.NodeUsage(m));
    }
    for (FlatFragmentId f = 0; f < n_frags; ++f) {
      EXPECT_EQ(built->FragmentNodes(f), oracle.FragmentNodes(f));
      EXPECT_EQ(built->fragment(f).replicas, oracle.fragment(f).replicas);
    }
    EXPECT_TRUE(built->BitIdentical(oracle)) << "trial " << trial;
    EXPECT_TRUE(built->Valid());
  }
}

}  // namespace
}  // namespace nashdb
