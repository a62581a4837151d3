#include <algorithm>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "replication/cluster_config.h"
#include "replication/node_data.h"
#include "replication/packer.h"
#include "transition/edge_cost.h"
#include "transition/hungarian.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

// ------------------------------------------------------------ Hungarian

double BruteForceAssignment(const std::vector<std::vector<double>>& cost) {
  const std::size_t n = cost.size();
  std::vector<std::size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e300;
  do {
    double c = 0.0;
    for (std::size_t i = 0; i < n; ++i) c += cost[i][perm[i]];
    best = std::min(best, c);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

CostMatrix FromRows(const std::vector<std::vector<double>>& rows) {
  CostMatrix m(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), m.row(i));
  }
  return m;
}

TEST(HungarianTest, TrivialOneByOne) {
  const auto result = SolveAssignment(FromRows({{7.0}}));
  EXPECT_EQ(result.assignment[0], 0u);
  EXPECT_NEAR(result.total_cost, 7.0, 1e-12);
}

TEST(HungarianTest, DiagonalIsOptimal) {
  const std::vector<std::vector<double>> cost = {
      {1.0, 9.0, 9.0}, {9.0, 1.0, 9.0}, {9.0, 9.0, 1.0}};
  const auto result = SolveAssignment(FromRows(cost));
  EXPECT_NEAR(result.total_cost, 3.0, 1e-12);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(result.assignment[i], i);
}

TEST(HungarianTest, AntiDiagonal) {
  const std::vector<std::vector<double>> cost = {{9.0, 1.0}, {1.0, 9.0}};
  const auto result = SolveAssignment(FromRows(cost));
  EXPECT_NEAR(result.total_cost, 2.0, 1e-12);
}

TEST(HungarianTest, AssignmentIsAPermutation) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 2 + rng.Uniform(8);
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    for (auto& row : cost) {
      for (double& c : row) c = rng.NextDouble() * 100.0;
    }
    const auto result = SolveAssignment(FromRows(cost));
    std::vector<bool> used(n, false);
    for (std::size_t j : result.assignment) {
      ASSERT_LT(j, n);
      EXPECT_FALSE(used[j]);
      used[j] = true;
    }
  }
}

TEST(HungarianTest, MatchesBruteForceOnRandomMatrices) {
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.Uniform(6);  // up to 7!
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    for (auto& row : cost) {
      for (double& c : row) {
        c = static_cast<double>(rng.Uniform(50));
      }
    }
    const auto result = SolveAssignment(FromRows(cost));
    EXPECT_NEAR(result.total_cost, BruteForceAssignment(cost), 1e-9)
        << "trial " << trial;
  }
}

TEST(HungarianTest, LargeInstanceRunsFast) {
  Rng rng(7);
  const std::size_t n = 300;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.NextDouble();
  }
  const auto result = SolveAssignment(FromRows(cost));
  EXPECT_EQ(result.assignment.size(), n);
}

// --------------------------------------------------------------- planner

ReplicationParams Params(TupleCount disk) {
  ReplicationParams p;
  p.node_cost = 10.0;
  p.node_disk = disk;
  p.window_scans = 50;
  return p;
}

// Builds a config with explicitly placed fragments (one table).
ClusterConfig ConfigOf(TupleCount disk,
                       const std::vector<std::vector<TupleRange>>& nodes) {
  std::vector<FragmentInfo> frags;
  std::vector<std::vector<FlatFragmentId>> plan(nodes.size());
  for (std::size_t m = 0; m < nodes.size(); ++m) {
    for (const TupleRange& r : nodes[m]) {
      // Reuse identical ranges as the same fragment.
      FlatFragmentId fid = static_cast<FlatFragmentId>(frags.size());
      for (FlatFragmentId i = 0; i < frags.size(); ++i) {
        if (frags[i].range == r) {
          fid = i;
          break;
        }
      }
      if (fid == frags.size()) {
        FragmentInfo f;
        f.table = 0;
        f.index_in_table = static_cast<FragmentId>(frags.size());
        f.range = r;
        f.value = 0.0;
        frags.push_back(f);
      }
      plan[m].push_back(fid);
    }
  }
  auto config = BuildConfigFromPlacement(Params(disk), frags, plan);
  return std::move(config).value();
}

TEST(NodeDataTest, TotalsAndDifference) {
  ClusterConfig a = ConfigOf(100, {{{0, 20}, {30, 50}}});
  ClusterConfig b = ConfigOf(100, {{{10, 40}}});
  const NodeData da = NodeData::Of(a, 0);
  const NodeData db = NodeData::Of(b, 0);
  EXPECT_EQ(da.TotalTuples(), 40u);
  EXPECT_EQ(db.TotalTuples(), 30u);
  // b \ a: [20,30) -> 10 tuples.
  EXPECT_EQ(db.TuplesNotIn(da), 10u);
  // a \ b: [0,10) + [40,50) -> 20 tuples.
  EXPECT_EQ(da.TuplesNotIn(db), 20u);
}

TEST(NodeDataTest, DifferentTablesDoNotOverlap) {
  std::vector<FragmentInfo> frags;
  FragmentInfo f0;
  f0.table = 0;
  f0.range = TupleRange{0, 50};
  FragmentInfo f1;
  f1.table = 1;
  f1.range = TupleRange{0, 50};
  frags = {f0, f1};
  auto ca = BuildConfigFromPlacement(Params(1000), frags, {{0}});
  auto cb = BuildConfigFromPlacement(Params(1000), frags, {{1}});
  const NodeData da = NodeData::Of(*ca, 0);
  const NodeData db = NodeData::Of(*cb, 0);
  EXPECT_EQ(db.TuplesNotIn(da), 50u);  // same range, different table
}

TEST(PlannerTest, IdentityTransitionIsFree) {
  ClusterConfig a =
      ConfigOf(100, {{{0, 20}}, {{30, 50}}, {{50, 75}}});
  const TransitionPlan plan = PlanTransition(a, a);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  EXPECT_EQ(plan.nodes_added, 0u);
  EXPECT_EQ(plan.nodes_removed, 0u);
}

TEST(PlannerTest, PaperFigure5Example) {
  // Old: m1 = {[0,20), [30,50)}, m2 = {[20,30), [30,50)}, m3 = {[0,20),
  // [50,75)}. New: m'1 = {[0,20), [20,35)}? — We reproduce the figure's
  // structure: old nodes hold {(0,20),(30,50)}, {(20,30),(30,50)},
  // {(0,20),(50,75)}; new nodes hold {(0,20)}, {(20,35)}, {(35,55)},
  // {(55,75)}... The figure's exact inventories aren't fully specified, so
  // we check the headline behaviour: 3 old -> 4 new nodes requires one
  // fresh provision, and the matching prefers maximal data reuse.
  ClusterConfig old_config = ConfigOf(
      100, {{{0, 20}, {30, 50}}, {{20, 30}, {30, 50}}, {{0, 20}, {50, 75}}});
  ClusterConfig new_config =
      ConfigOf(100, {{{0, 20}}, {{20, 35}}, {{35, 55}}, {{55, 75}}});
  const TransitionPlan plan = PlanTransition(old_config, new_config);
  EXPECT_EQ(plan.nodes_added, 1u);
  EXPECT_EQ(plan.nodes_removed, 0u);
  // New inventories total 20+15+20+20 = 75 tuples; the matching must beat
  // a full copy by reusing old data.
  EXPECT_LT(plan.total_transfer_tuples, 75u);
  // Hand-computed optimum: m1->[0,20):0, m2->[20,35):0 (m2 holds
  // [20,50)), m3->[55,75):0 (m3 holds [50,75)), dummy->[35,55):20.
  EXPECT_EQ(plan.total_transfer_tuples, 20u);
}

TEST(PlannerTest, ScaleUpProvisionsFreshNodes) {
  ClusterConfig old_config = ConfigOf(100, {{{0, 50}}});
  ClusterConfig new_config = ConfigOf(100, {{{0, 50}}, {{50, 100}}});
  const TransitionPlan plan = PlanTransition(old_config, new_config);
  EXPECT_EQ(plan.nodes_added, 1u);
  EXPECT_EQ(plan.total_transfer_tuples, 50u);  // only the new node's data
}

TEST(PlannerTest, ScaleDownIsFree) {
  ClusterConfig old_config = ConfigOf(100, {{{0, 50}}, {{50, 100}}});
  ClusterConfig new_config = ConfigOf(100, {{{0, 50}}});
  const TransitionPlan plan = PlanTransition(old_config, new_config);
  EXPECT_EQ(plan.nodes_removed, 1u);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
}

TEST(PlannerTest, FromEmptyClusterCopiesEverything) {
  ClusterConfig empty;
  ClusterConfig target = ConfigOf(100, {{{0, 60}}, {{60, 100}, {0, 20}}});
  const TransitionPlan plan = PlanTransition(empty, target);
  EXPECT_EQ(plan.nodes_added, 2u);
  EXPECT_EQ(plan.total_transfer_tuples, 60u + 40u + 20u);
}

TEST(PlannerTest, PrefersSimilarNodes) {
  // Two old nodes with very different contents; the matching must pair
  // each with its similar successor even though list order is swapped.
  ClusterConfig old_config = ConfigOf(100, {{{0, 50}}, {{50, 100}}});
  ClusterConfig new_config = ConfigOf(100, {{{50, 100}}, {{0, 50}}});
  const TransitionPlan plan = PlanTransition(old_config, new_config);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  for (const NodeTransition& move : plan.moves) {
    if (move.old_node == 0) {
      EXPECT_EQ(move.new_node, 1u);
    }
    if (move.old_node == 1) {
      EXPECT_EQ(move.new_node, 0u);
    }
  }
}

TEST(PlannerTest, TransferNeverExceedsFullCopy) {
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    // Random old/new configurations over [0, 200).
    auto random_config = [&]() {
      std::vector<std::vector<TupleRange>> nodes(1 + rng.Uniform(4));
      for (auto& node : nodes) {
        const TupleIndex a = rng.Uniform(150);
        const TupleIndex b = a + 10 + rng.Uniform(50);
        node.push_back(TupleRange{a, b});
      }
      return ConfigOf(500, nodes);
    };
    ClusterConfig old_config = random_config();
    ClusterConfig new_config = random_config();
    const TransitionPlan plan = PlanTransition(old_config, new_config);
    TupleCount full_copy = 0;
    for (NodeId m = 0; m < new_config.node_count(); ++m) {
      full_copy += NodeData::Of(new_config, m).TotalTuples();
    }
    EXPECT_LE(plan.total_transfer_tuples, full_copy);
  }
}

TEST(PlannerTest, EveryNewNodeAppearsExactlyOnce) {
  ClusterConfig old_config = ConfigOf(100, {{{0, 50}}, {{50, 100}}});
  ClusterConfig new_config =
      ConfigOf(100, {{{0, 30}}, {{30, 60}}, {{60, 100}}});
  const TransitionPlan plan = PlanTransition(old_config, new_config);
  std::vector<int> seen(new_config.node_count(), 0);
  for (const NodeTransition& move : plan.moves) {
    if (move.new_node != kInvalidNode) ++seen[move.new_node];
  }
  for (int c : seen) EXPECT_EQ(c, 1);
}

// ------------------------------------------------------------ edge cases

TEST(PlannerEdgeCaseTest, AllNewClusterIsFullCopyEverywhere) {
  // Old side empty: every new node is a fresh provision; the plan pays a
  // full copy of each node's holdings, nothing is removed.
  ClusterConfig empty;
  ClusterConfig target = ConfigOf(100, {{{0, 40}}, {{40, 100}}});
  const TransitionPlan plan = PlanTransition(empty, target);
  EXPECT_EQ(plan.nodes_added, 2u);
  EXPECT_EQ(plan.nodes_removed, 0u);
  EXPECT_EQ(plan.total_transfer_tuples, 100u);
  for (const NodeTransition& move : plan.moves) {
    EXPECT_EQ(move.old_node, kInvalidNode);
    ASSERT_NE(move.new_node, kInvalidNode);
    EXPECT_EQ(move.transfer_tuples,
              NodeData::Of(target, move.new_node).TotalTuples());
  }
}

TEST(PlannerEdgeCaseTest, FullDecommissionMovesNothing) {
  // New side empty: every old node is decommissioned at zero transfer.
  ClusterConfig old_config = ConfigOf(100, {{{0, 50}}, {{50, 100}}, {{0, 50}}});
  ClusterConfig empty;
  const TransitionPlan plan = PlanTransition(old_config, empty);
  EXPECT_EQ(plan.nodes_added, 0u);
  EXPECT_EQ(plan.nodes_removed, 3u);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  ASSERT_EQ(plan.moves.size(), 3u);
  for (const NodeTransition& move : plan.moves) {
    EXPECT_NE(move.old_node, kInvalidNode);
    EXPECT_EQ(move.new_node, kInvalidNode);
    EXPECT_EQ(move.transfer_tuples, 0u);
  }
}

TEST(PlannerEdgeCaseTest, BothSidesEmptyYieldsEmptyPlan) {
  ClusterConfig a, b;
  const TransitionPlan plan = PlanTransition(a, b);
  EXPECT_TRUE(plan.moves.empty());
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
}

TEST(PlannerEdgeCaseTest, ZeroFragmentConfigsStillMatchNodes) {
  // Nodes exist but store nothing (e.g. a padded fixed-size baseline
  // cluster): the matching must still pair them with zero transfer.
  ClusterConfig old_config = ConfigOf(100, {{}, {}});
  ClusterConfig new_config = ConfigOf(100, {{}});
  ASSERT_EQ(old_config.node_count(), 2u);
  ASSERT_EQ(new_config.node_count(), 1u);
  const TransitionPlan plan = PlanTransition(old_config, new_config);
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  EXPECT_EQ(plan.nodes_removed, 1u);
  std::size_t matched_new = 0;
  for (const NodeTransition& move : plan.moves) {
    if (move.new_node != kInvalidNode) ++matched_new;
  }
  EXPECT_EQ(matched_new, 1u);
}

TEST(PlannerEdgeCaseTest, DeadOldNodePricedAsEmpty) {
  // The failure-aware overload treats a crashed machine's holdings as
  // unreadable: matching it costs the same as a fresh provision, so the
  // matching prefers live donors when one exists.
  ClusterConfig old_config = ConfigOf(100, {{{0, 50}}, {{0, 50}}});
  ClusterConfig new_config = ConfigOf(100, {{{0, 50}}});
  std::vector<bool> dead = {true, false};
  const TransitionPlan plan = PlanTransition(old_config, new_config, &dead);
  // The live replica on old node 1 makes the copy free.
  EXPECT_EQ(plan.total_transfer_tuples, 0u);
  // All-dead old side: the new node pays a full re-copy (from the durable
  // base store).
  dead = {true, true};
  const TransitionPlan plan2 = PlanTransition(old_config, new_config, &dead);
  EXPECT_EQ(plan2.total_transfer_tuples, 50u);
}

// ------------------------------------------------------ edge-free plans

// A config of `nodes` nodes over eight fragments of 1-3 tuples placed at
// `base`, each node holding each fragment with probability 1/2: many
// nodes store the same number of tuples, and some store none.
ClusterConfig TiedUsageConfig(Rng& rng, std::size_t nodes, TupleIndex base) {
  std::vector<std::vector<TupleRange>> holdings(nodes);
  std::vector<TupleRange> fragments;
  for (TupleIndex k = 0; k < 8; ++k) {
    const TupleIndex start = base + 10 * k;
    fragments.push_back(TupleRange{start, start + 1 + rng.Uniform(3)});
  }
  for (std::vector<TupleRange>& node : holdings) {
    for (const TupleRange& r : fragments) {
      if (rng.Uniform(2) == 0) node.push_back(r);
    }
  }
  return ConfigOf(100, holdings);
}

// A plan over a graph with no edge is emitted in closed form; it must be
// exactly the Hungarian's plan on the dense matrix: every move in order,
// its transfer, and the plan's totals.
void ExpectClosedFormIsTheHungarianPlan(const ClusterConfig& old_config,
                                        const ClusterConfig& new_config,
                                        const std::vector<bool>* dead,
                                        const std::string& what) {
  const TransitionGraph graph =
      BuildTransitionGraph(old_config, new_config, dead);
  ASSERT_TRUE(graph.edges.empty()) << what;
  const CostMatrix cost = DenseCostMatrix(graph);
  const AssignmentResult want = SolveAssignment(cost);

  const TransitionPlan got = PlanTransition(old_config, new_config, dead);
  ASSERT_EQ(got.moves.size(), cost.n) << what;
  TupleCount total = 0;
  std::size_t added = 0;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < cost.n; ++i) {
    const std::size_t j = want.assignment[i];
    const NodeId old_node = i < graph.n_old ? static_cast<NodeId>(i)
                                            : kInvalidNode;
    const NodeId new_node = j < graph.n_new ? static_cast<NodeId>(j)
                                            : kInvalidNode;
    const auto transfer = static_cast<TupleCount>(cost(i, j));
    EXPECT_EQ(got.moves[i].old_node, old_node) << what << " move " << i;
    EXPECT_EQ(got.moves[i].new_node, new_node) << what << " move " << i;
    EXPECT_EQ(got.moves[i].transfer_tuples, transfer)
        << what << " move " << i;
    total += transfer;
    if (old_node == kInvalidNode) ++added;
    if (new_node == kInvalidNode) ++removed;
  }
  EXPECT_EQ(got.total_transfer_tuples, total) << what;
  EXPECT_EQ(got.nodes_added, added) << what;
  EXPECT_EQ(got.nodes_removed, removed) << what;
  EXPECT_FALSE(got.stats.used_sparse) << what;
}

TEST(EdgeFreePlanTest, BootstrapMatchesTheHungarian) {
  Rng rng(8080);
  const ClusterConfig empty;
  for (std::size_t nodes : {1, 2, 3, 7, 16, 40, 128, 256}) {
    ExpectClosedFormIsTheHungarianPlan(
        empty, TiedUsageConfig(rng, nodes, 0), nullptr,
        "bootstrap of " + std::to_string(nodes));
  }
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t nodes = 1 + rng.Uniform(48);
    ExpectClosedFormIsTheHungarianPlan(
        empty, TiedUsageConfig(rng, nodes, 0), nullptr,
        "bootstrap trial " + std::to_string(trial));
  }
  // Mostly distinct sizes: each node holds one range of 1-1000 tuples.
  for (std::size_t nodes : {5, 60, 200}) {
    std::vector<std::vector<TupleRange>> holdings(nodes);
    for (std::vector<TupleRange>& node : holdings) {
      node.push_back(TupleRange{0, 1 + rng.Uniform(1'000)});
    }
    ExpectClosedFormIsTheHungarianPlan(
        empty, ConfigOf(1'000, holdings), nullptr,
        "distinct sizes, " + std::to_string(nodes) + " nodes");
  }
}

TEST(EdgeFreePlanTest, AllDeadOldSidesMatchTheHungarian) {
  Rng rng(9090);
  for (const auto& [n_old, n_new] :
       {std::pair<std::size_t, std::size_t>{5, 12}, {12, 12}, {30, 9},
        {64, 1}, {1, 64}}) {
    const ClusterConfig old_config = TiedUsageConfig(rng, n_old, 0);
    const ClusterConfig new_config = TiedUsageConfig(rng, n_new, 0);
    const std::vector<bool> all_dead(n_old, true);
    ExpectClosedFormIsTheHungarianPlan(
        old_config, new_config, &all_dead,
        "all dead " + std::to_string(n_old) + " -> " +
            std::to_string(n_new));
  }
}

TEST(EdgeFreePlanTest, DisjointDataAndEmptyNewSideMatchTheHungarian) {
  // Live old nodes that share no tuple with the new ones, more old nodes
  // than new; and a new side with no node at all.
  Rng rng(7070);
  for (const auto& [n_old, n_new] :
       {std::pair<std::size_t, std::size_t>{20, 6}, {9, 9}, {3, 17}}) {
    ExpectClosedFormIsTheHungarianPlan(
        TiedUsageConfig(rng, n_old, 0), TiedUsageConfig(rng, n_new, 1'000),
        nullptr,
        "disjoint " + std::to_string(n_old) + " -> " +
            std::to_string(n_new));
  }
  const ClusterConfig empty;
  ExpectClosedFormIsTheHungarianPlan(TiedUsageConfig(rng, 11, 0), empty,
                                     nullptr, "empty new side");
}

TEST(EdgeFreePlanTest, BootstrapCountsItsPlanAndRunsNoSolve) {
  metrics::Registry& registry = metrics::Registry::Global();
  registry.Reset();
  registry.Enable();
  const ClusterConfig empty;
  const ClusterConfig target = ConfigOf(100, {{{0, 40}}, {{40, 100}}});
  (void)PlanTransition(empty, target);
  EXPECT_EQ(registry.CounterValue("transition.edge_free_plans"), 1u);
  EXPECT_EQ(registry.CounterValue("transition.dense_solves"), 0u);
  EXPECT_EQ(registry.histogram("transition.solve_ms")->count(), 0u);
  EXPECT_EQ(registry.CounterValue("transition.plans"), 1u);
  // A plan over a graph with edges still runs the Hungarian.
  (void)PlanTransition(target, target);
  EXPECT_EQ(registry.CounterValue("transition.edge_free_plans"), 1u);
  EXPECT_EQ(registry.CounterValue("transition.dense_solves"), 1u);
  EXPECT_EQ(registry.histogram("transition.solve_ms")->count(), 1u);
  registry.Disable();
  registry.Reset();
}

}  // namespace
}  // namespace nashdb
