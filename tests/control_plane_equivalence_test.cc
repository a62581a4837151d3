// Equivalence suite for the two control-plane checks every round runs:
// the §7 overlap graph (BuildTransitionGraph) and the §6 equilibrium
// audit (CheckNashEquilibrium). Each production version must reproduce
// its reference implementation exactly: the graph's sizes, totals and
// edge list in order, and the audit's verdict, first-violation message
// and total profit as the same double.
//
// The references below are the earlier implementations, kept verbatim as
// oracles: a per-table interval plane sweep that materializes every
// (old, new, overlap) triple and sorts them into edges, and the O(R·F)
// brute-force audit of all four conditions.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/random.h"
#include "replication/cluster_config.h"
#include "replication/nash.h"
#include "replication/node_data.h"
#include "replication/packer.h"
#include "replication/replication.h"
#include "transition/edge_cost.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

// ---------------------------------------------------- graph oracle (sweep)

struct TaggedInterval {
  TableId table = 0;
  TupleRange range;
  NodeId node = kInvalidNode;
};

bool TaggedLess(const TaggedInterval& a, const TaggedInterval& b) {
  if (a.table != b.table) return a.table < b.table;
  if (a.range.start != b.range.start) return a.range.start < b.range.start;
  return a.node < b.node;
}

std::vector<TaggedInterval> FlattenIntervals(
    const ClusterConfig& config, const std::vector<bool>* skip_dead,
    std::vector<TupleCount>* totals_out) {
  const std::size_t n = config.node_count();
  if (totals_out != nullptr) totals_out->assign(n, 0);
  std::vector<TaggedInterval> flat;
  for (NodeId m = 0; m < n; ++m) {
    if (skip_dead != nullptr && m < skip_dead->size() && (*skip_dead)[m]) {
      continue;
    }
    const NodeData data = NodeData::Of(config, m);
    for (const NodeData::Interval& iv : data.intervals()) {
      flat.push_back(TaggedInterval{iv.table, iv.range, m});
      if (totals_out != nullptr) (*totals_out)[m] += iv.range.size();
    }
  }
  std::sort(flat.begin(), flat.end(), TaggedLess);
  return flat;
}

void PruneExpired(std::vector<const TaggedInterval*>* active,
                  TableId table, TupleIndex start) {
  std::size_t keep = 0;
  for (const TaggedInterval* iv : *active) {
    if (iv->table == table && iv->range.end > start) {
      (*active)[keep++] = iv;
    }
  }
  active->resize(keep);
}

TransitionGraph OracleTransitionGraph(const ClusterConfig& old_config,
                                      const ClusterConfig& new_config,
                                      const std::vector<bool>* old_node_dead) {
  TransitionGraph graph;
  graph.n_old = old_config.node_count();
  graph.n_new = new_config.node_count();

  const std::vector<TaggedInterval> old_ivs =
      FlattenIntervals(old_config, old_node_dead, nullptr);
  const std::vector<TaggedInterval> new_ivs =
      FlattenIntervals(new_config, nullptr, &graph.new_total);
  if (old_ivs.empty() || new_ivs.empty()) return graph;

  std::vector<const TaggedInterval*> active_old, active_new;
  std::vector<TransitionEdge> raw;
  std::size_t io = 0, in = 0;
  while (io < old_ivs.size() || in < new_ivs.size()) {
    const bool take_old =
        in >= new_ivs.size() ||
        (io < old_ivs.size() && TaggedLess(old_ivs[io], new_ivs[in]));
    const TaggedInterval& cur = take_old ? old_ivs[io++] : new_ivs[in++];
    std::vector<const TaggedInterval*>* other =
        take_old ? &active_new : &active_old;
    PruneExpired(other, cur.table, cur.range.start);
    for (const TaggedInterval* iv : *other) {
      const TupleCount overlap = cur.range.Intersect(iv->range).size();
      if (overlap == 0) continue;
      raw.push_back(take_old
                        ? TransitionEdge{cur.node, iv->node, overlap}
                        : TransitionEdge{iv->node, cur.node, overlap});
    }
    std::vector<const TaggedInterval*>* own =
        take_old ? &active_old : &active_new;
    PruneExpired(own, cur.table, cur.range.start);
    own->push_back(&cur);
  }

  std::sort(raw.begin(), raw.end(),
            [](const TransitionEdge& a, const TransitionEdge& b) {
              if (a.new_node != b.new_node) return a.new_node < b.new_node;
              return a.old_node < b.old_node;
            });
  for (const TransitionEdge& e : raw) {
    if (!graph.edges.empty() && graph.edges.back().new_node == e.new_node &&
        graph.edges.back().old_node == e.old_node) {
      graph.edges.back().overlap += e.overlap;
    } else {
      graph.edges.push_back(e);
    }
  }
  return graph;
}

// ------------------------------------------------ audit oracle (brute force)

constexpr Money kEps = 1e-9;

Money MarginalProfitHeld(const ClusterConfig& config, FlatFragmentId fid) {
  const FragmentInfo& f = config.fragment(fid);
  return ReplicaIncome(f.value, f.replicas, config.params()) -
         ReplicaCost(f.size(), config.params());
}

Money MarginalProfitAdded(const ClusterConfig& config, FlatFragmentId fid) {
  const FragmentInfo& f = config.fragment(fid);
  return ReplicaIncome(f.value, f.replicas + 1, config.params()) -
         ReplicaCost(f.size(), config.params());
}

NashReport OracleNashEquilibrium(const ClusterConfig& config,
                                 bool exempt_min_replicas) {
  NashReport report;
  const auto& params = config.params();

  auto fail = [&report](const std::string& why) {
    report.is_equilibrium = false;
    if (report.violation.empty()) report.violation = why;
  };

  auto floor_pinned = [&](FlatFragmentId fid) {
    const FragmentInfo& f = config.fragment(fid);
    return exempt_min_replicas && f.replicas <= params.min_replicas &&
           IdealReplicas(f.value, f.size(),
                         ReplicationParams{params.node_cost, params.node_disk,
                                           params.window_scans,
                                           /*min_replicas=*/0,
                                           params.max_replicas}) < f.replicas;
  };

  for (NodeId node = 0; node < config.node_count(); ++node) {
    report.total_profit += NodeProfit(config, node);
  }

  for (FlatFragmentId fid = 0; fid < config.fragments().size(); ++fid) {
    const FragmentInfo& f = config.fragment(fid);
    if (f.replicas == 0) continue;
    if (floor_pinned(fid)) continue;
    if (MarginalProfitHeld(config, fid) < -kEps) {
      std::ostringstream os;
      os << "condition 1 violated: dropping a replica of fragment " << fid
         << " gains " << -MarginalProfitHeld(config, fid);
      fail(os.str());
    }
  }

  for (FlatFragmentId fid = 0; fid < config.fragments().size(); ++fid) {
    const FragmentInfo& f = config.fragment(fid);
    if (params.max_replicas > 0 && f.replicas >= params.max_replicas) {
      continue;
    }
    if (MarginalProfitAdded(config, fid) > kEps) {
      std::ostringstream os;
      os << "condition 2 violated: adding a replica of fragment " << fid
         << " gains " << MarginalProfitAdded(config, fid);
      fail(os.str());
    }
  }

  for (NodeId node = 0; node < config.node_count(); ++node) {
    for (FlatFragmentId held : config.NodeFragments(node)) {
      if (floor_pinned(held)) continue;
      const Money drop_loss = MarginalProfitHeld(config, held);
      for (FlatFragmentId other = 0; other < config.fragments().size();
           ++other) {
        if (other == held || config.Holds(node, other)) continue;
        const Money add_gain = MarginalProfitAdded(config, other);
        if (add_gain - drop_loss > kEps) {
          std::ostringstream os;
          os << "condition 3 violated: node " << node << " swaps " << held
             << " for " << other << " gaining " << (add_gain - drop_loss);
          fail(os.str());
        }
      }
    }
  }

  for (FlatFragmentId fid = 0; fid < config.fragments().size(); ++fid) {
    if (MarginalProfitAdded(config, fid) > kEps) {
      std::ostringstream os;
      os << "condition 4 violated: an entrant profits from fragment " << fid;
      fail(os.str());
    }
  }

  return report;
}

// ------------------------------------------------------------- helpers

ReplicationParams Params(TupleCount disk) {
  ReplicationParams p;
  p.node_cost = 10.0;
  p.node_disk = disk;
  p.window_scans = 50;
  p.min_replicas = 0;
  return p;
}

// Random tiling of `tables` tables of `table_size` tuples, fragment
// lengths uniform in [min_frag, max_frag], replica counts uniform in
// [min_replicas, max_replicas].
std::vector<FragmentInfo> RandomTiling(Rng& rng, std::size_t tables,
                                       TupleCount table_size,
                                       TupleCount min_frag,
                                       TupleCount max_frag,
                                       std::size_t min_replicas,
                                       std::size_t max_replicas) {
  std::vector<FragmentInfo> frags;
  for (std::size_t t = 0; t < tables; ++t) {
    TupleCount start = 0;
    FragmentId index = 0;
    while (start < table_size) {
      const TupleCount len = std::min<TupleCount>(
          table_size - start, rng.UniformRange(min_frag, max_frag + 1));
      FragmentInfo f;
      f.table = static_cast<TableId>(t);
      f.index_in_table = index++;
      f.range = TupleRange{start, start + len};
      f.value = 1.0;
      f.replicas = min_replicas + rng.Uniform(max_replicas - min_replicas + 1);
      frags.push_back(f);
      start += len;
    }
  }
  return frags;
}

ClusterConfig Pack(const ReplicationParams& params,
                   std::vector<FragmentInfo> frags) {
  auto config = PackReplicasBffd(params, std::move(frags));
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return std::move(config).value();
}

void ExpectSameGraph(const ClusterConfig& old_config,
                     const ClusterConfig& new_config,
                     const std::vector<bool>* dead, const std::string& what) {
  const TransitionGraph want =
      OracleTransitionGraph(old_config, new_config, dead);
  const TransitionGraph got =
      BuildTransitionGraph(old_config, new_config, dead);
  EXPECT_EQ(got.n_old, want.n_old) << what;
  EXPECT_EQ(got.n_new, want.n_new) << what;
  EXPECT_EQ(got.new_total, want.new_total) << what;
  ASSERT_EQ(got.edges.size(), want.edges.size()) << what;
  for (std::size_t e = 0; e < want.edges.size(); ++e) {
    ASSERT_EQ(got.edges[e].old_node, want.edges[e].old_node)
        << what << " edge " << e;
    ASSERT_EQ(got.edges[e].new_node, want.edges[e].new_node)
        << what << " edge " << e;
    ASSERT_EQ(got.edges[e].overlap, want.edges[e].overlap)
        << what << " edge " << e;
  }
}

NashReport ExpectSameAudit(const ClusterConfig& config, bool exempt,
                           const std::string& what) {
  const NashReport want = OracleNashEquilibrium(config, exempt);
  const NashReport got = CheckNashEquilibrium(config, exempt);
  EXPECT_EQ(got.is_equilibrium, want.is_equilibrium) << what;
  EXPECT_EQ(got.violation, want.violation) << what;
  EXPECT_EQ(got.total_profit, want.total_profit) << what;
  return got;
}

// --------------------------------------------------------------- graph

TEST(GraphEquivalenceTest, RandomTilings) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const ClusterConfig old_config =
        Pack(Params(150), RandomTiling(rng, 3, 500, 5, 60, 1, 3));
    const ClusterConfig new_config =
        Pack(Params(150), RandomTiling(rng, 3, 500, 5, 60, 1, 3));
    ExpectSameGraph(old_config, new_config, nullptr,
                    "trial " + std::to_string(trial));
  }
}

TEST(GraphEquivalenceTest, DeadOldNodes) {
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const ClusterConfig old_config =
        Pack(Params(150), RandomTiling(rng, 2, 500, 10, 50, 1, 3));
    const ClusterConfig new_config =
        Pack(Params(150), RandomTiling(rng, 2, 500, 10, 50, 1, 3));
    std::vector<bool> dead(old_config.node_count(), false);
    for (std::size_t m = 0; m < dead.size(); ++m) {
      dead[m] = rng.Uniform(3) == 0;
    }
    // A short mask leaves the nodes past its end live.
    if (trial % 4 == 3) dead.resize(dead.size() / 2);
    ExpectSameGraph(old_config, new_config, &dead,
                    "dead trial " + std::to_string(trial));
    const std::vector<bool> all_dead(old_config.node_count(), true);
    const TransitionGraph graph =
        BuildTransitionGraph(old_config, new_config, &all_dead);
    EXPECT_TRUE(graph.edges.empty());
    ExpectSameGraph(old_config, new_config, &all_dead,
                    "all-dead trial " + std::to_string(trial));
  }
}

TEST(GraphEquivalenceTest, DivergingTables) {
  // The new epoch drops table 0 and adds table 3; table sizes differ too,
  // so one side's tiling runs past the other's.
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<FragmentInfo> old_frags =
        RandomTiling(rng, 3, 400, 10, 60, 1, 2);
    std::vector<FragmentInfo> new_frags =
        RandomTiling(rng, 3, 300 + 50 * trial, 10, 60, 1, 2);
    for (FragmentInfo& f : new_frags) f.table += 1;
    ExpectSameGraph(Pack(Params(120), std::move(old_frags)),
                    Pack(Params(120), std::move(new_frags)), nullptr,
                    "diverge trial " + std::to_string(trial));
  }
}

TEST(GraphEquivalenceTest, EmptySides) {
  Rng rng(5);
  const ClusterConfig config =
      Pack(Params(100), RandomTiling(rng, 2, 300, 10, 40, 1, 2));
  const ClusterConfig empty;
  // Fragments but no placements: every replica count is zero.
  std::vector<FragmentInfo> unplaced = RandomTiling(rng, 2, 300, 10, 40, 0, 0);
  const ClusterConfig no_nodes = Pack(Params(100), std::move(unplaced));
  ASSERT_EQ(no_nodes.node_count(), 0u);
  ExpectSameGraph(empty, config, nullptr, "empty old");
  ExpectSameGraph(no_nodes, config, nullptr, "unplaced old");
  ExpectSameGraph(config, empty, nullptr, "empty new");
  ExpectSameGraph(config, no_nodes, nullptr, "unplaced new");
  ExpectSameGraph(empty, empty, nullptr, "both empty");
}

TEST(GraphEquivalenceTest, RealTwoSizedInstance) {
  // The real2 regime: ~110 nodes, 50-60 replicas of each of ~100
  // fragments, so almost every old/new node pair overlaps.
  Rng rng(4242);
  const ClusterConfig old_config =
      Pack(Params(10'000), RandomTiling(rng, 4, 5'000, 100, 300, 50, 60));
  const ClusterConfig new_config =
      Pack(Params(10'000), RandomTiling(rng, 4, 5'000, 100, 300, 50, 60));
  ASSERT_GE(old_config.node_count(), 100u);
  ASSERT_GE(new_config.node_count(), 100u);
  const TransitionGraph graph =
      BuildTransitionGraph(old_config, new_config, nullptr);
  EXPECT_GT(graph.edges.size(),
            old_config.node_count() * new_config.node_count() / 2);
  ExpectSameGraph(old_config, new_config, nullptr, "real2-sized");
  std::vector<bool> dead(old_config.node_count(), false);
  for (std::size_t m = 0; m < dead.size(); m += 7) dead[m] = true;
  ExpectSameGraph(old_config, new_config, &dead, "real2-sized dead");
}

// BuildTransitionGraph sums overlaps either into dense per-node rows or
// through the stamped scatter, by a cost rule; these cases pin each
// accumulation against the oracle, and check which one ran through its
// metrics counter.
bool BuiltWithDenseRows(const ClusterConfig& old_config,
                        const ClusterConfig& new_config) {
  metrics::Registry& registry = metrics::Registry::Global();
  registry.Reset();
  registry.Enable();
  (void)BuildTransitionGraph(old_config, new_config, nullptr);
  const std::uint64_t dense =
      registry.CounterValue("transition.graph_dense_rows");
  registry.Disable();
  registry.Reset();
  return dense == 1;
}

// The oracle comparison with no dead node, every third old node dead, a
// mask covering only the first half of the old nodes, and all dead.
void ExpectSameGraphUnderMasks(const ClusterConfig& old_config,
                               const ClusterConfig& new_config,
                               const std::string& what) {
  ExpectSameGraph(old_config, new_config, nullptr, what);
  std::vector<bool> dead(old_config.node_count(), false);
  for (std::size_t m = 0; m < dead.size(); m += 3) dead[m] = true;
  ExpectSameGraph(old_config, new_config, &dead, what + " dead");
  dead.resize(dead.size() / 2);
  ExpectSameGraph(old_config, new_config, &dead, what + " short mask");
  const std::vector<bool> all_dead(old_config.node_count(), true);
  EXPECT_TRUE(
      BuildTransitionGraph(old_config, new_config, &all_dead).edges.empty())
      << what;
  ExpectSameGraph(old_config, new_config, &all_dead, what + " all dead");
}

TEST(GraphEquivalenceTest, StreamShapedInstanceTakesDenseRows) {
  // stream's regime: one table of 10^4 tuples cut into 400-600-tuple
  // fragments of 110-127 replicas each, on ~127 nodes that each hold
  // about the whole table, so every old/new node pair overlaps.
  Rng rng(31);
  for (int trial = 0; trial < 3; ++trial) {
    const std::string what = "stream-shaped trial " + std::to_string(trial);
    const ClusterConfig old_config = Pack(
        Params(10'000), RandomTiling(rng, 1, 10'000, 400, 600, 110, 127));
    const ClusterConfig new_config = Pack(
        Params(10'000), RandomTiling(rng, 1, 10'000, 400, 600, 110, 127));
    ASSERT_GE(old_config.node_count(), 120u) << what;
    ASSERT_GE(new_config.node_count(), 120u) << what;
    EXPECT_TRUE(BuiltWithDenseRows(old_config, new_config)) << what;
    const TransitionGraph graph =
        BuildTransitionGraph(old_config, new_config, nullptr);
    EXPECT_GT(graph.edges.size(),
              old_config.node_count() * new_config.node_count() * 19 / 20)
        << what;
    ExpectSameGraphUnderMasks(old_config, new_config, what);
  }
}

TEST(GraphEquivalenceTest, RealTwoShapedInstanceTakesDenseRows) {
  // real2's regime as bench_transition_scale builds it: three tables of
  // 620 tuples in 5-15-tuple fragments of 60-70 replicas, ~130 nodes.
  Rng rng(4343);
  const ClusterConfig old_config =
      Pack(Params(1'000), RandomTiling(rng, 3, 620, 5, 15, 60, 70));
  const ClusterConfig new_config =
      Pack(Params(1'000), RandomTiling(rng, 3, 620, 5, 15, 60, 70));
  ASSERT_GE(old_config.node_count(), 100u);
  EXPECT_TRUE(BuiltWithDenseRows(old_config, new_config));
  ExpectSameGraphUnderMasks(old_config, new_config, "real2-shaped");
}

TEST(GraphEquivalenceTest, LowReplicationTakesTheScatter) {
  Rng rng(606);
  for (int trial = 0; trial < 5; ++trial) {
    const std::string what = "low-replication trial " + std::to_string(trial);
    const ClusterConfig old_config =
        Pack(Params(150), RandomTiling(rng, 3, 2'000, 5, 60, 1, 3));
    const ClusterConfig new_config =
        Pack(Params(150), RandomTiling(rng, 3, 2'000, 5, 60, 1, 3));
    EXPECT_FALSE(BuiltWithDenseRows(old_config, new_config)) << what;
    ExpectSameGraphUnderMasks(old_config, new_config, what);
  }
}

TEST(GraphEquivalenceTest, MixedReplicationOnBothPaths) {
  // One table at 1-3 replicas beside one whose replication grows with the
  // trial, so the trials straddle the cost rule's crossover.
  Rng rng(1717);
  int dense_trials = 0;
  int scatter_trials = 0;
  for (std::size_t trial = 0; trial < 12; ++trial) {
    const std::string what = "mixed trial " + std::to_string(trial);
    const std::size_t replicas = 1 + 4 * trial;
    const auto epoch = [&] {
      std::vector<FragmentInfo> frags =
          RandomTiling(rng, 1, 20'000, 10, 80, 1, 3);
      for (FragmentInfo& f :
           RandomTiling(rng, 1, 2'000, 5, 30, replicas, replicas + 4)) {
        f.table = 1;
        frags.push_back(f);
      }
      return Pack(Params(400), std::move(frags));
    };
    const ClusterConfig old_config = epoch();
    const ClusterConfig new_config = epoch();
    if (BuiltWithDenseRows(old_config, new_config)) {
      ++dense_trials;
    } else {
      ++scatter_trials;
    }
    ExpectSameGraphUnderMasks(old_config, new_config, what);
  }
  EXPECT_GT(dense_trials, 0);
  EXPECT_GT(scatter_trials, 0);
}

// --------------------------------------------------------------- audit

ReplicationParams AuditParams(std::size_t min_replicas,
                              std::size_t max_replicas) {
  ReplicationParams p;
  p.node_cost = 10.0;
  p.node_disk = 1'000;
  p.window_scans = 50;
  p.min_replicas = min_replicas;
  p.max_replicas = max_replicas;
  return p;
}

// Fragments of one table, 100 tuples each (C(f) = 1.0 under AuditParams),
// with the given values and replica counts.
std::vector<FragmentInfo> Fragments(const std::vector<Money>& values,
                                    const std::vector<std::size_t>& replicas) {
  std::vector<FragmentInfo> frags;
  for (std::size_t i = 0; i < values.size(); ++i) {
    FragmentInfo f;
    f.table = 0;
    f.index_in_table = static_cast<FragmentId>(i);
    f.range = TupleRange{100 * i, 100 * (i + 1)};
    f.value = values[i];
    f.replicas = replicas[i];
    frags.push_back(f);
  }
  return frags;
}

ClusterConfig Placed(const ReplicationParams& params,
                     const std::vector<FragmentInfo>& frags,
                     const std::vector<std::vector<FlatFragmentId>>& plan) {
  auto config = BuildConfigFromPlacement(params, frags, plan);
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return std::move(config).value();
}

// Income at r replicas is 50 * value / r and the cost of a replica is 1,
// so value 0.04 supports exactly 2 replicas (1.0 at 2, 0.667 at 3) and
// value 0.02 exactly 1.
TEST(AuditEquivalenceTest, EquilibriumPasses) {
  for (bool exempt : {false, true}) {
    const ClusterConfig config =
        Placed(AuditParams(0, 0), Fragments({0.04, 0.02, 0.04}, {2, 1, 2}),
               {{0, 1}, {0, 2}, {2}});
    const NashReport report = ExpectSameAudit(config, exempt, "equilibrium");
    EXPECT_TRUE(report.is_equilibrium) << report.violation;
  }
}

TEST(AuditEquivalenceTest, OverReplicatedFailsConditionOne) {
  // Fragment 1 (value 0.02) holds 3 replicas: each earns 0.333 < 1. With
  // min_replicas 3 and the exemption it is floor-pinned instead, and the
  // same drop shows up nowhere else, so the config passes.
  for (std::size_t min_replicas : {0u, 3u}) {
    for (bool exempt : {false, true}) {
      const ClusterConfig config = Placed(
          AuditParams(min_replicas, 0), Fragments({0.04, 0.02}, {2, 3}),
          {{0, 1}, {0, 1}, {1}});
      const std::string what = "min " + std::to_string(min_replicas) +
                               " exempt " + std::to_string(exempt);
      const NashReport report = ExpectSameAudit(config, exempt, what);
      if (min_replicas == 3 && exempt) {
        EXPECT_TRUE(report.is_equilibrium) << what << report.violation;
      } else {
        EXPECT_EQ(report.violation.rfind("condition 1", 0), 0u) << what;
      }
    }
  }
}

TEST(AuditEquivalenceTest, UnderReplicatedFailsConditionTwo) {
  // Fragment 2 (value 0.06) holds one replica: a second would earn
  // 1.5 - 1 = 0.5.
  for (bool exempt : {false, true}) {
    const ClusterConfig config =
        Placed(AuditParams(1, 0), Fragments({0.04, 0.02, 0.06}, {2, 1, 1}),
               {{0, 1}, {0, 2}});
    const NashReport report = ExpectSameAudit(config, exempt, "under");
    EXPECT_EQ(report.violation,
              "condition 2 violated: adding a replica of fragment 2 gains "
              "0.5");
  }
}

TEST(AuditEquivalenceTest, CappedFragmentSomeNodeLacksFailsConditionThree) {
  // max_replicas 2 caps fragments 0 and 4 (value 0.1: a third replica
  // would earn 1.667 > 1), so condition 2 skips them; node 2 lacks both
  // and could swap either of its replicas for either. The swaps tie
  // (fragments 1 and 2 both have held margin 0, fragments 0 and 4 the
  // same added margin), so the first (node, held, other) must win.
  for (bool exempt : {false, true}) {
    const ClusterConfig config =
        Placed(AuditParams(1, 2),
               Fragments({0.1, 0.02, 0.02, 0.02, 0.1}, {2, 1, 1, 1, 2}),
               {{0, 3, 4}, {0, 4}, {1, 2}});
    const NashReport report = ExpectSameAudit(config, exempt, "capped");
    EXPECT_EQ(report.violation,
              "condition 3 violated: node 2 swaps 1 for 0 gaining 0.666667");
  }
}

TEST(AuditEquivalenceTest, SwapTargetsSkipHeldFragments) {
  // Capped fragments 0 and 2 (value 0.1) have the best added margin.
  // Node 0 holds both, so its best target is fragment 1 and no swap pays;
  // node 1 holds fragment 0, so its first passing target is fragment 2.
  for (bool exempt : {false, true}) {
    const ClusterConfig config = Placed(
        AuditParams(1, 2), Fragments({0.1, 0.02, 0.1, 0.02}, {2, 1, 2, 1}),
        {{0, 2, 3}, {0, 1}, {2}});
    const NashReport report = ExpectSameAudit(config, exempt, "held");
    EXPECT_EQ(report.violation,
              "condition 3 violated: node 1 swaps 1 for 2 gaining 0.666667");
  }
}

TEST(AuditEquivalenceTest, FloorPinnedHoldingsCannotSwap) {
  // Same capped fragment, but node 2 holds only fragments the floor pins
  // (value 0: ideal 0 < 1 replica). Without the exemption it fails
  // condition 1 first; with it, the pinned replicas cannot move and the
  // entrant check (condition 4) reports the capped fragment.
  for (bool exempt : {false, true}) {
    const ClusterConfig config = Placed(
        AuditParams(1, 2), Fragments({0.1, 0.0, 0.0}, {2, 1, 1}),
        {{0}, {0}, {1, 2}});
    const NashReport report = ExpectSameAudit(config, exempt, "pinned");
    EXPECT_EQ(report.violation.rfind(exempt ? "condition 4" : "condition 1",
                                     0),
              0u)
        << report.violation;
  }
}

TEST(AuditEquivalenceTest, CappedFragmentEveryNodeHoldsFailsConditionFour) {
  // Every node holds the capped fragment 0, so no swap reaches it and
  // only the entrant check sees its positive added margin.
  for (bool exempt : {false, true}) {
    const ClusterConfig config =
        Placed(AuditParams(0, 2), Fragments({0.1, 0.02, 0.02}, {2, 1, 1}),
               {{0, 1}, {0, 2}});
    const NashReport report = ExpectSameAudit(config, exempt, "entrant");
    EXPECT_EQ(report.violation,
              "condition 4 violated: an entrant profits from fragment 0");
  }
}

TEST(AuditEquivalenceTest, RandomConfigsMatchOracle) {
  // Replica counts near the Eq. 9 ideal (off by up to 2 either way), tied
  // values, and random floors and caps, so each condition is the first
  // violated one in some trials.
  Rng rng(6174);
  const std::vector<Money> values = {0.0, 0.02, 0.04, 0.05, 0.1, 0.3};
  std::vector<int> first_failed(5, 0);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t min_replicas = rng.Uniform(3);
    const std::size_t max_replicas =
        rng.Uniform(2) == 0 ? 0 : 2 + rng.Uniform(3);
    const ReplicationParams params = AuditParams(min_replicas, max_replicas);
    const std::size_t n_frags = 2 + rng.Uniform(7);
    std::vector<FragmentInfo> frags;
    TupleIndex start = 0;
    for (std::size_t i = 0; i < n_frags; ++i) {
      FragmentInfo f;
      f.table = static_cast<TableId>(rng.Uniform(2));
      f.index_in_table = static_cast<FragmentId>(i);
      const TupleCount len = rng.Uniform(2) == 0 ? 100 : 50 + rng.Uniform(100);
      f.range = TupleRange{start, start + len};
      start += len;
      f.value = values[rng.Uniform(values.size())];
      const std::size_t ideal = IdealReplicas(f.value, f.size(), params);
      const std::size_t shifted = ideal + rng.Uniform(5);
      f.replicas = shifted < 2 ? 0 : shifted - 2;
      frags.push_back(f);
    }
    const ClusterConfig config = Pack(params, std::move(frags));
    for (bool exempt : {false, true}) {
      const NashReport report = ExpectSameAudit(
          config, exempt,
          "trial " + std::to_string(trial) + " exempt " +
              std::to_string(exempt));
      const int condition =
          report.is_equilibrium ? 0 : report.violation[10] - '0';
      ASSERT_GE(condition, 0);
      ASSERT_LE(condition, 4);
      ++first_failed[condition];
    }
  }
  for (int condition = 0; condition <= 4; ++condition) {
    EXPECT_GT(first_failed[condition], 0)
        << "no trial ended at condition " << condition;
  }
}

}  // namespace
}  // namespace nashdb
