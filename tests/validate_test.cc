// Corruption tests for the pipeline invariant validator
// (engine/validate.h): each test builds a well-formed object, breaks one
// invariant, and asserts the validator (a) rejects it and (b) *names* the
// violated invariant in its message — the whole point of the validators
// over ClusterConfig::Valid()'s bool is the diagnosis. The final tests
// drive the real BuildConfig -> PlanTransition pipeline and assert it
// validates clean, which is exactly what the NASHDB_VALIDATE hooks check
// after every round in Debug/sanitized builds.

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/query.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "engine/validate.h"
#include "replication/cluster_config.h"
#include "replication/replication.h"
#include "routing/router.h"
#include "transition/planner.h"
#include "value/value_profile.h"
#include "workload/synthetic.h"

namespace nashdb {
namespace {

// gmock is not available in every build environment, so match substrings
// with a plain helper.
bool MessageContains(const Status& st, const char* needle) {
  return st.message().find(needle) != std::string::npos;
}

// Economics chosen so ideals are small and easy to read:
//   Ideal(f) = floor(|W| * value * disk / (size * cost)), clamped >= 1.
ReplicationParams EconParams() {
  ReplicationParams p;
  p.node_cost = 10.0;
  p.node_disk = 1000;
  p.window_scans = 10;
  p.min_replicas = 1;
  p.max_replicas = 0;
  return p;
}

FragmentInfo Frag(FragmentId index, TupleIndex start, TupleIndex end,
                  Money value, std::size_t replicas) {
  FragmentInfo f;
  f.table = 0;
  f.index_in_table = index;
  f.range = TupleRange{start, end};
  f.value = value;
  f.replicas = replicas;
  return f;
}

// The well-formed baseline: [0,400) at its Eq. 9 ideal of 2 replicas
// (floor(10 * 1.0 * 1000 / (400 * 10)) = 2), [400,1000) at its ideal of 1
// (floor(10 * 0.7 * 1000 / (600 * 10)) = 1). Node 0 holds one copy of
// each (exactly full at 1000 tuples); node 1 holds the second copy of the
// hot fragment.
ClusterConfig ValidBaseline() {
  ClusterConfig config(EconParams(), {Frag(0, 0, 400, 1.0, 2),
                                      Frag(1, 400, 1000, 0.7, 1)});
  const NodeId n0 = config.AddNode();
  const NodeId n1 = config.AddNode();
  config.Place(n0, 0);
  config.Place(n0, 1);
  config.Place(n1, 0);
  return config;
}

// Zero slack: the baseline's counts are exact ideals, so the economics
// check should demand them exactly.
ValidateOptions ExactEconomics() {
  ValidateOptions o;
  o.replica_slack_abs = 0;
  o.replica_slack_frac = 0.0;
  return o;
}

TEST(ValidateConfigTest, BaselineIsClean) {
  const ClusterConfig config = ValidBaseline();
  const Status st = ValidateConfig(config);
  EXPECT_TRUE(st.ok()) << st.ToString();
  const Status econ = ValidateReplicaEconomics(config, ExactEconomics());
  EXPECT_TRUE(econ.ok()) << econ.ToString();
}

TEST(ValidateConfigTest, RejectsOverlappingFragments) {
  // [0,500) and [400,1000) share [400,500).
  ClusterConfig config(EconParams(), {Frag(0, 0, 500, 1.0, 1),
                                      Frag(1, 400, 1000, 0.7, 1)});
  config.Place(config.AddNode(), 0);
  config.Place(config.AddNode(), 1);
  const Status st = ValidateConfig(config);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(MessageContains(st, "overlap")) << st.ToString();
}

TEST(ValidateConfigTest, RejectsGapInCoverage) {
  // Nothing covers [400,500).
  ClusterConfig config(EconParams(), {Frag(0, 0, 400, 1.0, 1),
                                      Frag(1, 500, 1000, 0.7, 1)});
  config.Place(config.AddNode(), 0);
  config.Place(config.AddNode(), 1);
  const Status st = ValidateConfig(config);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(MessageContains(st, "coverage gap")) << st.ToString();
}

TEST(ValidateConfigTest, RejectsReplicaCountPlacementMismatch) {
  // Fragment 0 wants 2 replicas but only one is placed.
  ClusterConfig config(EconParams(), {Frag(0, 0, 400, 1.0, 2),
                                      Frag(1, 400, 1000, 0.7, 1)});
  const NodeId n0 = config.AddNode();
  config.Place(n0, 0);
  config.Place(n0, 1);
  const Status st = ValidateConfig(config);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(MessageContains(st, "replica placement")) << st.ToString();
}

TEST(ValidateConfigTest, RejectsUnprofitableExtraReplica) {
  // Structurally fine: 4 distinct nodes hold the hot fragment. But its
  // Eq. 9 ideal is 2 — replicas 3 and 4 earn less than they cost, which
  // is exactly the Nash-equilibrium violation the validator prices out.
  ClusterConfig config(EconParams(), {Frag(0, 0, 400, 1.0, 4),
                                      Frag(1, 400, 1000, 0.7, 1)});
  const NodeId n0 = config.AddNode();
  config.Place(n0, 0);
  config.Place(n0, 1);
  config.Place(config.AddNode(), 0);
  config.Place(config.AddNode(), 0);
  config.Place(config.AddNode(), 0);
  const Status structural = ValidateConfig(config);
  EXPECT_TRUE(structural.ok()) << structural.ToString();
  const Status econ = ValidateReplicaEconomics(config, ExactEconomics());
  ASSERT_FALSE(econ.ok());
  EXPECT_TRUE(MessageContains(econ, "Eq. 9")) << econ.ToString();
  EXPECT_TRUE(MessageContains(econ, "extra replicas")) << econ.ToString();
}

TEST(ValidateConfigTest, HysteresisBandAcceptsLaggingCount) {
  // One replica above the ideal is legitimate under the default
  // hysteresis band; three above is not.
  ClusterConfig config(EconParams(), {Frag(0, 0, 400, 1.0, 3),
                                      Frag(1, 400, 1000, 0.7, 1)});
  const NodeId n0 = config.AddNode();
  config.Place(n0, 0);
  config.Place(n0, 1);
  config.Place(config.AddNode(), 0);
  config.Place(config.AddNode(), 0);
  const Status banded = ValidateReplicaEconomics(config);  // default slack
  EXPECT_TRUE(banded.ok()) << banded.ToString();
  const Status exact = ValidateReplicaEconomics(config, ExactEconomics());
  EXPECT_FALSE(exact.ok());
}

TEST(ValidateConfigTest, RejectsOverCapacityNode) {
  ClusterConfig config = ValidBaseline();
  // Shrink the disk under node 0's 1000 stored tuples after placement
  // (the checked mutators refuse to build this state directly).
  ReplicationParams params = config.params();
  params.node_disk = 500;
  config.SetParamsForTest(params);
  const Status st = ValidateConfig(config);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(MessageContains(st, "node capacity")) << st.ToString();
}

// ------------------------------------------------------------ profiles

TEST(ValidateProfileTest, AcceptsEstimatorStyleProfile) {
  const ValueProfile profile = ValueProfile::FromSparseChunks(
      10000, {{100, 400, 2.0}, {400, 900, 5.0}, {2000, 6000, 0.25}});
  const Status st = ValidateProfile(profile);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ValidateSchemeTest, AcceptsMatchingScheme) {
  const ValueProfile profile = ValueProfile::FromSparseChunks(
      1000, {{0, 300, 4.0}, {300, 1000, 1.0}});
  FragmentationScheme scheme;
  scheme.table = 0;
  scheme.table_size = 1000;
  scheme.fragments = {{0, 300}, {300, 1000}};
  const Status st = ValidateScheme(scheme, profile);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ValidateSchemeTest, RejectsGapAndSizeMismatch) {
  const ValueProfile profile = ValueProfile::FromSparseChunks(
      1000, {{0, 300, 4.0}, {300, 1000, 1.0}});
  FragmentationScheme gap;
  gap.table = 0;
  gap.table_size = 1000;
  gap.fragments = {{0, 300}, {400, 1000}};
  const Status gap_st = ValidateScheme(gap, profile);
  ASSERT_FALSE(gap_st.ok());
  EXPECT_TRUE(MessageContains(gap_st, "coverage gap")) << gap_st.ToString();

  FragmentationScheme short_scheme;
  short_scheme.table = 0;
  short_scheme.table_size = 800;
  short_scheme.fragments = {{0, 300}, {300, 800}};
  const Status size_st = ValidateScheme(short_scheme, profile);
  ASSERT_FALSE(size_st.ok());
  EXPECT_TRUE(MessageContains(size_st, "table_size")) << size_st.ToString();
}

// ---------------------------------------------------------------- plans

TEST(ValidatePlanTest, AcceptsPlannerOutputAndRejectsTampering) {
  const ClusterConfig old_config = ValidBaseline();
  // New configuration: same fragments, hot fragment down to 1 replica.
  ClusterConfig new_config(EconParams(), {Frag(0, 0, 400, 1.0, 1),
                                          Frag(1, 400, 1000, 0.7, 1)});
  const NodeId n0 = new_config.AddNode();
  new_config.Place(n0, 0);
  new_config.Place(n0, 1);

  const TransitionPlan plan = PlanTransition(old_config, new_config);
  const Status clean = ValidatePlan(plan, old_config, new_config);
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  TransitionPlan tampered = plan;
  ASSERT_FALSE(tampered.moves.empty());
  tampered.moves[0].transfer_tuples += 5;
  const Status st = ValidatePlan(tampered, old_config, new_config);
  ASSERT_FALSE(st.ok());
  // Either the per-move edge weight or the plan totals catch it first.
  EXPECT_TRUE(MessageContains(st, "tuples")) << st.ToString();
}

TEST(ValidatePlanTest, RejectsMissingNewNode) {
  ClusterConfig empty;
  const ClusterConfig config = ValidBaseline();
  TransitionPlan bootstrap = PlanTransition(empty, config);
  const Status clean = ValidatePlan(bootstrap, empty, config);
  EXPECT_TRUE(clean.ok()) << clean.ToString();

  // Drop one move: the matching is no longer perfect.
  TupleCount dropped = bootstrap.moves.back().transfer_tuples;
  bootstrap.moves.pop_back();
  bootstrap.total_transfer_tuples -= dropped;
  const Status st = ValidatePlan(bootstrap, empty, config);
  ASSERT_FALSE(st.ok());
  EXPECT_TRUE(MessageContains(st, "never produced")) << st.ToString();
}

// ------------------------------------------------- engine-level round trip

// The full pipeline must validate clean at every stage — this is the same
// set of checks the NASHDB_VALIDATE hooks run inside BuildConfig and the
// driver, exercised here explicitly so it holds in every build type.
TEST(ValidateEngineTest, BuildConfigAndPlanValidateClean) {
  Dataset ds;
  ds.tables.push_back(TableSpec{0, "t", 50000});
  NashDbOptions opts;
  opts.window_scans = 20;
  opts.block_tuples = 1000;
  opts.node_cost = 10.0;
  opts.node_disk = 20000;
  NashDbSystem sys(ds, opts);

  ValidateOptions econ;
  econ.replica_slack_abs = kReplicaHysteresis;
  econ.replica_slack_frac = kReplicaHysteresisFrac;

  ClusterConfig previous;
  for (int round = 0; round < 3; ++round) {
    for (int q = 0; q < 15; ++q) {
      const TupleIndex start = static_cast<TupleIndex>(
          (round * 1000 + q * 700) % 40000);
      sys.Observe(MakeQuery(static_cast<QueryId>(round * 100 + q), 2.0,
                            {{0, TupleRange{start, start + 5000}}}));
    }
    ClusterConfig next = sys.BuildConfig();
    const Status structural = ValidateConfig(next);
    EXPECT_TRUE(structural.ok()) << "round " << round << ": "
                                 << structural.ToString();
    const Status economics = ValidateReplicaEconomics(next, econ);
    EXPECT_TRUE(economics.ok()) << "round " << round << ": "
                                << economics.ToString();
    const TransitionPlan plan = PlanTransition(previous, next);
    const Status plan_st = ValidatePlan(plan, previous, next);
    EXPECT_TRUE(plan_st.ok()) << "round " << round << ": "
                              << plan_st.ToString();
    previous = std::move(next);
  }
}

// End-to-end: a dynamic run through the driver. In NASHDB_VALIDATE builds
// the hooks fire after every reconfiguration round; in Release this is a
// plain regression run. Either way the run must complete.
TEST(ValidateEngineTest, DriverRunsCleanUnderValidation) {
  BernoulliOptions wopts;
  wopts.db_gb = 3.0;
  wopts.num_queries = 60;
  wopts.arrival_span_s = 4.0 * 3600.0;
  const Workload workload = MakeBernoulliWorkload(wopts);

  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  NashDbSystem sys(workload.dataset, opts);
  MaxOfMinsRouter router;
  DriverOptions dopts;
  dopts.reconfigure_interval_s = 1800.0;
  const RunResult result = RunWorkload(workload, &sys, &router, dopts);
  EXPECT_GT(result.transitions, 1u);
  EXPECT_EQ(result.aborted_queries, 0u);
  SUCCEED() << (ValidationEnabled()
                    ? "validators ran after every round"
                    : "release build: hooks compiled out");
}

}  // namespace
}  // namespace nashdb
