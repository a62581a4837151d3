// Rounds whose inputs repeat (DESIGN.md §15.9): a NashDB build whose
// packing inputs equal the last build's, when that build reproduced its
// anchor, returns the anchor unpacked; the driver keeps a plan between two
// bit-identical configurations with no dead node while that pair repeats.
// Both must return exactly what the skipped stage would have computed.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/faults.h"
#include "common/metrics.h"
#include "common/random.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "engine/validate.h"
#include "golden_run.h"
#include "replication/nash.h"
#include "replication/packer.h"
#include "routing/router.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

// --------------------------------------------------- build reuse (§6)

Dataset OneTable(TupleCount n) {
  Dataset ds;
  ds.tables.push_back(TableSpec{0, "t", n});
  return ds;
}

NashDbOptions ReuseOptions() {
  NashDbOptions o;
  o.window_scans = 40;
  o.block_tuples = 500;
  o.node_cost = 2.0;
  o.node_disk = 3000;
  o.reconfig_threads = 1;
  return o;
}

/// Hot ranges at a few prices over one 10k-tuple table: enough replicas
/// that bootstrap packing and incremental packing place them differently.
void ObserveScans(NashDbSystem* sys, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    const TupleIndex a = rng.Uniform(9000);
    const TupleIndex b = a + 200 + rng.Uniform(800);
    sys->Observe(MakeQuery(static_cast<QueryId>(i),
                           1.0 + static_cast<double>(rng.Uniform(20)),
                           {{0, TupleRange{a, b}}}));
  }
}

struct Built {
  ClusterConfig config;
  bool reused = false;
};

/// Runs one build with the registry enabled and reports whether the build
/// was reused (the trace's flag and the counter must agree).
Built BuildAndTrace(NashDbSystem* sys, bool async = false) {
  metrics::Registry& reg = metrics::Registry::Global();
  const std::uint64_t before = reg.CounterValue("replication.reused_builds");
  Built b;
  b.config = async ? sys->BuildConfigAsync().get() : sys->BuildConfig();
  bool traced = false;
  EXPECT_TRUE(reg.AnnotateLastReconfig([&](metrics::ReconfigTrace& t) {
    traced = t.build_reused;
  }));
  b.reused = reg.CounterValue("replication.reused_builds") == before + 1;
  EXPECT_EQ(b.reused, traced);
  return b;
}

/// What the packing code returns for `built`'s inputs anchored on
/// `anchor`: packing keeps the params and fragments it is given.
ClusterConfig Repack(const ClusterConfig& built, const ClusterConfig* anchor) {
  return DecideAndPack(built.params(), built.fragments(), anchor);
}

class BuildReuseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    metrics::Registry::Global().Reset();
    metrics::Registry::Global().Enable();
  }
  void TearDown() override { metrics::Registry::Global().Disable(); }
};

/// Builds `n` times with no Observe in between.
std::vector<Built> BuildRepeatedly(NashDbSystem* sys, int n,
                                   bool async = false) {
  std::vector<Built> builds;
  for (int k = 0; k < n; ++k) builds.push_back(BuildAndTrace(sys, async));
  return builds;
}

/// The first build after the observed scans packs from nothing, the next
/// relabels its nodes (a changed placement on the same inputs), and the
/// third reproduces the second: from the fourth on the inputs repeat over
/// a fixed point, and each build returns its anchor unpacked.
const std::vector<bool> kReusePattern = {false, false, false, true, true};

TEST_F(BuildReuseTest, RepeatedInputsReuseOnceTheLastBuildWasAFixedPoint) {
  NashDbSystem sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sys, 40, 7);
  const std::vector<Built> builds = BuildRepeatedly(&sys, 5);
  // The fixture's premise: the first build after the bootstrap moves
  // replicas although its inputs equal the bootstrap's, so a reuse that
  // skipped the fixed-point condition would return the bootstrap there.
  ASSERT_FALSE(builds[1].config.BitIdentical(builds[0].config));
  ASSERT_TRUE(builds[2].config.BitIdentical(builds[1].config));
  for (std::size_t k = 0; k < builds.size(); ++k) {
    EXPECT_EQ(builds[k].reused, kReusePattern[k]) << "build " << k;
    // Every build, reused or not, is what the packing code returns on
    // its inputs anchored on the previous build.
    const ClusterConfig* anchor = k == 0 ? nullptr : &builds[k - 1].config;
    const ClusterConfig packed = Repack(builds[k].config, anchor);
    EXPECT_TRUE(builds[k].config.BitIdentical(packed)) << "build " << k;
  }
  EXPECT_EQ(metrics::Registry::Global().CounterValue(
                "replication.reused_builds"),
            2u);
  EXPECT_EQ(metrics::Registry::Global().CounterValue("replication.builds"),
            5u);
}

TEST_F(BuildReuseTest, ReusedTraceCarriesTheReusedBuildsEconomics) {
  NashDbSystem sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sys, 40, 7);
  std::vector<metrics::ReconfigTrace> traces;
  for (int k = 0; k < 4; ++k) {
    (void)sys.BuildConfig();
    ASSERT_TRUE(metrics::Registry::Global().AnnotateLastReconfig(
        [&](metrics::ReconfigTrace& t) { traces.push_back(t); }));
  }
  const metrics::ReconfigTrace& full = traces[2];
  const metrics::ReconfigTrace& reused = traces[3];
  ASSERT_FALSE(full.build_reused);
  ASSERT_TRUE(reused.build_reused);
  EXPECT_EQ(reused.fragments, full.fragments);
  EXPECT_EQ(reused.ideal_replicas, full.ideal_replicas);
  EXPECT_EQ(reused.placed_replicas, full.placed_replicas);
  EXPECT_EQ(reused.nodes, full.nodes);
  EXPECT_EQ(reused.disk_fill, full.disk_fill);
  EXPECT_EQ(reused.nash_equilibrium, full.nash_equilibrium);
  EXPECT_EQ(reused.nash_violation, full.nash_violation);
  EXPECT_GT(reused.ideal_replicas, reused.fragments);
}

TEST_F(BuildReuseTest, ReuseAfterUntracedBuildsAuditsTheReusedConfig) {
  NashDbSystem sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sys, 40, 7);
  // The builds that reach the fixed point run with metrics off, so none
  // of them audits; the first traced build is a reuse.
  metrics::Registry::Global().Disable();
  for (int k = 0; k < 3; ++k) (void)sys.BuildConfig();
  metrics::Registry::Global().Enable();
  const ClusterConfig config = sys.BuildConfig();
  ASSERT_TRUE(metrics::Registry::Global().AnnotateLastReconfig(
      [&](metrics::ReconfigTrace& t) {
        ASSERT_TRUE(t.build_reused);
        const NashReport audit =
            CheckNashEquilibrium(config, /*exempt_min_replicas=*/true);
        EXPECT_EQ(t.nash_equilibrium, audit.is_equilibrium);
        EXPECT_EQ(t.nash_violation, audit.violation);
      }));
}

TEST_F(BuildReuseTest, AsyncBuildsReuseAsSynchronousOnesDo) {
  NashDbSystem sync_sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sync_sys, 40, 7);
  const std::vector<Built> sync_builds = BuildRepeatedly(&sync_sys, 5);
  NashDbSystem async_sys(OneTable(10000), ReuseOptions());
  ObserveScans(&async_sys, 40, 7);
  const std::vector<Built> async_builds =
      BuildRepeatedly(&async_sys, 5, /*async=*/true);
  for (std::size_t k = 0; k < sync_builds.size(); ++k) {
    EXPECT_EQ(async_builds[k].reused, kReusePattern[k]) << "build " << k;
    EXPECT_TRUE(async_builds[k].config.BitIdentical(sync_builds[k].config))
        << "build " << k;
  }
}

TEST_F(BuildReuseTest, AnObservedScanBetweenBuildsMisses) {
  NashDbSystem sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sys, 40, 7);
  const std::vector<Built> builds = BuildRepeatedly(&sys, 4);
  ASSERT_TRUE(builds[3].reused);
  sys.Observe(MakeQuery(1000, 3.0, {{0, TupleRange{2000, 2600}}}));
  const Built after = BuildAndTrace(&sys);
  EXPECT_FALSE(after.reused);
  EXPECT_TRUE(after.config.BitIdentical(Repack(after.config,
                                               &builds[3].config)));
}

TEST_F(BuildReuseTest, NoteAppliedConfigOfADifferentPlacementMisses) {
  NashDbSystem sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sys, 40, 7);
  const std::vector<Built> builds = BuildRepeatedly(&sys, 4);
  ASSERT_TRUE(builds[3].reused);
  // The same params and fragments on the nodes in reverse order: the
  // packing inputs still match, but the anchor is not the last build's.
  const ClusterConfig& last = builds[3].config;
  std::vector<std::vector<FlatFragmentId>> reversed;
  for (NodeId m = last.node_count(); m-- > 0;) {
    reversed.push_back(last.NodeFragments(m));
  }
  Result<ClusterConfig> applied =
      BuildConfigFromPlacement(last.params(), last.fragments(), reversed);
  ASSERT_TRUE(applied.ok());
  ASSERT_FALSE(applied->BitIdentical(last));
  sys.NoteAppliedConfig(*applied);
  const Built after = BuildAndTrace(&sys);
  EXPECT_FALSE(after.reused);
  EXPECT_TRUE(after.config.BitIdentical(Repack(after.config, &*applied)));
  // Re-anchoring on the configuration the system already holds also
  // starts over: the next build packs, the one after reuses again.
  sys.NoteAppliedConfig(after.config);
  EXPECT_FALSE(BuildAndTrace(&sys).reused);
}

TEST_F(BuildReuseTest, ResetMisses) {
  NashDbSystem sys(OneTable(10000), ReuseOptions());
  ObserveScans(&sys, 40, 7);
  const std::vector<Built> first = BuildRepeatedly(&sys, 4);
  ASSERT_TRUE(first[3].reused);
  sys.Reset();
  // A cold build after Reset packs from nothing.
  const Built cold = BuildAndTrace(&sys);
  EXPECT_FALSE(cold.reused);
  EXPECT_TRUE(cold.config.BitIdentical(Repack(cold.config, nullptr)));
  sys.Reset();
  ObserveScans(&sys, 40, 7);
  const std::vector<Built> again = BuildRepeatedly(&sys, 5);
  for (std::size_t k = 0; k < again.size(); ++k) {
    EXPECT_EQ(again[k].reused, kReusePattern[k]) << "build " << k;
  }
  EXPECT_TRUE(again[3].config.BitIdentical(first[3].config));
}

// ------------------------------------------------ driver: quiet periods

/// Traffic for the first hour, then none until hour `resume_h`, then two
/// hours more: the rounds kicked at the first admission after the pause
/// run back to back with no Observe between them.
Workload QuietWorkload(double resume_h) {
  Workload wl;
  wl.name = "quiet";
  wl.dataset = OneTable(10000);
  Rng rng(11);
  QueryId id = 0;
  const auto traffic = [&](double from_s, int queries) {
    for (int i = 0; i < queries; ++i) {
      const TupleIndex a = rng.Uniform(9000);
      const TupleIndex b = a + 200 + rng.Uniform(800);
      TimedQuery tq;
      tq.arrival = from_s + 55.0 * i;
      tq.query = MakeQuery(id++, 1.0 + static_cast<double>(rng.Uniform(20)),
                           {{0, TupleRange{a, b}}});
      wl.queries.push_back(tq);
    }
  };
  traffic(0.0, 60);
  traffic(resume_h * 3600.0 + 1.0, 120);
  return wl;
}

DriverOptions QuietDriverOptions() {
  DriverOptions o;
  o.reconfigure_interval_s = 3600.0;
  o.sim.tuples_per_second = 2000.0;
  return o;
}

/// One round of a run's reconfiguration trace, read from its metrics
/// snapshot.
struct RoundFlags {
  double sim_time_s = 0.0;
  bool build_reused = false;
  bool plan_reused = false;
  std::uint64_t planned_transfer_tuples = 0;
};

std::string ValueAfter(const std::string& line, std::size_t from,
                       const std::string& key) {
  const std::size_t k = line.find("\"" + key + "\": ", from);
  if (k == std::string::npos) return "";
  const std::size_t v = k + key.size() + 4;
  return line.substr(v, line.find_first_of(",}", v) - v);
}

std::vector<RoundFlags> ReadRounds(const std::string& metrics_json) {
  std::vector<RoundFlags> rounds;
  std::size_t pos = metrics_json.find("\"reconfigurations\"");
  while ((pos = metrics_json.find("{\"round\": ", pos)) != std::string::npos) {
    const std::size_t end = metrics_json.find('\n', pos);
    const std::string line = metrics_json.substr(pos, end - pos);
    const std::size_t repl = line.find("\"replication\": {");
    const std::size_t trans = line.find("\"transition\": {");
    RoundFlags r;
    r.sim_time_s = std::stod(ValueAfter(line, 0, "sim_time_s"));
    r.build_reused = ValueAfter(line, repl, "reused") == "true";
    r.plan_reused = ValueAfter(line, trans, "reused") == "true";
    r.planned_transfer_tuples =
        std::stoull(ValueAfter(line, trans, "planned_transfer_tuples"));
    rounds.push_back(r);
    pos = end;
  }
  return rounds;
}

std::uint64_t CounterIn(const std::string& metrics_json,
                        const std::string& name) {
  const std::string v = ValueAfter(metrics_json, 0, name);
  return v.empty() ? 0 : std::stoull(v);
}

/// Forwards to a NashDbSystem and re-anchors it on every configuration it
/// builds, which keeps each build from reusing the last: the same run
/// without build reuse. Keeps every configuration it returns.
class NoBuildReuse : public DistributionSystem {
 public:
  explicit NoBuildReuse(NashDbSystem* inner) : inner_(inner) {}
  std::string_view name() const override { return inner_->name(); }
  void Observe(const Query& query) override { inner_->Observe(query); }
  ClusterConfig BuildConfig() override {
    ClusterConfig config = inner_->BuildConfig();
    inner_->NoteAppliedConfig(config);
    built.push_back(config);
    return config;
  }
  void NoteAppliedConfig(const ClusterConfig& config) override {
    inner_->NoteAppliedConfig(config);
  }
  void Reset() override { inner_->Reset(); }

  std::vector<ClusterConfig> built;

 private:
  NashDbSystem* inner_;
};

TEST(DriverReuseTest, QuietPeriodReusesBuildsAndPlansExactly) {
  const Workload wl = QuietWorkload(/*resume_h=*/7.0);
  for (const double window_s : {0.0, 600.0}) {
    SCOPED_TRACE(window_s);
    DriverOptions dopts = QuietDriverOptions();
    dopts.online_build_window_s = window_s;
    NashDbSystem sys(wl.dataset, ReuseOptions());
    MaxOfMinsRouter router;
    const RunResult run = RunWorkload(wl, &sys, &router, dopts);

    NashDbSystem plain_sys(wl.dataset, ReuseOptions());
    NoBuildReuse plain(&plain_sys);
    MaxOfMinsRouter plain_router;
    const RunResult oracle = RunWorkload(wl, &plain, &plain_router, dopts);
    EXPECT_EQ(DigestRun(run), DigestRun(oracle));
    EXPECT_EQ(CounterIn(oracle.metrics_json, "replication.reused_builds"),
              0u);

    // Rounds at hours 1-7 run back to back at the first admission after
    // the pause. Hour 1 packs the first hour's scans, hour 2 relabels the
    // nodes, hour 3 reproduces hour 2 (a fixed point) and hours 4-7 reuse
    // it. The plan pair (cur, next) first repeats at hour 3, which plans
    // and keeps the plan; hours 4-7 reuse it. Hours 8-9 see new scans.
    const std::vector<RoundFlags> rounds = ReadRounds(run.metrics_json);
    ASSERT_GE(rounds.size(), 9u);
    std::size_t builds = 0, plans = 0;
    for (const RoundFlags& r : rounds) {
      const bool quiet = r.sim_time_s >= 4 * 3600.0 &&
                         r.sim_time_s <= 7 * 3600.0;
      EXPECT_EQ(r.build_reused, quiet) << "round at " << r.sim_time_s;
      EXPECT_EQ(r.plan_reused, quiet) << "round at " << r.sim_time_s;
      if (r.plan_reused) {
        EXPECT_EQ(r.planned_transfer_tuples, 0u);
      }
      builds += r.build_reused;
      plans += r.plan_reused;
    }
    EXPECT_EQ(builds, 4u);
    EXPECT_EQ(CounterIn(run.metrics_json, "replication.reused_builds"),
              builds);
    EXPECT_EQ(CounterIn(run.metrics_json, "transition.reused_plans"),
              plans);
    // transition.plans counts the rounds that ran the planner, and in
    // validating builds the re-plan that checks each reused plan.
    const std::size_t checks = ValidationEnabled() ? plans : 0;
    EXPECT_EQ(CounterIn(run.metrics_json, "transition.plans") + plans,
              rounds.size() + checks);
  }
}

TEST(DriverReuseTest, ADeadNodeInTheQuietPeriodForcesAReplan) {
  const Workload wl = QuietWorkload(/*resume_h=*/7.0);
  DriverOptions dopts = QuietDriverOptions();
  // Node 0 crashes between the hour-4 and hour-5 boundaries, while the
  // kept plan is in use.
  constexpr double kCrashS = 4 * 3600.0 + 100.0;
  Result<FaultSpec> spec = FaultSpec::Parse("crash@14500:n0");
  ASSERT_TRUE(spec.ok());
  dopts.faults.spec = *spec;
  NashDbSystem sys(wl.dataset, ReuseOptions());
  NoBuildReuse capture(&sys);
  MaxOfMinsRouter router;
  const RunResult run = RunWorkload(wl, &capture, &router, dopts);
  EXPECT_EQ(run.crashes, 1u);

  // Build reuse does not change the run under faults either.
  NashDbSystem direct_sys(wl.dataset, ReuseOptions());
  MaxOfMinsRouter direct_router;
  const RunResult direct = RunWorkload(wl, &direct_sys, &direct_router, dopts);
  EXPECT_EQ(DigestRun(direct), DigestRun(run));
  EXPECT_GT(CounterIn(direct.metrics_json, "replication.reused_builds"), 0u);

  const std::vector<RoundFlags> rounds = ReadRounds(run.metrics_json);
  ASSERT_EQ(rounds.size(), capture.built.size());
  std::size_t crash_round = 0;
  while (crash_round < rounds.size() &&
         rounds[crash_round].sim_time_s < kCrashS) {
    ++crash_round;
  }
  ASSERT_LT(crash_round + 2, rounds.size());
  // The quiet rounds before the crash reuse the kept plan.
  EXPECT_TRUE(rounds[crash_round - 1].plan_reused);
  // The round that sees the dead node plans again: its configuration
  // repeats, but the plan re-copies the dead node's data onto a new one.
  const RoundFlags& seen = rounds[crash_round];
  EXPECT_FALSE(seen.plan_reused);
  const ClusterConfig& config = capture.built[crash_round];
  ASSERT_TRUE(config.BitIdentical(capture.built[crash_round - 1]));
  std::vector<bool> dead(config.node_count(), false);
  dead[0] = true;
  const TransitionPlan replan = PlanTransition(config, config, &dead);
  EXPECT_TRUE(ValidatePlan(replan, config, config, &dead).ok());
  EXPECT_EQ(seen.planned_transfer_tuples, replan.total_transfer_tuples);
  EXPECT_EQ(replan.total_transfer_tuples, config.NodeUsage(0));
  EXPECT_GT(seen.planned_transfer_tuples, 0u);
  // The dead node dropped the kept plan: the next round plans between
  // the repeated configurations again, and the one after reuses that.
  EXPECT_FALSE(rounds[crash_round + 1].plan_reused);
  EXPECT_EQ(rounds[crash_round + 1].planned_transfer_tuples, 0u);
  EXPECT_TRUE(rounds[crash_round + 2].plan_reused);
}

}  // namespace
}  // namespace nashdb
