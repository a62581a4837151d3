#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/faults.h"
#include "cluster/sim.h"
#include "common/query.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "replication/packer.h"
#include "routing/router.h"
#include "workload/synthetic.h"
#include "workload/workload.h"

namespace nashdb {
namespace {

// ------------------------------------------------------- FaultSpec::Parse

TEST(FaultSpecParseTest, ScriptedClausesParseAndSortByTime) {
  const auto parsed = FaultSpec::Parse(
      "crash@600:n2:for=300; recover@900:n1; slow@100:n0:x0.5:for=60;"
      "interrupt@1200");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const FaultSpec spec = *parsed;
  ASSERT_EQ(spec.scripted.size(), 4u);
  EXPECT_TRUE(spec.Active());

  EXPECT_EQ(spec.scripted[0].type, FaultType::kSlowdown);
  EXPECT_DOUBLE_EQ(spec.scripted[0].time, 100.0);
  EXPECT_EQ(spec.scripted[0].node, 0u);
  EXPECT_DOUBLE_EQ(spec.scripted[0].factor, 0.5);
  EXPECT_DOUBLE_EQ(spec.scripted[0].duration_s, 60.0);

  EXPECT_EQ(spec.scripted[1].type, FaultType::kCrash);
  EXPECT_DOUBLE_EQ(spec.scripted[1].time, 600.0);
  EXPECT_EQ(spec.scripted[1].node, 2u);
  EXPECT_DOUBLE_EQ(spec.scripted[1].duration_s, 300.0);

  EXPECT_EQ(spec.scripted[2].type, FaultType::kRecover);
  EXPECT_EQ(spec.scripted[2].node, 1u);

  EXPECT_EQ(spec.scripted[3].type, FaultType::kInterrupt);
  EXPECT_DOUBLE_EQ(spec.scripted[3].time, 1200.0);
}

TEST(FaultSpecParseTest, CrashWithoutDurationIsPermanent) {
  const auto parsed = FaultSpec::Parse("crash@10:n0");
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->scripted.size(), 1u);
  EXPECT_EQ(parsed->scripted[0].duration_s, kNeverRecovers);
}

TEST(FaultSpecParseTest, StochasticModelsParse) {
  const auto parsed = FaultSpec::Parse(
      "mttf=1800;mttr=600;straggle-every=1200;straggle-for=120;"
      "straggle-x=0.5;pinterrupt=0.05");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->mttf_s, 1800.0);
  EXPECT_DOUBLE_EQ(parsed->mttr_s, 600.0);
  EXPECT_DOUBLE_EQ(parsed->straggle_every_s, 1200.0);
  EXPECT_DOUBLE_EQ(parsed->straggle_for_s, 120.0);
  EXPECT_DOUBLE_EQ(parsed->straggle_factor, 0.5);
  EXPECT_DOUBLE_EQ(parsed->interrupt_prob, 0.05);
  EXPECT_TRUE(parsed->Active());
}

TEST(FaultSpecParseTest, EmptySpecIsInactive) {
  const auto parsed = FaultSpec::Parse("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->Active());
  // Whitespace and stray separators are ignored too.
  const auto blank = FaultSpec::Parse(" ; ;\t");
  ASSERT_TRUE(blank.ok());
  EXPECT_FALSE(blank->Active());
}

TEST(FaultSpecParseTest, MalformedClausesNameTheClause) {
  for (const char* bad :
       {"crash@600", "crash@600:x3", "slow@1:n0:x1.5", "slow@1:n0",
        "bogus=3", "mttf=0", "pinterrupt=1.5", "crash@600:n0:for="}) {
    const auto parsed = FaultSpec::Parse(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_NE(parsed.status().message().find(bad), std::string::npos)
        << "error should quote the offending clause: "
        << parsed.status().ToString();
  }
}

// -------------------------------------------------------- FaultScheduler

ClusterConfig NodesConfig(std::size_t n) {
  ReplicationParams p;
  p.node_cost = 10.0;
  p.node_disk = 1000;
  p.window_scans = 50;
  FragmentInfo f;
  f.table = 0;
  f.index_in_table = 0;
  f.range = TupleRange{0, 1000};
  f.value = 0.0;
  std::vector<FragmentInfo> frags = {f};
  std::vector<std::vector<FlatFragmentId>> plan(
      n, std::vector<FlatFragmentId>{0});
  auto config = BuildConfigFromPlacement(p, frags, plan);
  return std::move(config).value();
}

ClusterSim BootstrappedSim(std::size_t nodes) {
  ClusterSim sim((ClusterSimOptions()));
  sim.ApplyConfig(NodesConfig(nodes), 0.0, nullptr);
  return sim;
}

TEST(FaultSchedulerTest, ScriptedCrashAndTimedRecoveryDriveSimState) {
  ClusterSim sim = BootstrappedSim(2);
  FaultScheduler sched(*FaultSpec::Parse("crash@100:n0:for=50"), 1);

  EXPECT_TRUE(sched.AdvanceTo(99.0, &sim).empty());
  const auto delivered = sched.AdvanceTo(100.0, &sim);
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_EQ(delivered[0].type, FaultType::kCrash);
  EXPECT_EQ(delivered[0].node, 0u);

  EXPECT_FALSE(sim.NodeAlive(0, 100.0));
  EXPECT_FALSE(sim.NodeAlive(0, 149.0));
  // Timed recovery is visible to future-time liveness queries (the
  // driver's retry logic peeks ahead like this).
  EXPECT_TRUE(sim.NodeAlive(0, 150.0));
  EXPECT_TRUE(sim.NodeAlive(1, 100.0));
  EXPECT_EQ(sim.LiveNodeCount(100.0), 1u);
  EXPECT_EQ(sched.stats().crashes, 1u);
}

TEST(FaultSchedulerTest, EventsForUnknownOrDeadNodesAreDropped) {
  ClusterSim sim = BootstrappedSim(2);
  // n5 does not exist; the second crash targets an already-dead node; the
  // recover targets a live node. All three drop; one crash lands.
  FaultScheduler sched(
      *FaultSpec::Parse("crash@10:n5;crash@20:n0;crash@30:n0;recover@40:n1"),
      1);
  const auto delivered = sched.AdvanceTo(50.0, &sim);
  EXPECT_EQ(delivered.size(), 1u);
  EXPECT_EQ(sched.stats().crashes, 1u);
  EXPECT_EQ(sched.stats().dropped_events, 3u);
  EXPECT_EQ(sched.stats().recoveries, 0u);
}

TEST(FaultSchedulerTest, ExplicitRecoverRevivesPermanentCrash) {
  ClusterSim sim = BootstrappedSim(1);
  FaultScheduler sched(*FaultSpec::Parse("crash@10:n0;recover@60:n0"), 1);
  sched.AdvanceTo(20.0, &sim);
  EXPECT_FALSE(sim.NodeAlive(0, 20.0));
  EXPECT_EQ(sim.DownUntil(0), kNeverRecovers);
  sched.AdvanceTo(60.0, &sim);
  EXPECT_TRUE(sim.NodeAlive(0, 60.0));
  EXPECT_EQ(sched.stats().recoveries, 1u);
}

TEST(FaultSchedulerTest, StochasticHistoryReplaysExactlyForSameSeed) {
  const FaultSpec spec =
      *FaultSpec::Parse("mttf=500;mttr=200;straggle-every=800");
  auto run = [&](std::uint64_t seed) {
    ClusterSim sim = BootstrappedSim(3);
    FaultScheduler sched(spec, seed);
    std::vector<FaultEvent> history;
    for (SimTime t = 250.0; t <= 5000.0; t += 250.0) {
      for (const FaultEvent& ev : sched.AdvanceTo(t, &sim)) {
        history.push_back(ev);
      }
    }
    return history;
  };
  const auto a = run(42);
  const auto b = run(42);
  ASSERT_FALSE(a.empty());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].node, b[i].node) << i;
    EXPECT_DOUBLE_EQ(a[i].time, b[i].time) << i;
    EXPECT_DOUBLE_EQ(a[i].factor, b[i].factor) << i;
    EXPECT_DOUBLE_EQ(a[i].duration_s, b[i].duration_s) << i;
  }
}

// NextEventTime peeks at what AdvanceTo delivers next: walking the
// history one event time at a time, nothing is delivered just before the
// peeked time, the first event delivered at it carries that time, and
// once delivered the peek has moved past it. Scripted interrupts are
// never dropped, and eight nodes always leave a live stochastic victim,
// so every peeked time delivers an event.
TEST(FaultSchedulerTest, NextEventTimeIsTheNextDeliveredEventsTime) {
  ClusterSim sim = BootstrappedSim(8);
  FaultScheduler sched(
      *FaultSpec::Parse("mttf=500;mttr=200;straggle-every=800;interrupt@300;"
                        "interrupt@1700;interrupt@2600"),
      42);
  std::size_t by_type[3] = {};  // interrupt, crash, slowdown
  for (int i = 0; i < 40; ++i) {
    const SimTime next = sched.NextEventTime();
    ASSERT_LT(next, kNeverRecovers);
    EXPECT_TRUE(sched.AdvanceTo(std::nextafter(next, 0.0), &sim).empty())
        << "event " << i;
    const std::vector<FaultEvent> delivered = sched.AdvanceTo(next, &sim);
    ASSERT_FALSE(delivered.empty()) << "event " << i;
    EXPECT_EQ(delivered.front().time, next) << "event " << i;
    EXPECT_GT(sched.NextEventTime(), next) << "event " << i;
    for (const FaultEvent& ev : delivered) {
      by_type[ev.type == FaultType::kInterrupt ? 0
              : ev.type == FaultType::kCrash   ? 1
                                               : 2] += 1;
    }
  }
  for (const std::size_t n : by_type) EXPECT_GT(n, 0u);
  // After AdvanceTo(t), the next event lies beyond t.
  for (const SimTime t : {30000.0, 30000.5, 45000.0}) {
    sched.AdvanceTo(t, &sim);
    EXPECT_GT(sched.NextEventTime(), t);
  }
  // With no source left the peek is +inf.
  FaultScheduler scripted_only(*FaultSpec::Parse("interrupt@10"), 1);
  EXPECT_EQ(scripted_only.NextEventTime(), 10.0);
  scripted_only.AdvanceTo(10.0, &sim);
  EXPECT_EQ(scripted_only.NextEventTime(), kNeverRecovers);
}

// A scripted event tied with a stochastic one is delivered first, and
// the peek is their shared time. The tie is built from the stochastic
// onset a same-seeded scheduler peeks at.
TEST(FaultSchedulerTest, NextEventTimeKeepsTheTieOrder) {
  for (const char* model : {"mttf=500", "straggle-every=800"}) {
    const FaultSpec stochastic = *FaultSpec::Parse(model);
    const SimTime onset = FaultScheduler(stochastic, 42).NextEventTime();
    FaultSpec spec = stochastic;
    FaultEvent tied;
    tied.time = onset;
    tied.type = FaultType::kInterrupt;
    spec.scripted.push_back(tied);
    FaultScheduler sched(spec, 42);
    EXPECT_EQ(sched.NextEventTime(), onset) << model;
    ClusterSim sim = BootstrappedSim(4);
    const std::vector<FaultEvent> delivered = sched.AdvanceTo(onset, &sim);
    ASSERT_EQ(delivered.size(), 2u) << model;
    EXPECT_EQ(delivered[0].type, FaultType::kInterrupt) << model;
    EXPECT_NE(delivered[1].type, FaultType::kInterrupt) << model;
    EXPECT_EQ(delivered[1].time, onset) << model;
    EXPECT_GT(sched.NextEventTime(), onset) << model;
  }
}

TEST(FaultSchedulerTest, ScriptedInterruptRestartsEveryPendingTransfer) {
  ClusterSim sim = BootstrappedSim(2);
  FaultScheduler sched(*FaultSpec::Parse("interrupt@50"), 1);
  sched.AdvanceTo(60.0, &sim);

  TransitionPlan plan;
  plan.moves.push_back(NodeTransition{0, 0, 100});
  plan.moves.push_back(NodeTransition{1, 1, 0});  // nothing to restart
  plan.moves.push_back(NodeTransition{kInvalidNode, 2, 50});
  const auto interrupted = sched.InterruptedMoves(plan, 60.0);
  EXPECT_EQ(interrupted, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(sched.stats().transfer_interrupts, 2u);
  // The scripted interrupt is one-shot; with pinterrupt=0 the next
  // transition is untouched.
  EXPECT_TRUE(sched.InterruptedMoves(plan, 70.0).empty());
}

// ------------------------------------------------- end-to-end churn runs

Dataset OneTable(TupleCount n) {
  Dataset ds;
  ds.tables.push_back(TableSpec{0, "t", n});
  return ds;
}

NashDbOptions SmallOptions() {
  NashDbOptions o;
  o.window_scans = 20;
  o.block_tuples = 1000;
  o.node_cost = 10.0;
  o.node_disk = 20000;
  return o;
}

// 120 queries, one every 30 s, cycling over five 2000-tuple ranges of a
// 10000-tuple table.
Workload ChurnWorkload() {
  Workload wl;
  wl.name = "churn";
  wl.dataset = OneTable(10000);
  for (QueryId q = 0; q < 120; ++q) {
    TimedQuery tq;
    tq.arrival = 30.0 * static_cast<double>(q);
    const TupleIndex start = (q % 5) * 2000u;
    tq.query = MakeQuery(q, 1.0, {{0, TupleRange{start, start + 2000}}});
    wl.queries.push_back(tq);
  }
  return wl;
}

RunResult RunChurn(bool emergency_repair) {
  const Workload wl = ChurnWorkload();
  NashDbSystem sys(wl.dataset, SmallOptions());
  MaxOfMinsRouter router;
  DriverOptions dopts;
  dopts.warmup_observe = true;
  dopts.periodic_reconfigure = false;  // emergency repair is the only cure
  // Kill every node the bootstrap config could plausibly have, forever.
  // Clauses naming nonexistent ids are dropped and counted, so this works
  // for any bootstrap size up to 8 nodes.
  std::string spec;
  for (int m = 0; m < 8; ++m) {
    spec += "crash@315:n" + std::to_string(m) + ";";
  }
  dopts.faults.spec = *FaultSpec::Parse(spec);
  dopts.faults.seed = 1;
  dopts.faults.emergency_repair = emergency_repair;
  return RunWorkload(wl, &sys, &router, dopts);
}

TEST(ChurnAcceptanceTest, RepairCompletesStrictlyMoreQueriesThanNoRepair) {
  const RunResult with_repair = RunChurn(/*emergency_repair=*/true);
  const RunResult without = RunChurn(/*emergency_repair=*/false);

  EXPECT_GE(with_repair.crashes, 1u);
  EXPECT_GE(without.crashes, 1u);

  // Without repair the total coverage loss is terminal: every query after
  // the crash retries, times out, and aborts.
  EXPECT_GT(without.aborted_queries, 0u);
  EXPECT_GT(without.scan_retries, 0u);

  // With repair the lost replicas are re-provisioned from the durable
  // base store before the next arrival routes.
  EXPECT_GE(with_repair.emergency_repairs, 1u);
  EXPECT_GT(with_repair.repair_transfer_tuples, 0u);
  EXPECT_EQ(with_repair.aborted_queries, 0u);

  EXPECT_GT(with_repair.CompletedQueries(), without.CompletedQueries());
  EXPECT_NE(with_repair.metrics_json.find("\"faults.emergency_repairs\""),
            std::string::npos);
}

TEST(ChurnAcceptanceTest, AbortedRecordsAreExcludedFromAggregates) {
  const RunResult without = RunChurn(/*emergency_repair=*/false);
  ASSERT_GT(without.aborted_queries, 0u);
  ASSERT_LT(without.aborted_queries, without.records.size());
  std::size_t aborted = 0;
  for (const QueryRecord& r : without.records) {
    if (r.aborted) {
      ++aborted;
      EXPECT_GT(r.retries, 0u);
    }
  }
  EXPECT_EQ(aborted, without.aborted_queries);
  EXPECT_EQ(without.CompletedQueries(),
            without.records.size() - without.aborted_queries);
  // Aggregates come from completed queries only, so they stay finite and
  // sane despite the aborts.
  EXPECT_GT(without.MeanLatency(), 0.0);
  EXPECT_GE(without.TailLatency(99.0), without.MeanLatency() * 0.0);
}

// ------------------------------------------- determinism across threads

std::vector<std::string> FaultMetricLines(const std::string& metrics_json) {
  std::vector<std::string> lines;
  std::istringstream in(metrics_json);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"faults.") != std::string::npos) lines.push_back(line);
  }
  return lines;
}

TEST(FaultDeterminismTest, FaultHistoryIsIdenticalAcrossReconfigThreads) {
  RandomWorkloadOptions ropts;
  ropts.db_gb = 2.0;
  ropts.num_queries = 50;
  ropts.span_s = 3.0 * 3600.0;
  const Workload wl = MakeRandomWorkload(ropts);

  const FaultSpec spec = *FaultSpec::Parse(
      "mttf=1200;mttr=400;straggle-every=1500;straggle-x=0.5;"
      "pinterrupt=0.1");

  auto run = [&](std::size_t threads) {
    NashDbOptions nopts = SmallOptions();
    nopts.block_tuples = 2000;
    nopts.node_disk = 30000;
    nopts.reconfig_threads = threads;
    NashDbSystem sys(wl.dataset, nopts);
    MaxOfMinsRouter router;
    DriverOptions dopts;
    dopts.reconfigure_interval_s = 3600.0;
    dopts.faults.spec = spec;
    dopts.faults.seed = 7;
    return RunWorkload(wl, &sys, &router, dopts);
  };

  const RunResult serial = run(1);
  const RunResult parallel = run(4);

  // All fault randomness is drawn on the (serial) driver loop from the
  // single seed, so the reconfiguration thread count must not perturb a
  // single faults.* metric.
  const auto serial_lines = FaultMetricLines(serial.metrics_json);
  const auto parallel_lines = FaultMetricLines(parallel.metrics_json);
  ASSERT_FALSE(serial_lines.empty());
  EXPECT_EQ(serial_lines, parallel_lines);

  EXPECT_EQ(serial.crashes, parallel.crashes);
  EXPECT_EQ(serial.aborted_queries, parallel.aborted_queries);
  EXPECT_EQ(serial.scan_retries, parallel.scan_retries);
  EXPECT_EQ(serial.emergency_repairs, parallel.emergency_repairs);
  EXPECT_EQ(serial.repair_transfer_tuples, parallel.repair_transfer_tuples);

  ASSERT_EQ(serial.records.size(), parallel.records.size());
  for (std::size_t i = 0; i < serial.records.size(); ++i) {
    EXPECT_EQ(serial.records[i].aborted, parallel.records[i].aborted) << i;
    EXPECT_EQ(serial.records[i].retries, parallel.records[i].retries) << i;
    EXPECT_DOUBLE_EQ(serial.records[i].completion,
                     parallel.records[i].completion)
        << i;
  }
}

TEST(FaultDeterminismTest, SameSeedReplaysBitIdenticalFaultMetrics) {
  auto run = [] { return RunChurn(/*emergency_repair=*/true); };
  const RunResult a = run();
  const RunResult b = run();
  const auto la = FaultMetricLines(a.metrics_json);
  ASSERT_FALSE(la.empty());
  EXPECT_EQ(la, FaultMetricLines(b.metrics_json));
}

}  // namespace
}  // namespace nashdb
