// End-to-end behavioural tests: the qualitative claims of the paper's
// evaluation (§10) must hold on small instances of the same experiments.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "baselines/hypergraph_system.h"
#include "baselines/threshold_system.h"
#include "cluster/faults.h"
#include "common/metrics.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "fragment/fragmenter.h"
#include "value/estimator.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"

namespace nashdb {
namespace {

DriverOptions FastSim() {
  DriverOptions d;
  d.sim.tuples_per_second = 50000.0;
  d.sim.transfer_tuples_per_second = 200000.0;
  d.sim.span_overhead_s = 0.35;
  d.sim.node_cost_per_hour = 10.0;
  d.phi_s = 0.35;
  return d;
}

NashDbOptions EngineOptions() {
  NashDbOptions o;
  o.window_scans = 30;
  o.block_tuples = 2000;
  o.node_cost = 10.0;
  o.node_disk = 40000;
  return o;
}

// §10.2 / Figure 6c: raising every query's price lowers mean latency
// (more replicas + more nodes) at higher cost.
TEST(PriorityIntegrationTest, HigherUniformPriceLowersLatencyRaisesCost) {
  TpchOptions topts;
  topts.db_gb = 3.0;
  topts.num_queries = 44;

  auto run = [&](Money price) {
    topts.price = price;
    const Workload wl = MakeTpchWorkload(topts);
    NashDbSystem sys(wl.dataset, EngineOptions());
    MaxOfMinsRouter router;
    DriverOptions dopts = FastSim();
    dopts.warmup_observe = true;
    dopts.periodic_reconfigure = false;
    return RunWorkload(wl, &sys, &router, dopts);
  };

  const RunResult cheap = run(0.01);
  const RunResult dear = run(0.64);
  EXPECT_LT(dear.MeanLatency(), cheap.MeanLatency());
  EXPECT_GT(dear.final_nodes, cheap.final_nodes);
}

// §10.2 / Figure 9a: raising one template's price improves mainly that
// template.
TEST(PriorityIntegrationTest, PrioritizedTemplateImprovesMost) {
  TpchOptions topts;
  topts.db_gb = 3.0;
  topts.num_queries = 66;
  // Baseline price calibrated against node rent so fragments earn replicas
  // at this scaled-down size (replicas ~ window_value * disk / cost).
  topts.price = 1.0;

  auto run = [&](Money t7_price) {
    // Reads must dominate the per-node span overhead for replica
    // spreading to matter (in the paper fragments are disk blocks and
    // queries read GBs): slow the simulated disks down.
    DriverOptions dopts = FastSim();
    dopts.sim.tuples_per_second = 2000.0;
    dopts.sim.transfer_tuples_per_second = 50000.0;
    Workload wl = MakeTpchWorkload(topts);
    for (TimedQuery& tq : wl.queries) {
      if (TpchTemplateOf(tq.query) == 7) {
        tq.query = MakeQuery(tq.query.id, t7_price,
                             [&] {
                               std::vector<std::pair<TableId, TupleRange>> rs;
                               for (const Scan& s : tq.query.scans) {
                                 rs.emplace_back(s.table, s.range);
                               }
                               return rs;
                             }());
      }
    }
    // Window large enough to retain the whole batch, so the repriced
    // template is visible to the value estimator.
    NashDbOptions eopts = EngineOptions();
    eopts.window_scans = 1000;
    NashDbSystem sys(wl.dataset, eopts);
    MaxOfMinsRouter router;
    dopts.warmup_observe = true;
    dopts.periodic_reconfigure = false;
    const RunResult result = RunWorkload(wl, &sys, &router, dopts);
    double t7 = 0.0, rest = 0.0;
    int n7 = 0, nrest = 0;
    for (const QueryRecord& r : result.records) {
      if (static_cast<int>(r.id % 100) == 7) {
        t7 += r.latency_s;
        ++n7;
      } else {
        rest += r.latency_s;
        ++nrest;
      }
    }
    return std::pair{t7 / n7, rest / nrest};
  };

  const auto [t7_lo, rest_lo] = run(1.0);
  const auto [t7_hi, rest_hi] = run(16.0);
  // Prioritized template improves substantially (the paper: ~4x)...
  EXPECT_LT(t7_hi, t7_lo * 0.80);
  // ...much more than the unprioritized rest improves (relatively).
  const double t7_gain = t7_lo / t7_hi;
  const double rest_gain = rest_lo / std::max(rest_hi, 1e-9);
  EXPECT_GT(t7_gain, rest_gain);
}

// §10.1: the value estimation tree stays tiny and fast.
TEST(OverheadIntegrationTest, ValueTreeFootprintStaysSmall) {
  TupleValueEstimator est(50);
  TpchOptions topts;
  topts.db_gb = 10.0;
  topts.num_queries = 440;
  const Workload wl = MakeTpchWorkload(topts);
  for (const TimedQuery& tq : wl.queries) est.AddQuery(tq.query);
  // Window of 50 scans: the paper reports < 1 KB for the raw tree; our
  // nodes carry extra augmentation, so allow a small multiple.
  EXPECT_LT(est.SizeBytes(), 16u * 1024u);
}

// §10.3 flavor: with matched cluster economics, NashDB achieves lower
// mean latency than the fixed baselines at comparable (or lower) cost on
// a skewed workload.
TEST(EndToEndComparisonTest, NashDbCompetitiveOnBernoulli) {
  BernoulliOptions bopts;
  bopts.db_gb = 8.0;
  bopts.num_queries = 120;
  bopts.arrival_span_s = 2.0 * 3600.0;
  // Faster per-GB decay than the paper's 19/20 so the hot tail is a small
  // fraction of this scaled-down table (at 8 GB, 0.95/GB would make most
  // scans read nearly everything).
  bopts.continue_prob = 0.6;
  const Workload wl = MakeBernoulliWorkload(bopts);

  MaxOfMinsRouter router;
  DriverOptions dopts = FastSim();
  dopts.reconfigure_interval_s = 1800.0;

  NashDbOptions nopts = EngineOptions();
  NashDbSystem nash(wl.dataset, nopts);
  const RunResult r_nash = RunWorkload(wl, &nash, &router, dopts);

  ThresholdOptions t_opts;
  t_opts.window_scans = 30;
  t_opts.node_disk = nopts.node_disk;
  t_opts.node_cost = nopts.node_cost;
  t_opts.num_nodes = std::max<std::size_t>(2, r_nash.final_nodes);
  ThresholdSystem threshold(wl.dataset, t_opts);
  const RunResult r_thresh = RunWorkload(wl, &threshold, &router, dopts);

  HypergraphSystemOptions h_opts;
  h_opts.window_scans = 30;
  h_opts.node_disk = nopts.node_disk;
  h_opts.node_cost = nopts.node_cost;
  h_opts.num_partitions = std::max<std::size_t>(2, r_nash.final_nodes);
  HypergraphSystem hyper(wl.dataset, h_opts);
  const RunResult r_hyper = RunWorkload(wl, &hyper, &router, dopts);

  // At node parity, NashDB's replication of the hot tail must beat both
  // baselines on latency.
  EXPECT_LT(r_nash.MeanLatency(), r_thresh.MeanLatency() * 1.05);
  EXPECT_LT(r_nash.MeanLatency(), r_hyper.MeanLatency() * 1.05);
}

// §10.3: hypergraph moves less data across transitions than NashDB, but
// NashDB's transition stream is modest relative to query throughput.
TEST(EndToEndComparisonTest, TransitionOverheadModest) {
  RandomWorkloadOptions ropts;
  ropts.db_gb = 3.0;
  ropts.num_queries = 150;
  ropts.span_s = 6.0 * 3600.0;
  const Workload wl = MakeRandomWorkload(ropts);

  NashDbSystem nash(wl.dataset, EngineOptions());
  MaxOfMinsRouter router;
  DriverOptions dopts = FastSim();
  dopts.reconfigure_interval_s = 3600.0;
  const RunResult result = RunWorkload(wl, &nash, &router, dopts);

  // Transition volume (excluding the initial load) stays well below total
  // query reads (the paper: < 5% throughput variance).
  EXPECT_LT(static_cast<double>(result.transferred_tuples),
            1.0 * static_cast<double>(result.read_tuples) +
                2.0 * static_cast<double>(wl.dataset.TotalTuples()));
}

// Routing algorithms end-to-end (Figure 8c flavor): MaxOfMins no worse
// than the others on a replicated hot-region workload.
TEST(EndToEndComparisonTest, MaxOfMinsBestLatencyEndToEnd) {
  BernoulliOptions bopts;
  bopts.db_gb = 4.0;
  bopts.num_queries = 100;
  bopts.arrival_span_s = 3600.0;
  const Workload wl = MakeBernoulliWorkload(bopts);

  auto run = [&](ScanRouter* router) {
    NashDbSystem nash(wl.dataset, EngineOptions());
    DriverOptions dopts = FastSim();
    dopts.reconfigure_interval_s = 1800.0;
    return RunWorkload(wl, &nash, router, dopts);
  };

  MaxOfMinsRouter mm;
  ShortestQueueRouter sq;
  GreedyScRouter sc;
  const RunResult r_mm = run(&mm);
  const RunResult r_sq = run(&sq);
  const RunResult r_sc = run(&sc);

  EXPECT_LE(r_mm.MeanLatency(), r_sq.MeanLatency() * 1.10);
  EXPECT_LE(r_mm.MeanLatency(), r_sc.MeanLatency() * 1.10);
  // Span ordering (Figure 9c): GreedySC <= MaxOfMins <= ShortestQueue.
  EXPECT_LE(r_sc.MeanSpan(), r_mm.MeanSpan() + 0.25);
  EXPECT_LE(r_mm.MeanSpan(), r_sq.MeanSpan() + 0.25);
}

// Fragmenter quality end-to-end (Figure 6 flavor): plugging the greedy
// NashDB fragmenter into the engine yields error between Optimal and
// Naive on a skewed workload.
TEST(FragmentationIntegrationTest, ErrorOrderingOnBernoulli) {
  BernoulliOptions bopts;
  bopts.db_gb = 4.0;
  bopts.num_queries = 60;
  const Workload wl = MakeBernoulliWorkload(bopts);
  TupleValueEstimator est(50);
  for (const TimedQuery& tq : wl.queries) est.AddQuery(tq.query);
  const TupleCount n = wl.dataset.tables[0].tuples;
  const ValueProfile profile = est.Profile(0, n);

  FragmentationContext ctx;
  ctx.table = 0;
  ctx.profile = &profile;

  OptimalFragmenter optimal;
  GreedyFragmenter greedy;
  NaiveFragmenter naive;
  const std::size_t k = 20;
  const Money e_opt = SchemeError(optimal.Refragment(ctx, k), profile);
  const Money e_greedy = SchemeError(greedy.Refragment(ctx, k), profile);
  const Money e_naive = SchemeError(naive.Refragment(ctx, k), profile);

  EXPECT_LE(e_opt, e_greedy + 1e-9);
  EXPECT_LT(e_greedy, e_naive);
  // The paper: NashDB within ~50% of Optimal on static workloads.
  if (e_opt > 1e-9) {
    EXPECT_LE(e_greedy, 2.0 * e_opt);
  }
}

// Elasticity: a workload spike grows the cluster, the following lull
// shrinks it (§1/§2 promise).
TEST(ElasticityIntegrationTest, ClusterFollowsLoad) {
  Dataset ds;
  ds.tables.push_back(TableSpec{0, "t", 50000});
  NashDbOptions opts = EngineOptions();
  opts.window_scans = 10;
  NashDbSystem sys(ds, opts);

  // Spike: expensive full-table queries.
  for (int i = 0; i < 10; ++i) {
    sys.Observe(MakeQuery(static_cast<QueryId>(i), 10.0,
                          {{0, TupleRange{0, 50000}}}));
  }
  const std::size_t spike = sys.BuildConfig().node_count();
  // Lull: cheap point-ish queries.
  for (int i = 0; i < 10; ++i) {
    sys.Observe(MakeQuery(static_cast<QueryId>(100 + i), 0.001,
                          {{0, TupleRange{0, 50}}}));
  }
  const std::size_t lull = sys.BuildConfig().node_count();
  EXPECT_GT(spike, lull);
}

// The end-to-end metrics snapshot (the tentpole of the observability
// layer): one dynamic TPC-H run must produce a JSON snapshot covering all
// six pipeline stages — estimation, fragmentation, replication, transition,
// routing, and the sim loop.
TEST(MetricsIntegrationTest, SnapshotCoversEveryPipelineStage) {
  TpchOptions topts;
  topts.db_gb = 3.0;
  topts.num_queries = 44;
  topts.arrival_span_s = 4.0 * 3600.0;  // 4 hours => several hourly rounds
  const Workload wl = MakeTpchWorkload(topts);
  NashDbSystem sys(wl.dataset, EngineOptions());
  MaxOfMinsRouter router;
  DriverOptions dopts = FastSim();
  dopts.prewarm_scans = 10;
  dopts.collect_metrics = true;
  const RunResult r = RunWorkload(wl, &sys, &router, dopts);

  const std::string& js = r.metrics_json;
  ASSERT_FALSE(js.empty());
  for (const char* marker : {
           // snapshot sections
           "\"counters\"", "\"gauges\"", "\"histograms\"",
           "\"reconfigurations\"",
           // §4 estimation
           "value.scans_added", "\"window_scans\"", "\"tree_nodes\"",
           // §5 fragmentation
           "frag.refragment_ms", "\"scheme_error\"", "\"thread_utilization\"",
           // §6 replication
           "replication.disk_fill", "\"nash_equilibrium\"",
           "\"placed_replicas\"",
           // §7 transition
           "transition.plan_ms", "\"planned_transfer_tuples\"",
           // §8 routing
           "routing.span", "routing.queue_wait_s",
           // sim/driver loop
           "sim.reconfig_round_ms", "sim.transitions",
       }) {
    EXPECT_NE(js.find(marker), std::string::npos)
        << "snapshot missing " << marker;
  }
  // One trace per BuildConfig round (bootstrap + periodic).
  EXPECT_GE(r.transitions + r.transitions_skipped, 2u);
  // The run disabled the registry again on exit.
  EXPECT_FALSE(metrics::Enabled());

  // The same run with collection off produces no snapshot and leaves the
  // registry untouched.
  NashDbSystem sys2(wl.dataset, EngineOptions());
  DriverOptions quiet = dopts;
  quiet.collect_metrics = false;
  const RunResult r2 = RunWorkload(wl, &sys2, &router, quiet);
  EXPECT_TRUE(r2.metrics_json.empty());
}

/// The number after `key` in a metrics snapshot (0, and a failure, when
/// the key is absent).
std::uint64_t SnapshotNumber(const std::string& js, const std::string& key) {
  const std::size_t at = js.find(key);
  EXPECT_NE(at, std::string::npos) << "snapshot missing " << key;
  if (at == std::string::npos) return 0;
  return std::strtoull(js.c_str() + at + key.size(), nullptr, 10);
}

std::uint64_t CounterValue(const std::string& js, const std::string& name) {
  return SnapshotNumber(js, "\"" + name + "\": ");
}

std::uint64_t HistogramCount(const std::string& js, const std::string& name) {
  return SnapshotNumber(js, "\"" + name + "\": {\"count\": ");
}

/// As CounterValue, for a counter a run records only when its event
/// happens: 0 when the snapshot has no such counter.
std::uint64_t EventCount(const std::string& js, const std::string& name) {
  const std::string key = "\"" + name + "\": ";
  if (js.find(key) == std::string::npos) return 0;
  return SnapshotNumber(js, key);
}

// Two metrics-on runs of different workloads in one process: each run's
// routing.* metrics count exactly its own queries and reads — a metric
// handle kept past its run, or one that drops or double-counts, breaks
// the equalities. The second run aborts some queries, which count as
// reads but not as routed queries.
TEST(MetricsIntegrationTest, RoutingMetricsArePerRun) {
  TpchOptions topts;
  topts.db_gb = 3.0;
  topts.arrival_span_s = 2.0 * 3600.0;
  for (const bool faults : {false, true}) {
    topts.num_queries = faults ? 70 : 44;
    const Workload wl = MakeTpchWorkload(topts);
    NashDbSystem sys(wl.dataset, EngineOptions());
    MaxOfMinsRouter router;
    DriverOptions dopts = FastSim();
    dopts.prewarm_scans = 10;
    dopts.collect_metrics = true;
    if (faults) {
      dopts.sim.tuples_per_second = 150.0;
      dopts.faults.spec =
          *FaultSpec::Parse("crash@1000:n0;crash@2000:n1;crash@3000:n2");
      dopts.faults.emergency_repair = false;
    }
    const RunResult r = RunWorkload(wl, &sys, &router, dopts);
    const std::string& js = r.metrics_json;
    const std::uint64_t completed = r.CompletedQueries();
    ASSERT_GT(completed, 0u);
    if (faults) {
      EXPECT_GT(r.aborted_queries, 0u);
    }
    EXPECT_EQ(CounterValue(js, "routing.queries"), completed);
    EXPECT_EQ(HistogramCount(js, "routing.span"), completed);
    EXPECT_EQ(HistogramCount(js, "routing.latency_s"), completed);
    EXPECT_EQ(HistogramCount(js, "routing.queue_wait_s"),
              CounterValue(js, "routing.requests"));
    EXPECT_GE(CounterValue(js, "routing.requests"), completed);
  }
}

// A faulted run's transition metrics against its result, at build
// windows 0 and 600 s, each with and without adaptive mode. Scripted
// crashes, a partition and stochastic crashes with recovery trigger
// emergency repairs, and interrupted transfers are re-sent. Every applied
// transition but the bootstrap records one transfer window; every
// published round, applied or skipped, records one round time and one
// stall, and an emergency repair is not a round.
TEST(MetricsIntegrationTest, TransitionMetricsMatchTheRun) {
  TpchOptions topts;
  topts.db_gb = 3.0;
  topts.num_queries = 120;
  topts.arrival_span_s = 6.0 * 3600.0;
  const Workload wl = MakeTpchWorkload(topts);
  for (const double window_s : {0.0, 600.0}) {
    for (const bool adaptive : {false, true}) {
      SCOPED_TRACE(testing::Message() << "window " << window_s << " s"
                                      << (adaptive ? ", adaptive" : ""));
      NashDbSystem sys(wl.dataset, EngineOptions());
      MaxOfMinsRouter router;
      DriverOptions dopts = FastSim();
      dopts.prewarm_scans = 10;
      dopts.collect_metrics = true;
      dopts.online_build_window_s = window_s;
      dopts.adaptive_reconfigure = adaptive;
      dopts.faults.spec = *FaultSpec::Parse(
          "crash@2000:n0;crash@5000:n1:for=1800;partition@9000:n2:for=1200;"
          "mttf=5400;mttr=1800;pinterrupt=0.3");
      dopts.faults.seed = 7;
      const RunResult r = RunWorkload(wl, &sys, &router, dopts);
      const std::string& js = r.metrics_json;
      ASSERT_GT(r.emergency_repairs, 0u);
      ASSERT_GT(r.transitions, 1 + r.emergency_repairs);
      if (adaptive) {
        EXPECT_GT(r.transitions_skipped, 0u);
      }

      EXPECT_EQ(CounterValue(js, "sim.transitions"), r.transitions);
      EXPECT_EQ(EventCount(js, "sim.transitions_skipped"),
                r.transitions_skipped);
      EXPECT_EQ(CounterValue(js, "faults.emergency_repairs"),
                r.emergency_repairs);
      EXPECT_EQ(CounterValue(js, "faults.repair_transfer_tuples"),
                r.repair_transfer_tuples);
      EXPECT_EQ(HistogramCount(js, "sim.transfer_window_s"),
                r.transitions - 1);
      const std::uint64_t rounds = r.transitions - 1 - r.emergency_repairs +
                                   r.transitions_skipped;
      EXPECT_EQ(HistogramCount(js, "sim.reconfig_round_ms"), rounds);
      EXPECT_EQ(HistogramCount(js, "sim.reconfig_stall_s"), rounds);
    }
  }
}

// Two back-to-back metrics-on runs through one NashDbSystem: its
// estimator (and with it the value.* counter handles) outlives the first
// run, whose registry the second run's start resets. Each run's
// value.scans_added must be exactly the scans that run observed, and
// value.scans_evicted what the window had to give up for them — a handle
// kept past the reset would record into a freed counter instead.
TEST(MetricsIntegrationTest, ValueMetricsArePerRunOnAReusedSystem) {
  TpchOptions topts;
  topts.db_gb = 3.0;
  topts.num_queries = 44;
  topts.arrival_span_s = 2.0 * 3600.0;
  const Workload wl = MakeTpchWorkload(topts);
  std::uint64_t scans = 0;
  for (const TimedQuery& tq : wl.queries) {
    for (const Scan& s : tq.query.scans) scans += s.range.empty() ? 0 : 1;
  }
  ASSERT_GT(scans, 0u);
  NashDbSystem sys(wl.dataset, EngineOptions());
  MaxOfMinsRouter router;
  DriverOptions dopts = FastSim();
  dopts.collect_metrics = true;
  for (int run = 0; run < 2; ++run) {
    const std::size_t before = sys.estimator().window_scans();
    const RunResult r = RunWorkload(wl, &sys, &router, dopts);
    const std::size_t after = sys.estimator().window_scans();
    EXPECT_EQ(CounterValue(r.metrics_json, "value.scans_added"), scans)
        << "run " << run;
    if (before + scans > after) {
      EXPECT_EQ(CounterValue(r.metrics_json, "value.scans_evicted"),
                before + scans - after)
          << "run " << run;
    }
  }
}

}  // namespace
}  // namespace nashdb
