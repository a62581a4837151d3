// Scenario engine tests (DESIGN.md §13): spec parsing with named-token
// errors, assertion evaluation, the streaming phased workload, backoff /
// shared-retry-budget contracts, determinism across thread counts, and
// the stream-vs-materialized bit-identity gate.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/faults.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "routing/router.h"
#include "scenario/scenario.h"
#include "workload/streaming.h"

namespace nashdb {
namespace {

// ---------------------------------------------------- ScenarioSpec::Parse

constexpr const char* kFullSpec = R"(
# comment line
[scenario]
name = everything
seed = 42
description = all sections exercised

[topology]
racks = 4

[workload]
queries = 500
db_gb = 20
tuples_per_gb = 500
price = 2.0
duration_s = 7200
hot_prob = 0.7
hot_frac = 0.25
hot_center = 0.6
scan_frac = 0.03
stream_seed = 77

[phase]
kind = flash_crowd
start_s = 1000
end_s = 2000
rate_x = 5
focus_lo = 0.8
focus_hi = 1.0
focus_prob = 0.95

[phase]
kind = price_war
price_x = 4
tenant_frac = 0.5

[faults]
spec = crash@900:r1:for=300; partition@1500:n0:for=200
no_repair = false
max_scan_retries = 5
retry_backoff_s = 10
retry_backoff_cap_s = 40
query_retry_budget = 7

[overload]
max_pending = 32
shed_keep_price = 3.0
hard_cap_factor = 1.5

[driver]
interval_s = 1800
window = 100
node_cost = 5
keep_records = true
reconfig_threads = 2
router = power2

[assert]
max_abort_rate = 0.1
min_completed = 100
)";

TEST(ScenarioParseTest, FullSpecPopulatesEverySection) {
  const auto parsed = ScenarioSpec::Parse(kFullSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const ScenarioSpec& s = *parsed;
  EXPECT_EQ(s.name, "everything");
  EXPECT_EQ(s.seed, 42u);
  EXPECT_EQ(s.racks, 4u);
  EXPECT_EQ(s.workload.num_queries, 500u);
  EXPECT_DOUBLE_EQ(s.workload.db_gb, 20.0);
  EXPECT_EQ(s.workload.tuples_per_gb, 500u);
  EXPECT_DOUBLE_EQ(s.workload.price, 2.0);
  EXPECT_EQ(s.workload.seed, 77u);
  ASSERT_EQ(s.workload.phases.size(), 2u);
  EXPECT_EQ(s.workload.phases[0].kind, StreamPhase::Kind::kFlashCrowd);
  EXPECT_DOUBLE_EQ(s.workload.phases[0].rate_x, 5.0);
  EXPECT_EQ(s.workload.phases[1].kind, StreamPhase::Kind::kPriceWar);
  EXPECT_DOUBLE_EQ(s.workload.phases[1].tenant_frac, 0.5);
  EXPECT_EQ(s.fault_options.max_scan_retries, 5u);
  EXPECT_EQ(s.fault_options.query_retry_budget, 7u);
  EXPECT_TRUE(s.fault_options.emergency_repair);
  // The [topology] racks fold into the parsed fault spec so r-scoped
  // targets resolve.
  EXPECT_EQ(s.fault_options.spec.racks, 4u);
  ASSERT_EQ(s.fault_options.spec.scripted.size(), 2u);
  EXPECT_EQ(s.fault_options.spec.scripted[0].rack, 1u);
  EXPECT_EQ(s.fault_options.spec.scripted[1].type, FaultType::kPartition);
  EXPECT_EQ(s.overload.max_pending_queries, 32u);
  EXPECT_DOUBLE_EQ(s.overload.shed_keep_price, 3.0);
  EXPECT_DOUBLE_EQ(s.interval_s, 1800.0);
  EXPECT_EQ(s.window, 100u);
  EXPECT_EQ(s.reconfig_threads, 2u);
  EXPECT_EQ(s.router, "power2");
  ASSERT_EQ(s.assertions.size(), 2u);
  EXPECT_EQ(s.assertions[0].key, "max_abort_rate");
  EXPECT_DOUBLE_EQ(s.assertions[1].value, 100.0);
}

// Satellite (a): every malformed spec is rejected naming the bad token
// and the expected grammar — the fixable-from-the-message contract.
TEST(ScenarioParseTest, MalformedSpecsNameTheBadTokenAndGrammar) {
  struct Case {
    const char* text;
    const char* token;     // must appear quoted in the message
    const char* expected;  // fragment of the expected-grammar text
  };
  const Case cases[] = {
      {"[bogus]\n", "[bogus]", "[scenario], [topology]"},
      {"queries = 5\n", "queries", "section header before any key"},
      {"[workload]\nqueries five\n", "queries five", "key = value"},
      {"[workload]\nqueries = five\n", "five", "nonnegative integer"},
      {"[workload]\nqueries = -3\n", "-3", "nonnegative integer"},
      {"[workload]\ndb_gb = big\n", "big", "a number"},
      {"[workload]\nbogus_key = 1\n", "bogus_key", "[workload] key"},
      {"[driver]\nkeep_records = sometimes\n", "sometimes",
       "true or false"},
      {"[driver]\nrouter = magic\n", "magic", "router maxofmins"},
      {"[driver]\ninterval_s = 0\n", "0", "a positive number of seconds"},
      {"[driver]\ninterval_s = -1\n", "-1", "a positive number of seconds"},
      {"[phase]\nrate_x = 2\n", "rate_x", "'kind = ...' as the first key"},
      {"[phase]\nkind = sideways\n", "sideways", "phase kind diurnal"},
      {"[assert]\nmax_qps = 10\n", "max_qps", "[assert] key"},
      {"[assert]\nmax_abort_rate = lots\n", "lots", "a number"},
      {"[scenario]\n= 3\n", "= 3", "nonempty key"},
      {"[driver]\nwindow = 0\n", "0", "a positive integer for key 'window'"},
      {"[driver]\nblock = 0\n", "0", "a positive integer for key 'block'"},
      {"[driver]\nnode_disk = 0\n", "0",
       "a positive integer for key 'node_disk'"},
      {"[workload]\nqueries = 5\ndb_gb = 1\ntuples_per_gb = 100\n"
       "[driver]\nblock = 500\nnode_disk = 99\n",
       "node_disk", "holds one block-sized fragment"},
      {"[workload]\nqueries = 5\n[driver]\nblock = 500\nnode_disk = 499\n",
       "node_disk", "min(block, table tuples) = 500"},
      {"[workload]\ndb_gb = 0\n", "0", "a number > 0 for key 'db_gb'"},
      {"[workload]\ndb_gb = -5\n", "-5", "a number > 0 for key 'db_gb'"},
      {"[workload]\nqueries = 5\ndb_gb = 0.001\ntuples_per_gb = 100\n",
       "db_gb", "at least one tuple"},
      {"[workload]\nqueries = 5\ntuples_per_gb = 0\n", "tuples_per_gb",
       "at least one tuple"},
      {"[workload]\nprice = -1\n", "-1", "a number >= 0 for key 'price'"},
      {"[phase]\nkind = price_war\nprice_x = -2\n", "-2",
       "a number >= 0 for key 'price_x'"},
      {"[driver]\ntuples_per_second = 0\n", "0",
       "a number > 0 for key 'tuples_per_second'"},
      {"[driver]\ntuples_per_second = -150\n", "-150",
       "a number > 0 for key 'tuples_per_second'"},
      {"[driver]\ntransfer_tuples_per_second = 0\n", "0",
       "a number > 0 for key 'transfer_tuples_per_second'"},
      {"[faults]\nretry_backoff_s = -1\n", "-1",
       "a number >= 0 for key 'retry_backoff_s'"},
      {"[faults]\nretry_backoff_cap_s = -0.5\n", "-0.5",
       "a number >= 0 for key 'retry_backoff_cap_s'"},
      {"[faults]\nquery_timeout_s = -900\n", "-900",
       "a number >= 0 for key 'query_timeout_s'"},
      {"[scenario]\nseed = 99999999999999999999\n", "99999999999999999999",
       "a nonnegative integer for key 'seed'"},
      {"[workload]\nqueries = 18446744073709551616\n",
       "18446744073709551616", "a nonnegative integer for key 'queries'"},
      {"[driver]\nreconfig_threads = 65\n", "65",
       "an integer from 0 to 64 for key 'reconfig_threads'"},
      {"[driver]\nreconfig_threads = 100000000\n", "100000000",
       "an integer from 0 to 64 for key 'reconfig_threads'"},
  };
  for (const Case& c : cases) {
    const auto parsed = ScenarioSpec::Parse(c.text);
    ASSERT_FALSE(parsed.ok()) << c.text;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument)
        << c.text;
    const std::string& msg = parsed.status().message();
    EXPECT_NE(msg.find(std::string("'") + c.token + "'"), std::string::npos)
        << "message should quote '" << c.token << "': " << msg;
    EXPECT_NE(msg.find(c.expected), std::string::npos)
        << "message should state the expected grammar (" << c.expected
        << "): " << msg;
  }
}

TEST(ScenarioParseTest, FaultSpecErrorsPropagateWithContext) {
  const auto parsed = ScenarioSpec::Parse(
      "[workload]\nqueries = 10\n[faults]\nspec = crash@600\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("[faults] spec"),
            std::string::npos)
      << parsed.status().ToString();
  EXPECT_NE(parsed.status().message().find("crash@600"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ScenarioParseTest, RackScopedFaultsRequireTopology) {
  // New fault-grammar error paths (kPartition + rack targets): an r-scoped
  // target without a declared rack count, and a rack beyond it.
  const auto no_racks = FaultSpec::Parse("crash@5:r1");
  ASSERT_FALSE(no_racks.ok());
  EXPECT_NE(no_racks.status().message().find("racks="), std::string::npos)
      << no_racks.status().ToString();
  const auto oob = FaultSpec::Parse("racks=2;partition@5:r7");
  ASSERT_FALSE(oob.ok());
  // A scenario [topology] section supplies the racks= clause implicitly.
  const auto folded = ScenarioSpec::Parse(
      "[topology]\nracks = 3\n[workload]\nqueries = 10\n"
      "[faults]\nspec = partition@5:r1:for=60\n");
  ASSERT_TRUE(folded.ok()) << folded.status().ToString();
  EXPECT_EQ(folded->fault_options.spec.racks, 3u);
}

TEST(ScenarioParseTest, ZeroQueriesRejected) {
  const auto parsed = ScenarioSpec::Parse("[workload]\nqueries = 0\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("queries"), std::string::npos);
}

// ----------------------------------------------------- EvaluateAssertions

ScenarioSpec SpecWithAsserts(
    std::vector<std::pair<std::string, double>> entries) {
  ScenarioSpec spec;
  for (auto& [k, v] : entries) spec.assertions.push_back({k, v});
  return spec;
}

TEST(EvaluateAssertionsTest, DirectionsAndNaming) {
  RunResult r;
  r.total_queries = 100;
  r.aborted_queries = 10;
  r.shed_queries = 20;
  r.scan_retries = 30;
  r.total_cost = 500.0;
  r.last_fault_time_s = 1000.0;
  r.last_disruption_time_s = 1600.0;
  for (int i = 0; i < 70; ++i) {
    QueryRecord q;
    q.latency_s = 10.0;
    r.records.push_back(q);
    r.completed_latency_sum_s += q.latency_s;
    r.latency_histogram.Add(q.latency_s);
  }

  // All met.
  const auto ok = EvaluateAssertions(
      SpecWithAsserts({{"max_abort_rate", 0.2},
                       {"max_shed_rate", 0.2},
                       {"max_retry_rate", 0.5},
                       {"mean_latency_s", 11.0},
                       {"p99_latency_s", 11.0},
                       {"recovery_time_s", 600.0},
                       {"min_completed", 70.0},
                       {"min_cost_cents", 400.0},
                       {"max_cost_cents", 600.0},
                       {"max_rss_mb", 100.0}}),
      r, 50.0);
  EXPECT_TRUE(ok.empty()) << ok.front();

  // Each direction violated, and the violation names key + both numbers.
  const auto bad = EvaluateAssertions(
      SpecWithAsserts({{"max_abort_rate", 0.05},
                       {"min_completed", 99.0},
                       {"recovery_time_s", 599.0},
                       {"max_rss_mb", 10.0}}),
      r, 50.0);
  ASSERT_EQ(bad.size(), 4u);
  EXPECT_NE(bad[0].find("max_abort_rate"), std::string::npos);
  EXPECT_NE(bad[0].find("0.1"), std::string::npos);
  EXPECT_NE(bad[0].find("0.05"), std::string::npos);
  EXPECT_NE(bad[1].find("min_completed: 70 < 99"), std::string::npos);
  EXPECT_NE(bad[2].find("recovery_time_s: 600 > 599"), std::string::npos);
  EXPECT_NE(bad[3].find("max_rss_mb"), std::string::npos);
}

TEST(EvaluateAssertionsTest, FaultFreeRunHasZeroRecoveryTime) {
  RunResult r;
  r.total_queries = 1;
  // last_fault_time_s = -1 (no faults): recovery is 0 even though a
  // disruption (an overload shed) happened.
  r.last_disruption_time_s = 500.0;
  const auto v = EvaluateAssertions(
      SpecWithAsserts({{"recovery_time_s", 0.0}}), r, 0.0);
  EXPECT_TRUE(v.empty());
}

// --------------------------------------------------- PhasedQueryStream

PhasedStreamOptions SmallStream() {
  PhasedStreamOptions o;
  o.db_gb = 20.0;
  o.tuples_per_gb = 500;
  o.num_queries = 400;
  o.duration_s = 7200.0;
  o.seed = 9;
  return o;
}

TEST(PhasedQueryStreamTest, ProducesExactlyNumQueriesInArrivalOrder) {
  PhasedStreamOptions o = SmallStream();
  StreamPhase diurnal;
  diurnal.kind = StreamPhase::Kind::kDiurnal;
  o.phases.push_back(diurnal);
  PhasedQueryStream stream(o);
  const TupleCount n = stream.dataset().tables[0].tuples;
  TimedQuery tq;
  std::size_t count = 0;
  SimTime prev = 0.0;
  while (stream.Next(&tq)) {
    EXPECT_GE(tq.arrival, prev);
    prev = tq.arrival;
    ASSERT_EQ(tq.query.scans.size(), 1u);
    EXPECT_LE(tq.query.scans[0].range.end, n);
    EXPECT_LT(tq.query.scans[0].range.start, tq.query.scans[0].range.end);
    ++count;
  }
  EXPECT_EQ(count, o.num_queries);
  // Exhausted stream stays exhausted.
  EXPECT_FALSE(stream.Next(&tq));
}

TEST(PhasedQueryStreamTest, ResetAndMaterializeReplayTheSameSequence) {
  PhasedStreamOptions o = SmallStream();
  StreamPhase war;
  war.kind = StreamPhase::Kind::kPriceWar;
  war.price_x = 6.0;
  war.tenant_frac = 0.5;
  o.phases.push_back(war);
  PhasedQueryStream stream(o);
  const Workload wl = stream.Materialize();
  ASSERT_EQ(wl.queries.size(), o.num_queries);
  bool saw_war_price = false;
  TimedQuery tq;
  for (const TimedQuery& expect : wl.queries) {
    ASSERT_TRUE(stream.Next(&tq));
    EXPECT_EQ(tq.arrival, expect.arrival);
    EXPECT_EQ(tq.query.id, expect.query.id);
    EXPECT_EQ(tq.query.price, expect.query.price);
    EXPECT_EQ(tq.query.scans[0].range, expect.query.scans[0].range);
    // Price war: every price is base or exactly price_x * base.
    EXPECT_TRUE(tq.query.price == o.price ||
                tq.query.price == o.price * war.price_x)
        << tq.query.price;
    saw_war_price |= tq.query.price == o.price * war.price_x;
  }
  EXPECT_TRUE(saw_war_price);
  stream.Reset();
  ASSERT_TRUE(stream.Next(&tq));
  EXPECT_EQ(tq.arrival, wl.queries[0].arrival);
  EXPECT_EQ(tq.query.scans[0].range, wl.queries[0].query.scans[0].range);
}

TEST(PhasedQueryStreamTest, FlashCrowdFocusesArrivals) {
  PhasedStreamOptions o = SmallStream();
  o.hot_prob = 0.0;  // isolate the crowd's focus
  StreamPhase crowd;
  crowd.kind = StreamPhase::Kind::kFlashCrowd;
  crowd.start_s = 0.0;
  crowd.end_s = -1.0;  // whole run
  crowd.rate_x = 3.0;
  crowd.focus_lo = 0.9;
  crowd.focus_hi = 1.0;
  crowd.focus_prob = 1.0;
  o.phases.push_back(crowd);
  PhasedQueryStream stream(o);
  const TupleCount n = stream.dataset().tables[0].tuples;
  TimedQuery tq;
  while (stream.Next(&tq)) {
    EXPECT_GE(tq.query.scans[0].range.start,
              static_cast<TupleIndex>(0.9 * static_cast<double>(n)));
  }
}

// ------------------------------------------- backoff + shared retry budget

// Satellite (c): the capped exponential is exactly
// min(retry_backoff_s * 2^(k-1), retry_backoff_cap_s), monotone, and
// constant once capped.
TEST(RetryBackoffTest, CappedExponentialProperty) {
  for (const double base : {0.5, 2.0, 7.0}) {
    for (const double cap : {4.0, 60.0, 1000.0}) {
      FaultOptions f;
      f.retry_backoff_s = base;
      f.retry_backoff_cap_s = cap;
      double prev = 0.0;
      for (std::size_t k = 1; k <= 24; ++k) {
        const double expect =
            std::min(base * std::pow(2.0, static_cast<double>(k - 1)), cap);
        const double got = RetryBackoffSeconds(f, k);
        EXPECT_DOUBLE_EQ(got, expect) << "base=" << base << " cap=" << cap
                                      << " k=" << k;
        EXPECT_GE(got, prev);
        prev = got;
      }
      EXPECT_DOUBLE_EQ(RetryBackoffSeconds(f, 24), cap);
    }
  }
}

constexpr const char* kBlackoutSpec = R"(
[scenario]
name = blackout_budget
seed = 5
[topology]
racks = 1
[workload]
queries = 500
db_gb = 20
tuples_per_gb = 500
duration_s = 7200
stream_seed = 9
[faults]
spec = crash@2000:r0:for=900
no_repair = true
max_scan_retries = 6
query_retry_budget = 3
retry_backoff_s = 30
retry_backoff_cap_s = 240
query_timeout_s = 100000
)";

// Satellite (c): with a shared budget of B, every aborted query consumed
// exactly B retries (the abort happens on the first retry needed after
// the pool is dry), and no completed query exceeds B.
TEST(SharedRetryBudgetTest, AbortsExactlyAtTheDocumentedBound) {
  const auto spec = ScenarioSpec::Parse(kBlackoutSpec);
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ScenarioOutcome out = RunScenario(*spec);
  const RunResult& r = out.result;
  ASSERT_GT(r.aborted_queries, 0u)
      << "blackout should abort some queries";
  ASSERT_GT(r.scan_retries, 0u);
  std::size_t aborted_seen = 0;
  for (const QueryRecord& q : r.records) {
    EXPECT_LE(q.retries, 3u) << "query " << q.id;
    if (q.aborted) {
      EXPECT_EQ(q.retries, 3u)
          << "aborted query " << q.id
          << " must have consumed exactly the shared budget";
      ++aborted_seen;
    }
  }
  EXPECT_EQ(aborted_seen, r.aborted_queries);
  // Recovery-time SLO inputs are populated by the fault + disruptions.
  EXPECT_GT(r.last_fault_time_s, 0.0);
  EXPECT_GE(r.last_disruption_time_s, r.last_fault_time_s);
  EXPECT_GT(out.recovery_time_s, 0.0);
}

// --------------------------------------------------------- determinism

constexpr const char* kChaosSpecTemplate = R"(
[scenario]
name = chaos_det
seed = 11
[topology]
racks = 2
[workload]
queries = 400
db_gb = 20
tuples_per_gb = 500
duration_s = 7200
stream_seed = 9
[phase]
kind = flash_crowd
start_s = 2000
end_s = 4000
rate_x = 10
[faults]
spec = crash@2100:r1:for=300; partition@2300:n0:for=200
query_retry_budget = 8
[overload]
max_pending = 2
shed_keep_price = 2.0
[driver]
node_disk = 2000
block = 500
)";

void ExpectSameRecords(const std::vector<QueryRecord>& a,
                       const std::vector<QueryRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << i;
    EXPECT_EQ(a[i].arrival, b[i].arrival) << i;
    EXPECT_EQ(a[i].completion, b[i].completion) << i;
    EXPECT_EQ(a[i].latency_s, b[i].latency_s) << i;
    EXPECT_EQ(a[i].span, b[i].span) << i;
    EXPECT_EQ(a[i].tuples_read, b[i].tuples_read) << i;
    EXPECT_EQ(a[i].retries, b[i].retries) << i;
    EXPECT_EQ(a[i].epoch, b[i].epoch) << i;
    EXPECT_EQ(a[i].aborted, b[i].aborted) << i;
    EXPECT_EQ(a[i].shed, b[i].shed) << i;
  }
}

// Satellite (d): the same scenario replays bit-identically run to run
// and at any reconfiguration thread count — faults, sheds, and records
// all simulated-time driven.
TEST(ScenarioDeterminismTest, IdenticalAcrossRunsAndReconfigThreads) {
  const auto spec1 = ScenarioSpec::Parse(kChaosSpecTemplate);
  ASSERT_TRUE(spec1.ok()) << spec1.status().ToString();
  ScenarioSpec threads1 = *spec1;
  threads1.reconfig_threads = 1;
  ScenarioSpec threads4 = *spec1;
  threads4.reconfig_threads = 4;

  const ScenarioOutcome a = RunScenario(threads1);
  const ScenarioOutcome b = RunScenario(threads1);
  const ScenarioOutcome c = RunScenario(threads4);
  ExpectSameRecords(a.result.records, b.result.records);
  ExpectSameRecords(a.result.records, c.result.records);
  for (const ScenarioOutcome* o : {&b, &c}) {
    EXPECT_EQ(a.result.crashes, o->result.crashes);
    EXPECT_EQ(a.result.partitions, o->result.partitions);
    EXPECT_EQ(a.result.aborted_queries, o->result.aborted_queries);
    EXPECT_EQ(a.result.shed_queries, o->result.shed_queries);
    EXPECT_EQ(a.result.scan_retries, o->result.scan_retries);
    EXPECT_EQ(a.result.total_cost, o->result.total_cost);
    EXPECT_EQ(a.result.makespan_s, o->result.makespan_s);
  }
  // The overload + fault scenario actually exercised both subsystems.
  EXPECT_GT(a.result.shed_queries, 0u);
  EXPECT_GT(a.result.crashes + a.result.partitions, 0u);
}

// ----------------------------------- stream vs materialized bit-identity

// Acceptance gate: a fault-free scenario driven by the streaming pull
// loop produces the byte-identical QueryRecord stream of the equivalent
// flag-driven (materialized RunWorkload) run.
TEST(ScenarioBitIdentityTest, StreamMatchesMaterializedWorkload) {
  PhasedStreamOptions o = SmallStream();
  StreamPhase diurnal;
  diurnal.kind = StreamPhase::Kind::kDiurnal;
  diurnal.amplitude = 0.4;
  o.phases.push_back(diurnal);

  const auto run = [&o](bool streaming) {
    PhasedQueryStream stream(o);
    NashDbOptions no;
    no.window_scans = 100;
    no.block_tuples = 1000;
    no.node_cost = 5.0;
    no.node_disk = 10'000;
    NashDbSystem system(stream.dataset(), no);
    MaxOfMinsRouter router;
    DriverOptions d;
    d.reconfigure_interval_s = 1800.0;
    d.prewarm_scans = 50;
    if (streaming) return RunQueryStream(&stream, &system, &router, d);
    const Workload wl = stream.Materialize();
    return RunWorkload(wl, &system, &router, d);
  };
  const RunResult via_stream = run(true);
  const RunResult via_workload = run(false);
  ExpectSameRecords(via_stream.records, via_workload.records);
  EXPECT_EQ(via_stream.total_cost, via_workload.total_cost);
  EXPECT_EQ(via_stream.makespan_s, via_workload.makespan_s);
  EXPECT_EQ(via_stream.transitions, via_workload.transitions);
}

// keep_records = false must not change any aggregate: counts and mean
// exactly, percentiles within the LogHistogram's 4% bucket bound.
TEST(ScenarioBitIdentityTest, DroppedRecordsKeepExactAggregates) {
  const auto spec = ScenarioSpec::Parse(kChaosSpecTemplate);
  ASSERT_TRUE(spec.ok());
  ScenarioSpec keep = *spec;
  keep.keep_records = true;
  ScenarioSpec drop = *spec;
  drop.keep_records = false;

  const RunResult with = RunScenario(keep).result;
  const RunResult without = RunScenario(drop).result;
  EXPECT_FALSE(with.records.empty());
  EXPECT_TRUE(without.records.empty());
  EXPECT_EQ(with.total_queries, without.total_queries);
  EXPECT_EQ(with.aborted_queries, without.aborted_queries);
  EXPECT_EQ(with.shed_queries, without.shed_queries);
  EXPECT_EQ(with.CompletedQueries(), without.CompletedQueries());
  EXPECT_NEAR(with.MeanLatency(), without.MeanLatency(),
              1e-9 * std::max(1.0, with.MeanLatency()));
  for (const double p : {50.0, 95.0, 99.0}) {
    const double exact = with.TailLatency(p);
    const double bucketed = without.TailLatency(p);
    EXPECT_NEAR(bucketed, exact, 0.05 * std::max(1.0, exact))
        << "p" << p;
  }
}

// ------------------------------------------------------------ reporting

TEST(ScenarioReportTest, JsonNamesScenarioAndVerdict) {
  const auto spec = ScenarioSpec::Parse(
      "[scenario]\nname = tiny\n[workload]\nqueries = 50\ndb_gb = 5\n"
      "tuples_per_gb = 200\nduration_s = 600\n"
      "[assert]\nmin_completed = 1\nmax_rss_mb = 100000\n");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  const ScenarioOutcome out = RunScenario(*spec);
  EXPECT_TRUE(out.violations.empty());
  EXPECT_NE(out.report_json.find("\"scenario\": \"tiny\""),
            std::string::npos);
  EXPECT_NE(out.report_json.find("\"passed\": true"), std::string::npos);
  EXPECT_NE(out.report_json.find("\"rss_peak_mb\""), std::string::npos);
  EXPECT_GT(out.rss_peak_mb, 0.0);
}

}  // namespace
}  // namespace nashdb
