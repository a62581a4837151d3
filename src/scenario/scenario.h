#ifndef NASHDB_SCENARIO_SCENARIO_H_
#define NASHDB_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "engine/driver.h"
#include "workload/streaming.h"

namespace nashdb {

/// One acceptance assertion of a scenario ([assert] section): a named SLO
/// bound checked against the run's outcome. `key` is one of the
/// documented assertion keys (see ScenarioSpec::Parse); min_* / max_*
/// spelling decides the comparison direction.
struct ScenarioAssertion {
  std::string key;
  double value = 0.0;
};

/// A declarative chaos scenario (DESIGN.md §13): topology + phased
/// workload + fault program + overload policy + driver knobs + acceptance
/// assertions, parsed from a flat INI-subset text file and compiled into
/// one deterministic end-to-end run.
///
/// File grammar — `#` comments, blank lines ignored, `[section]` headers,
/// `key = value` lines (whitespace-trimmed):
///
///   [scenario]   name = STR          seed = N     description = STR
///   [topology]   racks = N           (prepended to the fault spec as a
///                                     racks=N clause when absent there)
///   [workload]   queries = N         db_gb = F    tuples_per_gb = N
///                price = F           duration_s = F
///                hot_prob = F        hot_frac = F hot_center = F
///                scan_frac = F       stream_seed = N
///                (db_gb > 0, price >= 0, and db_gb x tuples_per_gb
///                at least one tuple)
///   [phase]      kind = diurnal|flash_crowd|skew_drift|price_war
///                (must be the first key of the section), then
///                start_s / end_s plus the kind's knobs — period_s,
///                amplitude, rate_x, focus_lo, focus_hi, focus_prob,
///                drift_to, price_x >= 0, tenant_frac (StreamPhase).
///                Repeatable; phases compose.
///   [faults]     spec = STR          (the --faults clause grammar,
///                                     cluster/faults.h)
///                no_repair = BOOL    max_scan_retries = N
///                retry_backoff_s = F retry_backoff_cap_s = F
///                query_timeout_s = F query_retry_budget = N
///   [overload]   max_pending = N     shed_keep_price = F
///                hard_cap_factor = F (OverloadOptions)
///   [driver]     interval_s = F      window = N     node_cost = F
///                node_disk = N       block = N      max_replicas = N
///                prewarm_scans = N   keep_records = BOOL
///                adaptive = BOOL     reconfig_threads = N
///                tuples_per_second = F
///                transfer_tuples_per_second = F
///                router = maxofmins|shortestqueue|greedysc|power2
///                (window, node_disk and block >= 1; node_disk >=
///                min(block, table tuples))
///   [assert]     KEY = F, one per line; KEYs:
///                max_abort_rate, max_shed_rate, max_retry_rate,
///                mean_latency_s, p50_latency_s, p95_latency_s,
///                p99_latency_s, recovery_time_s, min_completed,
///                min_cost_cents, max_cost_cents, max_rss_mb
///
/// Parse errors are InvalidArgument naming the line, the bad token, and
/// the expected grammar (the CLI exits 2 on them).
struct ScenarioSpec {
  std::string name = "unnamed";
  std::string description;
  /// Seeds the fault scheduler and the power2 router (the workload
  /// stream has its own stream_seed so fault and workload draws never
  /// alias).
  std::uint64_t seed = 0;

  /// Rack topology (0 = none declared). Folded into the fault spec.
  std::size_t racks = 0;

  PhasedStreamOptions workload;

  /// Raw fault clause string ("" = fault-free) and the compiled fault +
  /// retry options (spec parsed, racks folded in, seed applied by
  /// RunScenario).
  std::string faults;
  FaultOptions fault_options;

  OverloadOptions overload;

  // Driver + system knobs ([driver]).
  double interval_s = 3600.0;  // reconfiguration interval, > 0
  std::size_t window = 250;
  Money node_cost = 3.0;
  TupleCount node_disk = 120'000;
  TupleCount block = 4'000;
  std::size_t max_replicas = 128;
  std::size_t prewarm_scans = 250;
  bool keep_records = true;
  bool adaptive = false;
  std::size_t reconfig_threads = 1;
  /// Simulated node service / transfer rates (ClusterSimOptions).
  double tuples_per_second = 150.0;
  double transfer_tuples_per_second = 500.0;
  std::string router = "maxofmins";

  std::vector<ScenarioAssertion> assertions;

  /// Parses the grammar above from in-memory text.
  static Result<ScenarioSpec> Parse(std::string_view text);
  /// Reads `path` and parses it (NotFound on unreadable files).
  static Result<ScenarioSpec> Load(const std::string& path);
};

/// Outcome of one scenario run: the raw run result plus the derived SLO
/// inputs and the assertion verdicts.
struct ScenarioOutcome {
  RunResult result;
  /// Seconds the workload kept degrading (aborts/sheds/retries) after the
  /// last delivered fault: max(0, last_disruption_s - last_fault_s); 0
  /// for fault-free runs.
  SimTime recovery_time_s = 0.0;
  /// Peak resident set of the process (getrusage ru_maxrss), in MB; 0
  /// when the platform doesn't report it. Process-wide and monotonic, so
  /// it bounds the run's footprint from above.
  double rss_peak_mb = 0.0;
  /// One entry per violated assertion: "key: measured <op> bound".
  std::vector<std::string> violations;
  /// Per-scenario JSON report (name, seed, counts, latencies, cost,
  /// fault tallies, RSS, each assertion with measured value + verdict).
  std::string report_json;
};

/// Checks every [assert] entry of `spec` against `result`, returning one
/// human-readable string per violation (empty = all SLOs met). Split from
/// RunScenario so tests can drive it with hand-built results.
std::vector<std::string> EvaluateAssertions(const ScenarioSpec& spec,
                                            const RunResult& result,
                                            double rss_peak_mb);

/// Compiles `spec` into a system + router + streaming driver run,
/// executes it, and evaluates the assertions. Deterministic: identical
/// specs produce bit-identical QueryRecord streams and fault histories.
ScenarioOutcome RunScenario(const ScenarioSpec& spec);

}  // namespace nashdb

#endif  // NASHDB_SCENARIO_SCENARIO_H_
