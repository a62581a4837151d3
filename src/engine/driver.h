#ifndef NASHDB_ENGINE_DRIVER_H_
#define NASHDB_ENGINE_DRIVER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/faults.h"
#include "cluster/sim.h"
#include "common/stats.h"
#include "engine/system.h"
#include "routing/router.h"
#include "workload/workload.h"

namespace nashdb {

/// Fault injection and degraded-mode handling (DESIGN.md §8). Inactive
/// unless `spec` injects something.
struct FaultOptions {
  /// The fault scenario (see FaultSpec for the --faults grammar).
  FaultSpec spec;
  /// Seed for all stochastic fault draws. Identical spec + seed replay
  /// the exact same fault history (and faults.* metrics) on every run.
  std::uint64_t seed = 0;

  /// A scan whose live candidate set is empty (coverage gap) is retried
  /// with capped exponential backoff: retry k of a scan waits
  /// min(retry_backoff_s * 2^(k-1), retry_backoff_cap_s) — see
  /// RetryBackoffSeconds(). The query aborts once a scan exhausts
  /// max_scan_retries or the total wait exceeds query_timeout_s.
  std::size_t max_scan_retries = 4;
  double retry_backoff_s = 2.0;
  double retry_backoff_cap_s = 120.0;
  double query_timeout_s = 900.0;

  /// Shared per-query retry budget (DESIGN.md §13). When > 0, retries of
  /// *all* scans of one query draw from this single pool: the query
  /// aborts on the first retry needed after exactly query_retry_budget
  /// retries have been consumed (QueryRecord::retries == the budget on
  /// such an abort). The per-scan max_scan_retries cap still applies on
  /// top. 0 keeps the legacy independent per-scan budgets — under a
  /// flash crowd hitting a coverage gap, per-scan budgets let one query
  /// burn scans × max_scan_retries retries; the shared budget bounds the
  /// whole query.
  std::size_t query_retry_budget = 0;

  /// React to coverage loss by re-replicating at-risk fragments (live
  /// replicas below min(placed, 2)) onto surviving/fresh nodes via the
  /// incremental planner, charging the copies through the normal transfer
  /// model. Disable to measure pure degraded operation.
  bool emergency_repair = true;
};

/// Backoff before retry `attempt` (1-based) of one scan: the capped
/// exponential min(retry_backoff_s * 2^(attempt-1), retry_backoff_cap_s).
/// Exposed so tests can pin the documented sequence against the driver.
double RetryBackoffSeconds(const FaultOptions& faults, std::size_t attempt);

/// Overload robustness (DESIGN.md §13): admission control with a bounded
/// pending-query budget and deterministic load shedding. Inactive (and
/// bit-identity-neutral) unless max_pending_queries > 0.
///
/// The driver tracks in-flight queries by their simulated completion
/// times (a min-heap popped at each admission), so "pending" is exact and
/// purely simulated-time-driven — the shed decision replays identically
/// for a given workload + seed at any thread count. When an arriving
/// query finds pending >= max_pending_queries it is shed, *unless* its
/// price is at least shed_keep_price (paying traffic rides out the
/// crowd) and pending is still below the hard cap
/// (hard_cap_factor * max_pending_queries), past which everything is
/// dropped. Shed queries execute nothing, are not Observed (the economy
/// never saw them run), and are reported via QueryRecord::shed and
/// RunResult::shed_queries.
struct OverloadOptions {
  /// Maximum in-flight (admitted, not yet completed) queries; 0 disables
  /// admission control entirely.
  std::size_t max_pending_queries = 0;
  /// Queries priced >= this survive soft shedding (0 keeps everything
  /// until the hard cap).
  Money shed_keep_price = 0.0;
  /// Hard cap multiplier: at pending >= hard_cap_factor *
  /// max_pending_queries even high-priced queries are shed.
  double hard_cap_factor = 2.0;

  bool Active() const { return max_pending_queries > 0; }
};

/// Knobs of one simulated end-to-end run.
struct DriverOptions {
  ClusterSimOptions sim;
  /// Interval between reconfiguration + cluster transition rounds (paper
  /// §10 "System Parameters": hourly). Must be positive and finite when
  /// periodic_reconfigure is on. Ignored for batch workloads when
  /// warmup_observe is set (one configuration is built up front).
  SimTime reconfigure_interval_s = 3600.0;
  /// φ passed to the scan router (seconds).
  double phi_s = 0.35;
  /// For static/batch workloads: feed the whole workload through
  /// Observe() once before building the initial configuration (the
  /// paper's static experiments measure a scheme computed after the whole
  /// workload has been seen).
  bool warmup_observe = false;
  /// Keep reconfiguring during the run (dynamic experiments). If false,
  /// the initial configuration is used throughout.
  bool periodic_reconfigure = true;

  /// Feed the scans of the earliest-arriving queries into the system
  /// before building the bootstrap configuration, until this many scans
  /// have been observed (0 = cold start). Dynamic experiments measure the
  /// steady state; without warm-up the initial cold configuration's queue
  /// backlog dominates every later percentile.
  std::size_t prewarm_scans = 0;

  /// Adaptive transition detection (an extension; the paper leaves
  /// "automatically detecting when the cluster should be transitioned" to
  /// future work, §7). When enabled, candidate configurations are
  /// evaluated every adaptive_check_interval_s and the cluster only
  /// transitions when the minimal-transfer plan would move at least
  /// adaptive_min_change of the currently stored data or change the node
  /// count — reacting to shifts within minutes while staying quiet in
  /// steady state. Overrides reconfigure_interval_s.
  bool adaptive_reconfigure = false;
  SimTime adaptive_check_interval_s = 600.0;
  double adaptive_min_change = 0.02;

  /// Enable the global metrics registry (common/metrics.h) for the
  /// duration of the run and store its JSON snapshot on
  /// RunResult::metrics_json. The registry is reset at run start, so the
  /// snapshot covers exactly this run. Disable for overhead-sensitive
  /// benchmarking (the disabled recording path is one atomic load).
  bool collect_metrics = true;

  /// Fault injection + failure handling; inactive by default.
  FaultOptions faults;

  /// Admission control + load shedding; inactive by default. The shed
  /// decision needs the exact completion time of every query admitted
  /// before it, so the data plane flushes its pending block before a
  /// decision those queries could tip: when the in-flight count plus the
  /// block's queries reaches max_pending_queries (DESIGN.md §11).
  OverloadOptions overload;

  /// Keep the per-query records on RunResult::records. Disable for
  /// streaming scenario runs (10⁷–10⁸ queries) so memory stays constant:
  /// the aggregate fields (total/aborted/shed counts, latency sums and
  /// the bounded latency histogram) are maintained either way, and the
  /// RunResult accessors read them (TailLatency when records are empty).
  bool keep_records = true;

  /// Scans per routed block (DESIGN.md §11). The data plane gathers up
  /// to this many scans across consecutive queries and routes them with
  /// one RouteBatchInto call. A block ends early before every
  /// reconfiguration round (it never spans a configuration change), before
  /// a fault is delivered, where the routable set changes, and before a
  /// shed decision its queries could tip. Block size never changes
  /// results (golden digests at 64 and 1, and at 7 and 256 with and
  /// without faults).
  std::size_t route_batch_size = 64;

  /// Simulated seconds between a reconfiguration boundary and the publish
  /// of the configuration built there (DESIGN.md §12). Every round kicks
  /// the next epoch's build at its boundary (BuildConfigAsync: a
  /// background build where the system supports one) and publishes it —
  /// planned, then applied retroactively at the boundary's simulated
  /// time — at the first admission at or after boundary + this window.
  /// 0, the default, publishes right after the kick: the stop-the-world
  /// round. A positive window lets the queries admitted inside it route
  /// against the outgoing epoch while the build runs, which is what hides
  /// build wall-clock from RunResult::reconfig_stall_s; the records stay
  /// a pure function of the workload either way. Must be finite and >= 0.
  SimTime online_build_window_s = 0.0;
};

/// Per-query outcome of a run.
struct QueryRecord {
  QueryId id = 0;
  Money price = 0.0;
  SimTime arrival = 0.0;
  SimTime completion = 0.0;
  double latency_s = 0.0;
  std::size_t span = 0;          // distinct nodes used
  TupleCount tuples_read = 0;    // actual tuples read (block granularity)
  /// Coverage-gap retries this query's scans went through.
  std::size_t retries = 0;
  /// Configuration epoch the query was routed against (0 = bootstrap;
  /// +1 per applied transition, periodic or emergency repair). Part of
  /// the golden digest.
  std::uint64_t epoch = 0;
  /// True if the query gave up (retry budget or timeout exhausted under
  /// node failures). Aborted records are excluded from the latency/span
  /// aggregates; completion covers only the reads enqueued before the
  /// abort.
  bool aborted = false;
  /// True if admission control dropped the query at arrival (overload
  /// shedding, DESIGN.md §13). Shed queries execute nothing: zero reads,
  /// zero latency, never counted as aborted.
  bool shed = false;
};

/// Aggregated outcome of one run.
struct RunResult {
  /// Per-query records in admission order; empty when
  /// DriverOptions::keep_records is false (streaming runs). All the
  /// count/latency aggregates below are maintained independently of this
  /// vector.
  std::vector<QueryRecord> records;
  /// Every query the run saw: completed + aborted + shed.
  std::size_t total_queries = 0;
  Money total_cost = 0.0;               // cents of rent accrued
  TupleCount transferred_tuples = 0;    // transition data movement
  /// Portion of transferred_tuples spent loading the initial
  /// configuration (the paper's Figure 9b excludes this bootstrap copy).
  TupleCount bootstrap_transfer_tuples = 0;
  TupleCount read_tuples = 0;
  std::size_t transitions = 0;
  /// Adaptive mode only: reconfiguration checks that decided not to
  /// transition.
  std::size_t transitions_skipped = 0;
  SimTime makespan_s = 0.0;
  std::size_t final_nodes = 0;
  /// Wall-clock seconds the admission loop spent stopped for
  /// reconfiguration (also the sim.reconfig_stall_s histogram, one entry
  /// per round): the kick, any residual wait for the build at publish,
  /// and transition planning. At a zero build window that is the full
  /// build + plan of every round; a window that overlaps enough routing
  /// work hides the build, leaving the kick and the plan.
  double reconfig_stall_s = 0.0;
  /// Fault-run outcomes (all zero when FaultOptions is inactive).
  std::size_t crashes = 0;
  std::size_t partitions = 0;
  std::size_t aborted_queries = 0;
  std::size_t scan_retries = 0;
  /// Queries dropped by admission control (OverloadOptions).
  std::size_t shed_queries = 0;
  std::size_t emergency_repairs = 0;
  /// Transfer volume spent restoring lost replicas (included in
  /// transferred_tuples).
  TupleCount repair_transfer_tuples = 0;
  /// Simulated time of the last delivered fault event (-1 = none). With
  /// last_disruption_time_s this feeds the scenario runner's
  /// recovery-time SLO: how long after the last fault the workload kept
  /// degrading (aborts, sheds, retries).
  SimTime last_fault_time_s = -1.0;
  /// Arrival time of the last disrupted query — aborted, shed, or
  /// retried (-1 = none).
  SimTime last_disruption_time_s = -1.0;
  /// Streaming latency/span aggregates over completed queries,
  /// maintained for every run: the means below read the sums, and
  /// TailLatency reads the histogram when `records` is empty. The
  /// histogram gives bounded-memory percentiles within 4% relative error
  /// (LogHistogram).
  double completed_latency_sum_s = 0.0;
  double completed_span_sum = 0.0;
  LogHistogram latency_histogram;
  /// JSON snapshot of the metrics registry at run end (counters, gauges,
  /// histograms, per-reconfiguration traces); empty when
  /// DriverOptions::collect_metrics was false. Schema: DESIGN.md
  /// "Observability".
  std::string metrics_json;

  /// Latency/span aggregates over *completed* queries (aborted and shed
  /// records are skipped — neither has a meaningful latency). The means
  /// read the streaming sums, which AddRecord accumulates in record
  /// order. TailLatency is exact (record-based) when records were kept,
  /// and bucketed (<= 4% relative error) otherwise.
  double MeanLatency() const;
  double TailLatency(double percentile) const;
  double MeanSpan() const;

  /// Counts a finished query into the totals and aggregates above, and
  /// appends it to `records` when `keep_record`. The one way a record
  /// enters a result: the data plane calls it in admission order.
  void AddRecord(const QueryRecord& record, bool keep_record);

  /// Queries that ran to completion.
  std::size_t CompletedQueries() const {
    return total_queries - aborted_queries - shed_queries;
  }

  /// Tuples read per minute-bucket of completion time (the paper's Fig. 11
  /// throughput series), as (minute, tuples).
  std::vector<std::pair<double, double>> ThroughputPerMinute() const;
};

/// Executes `workload` against `system`, routing scans with `router` on a
/// simulated cluster. Queries are admitted in arrival order and routed in
/// blocks through the data plane (engine/data_plane.h); the system is
/// rebuilt and the cluster transitioned (minimal-transfer matching, §7)
/// every reconfigure_interval_s of simulated time, each round a kick at
/// the boundary and a publish online_build_window_s later.
///
/// Concurrency contract (thread-safety audit, DESIGN.md §9): the driver
/// loop is serial — it owns the ClusterSim, FaultScheduler, and config
/// exclusively, so none of them are annotated. Concurrency lives behind
/// BuildConfig (the system's internal ThreadPool fan-out), the metrics
/// registry, both of which carry NASHDB_GUARDED_BY annotations checked by
/// Clang's -Wthread-safety, and the two pipeline stages of DESIGN.md §11:
/// after the run's first admission the stream's Next runs on a producer
/// thread (one call at a time, joined before the run returns), and a
/// system may hand its Observe work to a thread of its own (NashDB's
/// estimator worker). In NASHDB_VALIDATE builds the loop
/// additionally CHECKs ValidateConfig/ValidatePlan (engine/validate.h)
/// after the bootstrap, every periodic round, and every emergency repair.
/// The background build of a round (BuildConfigAsync) reads only its own
/// estimator snapshot and the immutable current epoch.
RunResult RunWorkload(const Workload& workload, DistributionSystem* system,
                      ScanRouter* router, const DriverOptions& options);

/// Streaming twin of RunWorkload (QueryStream lives in
/// workload/workload.h next to TimedQuery): identical admission loop (a
/// vector-backed stream produces a bit-identical QueryRecord stream —
/// RunWorkload is implemented on top of this), but queries are pulled
/// from `stream` one at a time. `warmup_observe` is unsupported here (it
/// needs a second pass over the workload; use prewarm_scans, which
/// buffers only the prewarmed prefix); combine with
/// DriverOptions::keep_records = false for constant-memory runs.
RunResult RunQueryStream(QueryStream* stream, DistributionSystem* system,
                         ScanRouter* router, const DriverOptions& options);

/// Queries the driver's producer thread may run ahead of the admission
/// loop: the slots of its ring (DESIGN.md §11).
inline constexpr std::size_t kStreamAheadSlots = 1024;

}  // namespace nashdb

#endif  // NASHDB_ENGINE_DRIVER_H_
