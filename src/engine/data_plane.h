#ifndef NASHDB_ENGINE_DATA_PLANE_H_
#define NASHDB_ENGINE_DATA_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "cluster/sim.h"
#include "common/metrics.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/config_epoch.h"
#include "engine/driver.h"
#include "engine/liveness_overlay.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/workload.h"

namespace nashdb {

/// The driver's query path (DESIGN.md §11): admission into a block of
/// pending queries, resolve, route, the commit of every read into the
/// sim, and each query's record.
///
/// A block is routed with one RouteBatchInto call, and the plane is its
/// BatchSink: each scan's reads are committed before the next scan's
/// waits are first read, so the records are the same at any block size.
/// The block flushes when full, before a query that arrives once the
/// routable set has changed (the whole block is filtered at its first
/// arrival), and, with admission control on, before a shed decision the
/// block's completions could tip. Its owner flushes it before every
/// configuration change, so a block never spans epochs, and before
/// delivering a fault, so fault delivery and repairs see exactly the
/// state routing leaves behind. Faults and overload route in the same
/// multi-query blocks as a fault-free run. Buffers are reused for the
/// whole run: the steady state allocates nothing.
///
/// The routing.* metrics accumulate in plain per-run fields, written only
/// by the driver thread, and reach the registry once, through
/// MergeMetrics.
class DataPlane final : private BatchSink {
 public:
  /// Routes with `router`, enqueues the reads into `sim` (which already
  /// holds the bootstrap configuration) and adds every record to
  /// `result`, as `options` say. `liveness` filters the candidates when
  /// faults are on. All must outlive the plane.
  DataPlane(const DriverOptions& options, ClusterSim* sim, ScanRouter* router,
            const LivenessOverlay& liveness, RunResult* result);

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  /// Admission control (OverloadOptions): when the policy is active and
  /// drops `tq` at its arrival, adds its shed record, stamped `epoch`, to
  /// the result and returns true. Otherwise returns false. The pending
  /// block's queries hold admission slots their unrouted completions do
  /// not show yet, so when they could bring the in-flight count to the
  /// budget the block is flushed first; a shed therefore always finds
  /// the block empty, and its record keeps its admission-order place.
  bool Shed(const TimedQuery& tq, std::uint64_t epoch);

  /// Admits `tq` to be routed against `epoch`. Flushes the pending block
  /// first when `tq` arrives at or after the routable set's next change
  /// (LivenessOverlay::NextChangeAfter of the block's first arrival),
  /// and after admitting when the block is full. The queries of one
  /// block share an epoch: flush before `epoch` changes.
  void Admit(const TimedQuery& tq, const ConfigEpoch& epoch);

  /// Routes the pending block and finalizes its records in admission
  /// order. A coverage gap (faults only) commits the block's prefix,
  /// retries the failing scan alone with backoff, then resumes the rest
  /// of the block at its first query's arrival; an abort drops only that
  /// query's remaining scans. Without faults every candidate span is
  /// non-empty, so a failure is a bug.
  void Flush();

  /// True when no query is pending.
  bool empty() const { return pending_.empty(); }

  /// Adds the run's routing.* metrics to the registry: the counters
  /// routing.requests and routing.queries, and the histograms
  /// routing.queue_wait_s, routing.span and routing.latency_s. A metric
  /// the run never recorded is not registered. Call once, after the last
  /// Flush of a metrics-on run.
  void MergeMetrics() const;

 private:
  /// A query whose scans sit in the pending block.
  struct PendingQuery {
    QueryRecord record;
    std::uint64_t seq = 0;  // run-unique, nonzero: its span stamp
    SimTime completion = 0.0;
  };

  /// Resolves `batch` against the pending queries' epoch and routes it,
  /// its first scan at simulated time `at`.
  Status Route(ScanBatch* batch, SimTime at);
  /// Backs off and retries scan `failed` of the block alone, as a
  /// one-scan block resolved and filtered again at each attempt time;
  /// false once its query aborts.
  bool RetryScan(std::size_t failed);

  /// The commit: enqueues the reads of scan `scan_index` of the bound
  /// block into the sim, counts its query's span, and moves the view to
  /// the next scan's arrival.
  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override;

  const DriverOptions& options_;
  ClusterSim* const sim_;
  ScanRouter* const router_;
  const LivenessOverlay& liveness_;
  RunResult* const result_;
  const double spt_;  // simulated seconds per tuple read
  const bool collect_;
  const bool faults_on_;
  const bool overload_on_;
  const std::size_t hard_cap_;  // overload: shed everything from here

  const ConfigEpoch* epoch_ = nullptr;  // of the pending queries
  /// The routable set's next change after the block's first arrival
  /// (+inf while the block is empty or faults are off).
  SimTime horizon_;
  ScanBatch block_;  // ids are pending-query slots
  ScanBatch spare_;  // one-scan retry block, then the resumed remainder
  std::vector<PendingQuery> pending_;
  std::uint64_t last_seq_ = 0;
  std::vector<NodeId> live_cands_;  // FilterLive's candidate pool
  RouterScratch router_scratch_;
  std::vector<RoutedRead> routed_buf_;

  // The block being routed and its view, bound by Route().
  const ScanBatch* bound_ = nullptr;
  WaitView* view_ = nullptr;
  /// Scans of the bound block committed so far: after a failed route,
  /// the index of the scan that failed.
  std::size_t routed_ = 0;
  /// Per node, the seq of the last query that read from it (0: none). A
  /// read opens a new span node exactly when its node's stamp is not its
  /// query's seq: exact because a query's reads reach the commit back to
  /// back (a block holds each query's scans contiguously).
  std::vector<std::uint64_t> span_stamp_;

  /// Completion times of the routed queries, popped at each arrival: the
  /// exact, simulated-time in-flight count of admission control. A flush
  /// pushes only completions after its last arrival, since every later
  /// arrival would pop the others first.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      inflight_;

  // routing.* accumulators of a metrics-on run (MergeMetrics).
  std::uint64_t requests_ = 0;
  std::uint64_t queries_ = 0;
  metrics::LocalHistogram queue_wait_;
  metrics::LocalHistogram span_;
  metrics::LocalHistogram latency_;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_DATA_PLANE_H_
