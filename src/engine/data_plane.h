#ifndef NASHDB_ENGINE_DATA_PLANE_H_
#define NASHDB_ENGINE_DATA_PLANE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "cluster/sim.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/config_epoch.h"
#include "engine/driver.h"
#include "engine/liveness_overlay.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/workload.h"

namespace nashdb {

namespace metrics {
class Counter;
class Histogram;
}  // namespace metrics

/// The driver's query path (DESIGN.md §11): admission into a block of
/// pending queries, resolve, route, the commit of every read into the
/// sim, and each query's record.
///
/// A block is routed with one RouteBatchInto call, and the plane is its
/// BatchSink: each scan's reads are committed before the next scan's
/// waits are first read, so the records are the same at any block size.
/// The block flushes when full, and its owner flushes it before every
/// configuration change, so a block never spans epochs. With faults or
/// overload on, every query is its own block, flushed at its admission,
/// so fault delivery, repairs and the shed decision see exactly the state
/// its routing leaves behind. Buffers are reused for the whole run: the
/// steady state allocates nothing.
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
  /// the result and returns true. Otherwise returns false.
  bool Shed(const TimedQuery& tq, std::uint64_t epoch);

  /// Admits `tq` to be routed against `epoch`, flushing the block when
  /// it is full (and after every query with faults or overload on). The
  /// queries of one block share an epoch: flush before `epoch` changes.
  void Admit(const TimedQuery& tq, const ConfigEpoch& epoch);

  /// Routes the pending block and finalizes its records in admission
  /// order. A coverage gap (faults only) retries the failing scan alone
  /// with backoff, then resumes the query's remaining scans; without
  /// faults every candidate span is non-empty, so a failure is a bug.
  void Flush();

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
  /// Backs off and retries scan `failed` of the (one-query) block alone;
  /// false once the query aborts.
  bool RetryScan(std::size_t failed);

  /// The commit: enqueues the reads of scan `scan_index` of the bound
  /// block into the sim, counts its query's span, and moves the view to
  /// the next scan's arrival.
  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override;
  void ResolveReadMetrics();

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

  /// Completion times of the admitted queries, popped at each arrival:
  /// the exact, simulated-time in-flight count of admission control.
  std::priority_queue<SimTime, std::vector<SimTime>, std::greater<SimTime>>
      inflight_;

  /// routing.* handles, resolved when a metrics-on run first records
  /// one, so the snapshot lists only what the run recorded. Valid until
  /// the next Registry::Reset(), which only a run's start calls.
  metrics::Counter* requests_metric_ = nullptr;
  metrics::Histogram* queue_wait_metric_ = nullptr;
  metrics::Counter* queries_metric_ = nullptr;
  metrics::Histogram* span_metric_ = nullptr;
  metrics::Histogram* latency_metric_ = nullptr;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_DATA_PLANE_H_
