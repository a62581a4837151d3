#ifndef NASHDB_ENGINE_LIVENESS_OVERLAY_H_
#define NASHDB_ENGINE_LIVENESS_OVERLAY_H_

#include <vector>

#include "cluster/sim.h"
#include "common/types.h"
#include "routing/scan_batch.h"

namespace nashdb {

/// Driver-owned mirror of the sim's per-node *routability* state —
/// RoutableUntil = max(crash recovery, partition heal) — refreshed only
/// when that state can actually change — fault/recovery/partition event
/// delivery and applied transitions — instead of re-deriving liveness for
/// every retry of every scan (DESIGN.md §10).
///
/// The payoff is the O(1) AnyDeadAt fast path: in the common case where
/// every node is routable at the attempt time, the driver routes directly
/// on the unfiltered candidate spans and no filtering (or copying)
/// happens at all. Only when some node is dead or partitioned at the
/// attempt time does FilterLive rewrite the resolved block to its
/// routable candidates. Partitioned nodes are filtered exactly like dead
/// ones here (observer-relative liveness, DESIGN.md §13): a router must
/// not send a read behind a partition even though the node is alive for
/// billing.
///
/// Routability is time-indexed exactly like ClusterSim: node m is
/// unroutable at `at` while at < routable_until[m], so scheduled
/// recoveries *and* scheduled heals are visible to future-time retry
/// attempts without any new event delivery.
class LivenessOverlay {
 public:
  /// Re-reads every node's routable-from time from the sim.
  /// O(node_count); call after delivering fault events and after any
  /// applied transition (both rare relative to scans).
  void SyncFrom(const ClusterSim& sim);

  /// True if at least one node is dead or partitioned at `at`. O(1).
  bool AnyDeadAt(SimTime at) const { return at < max_routable_until_; }

  bool AliveAt(NodeId m, SimTime at) const {
    return at >= routable_until_[m];
  }

  /// The first time after `at` at which the routable set changes without
  /// a new SyncFrom: the least routable-until time above `at`, or +inf
  /// when every node is routable at `at`. Every time in [at, this) sees
  /// the routable set `at` sees, which is what lets the data plane filter
  /// a whole block at its first arrival (DESIGN.md §11). O(node_count)
  /// while some node is down, O(1) otherwise.
  SimTime NextChangeAfter(SimTime at) const;

  /// Rewrites the freshly resolved `*batch` (ConfigIndex::
  /// ResolveBatchInto: spans into the index's pool) in place so each
  /// request keeps only its candidates routable at `at`, in their
  /// original order. The kept candidates are copied into `*pool`
  /// (cleared first, capacity reused), which becomes the batch's
  /// candidate pool and must outlive routing it. The request table
  /// itself (offsets, order, frag, tuples) is unchanged; a request whose
  /// replicas are all dead or partitioned keeps an empty candidate span,
  /// which routers report as FailedPrecondition.
  void FilterLive(SimTime at, ScanBatch* batch,
                  std::vector<NodeId>* pool) const;

 private:
  std::vector<SimTime> routable_until_;
  /// Max over routable_until_: every node routable at `at` >= this.
  SimTime max_routable_until_ = 0.0;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_LIVENESS_OVERLAY_H_
