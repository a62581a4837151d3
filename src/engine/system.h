#ifndef NASHDB_ENGINE_SYSTEM_H_
#define NASHDB_ENGINE_SYSTEM_H_

#include <future>
#include <string_view>

#include "common/query.h"
#include "replication/cluster_config.h"

namespace nashdb {

/// A data-distribution system under evaluation: anything that observes the
/// query stream and produces cluster configurations (fragmentation +
/// replication + placement + implied cluster size). NashDB and the two
/// end-to-end baselines (Threshold/E-Store-like and Hypergraph/SWORD-like)
/// implement this; the simulation driver treats them uniformly.
class DistributionSystem {
 public:
  virtual ~DistributionSystem() = default;

  virtual std::string_view name() const = 0;

  /// Feeds one incoming query's scans into the system's statistics.
  /// Called on the driver's thread. A system may defer the work to a
  /// thread of its own (NashDbSystem's estimator worker, DESIGN.md §11)
  /// as long as every build sees exactly the queries observed before it
  /// and any metric the driver snapshots at the end of a run is counted
  /// by the time Observe returns.
  virtual void Observe(const Query& query) = 0;

  /// Computes a fresh cluster configuration from current statistics.
  virtual ClusterConfig BuildConfig() = 0;

  /// Starts building a fresh configuration from the statistics visible at
  /// call time and returns a future for it, so the caller can keep
  /// routing against the current configuration while the build runs
  /// (online reconfiguration, DESIGN.md §12).
  ///
  /// Contract: the call itself runs on the caller's thread and must
  /// capture everything the build needs (systems snapshot their
  /// statistics here); Observe() may then run concurrently with the
  /// in-flight build. At most one build may be in flight, and
  /// BuildConfig / NoteAppliedConfig / Reset must not be called until the
  /// returned future has been waited on. Default implementation: build
  /// inline and return a ready future — correct for any system, with the
  /// whole build cost paid at the call site (the driver reports it as
  /// reconfiguration stall).
  virtual std::future<ClusterConfig> BuildConfigAsync() {
    std::promise<ClusterConfig> built;
    built.set_value(BuildConfig());
    return built.get_future();
  }

  /// Tells the system which configuration the cluster is actually running.
  /// Normally that is the last BuildConfig() result, but the driver may
  /// substitute a different one (e.g. an emergency-repair config after
  /// node failures); systems that anchor incremental decisions on the
  /// current placement should adopt it. Default: ignore.
  virtual void NoteAppliedConfig(const ClusterConfig& config) {
    (void)config;
  }

  /// Drops all adaptation state (for reuse across experiment runs).
  virtual void Reset() = 0;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_SYSTEM_H_
