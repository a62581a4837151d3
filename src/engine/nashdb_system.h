#ifndef NASHDB_ENGINE_NASHDB_SYSTEM_H_
#define NASHDB_ENGINE_NASHDB_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "engine/system.h"
#include "fragment/fragmenter.h"
#include "replication/replication.h"
#include "value/estimator.h"
#include "workload/workload.h"

namespace nashdb {

/// Replica-count hysteresis: when a fragment's fresh Eq. 9 ideal differs
/// from its previous count by at most max(kReplicaHysteresis,
/// kReplicaHysteresisFrac × previous) replicas, the previous count is
/// kept. The window's sampling noise makes the ideal flutter by ±1
/// between reconfigurations, and each flutter is a fragment-sized copy at
/// transition time; the marginal profit lost by lagging one replica
/// behind is bounded by one replica's margin, which the saved transfer
/// dwarfs. The relative band damps hot fragments, whose sampling jitter
/// grows with the replica level.
inline constexpr std::size_t kReplicaHysteresis = 1;
inline constexpr double kReplicaHysteresisFrac = 0.3;

/// Configuration of the end-to-end NashDB controller.
struct NashDbOptions {
  /// |W|: scan window size (paper default in §10: 50 scans).
  std::size_t window_scans = 50;
  /// Average fragment size target, in tuples ("disk block" of §5.1);
  /// maxFrags(table) = ceil(table_size / block_tuples).
  TupleCount block_tuples = 50'000;
  /// Hard cap on fragments per table (0 = none). Protects the optimal
  /// DP's O(k m^2) cost when it is plugged in as the fragmenter.
  std::size_t max_frags_cap = 0;
  /// Node economics (node_cost is rent per reconfiguration period).
  Money node_cost = 10.0;
  TupleCount node_disk = 2'000'000;
  /// Every fragment keeps at least this many replicas regardless of
  /// profitability, so unscanned data stays available.
  std::size_t min_replicas = 1;
  std::size_t max_replicas = 0;
  /// Threads refragmenting tables concurrently inside BuildConfig (each
  /// table's Refragment is independent; results are assembled in table
  /// order, so the emitted configuration is identical at any setting).
  /// 1 = serial, 0 = one per hardware thread.
  std::size_t reconfig_threads = 0;
};

/// The NashDB engine (Figure 1): tuple value estimator -> fragmentation
/// manager -> replication manager. Observe() feeds the estimator;
/// BuildConfig() runs the full §4-§6 pipeline and emits a cluster
/// configuration in Nash equilibrium (up to the min_replicas availability
/// floor).
class NashDbSystem : public DistributionSystem {
 public:
  /// `dataset` declares every table (fragmenting needs sizes even for
  /// tables with no windowed scans). The fragmenter defaults to the greedy
  /// split/merge algorithm (§5.3); pass a factory to substitute another
  /// (e.g. OptimalFragmenter for small databases).
  NashDbSystem(Dataset dataset, const NashDbOptions& options);
  NashDbSystem(Dataset dataset, const NashDbOptions& options,
               std::unique_ptr<Fragmenter> (*fragmenter_factory)());

  std::string_view name() const override { return "NashDB"; }
  void Observe(const Query& query) override;
  ClusterConfig BuildConfig() override;
  /// Online-reconfiguration entry point (DESIGN.md §12): snapshots the
  /// estimator on the calling thread (window copy + materialized value
  /// profiles — the only state Observe() mutates), then runs the §5-§6
  /// pipeline on a detached std::async thread, which still fans
  /// per-table refragmentation out over the internal ThreadPool.
  /// BuildConfig() and the future's result are bit-identical for the
  /// same estimator state. Contract as in DistributionSystem: one build
  /// in flight; Observe() may run concurrently; BuildConfig /
  /// NoteAppliedConfig / Reset may not.
  std::future<ClusterConfig> BuildConfigAsync() override;
  /// Re-anchors incremental placement on `config`. The driver calls this
  /// after applying an emergency-repair configuration so the next
  /// BuildConfig packs against what the cluster actually holds instead of
  /// the pre-failure layout.
  void NoteAppliedConfig(const ClusterConfig& config) override;
  void Reset() override;

  const TupleValueEstimator& estimator() const { return *estimator_; }
  const NashDbOptions& options() const { return options_; }

  /// maxFrags for one table under the block-size rule.
  std::size_t MaxFragsFor(TupleCount table_size) const;

 private:
  /// Everything BuildConfig reads from the estimator, captured at one
  /// instant: the scan window and the materialized per-table value
  /// profiles (plus the estimator-size trace fields). A snapshot makes
  /// the rest of the build pure with respect to Observe(), which is what
  /// lets BuildConfigAsync overlap the build with query admission.
  struct EstimatorSnapshot {
    std::size_t window_scans = 0;
    std::vector<Scan> window;
    std::map<TableId, ValueProfile> profiles;
    // Trace-only fields (metrics::ReconfigTrace).
    std::size_t active_tables = 0;
    std::size_t tree_nodes = 0;
    std::size_t estimator_bytes = 0;
  };

  EstimatorSnapshot SnapshotEstimator() const;
  ClusterConfig BuildFromSnapshot(EstimatorSnapshot snap);

  Dataset dataset_;
  NashDbOptions options_;
  std::unique_ptr<Fragmenter> (*fragmenter_factory_)();
  std::unique_ptr<TupleValueEstimator> estimator_;
  /// One (stateful) fragmenter instance per table, so greedy split/merge
  /// state survives across reconfigurations. Pre-created for every table
  /// before the parallel refragmentation loop; each task touches only its
  /// own table's entry.
  std::map<TableId, std::unique_ptr<Fragmenter>> fragmenters_;
  /// Workers for the per-table refragmentation fan-out; created lazily on
  /// the first BuildConfig when reconfig_threads resolves to > 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Previous configuration, the anchor for incremental placement.
  std::unique_ptr<ClusterConfig> last_config_;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_NASHDB_SYSTEM_H_
