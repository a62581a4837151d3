#ifndef NASHDB_ENGINE_NASHDB_SYSTEM_H_
#define NASHDB_ENGINE_NASHDB_SYSTEM_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "common/thread_pool.h"
#include "engine/system.h"
#include "fragment/fragmenter.h"
#include "replication/nash.h"
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

/// The replication stage of a NashDB round (§6): Eq. 9 replica counts
/// (DecideReplication), the replica-count hysteresis against `previous`,
/// and incremental packing anchored on `previous` (nullptr at bootstrap).
/// A pure function of its arguments. `ideal_replicas`, when given,
/// receives the sum of the Eq. 9 counts before hysteresis.
ClusterConfig DecideAndPack(const ReplicationParams& params,
                            std::vector<FragmentInfo> fragments,
                            const ClusterConfig* previous,
                            std::size_t* ideal_replicas = nullptr);

/// Configuration of the end-to-end NashDB controller.
struct NashDbOptions {
  /// |W|: scan window size (paper default in §10: 50 scans).
  std::size_t window_scans = 50;
  /// Average fragment size target, in tuples ("disk block" of §5.1);
  /// maxFrags(table) = ceil(table_size / block_tuples).
  TupleCount block_tuples = 50'000;
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
  /// tables with no windowed scans). Every table is fragmented by the
  /// greedy split/merge algorithm (§5.3).
  NashDbSystem(Dataset dataset, const NashDbOptions& options);

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
  /// the pre-failure layout. The next build packs in full.
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
  std::unique_ptr<TupleValueEstimator> estimator_;
  /// One (stateful) fragmenter per table, so greedy split/merge state
  /// survives across reconfigurations. Pre-created for every table before
  /// the parallel refragmentation loop; each task touches only its own
  /// table's entry.
  std::map<TableId, std::unique_ptr<GreedyFragmenter>> fragmenters_;
  /// Workers for the per-table refragmentation fan-out; created lazily on
  /// the first BuildConfig when reconfig_threads resolves to > 1.
  std::unique_ptr<ThreadPool> pool_;
  /// Previous configuration, the anchor for incremental placement.
  std::unique_ptr<ClusterConfig> last_config_;
  /// The last build packed `last_config_` from itself: its output equaled
  /// the anchor it started from, and no NoteAppliedConfig or Reset has
  /// replaced it since. A build whose packing inputs (params and
  /// fragments, which `last_config_` carries) equal the last build's
  /// then returns `*last_config_` without packing (DESIGN.md §15.9).
  /// Written by the build, like `last_config_`, under the same contract.
  bool last_build_fixed_point_ = false;
  /// What a reused build's trace carries from the build it reuses: the
  /// sum of its Eq. 9 ideals and its audit verdict (taken when a build
  /// first needs it, since only builds with metrics on audit).
  std::size_t last_ideal_replicas_ = 0;
  std::optional<NashReport> last_audit_;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_NASHDB_SYSTEM_H_
