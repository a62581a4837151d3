#ifndef NASHDB_ENGINE_VALIDATE_H_
#define NASHDB_ENGINE_VALIDATE_H_

#include <vector>

#include "common/status.h"
#include "fragment/scheme.h"
#include "replication/cluster_config.h"
#include "transition/planner.h"
#include "value/value_profile.h"

namespace nashdb {

class ThreadPool;

/// Machine-checked invariants of the economic pipeline (DESIGN.md §9).
/// The paper states these in prose; here they are pure functions over the
/// pipeline's data structures, returning OK or a Status *naming the
/// violated invariant* (fragment/node ids and the numbers that disagree),
/// so a Debug-build failure points at the algebra, not just "CHECK
/// failed".
///
/// All validators are side-effect free, always compiled, and callable from
/// tests in any build type. The NASHDB_VALIDATE CMake option (default ON
/// for Debug and sanitized builds) additionally wires them in after every
/// BuildConfig (NashDbSystem) and PlanTransition (driver), where a
/// violation is a CHECK-abort.

/// Tolerances for the economic and floating-point checks.
struct ValidateOptions {
  /// Slack for the Eq. 9 replica-count check, mirroring the
  /// NashDbOptions replica hysteresis: a committed count may lag the
  /// freshly recomputed ideal by the hysteresis band (plus rounding), so
  /// the validator accepts |replicas - ideal| up to
  ///   1 + max(slack_abs, slack_frac / (1 - slack_frac) * (ideal + slack_abs)).
  /// Set both to zero to demand exact Eq. 9 counts (pure-economics
  /// configurations, e.g. replication_test fixtures).
  std::size_t replica_slack_abs = 1;
  double replica_slack_frac = 0.3;

  /// Relative tolerance for floating-point cross-checks (prefix-sum
  /// variance vs. direct recomputation).
  double rel_tol = 1e-9;
};

/// Structural invariants of a cluster configuration (any system):
///   - per table, fragments are non-empty, non-overlapping, and tile
///     [0, max end) contiguously (no gaps in coverage),
///   - every fragment is placed on exactly FragmentInfo::replicas distinct
///     in-range nodes, and the node->fragments / fragment->nodes indexes
///     agree,
///   - per-node stored tuples match the fragment sizes and respect
///     ReplicationParams::node_disk (packer feasibility).
///
/// Streaming + parallel: the checks run per table / per fragment / per
/// node without materializing any cross-product index, fanned out over
/// `pool` (nullptr = serial). The reported error is the lowest-index
/// violation of the first failing check stage regardless of scheduling,
/// so a corrupted config yields the same Status with and without a pool.
/// This is what keeps NASHDB_VALIDATE builds usable at thousands of
/// nodes.
Status ValidateConfig(const ClusterConfig& config, ThreadPool* pool = nullptr);

/// Eq. 9 replica economics (NashDB-built configurations only — baselines
/// choose replica counts by other rules): every fragment's committed count
/// stays within the hysteresis band of the recomputed ideal
///   Ideal(f) = floor(|W| * Value(f) * Disk / (Size(f) * Cost)),
/// clamped to [min_replicas, max_replicas]. An extra replica beyond the
/// band is unprofitable (income at that count is below cost); a missing
/// one forgoes profit.
Status ValidateReplicaEconomics(const ClusterConfig& config,
                                const ValidateOptions& options = {});

/// Value-profile invariants: chunks are non-empty, sorted, gap-free,
/// coalesced, tile [0, table_size), and carry non-negative values; and the
/// O(1) prefix-sum fragment error (Eq. 4 via Eq. 6 cumulative arrays,
/// PrefixStats) agrees with a direct per-range recomputation — the
/// cumulative arrays are exactly where catastrophic cancellation would
/// silently corrupt every downstream fragmentation decision.
Status ValidateProfile(const ValueProfile& profile,
                       const ValidateOptions& options = {});

/// Fragmentation-scheme invariants against the profile it was computed
/// from: fragments tile [0, table_size) contiguously, and each fragment's
/// prefix-sum error Err(f) matches the directly recomputed sum of squared
/// deviations (and is non-negative, as a variance must be).
Status ValidateScheme(const FragmentationScheme& scheme,
                      const ValueProfile& profile,
                      const ValidateOptions& options = {});

/// Transition-plan invariants (§7 minimal-transfer matching): the plan is
/// a perfect matching (every new node produced exactly once, every old
/// node consumed at most once, no dummy-dummy moves), per-move transfer
/// tuples equal the recomputed |Data(new) - Data(old)| edge weight (full
/// copy when the old side is fresh or dead), and the added/removed/total
/// accounting is consistent. `old_node_dead` mirrors the failure-aware
/// PlanTransition overload.
///
/// The per-move edge-weight recomputation (the expensive part — two
/// NodeData materializations per move) fans out over `pool`; matching
/// structure and totals stay serial. Error determinism contract as in
/// ValidateConfig: within each stage the lowest-index violation wins.
Status ValidatePlan(const TransitionPlan& plan,
                    const ClusterConfig& old_config,
                    const ClusterConfig& new_config,
                    const std::vector<bool>* old_node_dead = nullptr,
                    ThreadPool* pool = nullptr);

/// Round reuse (DESIGN.md §15.9): a reused result must be exactly what
/// the stage would have computed. `reused` is the configuration a build
/// returned without packing, `packed` the packing code's output on the
/// same inputs; OK only when they are bit-identical (ClusterConfig::
/// BitIdentical), else the first difference is named.
Status ValidateReusedConfig(const ClusterConfig& reused,
                            const ClusterConfig& packed);

/// As ValidateReusedConfig for a transition plan the driver reused:
/// `planned` is PlanTransition's output on the same (old, new, dead). OK
/// only when the totals, the solver stats and every move (old node, new
/// node, transfer) agree, in order.
Status ValidateReusedPlan(const TransitionPlan& reused,
                          const TransitionPlan& planned);

/// True when this build runs the validators after every BuildConfig /
/// PlanTransition (the NASHDB_VALIDATE CMake option).
constexpr bool ValidationEnabled() {
#ifdef NASHDB_VALIDATE
  return true;
#else
  return false;
#endif
}

/// Pipeline hook: CHECK-aborts with the validator's message when the build
/// has NASHDB_VALIDATE on; expands to nothing (the expression is not even
/// evaluated) otherwise, so Release pipelines pay zero cost.
#ifdef NASHDB_VALIDATE
#define NASHDB_VALIDATE_OR_DIE(expr)                                     \
  do {                                                                   \
    const ::nashdb::Status _nashdb_vst = (expr);                         \
    NASHDB_CHECK(_nashdb_vst.ok())                                       \
        << "pipeline invariant violated: " << _nashdb_vst.ToString();    \
  } while (false)
#else
#define NASHDB_VALIDATE_OR_DIE(expr) \
  do {                               \
  } while (false)
#endif

}  // namespace nashdb

#endif  // NASHDB_ENGINE_VALIDATE_H_
