#ifndef NASHDB_REPLICATION_NASH_H_
#define NASHDB_REPLICATION_NASH_H_

#include <string>

#include "replication/cluster_config.h"

namespace nashdb {

/// Verdict of the Nash-equilibrium audit (paper Definition 6.1 /
/// Appendix D).
struct NashReport {
  bool is_equilibrium = true;
  /// Human-readable description of the first violated condition (empty
  /// when in equilibrium).
  std::string violation;

  /// Total profit (Eq. 8) summed over all nodes, for diagnostics.
  Money total_profit = 0.0;
};

/// Audits the four equilibrium conditions of Definition 6.1 against a
/// cluster configuration:
///   1. no node can drop a replica and gain (every held replica has
///      I(f) - C(f) >= 0),
///   2. no node can add a replica and gain (for every fragment,
///      income at Replicas(f)+1 copies is <= cost),
///   3. no node can swap a replica for another and gain (implied by 1+2,
///      but verified directly),
///   4. no entrant node can assemble a profitable set (implied by 2, but
///      verified via the most profitable candidate replica).
///
/// Fragments with replicas forced above the economic ideal by
/// ReplicationParams::min_replicas are exempt from conditions 1 and 3
/// when `exempt_min_replicas` is true (a pure Eq. 9 configuration needs
/// no exemptions).
///
/// The conditions are checked in order and the report names the first
/// violation: the lowest fragment id for conditions 1, 2 and 4, and for
/// condition 3 the first (node, held, other) in node order, holding
/// order and ascending other id. Cost O(R + F log F) for R replicas and
/// F fragments: each margin is computed once, condition 3 compares every
/// held margin with the node's best added margin among fragments it does
/// not hold, and the audit returns at the first violation.
NashReport CheckNashEquilibrium(const ClusterConfig& config,
                                bool exempt_min_replicas = false);

/// Profit (Eq. 8) of one node under the configuration's economic
/// parameters: sum over held replicas of I(f) - C(f).
Money NodeProfit(const ClusterConfig& config, NodeId node);

}  // namespace nashdb

#endif  // NASHDB_REPLICATION_NASH_H_
