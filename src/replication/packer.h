#ifndef NASHDB_REPLICATION_PACKER_H_
#define NASHDB_REPLICATION_PACKER_H_

#include <vector>

#include "common/status.h"
#include "replication/cluster_config.h"
#include "replication/replication.h"

namespace nashdb {

/// Packs the decided replicas onto the fewest nodes using the Best First
/// Fit Decreasing heuristic of [45] (paper §6, "Replica Allocation"):
/// fragments are processed in decreasing order of replica count; each
/// replica goes on the first node in list order that (a) has room and
/// (b) does not already store this fragment; if none exists, a new node is
/// appended. This is the class-constrained bin packing problem (NP-hard);
/// BFFD has an approximation factor of 2.
///
/// Scale: the first-fit scan runs on a segment tree over per-node
/// remaining capacity (first node with room in O(log nodes) instead of
/// O(nodes)), a pure acceleration: the packed configuration is
/// bit-identical to the original O(fragments x nodes) scan for every
/// input.
///
/// Preconditions: every fragment's replicas are already decided
/// (DecideReplication) and every fragment fits a single node
/// (Size(f) <= node_disk). Returns InvalidArgument otherwise.
Result<ClusterConfig> PackReplicasBffd(const ReplicationParams& params,
                                       std::vector<FragmentInfo> fragments);

/// Materializes a ClusterConfig from an explicit placement plan:
/// `node_fragments[m]` lists the fragments stored on node m. Each
/// fragment's `replicas` field is overwritten with the achieved count.
/// Used by baseline systems (Threshold/Hypergraph) that compute placements
/// themselves. Fails if a node exceeds capacity or holds duplicates.
Result<ClusterConfig> BuildConfigFromPlacement(
    const ReplicationParams& params, std::vector<FragmentInfo> fragments,
    const std::vector<std::vector<FlatFragmentId>>& node_fragments);

}  // namespace nashdb

#endif  // NASHDB_REPLICATION_PACKER_H_
