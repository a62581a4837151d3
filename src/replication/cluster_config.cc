#include "replication/cluster_config.h"

#include <algorithm>
#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace nashdb {
namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

}  // namespace

ClusterConfig::ClusterConfig(
    ReplicationParams params, std::vector<FragmentInfo> fragments,
    std::vector<std::vector<FlatFragmentId>> node_fragments,
    std::vector<TupleCount> node_usage)
    : params_(params),
      fragments_(std::move(fragments)),
      node_fragments_(std::move(node_fragments)),
      fragment_nodes_(fragments_.size()),
      node_usage_(std::move(node_usage)) {
  for (std::size_t f = 0; f < fragments_.size(); ++f) {
    fragment_nodes_[f].reserve(fragments_[f].replicas);
  }
  for (NodeId node = 0; node < node_fragments_.size(); ++node) {
    for (FlatFragmentId fid : node_fragments_[node]) {
      fragment_nodes_[fid].push_back(node);
    }
  }
}

TupleCount ClusterConfig::NodeUsage(NodeId node) const {
  return node_usage_[node];
}

TupleCount ClusterConfig::TotalStoredTuples() const {
  TupleCount total = 0;
  for (TupleCount u : node_usage_) total += u;
  return total;
}

NodeId ClusterConfig::AddNode() {
  node_fragments_.emplace_back();
  node_usage_.push_back(0);
  return static_cast<NodeId>(node_fragments_.size() - 1);
}

bool ClusterConfig::Holds(NodeId node, FlatFragmentId frag) const {
  const auto& frags = node_fragments_[node];
  return std::find(frags.begin(), frags.end(), frag) != frags.end();
}

void ClusterConfig::Place(NodeId node, FlatFragmentId frag) {
  NASHDB_CHECK_LT(node, node_fragments_.size());
  NASHDB_CHECK_LT(frag, fragments_.size());
  NASHDB_CHECK(!Holds(node, frag))
      << "node " << node << " already holds fragment " << frag;
  const TupleCount size = fragments_[frag].size();
  NASHDB_CHECK(Fits(node, size))
      << "fragment " << frag << " (" << size << " tuples) does not fit on "
      << "node " << node;
  node_fragments_[node].push_back(frag);
  node_usage_[node] += size;
  fragment_nodes_[frag].push_back(node);
}

bool ClusterConfig::BitIdentical(const ClusterConfig& other) const {
  if (!nashdb::BitIdentical(params_, other.params_)) return false;
  if (fragments_.size() != other.fragments_.size()) return false;
  for (std::size_t f = 0; f < fragments_.size(); ++f) {
    if (!SameFragmentInputs(fragments_[f], other.fragments_[f]) ||
        fragments_[f].replicas != other.fragments_[f].replicas) {
      return false;
    }
  }
  return node_usage_ == other.node_usage_ &&
         node_fragments_ == other.node_fragments_ &&
         fragment_nodes_ == other.fragment_nodes_;
}

bool ClusterConfig::Valid() const {
  std::vector<std::size_t> replica_counts(fragments_.size(), 0);
  for (NodeId node = 0; node < node_fragments_.size(); ++node) {
    TupleCount used = 0;
    std::vector<FlatFragmentId> seen;
    for (FlatFragmentId f : node_fragments_[node]) {
      if (f >= fragments_.size()) return false;
      if (std::find(seen.begin(), seen.end(), f) != seen.end()) {
        return false;  // duplicate replica on one node
      }
      seen.push_back(f);
      used += fragments_[f].size();
      ++replica_counts[f];
    }
    if (used > params_.node_disk) return false;
    if (used != node_usage_[node]) return false;
  }
  for (std::size_t f = 0; f < fragments_.size(); ++f) {
    if (replica_counts[f] != fragments_[f].replicas) return false;
  }
  return true;
}

bool BitIdentical(const ReplicationParams& a, const ReplicationParams& b) {
  return SameBits(a.node_cost, b.node_cost) && a.node_disk == b.node_disk &&
         a.window_scans == b.window_scans &&
         a.min_replicas == b.min_replicas && a.max_replicas == b.max_replicas;
}

bool SameFragmentInputs(const FragmentInfo& a, const FragmentInfo& b) {
  return a.table == b.table && a.index_in_table == b.index_in_table &&
         a.range.start == b.range.start && a.range.end == b.range.end &&
         SameBits(a.value, b.value);
}

}  // namespace nashdb
