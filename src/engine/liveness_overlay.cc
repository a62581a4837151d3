#include "engine/liveness_overlay.h"

#include <algorithm>
#include <cstdint>

#include "common/logging.h"

namespace nashdb {

void LivenessOverlay::SyncFrom(const ClusterSim& sim) {
  const std::size_t n = sim.node_count();
  routable_until_.resize(n);
  max_routable_until_ = 0.0;
  for (NodeId m = 0; m < n; ++m) {
    routable_until_[m] = sim.RoutableUntil(m);
    max_routable_until_ = std::max(max_routable_until_, routable_until_[m]);
  }
}

SimTime LivenessOverlay::NextChangeAfter(SimTime at) const {
  SimTime next = kNeverRecovers;
  if (!AnyDeadAt(at)) return next;
  for (const SimTime until : routable_until_) {
    if (until > at) next = std::min(next, until);
  }
  return next;
}

void LivenessOverlay::FilterLive(SimTime at, ScanBatch* batch,
                                 std::vector<NodeId>* pool) const {
  NASHDB_DCHECK(batch->cand_pool != pool->data() || pool->empty());
  pool->clear();
  const NodeId* src = batch->cand_pool;
  for (FlatRequest& req : batch->requests) {
    const NodeId* cand = src + req.cand_begin;
    const std::size_t begin = pool->size();
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      if (AliveAt(cand[k], at)) pool->push_back(cand[k]);
    }
    req.cand_begin = static_cast<std::uint32_t>(begin);
    req.cand_count = static_cast<std::uint32_t>(pool->size() - begin);
  }
  batch->cand_pool = pool->data();
}

}  // namespace nashdb
