#ifndef NASHDB_ENGINE_CONFIG_EPOCH_H_
#define NASHDB_ENGINE_CONFIG_EPOCH_H_

#include <cstdint>
#include <utility>

#include "engine/config_index.h"
#include "replication/cluster_config.h"

namespace nashdb {

/// One epoch of the double-buffered configuration (DESIGN.md §12): the
/// ClusterConfig together with the ConfigIndex built over it, stamped
/// with a monotonically increasing epoch number. The bootstrap
/// configuration is epoch 0; every applied transition (periodic round or
/// emergency repair) produces the next epoch.
///
/// Immutable-after-publish contract: a ConfigEpoch is assembled on the
/// driver loop and is frozen from the moment it becomes reachable by the
/// data plane (engine/data_plane.h) through the driver's pointer swap.
/// After that edge no field is ever written, so any number of reader
/// threads may route against it without locks; the epoch the plane
/// routes against is the epoch its records carry (QueryRecord::epoch).
///
/// The bundle is pinned in place (no copy/move): ConfigIndex holds a
/// pointer to the ClusterConfig it indexes, so relocating the config
/// would dangle the index. Hold epochs by std::unique_ptr and swap the
/// pointer, never the object.
class ConfigEpoch {
 public:
  ConfigEpoch(std::uint64_t epoch, ClusterConfig config)
      : epoch_(epoch), config_(std::move(config)), index_(config_, epoch) {}

  ConfigEpoch(const ConfigEpoch&) = delete;
  ConfigEpoch& operator=(const ConfigEpoch&) = delete;

  std::uint64_t epoch() const { return epoch_; }
  const ClusterConfig& config() const { return config_; }
  const ConfigIndex& index() const { return index_; }

 private:
  std::uint64_t epoch_;
  ClusterConfig config_;
  ConfigIndex index_;
};

}  // namespace nashdb

#endif  // NASHDB_ENGINE_CONFIG_EPOCH_H_
