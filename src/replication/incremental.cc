#include "replication/incremental.h"

#include <algorithm>
#include <numeric>

#include "common/logging.h"
#include "replication/node_data.h"
#include "replication/packer.h"

namespace nashdb {

Result<ClusterConfig> RepackIncremental(const ReplicationParams& params,
                                        std::vector<FragmentInfo> fragments,
                                        const ClusterConfig* previous,
                                        const IncrementalOptions& options) {
  if (params.node_disk == 0) {
    return Status::InvalidArgument("node_disk must be positive");
  }
  for (const FragmentInfo& f : fragments) {
    if (f.size() > params.node_disk) {
      return Status::InvalidArgument(
          "fragment larger than node disk capacity");
    }
  }

  const std::size_t prev_nodes =
      previous == nullptr ? 0 : previous->node_count();
  const auto unavailable = [&](std::size_t m) {
    return m < prev_nodes && m < options.unavailable_prev_nodes.size() &&
           options.unavailable_prev_nodes[m];
  };
  // Pinned = partitioned: alive but unroutable (a node both marked dead
  // and pinned is treated as dead).
  const auto pinned = [&](std::size_t m) {
    return m < prev_nodes && m < options.pinned_prev_nodes.size() &&
           options.pinned_prev_nodes[m] && !unavailable(m);
  };
  // Crashed previous nodes contribute no coverage and take no placements:
  // they finish the repack empty, which decommissions them in elastic
  // mode. Pinned (partitioned) nodes also contribute no *routable*
  // coverage — their copies must not satisfy replica targets — but keep
  // their placements (pre-seeded below). Both placement phases read every
  // fragment's coverers from one index.
  const CovererIndex coverers_of = [&] {
    std::vector<NodeData> coverage;
    coverage.reserve(prev_nodes);
    for (NodeId m = 0; m < prev_nodes; ++m) {
      coverage.push_back(unavailable(m) || pinned(m)
                             ? NodeData()
                             : NodeData::Of(*previous, m));
    }
    return CovererIndex(fragments, coverage);
  }();

  // Working placement state. Slots beyond prev_nodes are fresh nodes.
  std::vector<std::vector<FlatFragmentId>> node_frags(prev_nodes);
  std::vector<TupleCount> node_used(prev_nodes, 0);
  std::vector<std::vector<bool>> holds;  // per fragment: node bitmap

  auto ensure_holds = [&](std::size_t nodes) {
    for (auto& h : holds) h.resize(nodes, false);
  };
  holds.assign(fragments.size(), std::vector<bool>(prev_nodes, false));

  // Pre-seed pinned nodes with their previous placements (carried by
  // fragment index — see the pinned_prev_nodes contract). These copies
  // exist and are billed, but do not count toward routable replica
  // targets tracked in `achieved`.
  std::vector<std::size_t> pinned_copies(fragments.size(), 0);
  for (NodeId m = 0; m < prev_nodes; ++m) {
    if (!pinned(m)) continue;
    for (FlatFragmentId fid : previous->NodeFragments(m)) {
      NASHDB_CHECK_LT(fid, fragments.size())
          << "pinned_prev_nodes requires fragments identical to previous's";
      node_frags[m].push_back(fid);
      node_used[m] += fragments[fid].size();
      holds[fid][m] = true;
      ++pinned_copies[fid];
    }
  }

  // Hot fragments first, so they keep their previous homes even if the
  // cluster is shrinking.
  std::vector<std::size_t> order(fragments.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (fragments[a].replicas != fragments[b].replicas) {
      return fragments[a].replicas > fragments[b].replicas;
    }
    if (fragments[a].size() != fragments[b].size()) {
      return fragments[a].size() > fragments[b].size();
    }
    return a < b;
  });

  auto place = [&](std::size_t idx, std::size_t node) {
    node_frags[node].push_back(static_cast<FlatFragmentId>(idx));
    node_used[node] += fragments[idx].size();
    holds[idx][node] = true;
  };

  // Places up to `count` additional replicas of fragment `idx`; returns
  // how many were placed. Preference order: previous nodes already
  // holding the data (emptiest first, so later fragments stay placeable),
  // then any existing node first-fit, then fresh nodes if allowed.
  std::vector<std::size_t> coverers;
  auto place_replicas = [&](std::size_t idx, std::size_t count)
      -> std::size_t {
    const FragmentInfo& f = fragments[idx];
    std::size_t placed = 0;

    coverers.assign(coverers_of.begin(idx), coverers_of.end(idx));
    std::sort(coverers.begin(), coverers.end(),
              [&](std::size_t a, std::size_t b) {
                return node_used[a] < node_used[b];
              });
    for (std::size_t m : coverers) {
      if (placed == count) break;
      if (holds[idx][m] || node_used[m] + f.size() > params.node_disk) {
        continue;
      }
      place(idx, m);
      ++placed;
    }
    // Spread over existing nodes, emptiest first: contiguous fragments of
    // one table then land on different disks, so a range scan
    // parallelizes instead of serializing behind a single node.
    while (placed < count) {
      std::size_t best = node_frags.size();
      for (std::size_t m = 0; m < node_frags.size(); ++m) {
        if (unavailable(m) || pinned(m) || holds[idx][m] ||
            node_used[m] + f.size() > params.node_disk) {
          continue;
        }
        if (best == node_frags.size() || node_used[m] < node_used[best]) {
          best = m;
        }
      }
      if (best == node_frags.size()) break;
      place(idx, best);
      ++placed;
    }
    while (placed < count &&
           (options.max_nodes == 0 ||
            node_frags.size() < options.max_nodes)) {
      node_frags.emplace_back();
      node_used.push_back(0);
      ensure_holds(node_frags.size());
      place(idx, node_frags.size() - 1);
      ++placed;
    }
    return placed;
  };

  // Phase 1: one copy of every fragment — base coverage must never lose
  // space to extra replicas of hot data. Zero-replica fragments (pure
  // Eq. 9 mode, min_replicas == 0) are deliberately unplaced.
  std::vector<std::size_t> achieved(fragments.size(), 0);
  for (std::size_t idx : order) {
    if (fragments[idx].replicas == 0) continue;
    achieved[idx] = place_replicas(idx, 1);
    if (achieved[idx] == 0) {
      return Status::ResourceExhausted(
          "cluster too small to hold even one copy of every fragment");
    }
  }
  // Phase 2: the remaining (extra) replicas, hottest first.
  for (std::size_t idx : order) {
    if (fragments[idx].replicas <= achieved[idx]) continue;
    achieved[idx] +=
        place_replicas(idx, fragments[idx].replicas - achieved[idx]);
  }
  for (std::size_t idx = 0; idx < fragments.size(); ++idx) {
    // Total copies in the configuration: routable placements plus the
    // copies stranded behind partitions on pinned nodes.
    fragments[idx].replicas = achieved[idx] + pinned_copies[idx];
  }

  // Elastic consolidation: when demand fell, incremental reuse can leave
  // many half-empty rented nodes behind. Evacuate the emptiest nodes into
  // the others' free space until the cluster is within one node of its
  // volume minimum — the transition planner prices the moves, and the
  // saved rent recurs every period.
  if (options.max_nodes == 0) {
    TupleCount volume = 0;
    for (TupleCount u : node_used) volume += u;
    const std::size_t target =
        static_cast<std::size_t>((volume + params.node_disk - 1) /
                                 params.node_disk) +
        1;
    std::size_t live = 0;
    for (const auto& frags : node_frags) {
      if (!frags.empty()) ++live;
    }
    while (live > target) {
      // Emptiest non-empty node. Pinned nodes are never evacuated: they
      // stay rented regardless, so consolidation buys nothing there.
      std::size_t victim = node_frags.size();
      for (std::size_t m = 0; m < node_frags.size(); ++m) {
        if (node_frags[m].empty() || pinned(m)) continue;
        if (victim == node_frags.size() ||
            node_used[m] < node_used[victim]) {
          victim = m;
        }
      }
      if (victim == node_frags.size()) break;
      // Tentatively evacuate; roll back if any fragment has no home.
      bool ok = true;
      std::vector<std::pair<FlatFragmentId, std::size_t>> moves;
      for (FlatFragmentId fid : node_frags[victim]) {
        std::size_t dest = node_frags.size();
        for (std::size_t m = 0; m < node_frags.size(); ++m) {
          if (m == victim || node_frags[m].empty() || pinned(m)) continue;
          if (holds[fid][m] ||
              node_used[m] + fragments[fid].size() > params.node_disk) {
            continue;
          }
          if (dest == node_frags.size() || node_used[m] < node_used[dest]) {
            dest = m;
          }
        }
        if (dest == node_frags.size()) {
          ok = false;
          break;
        }
        moves.emplace_back(fid, dest);
        node_used[dest] += fragments[fid].size();  // reserve
        holds[fid][dest] = true;
      }
      if (!ok) {
        for (const auto& [fid, dest] : moves) {
          node_used[dest] -= fragments[fid].size();
          holds[fid][dest] = false;
        }
        break;  // cannot shrink further
      }
      for (const auto& [fid, dest] : moves) {
        node_frags[dest].push_back(fid);
        holds[fid][victim] = false;
      }
      node_used[victim] = 0;
      node_frags[victim].clear();
      --live;
    }
  }

  // Elastic clusters decommission empty nodes; fixed-size clusters keep
  // them (their rent is the baseline's tuning knob). Fixed-size clusters
  // are also padded up to max_nodes.
  std::vector<std::vector<FlatFragmentId>> final_nodes;
  if (options.max_nodes == 0) {
    for (auto& frags : node_frags) {
      if (!frags.empty()) final_nodes.push_back(std::move(frags));
    }
    if (final_nodes.empty()) final_nodes.emplace_back();
  } else {
    final_nodes = std::move(node_frags);
    final_nodes.resize(options.max_nodes);
  }

  return BuildConfigFromPlacement(params, std::move(fragments), final_nodes);
}

Result<ClusterConfig> PlanEmergencyRepair(
    const ClusterConfig& config, const std::vector<bool>& node_dead,
    const std::vector<bool>& node_partitioned) {
  IncrementalOptions options;
  options.max_nodes = 0;  // elastic: replacements may be provisioned
  options.unavailable_prev_nodes = node_dead;
  options.pinned_prev_nodes = node_partitioned;
  // Same target fragments and replica counts; only the placement changes.
  // Live replicas are reused via interval containment, so the repair
  // transition copies exactly the lost replicas (plus any consolidation).
  // Partitioned nodes are pinned: kept intact and billed while routable
  // copies are restored elsewhere.
  return RepackIncremental(config.params(), config.fragments(), &config,
                           options);
}

}  // namespace nashdb
