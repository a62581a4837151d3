#include "engine/validate.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <functional>
#include <map>
#include <sstream>
#include <vector>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "common/types.h"
#include "fragment/prefix_stats.h"
#include "replication/node_data.h"
#include "replication/replication.h"

namespace nashdb {
namespace {

/// Runs `fn(i)` for every i in [0, n) fanned out over `pool` in contiguous
/// chunks of `grain`, and returns the violation with the smallest index —
/// deterministically, regardless of how chunks were scheduled. Each chunk
/// stops at its own first error; chunks strictly above an already-failed
/// one skip out early (they can never win), which keeps the common
/// corrupted-config case cheap without affecting which error is reported.
Status FirstError(ThreadPool* pool, std::size_t n, std::size_t grain,
                  const std::function<Status(std::size_t)>& fn) {
  if (n == 0) return Status::OK();
  const std::size_t chunks = (n + grain - 1) / grain;
  std::vector<Status> chunk_status(chunks);
  std::atomic<std::size_t> first_bad{chunks};
  ParallelFor(pool, chunks, [&](std::size_t c) {
    if (c > first_bad.load(std::memory_order_relaxed)) return;
    const std::size_t end = std::min(n, (c + 1) * grain);
    for (std::size_t i = c * grain; i < end; ++i) {
      Status st = fn(i);
      if (!st.ok()) {
        chunk_status[c] = std::move(st);
        // Keep the minimum failing chunk (racy min via CAS).
        std::size_t cur = first_bad.load(std::memory_order_relaxed);
        while (c < cur &&
               !first_bad.compare_exchange_weak(cur, c,
                                                std::memory_order_relaxed)) {
        }
        return;
      }
    }
  });
  for (std::size_t c = 0; c < chunks; ++c) {
    if (!chunk_status[c].ok()) return chunk_status[c];
  }
  return Status::OK();
}

std::string RangeStr(const TupleRange& r) {
  std::ostringstream os;
  os << "[" << r.start << ", " << r.end << ")";
  return os.str();
}

/// Sum and sum-of-squares of V(x) over `range`, recomputed directly from
/// the profile's chunks with local accumulators — deliberately *not* via
/// the PrefixStats cumulative arrays, which are what is being checked.
struct RangeStats {
  Money sum = 0.0;
  Money sumsq = 0.0;
};

RangeStats DirectRangeStats(const ValueProfile& profile,
                            const TupleRange& range) {
  RangeStats rs;
  if (range.empty()) return rs;
  for (std::size_t c = profile.ChunkIndexOf(range.start);
       c < profile.chunks().size(); ++c) {
    const ValueChunk& chunk = profile.chunks()[c];
    if (chunk.start >= range.end) break;
    const TupleCount n =
        TupleRange{chunk.start, chunk.end}.Intersect(range).size();
    rs.sum += chunk.value * static_cast<Money>(n);
    rs.sumsq += chunk.value * chunk.value * static_cast<Money>(n);
  }
  return rs;
}

/// Checks one prefix-sum error value against the direct recomputation.
Status CheckErr(Money err_prefix, const RangeStats& direct,
                const TupleRange& range, const ValidateOptions& options,
                const char* what) {
  const Money n = static_cast<Money>(range.size());
  const Money err_direct = direct.sumsq - direct.sum * direct.sum / n;
  const Money scale = std::max(Money{1.0}, direct.sumsq);
  if (std::abs(err_prefix - err_direct) > options.rel_tol * scale) {
    std::ostringstream os;
    os << what << ": prefix-sum Err" << RangeStr(range) << " = " << err_prefix
       << " disagrees with direct recomputation " << err_direct
       << " (Eq. 4/6 cumulative-array corruption)";
    return Status::Internal(os.str());
  }
  if (err_prefix < -options.rel_tol * scale) {
    std::ostringstream os;
    os << what << ": Err" << RangeStr(range) << " = " << err_prefix
       << " is negative; a sum of squared deviations cannot be";
    return Status::Internal(os.str());
  }
  return Status::OK();
}

/// Walks `ranges` (pre-sorted by start) and reports the first empty,
/// overlapping, or gapped pair. `ids[i]` labels ranges[i] in messages.
Status CheckContiguous(TableId table, const std::vector<TupleRange>& ranges,
                       const std::vector<std::size_t>& ids,
                       const char* what) {
  TupleIndex cursor = 0;
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    std::ostringstream os;
    if (ranges[i].empty()) {
      os << what << ": table " << table << " fragment #" << ids[i] << " "
         << RangeStr(ranges[i]) << " is empty";
      return Status::FailedPrecondition(os.str());
    }
    if (ranges[i].start < cursor) {
      os << what << ": table " << table << " fragment #" << ids[i] << " "
         << RangeStr(ranges[i]) << " overlaps the previous fragment (ends at "
         << cursor << ")";
      return Status::FailedPrecondition(os.str());
    }
    if (ranges[i].start > cursor) {
      os << what << ": table " << table << " has a coverage gap [" << cursor
         << ", " << ranges[i].start << ") before fragment #" << ids[i];
      return Status::FailedPrecondition(os.str());
    }
    cursor = ranges[i].end;
  }
  return Status::OK();
}

}  // namespace

Status ValidateConfig(const ClusterConfig& config, ThreadPool* pool) {
  metrics::ScopedTimerMs timer("transition.validate_config_ms");
  const std::vector<FragmentInfo>& frags = config.fragments();
  const std::size_t n_nodes = config.node_count();

  // -- fragment contiguity & coverage, per table --------------------------
  // Grouping is serial (one pass); the per-table contiguity walks fan out.
  std::map<TableId, std::vector<std::size_t>> by_table;
  for (std::size_t i = 0; i < frags.size(); ++i) {
    by_table[frags[i].table].push_back(i);
  }
  std::vector<std::pair<TableId, std::vector<std::size_t>*>> tables;
  tables.reserve(by_table.size());
  for (auto& [table, ids] : by_table) tables.emplace_back(table, &ids);
  NASHDB_RETURN_IF_ERROR(
      FirstError(pool, tables.size(), 1, [&](std::size_t t) -> Status {
        std::vector<std::size_t>& ids = *tables[t].second;
        std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
          return frags[a].range.start < frags[b].range.start;
        });
        std::vector<TupleRange> ranges;
        ranges.reserve(ids.size());
        for (std::size_t i : ids) ranges.push_back(frags[i].range);
        return CheckContiguous(tables[t].first, ranges, ids,
                               "fragment coverage");
      }));

  // -- replica placement cardinality & index consistency ------------------
  std::size_t placements = 0;
  for (NodeId m = 0; m < n_nodes; ++m) {
    placements += config.NodeFragments(m).size();
  }

  // Streaming index-agreement argument (no node_holdings cross-product is
  // ever materialized, unlike the historical O(nodes x fragments) walk):
  //   (a) per fragment, the fragment->node entries are exactly
  //       FragmentInfo::replicas distinct in-range nodes;
  //   (b) per node, the node->fragment entries are distinct and each is
  //       mirrored by the fragment side (membership scan over <= replicas
  //       entries);
  //   (c) the two indexes have the same total size.
  // (a) makes fragment-side pairs distinct, (b) makes node-side pairs
  // distinct and a subset of the fragment side, and with (c) a distinct
  // subset of equal size is equality — the same multiset-agreement
  // guarantee as before.
  NASHDB_RETURN_IF_ERROR(
      FirstError(pool, frags.size(), 256, [&](std::size_t i) -> Status {
        const FlatFragmentId fid = static_cast<FlatFragmentId>(i);
        const FragmentInfo& f = frags[fid];
        const std::vector<NodeId>& homes = config.FragmentNodes(fid);
        if (homes.size() != f.replicas) {
          std::ostringstream os;
          os << "replica placement: fragment #" << fid << " (table "
             << f.table << " " << RangeStr(f.range) << ") wants "
             << f.replicas << " replicas but is placed on " << homes.size()
             << " nodes";
          return Status::FailedPrecondition(os.str());
        }
        std::vector<NodeId> sorted = homes;
        std::sort(sorted.begin(), sorted.end());
        for (std::size_t k = 0; k < sorted.size(); ++k) {
          std::ostringstream os;
          if (sorted[k] >= n_nodes) {
            os << "replica placement: fragment #" << fid
               << " placed on node " << sorted[k]
               << " but the cluster has " << n_nodes << " nodes";
            return Status::FailedPrecondition(os.str());
          }
          if (k > 0 && sorted[k] == sorted[k - 1]) {
            os << "replica placement: fragment #" << fid
               << " has two replicas on node " << sorted[k];
            return Status::FailedPrecondition(os.str());
          }
        }
        return Status::OK();
      }));

  std::size_t fragment_side = 0;
  for (FlatFragmentId fid = 0; fid < frags.size(); ++fid) {
    fragment_side += config.FragmentNodes(fid).size();
  }
  if (fragment_side != placements) {
    std::ostringstream os;
    os << "index consistency: nodes list " << placements
       << " placements but the fragment->node index holds " << fragment_side;
    return Status::Internal(os.str());
  }

  // -- per-node: index mirror, duplicates, capacity -----------------------
  NASHDB_RETURN_IF_ERROR(
      FirstError(pool, n_nodes, 64, [&](std::size_t i) -> Status {
        const NodeId m = static_cast<NodeId>(i);
        std::vector<FlatFragmentId> listed = config.NodeFragments(m);
        std::sort(listed.begin(), listed.end());
        TupleCount used = 0;
        for (std::size_t k = 0; k < listed.size(); ++k) {
          const FlatFragmentId fid = listed[k];
          std::ostringstream os;
          if (fid >= frags.size()) {
            os << "index consistency: node " << m
               << " lists unknown fragment #" << fid;
            return Status::Internal(os.str());
          }
          if (k > 0 && fid == listed[k - 1]) {
            os << "index consistency: node " << m
               << " lists fragment #" << fid << " twice";
            return Status::Internal(os.str());
          }
          const std::vector<NodeId>& homes = config.FragmentNodes(fid);
          if (std::find(homes.begin(), homes.end(), m) == homes.end()) {
            os << "index consistency: node " << m << " lists fragment #"
               << fid << " but the fragment->node index does not place it "
               << "there";
            return Status::Internal(os.str());
          }
          used += frags[fid].size();
        }
        if (used != config.NodeUsage(m)) {
          std::ostringstream os;
          os << "node capacity: node " << m << " usage cache says "
             << config.NodeUsage(m) << " tuples but placed fragments sum to "
             << used;
          return Status::Internal(os.str());
        }
        if (config.params().node_disk > 0 &&
            used > config.params().node_disk) {
          std::ostringstream os;
          os << "node capacity: node " << m << " stores " << used
             << " tuples, over the " << config.params().node_disk
             << "-tuple disk (packer infeasibility)";
          return Status::FailedPrecondition(os.str());
        }
        return Status::OK();
      }));
  return Status::OK();
}

Status ValidateReplicaEconomics(const ClusterConfig& config,
                                const ValidateOptions& options) {
  const ReplicationParams& params = config.params();
  if (params.node_disk == 0 || params.node_cost <= 0.0) {
    return Status::OK();  // no economics to check (e.g. empty bootstrap)
  }
  const double frac = std::min(options.replica_slack_frac, 0.99);
  const double slack_abs = static_cast<double>(options.replica_slack_abs);
  for (std::size_t i = 0; i < config.fragments().size(); ++i) {
    const FragmentInfo& f = config.fragments()[i];
    if (f.size() == 0) continue;
    const std::size_t ideal = IdealReplicas(f.value, f.size(), params);
    // Hysteresis keeps a count within max(abs, frac * prev) of the fresh
    // ideal, and prev itself is bounded by (ideal + abs) / (1 - frac);
    // add 1 for the overlap-weighted rounding. Zero slack = exact Eq. 9.
    const double allowed =
        (options.replica_slack_abs == 0 && frac == 0.0)
            ? 0.0
            : 1.0 + std::max(slack_abs,
                             frac / (1.0 - frac) *
                                 (static_cast<double>(ideal) + slack_abs));
    const double deviation =
        std::abs(static_cast<double>(f.replicas) - static_cast<double>(ideal));
    if (deviation > allowed) {
      std::ostringstream os;
      os << "Eq. 9 violation: fragment #" << i << " (table " << f.table << " "
         << RangeStr(f.range) << ", value " << f.value << ") holds "
         << f.replicas << " replicas but the recomputed profitable ideal is "
         << ideal << " (hysteresis band " << allowed << "): "
         << (static_cast<double>(f.replicas) > static_cast<double>(ideal)
                 ? "the extra replicas earn less than they cost"
                 : "profitable replicas are missing");
      return Status::FailedPrecondition(os.str());
    }
  }
  return Status::OK();
}

Status ValidateProfile(const ValueProfile& profile,
                       const ValidateOptions& options) {
  const std::vector<ValueChunk>& chunks = profile.chunks();
  if (profile.table_size() == 0) {
    if (!chunks.empty()) {
      return Status::FailedPrecondition(
          "profile: empty table with non-empty chunk list");
    }
    return Status::OK();
  }
  TupleIndex cursor = 0;
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    std::ostringstream os;
    if (chunks[c].end <= chunks[c].start) {
      os << "profile: chunk #" << c << " "
         << RangeStr({chunks[c].start, chunks[c].end}) << " is empty";
      return Status::FailedPrecondition(os.str());
    }
    if (chunks[c].start != cursor) {
      os << "profile: chunk #" << c << " starts at " << chunks[c].start
         << ", expected " << cursor << " (gap or overlap)";
      return Status::FailedPrecondition(os.str());
    }
    if (!std::isfinite(chunks[c].value) || chunks[c].value < 0.0) {
      os << "profile: chunk #" << c << " has invalid value "
         << chunks[c].value;
      return Status::FailedPrecondition(os.str());
    }
    if (c > 0 && chunks[c].value == chunks[c - 1].value) {
      os << "profile: chunks #" << c - 1 << " and #" << c
         << " share value " << chunks[c].value << " (not coalesced)";
      return Status::FailedPrecondition(os.str());
    }
    cursor = chunks[c].end;
  }
  if (cursor != profile.table_size()) {
    std::ostringstream os;
    os << "profile: chunks end at " << cursor << " but the table has "
       << profile.table_size() << " tuples (coverage gap)";
    return Status::FailedPrecondition(os.str());
  }

  // Cross-check the Eq. 4/6 cumulative arrays against direct, locally
  // accumulated recomputation: whole table, every chunk (where the
  // variance must be ~0), and every adjacent chunk pair.
  const PrefixStats ps(profile);
  const TupleRange whole{0, profile.table_size()};
  NASHDB_RETURN_IF_ERROR(CheckErr(ps.Err(whole), DirectRangeStats(profile, whole),
                                  whole, options, "profile"));
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    const TupleRange r{chunks[c].start, chunks[c].end};
    NASHDB_RETURN_IF_ERROR(
        CheckErr(ps.Err(r), DirectRangeStats(profile, r), r, options,
                 "profile (single chunk)"));
    if (c > 0) {
      const TupleRange pair{chunks[c - 1].start, chunks[c].end};
      NASHDB_RETURN_IF_ERROR(
          CheckErr(ps.Err(pair), DirectRangeStats(profile, pair), pair,
                   options, "profile (chunk pair)"));
    }
  }
  return Status::OK();
}

Status ValidateScheme(const FragmentationScheme& scheme,
                      const ValueProfile& profile,
                      const ValidateOptions& options) {
  if (scheme.table_size != profile.table_size()) {
    std::ostringstream os;
    os << "scheme: table_size " << scheme.table_size
       << " does not match the profile's " << profile.table_size();
    return Status::FailedPrecondition(os.str());
  }
  std::vector<std::size_t> ids(scheme.fragments.size());
  for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
  NASHDB_RETURN_IF_ERROR(CheckContiguous(scheme.table, scheme.fragments, ids,
                                         "scheme coverage"));
  if (!scheme.fragments.empty() &&
      scheme.fragments.back().end != scheme.table_size) {
    std::ostringstream os;
    os << "scheme coverage: table " << scheme.table << " fragments end at "
       << scheme.fragments.back().end << " of " << scheme.table_size
       << " tuples";
    return Status::FailedPrecondition(os.str());
  }
  if (scheme.fragments.empty() && scheme.table_size > 0) {
    return Status::FailedPrecondition(
        "scheme coverage: non-empty table with no fragments");
  }

  const PrefixStats ps(profile);
  for (const TupleRange& f : scheme.fragments) {
    NASHDB_RETURN_IF_ERROR(CheckErr(ps.Err(f), DirectRangeStats(profile, f),
                                    f, options, "scheme"));
  }
  return Status::OK();
}

Status ValidatePlan(const TransitionPlan& plan,
                    const ClusterConfig& old_config,
                    const ClusterConfig& new_config,
                    const std::vector<bool>* old_node_dead,
                    ThreadPool* pool) {
  metrics::ScopedTimerMs timer("transition.validate_plan_ms");
  const std::size_t n_old = old_config.node_count();
  const std::size_t n_new = new_config.node_count();
  const auto old_dead = [&](NodeId m) {
    return old_node_dead != nullptr && m < old_node_dead->size() &&
           (*old_node_dead)[m];
  };

  // -- matching structure (serial: one cheap pass over the moves) ---------
  std::vector<char> seen_old(n_old, 0), seen_new(n_new, 0);
  TupleCount total = 0;
  std::size_t added = 0, removed = 0;
  for (std::size_t i = 0; i < plan.moves.size(); ++i) {
    const NodeTransition& move = plan.moves[i];
    std::ostringstream os;
    if (move.old_node == kInvalidNode && move.new_node == kInvalidNode) {
      os << "plan: move #" << i << " is dummy->dummy";
      return Status::FailedPrecondition(os.str());
    }
    if (move.old_node != kInvalidNode) {
      if (move.old_node >= n_old) {
        os << "plan: move #" << i << " consumes old node " << move.old_node
           << " of a " << n_old << "-node cluster";
        return Status::FailedPrecondition(os.str());
      }
      if (seen_old[move.old_node]++) {
        os << "plan: old node " << move.old_node << " consumed twice";
        return Status::FailedPrecondition(os.str());
      }
    }
    if (move.new_node != kInvalidNode) {
      if (move.new_node >= n_new) {
        os << "plan: move #" << i << " produces new node " << move.new_node
           << " of a " << n_new << "-node cluster";
        return Status::FailedPrecondition(os.str());
      }
      if (seen_new[move.new_node]++) {
        os << "plan: new node " << move.new_node << " produced twice";
        return Status::FailedPrecondition(os.str());
      }
    }
    total += move.transfer_tuples;
    if (move.old_node == kInvalidNode) ++added;
    if (move.new_node == kInvalidNode) ++removed;
  }
  for (NodeId m = 0; m < n_new; ++m) {
    if (!seen_new[m]) {
      std::ostringstream os;
      os << "plan: new node " << m
         << " is never produced (not a perfect matching)";
      return Status::FailedPrecondition(os.str());
    }
  }

  // -- §7 edge weights (parallel: two NodeData materializations per move
  // make this the expensive part at thousands of nodes) -------------------
  NASHDB_RETURN_IF_ERROR(
      FirstError(pool, plan.moves.size(), 8, [&](std::size_t i) -> Status {
        const NodeTransition& move = plan.moves[i];
        TupleCount expected = 0;
        if (move.new_node != kInvalidNode) {
          const NodeData new_data = NodeData::Of(new_config, move.new_node);
          if (move.old_node == kInvalidNode || old_dead(move.old_node)) {
            expected = new_data.TotalTuples();  // fresh/replacement: full copy
          } else {
            expected =
                new_data.TuplesNotIn(NodeData::Of(old_config, move.old_node));
          }
        }
        if (move.transfer_tuples != expected) {
          std::ostringstream os;
          os << "plan: move #" << i << " (old "
             << (move.old_node == kInvalidNode
                     ? -1
                     : static_cast<int>(move.old_node))
             << " -> new "
             << (move.new_node == kInvalidNode
                     ? -1
                     : static_cast<int>(move.new_node))
             << ") carries " << move.transfer_tuples
             << " tuples but the recomputed §7 edge weight is " << expected;
          return Status::FailedPrecondition(os.str());
        }
        return Status::OK();
      }));

  if (total != plan.total_transfer_tuples || added != plan.nodes_added ||
      removed != plan.nodes_removed) {
    std::ostringstream os;
    os << "plan: totals disagree with moves (transfer "
       << plan.total_transfer_tuples << " vs " << total << ", added "
       << plan.nodes_added << " vs " << added << ", removed "
       << plan.nodes_removed << " vs " << removed << ")";
    return Status::Internal(os.str());
  }
  return Status::OK();
}

Status ValidateReusedConfig(const ClusterConfig& reused,
                            const ClusterConfig& packed) {
  if (reused.BitIdentical(packed)) return Status::OK();
  std::ostringstream os;
  os << "reuse: the reused configuration differs from packing's output (";
  if (!BitIdentical(reused.params(), packed.params())) {
    os << "params";
  } else if (reused.fragments().size() != packed.fragments().size() ||
             reused.node_count() != packed.node_count()) {
    os << reused.fragments().size() << " fragments on "
       << reused.node_count() << " nodes vs " << packed.fragments().size()
       << " on " << packed.node_count();
  } else {
    os << "same shape; first differing ";
    bool found = false;
    for (FlatFragmentId f = 0; f < reused.fragments().size() && !found;
         ++f) {
      const FragmentInfo& a = reused.fragment(f);
      const FragmentInfo& b = packed.fragment(f);
      if (!SameFragmentInputs(a, b) || a.replicas != b.replicas ||
          reused.FragmentNodes(f) != packed.FragmentNodes(f)) {
        os << "fragment " << f;
        found = true;
      }
    }
    for (NodeId m = 0; m < reused.node_count() && !found; ++m) {
      if (reused.NodeFragments(m) != packed.NodeFragments(m) ||
          reused.NodeUsage(m) != packed.NodeUsage(m)) {
        os << "node " << m;
        found = true;
      }
    }
  }
  os << ")";
  return Status::Internal(os.str());
}

Status ValidateReusedPlan(const TransitionPlan& reused,
                          const TransitionPlan& planned) {
  std::ostringstream os;
  if (reused.total_transfer_tuples != planned.total_transfer_tuples ||
      reused.nodes_added != planned.nodes_added ||
      reused.nodes_removed != planned.nodes_removed ||
      reused.moves.size() != planned.moves.size()) {
    os << "reuse: the reused plan's totals differ from planning's (transfer "
       << reused.total_transfer_tuples << " vs "
       << planned.total_transfer_tuples << ", added " << reused.nodes_added
       << " vs " << planned.nodes_added << ", removed "
       << reused.nodes_removed << " vs " << planned.nodes_removed
       << ", moves " << reused.moves.size() << " vs "
       << planned.moves.size() << ")";
    return Status::Internal(os.str());
  }
  for (std::size_t i = 0; i < reused.moves.size(); ++i) {
    const NodeTransition& a = reused.moves[i];
    const NodeTransition& b = planned.moves[i];
    if (a.old_node != b.old_node || a.new_node != b.new_node ||
        a.transfer_tuples != b.transfer_tuples) {
      os << "reuse: the reused plan's move #" << i
         << " differs from planning's";
      return Status::Internal(os.str());
    }
  }
  if (reused.stats.used_sparse != planned.stats.used_sparse ||
      reused.stats.graph_edges != planned.stats.graph_edges ||
      reused.stats.solver_iterations != planned.stats.solver_iterations) {
    return Status::Internal(
        "reuse: the reused plan's solver stats differ from planning's");
  }
  return Status::OK();
}

}  // namespace nashdb
