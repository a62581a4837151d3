#include "replication/nash.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/logging.h"

namespace nashdb {
namespace {

// Tolerance for profit comparisons: incomes are products/quotients of
// doubles, so strict zero comparisons would flag spurious violations.
constexpr Money kEps = 1e-9;

Money MarginalProfitHeld(const ClusterConfig& config, FlatFragmentId fid) {
  const FragmentInfo& f = config.fragment(fid);
  return ReplicaIncome(f.value, f.replicas, config.params()) -
         ReplicaCost(f.size(), config.params());
}

Money MarginalProfitAdded(const ClusterConfig& config, FlatFragmentId fid) {
  const FragmentInfo& f = config.fragment(fid);
  return ReplicaIncome(f.value, f.replicas + 1, config.params()) -
         ReplicaCost(f.size(), config.params());
}

NashReport Violated(NashReport report, const std::ostringstream& why) {
  report.is_equilibrium = false;
  report.violation = why.str();
  return report;
}

}  // namespace

Money NodeProfit(const ClusterConfig& config, NodeId node) {
  Money profit = 0.0;
  for (FlatFragmentId fid : config.NodeFragments(node)) {
    profit += MarginalProfitHeld(config, fid);
  }
  return profit;
}

NashReport CheckNashEquilibrium(const ClusterConfig& config,
                                bool exempt_min_replicas) {
  NashReport report;
  const ReplicationParams& params = config.params();
  const std::size_t n_frags = config.fragments().size();
  const ReplicationParams uncapped{params.node_cost, params.node_disk,
                                   params.window_scans, /*min_replicas=*/0,
                                   params.max_replicas};

  // Each fragment's margins, once. `held` and `pinned` are only defined
  // for fragments with replicas or placements (the income of a replica
  // needs a replica count). A pinned fragment's replica count was forced
  // above the economic ideal by the availability floor; it is exempt
  // from "dropping/swapping it would gain" audits when requested (the
  // floor is a policy, not a node's choice).
  std::vector<Money> held(n_frags, 0.0), added(n_frags, 0.0);
  std::vector<char> pinned(n_frags, 0);
  for (FlatFragmentId fid = 0; fid < n_frags; ++fid) {
    const FragmentInfo& f = config.fragment(fid);
    added[fid] = MarginalProfitAdded(config, fid);
    if (f.replicas == 0 && config.FragmentNodes(fid).empty()) continue;
    held[fid] = MarginalProfitHeld(config, fid);
    pinned[fid] = exempt_min_replicas && f.replicas <= params.min_replicas &&
                  IdealReplicas(f.value, f.size(), uncapped) < f.replicas;
  }

  for (NodeId node = 0; node < config.node_count(); ++node) {
    report.total_profit += NodeProfit(config, node);
  }

  std::ostringstream os;
  // Condition 1: every held replica is (weakly) profitable.
  for (FlatFragmentId fid = 0; fid < n_frags; ++fid) {
    if (config.fragment(fid).replicas == 0 || pinned[fid]) continue;
    if (held[fid] < -kEps) {
      os << "condition 1 violated: dropping a replica of fragment " << fid
         << " gains " << -held[fid];
      return Violated(report, os);
    }
  }

  // Condition 2: adding one more replica of any fragment is unprofitable
  // (unless the count was capped below the ideal by max_replicas).
  for (FlatFragmentId fid = 0; fid < n_frags; ++fid) {
    if (params.max_replicas > 0 &&
        config.fragment(fid).replicas >= params.max_replicas) {
      continue;
    }
    if (added[fid] > kEps) {
      os << "condition 2 violated: adding a replica of fragment " << fid
         << " gains " << added[fid];
      return Violated(report, os);
    }
  }

  // Condition 3: no profitable swap. Node m swaps held h for other o and
  // gains when added[o] - held[h] > kEps. IEEE subtraction is monotone in
  // its first operand, so such an o exists iff the best added margin
  // among fragments m does not hold passes the test. `by_added` lists the
  // fragments by added margin, best first; m's best is the first entry it
  // does not hold, found by walking past m's holdings (stamped m + 1). A
  // NaN margin never passes the test, so it is left out.
  std::vector<FlatFragmentId> by_added;
  by_added.reserve(n_frags);
  for (FlatFragmentId fid = 0; fid < n_frags; ++fid) {
    if (!std::isnan(added[fid])) by_added.push_back(fid);
  }
  std::sort(by_added.begin(), by_added.end(),
            [&added](FlatFragmentId a, FlatFragmentId b) {
              return added[a] > added[b];
            });
  std::vector<std::size_t> stamp(n_frags, 0);
  for (NodeId node = 0; node < config.node_count(); ++node) {
    const std::vector<FlatFragmentId>& holds = config.NodeFragments(node);
    for (FlatFragmentId fid : holds) stamp[fid] = node + 1;
    std::size_t k = 0;
    while (k < by_added.size() && stamp[by_added[k]] == node + 1) ++k;
    if (k == by_added.size()) continue;  // holds every candidate
    const Money best = added[by_added[k]];
    for (FlatFragmentId h : holds) {
      if (pinned[h] || !(best - held[h] > kEps)) continue;
      // `best` passes, so some other does: report the lowest-id one.
      FlatFragmentId other = 0;
      while (other < n_frags && (stamp[other] == node + 1 ||
                                 !(added[other] - held[h] > kEps))) {
        ++other;
      }
      NASHDB_CHECK_LT(other, n_frags)
          << "node " << node << ": the best swap gains but none does";
      os << "condition 3 violated: node " << node << " swaps " << h
         << " for " << other << " gaining " << (added[other] - held[h]);
      return Violated(report, os);
    }
  }

  // Condition 4: no entrant can profit. The best possible entrant holds
  // only replicas with positive marginal profit at Replicas(f)+1; by
  // condition 2 only a max_replicas-capped fragment can have one.
  for (FlatFragmentId fid = 0; fid < n_frags; ++fid) {
    if (added[fid] > kEps) {
      os << "condition 4 violated: an entrant profits from fragment " << fid;
      return Violated(report, os);
    }
  }
  return report;
}

}  // namespace nashdb
