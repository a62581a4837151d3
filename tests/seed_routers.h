// The seed scan routers (paper §8), kept verbatim as the routing oracle.
// Each routes one scan over a plain waits vector, the straightforward way:
// no scratch, no batching, no early exits. The shipped routers implement
// only ScanRouter::RouteBatchInto, and the router and batch equivalence
// suites hold it to these, node for node, tie for tie, RNG draw for RNG
// draw.

#ifndef NASHDB_TESTS_SEED_ROUTERS_H_
#define NASHDB_TESTS_SEED_ROUTERS_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "routing/router.h"

namespace nashdb {

/// Number of distinct nodes in a routing (the query-span contribution of
/// one scan).
inline std::size_t SpanOf(const std::vector<RoutedRead>& reads) {
  std::set<NodeId> nodes;
  for (const RoutedRead& r : reads) nodes.insert(r.node);
  return nodes.size();
}

/// Shared precondition for all seed routers: every request must have at
/// least one candidate replica. Returns FailedPrecondition naming the
/// first fragment with none.
inline Status ValidateRoutable(const std::vector<FragmentRequest>& requests) {
  for (const FragmentRequest& req : requests) {
    if (req.candidates.empty()) {
      return Status::FailedPrecondition(
          "fragment " + std::to_string(req.frag) +
          " has no live replica-holding node");
    }
  }
  return Status::OK();
}

/// Max of mins: repeatedly schedules the request whose minimum achievable
/// wait (adding φ for nodes the scan does not already use) is largest.
inline Result<std::vector<RoutedRead>> SeedMaxOfMinsRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  std::vector<bool> scheduled(requests.size(), false);
  std::vector<bool> used(waits.size(), false);

  for (std::size_t round = 0; round < requests.size(); ++round) {
    // For every unscheduled request, find its minimum achievable wait and
    // the node achieving it; then pick the request whose minimum is
    // maximal (Eq. 11) — the bottleneck — and schedule it first.
    double best_min = -1.0;
    std::size_t best_req = requests.size();
    NodeId best_node = kInvalidNode;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (scheduled[i]) continue;
      double min_wait = std::numeric_limits<double>::infinity();
      NodeId min_node = kInvalidNode;
      for (NodeId m : requests[i].candidates) {
        const double w = waits[m] + (used[m] ? 0.0 : phi_s);
        if (w < min_wait) {
          min_wait = w;
          min_node = m;
        }
      }
      if (min_wait > best_min) {
        best_min = min_wait;
        best_req = i;
        best_node = min_node;
      }
    }
    NASHDB_DCHECK(best_req < requests.size());
    scheduled[best_req] = true;
    used[best_node] = true;
    waits[best_node] +=
        static_cast<double>(requests[best_req].tuples) * read_seconds_per_tuple;
    out.push_back(RoutedRead{best_req, best_node});
  }
  return out;
}

/// Shortest queue: each request goes to its shortest-queue candidate.
inline Result<std::vector<RoutedRead>> SeedShortestQueueRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  (void)phi_s;
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    NodeId best = requests[i].candidates.front();
    for (NodeId m : requests[i].candidates) {
      if (waits[m] < waits[best]) best = m;
    }
    waits[best] +=
        static_cast<double>(requests[i].tuples) * read_seconds_per_tuple;
    out.push_back(RoutedRead{i, best});
  }
  return out;
}

/// Greedy set cover: repeatedly picks the node covering the most remaining
/// tuples and assigns it every request it can serve.
inline Result<std::vector<RoutedRead>> SeedGreedyScRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  (void)waits;
  (void)read_seconds_per_tuple;
  (void)phi_s;
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  std::vector<bool> scheduled(requests.size(), false);
  std::size_t remaining = requests.size();

  while (remaining > 0) {
    // Pick the node covering the most remaining tuples.
    // (Candidate lists are small, so a simple scan suffices.)
    NodeId best_node = kInvalidNode;
    TupleCount best_cover = 0;
    std::set<NodeId> considered;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      if (scheduled[i]) continue;
      for (NodeId m : requests[i].candidates) {
        if (!considered.insert(m).second) continue;
        TupleCount cover = 0;
        for (std::size_t j = 0; j < requests.size(); ++j) {
          if (scheduled[j]) continue;
          const auto& cand = requests[j].candidates;
          if (std::find(cand.begin(), cand.end(), m) != cand.end()) {
            cover += requests[j].tuples;
          }
        }
        if (cover > best_cover ||
            (cover == best_cover && best_node == kInvalidNode)) {
          best_cover = cover;
          best_node = m;
        }
      }
    }
    NASHDB_DCHECK(best_node != kInvalidNode);
    for (std::size_t j = 0; j < requests.size(); ++j) {
      if (scheduled[j]) continue;
      const auto& cand = requests[j].candidates;
      if (std::find(cand.begin(), cand.end(), best_node) != cand.end()) {
        scheduled[j] = true;
        --remaining;
        out.push_back(RoutedRead{j, best_node});
      }
    }
  }
  return out;
}

/// Power of two choices: each request samples two candidates from `rng`
/// and keeps the better under the Eq. 11 criterion; a request with <= 2
/// candidates draws nothing and a request with more draws exactly
/// Uniform(c) then Uniform(c - 1).
inline Result<std::vector<RoutedRead>> SeedPowerOfTwoRoute(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s, Rng* rng) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  std::vector<RoutedRead> out;
  out.reserve(requests.size());
  std::vector<bool> used(waits.size(), false);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const auto& cand = requests[i].candidates;
    NodeId pick;
    if (cand.size() <= 2) {
      // Two or fewer replicas: a d=2 sample without replacement would
      // examine every candidate anyway, so evaluate them all and pick the
      // best deterministically (no RNG draw). Sampling only kicks in when
      // there are strictly more than two candidates.
      pick = cand.front();
      for (NodeId m : cand) {
        const double w = waits[m] + (used[m] ? 0.0 : phi_s);
        const double wp = waits[pick] + (used[pick] ? 0.0 : phi_s);
        if (w < wp) pick = m;
      }
    } else {
      // Sample two distinct random replicas; keep the better one under
      // the Eq. 11 criterion.
      const std::size_t a = static_cast<std::size_t>(rng->Uniform(cand.size()));
      std::size_t b = static_cast<std::size_t>(rng->Uniform(cand.size() - 1));
      if (b >= a) ++b;
      const NodeId ma = cand[a];
      const NodeId mb = cand[b];
      const double wa = waits[ma] + (used[ma] ? 0.0 : phi_s);
      const double wb = waits[mb] + (used[mb] ? 0.0 : phi_s);
      pick = wa <= wb ? ma : mb;
    }
    used[pick] = true;
    waits[pick] +=
        static_cast<double>(requests[i].tuples) * read_seconds_per_tuple;
    out.push_back(RoutedRead{i, pick});
  }
  return out;
}

/// One seed router over one scan, as the equivalence suites call it.
using SeedRoute = std::function<Result<std::vector<RoutedRead>>(
    const std::vector<FragmentRequest>&, const std::vector<double>&, double,
    double)>;

/// The seed Power-of-two router drawing from `rng`.
inline SeedRoute SeedPowerOfTwo(Rng* rng) {
  return [rng](const std::vector<FragmentRequest>& reqs,
               const std::vector<double>& waits, double rspt, double phi) {
    return SeedPowerOfTwoRoute(reqs, waits, rspt, phi, rng);
  };
}

}  // namespace nashdb

#endif  // NASHDB_TESTS_SEED_ROUTERS_H_
