#include "routing/router.h"

#include <algorithm>
#include <limits>
#include <set>

#include <string>

#include "common/logging.h"
#include "routing/scan_batch.h"

namespace nashdb {

namespace {

// The shared no-live-replica failure, so every validation site — the
// standalone passes and the fused check inside the MaxOfMins batch core —
// produces the identical status.
Status NoLiveReplica(FlatFragmentId frag) {
  return Status::FailedPrecondition("fragment " + std::to_string(frag) +
                                    " has no live replica-holding node");
}

// Largest scan the MaxOfMins batch core handles with stack-local state
// (a wider scan falls back to the scratch-based rounds below).
constexpr std::size_t kSmallScanRequests = 16;

// Shared batch loop (DESIGN.md §11): one scratch bind per block, then the
// router's per-scan core. A core that reads the scratch must open every
// scan with scratch->NextScan() (the stack-local MaxOfMins path skips
// the bump entirely). `core(reqs, out)` must append exactly reqs.count
// reads with scan-relative request indices — the same decisions
// RouteInto makes, so batch results are identical by construction (the
// batch equivalence suite enforces it). Partial-commit contract on
// failure: scans before the failing one are routed and reported; the
// failing scan's partial output (a core may fail mid-append) is rolled
// back, so it leaves no trace.
template <typename Core>
NASHDB_HOT Status RouteBatchImpl(const ScanBatch& batch, const WaitView& waits,
                                 RouterScratch* scratch,
                                 std::vector<RoutedRead>* out, BatchSink* sink,
                                 Core&& core) {
  out->clear();
  // One read per request on success; `out` keeps its capacity across
  // blocks, so the steady state re-reserves into existing storage.
  // NASHDB_LINT_ALLOW(hot-alloc): reserve into caller-reused capacity
  out->reserve(batch.requests.size());
  scratch->BeginBatch(waits);
  for (std::size_t s = 0; s < batch.size(); ++s) {
    const RequestBatch reqs = batch.ScanRequests(s);
    if (reqs.count == 0) {
      // A scan overlapping no fragment routes nothing (the per-scan driver
      // path skips it the same way); the sink still hears about it so
      // commit counting stays one-call-per-scan.
      if (sink != nullptr) sink->OnScanRouted(s, nullptr, 0);
      continue;
    }
    const std::size_t base = out->size();
    const Status st = core(reqs, out);
    if (!st.ok()) {
      // NASHDB_LINT_ALLOW(hot-alloc): shrink-only rollback, no growth
      out->resize(base);
      return st;
    }
    if (sink != nullptr) {
      sink->OnScanRouted(s, out->data() + base, out->size() - base);
    }
  }
  return Status::OK();
}

}  // namespace

std::size_t SpanOf(const std::vector<RoutedRead>& reads) {
  std::set<NodeId> nodes;
  for (const RoutedRead& r : reads) nodes.insert(r.node);
  return nodes.size();
}

Status ValidateRoutable(const std::vector<FragmentRequest>& requests) {
  for (const FragmentRequest& req : requests) {
    if (req.candidates.empty()) {
      return Status::FailedPrecondition(
          "fragment " + std::to_string(req.frag) +
          " has no live replica-holding node");
    }
  }
  return Status::OK();
}

Status ValidateRoutable(const RequestBatch& requests) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    if (req.cand_count == 0) {
      return Status::FailedPrecondition(
          "fragment " + std::to_string(req.frag) +
          " has no live replica-holding node");
    }
  }
  return Status::OK();
}

// ------------------------------------------------------------ MaxOfMins

Result<std::vector<RoutedRead>> MaxOfMinsRouter::Route(
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

namespace {

// One scan's Max-of-mins rounds, appending to *out (scan-relative request
// indices). Shared verbatim by RouteInto and RouteBatchInto.
NASHDB_HOT void MaxOfMinsCore(const RequestBatch& requests,
                              double read_seconds_per_tuple, double phi_s,
                              RouterScratch* scratch,
                              std::vector<RoutedRead>* out) {
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(requests.count, 0);

  for (std::size_t round = 0; round < requests.count; ++round) {
    double best_min = -1.0;
    std::size_t best_req = requests.count;
    NodeId best_node = kInvalidNode;
    for (std::size_t i = 0; i < requests.count; ++i) {
      if (scratch->scheduled[i]) continue;
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      double min_wait = std::numeric_limits<double>::infinity();
      NodeId min_node = kInvalidNode;
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const NodeId m = cand[k];
        const double w =
            scratch->Wait(m) + (scratch->Used(m) ? 0.0 : phi_s);
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
    NASHDB_DCHECK(best_req < requests.count);
    scratch->scheduled[best_req] = 1;
    scratch->MarkUsed(best_node);
    scratch->AddWait(best_node,
                     static_cast<double>(requests.requests[best_req].tuples) *
                         read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{best_req, best_node});
  }
}

// Batched Max-of-mins core: the same decisions as MaxOfMinsCore — node
// for node, tie for tie, float op for float op — cheaper (DESIGN.md §11):
//
// - Scans of up to kSmallScanRequests requests keep every piece of
//   mutable state on the stack instead of in the epoch-stamped scratch.
//   The only nodes whose adjusted wait differs from `view + phi` are the
//   ones this scan has already scheduled — at most one new node per
//   round — so a tiny array of (node, advanced wait) searched linearly
//   replaces the per-candidate Touch. An advanced entry carries the same
//   lazy-init + `+=` sum the scratch would hold, and reading it directly
//   matches the generic `wait + 0.0` of a used node bitwise for the
//   non-negative waits the sim produces. A request's (min, argmin) can
//   only change when the node just scheduled sits in its candidate span,
//   so each round recomputes exactly those requests and reuses the
//   cached minima — bit for bit what a full recompute gives — for the
//   rest.
// - A candidate sweep stops at its lower bound. An unused node's
//   adjusted wait is `At(m) + phi` with At(m) >= 0, and IEEE addition
//   rounds monotonically, so it is never below `0 + phi == phi`; a used
//   node's is its advanced wait. No candidate can beat
//   `bound = min(phi, every advanced wait)`, and the sweep keeps the
//   first strict minimum, so once the minimum equals the bound the sweep
//   has its (min, argmin). The check follows the update rather than
//   sitting inside it, which keeps the update free of a data-dependent
//   exit (that cost up to ~2x on short sweeps that never reach the
//   bound). It stays exact for any phi: a NaN phi makes the bound NaN,
//   so the sweep never stops early, and with an infinite phi and no used
//   node it stops at once at (+inf, no node) — what the full sweep
//   returns, since no candidate is below +inf.
// - The last round skips the bookkeeping only later rounds read.
// - Validation is fused into the scheduling rounds instead of a separate
//   pass: an empty candidate span leaves that request's minimum at +inf,
//   which wins the max-of-mins in round one before anything has been
//   scheduled, so the failure surfaces with zero reads appended and the
//   partial-commit contract intact.
// - Wider scans take the scratch rounds, with candidate evaluation
//   touching the epoch-stamped node state once per candidate
//   (AdjustedWait) instead of twice (Wait + Used).
//
// RouteInto keeps the plain MaxOfMinsCore: the per-scan path is the
// reference oracle the equivalence suites compare against, exactly as
// the seed Route() is the oracle for RouteInto.
NASHDB_HOT Status MaxOfMinsBatchCore(const RequestBatch& requests,
                                     const WaitView& waits,
                                     double read_seconds_per_tuple,
                                     double phi_s, RouterScratch* scratch,
                                     std::vector<RoutedRead>* out) {
  if (requests.count <= kSmallScanRequests) {
    const std::size_t n = requests.count;
    double req_min[kSmallScanRequests];
    NodeId req_node[kSmallScanRequests];
    NodeId adv_node[kSmallScanRequests];
    double adv_wait[kSmallScanRequests];
    std::size_t adv_n = 0;
    double bound = phi_s;
    const auto eval = [&](const FlatRequest& req, double* min_wait,
                          NodeId* min_node) {
      double mw = std::numeric_limits<double>::infinity();
      NodeId mn = kInvalidNode;
      const NodeId* cand = requests.cands(req);
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const NodeId m = cand[k];
        std::size_t j = 0;
        while (j < adv_n && adv_node[j] != m) ++j;
        const double w = j < adv_n ? adv_wait[j] : waits.At(m) + phi_s;
        if (w < mw) {
          mw = w;
          mn = m;
        }
        if (mw <= bound) break;
      }
      *min_wait = mw;
      *min_node = mn;
    };
    for (std::size_t i = 0; i < n; ++i) {
      eval(requests.requests[i], &req_min[i], &req_node[i]);
    }
    std::uint32_t pending = (std::uint32_t{1} << n) - 1;
    for (std::size_t round = 0; round < n; ++round) {
      double best_min = -1.0;
      std::size_t best_req = n;
      for (std::size_t i = 0; i < n; ++i) {
        if (!(pending >> i & 1u)) continue;
        if (req_min[i] > best_min) {
          best_min = req_min[i];
          best_req = i;
        }
      }
      const NodeId bn = req_node[best_req];
      if (bn == kInvalidNode) {
        // An empty candidate span's infinite minimum wins round one, so
        // this fires before any read of the scan was appended.
        return NoLiveReplica(requests.requests[best_req].frag);
      }
      // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
      out->push_back(RoutedRead{best_req, bn});
      pending &= ~(std::uint32_t{1} << best_req);
      if (pending == 0) break;
      const double delta =
          static_cast<double>(requests.requests[best_req].tuples) *
          read_seconds_per_tuple;
      std::size_t j = 0;
      while (j < adv_n && adv_node[j] != bn) ++j;
      if (j == adv_n) {
        adv_node[j] = bn;
        adv_wait[j] = waits.At(bn) + delta;
        ++adv_n;
      } else {
        adv_wait[j] += delta;
      }
      bound = phi_s;
      for (std::size_t a = 0; a < adv_n; ++a) {
        if (adv_wait[a] < bound) bound = adv_wait[a];
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (!(pending >> i & 1u)) continue;
        const FlatRequest& req = requests.requests[i];
        const NodeId* cand = requests.cands(req);
        for (std::uint32_t k = 0; k < req.cand_count; ++k) {
          if (cand[k] == bn) {
            eval(req, &req_min[i], &req_node[i]);
            break;
          }
        }
      }
    }
    return Status::OK();
  }

  scratch->NextScan();
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(requests.count, 0);
  for (std::size_t round = 0; round < requests.count; ++round) {
    double best_min = -1.0;
    std::size_t best_req = requests.count;
    NodeId best_node = kInvalidNode;
    for (std::size_t i = 0; i < requests.count; ++i) {
      if (scratch->scheduled[i]) continue;
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      double min_wait = std::numeric_limits<double>::infinity();
      NodeId min_node = kInvalidNode;
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const NodeId m = cand[k];
        const double w = scratch->AdjustedWait(m, phi_s);
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
    if (best_node == kInvalidNode) {
      // Only an empty candidate span produces an infinite minimum, and an
      // infinite minimum wins round one — so this fires before any read
      // of the scan was appended.
      return NoLiveReplica(requests.requests[best_req].frag);
    }
    scratch->scheduled[best_req] = 1;
    scratch->MarkUsed(best_node);
    scratch->AddWait(best_node,
                     static_cast<double>(requests.requests[best_req].tuples) *
                         read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{best_req, best_node});
  }
  return Status::OK();
}

}  // namespace

NASHDB_HOT Status MaxOfMinsRouter::RouteInto(const RequestBatch& requests,
                                             const WaitView& waits,
                                             double read_seconds_per_tuple,
                                             double phi_s,
                                             RouterScratch* scratch,
                                             std::vector<RoutedRead>* out) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  out->clear();
  scratch->BeginScan(waits);
  MaxOfMinsCore(requests, read_seconds_per_tuple, phi_s, scratch, out);
  return Status::OK();
}

NASHDB_HOT Status MaxOfMinsRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  return RouteBatchImpl(
      batch, waits, scratch, out, sink,
      [&](const RequestBatch& reqs, std::vector<RoutedRead>* o) {
        return MaxOfMinsBatchCore(reqs, waits, read_seconds_per_tuple, phi_s,
                                  scratch, o);
      });
}

// -------------------------------------------------------- ShortestQueue

Result<std::vector<RoutedRead>> ShortestQueueRouter::Route(
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

namespace {

NASHDB_HOT void ShortestQueueCore(const RequestBatch& requests,
                                  double read_seconds_per_tuple,
                                  RouterScratch* scratch,
                                  std::vector<RoutedRead>* out) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    NodeId best = cand[0];
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      if (scratch->Wait(cand[k]) < scratch->Wait(best)) best = cand[k];
    }
    scratch->AddWait(best, static_cast<double>(req.tuples) *
                               read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{i, best});
  }
}

}  // namespace

NASHDB_HOT Status ShortestQueueRouter::RouteInto(
    const RequestBatch& requests, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out) {
  (void)phi_s;
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  out->clear();
  scratch->BeginScan(waits);
  ShortestQueueCore(requests, read_seconds_per_tuple, scratch, out);
  return Status::OK();
}

NASHDB_HOT Status ShortestQueueRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  (void)phi_s;
  return RouteBatchImpl(
      batch, waits, scratch, out, sink,
      [&](const RequestBatch& reqs, std::vector<RoutedRead>* o) {
        scratch->NextScan();
        NASHDB_RETURN_IF_ERROR(ValidateRoutable(reqs));
        ShortestQueueCore(reqs, read_seconds_per_tuple, scratch, o);
        return Status::OK();
      });
}

// ------------------------------------------------------------ Greedy SC

Result<std::vector<RoutedRead>> GreedyScRouter::Route(
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

namespace {

NASHDB_HOT void GreedyScCore(const RequestBatch& requests,
                             RouterScratch* scratch,
                             std::vector<RoutedRead>* out) {
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(requests.count, 0);

  // Build the node→requests postings lists for this call: one dense local
  // id per candidate node (first-appearance order), then the request
  // indices holding each node, ascending. Each round below computes a
  // node's remaining cover by walking its postings — O(total candidate
  // entries) per round instead of the reference implementation's
  // O(requests² · |cand|) std::find sweeps.
  std::vector<NodeId>& call_nodes = scratch->call_nodes_;
  std::vector<std::uint32_t>& off = scratch->post_off_;
  std::vector<std::uint32_t>& post = scratch->post_req_;
  call_nodes.clear();
  off.clear();
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      const std::uint32_t lid = scratch->LocalId(cand[k]);
      // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
      if (lid == off.size()) off.push_back(0);
      ++off[lid];
    }
  }
  const std::size_t local_count = call_nodes.size();
  std::uint32_t total = 0;
  for (std::uint32_t& v : off) {
    const std::uint32_t cnt = v;
    v = total;
    total += cnt;
  }
  // Sentinel: node l's span is [off[l], off[l + 1]). All three arrays
  // reuse the scratch's capacity across calls (§10 contract).
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  off.push_back(total);
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  post.resize(total);
  {
    std::vector<std::uint32_t>& cursor = scratch->post_cursor_;
    // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
    cursor.assign(off.begin(), off.end() - 1);
    for (std::size_t i = 0; i < requests.count; ++i) {
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const std::uint32_t lid = scratch->LocalId(cand[k]);
        post[cursor[lid]++] = static_cast<std::uint32_t>(i);
      }
    }
  }
  if (scratch->round_stamp_.size() < local_count) {
    // NASHDB_LINT_ALLOW(hot-alloc): grows once to the largest call seen
    scratch->round_stamp_.resize(local_count, 0);
  }

  std::size_t remaining = requests.count;
  while (remaining > 0) {
    // One round = the reference implementation's `considered` sweep: nodes
    // are evaluated in first-appearance order over the *unscheduled*
    // requests (the round stamp replaces the std::set dedup), with the
    // identical better-cover-wins comparison.
    ++scratch->round_epoch_;
    NodeId best_node = kInvalidNode;
    std::uint32_t best_lid = 0;
    TupleCount best_cover = 0;
    for (std::size_t i = 0; i < requests.count; ++i) {
      if (scratch->scheduled[i]) continue;
      const FlatRequest& req = requests.requests[i];
      const NodeId* cand = requests.cands(req);
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const std::uint32_t lid = scratch->LocalId(cand[k]);
        if (scratch->round_stamp_[lid] == scratch->round_epoch_) continue;
        scratch->round_stamp_[lid] = scratch->round_epoch_;
        TupleCount cover = 0;
        for (std::uint32_t p = off[lid]; p < off[lid + 1]; ++p) {
          const std::uint32_t j = post[p];
          if (!scratch->scheduled[j]) cover += requests.requests[j].tuples;
        }
        if (cover > best_cover ||
            (cover == best_cover && best_node == kInvalidNode)) {
          best_cover = cover;
          best_node = cand[k];
          best_lid = lid;
        }
      }
    }
    NASHDB_DCHECK(best_node != kInvalidNode);
    for (std::uint32_t p = off[best_lid]; p < off[best_lid + 1]; ++p) {
      const std::uint32_t j = post[p];
      if (scratch->scheduled[j]) continue;
      scratch->scheduled[j] = 1;
      --remaining;
      // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
      out->push_back(RoutedRead{j, best_node});
    }
  }
}

}  // namespace

NASHDB_HOT Status GreedyScRouter::RouteInto(const RequestBatch& requests,
                                            const WaitView& waits,
                                            double read_seconds_per_tuple,
                                            double phi_s,
                                            RouterScratch* scratch,
                                            std::vector<RoutedRead>* out) {
  (void)read_seconds_per_tuple;
  (void)phi_s;
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  out->clear();
  scratch->BeginScan(waits);
  GreedyScCore(requests, scratch, out);
  return Status::OK();
}

NASHDB_HOT Status GreedyScRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  (void)read_seconds_per_tuple;
  (void)phi_s;
  return RouteBatchImpl(batch, waits, scratch, out, sink,
                        [&](const RequestBatch& reqs,
                            std::vector<RoutedRead>* o) {
                          scratch->NextScan();
                          NASHDB_RETURN_IF_ERROR(ValidateRoutable(reqs));
                          GreedyScCore(reqs, scratch, o);
                          return Status::OK();
                        });
}

// ----------------------------------------------------------- PowerOfTwo

PowerOfTwoRouter::PowerOfTwoRouter(std::uint64_t seed) : rng_(seed) {}

Result<std::vector<RoutedRead>> PowerOfTwoRouter::Route(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
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
      const std::size_t a = static_cast<std::size_t>(rng_.Uniform(cand.size()));
      std::size_t b = static_cast<std::size_t>(rng_.Uniform(cand.size() - 1));
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

namespace {

// One scan's two-choice pass. Consumes RNG draws exactly as the reference
// Route does (<= 2 candidates: none; > 2: two), per batch element.
NASHDB_HOT void PowerOfTwoCore(const RequestBatch& requests,
                               double read_seconds_per_tuple, double phi_s,
                               RouterScratch* scratch, Rng* rng,
                               std::vector<RoutedRead>* out) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    NodeId pick;
    if (req.cand_count <= 2) {
      pick = cand[0];
      for (std::uint32_t k = 0; k < req.cand_count; ++k) {
        const NodeId m = cand[k];
        const double w =
            scratch->Wait(m) + (scratch->Used(m) ? 0.0 : phi_s);
        const double wp =
            scratch->Wait(pick) + (scratch->Used(pick) ? 0.0 : phi_s);
        if (w < wp) pick = m;
      }
    } else {
      const std::size_t a =
          static_cast<std::size_t>(rng->Uniform(req.cand_count));
      std::size_t b =
          static_cast<std::size_t>(rng->Uniform(req.cand_count - 1));
      if (b >= a) ++b;
      const NodeId ma = cand[a];
      const NodeId mb = cand[b];
      const double wa =
          scratch->Wait(ma) + (scratch->Used(ma) ? 0.0 : phi_s);
      const double wb =
          scratch->Wait(mb) + (scratch->Used(mb) ? 0.0 : phi_s);
      pick = wa <= wb ? ma : mb;
    }
    scratch->MarkUsed(pick);
    scratch->AddWait(pick, static_cast<double>(req.tuples) *
                               read_seconds_per_tuple);
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{i, pick});
  }
}

}  // namespace

NASHDB_HOT Status PowerOfTwoRouter::RouteInto(
    const RequestBatch& requests, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  out->clear();
  scratch->BeginScan(waits);
  PowerOfTwoCore(requests, read_seconds_per_tuple, phi_s, scratch, &rng_, out);
  return Status::OK();
}

NASHDB_HOT Status PowerOfTwoRouter::RouteBatchInto(
    const ScanBatch& batch, const WaitView& waits,
    double read_seconds_per_tuple, double phi_s, RouterScratch* scratch,
    std::vector<RoutedRead>* out, BatchSink* sink) {
  return RouteBatchImpl(
      batch, waits, scratch, out, sink,
      [&](const RequestBatch& reqs, std::vector<RoutedRead>* o) {
        scratch->NextScan();
        NASHDB_RETURN_IF_ERROR(ValidateRoutable(reqs));
        PowerOfTwoCore(reqs, read_seconds_per_tuple, phi_s, scratch, &rng_, o);
        return Status::OK();
      });
}

}  // namespace nashdb
