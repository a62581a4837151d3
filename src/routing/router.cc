#include "routing/router.h"

#include <cstdint>
#include <limits>
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
// (a wider scan takes MaxOfMinsWideCore).
constexpr std::size_t kSmallScanRequests = 16;

// Builds the scan's postings into the scratch (after NextScan): a dense
// local id per candidate node in first-appearance order, each candidate
// entry's local id in scan order (cand_lid_), and per local id the
// (request, span position) entries holding it, ascending by request —
// node l's span is post_[post_off_[l] .. post_off_[l + 1]). Every array
// reuses the scratch's capacity across calls (§10 contract).
NASHDB_HOT void BuildPostings(const RequestBatch& requests,
                              RouterScratch* scratch) {
  std::vector<NodeId>& call_nodes = scratch->call_nodes_;
  std::vector<std::uint32_t>& cand_lid = scratch->cand_lid_;
  std::vector<std::uint32_t>& off = scratch->post_off_;
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < requests.count; ++i) {
    total += requests.requests[i].cand_count;
  }
  call_nodes.clear();
  off.clear();
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  cand_lid.resize(total);
  std::size_t e = 0;
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    const NodeId* cand = requests.cands(req);
    for (std::uint32_t k = 0; k < req.cand_count; ++k) {
      const std::uint32_t lid = scratch->LocalId(cand[k]);
      cand_lid[e++] = lid;
      // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
      if (lid == off.size()) off.push_back(0);
      ++off[lid];
    }
  }
  std::uint32_t sum = 0;
  for (std::uint32_t& v : off) {
    const std::uint32_t cnt = v;
    v = sum;
    sum += cnt;
  }
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  off.push_back(total);
  std::vector<RouterScratch::Posting>& post = scratch->post_;
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  post.resize(total);
  std::vector<std::uint32_t>& cursor = scratch->post_cursor_;
  // NASHDB_LINT_ALLOW(hot-alloc): postings lists reuse scratch capacity
  cursor.assign(off.begin(), off.end() - 1);
  e = 0;
  for (std::size_t i = 0; i < requests.count; ++i) {
    const std::uint32_t count = requests.requests[i].cand_count;
    for (std::uint32_t k = 0; k < count; ++k) {
      post[cursor[cand_lid[e++]]++] =
          RouterScratch::Posting{static_cast<std::uint32_t>(i), k};
    }
  }
}

// Shared batch loop (DESIGN.md §11): one scratch bind per block, then the
// router's per-scan core. A core that reads the scratch must open every
// scan with scratch->NextScan() (the stack-local MaxOfMins path skips
// the bump entirely). `core(reqs, out)` must append exactly reqs.count
// reads with scan-relative request indices — the seed router's decisions
// for that scan alone (the batch equivalence suite enforces it).
// Partial-commit contract on failure: scans before the failing one are
// routed and reported; the failing scan's partial output (a core may
// fail mid-append) is rolled back, so it leaves no trace.
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
      // A scan overlapping no fragment routes nothing; the sink still
      // hears about it so commit counting stays one-call-per-scan.
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

Status ValidateRoutable(const RequestBatch& requests) {
  for (std::size_t i = 0; i < requests.count; ++i) {
    const FlatRequest& req = requests.requests[i];
    if (req.cand_count == 0) return NoLiveReplica(req.frag);
  }
  return Status::OK();
}

Status ScanRouter::RouteInto(const RequestBatch& requests,
                             const WaitView& waits,
                             double read_seconds_per_tuple, double phi_s,
                             RouterScratch* scratch,
                             std::vector<RoutedRead>* out) {
  NASHDB_RETURN_IF_ERROR(ValidateRoutable(requests));
  // The scan fields are placeholders: routing reads only the requests.
  ScanBatch block;
  block.AddScan(0, Scan{});
  block.requests.assign(requests.requests, requests.requests + requests.count);
  block.req_off = {0, static_cast<std::uint32_t>(requests.count)};
  block.cand_pool = requests.cand_pool;
  return RouteBatchInto(block, waits, read_seconds_per_tuple, phi_s, scratch,
                        out, nullptr);
}

Result<std::vector<RoutedRead>> ScanRouter::Route(
    const std::vector<FragmentRequest>& requests, std::vector<double> waits,
    double read_seconds_per_tuple, double phi_s) {
  std::vector<FlatRequest> flat;
  std::vector<NodeId> pool;
  for (const FragmentRequest& r : requests) {
    flat.push_back(FlatRequest{r.frag, r.tuples,
                               static_cast<std::uint32_t>(pool.size()),
                               static_cast<std::uint32_t>(r.candidates.size())});
    pool.insert(pool.end(), r.candidates.begin(), r.candidates.end());
  }
  const WaitView view(waits.data(), waits.size(), /*at=*/0.0);
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  NASHDB_RETURN_IF_ERROR(ScanRouter::RouteInto(
      RequestBatch{flat.data(), flat.size(), pool.data()}, view,
      read_seconds_per_tuple, phi_s, &scratch, &out));
  return out;
}

// ------------------------------------------------------------ MaxOfMins

namespace {

// Offers candidate `lid`, at span position `pos` with adjusted wait `w`,
// to a request's running minimum. The seed sweep keeps the first strict
// minimum, so its (min, argmin) is the least wait below +inf and the
// lowest position holding it, or (+inf, none) when no wait is below +inf.
// Offering every candidate once, in any order, reaches the same state:
// a lower wait wins, an equal one only from an earlier position, and a
// request without an argmin has position 0, so an equal +inf offer never
// gives it one.
NASHDB_HOT inline void OfferMin(RouterScratch::RequestMin* r, double w,
                                std::uint32_t lid, std::uint32_t pos) {
  if (w < r->wait || (w == r->wait && pos < r->pos)) {
    r->wait = w;
    r->lid = lid;
    r->pos = pos;
  }
}

// Max-of-mins for scans wider than kSmallScanRequests (DESIGN.md §11):
// the seed router's decisions, with each round touching only the
// requests whose span holds the node just scheduled. Each request's
// (min, argmin, position) lives in the scratch, and the scan's postings
// name the requests holding each node. Scheduling a read moves one
// node's adjusted wait, so a request holding it:
// - whose argmin is another node takes it under OfferMin, O(1) — the
//   other candidates' waits did not move;
// - whose argmin it is keeps it when the wait fell or stayed, and is
//   swept again when it rose (or became NaN), since another candidate
//   may now be the minimum.
NASHDB_HOT Status MaxOfMinsWideCore(const RequestBatch& requests,
                                    double read_seconds_per_tuple,
                                    double phi_s, RouterScratch* scratch,
                                    std::vector<RoutedRead>* out) {
  scratch->NextScan();
  BuildPostings(requests, scratch);
  const std::size_t n = requests.count;
  const std::vector<NodeId>& nodes = scratch->call_nodes_;
  const std::vector<std::uint32_t>& off = scratch->post_off_;
  const RouterScratch::Posting* post = scratch->post_.data();
  const std::uint32_t* cand_lid = scratch->cand_lid_.data();
  std::vector<double>& wait = scratch->local_wait_;
  std::vector<RouterScratch::RequestMin>& mins = scratch->req_min_;
  // NASHDB_LINT_ALLOW(hot-alloc): per-scan state reuses scratch capacity
  wait.resize(nodes.size());
  for (std::size_t l = 0; l < nodes.size(); ++l) {
    wait[l] = scratch->AdjustedWait(nodes[l], phi_s);
  }
  // NASHDB_LINT_ALLOW(hot-alloc): per-scan state reuses scratch capacity
  mins.resize(n);
  std::uint32_t begin = 0;
  for (std::size_t i = 0; i < n; ++i) {
    mins[i] = RouterScratch::RequestMin{
        std::numeric_limits<double>::infinity(), RouterScratch::kNoLocalId,
        0, begin};
    begin += requests.requests[i].cand_count;
  }
  for (std::size_t l = 0; l < nodes.size(); ++l) {
    for (std::uint32_t p = off[l]; p < off[l + 1]; ++p) {
      OfferMin(&mins[post[p].req], wait[l], static_cast<std::uint32_t>(l),
               post[p].pos);
    }
  }
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(n, 0);
  for (std::size_t round = 0; round < n; ++round) {
    double best_min = -1.0;
    std::size_t best_req = n;
    for (std::size_t i = 0; i < n; ++i) {
      if (scratch->scheduled[i]) continue;
      if (mins[i].wait > best_min) {
        best_min = mins[i].wait;
        best_req = i;
      }
    }
    const std::uint32_t lb = mins[best_req].lid;
    if (lb == RouterScratch::kNoLocalId) {
      // No candidate waits below +inf, as in an empty span, whose
      // infinite minimum wins round one — so that failure fires before
      // any read of the scan was appended.
      return NoLiveReplica(requests.requests[best_req].frag);
    }
    const NodeId bn = nodes[lb];
    scratch->scheduled[best_req] = 1;
    // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
    out->push_back(RoutedRead{best_req, bn});
    if (round + 1 == n) break;
    scratch->MarkUsed(bn);
    scratch->AddWait(bn,
                     static_cast<double>(requests.requests[best_req].tuples) *
                         read_seconds_per_tuple);
    const double w = scratch->AdjustedWait(bn, phi_s);
    wait[lb] = w;
    for (std::uint32_t p = off[lb]; p < off[lb + 1]; ++p) {
      const std::uint32_t i = post[p].req;
      if (scratch->scheduled[i]) continue;
      RouterScratch::RequestMin& r = mins[i];
      if (r.lid != lb) {
        OfferMin(&r, w, lb, post[p].pos);
      } else if (w < r.wait) {
        r.wait = w;
      } else if (!(w == r.wait)) {
        const std::uint32_t* lids = cand_lid + r.lid_begin;
        r.wait = std::numeric_limits<double>::infinity();
        r.lid = RouterScratch::kNoLocalId;
        r.pos = 0;
        for (std::uint32_t k = 0; k < requests.requests[i].cand_count; ++k) {
          const double wk = wait[lids[k]];
          if (wk < r.wait) {
            r.wait = wk;
            r.lid = lids[k];
            r.pos = k;
          }
        }
      }
    }
  }
  return Status::OK();
}

// Max-of-mins core: the seed router's decisions (tests/seed_routers.h) —
// node for node, tie for tie, float op for float op — cheaper (DESIGN.md
// §11):
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
// - Wider scans take MaxOfMinsWideCore, which keeps the same per-request
//   minima in the scratch and finds the requests to update through the
//   scan's postings instead of scanning every span.
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

  return MaxOfMinsWideCore(requests, read_seconds_per_tuple, phi_s, scratch,
                           out);
}

}  // namespace

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

namespace {

NASHDB_HOT void GreedyScCore(const RequestBatch& requests,
                             RouterScratch* scratch,
                             std::vector<RoutedRead>* out) {
  // NASHDB_LINT_ALLOW(hot-alloc): scratch flags reuse capacity across scans
  scratch->scheduled.assign(requests.count, 0);

  // The node→requests postings lists: each round below computes a node's
  // remaining cover by walking its postings — O(total candidate entries)
  // per round instead of the seed router's O(requests² · |cand|)
  // std::find sweeps.
  BuildPostings(requests, scratch);
  const std::vector<std::uint32_t>& off = scratch->post_off_;
  const std::vector<RouterScratch::Posting>& post = scratch->post_;
  const std::size_t local_count = scratch->call_nodes_.size();
  if (scratch->round_stamp_.size() < local_count) {
    // NASHDB_LINT_ALLOW(hot-alloc): grows once to the largest call seen
    scratch->round_stamp_.resize(local_count, 0);
  }

  std::size_t remaining = requests.count;
  while (remaining > 0) {
    // One round = the seed router's `considered` sweep: nodes are
    // evaluated in first-appearance order over the *unscheduled* requests
    // (the round stamp replaces the std::set dedup), with the identical
    // better-cover-wins comparison.
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
          const std::uint32_t j = post[p].req;
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
      const std::uint32_t j = post[p].req;
      if (scratch->scheduled[j]) continue;
      scratch->scheduled[j] = 1;
      --remaining;
      // NASHDB_LINT_ALLOW(hot-alloc): append into caller-reserved capacity
      out->push_back(RoutedRead{j, best_node});
    }
  }
}

}  // namespace

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

namespace {

// One scan's two-choice pass. Consumes RNG draws exactly as the seed
// router does (<= 2 candidates: none; > 2: two), per batch element.
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
