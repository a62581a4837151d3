#include "engine/data_plane.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/metrics.h"

namespace nashdb {
namespace {

/// Appends scans [first, last) of `src` to `dst` (ids included).
void AppendScans(const ScanBatch& src, std::size_t first, std::size_t last,
                 ScanBatch* dst) {
  for (std::size_t i = first; i < last; ++i) {
    dst->AddScan(src.ids[i],
                 Scan{src.tables[i], TupleRange{src.starts[i], src.ends[i]},
                      src.prices[i]});
  }
}

}  // namespace

DataPlane::DataPlane(const DriverOptions& options, ClusterSim* sim,
                     ScanRouter* router, const LivenessOverlay& liveness,
                     RunResult* result)
    : options_(options),
      sim_(sim),
      router_(router),
      liveness_(liveness),
      result_(result),
      spt_(1.0 / options.sim.tuples_per_second),
      collect_(options.collect_metrics),
      faults_on_(options.faults.spec.Active()),
      overload_on_(options.overload.Active()),
      hard_cap_(overload_on_
                    ? static_cast<std::size_t>(
                          options.overload.hard_cap_factor *
                          static_cast<double>(
                              options.overload.max_pending_queries))
                    : 0),
      horizon_(kNeverRecovers),
      span_stamp_(sim->node_count(), 0) {}

bool DataPlane::Shed(const TimedQuery& tq, std::uint64_t epoch) {
  if (!overload_on_) return false;
  const SimTime now = tq.arrival;
  const std::size_t budget = options_.overload.max_pending_queries;
  while (!inflight_.empty() && inflight_.top() <= now) inflight_.pop();
  // Each pending query is in flight at `now` unless it completes by then,
  // so below the budget with all of them counted nothing is shed.
  if (inflight_.size() + pending_.size() < budget) return false;
  if (!pending_.empty()) {
    Flush();
    while (!inflight_.empty() && inflight_.top() <= now) inflight_.pop();
  }
  const std::size_t pending_now = inflight_.size();
  // Deterministic drop policy: price-selective below the hard cap,
  // everything past it.
  const bool shed = pending_now >= budget &&
                    (pending_now >= hard_cap_ ||
                     tq.query.price < options_.overload.shed_keep_price);
  if (!shed) return false;
  // Nothing executes, and the economy never observes the query.
  QueryRecord record;
  record.id = tq.query.id;
  record.price = tq.query.price;
  record.arrival = now;
  record.completion = now;
  record.epoch = epoch;
  record.shed = true;
  result_->AddRecord(record, options_.keep_records);
  if (collect_) metrics::Count("overload.shed_queries");
  return true;
}

void DataPlane::Admit(const TimedQuery& tq, const ConfigEpoch& epoch) {
  NASHDB_DCHECK(pending_.empty() ||
                tq.arrival >= pending_.back().record.arrival)
      << "arrivals must not decrease";
  // The block is filtered at its first arrival (Route), so it must not
  // span a recovery or heal.
  if (tq.arrival >= horizon_) Flush();
  if (pending_.empty()) {
    epoch_ = &epoch;
    if (faults_on_) horizon_ = liveness_.NextChangeAfter(tq.arrival);
  }
  NASHDB_DCHECK(epoch_ == &epoch);
  PendingQuery pq;
  pq.record.id = tq.query.id;
  pq.record.price = tq.query.price;
  pq.record.arrival = tq.arrival;
  pq.record.epoch = epoch.epoch();
  pq.seq = ++last_seq_;
  pq.completion = tq.arrival;
  pending_.push_back(std::move(pq));
  const std::size_t slot = pending_.size() - 1;
  for (const Scan& scan : tq.query.scans) block_.AddScan(slot, scan);
  if (block_.size() >= options_.route_batch_size) Flush();
}

Status DataPlane::Route(ScanBatch* batch, SimTime at) {
  epoch_->index().ResolveBatchInto(batch);
  // With faults on, every scan of the block arrives before the routable
  // set changes after `at` (Admit), so when some node is down at `at`
  // the resolved spans are filtered once, to the candidates routable at
  // each scan's own arrival.
  if (faults_on_ && liveness_.AnyDeadAt(at)) {
    liveness_.FilterLive(at, batch, &live_cands_);
  }
  WaitView waits(sim_->BusyUntil().data(), sim_->node_count(), at);
  bound_ = batch;
  view_ = &waits;
  routed_ = 0;
  // A transition may have added nodes since the last block.
  if (span_stamp_.size() < waits.node_count()) {
    span_stamp_.resize(waits.node_count(), 0);
  }
  return router_->RouteBatchInto(*batch, waits, spt_, options_.phi_s,
                                 &router_scratch_, &routed_buf_, this);
}

// Coverage gap: scheduled recoveries are visible to future-time
// liveness, so waiting can succeed without any new event delivery.
bool DataPlane::RetryScan(std::size_t failed) {
  const FaultOptions& faults = options_.faults;
  PendingQuery& pq = pending_[block_.ids[failed]];
  const SimTime now = pq.record.arrival;
  spare_.Clear();
  AppendScans(block_, failed, failed + 1, &spare_);
  SimTime attempt_time = now;
  for (std::size_t attempts = 1;; ++attempts) {
    if (attempts > faults.max_scan_retries) break;
    // Shared per-query pool (when configured): the retry about to be
    // consumed must still fit, so the budget is exhausted exactly at the
    // documented bound (record.retries == budget on abort).
    if (faults.query_retry_budget > 0 &&
        pq.record.retries >= faults.query_retry_budget) {
      break;
    }
    attempt_time += RetryBackoffSeconds(faults, attempts);
    ++pq.record.retries;
    ++result_->scan_retries;
    if (collect_) metrics::Count("faults.scan_retries");
    if (attempt_time - now > faults.query_timeout_s) break;
    if (Route(&spare_, attempt_time).ok()) return true;
  }
  pq.record.aborted = true;
  return false;
}

void DataPlane::Flush() {
  if (pending_.empty()) return;
  // A coverage gap resumes through RouteBatchInto's partial commit: the
  // scans before the failing one stay committed, the failing scan
  // retries alone, and the rest of the block resumes as a new block at
  // its first query's arrival. An abort skips the rest of its query.
  while (!block_.empty()) {
    const Status status =
        Route(&block_, pending_[block_.ids[0]].record.arrival);
    if (status.ok()) break;
    NASHDB_CHECK(faults_on_) << status.message();
    const std::size_t failed = routed_;
    std::size_t resume = failed + 1;
    if (!RetryScan(failed)) {
      while (resume < block_.size() &&
             block_.ids[resume] == block_.ids[failed]) {
        ++resume;
      }
    }
    spare_.Clear();
    AppendScans(block_, resume, block_.size(), &spare_);
    std::swap(block_, spare_);
  }
  // Every later Shed pops the completions at or before its arrival, which
  // is at least the last pending arrival, before it counts the heap; so
  // those need no push.
  const SimTime popped_by = pending_.back().record.arrival;
  for (PendingQuery& pq : pending_) {
    pq.record.completion = pq.completion;
    pq.record.latency_s = pq.completion - pq.record.arrival;
    if (pq.record.aborted) {
      if (collect_) metrics::Count("faults.query_aborts");
    } else if (collect_) {
      ++queries_;
      span_.Observe(static_cast<double>(pq.record.span));
      latency_.Observe(pq.record.latency_s);
    }
    // Reads enqueued before an abort still occupy their nodes, so the
    // makespan advances either way, and the query held an admission slot
    // until its last enqueued read finished.
    result_->makespan_s = std::max(result_->makespan_s, pq.completion);
    if (overload_on_ && pq.completion > popped_by) {
      inflight_.push(pq.completion);
    }
    result_->AddRecord(pq.record, options_.keep_records);
  }
  pending_.clear();
  block_.Clear();
  horizon_ = kNeverRecovers;
}

void DataPlane::MergeMetrics() const {
  if (requests_ > 0) metrics::Count("routing.requests", requests_);
  if (queries_ > 0) metrics::Count("routing.queries", queries_);
  metrics::Merge("routing.queue_wait_s", queue_wait_);
  metrics::Merge("routing.span", span_);
  metrics::Merge("routing.latency_s", latency_);
}

NASHDB_HOT void DataPlane::OnScanRouted(std::size_t scan_index,
                                        const RoutedRead* reads,
                                        std::size_t count) {
  NASHDB_DCHECK(scan_index == 0 ||
                bound_->ids[scan_index - 1] <= bound_->ids[scan_index]);
  PendingQuery& pq = pending_[bound_->ids[scan_index]];
  // Each scan's reads are enqueued at the view's time: the arrival of its
  // query, or a retry's attempt time for a one-scan retry block.
  const SimTime at = view_->at();
  const FlatRequest* reqs =
      bound_->requests.data() + bound_->req_off[scan_index];
  for (std::size_t k = 0; k < count; ++k) {
    const RoutedRead& rr = reads[k];
    const bool first_use = span_stamp_[rr.node] != pq.seq;
    span_stamp_[rr.node] = pq.seq;
    if (first_use) ++pq.record.span;
    const TupleCount tuples = reqs[rr.request_index].tuples;
    if (collect_) {
      ++requests_;
      // The view reads the sim's busy-until array at `at`: this is
      // sim_->WaitSeconds(rr.node, at).
      queue_wait_.Observe(view_->At(rr.node));
    }
    const SimTime done = sim_->EnqueueRead(rr.node, tuples, at, first_use);
    pq.completion = std::max(pq.completion, done);
    pq.record.tuples_read += tuples;
  }
  routed_ = scan_index + 1;
  if (routed_ < bound_->size()) {
    view_->set_at(pending_[bound_->ids[routed_]].record.arrival);
  }
}

}  // namespace nashdb
