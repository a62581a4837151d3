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
      span_stamp_(sim->node_count(), 0) {}

bool DataPlane::Shed(const TimedQuery& tq, std::uint64_t epoch) {
  if (!overload_on_) return false;
  const SimTime now = tq.arrival;
  while (!inflight_.empty() && inflight_.top() <= now) inflight_.pop();
  const std::size_t pending_now = inflight_.size();
  // Deterministic drop policy: price-selective below the hard cap,
  // everything past it.
  const bool shed = pending_now >= options_.overload.max_pending_queries &&
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
  NASHDB_DCHECK(pending_.empty() || epoch_ == &epoch);
  epoch_ = &epoch;
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
  if (faults_on_ || overload_on_ ||
      block_.size() >= options_.route_batch_size) {
    Flush();
  }
}

Status DataPlane::Route(ScanBatch* batch, SimTime at) {
  epoch_->index().ResolveBatchInto(batch);
  // With faults on, a block holds one query whose scans all route at
  // `at`; when some node is down then, the resolved spans are filtered
  // to the routable candidates first.
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
  // retries alone, and the query's remaining scans resume as a new block
  // at its arrival.
  while (!block_.empty()) {
    const Status status =
        Route(&block_, pending_[block_.ids[0]].record.arrival);
    if (status.ok()) break;
    NASHDB_CHECK(faults_on_) << status.message();
    const std::size_t failed = routed_;
    if (!RetryScan(failed)) break;
    spare_.Clear();
    AppendScans(block_, failed + 1, block_.size(), &spare_);
    std::swap(block_, spare_);
  }
  for (PendingQuery& pq : pending_) {
    pq.record.completion = pq.completion;
    pq.record.latency_s = pq.completion - pq.record.arrival;
    if (pq.record.aborted) {
      if (collect_) metrics::Count("faults.query_aborts");
    } else if (collect_) {
      if (queries_metric_ == nullptr) {
        metrics::Registry& reg = metrics::Registry::Global();
        queries_metric_ = reg.counter("routing.queries");
        span_metric_ = reg.histogram("routing.span");
        latency_metric_ = reg.histogram("routing.latency_s");
      }
      queries_metric_->Inc();
      span_metric_->Observe(static_cast<double>(pq.record.span));
      latency_metric_->Observe(pq.record.latency_s);
    }
    // Reads enqueued before an abort still occupy their nodes, so the
    // makespan advances either way, and the query held an admission slot
    // until its last enqueued read finished.
    result_->makespan_s = std::max(result_->makespan_s, pq.completion);
    if (overload_on_) inflight_.push(pq.completion);
    result_->AddRecord(pq.record, options_.keep_records);
  }
  pending_.clear();
  block_.Clear();
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
      if (requests_metric_ == nullptr) ResolveReadMetrics();
      requests_metric_->Inc();
      queue_wait_metric_->Observe(sim_->WaitSeconds(rr.node, at));
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

void DataPlane::ResolveReadMetrics() {
  metrics::Registry& reg = metrics::Registry::Global();
  requests_metric_ = reg.counter("routing.requests");
  queue_wait_metric_ = reg.histogram("routing.queue_wait_s");
}

}  // namespace nashdb
