#include "common/metrics.h"

#include <algorithm>
#include <cstdio>
#include <limits>

#include "common/logging.h"

namespace nashdb {
namespace metrics {

namespace {

/// Relaxed CAS add for atomic<double> (fetch_add on floating atomics is
/// C++20 but not yet universal across the toolchains we target).
void AtomicAdd(std::atomic<double>* a, double x) {
  double cur = a->load(std::memory_order_relaxed);
  while (!a->compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* a, double x) {
  double cur = a->load(std::memory_order_relaxed);
  while (x < cur &&
         !a->compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* a, double x) {
  double cur = a->load(std::memory_order_relaxed);
  while (x > cur &&
         !a->compare_exchange_weak(cur, x, std::memory_order_relaxed)) {
  }
}

/// Decade buckets covering microseconds-to-minutes timers, tuple counts,
/// and spans alike; callers with a natural scale pass explicit bounds.
const std::vector<double>& DefaultBounds() {
  static const std::vector<double> kBounds = {1e-3, 1e-2, 1e-1, 1,   10,
                                              100,  1e3,  1e4,  1e5, 1e6};
  return kBounds;
}

// ---- JSON writing -----------------------------------------------------

void AppendEscaped(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendDouble(std::string* out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  out->append(buf);
}

void AppendU64(std::string* out, std::uint64_t v) {
  out->append(std::to_string(v));
}

void AppendKey(std::string* out, std::string_view key) {
  AppendEscaped(out, key);
  out->append(": ");
}

void AppendTrace(std::string* out, const ReconfigTrace& t) {
  out->append("{");
  AppendKey(out, "round");
  AppendU64(out, t.round);
  out->append(", ");
  AppendKey(out, "sim_time_s");
  AppendDouble(out, t.sim_time_s);
  out->append(", ");
  AppendKey(out, "total_ms");
  AppendDouble(out, t.total_ms);
  out->append(", ");
  AppendKey(out, "applied");
  out->append(t.applied ? "true" : "false");

  out->append(", ");
  AppendKey(out, "estimation");
  out->append("{");
  AppendKey(out, "window_scans");
  AppendU64(out, t.window_scans);
  out->append(", ");
  AppendKey(out, "active_tables");
  AppendU64(out, t.active_tables);
  out->append(", ");
  AppendKey(out, "tree_nodes");
  AppendU64(out, t.tree_nodes);
  out->append(", ");
  AppendKey(out, "estimator_bytes");
  AppendU64(out, t.estimator_bytes);
  out->append("}");

  out->append(", ");
  AppendKey(out, "fragmentation");
  out->append("{");
  AppendKey(out, "tables");
  AppendU64(out, t.tables_fragmented);
  out->append(", ");
  AppendKey(out, "fragments");
  AppendU64(out, t.fragments);
  out->append(", ");
  AppendKey(out, "scheme_error");
  AppendDouble(out, t.scheme_error);
  out->append(", ");
  AppendKey(out, "wall_ms");
  AppendDouble(out, t.frag_ms);
  out->append(", ");
  AppendKey(out, "threads");
  AppendU64(out, t.threads);
  out->append(", ");
  AppendKey(out, "thread_utilization");
  AppendDouble(out, t.thread_utilization);
  out->append("}");

  out->append(", ");
  AppendKey(out, "replication");
  out->append("{");
  AppendKey(out, "ideal_replicas");
  AppendU64(out, t.ideal_replicas);
  out->append(", ");
  AppendKey(out, "placed_replicas");
  AppendU64(out, t.placed_replicas);
  out->append(", ");
  AppendKey(out, "nodes");
  AppendU64(out, t.nodes);
  out->append(", ");
  AppendKey(out, "disk_fill");
  AppendDouble(out, t.disk_fill);
  out->append(", ");
  AppendKey(out, "wall_ms");
  AppendDouble(out, t.replication_ms);
  out->append(", ");
  AppendKey(out, "reused");
  out->append(t.build_reused ? "true" : "false");
  out->append(", ");
  AppendKey(out, "nash_equilibrium");
  out->append(t.nash_equilibrium ? "true" : "false");
  out->append(", ");
  AppendKey(out, "nash_violation");
  AppendEscaped(out, t.nash_violation);
  out->append("}");

  out->append(", ");
  AppendKey(out, "transition");
  out->append("{");
  AppendKey(out, "planned_transfer_tuples");
  AppendU64(out, t.planned_transfer_tuples);
  out->append(", ");
  AppendKey(out, "nodes_added");
  AppendU64(out, t.nodes_added);
  out->append(", ");
  AppendKey(out, "nodes_removed");
  AppendU64(out, t.nodes_removed);
  out->append(", ");
  AppendKey(out, "plan_ms");
  AppendDouble(out, t.plan_ms);
  out->append(", ");
  AppendKey(out, "reused");
  out->append(t.plan_reused ? "true" : "false");
  out->append(", ");
  AppendKey(out, "plan_used_sparse");
  out->append(t.plan_used_sparse ? "true" : "false");
  out->append(", ");
  AppendKey(out, "plan_graph_edges");
  AppendU64(out, t.plan_graph_edges);
  out->append(", ");
  AppendKey(out, "plan_solver_iterations");
  AppendU64(out, t.plan_solver_iterations);
  out->append("}");

  out->append("}");
}

}  // namespace

// ---- Histogram --------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty()) bounds_ = DefaultBounds();
  NASHDB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must ascend";
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i] = 0;
}

void Histogram::Observe(double x) {
  buckets_[BucketIndex(bounds_, x)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, x);
  AtomicMin(&min_, x);
  AtomicMax(&max_, x);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::mean() const {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return out;
}

void Histogram::Merge(const LocalHistogram& local) {
  NASHDB_CHECK(local.bounds_ == bounds_) << "merged histogram bounds differ";
  for (std::size_t i = 0; i < local.buckets_.size(); ++i) {
    buckets_[i].fetch_add(local.buckets_[i], std::memory_order_relaxed);
  }
  count_.fetch_add(local.count_, std::memory_order_relaxed);
  AtomicAdd(&sum_, local.sum_);
  AtomicMin(&min_, local.min_);
  AtomicMax(&max_, local.max_);
}

// ---- LocalHistogram ---------------------------------------------------

LocalHistogram::LocalHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty()) bounds_ = DefaultBounds();
  NASHDB_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bounds must ascend";
  buckets_.assign(bounds_.size() + 1, 0);
}

// ---- Registry ---------------------------------------------------------

Registry& Registry::Global() {
  static Registry* r = new Registry();  // leaked: outlives static dtors
  return *r;
}

namespace {
Counter* NoopCounter() {
  static Counter c;
  return &c;
}
Gauge* NoopGauge() {
  static Gauge g;
  return &g;
}
Histogram* NoopHistogram() {
  static Histogram* h = new Histogram({});
  return h;
}
}  // namespace

Counter* Registry::counter(std::string_view name) {
  if (!enabled()) return NoopCounter();
  {
    ReaderMutexLock lock(mu_);
    auto it = counters_.find(name);
    if (it != counters_.end()) return it->second.get();
  }
  WriterMutexLock lock(mu_);
  auto& slot = counters_[std::string(name)];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* Registry::gauge(std::string_view name) {
  if (!enabled()) return NoopGauge();
  {
    ReaderMutexLock lock(mu_);
    auto it = gauges_.find(name);
    if (it != gauges_.end()) return it->second.get();
  }
  WriterMutexLock lock(mu_);
  auto& slot = gauges_[std::string(name)];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* Registry::histogram(std::string_view name,
                               std::span<const double> bounds) {
  if (!enabled()) return NoopHistogram();
  {
    ReaderMutexLock lock(mu_);
    auto it = histograms_.find(name);
    if (it != histograms_.end()) return it->second.get();
  }
  WriterMutexLock lock(mu_);
  auto& slot = histograms_[std::string(name)];
  if (!slot) {
    slot = std::make_unique<Histogram>(
        std::vector<double>(bounds.begin(), bounds.end()));
  }
  return slot.get();
}

std::uint64_t Registry::CounterValue(std::string_view name) const {
  ReaderMutexLock lock(mu_);
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second->value();
}

void Registry::RecordReconfig(ReconfigTrace trace) {
  if (!enabled()) return;
  MutexLock lock(trace_mu_);
  traces_.push_back(std::move(trace));
}

bool Registry::AnnotateLastReconfig(
    const std::function<void(ReconfigTrace&)>& fn) {
  if (!enabled()) return true;  // nothing to annotate, nothing missing
  MutexLock lock(trace_mu_);
  if (traces_.empty()) return false;
  fn(traces_.back());
  return true;
}

std::size_t Registry::reconfig_count() const {
  MutexLock lock(trace_mu_);
  return traces_.size();
}

std::size_t Registry::metric_count() const {
  ReaderMutexLock lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void Registry::Reset() {
  {
    WriterMutexLock lock(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
    generation_.fetch_add(1, std::memory_order_release);
  }
  MutexLock tlock(trace_mu_);
  traces_.clear();
}

std::string Registry::SnapshotJson() const {
  std::string out;
  out.reserve(4096);
  out.append("{\n  \"counters\": {");
  {
    ReaderMutexLock lock(mu_);
    bool first = true;
    for (const auto& [name, c] : counters_) {
      out.append(first ? "\n    " : ",\n    ");
      first = false;
      AppendKey(&out, name);
      AppendU64(&out, c->value());
    }
    out.append(first ? "},\n" : "\n  },\n");

    out.append("  \"gauges\": {");
    first = true;
    for (const auto& [name, g] : gauges_) {
      out.append(first ? "\n    " : ",\n    ");
      first = false;
      AppendKey(&out, name);
      AppendDouble(&out, g->value());
    }
    out.append(first ? "},\n" : "\n  },\n");

    out.append("  \"histograms\": {");
    first = true;
    for (const auto& [name, h] : histograms_) {
      out.append(first ? "\n    " : ",\n    ");
      first = false;
      AppendKey(&out, name);
      out.append("{");
      AppendKey(&out, "count");
      AppendU64(&out, h->count());
      out.append(", ");
      AppendKey(&out, "sum");
      AppendDouble(&out, h->sum());
      out.append(", ");
      AppendKey(&out, "min");
      AppendDouble(&out, h->min());
      out.append(", ");
      AppendKey(&out, "max");
      AppendDouble(&out, h->max());
      out.append(", ");
      AppendKey(&out, "buckets");
      out.append("[");
      const std::vector<std::uint64_t> counts = h->bucket_counts();
      const std::vector<double>& bounds = h->bounds();
      for (std::size_t i = 0; i < counts.size(); ++i) {
        if (i) out.append(", ");
        out.append("{\"le\": ");
        if (i < bounds.size()) {
          AppendDouble(&out, bounds[i]);
        } else {
          out.append("\"inf\"");
        }
        out.append(", \"count\": ");
        AppendU64(&out, counts[i]);
        out.append("}");
      }
      out.append("]}");
    }
    out.append(first ? "},\n" : "\n  },\n");
  }

  out.append("  \"reconfigurations\": [");
  {
    MutexLock lock(trace_mu_);
    for (std::size_t i = 0; i < traces_.size(); ++i) {
      out.append(i == 0 ? "\n    " : ",\n    ");
      AppendTrace(&out, traces_[i]);
    }
    out.append(traces_.empty() ? "]\n" : "\n  ]\n");
  }
  out.append("}\n");
  return out;
}

// ---- free functions ---------------------------------------------------

void Count(std::string_view name, std::uint64_t n) {
  Registry& r = Registry::Global();
  if (!r.enabled()) return;
  r.counter(name)->Inc(n);
}

void SetGauge(std::string_view name, double value) {
  Registry& r = Registry::Global();
  if (!r.enabled()) return;
  r.gauge(name)->Set(value);
}

void Observe(std::string_view name, double value) {
  Registry& r = Registry::Global();
  if (!r.enabled()) return;
  r.histogram(name)->Observe(value);
}

void Merge(std::string_view name, const LocalHistogram& local) {
  Registry& r = Registry::Global();
  if (!r.enabled() || local.count() == 0) return;
  r.histogram(name, local.bounds())->Merge(local);
}

ScopedTimerMs::ScopedTimerMs(const char* histogram_name)
    : name_(histogram_name), armed_(Enabled()) {
  if (armed_) start_ = std::chrono::steady_clock::now();
}

double ScopedTimerMs::ElapsedMs() const {
  if (!armed_) return 0.0;
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start_)
      .count();
}

ScopedTimerMs::~ScopedTimerMs() {
  if (armed_) Observe(name_, ElapsedMs());
}

}  // namespace metrics
}  // namespace nashdb
