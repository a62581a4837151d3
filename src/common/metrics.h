#ifndef NASHDB_COMMON_METRICS_H_
#define NASHDB_COMMON_METRICS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"

namespace nashdb {
namespace metrics {

/// Lightweight runtime observability for the reconfiguration pipeline.
///
/// Design goals, in priority order:
///   1. Near-zero overhead when disabled: every recording entry point is a
///      single relaxed atomic load + branch, no clock reads, no
///      allocation, no lock.
///   2. Thread-safe when enabled: the reconfiguration pipeline is
///      multithreaded (per-table refragmentation, DP-layer blocks), so
///      all metric mutation is lock-free atomics; only name registration
///      takes a (shared) mutex.
///   3. Machine-readable: Registry::SnapshotJson() serializes every
///      metric plus the per-reconfiguration trace records, so a bench or
///      RunWorkload can persist the whole pipeline state next to its
///      results.
///
/// The registry is global and disabled by default. RunWorkload enables it
/// for the duration of a run when DriverOptions::collect_metrics is set
/// and stores the snapshot on RunResult::metrics_json. Metric names are
/// namespaced by pipeline stage: value.* (estimation), frag.*,
/// replication.*, transition.*, routing.*, sim.* — the full list lives in
/// DESIGN.md "Observability".

/// Monotonic event counter.
class Counter {
 public:
  void Inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void Reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

class LocalHistogram;

/// The bucket of `x` among ascending inclusive upper `bounds`: the first
/// bound >= x, so a sample equal to a bound lands in that bound's bucket;
/// bounds.size() is the overflow bucket (NaN lands in bucket 0).
inline std::size_t BucketIndex(const std::vector<double>& bounds, double x) {
  return static_cast<std::size_t>(
      std::lower_bound(bounds.begin(), bounds.end(), x) - bounds.begin());
}

/// Fixed-bucket histogram: `bounds` are ascending inclusive upper bounds;
/// one implicit overflow bucket catches everything above the last bound.
/// Observe() is lock-free (per-bucket atomic counters; sum/min/max via CAS
/// loops), so pool workers may record concurrently.
class Histogram {
 public:
  /// Empty `bounds` means the default geometric decade buckets
  /// (1e-3 .. 1e6).
  explicit Histogram(std::vector<double> bounds);

  void Observe(double x);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0.0 when empty.
  double min() const;
  double max() const;
  double mean() const;
  const std::vector<double>& bounds() const { return bounds_; }
  /// bounds().size() + 1 entries; the last is the overflow bucket.
  std::vector<std::uint64_t> bucket_counts() const;

  /// Adds the samples `local` holds: counts and buckets add, min and max
  /// combine, and `local`'s sum is added to this one. `local`'s bounds
  /// must be this histogram's. Into an empty histogram the result equals
  /// observing `local`'s sequence directly, bit for bit: the sum starts
  /// from 0.0 either way, and a sum begun at +0.0 is never -0.0.
  void Merge(const LocalHistogram& local);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  /// +/-infinity sentinels until the first sample; accessors mask them.
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// A histogram with one writer: Histogram's bounds and bucket search in
/// plain fields, so a hot path owned by one thread records without
/// atomics and hands its samples to the registry once, through
/// metrics::Merge (DESIGN.md §7).
class LocalHistogram {
 public:
  /// Empty `bounds` means Histogram's default buckets.
  explicit LocalHistogram(std::vector<double> bounds = {});

  void Observe(double x) {
    ++buckets_[BucketIndex(bounds_, x)];
    ++count_;
    sum_ += x;
    if (x < min_) min_ = x;
    if (x > max_) max_ = x;
  }

  std::uint64_t count() const { return count_; }
  const std::vector<double>& bounds() const { return bounds_; }

 private:
  friend class Histogram;

  std::vector<double> bounds_;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  /// +/-infinity sentinels until the first sample, as in Histogram.
  double min_;
  double max_;
};

/// Structured record of one reconfiguration round, covering every pipeline
/// stage end to end. NashDbSystem::BuildConfig fills the estimation /
/// fragmentation / replication sections and appends the record; the
/// simulation driver annotates the transition section and round totals.
/// Serialized under "reconfigurations" in the JSON snapshot.
struct ReconfigTrace {
  std::uint64_t round = 0;   ///< 0-based sequence number within the run.
  double sim_time_s = 0.0;   ///< Simulated time of the round (driver).
  double total_ms = 0.0;     ///< Wall time: BuildConfig + plan + apply.
  bool applied = true;       ///< False when adaptive mode skipped it.

  // -- §4 value estimation ------------------------------------------------
  std::size_t window_scans = 0;     ///< Scans in the window at build time.
  std::size_t active_tables = 0;    ///< Tables with >= 1 windowed scan.
  std::size_t tree_nodes = 0;       ///< Distinct scan endpoints, all tables.
  std::size_t estimator_bytes = 0;  ///< Endpoint tables + window buffer.

  // -- §5 fragmentation ---------------------------------------------------
  std::size_t tables_fragmented = 0;
  std::size_t fragments = 0;        ///< Emitted fragments (post disk carve).
  double scheme_error = 0.0;        ///< Summed Eq. 4 error over tables.
  double frag_ms = 0.0;             ///< Wall time of the parallel fan-out.
  std::size_t threads = 1;          ///< Resolved reconfig_threads.
  double thread_utilization = 0.0;  ///< sum(task ms) / (threads * wall ms).

  // -- §6 replication & packing -------------------------------------------
  std::size_t ideal_replicas = 0;   ///< Sum of Eq. 9 ideals (pre-hysteresis).
  std::size_t placed_replicas = 0;  ///< Sum of replica counts actually packed.
  std::size_t nodes = 0;            ///< Provisioned node count.
  double disk_fill = 0.0;           ///< Stored tuples / (nodes * disk).
  double replication_ms = 0.0;      ///< Eq. 9 + hysteresis + packing wall.
  /// The build's packing inputs repeated and it returned the previous
  /// configuration unpacked (DESIGN.md §15.9); the economics above and
  /// the verdict below are those of the build it reused.
  bool build_reused = false;
  bool nash_equilibrium = false;    ///< CheckNashEquilibrium verdict.
  std::string nash_violation;       ///< First violated condition, if any.

  // -- §7 transition planning (driver-annotated) --------------------------
  std::uint64_t planned_transfer_tuples = 0;
  std::size_t nodes_added = 0;
  std::size_t nodes_removed = 0;
  double plan_ms = 0.0;             ///< Matching solve wall time.
  /// The round kept the previous round's plan between the same two
  /// configurations instead of planning (DESIGN.md §15.9).
  bool plan_reused = false;
  bool plan_used_sparse = false;    ///< Sparse SSP vs dense Hungarian.
  std::size_t plan_graph_edges = 0; ///< Positive-overlap edges priced.
  std::uint64_t plan_solver_iterations = 0;  ///< Sparse Dijkstra settles.
};

/// The global metric store. All accessors hand out pointers that stay
/// valid until the next Reset(); call sites that cannot tolerate that use
/// the free functions below, which re-resolve by name on every call.
class Registry {
 public:
  static Registry& Global();

  void Enable() { enabled_.store(true, std::memory_order_relaxed); }
  void Disable() { enabled_.store(false, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Finds or creates the named metric. While the registry is disabled
  /// these return a shared no-op instance and allocate nothing, so
  /// instrumented code may call them unconditionally.
  Counter* counter(std::string_view name) NASHDB_EXCLUDES(mu_);
  Gauge* gauge(std::string_view name) NASHDB_EXCLUDES(mu_);
  /// `bounds` is consulted only on first creation; empty means the default
  /// geometric decade buckets (1e-3 .. 1e6).
  Histogram* histogram(std::string_view name,
                       std::span<const double> bounds = {})
      NASHDB_EXCLUDES(mu_);

  /// Value of a counter by name; 0 when absent. Used to diff counters
  /// around a pipeline stage.
  std::uint64_t CounterValue(std::string_view name) const NASHDB_EXCLUDES(mu_);

  /// Appends one reconfiguration trace (no-op while disabled).
  void RecordReconfig(ReconfigTrace trace) NASHDB_EXCLUDES(trace_mu_);
  /// Mutates the most recent trace under the trace lock; returns false
  /// when there is none (e.g. a baseline system that records no traces).
  bool AnnotateLastReconfig(const std::function<void(ReconfigTrace&)>& fn)
      NASHDB_EXCLUDES(trace_mu_);
  std::size_t reconfig_count() const NASHDB_EXCLUDES(trace_mu_);

  /// Number of registered metrics (all kinds). Exposed for the
  /// disabled-mode zero-allocation tests.
  std::size_t metric_count() const NASHDB_EXCLUDES(mu_);

  /// Drops every metric and trace. Invalidates previously returned metric
  /// pointers; the free-function API below is always safe.
  void Reset() NASHDB_EXCLUDES(mu_, trace_mu_);

  /// Number of Reset() calls so far. A metric pointer resolved while this
  /// returned g stays valid for as long as it still returns g.
  std::uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Serializes counters, gauges, histograms, and reconfiguration traces
  /// as one JSON object.
  std::string SnapshotJson() const NASHDB_EXCLUDES(mu_, trace_mu_);

 private:
  Registry() = default;

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> generation_{0};
  /// Guards metric *registration* (map lookup/insert); mutation of the
  /// returned metric objects is lock-free atomics. Reads take the shared
  /// side so concurrent pool workers resolving names do not serialize.
  mutable SharedMutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      NASHDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      NASHDB_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      NASHDB_GUARDED_BY(mu_);
  mutable Mutex trace_mu_;
  std::vector<ReconfigTrace> traces_ NASHDB_GUARDED_BY(trace_mu_);
};

/// True when the global registry is collecting.
inline bool Enabled() { return Registry::Global().enabled(); }

/// Recording entry points. Disabled mode: one relaxed load + branch.
void Count(std::string_view name, std::uint64_t n = 1);
void SetGauge(std::string_view name, double value);
void Observe(std::string_view name, double value);
/// Adds `local`'s samples to the named histogram (created with `local`'s
/// bounds). An empty `local` registers nothing, so a snapshot lists only
/// what the run recorded.
void Merge(std::string_view name, const LocalHistogram& local);

/// A named counter recorded through a cached pointer, for per-event call
/// sites held by an object that may outlive a run (e.g. the estimator of
/// a system reused across runs). The pointer is resolved on the first
/// record made while the registry is enabled, and again after every
/// Registry::Reset() (which frees the counter it pointed to), so each
/// record costs one name lookup per run instead of one per event.
class CounterHandle {
 public:
  /// `name` must outlive the handle (a string literal).
  explicit CounterHandle(const char* name) : name_(name) {}

  void Inc(std::uint64_t n = 1) {
    Registry& r = Registry::Global();
    if (!r.enabled()) return;
    const std::uint64_t generation = r.generation();
    if (counter_ == nullptr || generation != generation_) {
      counter_ = r.counter(name_);
      generation_ = generation;
    }
    counter_->Inc(n);
  }

 private:
  const char* name_;
  Counter* counter_ = nullptr;
  std::uint64_t generation_ = 0;
};

/// RAII wall-clock timer recording elapsed milliseconds into the named
/// histogram on destruction. The enabled check happens at construction;
/// when disabled no clock is read.
class ScopedTimerMs {
 public:
  explicit ScopedTimerMs(const char* histogram_name);
  ~ScopedTimerMs();

  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

  /// Elapsed so far (0.0 when the timer is disarmed).
  double ElapsedMs() const;

 private:
  const char* name_;
  bool armed_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace metrics
}  // namespace nashdb

#endif  // NASHDB_COMMON_METRICS_H_
