// Shared pieces of the pinned-digest tests: an FNV-1a digest of a run's
// whole output, and the TPC-H regime the driver goldens are taken on.

#ifndef NASHDB_TESTS_GOLDEN_RUN_H_
#define NASHDB_TESTS_GOLDEN_RUN_H_

#include <cstdint>
#include <cstring>

#include "engine/driver.h"
#include "workload/tpch.h"

namespace nashdb {

/// FNV-1a over the raw bytes of each value added.
class Fnv1a {
 public:
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void Add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    Add(bits);
  }
  std::uint64_t hash() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Every field of every record, then every RunResult total, in
/// declaration order.
inline std::uint64_t DigestRun(const RunResult& r) {
  Fnv1a f;
  f.Add(std::uint64_t{r.records.size()});
  for (const QueryRecord& q : r.records) {
    f.Add(std::uint64_t{q.id});
    f.Add(q.price);
    f.Add(q.arrival);
    f.Add(q.completion);
    f.Add(q.latency_s);
    f.Add(std::uint64_t{q.span});
    f.Add(std::uint64_t{q.tuples_read});
    f.Add(std::uint64_t{q.retries});
    f.Add(std::uint64_t{q.epoch});
    f.Add(std::uint64_t{q.aborted});
    f.Add(std::uint64_t{q.shed});
  }
  f.Add(std::uint64_t{r.total_queries});
  f.Add(r.total_cost);
  f.Add(std::uint64_t{r.transferred_tuples});
  f.Add(std::uint64_t{r.bootstrap_transfer_tuples});
  f.Add(std::uint64_t{r.read_tuples});
  f.Add(std::uint64_t{r.transitions});
  f.Add(std::uint64_t{r.transitions_skipped});
  f.Add(r.makespan_s);
  f.Add(std::uint64_t{r.final_nodes});
  f.Add(std::uint64_t{r.crashes});
  f.Add(std::uint64_t{r.partitions});
  f.Add(std::uint64_t{r.aborted_queries});
  f.Add(std::uint64_t{r.scan_retries});
  f.Add(std::uint64_t{r.shed_queries});
  f.Add(std::uint64_t{r.emergency_repairs});
  f.Add(std::uint64_t{r.repair_transfer_tuples});
  f.Add(r.last_fault_time_s);
  f.Add(r.last_disruption_time_s);
  f.Add(r.completed_latency_sum_s);
  f.Add(r.completed_span_sum);
  return f.hash();
}

/// query_path_golden_test's TPC-H regime: 120 queries of ~6 scans over
/// two hours on 8 tables, fragments of 500 tuples with up to 3 replicas
/// on ~11 nodes, and disks slow enough (kGoldenTuplesPerSecond) that
/// queues build and every router chooses differently.
inline const Workload& GoldenTpchWorkload() {
  static const Workload workload = [] {
    TpchOptions o;
    o.db_gb = 3.0;
    o.num_queries = 120;
    o.price = 1.0;
    o.arrival_span_s = 2.0 * 3600.0;
    return MakeTpchWorkload(o);
  }();
  return workload;
}

constexpr double kGoldenTuplesPerSecond = 150.0;

}  // namespace nashdb

#endif  // NASHDB_TESTS_GOLDEN_RUN_H_
