// Reproduces the §10.1 "Value estimation overhead" measurement: memory
// footprint and access time of the window's value store at scan window
// sizes 50 and 1000 (the paper: < 1 KB / < 4 KB and < 5 ms access).
//
// Two stores are measured side by side on the same TPC-H lineitem window:
//   - Tree: the paper's augmented AVL (ValueEstimationTree), O(log n)
//     insert, evict and point lookup, in-order profile walk;
//   - Table: the estimator's EndpointTable (DESIGN.md §10), O(1) expected
//     insert and evict, O(n) point lookup, profile walk after a key sort.
// Each reports insert+evict (one scan in, the oldest out), profile build
// (the chunk walk plus ValueProfile materialization, what the estimator
// does once per table per round), point lookup, and its footprint
// (counter size_bytes: the store alone, without the scan buffer).

#include <deque>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "value/endpoint_table.h"

namespace nashdb::bench {
namespace {

constexpr TupleCount kLineitemTuples = 700'000;

/// One table's store plus the FIFO window that feeds it.
template <typename Store>
struct LoadedStore {
  explicit LoadedStore(std::size_t window) : capacity(window) {
    // Enough TPC-H queries to fill and churn a window of lineitem scans.
    TpchOptions opts;
    opts.db_gb = 1000.0;
    opts.tuples_per_gb = kTuplesPerGb;
    opts.num_queries = 8 * window;
    const Workload wl = MakeTpchWorkload(opts);
    for (const TimedQuery& tq : wl.queries) {
      for (const Scan& s : tq.query.scans) {
        if (s.table == kLineitem && !s.range.empty()) Add(s);
      }
    }
  }

  void Add(const Scan& s) {
    if (buffer.size() == capacity) {
      const Scan& old = buffer.front();
      store.RemoveScan(old.range.start, old.range.end,
                       old.NormalizedPrice());
      buffer.pop_front();
    }
    buffer.push_back(s);
    store.AddScan(s.range.start, s.range.end, s.NormalizedPrice());
  }

  std::size_t capacity;
  std::deque<Scan> buffer;
  Store store;
};

/// False (and the benchmark skipped) unless the TPC-H stream filled the
/// window, so every row measures a full |W|.
template <typename Store>
bool Full(const LoadedStore<Store>& loaded, benchmark::State& state) {
  if (loaded.buffer.size() == loaded.capacity) return true;
  state.SkipWithError("the workload did not fill the scan window");
  return false;
}

template <typename Store>
void BM_InsertEvict(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  LoadedStore<Store> loaded(window);
  if (!Full(loaded, state)) return;
  Rng rng(1);
  Scan s;
  s.table = kLineitem;
  s.price = 1.0;
  for (auto _ : state) {
    const TupleIndex a = rng.Uniform(600'000);
    s.range = TupleRange{a, a + 1 + rng.Uniform(90'000)};
    loaded.Add(s);  // evicts the oldest scan: the window is full
  }
  state.counters["size_bytes"] =
      static_cast<double>(loaded.store.SizeBytes());
  state.counters["keys"] = static_cast<double>(loaded.store.node_count());
}

template <typename Store>
void BM_ProfileBuild(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const LoadedStore<Store> loaded(window);
  if (!Full(loaded, state)) return;
  const Money w = static_cast<Money>(loaded.buffer.size());
  for (auto _ : state) {
    std::vector<ValueChunk> chunks;
    loaded.store.ForEachChunk([&](TupleIndex a, TupleIndex b, Money raw) {
      chunks.push_back(ValueChunk{a, b, raw / w});
    });
    benchmark::DoNotOptimize(
        ValueProfile::FromSparseChunks(kLineitemTuples, std::move(chunks)));
  }
  state.counters["size_bytes"] =
      static_cast<double>(loaded.store.SizeBytes());
}

template <typename Store>
void BM_PointLookup(benchmark::State& state) {
  const std::size_t window = static_cast<std::size_t>(state.range(0));
  const LoadedStore<Store> loaded(window);
  if (!Full(loaded, state)) return;
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        loaded.store.RawValueAt(rng.Uniform(kLineitemTuples)));
  }
}

using Tree = ValueEstimationTree;
using Table = EndpointTable;

BENCHMARK_TEMPLATE(BM_InsertEvict, Tree)->Arg(50)->Arg(1000);
BENCHMARK_TEMPLATE(BM_InsertEvict, Table)->Arg(50)->Arg(1000);
BENCHMARK_TEMPLATE(BM_ProfileBuild, Tree)->Arg(50)->Arg(1000);
BENCHMARK_TEMPLATE(BM_ProfileBuild, Table)->Arg(50)->Arg(1000);
BENCHMARK_TEMPLATE(BM_PointLookup, Tree)->Arg(50)->Arg(1000);
BENCHMARK_TEMPLATE(BM_PointLookup, Table)->Arg(50)->Arg(1000);

}  // namespace
}  // namespace nashdb::bench

BENCHMARK_MAIN();
