// Ablation micro-benchmarks for the design choices DESIGN.md calls out:
//   - optimal DP vs greedy split/merge fragmentation runtime,
//   - Kuhn-Munkres transition matching scaling (the §7 O(n^3) claim —
//     "standard implementations sufficiently fast even for thousands of
//     nodes"),
//   - BFFD packing runtime and quality vs the volume lower bound,
//   - Max-of-mins routing cost per scan.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <numeric>

#include "bench/bench_common.h"
#include "routing/scan_batch.h"

namespace nashdb::bench {
namespace {

ValueProfile RandomProfile(Rng* rng, TupleCount n, std::size_t chunks) {
  std::vector<ValueChunk> out;
  TupleIndex cursor = 0;
  const TupleCount step = n / chunks;
  for (std::size_t i = 0; i < chunks && cursor < n; ++i) {
    const TupleIndex end =
        i + 1 == chunks ? n : cursor + step / 2 + rng->Uniform(step);
    out.push_back(ValueChunk{cursor, std::min<TupleIndex>(end, n),
                             rng->NextDouble()});
    cursor = out.back().end;
  }
  if (cursor < n) out.push_back(ValueChunk{cursor, n, 0.0});
  return ValueProfile::FromSparseChunks(n, out);
}

void BM_FragmentOptimalDp(benchmark::State& state) {
  Rng rng(7);
  const std::size_t chunks = static_cast<std::size_t>(state.range(0));
  const ValueProfile profile = RandomProfile(&rng, 1'000'000, chunks);
  FragmentationContext ctx;
  ctx.table = 0;
  ctx.profile = &profile;
  OptimalFragmenter fragmenter;
  for (auto _ : state) {
    benchmark::DoNotOptimize(fragmenter.Refragment(ctx, 100));
  }
}
BENCHMARK(BM_FragmentOptimalDp)->Arg(100)->Arg(400)->Arg(1600);

void BM_FragmentGreedy(benchmark::State& state) {
  Rng rng(8);
  const std::size_t chunks = static_cast<std::size_t>(state.range(0));
  const ValueProfile profile = RandomProfile(&rng, 1'000'000, chunks);
  FragmentationContext ctx;
  ctx.table = 0;
  ctx.profile = &profile;
  GreedyFragmenter fragmenter;
  for (auto _ : state) {
    fragmenter.Reset();
    benchmark::DoNotOptimize(fragmenter.Refragment(ctx, 100));
  }
}
BENCHMARK(BM_FragmentGreedy)->Arg(100)->Arg(400)->Arg(1600);

// Incremental adaptation (the steady-state cost of the stateful greedy
// fragmenter: one merge+split round on a drifting profile).
void BM_FragmentGreedyIncremental(benchmark::State& state) {
  Rng rng(9);
  const ValueProfile a = RandomProfile(&rng, 1'000'000, 400);
  const ValueProfile b = RandomProfile(&rng, 1'000'000, 400);
  FragmentationContext ctx;
  ctx.table = 0;
  GreedyFragmenter fragmenter;
  ctx.profile = &a;
  fragmenter.Refragment(ctx, 100);
  bool flip = false;
  for (auto _ : state) {
    ctx.profile = flip ? &a : &b;
    flip = !flip;
    benchmark::DoNotOptimize(fragmenter.Refragment(ctx, 100));
  }
}
BENCHMARK(BM_FragmentGreedyIncremental);

void BM_HungarianScaling(benchmark::State& state) {
  Rng rng(10);
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  CostMatrix cost(n);
  for (double& c : cost.cells) c = rng.NextDouble();
  for (auto _ : state) {
    benchmark::DoNotOptimize(SolveAssignment(cost));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HungarianScaling)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Arg(256)
    ->Arg(512)
    ->Complexity(benchmark::oNCubed);

void BM_BffdPacking(benchmark::State& state) {
  Rng rng(11);
  const std::size_t nfrags = static_cast<std::size_t>(state.range(0));
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = 100'000;
  params.window_scans = 50;
  std::vector<FragmentInfo> frags;
  TupleIndex cursor = 0;
  for (std::size_t i = 0; i < nfrags; ++i) {
    FragmentInfo f;
    f.table = 0;
    f.index_in_table = static_cast<FragmentId>(i);
    const TupleCount size = 1000 + rng.Uniform(9000);
    f.range = TupleRange{cursor, cursor + size};
    f.replicas = 1 + rng.Uniform(8);
    cursor += size;
    frags.push_back(f);
  }
  TupleCount volume = 0;
  for (const auto& f : frags) volume += f.size() * f.replicas;
  const std::size_t lower_bound =
      static_cast<std::size_t>((volume + params.node_disk - 1) /
                               params.node_disk);
  std::size_t nodes = 0;
  for (auto _ : state) {
    auto config = PackReplicasBffd(params, frags);
    nodes = config->node_count();
    benchmark::DoNotOptimize(config);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["volume_lb"] = static_cast<double>(lower_bound);
}
BENCHMARK(BM_BffdPacking)->Arg(100)->Arg(1000)->Arg(4000);

void BM_MaxOfMinsRouting(benchmark::State& state) {
  Rng rng(12);
  const std::size_t nreq = static_cast<std::size_t>(state.range(0));
  const std::size_t nnodes = 64;
  // One scan of `nreq` requests, prebuilt as a one-scan block, so the
  // loop times RouteBatchInto alone.
  ScanBatch block;
  std::vector<NodeId> pool;
  block.AddScan(0, Scan{});
  block.req_off.push_back(0);
  for (std::size_t i = 0; i < nreq; ++i) {
    FlatRequest r;
    r.frag = static_cast<FlatFragmentId>(i);
    r.tuples = 4000;
    r.cand_begin = static_cast<std::uint32_t>(pool.size());
    const std::size_t reps = 1 + rng.Uniform(4);
    for (std::size_t c = 0; c < reps; ++c) {
      pool.push_back(static_cast<NodeId>(rng.Uniform(nnodes)));
    }
    r.cand_count = static_cast<std::uint32_t>(reps);
    block.requests.push_back(r);
  }
  block.req_off.push_back(static_cast<std::uint32_t>(nreq));
  block.cand_pool = pool.data();
  std::vector<SimTime> busy_until(nnodes);
  for (SimTime& b : busy_until) b = rng.NextDouble() * 100.0;
  const WaitView waits(busy_until.data(), nnodes, /*at=*/0.0);
  MaxOfMinsRouter router;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.RouteBatchInto(
        block, waits, 1.0 / 150.0, 0.35, &scratch, &out, nullptr));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_MaxOfMinsRouting)->Arg(16)->Arg(64)->Arg(256);

void BM_MarketSimVsDirect(benchmark::State& state) {
  // The paper's headline contrast with Mariposa [41]: iterative market
  // simulation needs ~Ideal() rounds to converge where Eq. 9 is one pass.
  Rng rng(13);
  const std::size_t nfrags = static_cast<std::size_t>(state.range(0));
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = 100'000;
  params.window_scans = 200;
  std::vector<FragmentInfo> frags;
  TupleIndex cursor = 0;
  for (std::size_t i = 0; i < nfrags; ++i) {
    FragmentInfo f;
    f.table = 0;
    f.index_in_table = static_cast<FragmentId>(i);
    f.range = TupleRange{cursor, cursor + 4000};
    f.value = rng.NextDouble() * 0.5;
    cursor += 4000;
    frags.push_back(f);
  }
  std::size_t rounds = 0;
  for (auto _ : state) {
    const MarketSimResult r = SimulateReplicaMarket(params, frags, 1);
    rounds = r.rounds;
    benchmark::DoNotOptimize(r);
  }
  state.counters["market_rounds"] = static_cast<double>(rounds);
  state.counters["direct_rounds"] = 1.0;
}
BENCHMARK(BM_MarketSimVsDirect)->Arg(50)->Arg(200);

void BM_DirectEq9(benchmark::State& state) {
  Rng rng(13);
  const std::size_t nfrags = static_cast<std::size_t>(state.range(0));
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = 100'000;
  params.window_scans = 200;
  std::vector<FragmentInfo> frags;
  TupleIndex cursor = 0;
  for (std::size_t i = 0; i < nfrags; ++i) {
    FragmentInfo f;
    f.table = 0;
    f.index_in_table = static_cast<FragmentId>(i);
    f.range = TupleRange{cursor, cursor + 4000};
    f.value = rng.NextDouble() * 0.5;
    cursor += 4000;
    frags.push_back(f);
  }
  for (auto _ : state) {
    auto copy = frags;
    DecideReplication(params, &copy);
    benchmark::DoNotOptimize(copy);
  }
}
BENCHMARK(BM_DirectEq9)->Arg(50)->Arg(200);

void BM_IncrementalVsBffdChurn(benchmark::State& state) {
  // Transition transfer across 8 drifting reconfigurations: incremental
  // repacking vs fresh BFFD (the DESIGN.md placement-stability ablation).
  const bool incremental = state.range(0) == 1;
  Rng rng(17);
  ReplicationParams params;
  params.node_cost = 5.0;
  params.node_disk = 40'000;
  params.window_scans = 50;
  auto make_frags = [&]() {
    std::vector<FragmentInfo> frags;
    TupleIndex cursor = 0;
    for (int i = 0; i < 48; ++i) {
      FragmentInfo f;
      f.table = 0;
      f.index_in_table = static_cast<FragmentId>(i);
      f.range = TupleRange{cursor, cursor + 4000};
      f.value = (1.0 + 0.3 * rng.NextDouble()) * (i % 7 == 0 ? 3.0 : 1.0);
      cursor += 4000;
      frags.push_back(f);
    }
    DecideReplication(params, &frags);
    return frags;
  };
  TupleCount churn = 0;
  for (auto _ : state) {
    churn = 0;
    auto cur_result = incremental
                          ? RepackIncremental(params, make_frags(), nullptr)
                          : PackReplicasBffd(params, make_frags());
    ClusterConfig cur = std::move(cur_result).value();
    for (int round = 0; round < 8; ++round) {
      auto next_result =
          incremental ? RepackIncremental(params, make_frags(), &cur)
                      : PackReplicasBffd(params, make_frags());
      ClusterConfig next = std::move(next_result).value();
      churn += PlanTransition(cur, next).total_transfer_tuples;
      cur = std::move(next);
    }
    benchmark::DoNotOptimize(cur);
  }
  state.counters["churn_tuples"] = static_cast<double>(churn);
}
BENCHMARK(BM_IncrementalVsBffdChurn)
    ->Arg(0)   // fresh BFFD
    ->Arg(1);  // incremental

}  // namespace
}  // namespace nashdb::bench

BENCHMARK_MAIN();
