// Before/after microbenchmark for the steady-state query path (DESIGN.md
// §10): per-scan routing overhead of the seed allocating pipeline
// (RequestsFor -> full request copy -> O(node_count) WaitSeconds rebuild ->
// Route) versus the flat pipeline (one-scan ResolveBatchInto spans ->
// WaitView over ClusterSim::BusyUntil -> RouteInto) at node_count in
// {4, 16, 64}, single-threaded.
//
// Both loops replicate the driver's fault-free inner attempt against a
// live ClusterSim, byte for byte: the seed loop pays exactly the
// allocations and the per-node WaitSeconds calls the seed driver paid; the
// flat loop is the shipped path. Scans follow the paper's skew — most
// scans read a small hot range, a minority span many fragments (the
// Bernoulli "95% hit the tail" pattern).
//
// Throughput (scans/sec) is measured over the whole batch with two clock
// reads total, so no per-scan timer overhead pollutes the comparison;
// p50/p99 ns/scan come from a separate per-scan-timed sampling pass.
// Before any timing the bench verifies both paths route every scan
// identically. Writes BENCH_query_path.json for the CI artifact.
//
// Flags: --smoke (tiny iteration counts for CI), --out=PATH (JSON path,
// default BENCH_query_path.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/sim.h"
#include "common/random.h"
#include "common/types.h"
#include "engine/config_index.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "routing/scan_batch.h"
#include "workload/workload.h"

namespace nashdb {
namespace {

constexpr TupleCount kFragSize = 10'000;
constexpr std::size_t kFragCount = 64;
constexpr double kPhi = 0.35;

ClusterConfig MakeConfig(std::size_t node_count, Rng* rng) {
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = kFragCount * kFragSize * 8;  // capacity is not the point
  params.window_scans = 50;
  std::vector<FragmentInfo> frags;
  frags.reserve(kFragCount);
  for (std::size_t i = 0; i < kFragCount; ++i) {
    FragmentInfo f;
    f.table = 0;
    f.index_in_table = static_cast<FragmentId>(i);
    f.range = TupleRange{i * kFragSize, (i + 1) * kFragSize};
    f.replicas = std::min<std::size_t>(node_count, 1 + rng->Uniform(3));
    frags.push_back(f);
  }
  ClusterConfig config(params, std::move(frags));
  for (std::size_t m = 0; m < node_count; ++m) config.AddNode();
  std::vector<NodeId> nodes(node_count);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  for (FlatFragmentId f = 0; f < kFragCount; ++f) {
    rng->Shuffle(&nodes);
    for (std::size_t k = 0; k < config.fragment(f).replicas; ++k) {
      config.Place(nodes[k], f);
    }
  }
  return config;
}

std::vector<Scan> MakeScans(std::size_t count, Rng* rng) {
  std::vector<Scan> scans;
  scans.reserve(count);
  const TupleCount table_end = kFragCount * kFragSize;
  for (std::size_t i = 0; i < count; ++i) {
    Scan s;
    s.table = 0;
    const TupleCount start = rng->Uniform(table_end - 1);
    // The paper's workload skew: most scans read a small hot range (1-2
    // fragments); a minority are long analytical sweeps.
    const bool long_scan = rng->Uniform(100) < 15;
    const TupleCount len = long_scan ? 1 + rng->Uniform(8 * kFragSize)
                                     : 1 + rng->Uniform(kFragSize);
    s.range = TupleRange{start, std::min<TupleCount>(table_end, start + len)};
    s.price = 1.0;
    scans.push_back(s);
  }
  return scans;
}

/// A live simulator with realistic queue state: every node has served
/// reads, so busy-until values are non-trivial and WaitSeconds does real
/// work in the seed loop.
ClusterSim MakeSim(const ClusterConfig& config, Rng* rng) {
  ClusterSim sim((ClusterSimOptions()));
  sim.ApplyConfig(config, 0.0, nullptr);
  for (NodeId m = 0; m < config.node_count(); ++m) {
    (void)sim.EnqueueRead(m, 1 + rng->Uniform(200'000), 0.0,
                          /*first_use_by_query=*/true);
  }
  return sim;
}

struct PathStats {
  double scans_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

using Clock = std::chrono::steady_clock;

// --------------------------------------------------------- seed pipeline

// One seed-path routing attempt: exactly the allocations and the
// O(node_count) WaitSeconds rebuild of the seed driver's inner loop.
inline std::uint64_t SeedAttempt(const ConfigIndex& index, const Scan& scan,
                                 const ClusterSim& sim, ScanRouter* router,
                                 double spt) {
  const std::vector<FragmentRequest> requests = index.RequestsFor(scan);
  if (requests.empty()) return 0;
  std::vector<FragmentRequest> live = requests;
  std::vector<double> waits(sim.node_count(), 0.0);
  for (NodeId m = 0; m < sim.node_count(); ++m) {
    waits[m] = sim.WaitSeconds(m, 0.0);
  }
  const Result<std::vector<RoutedRead>> routed =
      router->Route(live, std::move(waits), spt, kPhi);
  return routed->size() + routed->front().node;
}

// --------------------------------------------------------- flat pipeline

struct FlatState {
  ScanBatch one;  // one-scan block, capacity reused across scans
  RouterScratch router_scratch;
  std::vector<RoutedRead> out;
};

/// Resolves `scan` alone into the reusable one-scan block.
inline RequestBatch ResolveOne(const ConfigIndex& index, const Scan& scan,
                               FlatState* state) {
  state->one.Clear();
  state->one.AddScan(0, scan);
  index.ResolveBatchInto(&state->one);
  return state->one.ScanRequests(0);
}

inline std::uint64_t FlatAttempt(const ConfigIndex& index, const Scan& scan,
                                 const ClusterSim& sim, ScanRouter* router,
                                 double spt, FlatState* state) {
  const RequestBatch batch = ResolveOne(index, scan, state);
  if (batch.count == 0) return 0;
  const WaitView waits(sim.BusyUntil().data(), sim.node_count(), 0.0);
  const Status st = router->RouteInto(batch, waits, spt, kPhi,
                                      &state->router_scratch, &state->out);
  if (!st.ok()) {
    std::fprintf(stderr, "RouteInto failed: %s\n",
                 std::string(st.message()).c_str());
    std::exit(1);
  }
  return state->out.size() + state->out.front().node;
}

// ------------------------------------------------------------ measurement

template <typename Attempt>
PathStats Measure(const std::vector<Scan>& scans, std::size_t through_iters,
                  std::size_t sample_iters, std::uint64_t* sink,
                  const Attempt& attempt) {
  PathStats st;
  // Throughput: two clock reads around the whole batch.
  const auto t0 = Clock::now();
  for (std::size_t it = 0; it < through_iters; ++it) {
    for (const Scan& scan : scans) *sink += attempt(scan);
  }
  const auto t1 = Clock::now();
  const double total_s = std::chrono::duration<double>(t1 - t0).count();
  st.scans_per_sec =
      static_cast<double>(through_iters * scans.size()) / total_s;
  // Tail overhead: per-scan timed sampling pass.
  std::vector<double> samples_ns;
  samples_ns.reserve(sample_iters * scans.size());
  for (std::size_t it = 0; it < sample_iters; ++it) {
    for (const Scan& scan : scans) {
      const auto s0 = Clock::now();
      *sink += attempt(scan);
      const auto s1 = Clock::now();
      samples_ns.push_back(
          std::chrono::duration<double, std::nano>(s1 - s0).count());
    }
  }
  std::sort(samples_ns.begin(), samples_ns.end());
  st.p50_ns = samples_ns[samples_ns.size() / 2];
  st.p99_ns = samples_ns[samples_ns.size() * 99 / 100];
  return st;
}

// Route-identity check: both paths must schedule every scan identically
// (the golden test proves it end-to-end; this guards the bench itself
// against measuring two different computations).
void VerifyIdentity(const ConfigIndex& index, const std::vector<Scan>& scans,
                    const ClusterSim& sim, ScanRouter* router, double spt) {
  FlatState state;
  for (const Scan& scan : scans) {
    const std::vector<FragmentRequest> requests = index.RequestsFor(scan);
    std::vector<double> waits(sim.node_count(), 0.0);
    for (NodeId m = 0; m < sim.node_count(); ++m) {
      waits[m] = sim.WaitSeconds(m, 0.0);
    }
    const Result<std::vector<RoutedRead>> ref =
        router->Route(requests, std::move(waits), spt, kPhi);
    const RequestBatch batch = ResolveOne(index, scan, &state);
    const WaitView view(sim.BusyUntil().data(), sim.node_count(), 0.0);
    const Status st = router->RouteInto(batch, view, spt, kPhi,
                                        &state.router_scratch, &state.out);
    if (!ref.ok() || !st.ok() || state.out.size() != ref->size()) {
      std::fprintf(stderr, "route identity violated (status/size)\n");
      std::exit(1);
    }
    for (std::size_t i = 0; i < state.out.size(); ++i) {
      if (state.out[i].request_index != (*ref)[i].request_index ||
          state.out[i].node != (*ref)[i].node) {
        std::fprintf(stderr, "route identity violated at read %zu\n", i);
        std::exit(1);
      }
    }
  }
}

struct ConfigResult {
  std::size_t node_count = 0;
  PathStats seed;
  PathStats flat;
};

void Run(bool smoke, const std::string& out_path) {
  const std::size_t through_iters = smoke ? 4 : 80;
  const std::size_t sample_iters = smoke ? 2 : 20;
  const std::size_t n_scans = smoke ? 128 : 512;
  MaxOfMinsRouter router;  // the paper's (and the driver's default) router
  std::uint64_t sink = 0;
  std::vector<ConfigResult> results;

  std::printf("query-path overhead, single thread, router=%s%s\n",
              std::string(router.name()).c_str(), smoke ? " (smoke)" : "");
  std::printf("%-12s %15s %15s %12s %12s %12s %12s %9s\n", "node_count",
              "seed scans/s", "flat scans/s", "seed p50ns", "flat p50ns",
              "seed p99ns", "flat p99ns", "speedup");

  for (const std::size_t node_count : {4u, 16u, 64u}) {
    Rng rng(0x5eed + node_count);
    const ClusterConfig config = MakeConfig(node_count, &rng);
    const ConfigIndex index(config);
    const std::vector<Scan> scans = MakeScans(n_scans, &rng);
    const ClusterSim sim = MakeSim(config, &rng);
    const double spt = 1.0 / sim.options().tuples_per_second;

    VerifyIdentity(index, scans, sim, &router, spt);

    FlatState state;
    const auto seed_attempt = [&](const Scan& s) {
      return SeedAttempt(index, s, sim, &router, spt);
    };
    const auto flat_attempt = [&](const Scan& s) {
      return FlatAttempt(index, s, sim, &router, spt, &state);
    };
    // Warm-up (page in, grow scratch buffers), then measure.
    for (const Scan& s : scans) sink += seed_attempt(s) + flat_attempt(s);
    ConfigResult r;
    r.node_count = node_count;
    r.seed = Measure(scans, through_iters, sample_iters, &sink, seed_attempt);
    r.flat = Measure(scans, through_iters, sample_iters, &sink, flat_attempt);
    std::printf("%-12zu %15.0f %15.0f %12.0f %12.0f %12.0f %12.0f %8.2fx\n",
                r.node_count, r.seed.scans_per_sec, r.flat.scans_per_sec,
                r.seed.p50_ns, r.flat.p50_ns, r.seed.p99_ns, r.flat.p99_ns,
                r.flat.scans_per_sec / r.seed.scans_per_sec);
    results.push_back(r);
  }

  const ConfigResult& small = results.front();
  const ConfigResult& large = results.back();
  std::printf(
      "\nflat p99 4->64 nodes: %.0f -> %.0f ns (%.2fx); "
      "speedup at 64 nodes: %.2fx (sink %llu)\n",
      small.flat.p99_ns, large.flat.p99_ns,
      large.flat.p99_ns / small.flat.p99_ns,
      large.flat.scans_per_sec / large.seed.scans_per_sec,
      static_cast<unsigned long long>(sink));

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"query_path\",\n");
  std::fprintf(f, "  \"router\": \"%s\",\n",
               std::string(router.name()).c_str());
  std::fprintf(f, "  \"smoke\": %s,\n  \"configs\": [\n",
               smoke ? "true" : "false");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    std::fprintf(
        f,
        "    {\"node_count\": %zu,\n"
        "     \"seed\": {\"scans_per_sec\": %.1f, \"p50_ns\": %.1f, "
        "\"p99_ns\": %.1f},\n"
        "     \"flat\": {\"scans_per_sec\": %.1f, \"p50_ns\": %.1f, "
        "\"p99_ns\": %.1f},\n"
        "     \"speedup\": %.3f}%s\n",
        r.node_count, r.seed.scans_per_sec, r.seed.p50_ns, r.seed.p99_ns,
        r.flat.scans_per_sec, r.flat.p50_ns, r.flat.p99_ns,
        r.flat.scans_per_sec / r.seed.scans_per_sec,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace nashdb

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_query_path.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  nashdb::Run(smoke, out_path);
  return 0;
}
