// Batched data-plane benchmark (DESIGN.md §11): routing throughput of
// the driver's loop shape — scans accumulated into `ScanBatch` blocks on
// one thread, each block resolved against one immutable ConfigIndex and
// routed with `RouteBatchInto` against live `ClusterSim` wait state, its
// reads enqueued as each scan is routed — swept over block size
// {1, 16, 64, 256}.
//
// The workload is 16 tables with the paper's skew (most scans read a
// small hot range, a minority sweep many fragments), MaxOfMins routing,
// 16 nodes with 1-3 replicas per fragment and every scan arriving at time
// 0, so queues only grow. A second sweep routes the same scans at batch
// 256 over 128 nodes with ~4, ~32 and ~126 replicas per fragment (the
// streaming workload's regime), once with arrivals a second apart, so
// nodes drain between scans and candidates tie at phi, and once
// saturated. A last point is real2's regime: 130 nodes, ~62 replicas per
// fragment and scans of 17-150 fragments, saturated, so every scan takes
// the Max-of-mins router's wide core (more than 16 requests). Before any
// timing, every point verifies route identity: routing in fixed blocks
// from a fresh sim must schedule every read onto exactly the node that
// routing each scan as its own block picks, and leave bit-identical
// busy-until state. Throughput is the best of three timed passes, each
// with two clock reads around the whole pass (scans/s); p50/p99 ns/scan
// come from a separate per-block-timed pass so no timer overhead
// pollutes the throughput numbers.
//
// Batch size 1 is the driver at route_batch_size 1: every scan routed as
// a one-scan block — ResolveBatchInto + WaitView + RouteBatchInto +
// per-read enqueue. Batch > 1 amortizes the block-level SoA resolve
// (O(1) table-span lookup) and RouteBatchInto's scratch bind and virtual
// dispatch over the block. The saturated ~126-replica point is the worst
// case for the Max-of-mins sweep's early stop: no candidate ever reaches
// its lower bound, so every sweep runs to the end. Writes
// BENCH_data_plane.json for the CI artifact.
//
// Flags: --smoke (tiny scan count for CI), --out=PATH (JSON path,
// default BENCH_data_plane.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sim.h"
#include "common/query.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/config_index.h"
#include "replication/cluster_config.h"
#include "routing/router.h"
#include "routing/scan_batch.h"

namespace nashdb {
namespace {

/// `tables` tables of `frags` fragments of `frag_size` tuples each.
struct Layout {
  std::size_t tables;
  std::size_t frags;
  TupleCount frag_size;
};
/// The skewed workload's tables: most scans read 1-2 fragments.
constexpr Layout kSkewLayout{16, 16, 10'000};
constexpr std::size_t kTables = kSkewLayout.tables;
constexpr std::size_t kNodes = 16;
constexpr std::size_t kWideNodes = 128;
/// Mean replicas per fragment of the 128-node points (each fragment gets
/// one of mean - 1, mean, mean + 1).
constexpr std::size_t kWideReplicas[] = {4, 32, 126};
/// real2's regime (the paper's reference run): ~130 nodes, ~62 replicas
/// per fragment, and scans of 17-150 fragments, which take the
/// Max-of-mins router's wide core.
constexpr Layout kReal2Layout{2, 190, 1'000};
constexpr std::size_t kReal2Nodes = 130;
constexpr std::size_t kReal2Replicas = 62;
constexpr std::size_t kReal2MinWidth = 17;
constexpr std::size_t kReal2MaxWidth = 150;
/// Seconds between scan arrivals at the idle points: a read takes 5 ms at
/// the default disk speed, so every queue drains before the next scan.
constexpr double kIdleGapS = 1.0;
constexpr double kPhi = 0.35;
/// Timed repetitions per sweep point; the reported throughput is the best
/// (min-time) rep, which estimates the plane's speed rather than the
/// host's background load.
constexpr std::size_t kThroughputReps = 3;

using Clock = std::chrono::steady_clock;

/// `node_count` nodes; each fragment gets `lo` to `hi` replicas (inclusive)
/// on distinct random nodes, listed in ascending node order as BFFD's
/// first fit places them, so candidate spans have the real order.
ClusterConfig MakeConfig(Rng* rng, const Layout& layout,
                         std::size_t node_count, std::size_t lo,
                         std::size_t hi) {
  ReplicationParams params;
  params.node_cost = 1.0;
  params.node_disk = layout.tables * layout.frags * layout.frag_size * 8;
  params.window_scans = 50;
  std::vector<FragmentInfo> frags;
  frags.reserve(layout.tables * layout.frags);
  for (std::size_t t = 0; t < layout.tables; ++t) {
    for (std::size_t i = 0; i < layout.frags; ++i) {
      FragmentInfo f;
      f.table = static_cast<TableId>(t);
      f.index_in_table = static_cast<FragmentId>(i);
      f.range =
          TupleRange{i * layout.frag_size, (i + 1) * layout.frag_size};
      f.replicas = std::min(node_count, lo + rng->Uniform(hi - lo + 1));
      frags.push_back(f);
    }
  }
  ClusterConfig config(params, std::move(frags));
  for (std::size_t m = 0; m < node_count; ++m) config.AddNode();
  std::vector<NodeId> nodes(node_count);
  std::iota(nodes.begin(), nodes.end(), NodeId{0});
  const std::size_t frag_count = config.fragments().size();
  for (FlatFragmentId f = 0; f < frag_count; ++f) {
    rng->Shuffle(&nodes);
    const std::size_t replicas = config.fragment(f).replicas;
    std::vector<NodeId> homes(nodes.begin(), nodes.begin() + replicas);
    std::sort(homes.begin(), homes.end());
    for (const NodeId m : homes) config.Place(m, f);
  }
  return config;
}

std::vector<Scan> MakeScans(std::size_t count, Rng* rng) {
  std::vector<Scan> scans;
  scans.reserve(count);
  const TupleCount frag_size = kSkewLayout.frag_size;
  const TupleCount table_end = kSkewLayout.frags * frag_size;
  for (std::size_t i = 0; i < count; ++i) {
    Scan s;
    s.table = static_cast<TableId>(rng->Uniform(kTables));
    const TupleCount start = rng->Uniform(table_end - 1);
    // The paper's workload skew: most scans read a small hot range (1-2
    // fragments); a minority are long analytical sweeps.
    const bool long_scan = rng->Uniform(100) < 15;
    const TupleCount len = long_scan ? 1 + rng->Uniform(8 * frag_size)
                                     : 1 + rng->Uniform(frag_size);
    s.range = TupleRange{start, std::min<TupleCount>(table_end, start + len)};
    s.price = 1.0;
    scans.push_back(s);
  }
  return scans;
}

/// Scans of `kReal2MinWidth` to `kReal2MaxWidth` whole fragments of the
/// real2-shaped layout, so each resolves to that many requests.
std::vector<Scan> MakeReal2Scans(std::size_t count, Rng* rng) {
  std::vector<Scan> scans;
  scans.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t width =
        kReal2MinWidth + rng->Uniform(kReal2MaxWidth - kReal2MinWidth + 1);
    const std::size_t first = rng->Uniform(kReal2Layout.frags - width + 1);
    Scan s;
    s.table = static_cast<TableId>(rng->Uniform(kReal2Layout.tables));
    s.range = TupleRange{first * kReal2Layout.frag_size,
                         (first + width) * kReal2Layout.frag_size};
    s.price = 1.0;
    scans.push_back(s);
  }
  return scans;
}

// ------------------------------------------------------------------ plane

/// Enqueues every routed read into the plane's sim at its scan's arrival,
/// as the driver's sink does — the WaitView aliases the sim's
/// busy-until array, so the next scan of the block observes the reads of
/// this one — and advances the view to the next scan's arrival. Scan id i
/// arrives at base + i * gap; a gap of 0 puts every scan at time 0.
class EnqueueSink : public BatchSink {
 public:
  EnqueueSink(ClusterSim* sim, double gap_s) : sim_(sim), gap_s_(gap_s) {}

  SimTime ArrivalOf(std::uint64_t id) const {
    return base_s_ + gap_s_ * static_cast<double>(id);
  }

  /// Starts a new pass over scan ids [0, n) after the one that just
  /// ended, so the times the sim has seen never run backwards.
  void NextPass(std::size_t n) {
    base_s_ += gap_s_ * static_cast<double>(n);
  }

  void Bind(const ScanBatch* block, WaitView* view) {
    block_ = block;
    view_ = view;
  }

  void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                    std::size_t count) override {
    const FlatRequest* reqs =
        block_->requests.data() + block_->req_off[scan_index];
    const SimTime at = view_->at();
    for (std::size_t k = 0; k < count; ++k) {
      (void)sim_->EnqueueRead(reads[k].node, reqs[reads[k].request_index].tuples,
                              at, /*first_use_by_query=*/true);
    }
    if (scan_index + 1 < block_->size()) {
      view_->set_at(ArrivalOf(block_->ids[scan_index + 1]));
    }
  }

 private:
  ClusterSim* sim_;
  const double gap_s_;
  SimTime base_s_ = 0.0;
  const ScanBatch* block_ = nullptr;
  WaitView* view_ = nullptr;
};

/// The routing state of one pass: its own sim (wait state), router, block
/// buffer and scratch, against a read-only ConfigIndex.
struct Plane {
  Plane(const ClusterConfig& config, double gap_s)
      : sim((ClusterSimOptions())), router(), sink(&sim, gap_s) {
    sim.ApplyConfig(config, 0.0, nullptr);
  }

  ClusterSim sim;
  MaxOfMinsRouter router;
  EnqueueSink sink;
  ScanBatch block;
  RouterScratch scratch;
  std::vector<RoutedRead> out;
  std::uint64_t scans_routed = 0;
};

/// Resolves and routes the pending block through `sink` (the plane's own
/// EnqueueSink unless a caller wraps it), then clears it.
void FlushBlock(const ConfigIndex& index, double spt, Plane* plane,
                BatchSink* sink = nullptr) {
  if (plane->block.empty()) return;
  index.ResolveBatchInto(&plane->block);
  WaitView waits(plane->sim.BusyUntil().data(), plane->sim.node_count(),
                 plane->sink.ArrivalOf(plane->block.ids[0]));
  plane->sink.Bind(&plane->block, &waits);
  const Status st = plane->router.RouteBatchInto(
      plane->block, waits, spt, kPhi, &plane->scratch, &plane->out,
      sink != nullptr ? sink : &plane->sink);
  if (!st.ok()) {
    std::fprintf(stderr, "RouteBatchInto failed: %s\n",
                 std::string(st.message()).c_str());
    std::exit(1);
  }
  plane->scans_routed += plane->block.size();
  plane->block.Clear();
}

/// Admits the first `count` scans in order, flushing whenever the block
/// reaches `batch_cap` and once more at the end: the driver's loop.
void RouteScans(const ConfigIndex& index, const std::vector<Scan>& scans,
                std::size_t count, std::size_t batch_cap, double spt,
                Plane* plane, BatchSink* sink = nullptr) {
  for (std::size_t i = 0; i < count; ++i) {
    plane->block.AddScan(i, scans[i]);
    if (plane->block.size() >= batch_cap) FlushBlock(index, spt, plane, sink);
  }
  FlushBlock(index, spt, plane, sink);
}

// ------------------------------------------------------ identity check

/// What the reference pass of VerifyIdentity routed.
struct Regime {
  double requests_per_scan = 0.0;
  double candidates_per_request = 0.0;
  /// Share of reads whose node was idle when their scan was routed.
  double idle_read_frac = 0.0;
};

/// Routes the scans one by one, each as a one-scan block through
/// RouteBatchInto (the driver's path at block size 1), and through fixed
/// blocks of `batch_cap`, both from fresh sims with scan arrivals `gap_s`
/// apart, and requires identical read streams and bit-identical final
/// busy-until state. Guards the bench itself: both pipelines must measure
/// the same computation.
Regime VerifyIdentity(const ClusterConfig& config, const ConfigIndex& index,
                      const std::vector<Scan>& scans, std::size_t batch_cap,
                      double spt, double gap_s) {
  // Scalar reference.
  ClusterSim ref_sim((ClusterSimOptions()));
  ref_sim.ApplyConfig(config, 0.0, nullptr);
  MaxOfMinsRouter ref_router;
  ScanBatch one;
  RouterScratch router_scratch;
  std::vector<RoutedRead> ref_out;
  std::vector<NodeId> ref_nodes;
  std::size_t routed_scans = 0, requests = 0, candidates = 0, idle_reads = 0;
  for (std::size_t id = 0; id < scans.size(); ++id) {
    one.Clear();
    one.AddScan(id, scans[id]);
    index.ResolveBatchInto(&one);
    const RequestBatch reqs = one.ScanRequests(0);
    if (reqs.count == 0) continue;
    const SimTime at = gap_s * static_cast<double>(id);
    const WaitView waits(ref_sim.BusyUntil().data(), ref_sim.node_count(),
                         at);
    const Status st = ref_router.RouteBatchInto(
        one, waits, spt, kPhi, &router_scratch, &ref_out, nullptr);
    if (!st.ok()) {
      std::fprintf(stderr, "identity: one-scan block failed to route\n");
      std::exit(1);
    }
    ++routed_scans;
    requests += reqs.count;
    for (std::size_t i = 0; i < reqs.count; ++i) {
      candidates += reqs.requests[i].cand_count;
    }
    // Waits as the scan saw them, before any of its reads enqueue.
    for (const RoutedRead& r : ref_out) idle_reads += waits.At(r.node) == 0.0;
    for (const RoutedRead& r : ref_out) {
      ref_nodes.push_back(r.node);
      (void)ref_sim.EnqueueRead(r.node, reqs.requests[r.request_index].tuples,
                                at, true);
    }
  }

  // Batched, deterministic fixed blocks.
  Plane plane(config, gap_s);
  std::vector<NodeId> got_nodes;
  class CollectSink : public BatchSink {
   public:
    CollectSink(EnqueueSink* inner, std::vector<NodeId>* nodes)
        : inner_(inner), nodes_(nodes) {}
    void OnScanRouted(std::size_t scan_index, const RoutedRead* reads,
                      std::size_t count) override {
      for (std::size_t k = 0; k < count; ++k) nodes_->push_back(reads[k].node);
      inner_->OnScanRouted(scan_index, reads, count);
    }
   private:
    EnqueueSink* inner_;
    std::vector<NodeId>* nodes_;
  };
  CollectSink sink(&plane.sink, &got_nodes);
  RouteScans(index, scans, scans.size(), batch_cap, spt, &plane, &sink);

  if (got_nodes != ref_nodes) {
    std::fprintf(stderr, "route identity violated (read streams differ)\n");
    std::exit(1);
  }
  if (plane.sim.BusyUntil() != ref_sim.BusyUntil()) {
    std::fprintf(stderr, "route identity violated (busy-until differs)\n");
    std::exit(1);
  }
  Regime regime;
  if (requests > 0) {
    regime.requests_per_scan =
        static_cast<double>(requests) / static_cast<double>(routed_scans);
    regime.candidates_per_request =
        static_cast<double>(candidates) / static_cast<double>(requests);
    regime.idle_read_frac =
        static_cast<double>(idle_reads) / static_cast<double>(ref_nodes.size());
  }
  return regime;
}

// ------------------------------------------------------------ measurement

struct PointResult {
  std::size_t batch = 0;
  double scans_per_sec = 0.0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

PointResult MeasurePoint(const ClusterConfig& config, const ConfigIndex& index,
                         const std::vector<Scan>& scans, std::size_t batch_cap,
                         double spt, double gap_s) {
  PointResult point;
  point.batch = batch_cap;

  // Warm-up: page code in and grow the block/scratch/out buffers to
  // steady-state capacity, off the clock.
  Plane plane(config, gap_s);
  RouteScans(index, scans, std::min<std::size_t>(scans.size(), 4096),
             batch_cap, spt, &plane);
  plane.scans_routed = 0;
  plane.sink.NextPass(scans.size());

  // Throughput: two clock reads around each whole pass. Best of
  // kThroughputReps passes: the point is the plane's speed, not the
  // host's background load, and min-time is the standard noise-robust
  // estimator for that.
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kThroughputReps; ++rep) {
    const auto t0 = Clock::now();
    RouteScans(index, scans, scans.size(), batch_cap, spt, &plane);
    const auto t1 = Clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    plane.sink.NextPass(scans.size());
  }
  if (plane.scans_routed != scans.size() * kThroughputReps) {
    std::fprintf(stderr, "lost scans: routed %llu of %zu\n",
                 static_cast<unsigned long long>(plane.scans_routed),
                 scans.size() * kThroughputReps);
    std::exit(1);
  }
  point.scans_per_sec = static_cast<double>(scans.size()) / best_s;

  // Tails: a separate pass from a fresh sim with deterministic fixed
  // blocks, per-block timed — ns/scan within each block, so per-scan
  // timer overhead never touches the throughput number above.
  Plane timed(config, gap_s);
  std::vector<double> samples_ns;
  const auto flush_timed = [&] {
    const std::size_t n = timed.block.size();
    const auto b0 = Clock::now();
    FlushBlock(index, spt, &timed);
    const auto b1 = Clock::now();
    samples_ns.push_back(
        std::chrono::duration<double, std::nano>(b1 - b0).count() /
        static_cast<double>(n));
  };
  for (std::size_t i = 0; i < scans.size(); ++i) {
    timed.block.AddScan(i, scans[i]);
    if (timed.block.size() >= batch_cap) flush_timed();
  }
  if (!timed.block.empty()) flush_timed();
  if (!samples_ns.empty()) {
    std::sort(samples_ns.begin(), samples_ns.end());
    point.p50_ns = samples_ns[samples_ns.size() / 2];
    point.p99_ns = samples_ns[samples_ns.size() * 99 / 100];
  }
  return point;
}

void Run(bool smoke, const std::string& out_path) {
  const std::size_t n_scans = smoke ? 8'000 : 200'000;
  Rng rng(0xda7a);
  const ClusterConfig config = MakeConfig(&rng, kSkewLayout, kNodes, 1, 3);
  const ConfigIndex index(config);
  const std::vector<Scan> scans = MakeScans(n_scans, &rng);
  const ClusterSimOptions sim_opts;
  const double spt = 1.0 / sim_opts.tuples_per_second;

  std::printf("data-plane throughput, router=max_of_mins, %zu scans, "
              "%zu tables, %zu nodes%s\n",
              n_scans, kTables, kNodes, smoke ? " (smoke)" : "");
  std::printf("%-8s %15s %12s  p50/p99 ns\n", "batch", "scans/s",
              "vs batch 1");

  std::vector<PointResult> sweep;
  double baseline = 0.0;
  for (const std::size_t batch : {1u, 16u, 64u, 256u}) {
    VerifyIdentity(config, index, scans, batch, spt, /*gap_s=*/0.0);
    const PointResult point =
        MeasurePoint(config, index, scans, batch, spt, /*gap_s=*/0.0);
    if (batch == 1) baseline = point.scans_per_sec;
    std::printf("%-8zu %15.0f %11.2fx  %.0f/%.0f\n", point.batch,
                point.scans_per_sec, point.scans_per_sec / baseline,
                point.p50_ns, point.p99_ns);
    sweep.push_back(point);
  }

  // Replication x load: the same scans over 128 nodes, batch 256.
  struct WidePoint {
    std::size_t replicas = 0;
    bool idle = false;
    Regime regime;
    PointResult point;
  };
  std::vector<WidePoint> wide;
  std::printf("\nreplication x load: batch 256, %zu nodes\n", kWideNodes);
  std::printf("%-9s %-10s %9s %11s %15s  p50/p99 ns\n", "replicas", "load",
              "cand/req", "idle reads", "scans/s");
  Rng wide_rng(0x3ade);
  for (const std::size_t replicas : kWideReplicas) {
    const ClusterConfig wide_config =
        MakeConfig(&wide_rng, kSkewLayout, kWideNodes, replicas - 1,
                   replicas + 1);
    const ConfigIndex wide_index(wide_config);
    for (const bool idle : {true, false}) {
      const double gap_s = idle ? kIdleGapS : 0.0;
      WidePoint wp;
      wp.replicas = replicas;
      wp.idle = idle;
      wp.regime =
          VerifyIdentity(wide_config, wide_index, scans, 256, spt, gap_s);
      wp.point = MeasurePoint(wide_config, wide_index, scans, 256, spt, gap_s);
      std::printf("~%-8zu %-10s %9.1f %11.3f %15.0f  %.0f/%.0f\n", replicas,
                  idle ? "idle" : "saturated",
                  wp.regime.candidates_per_request, wp.regime.idle_read_frac,
                  wp.point.scans_per_sec, wp.point.p50_ns, wp.point.p99_ns);
      wide.push_back(wp);
    }
  }

  // real2's regime: wide scans over ~62 candidates, saturated.
  const std::size_t n_real2 = smoke ? 200 : 4'000;
  Rng real2_rng(0x4ea2);
  const ClusterConfig real2_config =
      MakeConfig(&real2_rng, kReal2Layout, kReal2Nodes, kReal2Replicas - 1,
                 kReal2Replicas + 1);
  const ConfigIndex real2_index(real2_config);
  const std::vector<Scan> real2_scans = MakeReal2Scans(n_real2, &real2_rng);
  const Regime real2_regime = VerifyIdentity(real2_config, real2_index,
                                             real2_scans, 256, spt, 0.0);
  const PointResult real2_point = MeasurePoint(
      real2_config, real2_index, real2_scans, 256, spt, /*gap_s=*/0.0);
  std::printf("\nreal2 shape: batch 256, %zu nodes, %zu scans of "
              "%zu-%zu fragments, saturated\n",
              kReal2Nodes, n_real2, kReal2MinWidth, kReal2MaxWidth);
  std::printf("%9.1f req/scan %9.1f cand/req %15.0f scans/s  %.0f/%.0f ns\n",
              real2_regime.requests_per_scan,
              real2_regime.candidates_per_request, real2_point.scans_per_sec,
              real2_point.p50_ns, real2_point.p99_ns);

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"data_plane\",\n");
  std::fprintf(f, "  \"router\": \"max_of_mins\",\n");
  std::fprintf(f, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(f, "  \"scans\": %zu,\n  \"tables\": %zu,\n", n_scans, kTables);
  std::fprintf(f, "  \"node_count\": %zu,\n", kNodes);
  std::fprintf(f, "  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"baseline_scans_per_sec\": %.1f,\n", baseline);
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& p = sweep[i];
    std::fprintf(f,
                 "    {\"batch\": %zu, \"scans_per_sec\": %.1f, "
                 "\"p50_ns\": %.1f, \"p99_ns\": %.1f}%s\n",
                 p.batch, p.scans_per_sec, p.p50_ns, p.p99_ns,
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"replication_load_note\": \"batch 256, the same scans "
               "over %zu nodes; idle: scan arrivals %.0f s apart, so every "
               "queue drains in between; saturated: every scan at time "
               "0\",\n",
               kWideNodes, kIdleGapS);
  std::fprintf(f, "  \"replication_load\": [\n");
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const WidePoint& w = wide[i];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"replicas_mean\": %zu, "
                 "\"load\": \"%s\", \"candidates_per_request\": %.1f, "
                 "\"idle_read_frac\": %.3f,\n     \"batch\": 256, "
                 "\"scans_per_sec\": %.1f, \"p50_ns\": %.1f, "
                 "\"p99_ns\": %.1f}%s\n",
                 kWideNodes, w.replicas, w.idle ? "idle" : "saturated",
                 w.regime.candidates_per_request, w.regime.idle_read_frac,
                 w.point.scans_per_sec, w.point.p50_ns, w.point.p99_ns,
                 i + 1 < wide.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"real2_shape\": {\"nodes\": %zu, \"replicas_mean\": %zu, "
               "\"load\": \"saturated\", \"scans\": %zu, "
               "\"requests_per_scan\": %.1f, "
               "\"candidates_per_request\": %.1f,\n   \"batch\": 256, "
               "\"scans_per_sec\": %.1f, \"p50_ns\": %.1f, "
               "\"p99_ns\": %.1f}\n}\n",
               kReal2Nodes, kReal2Replicas, n_real2,
               real2_regime.requests_per_scan,
               real2_regime.candidates_per_request, real2_point.scans_per_sec,
               real2_point.p50_ns, real2_point.p99_ns);
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());
}

}  // namespace
}  // namespace nashdb

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_data_plane.json";
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
