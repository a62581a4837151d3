// Batched + sharded data-plane benchmark (DESIGN.md §11): aggregate
// routing throughput of the SPSC-fed shard pipeline — producer thread
// partitioning scans by table hash into per-shard lock-free rings, shard
// consumers draining in bulk, accumulating `ScanBatch` blocks and routing
// them with `RouteBatchInto` against live per-shard `ClusterSim` wait
// state — swept over batch size {1, 16, 64, 256} × shard count
// {1, 2, 4, 8}.
//
// The workload is 16 tables with the paper's skew (most scans read a
// small hot range, a minority sweep many fragments), one shared immutable
// ConfigIndex, MaxOfMins routing, 16 nodes with 1-3 replicas per fragment
// and every scan arriving at time 0, so queues only grow. A second sweep
// routes the same scans at 1 shard and batch 256 over 128 nodes with ~4,
// ~32 and ~126 replicas per fragment (the streaming workload's regime),
// once with arrivals a second apart, so nodes drain between scans and
// candidates tie at phi, and once saturated. A last point is real2's
// regime: 130 nodes, ~62 replicas per fragment and scans of 17-150
// fragments, saturated, so every scan takes the Max-of-mins router's
// wide core (more than 16 requests). Before any timing, every
// point verifies route identity: the batched pipeline (fixed blocks,
// fresh sims) must schedule every read of every shard partition onto
// exactly the node that routing each scan as its own block picks, and
// leave bit-identical busy-until state. Timing then measures the threaded
// pipeline with two clock reads around the whole run (aggregate
// scans/s); per-shard p50/p99 ns/scan come from a separate
// single-threaded per-block-timed sampling pass so no timer overhead
// pollutes the throughput numbers.
//
// Batch size 1 is the driver at route_batch_size 1: the shard consumer
// pops one scan per ring transaction and routes it as a one-scan block —
// ResolveBatchInto + WaitView + RouteBatchInto + per-read enqueue. Batch
// > 1 adds bulk ring drains and amortizes the block-level SoA resolve
// (O(1) table-span lookup) and RouteBatchInto's scratch bind and virtual
// dispatch over the block. The headline comparison is 4 shards/batch 256
// against the 1-shard/batch-1 baseline; on the 1-core target container
// the win is the cheaper batched kernel and block amortization, not
// parallelism. The saturated ~126-replica point is the worst case for
// the Max-of-mins sweep's early stop: no candidate ever reaches its lower
// bound, so every sweep runs to the end. Writes BENCH_data_plane.json
// for the CI artifact.
//
// Flags: --smoke (tiny scan count for CI), --out=PATH (JSON path,
// default BENCH_data_plane.json).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "cluster/sim.h"
#include "common/query.h"
#include "common/random.h"
#include "common/spsc_queue.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/config_index.h"
#include "engine/sharded_driver.h"
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
constexpr std::size_t kRingCapacity = 1024;
constexpr std::size_t kPopChunk = 32;
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

// ------------------------------------------------------------- shard lane

/// Enqueues every routed read into the shard's sim at its scan's arrival,
/// as the serial driver's sink does — the WaitView aliases the sim's
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

/// One shard's private routing state: its own sim (wait state), router,
/// block buffer, and scratch — nothing shared with other lanes except the
/// read-only ConfigIndex.
struct ShardLane {
  ShardLane(const ClusterConfig& config, double gap_s)
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

void FlushBlock(const ConfigIndex& index, double spt, ShardLane* lane) {
  if (lane->block.empty()) return;
  index.ResolveBatchInto(&lane->block);
  WaitView waits(lane->sim.BusyUntil().data(), lane->sim.node_count(),
                 lane->sink.ArrivalOf(lane->block.ids[0]));
  lane->sink.Bind(&lane->block, &waits);
  const Status st =
      lane->router.RouteBatchInto(lane->block, waits, spt, kPhi,
                                  &lane->scratch, &lane->out, &lane->sink);
  if (!st.ok()) {
    std::fprintf(stderr, "RouteBatchInto failed: %s\n",
                 std::string(st.message()).c_str());
    std::exit(1);
  }
  lane->scans_routed += lane->block.size();
  lane->block.Clear();
}

/// Shard consumer, batched (batch_cap > 1): bulk-drains the ring,
/// accumulates the block, flushes when full; after the producer's done
/// flag, one more drain settles the question (done is released after the
/// last push) and the tail block is flushed.
void ShardLoopBatched(SpscQueue<std::uint32_t>* ring,
                      const std::atomic<bool>* done, const ConfigIndex& index,
                      const std::vector<Scan>& scans, std::size_t batch_cap,
                      double spt, ShardLane* lane) {
  std::uint32_t buf[kPopChunk];
  for (;;) {
    std::size_t n = ring->TryPopBulk(buf, kPopChunk);
    if (n == 0) {
      if (done->load(std::memory_order_acquire)) {
        n = ring->TryPopBulk(buf, kPopChunk);
        if (n == 0) {
          FlushBlock(index, spt, lane);
          return;
        }
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      lane->block.AddScan(buf[i], scans[buf[i]]);
      if (lane->block.size() >= batch_cap) FlushBlock(index, spt, lane);
    }
  }
}

/// Shard consumer, per-scan (batch_cap == 1): one scan per ring
/// transaction, routed as a one-scan block — the data plane exactly as
/// the serial driver runs it at route_batch_size 1.
void ShardLoopScalar(SpscQueue<std::uint32_t>* ring,
                     const std::atomic<bool>* done, const ConfigIndex& index,
                     const std::vector<Scan>& scans, double spt,
                     ShardLane* lane) {
  std::uint32_t id = 0;
  for (;;) {
    if (!ring->TryPop(&id)) {
      if (done->load(std::memory_order_acquire)) {
        if (!ring->TryPop(&id)) return;
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    lane->block.AddScan(id, scans[id]);
    FlushBlock(index, spt, lane);
  }
}

void ShardLoop(SpscQueue<std::uint32_t>* ring, const std::atomic<bool>* done,
               const ConfigIndex& index, const std::vector<Scan>& scans,
               std::size_t batch_cap, double spt, ShardLane* lane) {
  if (batch_cap <= 1) {
    ShardLoopScalar(ring, done, index, scans, spt, lane);
  } else {
    ShardLoopBatched(ring, done, index, scans, batch_cap, spt, lane);
  }
}

// ------------------------------------------------------ identity check

/// What the reference pass of VerifyIdentity routed.
struct Regime {
  double requests_per_scan = 0.0;
  double candidates_per_request = 0.0;
  /// Share of reads whose node was idle when their scan was routed.
  double idle_read_frac = 0.0;
};

/// Routes one shard partition scan by scan, each as a one-scan block
/// through RouteBatchInto (the driver's path at block size 1), and
/// batched through fixed blocks of `batch_cap`, both from fresh sims with
/// scan arrivals `gap_s` apart, and requires identical read streams and
/// bit-identical final busy-until state. Guards the bench itself: both
/// pipelines must measure the same computation.
Regime VerifyIdentity(const ClusterConfig& config, const ConfigIndex& index,
                      const std::vector<Scan>& scans,
                      const std::vector<std::uint32_t>& partition,
                      std::size_t batch_cap, double spt, double gap_s) {
  // Scalar reference.
  ClusterSim ref_sim((ClusterSimOptions()));
  ref_sim.ApplyConfig(config, 0.0, nullptr);
  MaxOfMinsRouter ref_router;
  ScanBatch one;
  RouterScratch router_scratch;
  std::vector<RoutedRead> ref_out;
  std::vector<NodeId> ref_nodes;
  std::size_t routed_scans = 0, requests = 0, candidates = 0, idle_reads = 0;
  for (const std::uint32_t id : partition) {
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

  // Batched pipeline, deterministic fixed blocks.
  ShardLane lane(config, gap_s);
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
  CollectSink sink(&lane.sink, &got_nodes);
  const auto flush = [&] {
    if (lane.block.empty()) return;
    index.ResolveBatchInto(&lane.block);
    WaitView waits(lane.sim.BusyUntil().data(), lane.sim.node_count(),
                   lane.sink.ArrivalOf(lane.block.ids[0]));
    lane.sink.Bind(&lane.block, &waits);
    const Status st =
        lane.router.RouteBatchInto(lane.block, waits, spt, kPhi,
                                   &lane.scratch, &lane.out, &sink);
    if (!st.ok()) {
      std::fprintf(stderr, "identity: RouteBatchInto failed\n");
      std::exit(1);
    }
    lane.block.Clear();
  };
  for (const std::uint32_t id : partition) {
    lane.block.AddScan(id, scans[id]);
    if (lane.block.size() >= batch_cap) flush();
  }
  flush();

  if (got_nodes != ref_nodes) {
    std::fprintf(stderr, "route identity violated (read streams differ)\n");
    std::exit(1);
  }
  if (lane.sim.BusyUntil() != ref_sim.BusyUntil()) {
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

struct ShardStats {
  std::size_t shard = 0;
  std::uint64_t scans = 0;
  double p50_ns = 0.0;
  double p99_ns = 0.0;
};

struct PointResult {
  std::size_t shards = 0;
  std::size_t batch = 0;
  double scans_per_sec = 0.0;
  std::vector<ShardStats> per_shard;
};

PointResult MeasurePoint(const ClusterConfig& config, const ConfigIndex& index,
                         const std::vector<Scan>& scans,
                         const std::vector<std::vector<std::uint32_t>>&
                             partitions,
                         std::size_t shards, std::size_t batch_cap,
                         double spt, double gap_s) {
  PointResult point;
  point.shards = shards;
  point.batch = batch_cap;

  std::vector<std::unique_ptr<ShardLane>> lanes;
  std::vector<std::unique_ptr<SpscQueue<std::uint32_t>>> rings;
  for (std::size_t s = 0; s < shards; ++s) {
    lanes.push_back(std::make_unique<ShardLane>(config, gap_s));
    rings.push_back(std::make_unique<SpscQueue<std::uint32_t>>(kRingCapacity));
  }

  // Warm-up: page code in and grow every lane's block/scratch/out buffers
  // to steady-state capacity, off the clock, single-threaded.
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<std::uint32_t>& part = partitions[s];
    const std::size_t warm = std::min<std::size_t>(part.size(), 4096);
    ShardLane* lane = lanes[s].get();
    for (std::size_t i = 0; i < warm; ++i) {
      lane->block.AddScan(part[i], scans[part[i]]);
      if (lane->block.size() >= batch_cap) FlushBlock(index, spt, lane);
    }
    FlushBlock(index, spt, lane);
    lane->scans_routed = 0;
    lane->sink.NextPass(scans.size());
  }

  // Throughput: the real pipeline — producer partitioning into the rings,
  // one consumer thread per shard — two clock reads around the whole run.
  // Best of kThroughputReps repetitions: the point is the plane's speed,
  // not the host's background load, and min-time is the standard
  // noise-robust estimator for that.
  std::vector<std::size_t> shard_of(scans.size());
  for (std::size_t i = 0; i < scans.size(); ++i) {
    shard_of[i] = ShardOfTable(scans[i].table, shards);
  }
  double best_s = std::numeric_limits<double>::infinity();
  for (std::size_t rep = 0; rep < kThroughputReps; ++rep) {
    std::atomic<bool> done{false};
    std::vector<std::thread> threads;
    threads.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      threads.emplace_back(ShardLoop, rings[s].get(), &done, std::cref(index),
                           std::cref(scans), batch_cap, spt, lanes[s].get());
    }
    const auto t0 = Clock::now();
    if (batch_cap <= 1) {
      // Per-scan admission, matching the per-scan plane downstream.
      for (std::size_t i = 0; i < scans.size(); ++i) {
        SpscQueue<std::uint32_t>* ring = rings[shard_of[i]].get();
        while (!ring->TryPush(static_cast<std::uint32_t>(i))) {
          std::this_thread::yield();
        }
      }
    } else {
      // Batched admission: the `--batch` knob configures the plane end to
      // end, so the producer stages ids per shard and hands each chunk to
      // the ring with one bulk push. Staging preserves per-shard FIFO
      // order — ids enter a shard's buffer in global order and flush in
      // order — so the routed streams are untouched.
      const std::size_t chunk = std::min<std::size_t>(batch_cap, 64);
      std::vector<std::vector<std::uint32_t>> staging(shards);
      for (auto& st : staging) st.reserve(chunk);
      const auto flush_shard = [&](std::size_t s) {
        const std::vector<std::uint32_t>& st = staging[s];
        std::size_t pushed = 0;
        while (pushed < st.size()) {
          const std::size_t n =
              rings[s]->TryPushBulk(st.data() + pushed, st.size() - pushed);
          if (n == 0) std::this_thread::yield();
          pushed += n;
        }
        staging[s].clear();
      };
      for (std::size_t i = 0; i < scans.size(); ++i) {
        const std::size_t s = shard_of[i];
        staging[s].push_back(static_cast<std::uint32_t>(i));
        if (staging[s].size() >= chunk) flush_shard(s);
      }
      for (std::size_t s = 0; s < shards; ++s) flush_shard(s);
    }
    done.store(true, std::memory_order_release);
    for (std::thread& t : threads) t.join();
    const auto t1 = Clock::now();
    best_s = std::min(best_s, std::chrono::duration<double>(t1 - t0).count());
    for (const auto& lane : lanes) lane->sink.NextPass(scans.size());
  }

  std::uint64_t routed = 0;
  for (const auto& lane : lanes) routed += lane->scans_routed;
  if (routed != scans.size() * kThroughputReps) {
    std::fprintf(stderr, "lost scans: routed %llu of %zu\n",
                 static_cast<unsigned long long>(routed),
                 scans.size() * kThroughputReps);
    std::exit(1);
  }
  point.scans_per_sec = static_cast<double>(scans.size()) / best_s;

  // Tails: a separate single-threaded sampling pass per shard with
  // deterministic fixed blocks, per-block timed — ns/scan within each
  // block, so per-scan timer overhead never touches the throughput
  // number above.
  for (std::size_t s = 0; s < shards; ++s) {
    const std::vector<std::uint32_t>& part = partitions[s];
    ShardStats stats;
    stats.shard = s;
    stats.scans = part.size();
    if (!part.empty()) {
      ShardLane lane(config, gap_s);
      std::vector<double> samples_ns;
      const auto flush_timed = [&] {
        if (lane.block.empty()) return;
        const std::size_t n = lane.block.size();
        const auto b0 = Clock::now();
        FlushBlock(index, spt, &lane);
        const auto b1 = Clock::now();
        samples_ns.push_back(
            std::chrono::duration<double, std::nano>(b1 - b0).count() /
            static_cast<double>(n));
      };
      for (const std::uint32_t id : part) {
        lane.block.AddScan(id, scans[id]);
        if (lane.block.size() >= batch_cap) flush_timed();
      }
      flush_timed();
      std::sort(samples_ns.begin(), samples_ns.end());
      stats.p50_ns = samples_ns[samples_ns.size() / 2];
      stats.p99_ns = samples_ns[samples_ns.size() * 99 / 100];
    }
    point.per_shard.push_back(stats);
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
  std::printf("%-8s %-8s %15s %12s  per-shard p50/p99 ns\n", "shards",
              "batch", "scans/s", "speedup");

  std::vector<PointResult> sweep;
  double baseline = 0.0;
  for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
    // Partition once per shard count: the table-hash partitioner is
    // deterministic, so every batch size sees the same split.
    std::vector<std::vector<std::uint32_t>> partitions(shards);
    for (std::size_t i = 0; i < scans.size(); ++i) {
      partitions[ShardOfTable(scans[i].table, shards)].push_back(
          static_cast<std::uint32_t>(i));
    }
    for (const std::size_t batch : {1u, 16u, 64u, 256u}) {
      for (std::size_t s = 0; s < shards; ++s) {
        VerifyIdentity(config, index, scans, partitions[s], batch, spt,
                       /*gap_s=*/0.0);
      }
      PointResult point = MeasurePoint(config, index, scans, partitions,
                                       shards, batch, spt, /*gap_s=*/0.0);
      if (shards == 1 && batch == 1) baseline = point.scans_per_sec;
      std::printf("%-8zu %-8zu %15.0f %11.2fx ", point.shards, point.batch,
                  point.scans_per_sec, point.scans_per_sec / baseline);
      for (const ShardStats& st : point.per_shard) {
        std::printf(" [%zu] %.0f/%.0f", st.shard, st.p50_ns, st.p99_ns);
      }
      std::printf("\n");
      sweep.push_back(std::move(point));
    }
  }

  double best4 = 0.0;
  for (const PointResult& p : sweep) {
    if (p.shards == 4 && p.batch == 256) best4 = p.scans_per_sec;
  }
  std::printf("\n4-shard/batch-256 vs 1-shard/batch-1 baseline: %.2fx\n",
              best4 / baseline);

  // Replication x load: the same scans over 128 nodes, 1 shard, batch 256.
  struct WidePoint {
    std::size_t replicas = 0;
    bool idle = false;
    Regime regime;
    PointResult point;
  };
  std::vector<WidePoint> wide;
  std::printf("\nreplication x load: 1 shard, batch 256, %zu nodes\n",
              kWideNodes);
  std::printf("%-9s %-10s %9s %11s %15s  p50/p99 ns\n", "replicas", "load",
              "cand/req", "idle reads", "scans/s");
  Rng wide_rng(0x3ade);
  std::vector<std::vector<std::uint32_t>> one_shard(
      1, std::vector<std::uint32_t>(scans.size()));
  std::iota(one_shard[0].begin(), one_shard[0].end(), std::uint32_t{0});
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
      wp.regime = VerifyIdentity(wide_config, wide_index, scans, one_shard[0],
                                 256, spt, gap_s);
      wp.point = MeasurePoint(wide_config, wide_index, scans, one_shard, 1,
                              256, spt, gap_s);
      std::printf("~%-8zu %-10s %9.1f %11.3f %15.0f  %.0f/%.0f\n", replicas,
                  idle ? "idle" : "saturated",
                  wp.regime.candidates_per_request, wp.regime.idle_read_frac,
                  wp.point.scans_per_sec, wp.point.per_shard[0].p50_ns,
                  wp.point.per_shard[0].p99_ns);
      wide.push_back(std::move(wp));
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
  std::vector<std::vector<std::uint32_t>> real2_shard(
      1, std::vector<std::uint32_t>(real2_scans.size()));
  std::iota(real2_shard[0].begin(), real2_shard[0].end(), std::uint32_t{0});
  const Regime real2_regime = VerifyIdentity(
      real2_config, real2_index, real2_scans, real2_shard[0], 256, spt, 0.0);
  const PointResult real2_point =
      MeasurePoint(real2_config, real2_index, real2_scans, real2_shard, 1,
                   256, spt, /*gap_s=*/0.0);
  std::printf("\nreal2 shape: 1 shard, batch 256, %zu nodes, %zu scans of "
              "%zu-%zu fragments, saturated\n",
              kReal2Nodes, n_real2, kReal2MinWidth, kReal2MaxWidth);
  std::printf("%9.1f req/scan %9.1f cand/req %15.0f scans/s  %.0f/%.0f ns\n",
              real2_regime.requests_per_scan,
              real2_regime.candidates_per_request,
              real2_point.scans_per_sec, real2_point.per_shard[0].p50_ns,
              real2_point.per_shard[0].p99_ns);

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
  std::fprintf(f, "  \"speedup_4shard_batch256_vs_baseline\": %.3f,\n",
               best4 / baseline);
  std::fprintf(f,
               "  \"note\": \"speedups are per-core kernel gains only when "
               "hardware_concurrency < shards + 1; shards share no mutable "
               "state, so on a multi-core host the shard axis multiplies on "
               "top of the batch gain\",\n");
  std::fprintf(f, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const PointResult& p = sweep[i];
    std::fprintf(f,
                 "    {\"shards\": %zu, \"batch\": %zu, "
                 "\"scans_per_sec\": %.1f,\n     \"per_shard\": [",
                 p.shards, p.batch, p.scans_per_sec);
    for (std::size_t s = 0; s < p.per_shard.size(); ++s) {
      const ShardStats& st = p.per_shard[s];
      std::fprintf(f,
                   "%s{\"shard\": %zu, \"scans\": %llu, \"p50_ns\": %.1f, "
                   "\"p99_ns\": %.1f}",
                   s == 0 ? "" : ", ", st.shard,
                   static_cast<unsigned long long>(st.scans), st.p50_ns,
                   st.p99_ns);
    }
    std::fprintf(f, "]}%s\n", i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"replication_load_note\": \"1 shard, batch 256, the same "
               "scans over %zu nodes; idle: scan arrivals %.0f s apart, so "
               "every queue drains in between; saturated: every scan at time "
               "0\",\n",
               kWideNodes, kIdleGapS);
  std::fprintf(f, "  \"replication_load\": [\n");
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const WidePoint& w = wide[i];
    const ShardStats& st = w.point.per_shard[0];
    std::fprintf(f,
                 "    {\"nodes\": %zu, \"replicas_mean\": %zu, "
                 "\"load\": \"%s\", \"candidates_per_request\": %.1f, "
                 "\"idle_read_frac\": %.3f,\n     \"shards\": 1, "
                 "\"batch\": 256, \"scans_per_sec\": %.1f, "
                 "\"p50_ns\": %.1f, \"p99_ns\": %.1f}%s\n",
                 kWideNodes, w.replicas, w.idle ? "idle" : "saturated",
                 w.regime.candidates_per_request, w.regime.idle_read_frac,
                 w.point.scans_per_sec, st.p50_ns, st.p99_ns,
                 i + 1 < wide.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  const ShardStats& r2 = real2_point.per_shard[0];
  std::fprintf(f,
               "  \"real2_shape\": {\"nodes\": %zu, \"replicas_mean\": %zu, "
               "\"load\": \"saturated\", \"scans\": %zu, "
               "\"requests_per_scan\": %.1f, "
               "\"candidates_per_request\": %.1f,\n   \"shards\": 1, "
               "\"batch\": 256, \"scans_per_sec\": %.1f, "
               "\"p50_ns\": %.1f, \"p99_ns\": %.1f}\n}\n",
               kReal2Nodes, kReal2Replicas, n_real2,
               real2_regime.requests_per_scan,
               real2_regime.candidates_per_request,
               real2_point.scans_per_sec, r2.p50_ns, r2.p99_ns);
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
