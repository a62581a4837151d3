#include "engine/sharded_driver.h"

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/logging.h"
#include "common/spsc_queue.h"
#include "engine/config_epoch.h"
#include "engine/data_plane.h"
#include "engine/validate.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Queries a shard pops from its ring per iteration (bulk drain — one
/// acquire pays for up to this many queries).
constexpr std::size_t kPopChunk = 32;

/// One node of the epoch chain (DESIGN.md §12). Everything but `next` is
/// immutable once the link is published: the producer builds the
/// ConfigEpoch (config and index) and the transition plan from the
/// previous link's config, then publishes with one release store on the
/// predecessor's `next`; shards follow the chain with acquire loads and
/// only ever read published links. The root link (epoch 0, activate_at 0)
/// carries the bootstrap plan and is visible to every shard before any
/// thread starts.
struct EpochLink {
  EpochLink(std::uint64_t epoch_arg, SimTime at, ClusterConfig config,
            TransitionPlan plan_arg)
      : epoch(epoch_arg, std::move(config)),
        activate_at(at),
        plan(std::move(plan_arg)) {}

  const ConfigEpoch epoch;
  const SimTime activate_at;
  const TransitionPlan plan;  // previous link's config -> this config
  std::atomic<EpochLink*> next{nullptr};
};

/// Everything one shard thread needs, built on the calling thread before
/// the shard starts. The epoch chain and the plane options are shared
/// read-only across all shards (links are immutable once published);
/// queue, done, and the chain's `next` pointers are the only cross-thread
/// channels; the rest is shard-private.
struct ShardTask {
  const EpochLink* chain = nullptr;
  const DriverOptions* plane_options = nullptr;
  SpscQueue<const TimedQuery*>* queue = nullptr;
  const std::atomic<bool>* done = nullptr;
  std::unique_ptr<ScanRouter> router;
  ShardResult result;
};

void ShardMain(ShardTask* t) {
  const EpochLink* link = t->chain;
  ClusterSim sim(t->plane_options->sim);
  sim.ApplyConfig(link->epoch.config(), 0.0, &link->plan);
  RunResult run;
  DataPlane plane(*t->plane_options, &sim, t->router.get(),
                  /*liveness=*/nullptr, &run);

  const TimedQuery* popped[kPopChunk];
  for (;;) {
    std::size_t n = t->queue->TryPopBulk(popped, kPopChunk);
    if (n == 0) {
      if (t->done->load(std::memory_order_acquire)) {
        // The done flag is set only after the last push; its acquire
        // makes every push visible, so one more drain empties the ring.
        n = t->queue->TryPopBulk(popped, kPopChunk);
        if (n == 0) break;
      } else {
        std::this_thread::yield();
        continue;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      const TimedQuery& tq = *popped[i];
      // Epoch adoption at batch boundaries: follow the chain while the
      // next published link activates at or before this query's arrival.
      // The producer publishes a link before pushing the first query with
      // arrival >= its activation (and the ring's release/acquire pair
      // makes the publish visible with the query), so adoption points are
      // a pure function of the shard's own query stream — deterministic
      // regardless of thread timing. The pending block is flushed first,
      // so a routed block never spans epochs.
      for (const EpochLink* nl = link->next.load(std::memory_order_acquire);
           nl != nullptr && tq.arrival >= nl->activate_at;
           nl = link->next.load(std::memory_order_acquire)) {
        plane.Flush();
        sim.ApplyConfig(nl->epoch.config(), nl->activate_at, &nl->plan);
        link = nl;
      }
      plane.Admit(tq, link->epoch);
    }
  }
  plane.Flush();
  t->result.records = std::move(run.records);
  t->result.makespan_s = run.makespan_s;
  t->result.read_tuples = sim.TotalReadTuples();
}

}  // namespace

std::size_t ShardOfTable(TableId table, std::size_t shards) {
  if (shards <= 1) return 0;
  return static_cast<std::size_t>(
      SplitMix64(static_cast<std::uint64_t>(table)) % shards);
}

std::size_t ShardOfQuery(const Query& query, std::size_t shards) {
  if (query.scans.empty()) return 0;
  return ShardOfTable(query.scans.front().table, shards);
}

namespace {

/// Shared body of RunSharded / RunShardedOnline: spins up the shard
/// threads against `root` (the bootstrap link), feeds queries in workload
/// (arrival) order calling `before_push` for each — the online producer's
/// publish hook; a no-op for the single-epoch run — then joins and merges.
///
/// Merge invariant: the record stream is re-interleaved into workload
/// order (each shard's stream preserves it, so a cursor walk suffices);
/// rent and transition copies are per-cluster quantities every shard
/// charged identically — counted once, via a billing sim replaying the
/// published epoch chain — while read volume, real per-shard work, is
/// summed across shards.
ShardedRunResult RunShardedImpl(
    const Workload& workload, EpochLink* root,
    const RouterFactory& router_factory, const ShardedDriverOptions& options,
    const std::function<void(const TimedQuery&)>& before_push) {
  NASHDB_CHECK(router_factory != nullptr);
  const std::size_t shards = std::max<std::size_t>(1, options.shards);
  // Every shard runs the data plane as a fault-free, overload-free,
  // metrics-off serial run that keeps its records.
  DriverOptions plane_options;
  plane_options.sim = options.sim;
  plane_options.phi_s = options.phi_s;
  plane_options.route_batch_size = options.batch_size;
  plane_options.collect_metrics = false;

  std::vector<std::unique_ptr<SpscQueue<const TimedQuery*>>> queues;
  std::vector<ShardTask> tasks(shards);
  std::atomic<bool> done{false};
  queues.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    queues.push_back(std::make_unique<SpscQueue<const TimedQuery*>>(
        std::max<std::size_t>(2, options.queue_capacity)));
    ShardTask& t = tasks[s];
    t.chain = root;
    t.plane_options = &plane_options;
    t.queue = queues[s].get();
    t.done = &done;
    t.router = router_factory();
    NASHDB_CHECK(t.router != nullptr);
    t.result.shard = s;
  }

  std::vector<std::thread> threads;
  threads.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    threads.emplace_back(ShardMain, &tasks[s]);
  }

  // Producer: feed queries in workload (arrival) order; each shard then
  // sees exactly the workload-order subsequence the partitioner assigns
  // it, independent of thread timing.
  for (const TimedQuery& tq : workload.queries) {
    before_push(tq);
    SpscQueue<const TimedQuery*>* q =
        queues[ShardOfQuery(tq.query, shards)].get();
    while (!q->TryPush(&tq)) std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  ShardedRunResult out;
  out.shards.reserve(shards);
  for (ShardTask& t : tasks) out.shards.push_back(std::move(t.result));

  // The sharded plane runs fault-free with records always kept, so the
  // merged stream is complete, and its aggregates are taken in workload
  // order, as a serial run's are.
  RunResult& merged = out.merged;
  std::vector<std::size_t> cursor(shards, 0);
  merged.records.reserve(workload.queries.size());
  for (const TimedQuery& tq : workload.queries) {
    const std::size_t s = ShardOfQuery(tq.query, shards);
    NASHDB_CHECK(cursor[s] < out.shards[s].records.size());
    merged.AddRecord(out.shards[s].records[cursor[s]++], /*keep_record=*/true);
  }
  for (const ShardResult& sr : out.shards) {
    merged.read_tuples += sr.read_tuples;
    merged.makespan_s = std::max(merged.makespan_s, sr.makespan_s);
  }

  // Billing replay over the published chain (the producer is done, so a
  // relaxed walk suffices). Activations never exceed the makespan: a link
  // is only published when a query with arrival >= activate_at was
  // pushed, and that query completes no earlier than it arrives.
  ClusterSim billing(options.sim);
  billing.ApplyConfig(root->epoch.config(), 0.0, &root->plan);
  merged.bootstrap_transfer_tuples = billing.TotalTransferredTuples();
  const EpochLink* last = root;
  for (const EpochLink* l = root->next.load(std::memory_order_relaxed);
       l != nullptr; l = l->next.load(std::memory_order_relaxed)) {
    billing.ApplyConfig(l->epoch.config(), l->activate_at, &l->plan);
    last = l;
  }
  merged.total_cost = billing.AccruedCost(merged.makespan_s);
  merged.transferred_tuples = billing.TotalTransferredTuples();
  merged.transitions = static_cast<std::size_t>(last->epoch.epoch()) + 1;
  merged.final_nodes = last->epoch.config().node_count();
  return out;
}

/// Builds the bootstrap link: epoch 0 at t = 0, planned from an empty
/// cluster, validated before any shard starts.
std::unique_ptr<EpochLink> MakeRootLink(const ClusterConfig& config) {
  ClusterConfig empty;
  TransitionPlan bootstrap = PlanTransition(empty, config);
  NASHDB_VALIDATE_OR_DIE(ValidateConfig(config));
  NASHDB_VALIDATE_OR_DIE(ValidatePlan(bootstrap, empty, config));
  return std::make_unique<EpochLink>(0, 0.0, config, std::move(bootstrap));
}

}  // namespace

ShardedRunResult RunSharded(const Workload& workload,
                            const ClusterConfig& config,
                            const RouterFactory& router_factory,
                            const ShardedDriverOptions& options) {
  // Single-epoch run: the chain is just the bootstrap link and the
  // producer hook does nothing.
  const std::unique_ptr<EpochLink> root = MakeRootLink(config);
  return RunShardedImpl(workload, root.get(), router_factory, options,
                        [](const TimedQuery&) {});
}

ShardedRunResult RunShardedOnline(const Workload& workload,
                                  const ClusterConfig& bootstrap,
                                  const std::vector<ScheduledEpoch>& epochs,
                                  const RouterFactory& router_factory,
                                  const ShardedDriverOptions& options) {
  for (std::size_t i = 0; i < epochs.size(); ++i) {
    NASHDB_CHECK(epochs[i].at > 0.0)
        << "scheduled epoch " << i << " must activate after t=0";
    NASHDB_CHECK(i == 0 || epochs[i - 1].at < epochs[i].at)
        << "scheduled epochs must be sorted by activation time";
  }
  const std::unique_ptr<EpochLink> root = MakeRootLink(bootstrap);

  // The producer hook publishes each scheduled epoch immediately before
  // pushing the first query arriving at or after its activation: the
  // index + plan build runs on the producer thread while the shards keep
  // routing against the current chain, and the single release store below
  // is the publication point shards synchronize with.
  std::vector<std::unique_ptr<EpochLink>> links;  // outlive the shards
  links.reserve(epochs.size());
  EpochLink* tail = root.get();
  std::size_t next_epoch = 0;
  const auto publish_due = [&](const TimedQuery& tq) {
    while (next_epoch < epochs.size() && tq.arrival >= epochs[next_epoch].at) {
      const ScheduledEpoch& se = epochs[next_epoch];
      const ClusterConfig& prev = tail->epoch.config();
      TransitionPlan plan = PlanTransition(prev, se.config);
      NASHDB_VALIDATE_OR_DIE(ValidateConfig(se.config));
      NASHDB_VALIDATE_OR_DIE(ValidatePlan(plan, prev, se.config));
      auto link = std::make_unique<EpochLink>(
          tail->epoch.epoch() + 1, se.at, se.config, std::move(plan));
      EpochLink* raw = link.get();
      links.push_back(std::move(link));
      tail->next.store(raw, std::memory_order_release);
      tail = raw;
      ++next_epoch;
    }
  };
  return RunShardedImpl(workload, root.get(), router_factory, options,
                        publish_due);
}

}  // namespace nashdb
