#include "engine/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/faults.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/stats.h"
#include "engine/config_epoch.h"
#include "engine/data_plane.h"
#include "engine/liveness_overlay.h"
#include "engine/validate.h"
#include "replication/incremental.h"
#include "transition/planner.h"

namespace nashdb {
namespace {

// Emergency repair re-replicates a fragment once fewer than
// min(placed, kRepairMinLive) of its replicas are routable.
constexpr std::size_t kRepairMinLive = 2;

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One in-flight reconfiguration round (DESIGN.md §12): kicked at
/// `boundary` (simulated time), published at the first admission at or
/// after `publish_at`. The future carries the configuration being built
/// (in the background when the system supports it); `dead` is the
/// planning-time dead bitmap captured at the kick. Transition planning
/// runs inline at publish and is charged to the stall.
struct PendingBuild {
  std::future<ClusterConfig> future;
  SimTime boundary = 0.0;
  SimTime publish_at = 0.0;
  std::vector<bool> dead;
  double kick_stall_s = 0.0;
  std::chrono::steady_clock::time_point round_start;
};

/// Completes the §7 transition section of the reconfiguration trace the
/// system just recorded. Baseline systems record no trace of their own; in
/// that case a fresh record is appended so the transition stage is still
/// covered for every round.
void AnnotateTransition(SimTime sim_time_s, bool applied,
                        const TransitionPlan& plan, bool plan_reused,
                        double plan_ms, double total_ms) {
  metrics::Registry& reg = metrics::Registry::Global();
  if (!reg.enabled()) return;
  const auto fill = [&](metrics::ReconfigTrace& tr) {
    tr.sim_time_s = sim_time_s;
    tr.applied = applied;
    tr.total_ms = total_ms;
    tr.planned_transfer_tuples = plan.total_transfer_tuples;
    tr.nodes_added = plan.nodes_added;
    tr.nodes_removed = plan.nodes_removed;
    tr.plan_ms = plan_ms;
    tr.plan_reused = plan_reused;
    tr.plan_used_sparse = plan.stats.used_sparse;
    tr.plan_graph_edges = plan.stats.graph_edges;
    tr.plan_solver_iterations = plan.stats.solver_iterations;
  };
  if (!reg.AnnotateLastReconfig(fill)) {
    metrics::ReconfigTrace tr;
    tr.round = reg.reconfig_count();
    fill(tr);
    reg.RecordReconfig(std::move(tr));
  }
}

}  // namespace

double RunResult::MeanLatency() const {
  if (records.empty()) {
    const std::size_t n = CompletedQueries();
    return n == 0 ? 0.0
                  : completed_latency_sum_s / static_cast<double>(n);
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (const QueryRecord& r : records) {
    if (r.aborted || r.shed) continue;
    sum += r.latency_s;
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

double RunResult::TailLatency(double percentile) const {
  if (records.empty()) return latency_histogram.Percentile(percentile);
  PercentileTracker tracker;
  for (const QueryRecord& r : records) {
    if (!r.aborted && !r.shed) tracker.Add(r.latency_s);
  }
  return tracker.Percentile(percentile);
}

double RunResult::MeanSpan() const {
  if (records.empty()) {
    const std::size_t n = CompletedQueries();
    return n == 0 ? 0.0 : completed_span_sum / static_cast<double>(n);
  }
  double sum = 0.0;
  std::size_t n = 0;
  for (const QueryRecord& r : records) {
    if (r.aborted || r.shed) continue;
    sum += static_cast<double>(r.span);
    ++n;
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

void RunResult::AddRecord(const QueryRecord& record, bool keep_record) {
  ++total_queries;
  if (record.shed) {
    ++shed_queries;
  } else if (record.aborted) {
    ++aborted_queries;
  } else {
    completed_latency_sum_s += record.latency_s;
    completed_span_sum += static_cast<double>(record.span);
    latency_histogram.Add(record.latency_s);
  }
  if (record.shed || record.aborted || record.retries > 0) {
    last_disruption_time_s = std::max(last_disruption_time_s, record.arrival);
  }
  if (keep_record) records.push_back(record);
}

double RetryBackoffSeconds(const FaultOptions& faults, std::size_t attempt) {
  NASHDB_DCHECK(attempt >= 1);
  return std::min(faults.retry_backoff_s *
                      std::pow(2.0, static_cast<double>(attempt - 1)),
                  faults.retry_backoff_cap_s);
}

std::vector<std::pair<double, double>> RunResult::ThroughputPerMinute()
    const {
  std::vector<std::pair<double, double>> series;
  if (records.empty()) return series;
  const std::size_t minutes =
      static_cast<std::size_t>(makespan_s / 60.0) + 1;
  std::vector<double> bins(minutes, 0.0);
  for (const QueryRecord& r : records) {
    const std::size_t m = std::min(
        minutes - 1, static_cast<std::size_t>(r.completion / 60.0));
    bins[m] += static_cast<double>(r.tuples_read);
  }
  series.reserve(minutes);
  for (std::size_t m = 0; m < minutes; ++m) {
    series.emplace_back(static_cast<double>(m), bins[m]);
  }
  return series;
}

namespace {

/// Adapter running a materialized Workload through the streaming core.
class VectorQueryStream : public QueryStream {
 public:
  explicit VectorQueryStream(const Workload& workload)
      : workload_(workload) {}

  bool Next(TimedQuery* out) override {
    if (next_ >= workload_.queries.size()) return false;
    *out = workload_.queries[next_++];
    return true;
  }

 private:
  const Workload& workload_;
  std::size_t next_ = 0;
};

/// The driver core shared by RunWorkload and RunQueryStream: admits
/// queries pulled from `stream` in arrival order. `warmup_observe` must
/// already have been handled by the caller (it needs a second pass over
/// the workload, which only the vector-backed wrapper has).
RunResult RunStream(QueryStream* stream, DistributionSystem* system,
                    ScanRouter* router, const DriverOptions& options) {
  NASHDB_CHECK(stream != nullptr);
  NASHDB_CHECK(system != nullptr);
  NASHDB_CHECK(router != nullptr);
  const SimTime check_interval = options.adaptive_reconfigure
                                     ? options.adaptive_check_interval_s
                                     : options.reconfigure_interval_s;
  // A non-positive interval would never advance the next boundary (the
  // round loop below would spin forever); a NaN window would never
  // publish.
  NASHDB_CHECK(!options.periodic_reconfigure ||
               (std::isfinite(check_interval) && check_interval > 0.0))
      << "reconfiguration interval must be positive and finite, got "
      << check_interval;
  NASHDB_CHECK(std::isfinite(options.online_build_window_s) &&
               options.online_build_window_s >= 0.0)
      << "online_build_window_s must be finite and >= 0, got "
      << options.online_build_window_s;

  RunResult result;
  ClusterSim sim(options.sim);

  const bool collect = options.collect_metrics;
  if (collect) {
    metrics::Registry::Global().Reset();
    metrics::Registry::Global().Enable();
  }

  // Prewarm by buffering the prefix: the prewarmed queries are observed
  // now (before the bootstrap build) and replayed through the admission
  // loop below, where they are observed again — the exact double-observe
  // the materialized path always had. Only the prewarm prefix is ever
  // buffered, so streaming runs stay constant-memory.
  std::deque<TimedQuery> lookahead;
  if (!options.warmup_observe && options.prewarm_scans > 0) {
    std::size_t fed = 0;
    TimedQuery tq;
    while (fed < options.prewarm_scans && stream->Next(&tq)) {
      system->Observe(tq.query);
      fed += tq.query.scans.size();
      lookahead.push_back(std::move(tq));
    }
  }
  const auto next_query = [&](TimedQuery* out) {
    if (!lookahead.empty()) {
      *out = std::move(lookahead.front());
      lookahead.pop_front();
      return true;
    }
    return stream->Next(out);
  };

  // Initial provisioning: build the first configuration and pay for the
  // initial data load (every replica is a fresh copy). The active
  // configuration lives in an epoch bundle (engine/config_epoch.h):
  // bootstrap is epoch 0, every applied transition — periodic publish or
  // emergency repair — replaces `cur` with the next epoch.
  const auto bootstrap_start = std::chrono::steady_clock::now();
  std::unique_ptr<ConfigEpoch> cur;
  {
    ClusterConfig config = system->BuildConfig();
    ClusterConfig empty;
    const auto plan_start = std::chrono::steady_clock::now();
    const TransitionPlan bootstrap = PlanTransition(empty, config);
    const double plan_ms = collect ? MsSince(plan_start) : 0.0;
    // Validating builds: whatever system built `config`, it must be
    // structurally sound, and the bootstrap plan must price a full copy of
    // every node (engine/validate.h).
    NASHDB_VALIDATE_OR_DIE(ValidateConfig(config));
    NASHDB_VALIDATE_OR_DIE(ValidatePlan(bootstrap, empty, config));
    sim.ApplyConfig(config, 0.0, &bootstrap);
    ++result.transitions;
    result.bootstrap_transfer_tuples = sim.TotalTransferredTuples();
    if (collect) {
      metrics::Count("sim.transitions");
      AnnotateTransition(/*sim_time_s=*/0.0, /*applied=*/true, bootstrap,
                         /*plan_reused=*/false, plan_ms,
                         MsSince(bootstrap_start));
    }
    cur = std::make_unique<ConfigEpoch>(0, std::move(config));
  }

  SimTime next_reconfigure = check_interval;

  // --- Fault machinery. All of it is driven from this (serial) loop at
  // simulated-time boundaries, so a given spec + seed replays the exact
  // same fault history regardless of host or reconfiguration threads.
  const bool faults_on = options.faults.spec.Active();
  std::unique_ptr<FaultScheduler> fault_sched;
  if (faults_on) {
    fault_sched = std::make_unique<FaultScheduler>(options.faults.spec,
                                                   options.faults.seed);
  }
  // Event-driven mirror of per-node routability (DESIGN.md §10).
  LivenessOverlay liveness;
  liveness.SyncFrom(sim);

  // --- The query path (DESIGN.md §10–§11): admission, routing, commit
  // and record finalization all run through the data plane; this loop
  // decides only when its block flushes around a fault delivery or a
  // reconfiguration round.
  DataPlane plane(options, &sim, router, liveness, &result);

  // Crash delivery times not yet resolved by a repair/transition, for the
  // faults.time_to_repair_s histogram.
  std::vector<SimTime> pending_crashes;
  // A partition was delivered and no repair has considered it yet. Unlike
  // crashes, partitions are never "settled" by an applied transition (the
  // machine stays partitioned); the flag only arms the repair check.
  bool pending_partition = false;
  // High-water mark of delivered fault time. The admission loop is
  // monotonic, but a round kicked at a boundary the workload skipped past
  // (boundary < the admitting query's arrival, which already had its
  // faults delivered) must clamp rather than rewind the scheduler's clock.
  SimTime fault_clock = 0.0;

  // Delivers every fault due by `at` into the sim. An event changes the
  // state routing reads, so the pending block routes first, against the
  // state before it (DESIGN.md §11); with none due, nothing changes.
  const auto deliver_faults = [&](SimTime at) {
    if (!fault_sched) return;
    fault_clock = std::max(fault_clock, at);
    if (fault_sched->NextEventTime() > fault_clock) return;
    plane.Flush();
    bool any = false;
    for (const FaultEvent& ev : fault_sched->AdvanceTo(fault_clock, &sim)) {
      if (ev.type == FaultType::kCrash) pending_crashes.push_back(ev.time);
      if (ev.type == FaultType::kPartition) pending_partition = true;
      result.last_fault_time_s = std::max(result.last_fault_time_s, ev.time);
      any = true;
    }
    // Liveness can only change when events are actually delivered (or a
    // transition replaces machines, synced at those sites), so the
    // overlay refresh is event-driven, never per-scan.
    if (any) liveness.SyncFrom(sim);
  };

  const auto dead_bitmap = [&](SimTime at) {
    const std::size_t n = cur->config().node_count();
    std::vector<bool> dead(n, false);
    for (NodeId m = 0; m < n; ++m) {
      dead[m] = !sim.NodeAlive(m, at);
    }
    return dead;
  };

  // Alive-but-unroutable nodes (network partitions, DESIGN.md §13).
  const auto partitioned_bitmap = [&](SimTime at) {
    const std::size_t n = cur->config().node_count();
    std::vector<bool> part(n, false);
    for (NodeId m = 0; m < n; ++m) {
      part[m] = sim.NodeAlive(m, at) && !sim.NodeRoutable(m, at);
    }
    return part;
  };

  // True if some placed fragment has fewer *routable* replicas than
  // min(placed, kRepairMinLive) at `at` — the emergency-repair trigger.
  // Partitioned copies don't count: a fragment whose only homes sit
  // behind a partition is exactly as unreadable as one on dead nodes.
  const auto coverage_at_risk = [&](SimTime at) {
    const ClusterConfig& config = cur->config();
    for (FlatFragmentId fid = 0; fid < config.fragments().size(); ++fid) {
      const std::vector<NodeId>& homes = config.FragmentNodes(fid);
      if (homes.empty()) continue;  // deliberately unreplicated
      std::size_t live = 0;
      for (NodeId m : homes) {
        if (sim.NodeRoutable(m, at)) ++live;
      }
      if (live < std::min(homes.size(), kRepairMinLive)) {
        return true;
      }
    }
    return false;
  };

  // An applied transition replaces machines dead at its time with fresh
  // ones (the failure-aware plan prices the re-copy), so it doubles as a
  // repair — but only for crashes delivered at or before the transition's
  // simulated time. A publish applies retroactively at its boundary:
  // crashes from inside the build window were not planned dead (they ride
  // the matching, see ClusterSim::ApplyConfig) and stay pending until a
  // later transition or repair settles them.
  const auto settle_repairs = [&](SimTime at) {
    if (pending_crashes.empty()) return;
    std::size_t kept = 0;
    for (SimTime t : pending_crashes) {
      if (t <= at) {
        if (collect) metrics::Observe("faults.time_to_repair_s", at - t);
      } else {
        pending_crashes[kept++] = t;
      }
    }
    pending_crashes.resize(kept);
  };

  // Re-sends the transfers a fault interrupted mid-transition: each
  // restarted copy is charged to the receiving node's queue again.
  const auto charge_interruptions = [&](const TransitionPlan& plan,
                                        SimTime at) {
    if (!fault_sched) return;
    for (std::size_t i : fault_sched->InterruptedMoves(plan, at)) {
      const NodeTransition& move = plan.moves[i];
      if (move.new_node == kInvalidNode) continue;
      // A receiver that crashed inside the build window is dead at the
      // (retroactive) apply time; the crash wiped its queue, so the
      // re-sent copy is lost with it — nothing to charge. Never taken at
      // a zero window (its plans replace all dead machines).
      if (!sim.NodeAlive(move.new_node, at)) continue;
      sim.ChargeTransfer(move.new_node, move.transfer_tuples, at);
      if (collect) {
        metrics::Count("faults.transfer_interrupts");
        metrics::Count("faults.interrupted_retransfer_tuples",
                       move.transfer_tuples);
      }
    }
  };

  // --- Reconfiguration rounds (paper §6–§7, DESIGN.md §12). Each round is
  // a *kick* at the boundary — flush, deliver faults, snapshot the
  // estimator and start the build (on a background thread when the
  // system supports it) — and a *publish* at the first admission
  // online_build_window_s later, which swaps in the finished ConfigEpoch
  // and applies the transition retroactively at the boundary's simulated
  // time. Both halves run at fixed simulated times, so the record stream
  // never depends on build wall-clock. A zero window publishes right
  // after the kick: the stop-the-world round.
  std::unique_ptr<PendingBuild> pending_build;

  // The last plan, kept when it was planned from `cur`'s configuration to
  // a bit-identical one with no dead node. PlanTransition is a pure
  // function of (old, new, dead), so while publishes keep bringing that
  // same pair the kept plan is the one planning would return (DESIGN.md
  // §15.9). Any other plan, and every emergency repair, drops it; so
  // while it is kept, `cur` holds the configuration it was planned on.
  std::optional<TransitionPlan> repeat_plan;

  // Kicks the next epoch's build at simulated-time `boundary`. Everything
  // that reads cluster state at the boundary (fault delivery, the dead
  // bitmap) happens here on the driver thread; the background task only
  // reads the heap-pinned PendingBuild and the current (immutable) epoch.
  const auto kick_build = [&](SimTime boundary) {
    NASHDB_DCHECK(pending_build == nullptr);
    // Everything admitted before the boundary routes against the
    // outgoing configuration and its pre-transition queue state.
    plane.Flush();
    // The transition must see the cluster's true liveness at its time.
    deliver_faults(boundary);
    auto pb = std::make_unique<PendingBuild>();
    pb->boundary = boundary;
    pb->publish_at = boundary + options.online_build_window_s;
    pb->round_start = std::chrono::steady_clock::now();
    if (faults_on) pb->dead = dead_bitmap(boundary);
    // The only inline work of an asynchronous build is the estimator
    // snapshot (plus the thread spawn); the build itself overlaps with
    // routing.
    pb->future = system->BuildConfigAsync();
    pb->kick_stall_s = SecondsSince(pb->round_start);
    pending_build = std::move(pb);
  };

  // Publishes the pending epoch: waits out any residual build time,
  // flushes scans admitted inside the window (they route against the
  // outgoing epoch), then applies the transition at the kicking
  // boundary's simulated time.
  const auto publish_epoch = [&]() {
    NASHDB_DCHECK(pending_build != nullptr);
    PendingBuild& pb = *pending_build;
    double stall_s = pb.kick_stall_s;
    if (pb.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      const auto wait_start = std::chrono::steady_clock::now();
      pb.future.wait();
      stall_s += SecondsSince(wait_start);
    }
    ClusterConfig next = pb.future.get();
    // Planning runs inline (it is a sliver of the build) and is charged
    // to the stall like the residual build wait above.
    const auto plan_start = std::chrono::steady_clock::now();
    const std::vector<bool>* dead = faults_on ? &pb.dead : nullptr;
    const bool any_dead =
        std::find(pb.dead.begin(), pb.dead.end(), true) != pb.dead.end();
    const bool repeat = !any_dead && next.BitIdentical(cur->config());
    const bool plan_reused = repeat && repeat_plan.has_value();
    TransitionPlan plan;
    if (plan_reused) {
      plan = *repeat_plan;
      // Validating builds: the kept plan must be what planning returns.
      NASHDB_VALIDATE_OR_DIE(ValidateReusedPlan(
          plan, PlanTransition(cur->config(), next, dead)));
      metrics::Count("transition.reused_plans");
    } else {
      plan = PlanTransition(cur->config(), next, dead);
      if (repeat) {
        repeat_plan = plan;
      } else {
        repeat_plan.reset();
      }
    }
    NASHDB_VALIDATE_OR_DIE(ValidateConfig(next));
    NASHDB_VALIDATE_OR_DIE(ValidatePlan(plan, cur->config(), next, dead));
    const double plan_ms = collect ? MsSince(plan_start) : 0.0;
    stall_s += SecondsSince(plan_start);
    plane.Flush();
    const SimTime at = pb.boundary;
    bool apply = true;
    if (options.adaptive_reconfigure) {
      const double stored =
          static_cast<double>(cur->config().TotalStoredTuples());
      const double change =
          stored <= 0.0
              ? 1.0
              : static_cast<double>(plan.total_transfer_tuples) / stored;
      // Never skip while a matched machine is dead: an applied transition
      // is what replaces crashed machines, so a skip would leave the
      // crash unrepaired until the data happened to shift enough (the
      // adaptive-skip repair bug).
      apply = change >= options.adaptive_min_change ||
              next.node_count() != cur->config().node_count() || any_dead;
    }
    if (apply) {
      sim.ApplyConfig(next, at, &plan, dead);
      liveness.SyncFrom(sim);
      charge_interruptions(plan, at);
      cur = std::make_unique<ConfigEpoch>(cur->epoch() + 1,
                                          std::move(next));
      ++result.transitions;
      metrics::Count("sim.transitions");
      if (collect) {
        metrics::Observe("sim.transfer_window_s",
                         sim.LastTransferWindowSeconds());
      }
      // Machines dead at the boundary were replaced by the applied plan;
      // in-window crashes (delivered after `at`) stay pending.
      settle_repairs(at);
    } else {
      ++result.transitions_skipped;
      metrics::Count("sim.transitions_skipped");
    }
    result.reconfig_stall_s += stall_s;
    if (collect) {
      metrics::Observe("sim.reconfig_stall_s", stall_s);
      const double round_ms = MsSince(pb.round_start);
      metrics::Observe("sim.reconfig_round_ms", round_ms);
      AnnotateTransition(at, apply, plan, plan_reused, plan_ms, round_ms);
    }
    pending_build.reset();
  };

  // Emergency re-replication: when a delivered crash left some fragment
  // under-covered, rebuild the placement without the dead nodes and apply
  // the minimal-transfer repair immediately.
  const auto maybe_repair = [&](SimTime at) {
    if (!faults_on || !options.faults.emergency_repair) return;
    if (pending_crashes.empty() && !pending_partition) return;
    // A pending epoch must land first: the repair replaces `cur` and
    // calls NoteAppliedConfig, both of which the in-flight build still
    // reads. The publish itself may restore coverage.
    if (pending_build && coverage_at_risk(at)) publish_epoch();
    if (!coverage_at_risk(at)) {
      // Recoveries/heals (or a scheduled transition) already restored
      // coverage.
      settle_repairs(at);
      pending_partition = false;
      return;
    }
    // Acting needs a crash or partition delivered since the last check,
    // and every delivery flushed the block first.
    NASHDB_DCHECK(plane.empty());
    if (collect) metrics::Count("faults.coverage_lost_events");
    const std::vector<bool> dead = dead_bitmap(at);
    const std::vector<bool> partitioned = partitioned_bitmap(at);
    Result<ClusterConfig> repaired =
        PlanEmergencyRepair(cur->config(), dead, partitioned);
    if (!repaired.ok()) {
      // Degrade: keep running on the surviving replicas; retries and
      // aborts absorb the gap.
      if (collect) metrics::Count("faults.repair_failures");
      pending_crashes.clear();
      pending_partition = false;
      return;
    }
    const TransitionPlan plan =
        PlanTransition(cur->config(), *repaired, &dead);
    NASHDB_VALIDATE_OR_DIE(ValidateConfig(*repaired));
    NASHDB_VALIDATE_OR_DIE(
        ValidatePlan(plan, cur->config(), *repaired, &dead));
    sim.ApplyConfig(*repaired, at, &plan);
    liveness.SyncFrom(sim);
    charge_interruptions(plan, at);
    cur = std::make_unique<ConfigEpoch>(cur->epoch() + 1,
                                        std::move(*repaired));
    repeat_plan.reset();
    system->NoteAppliedConfig(cur->config());
    ++result.transitions;
    ++result.emergency_repairs;
    result.repair_transfer_tuples += plan.total_transfer_tuples;
    if (collect) {
      metrics::Count("sim.transitions");
      metrics::Count("faults.emergency_repairs");
      metrics::Count("faults.repair_transfer_tuples",
                     plan.total_transfer_tuples);
      metrics::Observe("sim.transfer_window_s",
                       sim.LastTransferWindowSeconds());
    }
    settle_repairs(at);
    pending_partition = false;
  };

  for (TimedQuery tq; next_query(&tq);) {
    const SimTime now = tq.arrival;

    // Publishes and kicks interleave at fixed simulated times; the
    // publish check runs first so a window never swallows the next
    // boundary, and at most one build is ever in flight.
    for (;;) {
      if (pending_build && now >= pending_build->publish_at) {
        publish_epoch();
      } else if (!pending_build && options.periodic_reconfigure &&
                 now >= next_reconfigure) {
        kick_build(next_reconfigure);
        next_reconfigure += check_interval;
      } else {
        break;
      }
    }

    deliver_faults(now);
    maybe_repair(now);

    if (plane.Shed(tq, cur->epoch())) continue;
    if (!options.warmup_observe) system->Observe(tq.query);
    plane.Admit(tq, *cur);
  }
  // A build still in flight when the workload ends is published so its
  // transition lands (every boundary the workload reached is applied);
  // the publish flushes the pending block against the outgoing epoch
  // first.
  if (pending_build) publish_epoch();
  plane.Flush();

  result.total_cost = sim.AccruedCost(result.makespan_s);
  result.transferred_tuples = sim.TotalTransferredTuples();
  result.read_tuples = sim.TotalReadTuples();
  result.final_nodes = cur->config().node_count();
  if (fault_sched) {
    const FaultStats& fs = fault_sched->stats();
    result.crashes = fs.crashes;
    result.partitions = fs.partitions;
    if (collect) {
      metrics::SetGauge("faults.crashes", static_cast<double>(fs.crashes));
      metrics::SetGauge("faults.recoveries",
                        static_cast<double>(fs.recoveries));
      metrics::SetGauge("faults.slowdowns",
                        static_cast<double>(fs.slowdowns));
      metrics::SetGauge("faults.partitions",
                        static_cast<double>(fs.partitions));
      metrics::SetGauge("faults.heals", static_cast<double>(fs.heals));
      metrics::SetGauge("faults.dropped_events",
                        static_cast<double>(fs.dropped_events));
      // End-of-run cluster health: dead / partitioned node counts at the
      // makespan, for machine-readable scenario reports.
      const double n = static_cast<double>(sim.node_count());
      metrics::SetGauge(
          "faults.nodes_dead",
          n - static_cast<double>(sim.LiveNodeCount(result.makespan_s)));
      metrics::SetGauge("faults.nodes_partitioned",
                        static_cast<double>(sim.PartitionedNodeCount(
                            result.makespan_s)));
    }
  }
  if (collect) {
    plane.MergeMetrics();
    metrics::SetGauge("sim.makespan_s", result.makespan_s);
    metrics::SetGauge("sim.final_nodes",
                      static_cast<double>(result.final_nodes));
    metrics::SetGauge("sim.total_cost", result.total_cost);
    // Robustness outcome gauges (scenario reports, DESIGN.md §13).
    metrics::SetGauge("driver.total_queries",
                      static_cast<double>(result.total_queries));
    metrics::SetGauge("faults.aborted_queries",
                      static_cast<double>(result.aborted_queries));
    metrics::SetGauge("faults.scan_retries_total",
                      static_cast<double>(result.scan_retries));
    metrics::SetGauge("overload.shed_total",
                      static_cast<double>(result.shed_queries));
    metrics::SetGauge("faults.last_fault_time_s", result.last_fault_time_s);
    metrics::SetGauge("driver.last_disruption_time_s",
                      result.last_disruption_time_s);
    result.metrics_json = metrics::Registry::Global().SnapshotJson();
    metrics::Registry::Global().Disable();
  }
  return result;
}

}  // namespace

RunResult RunWorkload(const Workload& workload, DistributionSystem* system,
                      ScanRouter* router, const DriverOptions& options) {
  NASHDB_CHECK(system != nullptr);
  // warmup_observe needs the whole workload before the run — the one
  // thing a stream cannot replay — so it is handled here and skipped by
  // the streaming core (which sees the flag only to suppress the
  // per-admission Observe, same as before).
  if (options.warmup_observe) {
    for (const TimedQuery& tq : workload.queries) {
      system->Observe(tq.query);
    }
  }
  VectorQueryStream stream(workload);
  return RunStream(&stream, system, router, options);
}

RunResult RunQueryStream(QueryStream* stream, DistributionSystem* system,
                         ScanRouter* router, const DriverOptions& options) {
  NASHDB_CHECK(!options.warmup_observe)
      << "warmup_observe needs a materialized workload; use prewarm_scans";
  return RunStream(stream, system, router, options);
}

}  // namespace nashdb
