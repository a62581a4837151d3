#include "engine/driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <deque>
#include <exception>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "cluster/faults.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/spsc_ring.h"
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
  const std::size_t n = CompletedQueries();
  return n == 0 ? 0.0 : completed_latency_sum_s / static_cast<double>(n);
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
  const std::size_t n = CompletedQueries();
  return n == 0 ? 0.0 : completed_span_sum / static_cast<double>(n);
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

/// Runs QueryStream::Next ahead of the admission loop on a producer
/// thread of its own (DESIGN.md §11). The thread starts at construction
/// and is joined at destruction; Next hands the queries over in the
/// stream's order through a ring of kStreamAheadSlots slots. The producer
/// never calls the stream's Next again after a false, and an exception
/// it throws ends the stream there and is rethrown by Next.
class StreamAhead {
 public:
  explicit StreamAhead(QueryStream* stream)
      : thread_([this, stream] { Produce(stream); }) {}

  ~StreamAhead() {
    ring_.Cancel();
    thread_.join();
  }

  StreamAhead(const StreamAhead&) = delete;
  StreamAhead& operator=(const StreamAhead&) = delete;

  /// The stream's next query; false once the stream ended. `*out`'s
  /// previous contents go back to the ring, whose slots the stream
  /// refills in place.
  bool Next(TimedQuery* out) {
    TimedQuery* front = ring_.Front();
    if (front == nullptr) {
      if (error_) std::rethrow_exception(error_);
      return false;
    }
    std::swap(*out, *front);
    ring_.Pop();
    return true;
  }

 private:
  void Produce(QueryStream* stream) {
    try {
      for (;;) {
        TimedQuery& slot = ring_.Back();
        if (ring_.cancelled() || !stream->Next(&slot)) break;
        ring_.Push();
      }
    } catch (...) {
      error_ = std::current_exception();
    }
    ring_.Close();
  }

  SpscRing<TimedQuery, kStreamAheadSlots> ring_;
  /// Written by the producer before it closes the ring; read by Next
  /// once the ring is closed and empty.
  std::exception_ptr error_;
  /// Declared last: the producer starts once the ring exists.
  std::thread thread_;
};

/// Simulated seconds between two reconfiguration boundaries: the
/// adaptive check interval replaces the periodic one in adaptive mode.
SimTime RoundInterval(const DriverOptions& options) {
  return options.adaptive_reconfigure ? options.adaptive_check_interval_s
                                      : options.reconfigure_interval_s;
}

/// The one plan-and-check step of every transition (paper §7): plans
/// `old_config` → `new_config` with the `dead` old nodes priced empty,
/// then, in validating builds, checks that the new configuration is
/// structurally sound and that the plan is a valid matching between the
/// two (engine/validate.h). `kept`, when given, is a plan kept from an
/// earlier round on the same inputs (DESIGN.md §15.9): it is returned
/// instead of planning, and a validating build first checks that
/// planning returns it.
TransitionPlan PlanChecked(const ClusterConfig& old_config,
                           const ClusterConfig& new_config,
                           const std::vector<bool>* dead,
                           const TransitionPlan* kept = nullptr) {
  TransitionPlan plan =
      kept != nullptr ? *kept : PlanTransition(old_config, new_config, dead);
  if (kept != nullptr) {
    NASHDB_VALIDATE_OR_DIE(ValidateReusedPlan(
        plan, PlanTransition(old_config, new_config, dead)));
  }
  NASHDB_VALIDATE_OR_DIE(ValidateConfig(new_config));
  NASHDB_VALIDATE_OR_DIE(ValidatePlan(plan, old_config, new_config, dead));
  return plan;
}

/// Initial provisioning, epoch 0: builds the first configuration and pays
/// for the initial data load (every replica is a fresh copy). It plans and
/// checks like every later transition but applies on its own: no fault
/// has been delivered yet, so there is no interrupted transfer to re-send
/// (asking would draw from the fault scheduler), and it records no
/// transfer window.
std::unique_ptr<ConfigEpoch> Bootstrap(DistributionSystem* system,
                                       ClusterSim* sim, RunResult* result,
                                       bool collect) {
  const auto start = std::chrono::steady_clock::now();
  ClusterConfig config = system->BuildConfig();
  ClusterConfig empty;
  const auto plan_start = std::chrono::steady_clock::now();
  const TransitionPlan plan = PlanChecked(empty, config, nullptr);
  const double plan_ms = collect ? MsSince(plan_start) : 0.0;
  sim->ApplyConfig(config, 0.0, &plan);
  ++result->transitions;
  result->bootstrap_transfer_tuples = sim->TotalTransferredTuples();
  if (collect) {
    metrics::Count("sim.transitions");
    AnnotateTransition(/*sim_time_s=*/0.0, /*applied=*/true, plan,
                       /*plan_reused=*/false, plan_ms, MsSince(start));
  }
  return std::make_unique<ConfigEpoch>(0, std::move(config));
}

/// The driver's control plane (DESIGN.md §12): the current epoch, the
/// reconfiguration round in flight, the plan kept for a repeating round,
/// and the fault bookkeeping of the failure model (§8).
///
/// Each round (paper §6–§7) is a *kick* at its boundary — flush, deliver
/// faults, snapshot the estimator and start the build, on a background
/// thread when the system supports it — and a *publish* at the first
/// admission online_build_window_s later, which swaps in the finished
/// epoch and applies the transition retroactively at the boundary's
/// simulated time. A zero window publishes right after the kick: the
/// stop-the-world round. An emergency repair applies at once. Every
/// transition plans and checks through PlanChecked, and a publish and a
/// repair apply through Apply.
///
/// Everything here runs on the driver thread at fixed simulated times, so
/// the record stream never depends on build wall-clock, and a given fault
/// spec and seed replay the same fault history on every host and at any
/// reconfiguration thread count. The background build reads only its own
/// estimator snapshot and the current (immutable) epoch.
class ControlPlane {
 public:
  /// Takes over the run at `bootstrap`, the epoch `sim` already holds,
  /// and flushes `plane` before every change its routing could observe.
  /// All pointers must outlive the control plane.
  ControlPlane(const DriverOptions& options, DistributionSystem* system,
               ClusterSim* sim, LivenessOverlay* liveness, DataPlane* plane,
               RunResult* result, std::unique_ptr<ConfigEpoch> bootstrap)
      : options_(options),
        system_(system),
        sim_(sim),
        liveness_(liveness),
        plane_(plane),
        result_(result),
        collect_(options.collect_metrics),
        interval_(RoundInterval(options)),
        cur_(std::move(bootstrap)),
        next_boundary_(interval_) {
    if (options.faults.spec.Active()) {
      faults_ = std::make_unique<FaultScheduler>(options.faults.spec,
                                                 options.faults.seed);
    }
  }

  /// The epoch an admission routes against.
  const ConfigEpoch& epoch() const { return *cur_; }

  /// The run's fault scheduler; nullptr when no fault is injected.
  const FaultScheduler* faults() const { return faults_.get(); }

  /// Runs what is due before an admission at `now`. Publishes and kicks
  /// come first and interleave at fixed simulated times: the publish
  /// check runs first, so a window never swallows the next boundary, and
  /// at most one build is ever in flight. Then the faults due by `now`
  /// are delivered, and a repair follows if they left coverage at risk.
  void AdvanceTo(SimTime now) {
    for (;;) {
      if (pending_ && now >= pending_->publish_at) {
        Publish();
      } else if (!pending_ && options_.periodic_reconfigure &&
                 now >= next_boundary_) {
        Kick(next_boundary_);
        next_boundary_ += interval_;
      } else {
        break;
      }
    }
    DeliverFaults(now);
    MaybeRepair(now);
  }

  /// Publishes a build still in flight when the workload ends, so every
  /// boundary the workload reached is applied.
  void Finish() {
    if (pending_) Publish();
  }

 private:
  /// Delivers every fault due by `at` into the sim. An event changes the
  /// state routing reads, so the pending block routes first, against the
  /// state before it (DESIGN.md §11); with none due, nothing changes.
  void DeliverFaults(SimTime at) {
    if (!faults_) return;
    fault_clock_ = std::max(fault_clock_, at);
    if (faults_->NextEventTime() > fault_clock_) return;
    plane_->Flush();
    bool any = false;
    for (const FaultEvent& ev : faults_->AdvanceTo(fault_clock_, sim_)) {
      if (ev.type == FaultType::kCrash) pending_crashes_.push_back(ev.time);
      if (ev.type == FaultType::kPartition) pending_partition_ = true;
      result_->last_fault_time_s =
          std::max(result_->last_fault_time_s, ev.time);
      any = true;
    }
    // Liveness can only change when events are actually delivered (or a
    // transition replaces machines, synced in Apply), so the overlay
    // refresh is event-driven, never per-scan.
    if (any) liveness_->SyncFrom(*sim_);
  }

  void Kick(SimTime boundary);
  void Publish();
  void MaybeRepair(SimTime at);
  void Apply(ClusterConfig next, const TransitionPlan& plan, SimTime at,
             const std::vector<bool>* dead);

  /// Nodes dead at `at`, over the current configuration's nodes.
  std::vector<bool> DeadBitmap(SimTime at) const {
    const std::size_t n = cur_->config().node_count();
    std::vector<bool> dead(n, false);
    for (NodeId m = 0; m < n; ++m) dead[m] = !sim_->NodeAlive(m, at);
    return dead;
  }

  /// Alive-but-unroutable nodes at `at` (network partitions, DESIGN.md
  /// §13).
  std::vector<bool> PartitionedBitmap(SimTime at) const {
    const std::size_t n = cur_->config().node_count();
    std::vector<bool> part(n, false);
    for (NodeId m = 0; m < n; ++m) {
      part[m] = sim_->NodeAlive(m, at) && !sim_->NodeRoutable(m, at);
    }
    return part;
  }

  /// True if some placed fragment has fewer *routable* replicas than
  /// min(placed, kRepairMinLive) at `at` — the emergency-repair trigger.
  /// Partitioned copies don't count: a fragment whose only homes sit
  /// behind a partition is exactly as unreadable as one on dead nodes.
  bool CoverageAtRisk(SimTime at) const {
    const ClusterConfig& config = cur_->config();
    for (FlatFragmentId fid = 0; fid < config.fragments().size(); ++fid) {
      const std::vector<NodeId>& homes = config.FragmentNodes(fid);
      if (homes.empty()) continue;  // deliberately unreplicated
      std::size_t live = 0;
      for (NodeId m : homes) {
        if (sim_->NodeRoutable(m, at)) ++live;
      }
      if (live < std::min(homes.size(), kRepairMinLive)) return true;
    }
    return false;
  }

  /// An applied transition replaces machines dead at its time with fresh
  /// ones (the failure-aware plan prices the re-copy), so it doubles as a
  /// repair — but only for crashes delivered at or before the
  /// transition's simulated time. A publish applies retroactively at its
  /// boundary: crashes from inside the build window were not planned dead
  /// (they ride the matching, see ClusterSim::ApplyConfig) and stay
  /// pending until a later transition or repair settles them.
  void SettleRepairs(SimTime at) {
    if (pending_crashes_.empty()) return;
    std::size_t kept = 0;
    for (SimTime t : pending_crashes_) {
      if (t <= at) {
        if (collect_) metrics::Observe("faults.time_to_repair_s", at - t);
      } else {
        pending_crashes_[kept++] = t;
      }
    }
    pending_crashes_.resize(kept);
  }

  /// Re-sends the transfers a fault interrupted mid-transition: each
  /// restarted copy is charged to the receiving node's queue again.
  void ChargeInterruptions(const TransitionPlan& plan, SimTime at) {
    if (!faults_) return;
    for (std::size_t i : faults_->InterruptedMoves(plan, at)) {
      const NodeTransition& move = plan.moves[i];
      if (move.new_node == kInvalidNode) continue;
      // A receiver that crashed inside the build window is dead at the
      // (retroactive) apply time; the crash wiped its queue, so the
      // re-sent copy is lost with it — nothing to charge. Never taken at
      // a zero window (its plans replace all dead machines).
      if (!sim_->NodeAlive(move.new_node, at)) continue;
      sim_->ChargeTransfer(move.new_node, move.transfer_tuples, at);
      if (collect_) {
        metrics::Count("faults.transfer_interrupts");
        metrics::Count("faults.interrupted_retransfer_tuples",
                       move.transfer_tuples);
      }
    }
  }

  const DriverOptions& options_;
  DistributionSystem* const system_;
  ClusterSim* const sim_;
  LivenessOverlay* const liveness_;
  DataPlane* const plane_;
  RunResult* const result_;
  const bool collect_;
  const SimTime interval_;

  /// The active configuration (engine/config_epoch.h): epoch 0 is the
  /// bootstrap, and every applied transition, periodic publish or
  /// emergency repair, replaces it with the next epoch.
  std::unique_ptr<ConfigEpoch> cur_;
  SimTime next_boundary_;
  /// The round kicked and not yet published.
  std::unique_ptr<PendingBuild> pending_;
  /// The last plan, kept when it was planned from `cur_`'s configuration
  /// to a bit-identical one with no dead node. PlanTransition is a pure
  /// function of (old, new, dead), so while publishes keep bringing that
  /// same pair the kept plan is the one planning would return (DESIGN.md
  /// §15.9). Any other plan, and every emergency repair, drops it; so
  /// while it is kept, `cur_` holds the configuration it was planned on.
  std::optional<TransitionPlan> repeat_plan_;

  /// The fault scheduler; nullptr when no fault is injected.
  std::unique_ptr<FaultScheduler> faults_;
  /// Crash delivery times not yet resolved by a repair or transition, for
  /// the faults.time_to_repair_s histogram.
  std::vector<SimTime> pending_crashes_;
  /// A partition was delivered and no repair has considered it yet.
  /// Unlike crashes, partitions are never "settled" by an applied
  /// transition (the machine stays partitioned); the flag only arms the
  /// repair check.
  bool pending_partition_ = false;
  /// High-water mark of delivered fault time. The admission loop is
  /// monotonic, but a round kicked at a boundary the workload skipped
  /// past (boundary < the admitting query's arrival, which already had
  /// its faults delivered) must clamp rather than rewind the scheduler's
  /// clock.
  SimTime fault_clock_ = 0.0;
};

/// Kicks the next epoch's build at simulated time `boundary`. Everything
/// that reads cluster state at the boundary (fault delivery, the dead
/// bitmap) happens here on the driver thread; the background task only
/// reads the heap-pinned PendingBuild and the current (immutable) epoch.
void ControlPlane::Kick(SimTime boundary) {
  NASHDB_DCHECK(pending_ == nullptr);
  // Everything admitted before the boundary routes against the outgoing
  // configuration and its pre-transition queue state.
  plane_->Flush();
  // The transition must see the cluster's true liveness at its time.
  DeliverFaults(boundary);
  auto pb = std::make_unique<PendingBuild>();
  pb->boundary = boundary;
  pb->publish_at = boundary + options_.online_build_window_s;
  pb->round_start = std::chrono::steady_clock::now();
  if (faults_) pb->dead = DeadBitmap(boundary);
  // The only inline work of an asynchronous build is the estimator
  // snapshot (plus the thread spawn); the build itself overlaps with
  // routing.
  pb->future = system_->BuildConfigAsync();
  pb->kick_stall_s = SecondsSince(pb->round_start);
  pending_ = std::move(pb);
}

/// Publishes the pending epoch: waits out any residual build time, plans
/// the transition, flushes the scans admitted inside the window (they
/// route against the outgoing epoch), then applies the transition at the
/// kicking boundary's simulated time, unless adaptive mode skips it.
void ControlPlane::Publish() {
  NASHDB_DCHECK(pending_ != nullptr);
  PendingBuild& pb = *pending_;
  double stall_s = pb.kick_stall_s;
  if (pb.future.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready) {
    const auto wait_start = std::chrono::steady_clock::now();
    pb.future.wait();
    stall_s += SecondsSince(wait_start);
  }
  ClusterConfig next = pb.future.get();
  // Planning runs inline (it is a sliver of the build) and is charged to
  // the stall like the residual build wait above.
  const auto plan_start = std::chrono::steady_clock::now();
  const std::vector<bool>* dead = faults_ ? &pb.dead : nullptr;
  const bool any_dead =
      std::find(pb.dead.begin(), pb.dead.end(), true) != pb.dead.end();
  const bool repeat = !any_dead && next.BitIdentical(cur_->config());
  const bool plan_reused = repeat && repeat_plan_.has_value();
  const TransitionPlan plan =
      PlanChecked(cur_->config(), next, dead,
                  plan_reused ? &*repeat_plan_ : nullptr);
  if (plan_reused) {
    metrics::Count("transition.reused_plans");
  } else if (repeat) {
    repeat_plan_ = plan;
  } else {
    repeat_plan_.reset();
  }
  const double plan_ms = collect_ ? MsSince(plan_start) : 0.0;
  stall_s += SecondsSince(plan_start);
  plane_->Flush();
  const SimTime at = pb.boundary;
  bool apply = true;
  if (options_.adaptive_reconfigure) {
    const double stored =
        static_cast<double>(cur_->config().TotalStoredTuples());
    const double change =
        stored <= 0.0
            ? 1.0
            : static_cast<double>(plan.total_transfer_tuples) / stored;
    // Never skip while a matched machine is dead: an applied transition
    // is what replaces crashed machines, so a skip would leave the crash
    // unrepaired until the data happened to shift enough (the
    // adaptive-skip repair bug).
    apply = change >= options_.adaptive_min_change ||
            next.node_count() != cur_->config().node_count() || any_dead;
  }
  if (apply) {
    Apply(std::move(next), plan, at, dead);
  } else {
    ++result_->transitions_skipped;
    metrics::Count("sim.transitions_skipped");
  }
  result_->reconfig_stall_s += stall_s;
  if (collect_) {
    metrics::Observe("sim.reconfig_stall_s", stall_s);
    const double round_ms = MsSince(pb.round_start);
    metrics::Observe("sim.reconfig_round_ms", round_ms);
    AnnotateTransition(at, apply, plan, plan_reused, plan_ms, round_ms);
  }
  pending_.reset();
}

/// Emergency re-replication (DESIGN.md §8): when a delivered crash or
/// partition left some fragment under-covered, rebuilds the placement
/// without the dead nodes and applies the minimal-transfer repair
/// immediately.
void ControlPlane::MaybeRepair(SimTime at) {
  if (!faults_ || !options_.faults.emergency_repair) return;
  if (pending_crashes_.empty() && !pending_partition_) return;
  // A pending epoch must land first: the repair replaces `cur_` and calls
  // NoteAppliedConfig, both of which the in-flight build still reads. The
  // publish itself may restore coverage.
  if (pending_ && CoverageAtRisk(at)) Publish();
  if (!CoverageAtRisk(at)) {
    // Recoveries/heals (or a scheduled transition) already restored
    // coverage.
    SettleRepairs(at);
    pending_partition_ = false;
    return;
  }
  // Acting needs a crash or partition delivered since the last check, and
  // every delivery flushed the block first.
  NASHDB_DCHECK(plane_->empty());
  if (collect_) metrics::Count("faults.coverage_lost_events");
  const std::vector<bool> dead = DeadBitmap(at);
  const std::vector<bool> partitioned = PartitionedBitmap(at);
  Result<ClusterConfig> repaired =
      PlanEmergencyRepair(cur_->config(), dead, partitioned);
  if (!repaired.ok()) {
    // Degrade: keep running on the surviving replicas; retries and aborts
    // absorb the gap.
    if (collect_) metrics::Count("faults.repair_failures");
    pending_crashes_.clear();
    pending_partition_ = false;
    return;
  }
  const TransitionPlan plan = PlanChecked(cur_->config(), *repaired, &dead);
  // `dead` marks exactly the nodes dead at `at`, so no crash rides the
  // matching: every dead machine is replaced.
  Apply(std::move(*repaired), plan, at, &dead);
  repeat_plan_.reset();
  // The next build packs against what the cluster now holds.
  system_->NoteAppliedConfig(cur_->config());
  ++result_->emergency_repairs;
  result_->repair_transfer_tuples += plan.total_transfer_tuples;
  if (collect_) {
    metrics::Count("faults.emergency_repairs");
    metrics::Count("faults.repair_transfer_tuples",
                   plan.total_transfer_tuples);
  }
  pending_partition_ = false;
}

/// The one apply of a publish and a repair: moves the sim to `next`
/// through `plan` at simulated time `at` (ClusterSim::ApplyConfig, with
/// `dead` the old nodes the plan priced dead), re-sends the transfers a
/// fault interrupted, makes `next` the next epoch, and settles the
/// crashes the transition repaired.
void ControlPlane::Apply(ClusterConfig next, const TransitionPlan& plan,
                         SimTime at, const std::vector<bool>* dead) {
  sim_->ApplyConfig(next, at, &plan, dead);
  liveness_->SyncFrom(*sim_);
  ChargeInterruptions(plan, at);
  cur_ = std::make_unique<ConfigEpoch>(cur_->epoch() + 1, std::move(next));
  ++result_->transitions;
  metrics::Count("sim.transitions");
  if (collect_) {
    metrics::Observe("sim.transfer_window_s",
                     sim_->LastTransferWindowSeconds());
  }
  SettleRepairs(at);
}

/// The driver core shared by RunWorkload and RunQueryStream: admits
/// queries pulled from `stream` in arrival order into the data plane,
/// after the control plane has run what is due at each arrival.
/// `warmup_observe` must already have been handled by the caller (it
/// needs a second pass over the workload, which only the vector-backed
/// wrapper has).
RunResult RunStream(QueryStream* stream, DistributionSystem* system,
                    ScanRouter* router, const DriverOptions& options) {
  NASHDB_CHECK(stream != nullptr);
  NASHDB_CHECK(system != nullptr);
  NASHDB_CHECK(router != nullptr);
  const SimTime interval = RoundInterval(options);
  // A non-positive interval would never advance the next boundary (the
  // round loop would spin forever); a NaN window would never publish.
  NASHDB_CHECK(!options.periodic_reconfigure ||
               (std::isfinite(interval) && interval > 0.0))
      << "reconfiguration interval must be positive and finite, got "
      << interval;
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
  bool stream_ended = false;
  if (!options.warmup_observe && options.prewarm_scans > 0) {
    std::size_t fed = 0;
    TimedQuery tq;
    while (fed < options.prewarm_scans) {
      if (!stream->Next(&tq)) {
        stream_ended = true;
        break;
      }
      system->Observe(tq.query);
      fed += tq.query.scans.size();
      lookahead.push_back(std::move(tq));
    }
  }
  // The admission loop reads the prewarmed prefix, then the stream: its
  // first query on this thread when there is no prewarm, and the rest
  // from the producer that starts after the run's first admission, so
  // nothing of the pipeline exists during setup (DESIGN.md §11).
  std::optional<StreamAhead> ahead;
  const auto next_query = [&](TimedQuery* out) {
    if (!lookahead.empty()) {
      *out = std::move(lookahead.front());
      lookahead.pop_front();
      return true;
    }
    if (ahead) return ahead->Next(out);
    if (stream_ended) return false;
    stream_ended = !stream->Next(out);
    return !stream_ended;
  };

  std::unique_ptr<ConfigEpoch> bootstrap =
      Bootstrap(system, &sim, &result, collect);
  // Event-driven mirror of per-node routability (DESIGN.md §10).
  LivenessOverlay liveness;
  liveness.SyncFrom(sim);
  // The query path (DESIGN.md §10–§11): admission, routing, commit and
  // record finalization all run through the data plane, whose block the
  // control plane flushes around every fault delivery and transition.
  DataPlane plane(options, &sim, router, liveness, &result);
  ControlPlane control(options, system, &sim, &liveness, &plane, &result,
                       std::move(bootstrap));

  for (TimedQuery tq; next_query(&tq);) {
    control.AdvanceTo(tq.arrival);
    const ConfigEpoch& epoch = control.epoch();
    if (!plane.Shed(tq, epoch.epoch())) {
      if (!options.warmup_observe) system->Observe(tq.query);
      plane.Admit(tq, epoch);
    }
    if (!ahead && !stream_ended) ahead.emplace(stream);
  }
  // Joins the producer, which has ended the stream.
  ahead.reset();
  // The last publish flushes the pending block against the outgoing epoch
  // first.
  control.Finish();
  plane.Flush();

  result.total_cost = sim.AccruedCost(result.makespan_s);
  result.transferred_tuples = sim.TotalTransferredTuples();
  result.read_tuples = sim.TotalReadTuples();
  result.final_nodes = control.epoch().config().node_count();
  if (const FaultScheduler* faults = control.faults()) {
    const FaultStats& fs = faults->stats();
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
