#ifndef NASHDB_CLUSTER_FAULTS_H_
#define NASHDB_CLUSTER_FAULTS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/sim.h"
#include "common/random.h"
#include "common/status.h"
#include "common/types.h"
#include "transition/planner.h"

namespace nashdb {

/// Kind of one injected fault event.
enum class FaultType {
  kCrash,         ///< Crash-stop node failure (backlog lost).
  kRecover,       ///< Explicit revival of a dead node.
  kSlowdown,      ///< Straggler onset: per-node throughput multiplier.
  kInterrupt,     ///< Mid-transition transfer interruption marker.
  kPartition,     ///< Network partition: alive for billing, unroutable.
  kHeal,          ///< Partition heal: node becomes routable again.
};

/// One scripted fault event. `node` addresses the cluster node occupying
/// that id *at delivery time* (node identities are carried across
/// transitions by the plan's old→new matching); events naming a node id
/// outside the current cluster, or crashes of already-dead nodes, are
/// dropped and counted.
///
/// `rack != kInvalidNode` makes the event rack-scoped: at delivery time
/// it expands into one per-node event for every current node striped into
/// that rack (rack_of(m) = m % racks — round-robin striping, so racks
/// stay balanced as the cluster elastically grows and shrinks). The
/// expansion happens against the *current* node count, which is how
/// correlated rack failures track an elastic cluster.
struct FaultEvent {
  SimTime time = 0.0;
  FaultType type = FaultType::kCrash;
  NodeId node = kInvalidNode;
  /// Rack-scoped events: target rack id (kInvalidNode = node-scoped).
  NodeId rack = kInvalidNode;
  /// kSlowdown: throughput multiplier in (0, 1].
  double factor = 1.0;
  /// kCrash / kSlowdown / kPartition: seconds until auto-recovery /
  /// speed restore / heal (kNeverRecovers = until explicit
  /// recovery/heal or replacement).
  SimTime duration_s = kNeverRecovers;
};

/// A complete fault scenario: scripted events plus stochastic models.
/// Parsed from the `--faults` spec string, whose grammar is
/// semicolon-separated clauses (whitespace ignored):
///
///   crash@T:nID[:for=D]     crash node ID at time T, recover after D s
///   crash@T:rID[:for=D]     crash every node of rack ID (requires racks=)
///   recover@T:(n|r)ID       revive node ID / rack ID's dead nodes at T
///   slow@T:(n|r)ID:xF[:for=D]  target serves at F x nominal from T
///   partition@T:(n|r)ID[:for=D]  network partition: the target stays
///                           alive (billing, backlog) but is unroutable
///                           until healed (DESIGN.md §13)
///   heal@T:(n|r)ID          heal a partitioned node / rack at time T
///   interrupt@T             the next transition at/after T restarts every
///                           transfer once
///   racks=N                 topology: N racks, node m in rack m % N
///                           (required by any r-scoped clause)
///   mttf=S                  stochastic crash-stop: exponential
///                           inter-crash time with mean S seconds
///                           (cluster-wide); victim uniform among live
///   mttr=S                  crashed nodes recover after Exp(S) seconds
///                           (omitted = crashes are permanent)
///   straggle-every=S        stochastic straggler onsets, Exp(S) apart
///   straggle-for=S          straggler episode length (default 600)
///   straggle-x=F            straggler speed factor (default 0.25)
///   pinterrupt=P            each transition transfer restarts once with
///                           probability P
///
/// Example: "racks=4;crash@600:r1:for=900;partition@1200:n3:for=300".
struct FaultSpec {
  std::vector<FaultEvent> scripted;  ///< Sorted by time (stable).
  std::size_t racks = 0;             ///< 0 = no rack topology declared.
  double mttf_s = 0.0;               ///< 0 = no stochastic crashes.
  double mttr_s = 0.0;               ///< 0 = stochastic crashes permanent.
  double straggle_every_s = 0.0;     ///< 0 = no stochastic stragglers.
  double straggle_for_s = 600.0;
  double straggle_factor = 0.25;
  double interrupt_prob = 0.0;

  /// True when the spec injects anything at all.
  bool Active() const {
    return !scripted.empty() || mttf_s > 0.0 || straggle_every_s > 0.0 ||
           interrupt_prob > 0.0;
  }

  /// Parses the `--faults` grammar above. Returns InvalidArgument with a
  /// clause-level message on malformed input.
  static Result<FaultSpec> Parse(std::string_view spec);
};

/// Tallies of everything a FaultScheduler delivered (all simulated-time
/// driven, hence deterministic for a fixed spec + seed).
struct FaultStats {
  std::size_t crashes = 0;
  std::size_t recoveries = 0;
  std::size_t slowdowns = 0;
  std::size_t partitions = 0;
  std::size_t heals = 0;
  std::size_t dropped_events = 0;
  std::size_t transfer_interrupts = 0;
};

/// Deterministic fault event source: replays scripted events and draws
/// stochastic ones (crash/recover via an MTTF/MTTR model, straggler
/// episodes, transfer interruptions) from a seeded Rng, delivering them
/// into a ClusterSim as simulated-time state changes. All randomness
/// comes from the single seed, and delivery happens on the (serial)
/// driver loop, so identical spec + seed reproduce the exact same fault
/// history regardless of host, run, or reconfiguration thread count.
///
/// Concurrency contract (thread-safety audit, DESIGN.md §9): serial by
/// design, like ClusterSim — the single-consumer driver loop is the only
/// caller, so there are no mutexes and no NASHDB_GUARDED_BY annotations
/// here. Sharing a FaultScheduler across threads would break replay
/// determinism before it broke memory safety.
class FaultScheduler {
 public:
  FaultScheduler(FaultSpec spec, std::uint64_t seed);

  /// Delivers every event due at or before `now` into `sim`, in event
  /// time order, and returns the delivered events (with stochastic
  /// victims resolved) for driver-side accounting. Monotonic: `now` must
  /// not go backwards across calls.
  std::vector<FaultEvent> AdvanceTo(SimTime now, ClusterSim* sim);

  /// Time of the earliest event not yet delivered, over the scripted,
  /// stochastic-crash and straggle sources (kNeverRecovers when none is
  /// left): the time of the first event the next AdvanceTo(now) delivers,
  /// which it does exactly when this is not above `now`. Stochastic
  /// events are drawn as their predecessors are delivered, so this never
  /// draws.
  SimTime NextEventTime() const { return NextEvent(nullptr); }

  /// Indices of `plan->moves` whose transfer is interrupted and must
  /// restart once, for a transition applied at `now`: every move with a
  /// non-empty transfer when a scripted `interrupt@T <= now` is pending,
  /// plus independent Bernoulli(interrupt_prob) draws per move.
  std::vector<std::size_t> InterruptedMoves(const TransitionPlan& plan,
                                            SimTime now);

  const FaultStats& stats() const { return stats_; }

 private:
  enum class Source { kScripted, kStochCrash, kStochStraggle };
  /// The earliest pending event's time, and in `*src` (when non-null) its
  /// source. Strict < keeps the scripted > crash > straggle priority on
  /// exact ties, so replays are stable.
  SimTime NextEvent(Source* src) const {
    Source s = Source::kScripted;
    SimTime t = next_scripted_ < spec_.scripted.size()
                    ? spec_.scripted[next_scripted_].time
                    : kNeverRecovers;
    if (next_crash_ < t) {
      t = next_crash_;
      s = Source::kStochCrash;
    }
    if (next_straggle_ < t) {
      t = next_straggle_;
      s = Source::kStochStraggle;
    }
    if (src != nullptr) *src = s;
    return t;
  }

  /// Next stochastic crash/straggle onset times (kNeverRecovers = model
  /// disabled or exhausted).
  SimTime DrawExponential(double mean_s);
  /// Uniformly random live node at `at`, or kInvalidNode if none.
  NodeId PickLiveVictim(const ClusterSim& sim, SimTime at);

  FaultSpec spec_;
  Rng rng_;
  std::size_t next_scripted_ = 0;
  SimTime next_crash_ = kNeverRecovers;
  SimTime next_straggle_ = kNeverRecovers;
  SimTime clock_ = 0.0;
  bool pending_scripted_interrupt_ = false;
  FaultStats stats_;
};

}  // namespace nashdb

#endif  // NASHDB_CLUSTER_FAULTS_H_
