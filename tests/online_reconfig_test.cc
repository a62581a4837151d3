// Reconfiguration rounds (DESIGN.md §12): every round is a kick at the
// boundary and a publish online_build_window_s later. The window-0 and
// 900 s record streams of the realistic setup are pinned by digest in
// query_path_golden_test.cc; this suite covers the rest of the contract.
// With an occupied window the run stays deterministic (wall-clock only
// moves the stall metric, never the records), and the stall itself is
// the point: a zero window charges the full BuildConfig + PlanTransition
// wall-clock to reconfig_stall_s, an occupied one only the kick, the
// plan and whatever build time the window failed to hide.
//
// Also pins two fault-path fixes:
//  - adaptive-skip repair: an adaptive check that skips the transition
//    must still apply when a matched machine is dead, or the crash sits
//    unrepaired forever;
//  - interrupts in skipped windows: a scripted transfer interrupt whose
//    boundary's transition was skipped is deferred to the next applied
//    transition, not dropped.

#include <cstddef>
#include <functional>
#include <memory>
#include <iostream>
#include <string>

#include <gtest/gtest.h>

#include "cluster/faults.h"
#include "common/metrics.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "routing/router.h"
#include "workload/synthetic.h"

namespace nashdb {
namespace {

Workload GoldenWorkload() {
  BernoulliOptions wopts;
  wopts.db_gb = 3.0;
  wopts.num_queries = 60;
  wopts.arrival_span_s = 4.0 * 3600.0;
  return MakeBernoulliWorkload(wopts);
}

using RouterFactory = std::function<std::unique_ptr<ScanRouter>()>;

DriverOptions BaseOptions(const std::string& fault_spec) {
  DriverOptions dopts;
  dopts.reconfigure_interval_s = 1800.0;
  if (!fault_spec.empty()) {
    dopts.faults.spec = *FaultSpec::Parse(fault_spec);
    dopts.faults.seed = 7;
  }
  return dopts;
}

RunResult RunOnce(const Workload& workload, const RouterFactory& make_router,
                  const DriverOptions& dopts) {
  NashDbOptions opts;
  opts.window_scans = 30;
  opts.block_tuples = 100000;
  opts.node_disk = 2000000;
  NashDbSystem sys(workload.dataset, opts);
  const std::unique_ptr<ScanRouter> router = make_router();
  return RunWorkload(workload, &sys, router.get(), dopts);
}

void ExpectBitIdentical(const RunResult& a, const RunResult& b) {
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    const QueryRecord& x = a.records[i];
    const QueryRecord& y = b.records[i];
    EXPECT_EQ(x.id, y.id) << "record " << i;
    // EXPECT_EQ on doubles is exact comparison — bit-identity is the
    // contract, not approximate agreement.
    EXPECT_EQ(x.price, y.price) << "record " << i;
    EXPECT_EQ(x.arrival, y.arrival) << "record " << i;
    EXPECT_EQ(x.completion, y.completion) << "record " << i;
    EXPECT_EQ(x.latency_s, y.latency_s) << "record " << i;
    EXPECT_EQ(x.span, y.span) << "record " << i;
    EXPECT_EQ(x.tuples_read, y.tuples_read) << "record " << i;
    EXPECT_EQ(x.retries, y.retries) << "record " << i;
    EXPECT_EQ(x.epoch, y.epoch) << "record " << i;
    EXPECT_EQ(x.aborted, y.aborted) << "record " << i;
  }
  EXPECT_EQ(a.total_cost, b.total_cost);
  EXPECT_EQ(a.transferred_tuples, b.transferred_tuples);
  EXPECT_EQ(a.read_tuples, b.read_tuples);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.transitions_skipped, b.transitions_skipped);
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.aborted_queries, b.aborted_queries);
  EXPECT_EQ(a.scan_retries, b.scan_retries);
  EXPECT_EQ(a.crashes, b.crashes);
  EXPECT_EQ(a.emergency_repairs, b.emergency_repairs);
}

// Scripted crashes (one with a scheduled recovery, one permanent) plus a
// stochastic crash/repair process and emergency re-replication.
constexpr char kFaults[] =
    "crash@1800:n0:for=900;crash@5400:n1;mttf=7200;mttr=1800";

// ------------------------------------------------ occupied build window

// With a non-zero window, queries arriving between kick and publish route
// against the outgoing epoch. The record stream is a pure function of the
// workload — wall-clock (how long the build actually took) never leaks
// into the records, so two runs are bit-identical.
TEST(OnlineReconfigWindowTest, OccupiedWindowIsDeterministic) {
  const Workload workload = GoldenWorkload();
  const auto make_router = [] { return std::make_unique<MaxOfMinsRouter>(); };
  DriverOptions dopts = BaseOptions("");
  dopts.online_build_window_s = 900.0;  // half the reconfigure interval
  const RunResult a = RunOnce(workload, make_router, dopts);
  const RunResult b = RunOnce(workload, make_router, dopts);
  ExpectBitIdentical(a, b);
  // The run still transitions and completes everything.
  EXPECT_GT(a.transitions, 1u);
  EXPECT_EQ(a.aborted_queries, 0u);
  ASSERT_FALSE(a.records.empty());
  EXPECT_EQ(a.records.back().epoch, a.transitions - 1);
}

// Same under faults: in-window crashes ride the retroactive apply (the
// planned_dead carry in ClusterSim::ApplyConfig) instead of being
// resurrected, and the run stays deterministic.
TEST(OnlineReconfigWindowTest, OccupiedWindowUnderFaultsIsDeterministic) {
  const Workload workload = GoldenWorkload();
  const auto make_router = [] { return std::make_unique<MaxOfMinsRouter>(); };
  DriverOptions dopts = BaseOptions(kFaults);
  dopts.online_build_window_s = 900.0;
  const RunResult a = RunOnce(workload, make_router, dopts);
  const RunResult b = RunOnce(workload, make_router, dopts);
  ExpectBitIdentical(a, b);
  EXPECT_GT(a.crashes, 0u);
}

// ------------------------------------------------------- stall metric

// A zero window stalls the admission loop for the full build + plan of
// every round; a 900 s window only for the kick (estimator snapshot), the
// plan, and whatever build time the occupied window failed to hide.
TEST(OnlineReconfigStallTest, OnlineStallsLessThanStopTheWorld) {
  BernoulliOptions wopts;
  wopts.db_gb = 40.0;
  // Dense arrivals: the build window must contain enough routing
  // wall-clock to actually hide the build (simulated seconds are free;
  // only admitted work burns real time while the background build runs).
  wopts.num_queries = 8000;
  wopts.arrival_span_s = 4.0 * 3600.0;
  const Workload workload = MakeBernoulliWorkload(wopts);
  // Fine-grained fragments and a deep estimator window make the build
  // genuinely expensive — the stall comparison is meaningless when the
  // whole build costs less than spawning the background thread (every
  // round's fixed cost, ~1 ms on a loaded single core).
  NashDbOptions sys_opts;
  sys_opts.window_scans = 1000;
  sys_opts.block_tuples = 500;
  sys_opts.node_disk = 60000;
  const auto make_router = [] { return std::make_unique<MaxOfMinsRouter>(); };
  const auto run = [&](SimTime window) {
    NashDbSystem sys(workload.dataset, sys_opts);
    const std::unique_ptr<ScanRouter> router = make_router();
    DriverOptions dopts = BaseOptions("");
    // Prewarm so the bootstrap configuration is already fine-grained:
    // without it the first window routes against a near-empty estimator's
    // trivial config (almost no wall-clock to hide the most expensive
    // build of the run behind).
    dopts.prewarm_scans = 2000;
    dopts.online_build_window_s = window;
    return RunWorkload(workload, &sys, router.get(), dopts);
  };
  // Wall-clock measurement: take the min over two runs of each mode (the
  // min is the clean estimate of the true cost; scheduling noise only
  // ever inflates a run).
  RunResult zero = run(0.0);
  RunResult occupied = run(900.0);
  {
    const RunResult zero2 = run(0.0);
    const RunResult occupied2 = run(900.0);
    if (zero2.reconfig_stall_s < zero.reconfig_stall_s) zero = zero2;
    if (occupied2.reconfig_stall_s < occupied.reconfig_stall_s) {
      occupied = occupied2;
    }
  }
  // Records must agree on everything epoch-visible even though the stall
  // differs (window boundaries shift which epoch a record is stamped
  // with, so only the aggregate invariants are compared here).
  EXPECT_EQ(occupied.records.size(), zero.records.size());
  EXPECT_GT(zero.reconfig_stall_s, 0.0);
  std::cerr << "reconfig stall: window 0 " << zero.reconfig_stall_s
            << " s, window 900 " << occupied.reconfig_stall_s << " s\n";
  // The occupied window's stall excludes every wall-clock second it hid;
  // with dense arrivals and a 900 s window the builds finish in the
  // background. Guard loosely (wall-clock comparison) — the invariant is
  // "strictly less", the magnitude is reported by the sim CLI.
  EXPECT_LT(occupied.reconfig_stall_s, zero.reconfig_stall_s);
}

// ------------------------------------------- adaptive-skip repair fix

// A permanently crashed node with emergency repair disabled and an
// adaptive threshold no plan can meet: before the fix every check skipped
// and the machine stayed dead forever. The dead-machine override forces
// the transition through, replacing the node.
TEST(AdaptiveSkipRepairTest, DeadNodeForcesAdaptiveApply) {
  const Workload workload = GoldenWorkload();
  const auto make_router = [] { return std::make_unique<MaxOfMinsRouter>(); };
  DriverOptions dopts = BaseOptions("crash@1800:n0");
  dopts.faults.emergency_repair = false;
  dopts.adaptive_reconfigure = true;
  dopts.adaptive_check_interval_s = 600.0;
  dopts.adaptive_min_change = 2.0;  // unreachable: no plan moves 200%
  const RunResult faulted = RunOnce(workload, make_router, dopts);

  // Control: the same run without the crash never meets the threshold, so
  // nothing but the bootstrap transition applies.
  DriverOptions control_opts = dopts;
  control_opts.faults = FaultOptions{};
  control_opts.faults.emergency_repair = false;
  const RunResult control = RunOnce(workload, make_router, control_opts);
  EXPECT_EQ(control.transitions, 1u);
  EXPECT_GT(control.transitions_skipped, 0u);

  // With the crash, the first check after delivery applies regardless of
  // the threshold and replaces the dead machine.
  EXPECT_EQ(faulted.crashes, 1u);
  EXPECT_GE(faulted.transitions, 2u);
  EXPECT_EQ(faulted.emergency_repairs, 0u);
}

// Same scenario with an occupied build window: the dead bitmap is taken
// at the kick, and the publish-side adaptive decision carries the same
// dead-machine override.
TEST(AdaptiveSkipRepairTest, DeadNodeForcesAdaptiveApplyOnline) {
  const Workload workload = GoldenWorkload();
  const auto make_router = [] { return std::make_unique<MaxOfMinsRouter>(); };
  DriverOptions dopts = BaseOptions("crash@1800:n0");
  dopts.faults.emergency_repair = false;
  dopts.adaptive_reconfigure = true;
  dopts.adaptive_check_interval_s = 600.0;
  dopts.adaptive_min_change = 2.0;
  dopts.online_build_window_s = 300.0;
  const RunResult faulted = RunOnce(workload, make_router, dopts);
  EXPECT_EQ(faulted.crashes, 1u);
  EXPECT_GE(faulted.transitions, 2u);
}

// ----------------------------------- interrupts in skipped windows

// A scripted transfer interrupt lands in a window whose transition was
// skipped (adaptive threshold unreachable, nothing dead yet). The
// interrupt is *deferred*, not dropped: the next applied transition — here
// forced by a later crash via the dead-machine override — re-sends its
// transfers.
TEST(SkippedWindowInterruptTest, InterruptDefersToNextAppliedTransition) {
  const Workload workload = GoldenWorkload();
  const auto make_router = [] { return std::make_unique<MaxOfMinsRouter>(); };
  DriverOptions dopts = BaseOptions("interrupt@700;crash@3000:n0");
  dopts.faults.emergency_repair = false;
  dopts.adaptive_reconfigure = true;
  dopts.adaptive_check_interval_s = 600.0;
  dopts.adaptive_min_change = 2.0;
  const RunResult result = RunOnce(workload, make_router, dopts);
  // Checks at 1200/1800/2400 skip (threshold unreachable, all alive); the
  // check at 3600 sees the dead machine, applies, and the pending
  // interrupt fires against that plan's transfers.
  EXPECT_GT(result.transitions_skipped, 0u);
  EXPECT_GE(result.transitions, 2u);
  EXPECT_GT(
      metrics::Registry::Global().CounterValue("faults.transfer_interrupts"),
      0u);
}

}  // namespace
}  // namespace nashdb
