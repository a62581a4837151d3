// Quickstart: the NashDB pipeline in one file.
//
// A small analytics table receives priced range queries; NashDB estimates
// tuple values (§4), fragments the table (§5), chooses replica counts and
// packs them onto "just the right number" of nodes (§6), verifies the
// Nash equilibrium, plans a minimal-transfer transition after the
// workload shifts (§7), and routes a scan with Max-of-mins (§8).
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>
#include <set>
#include <vector>

#include "nashdb/nashdb.h"

using namespace nashdb;

int main() {
  // --- 1. Declare the database: one table, 100k tuples in clustered
  // order (NashDB needs only cardinalities; storage lives on the nodes).
  Dataset dataset;
  dataset.tables.push_back(TableSpec{0, "events", 100'000});

  NashDbOptions options;
  options.window_scans = 40;   // |W|: sliding window of recent scans
  options.block_tuples = 5'000;  // average fragment ("disk block") size
  options.node_cost = 30.0;    // rent per period, in cents
  options.node_disk = 30'000;  // tuples per node
  NashDbSystem nashdb(dataset, options);

  // --- 2. Feed the query stream. Each query has a price (its priority);
  // Eq. 1 splits the price across its range scans.
  // Most analysts look at recent events [80k, 100k); a nightly audit
  // occasionally scans everything.
  for (QueryId id = 0; id < 40; ++id) {
    if (id % 8 == 7) {
      nashdb.Observe(MakeQuery(id, /*price=*/1.0,
                               {{0, TupleRange{0, 100'000}}}));
    } else {
      nashdb.Observe(MakeQuery(id, /*price=*/4.0,
                               {{0, TupleRange{80'000, 100'000}}}));
    }
  }

  // --- 3. Build the cluster configuration: fragmentation + Eq. 9 replica
  // counts + BFFD placement.
  ClusterConfig config = nashdb.BuildConfig();
  std::printf("Cluster: %zu nodes, %zu fragments\n", config.node_count(),
              config.fragments().size());
  for (FlatFragmentId f = 0; f < config.fragments().size(); ++f) {
    const FragmentInfo& info = config.fragment(f);
    std::printf("  fragment [%6lu, %6lu)  value=%8.5f  replicas=%zu\n",
                static_cast<unsigned long>(info.range.start),
                static_cast<unsigned long>(info.range.end), info.value,
                info.replicas);
  }

  // --- 4. Audit the economic guarantee (Theorem 6.1): modulo the
  // availability floor of one replica, no node can profit by adding,
  // dropping, or swapping a replica, and no entrant can profit.
  const NashReport report =
      CheckNashEquilibrium(config, /*exempt_min_replicas=*/true);
  std::printf("Nash equilibrium: %s\n",
              report.is_equilibrium ? "yes" : report.violation.c_str());

  // --- 5. Route one scan with Max-of-mins over the live configuration:
  // resolve it into a one-scan block of fragment requests, then route the
  // block against the nodes' queues (all idle here).
  ConfigIndex index(config);
  Scan scan;
  scan.table = 0;
  scan.range = TupleRange{85'000, 95'000};
  scan.price = 2.0;
  ScanBatch block;
  block.AddScan(/*id=*/0, scan);
  index.ResolveBatchInto(&block);
  const std::vector<SimTime> busy_until(config.node_count(), 0.0);
  const WaitView waits(busy_until.data(), busy_until.size(), /*at=*/0.0);
  MaxOfMinsRouter router;
  RouterScratch scratch;
  std::vector<RoutedRead> routed;
  const Status routed_ok = router.RouteBatchInto(
      block, waits, /*read_seconds_per_tuple=*/1e-4, /*phi_s=*/0.35,
      &scratch, &routed, /*sink=*/nullptr);
  if (!routed_ok.ok()) return 1;
  std::set<NodeId> span;
  for (const RoutedRead& read : routed) span.insert(read.node);
  std::printf("Scan [85000, 95000) -> %zu fragment reads over %zu nodes\n",
              routed.size(), span.size());

  // --- 6. Workload shift: the hot range moves; NashDB recomputes the
  // scheme and plans the cheapest node-to-node transition (Kuhn-Munkres).
  for (QueryId id = 100; id < 140; ++id) {
    nashdb.Observe(MakeQuery(id, 4.0, {{0, TupleRange{0, 20'000}}}));
  }
  ClusterConfig next = nashdb.BuildConfig();
  const TransitionPlan plan = PlanTransition(config, next);
  std::printf(
      "Transition: %zu -> %zu nodes, %lu tuples moved "
      "(%zu added, %zu removed)\n",
      config.node_count(), next.node_count(),
      static_cast<unsigned long>(plan.total_transfer_tuples),
      plan.nodes_added, plan.nodes_removed);
  return 0;
}
