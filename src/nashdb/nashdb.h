#ifndef NASHDB_NASHDB_H_
#define NASHDB_NASHDB_H_

/// \file
/// Umbrella header for the NashDB library — a from-scratch reproduction of
/// "NashDB: An End-to-End Economic Method for Elastic Database
/// Fragmentation, Replication, and Provisioning" (SIGMOD 2018).
///
/// The pipeline, in paper order:
///   1. value/      — tuple value estimation over a scan window (§4)
///   2. fragment/   — fragmentation algorithms (§5) and baselines
///   3. replication — Eq. 9 replica counts + BFFD packing (§6)
///   4. transition/ — minimal-transfer cluster transitions (§7)
///   5. routing/    — Max-of-mins scan routing (§8)
///   6. engine/     — the end-to-end controller + simulation driver
///   7. baselines/  — E-Store-like and SWORD-like end-to-end systems
///   8. workload/   — TPC-H-style / Bernoulli / Random / trace workloads
///   9. cluster/    — the elastic-cluster simulator substrate

#include "baselines/hypergraph_system.h"
#include "baselines/market_sim.h"
#include "baselines/threshold_system.h"
#include "cluster/faults.h"
#include "cluster/sim.h"
#include "common/metrics.h"
#include "common/query.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/status.h"
#include "common/types.h"
#include "engine/config_index.h"
#include "engine/driver.h"
#include "engine/nashdb_system.h"
#include "engine/system.h"
#include "fragment/fragmenter.h"
#include "fragment/prefix_stats.h"
#include "fragment/scheme.h"
#include "replication/cluster_config.h"
#include "replication/incremental.h"
#include "replication/nash.h"
#include "replication/node_data.h"
#include "replication/packer.h"
#include "replication/replication.h"
#include "routing/router.h"
#include "scenario/scenario.h"
#include "storage/storage_cluster.h"
#include "storage/table.h"
#include "transition/hungarian.h"
#include "transition/planner.h"
#include "value/estimator.h"
#include "value/value_profile.h"
#include "value/value_tree.h"
#include "workload/streaming.h"
#include "workload/synthetic.h"
#include "workload/tpch.h"
#include "workload/workload.h"

#endif  // NASHDB_NASHDB_H_
