// Control-plane scale bench (DESIGN.md "Scalable control plane"): sweeps
// cluster sizes 64 -> 8192 nodes through the full transition pipeline —
// BFFD packing, sparse overlap-graph construction, the sparse
// successive-shortest-paths matcher, and the streaming validators — and
// emits machine-readable BENCH_transition.json next to the human table.
//
// Exactness gate: on every instance small enough for the dense Hungarian
// solver (<= kDenseCap nodes) both PlanDense and PlanSparse run and
// the bench CHECK-fails unless their plan costs are bit-identical
// (integer tuple counts, so "equal" means equal). Past the cap the dense
// O(n^3) matrix is the infeasible regime the sparse solver exists for;
// the full sweep asserts the 4096-node instance plans in under five
// seconds.
//
// Besides the synthetic sweep (1-2 replicas per fragment, ~30-40 overlap
// edges per node) every run, smoke included, plans two instances in the
// regimes the end-to-end workloads reconfigure in, where almost every
// old/new node pair overlaps: a real2-sized one (~130 nodes, ~190
// fragments at 60-70 replicas each) and a stream-shaped one (~127 nodes
// that each hold about the whole 10^4-tuple table, ~20 fragments at
// 110-127 replicas each). Both are small enough for the dense
// cost-identity check. Each result records which accumulation the graph
// build took (DESIGN.md §15.1): the sweep keeps the scatter, the two
// overlap-rich instances take dense rows.
//
// Every stage of every instance runs kReps times (once under --smoke) on
// identical inputs, and each stage's minimum and median are recorded:
// this host's noise spreads single cold samples by up to ~2x.
//
// Flags: --smoke (64/256-node sizes plus the real2 and stream instances,
// one rep, for CI), --out=PATH (JSON path, default
// BENCH_transition.json).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/validate.h"
#include "replication/packer.h"
#include "replication/replication.h"
#include "transition/edge_cost.h"
#include "transition/planner.h"
#include "transition/sparse_matching.h"

namespace nashdb::bench {
namespace {

// Dense Hungarian is O(n^3) on the dummy-padded matrix; past this many
// nodes one solve takes minutes and the sweep skips it (logged below).
constexpr std::size_t kDenseCap = 512;

// Timed repetitions of every stage in a full run.
constexpr std::size_t kReps = 7;

// One stage's wall-clock over its reps; {-1, -1} when the stage is skipped.
struct Timing {
  double min_ms = -1.0;
  double median_ms = -1.0;
};

struct SizeResult {
  std::string instance;             // "sweep", "real2" or "stream"
  std::size_t target_nodes = 0;
  TupleCount node_disk = 0;
  std::size_t nodes_old = 0;
  std::size_t nodes_new = 0;
  std::size_t fragments = 0;
  std::size_t edges = 0;            // positive-overlap graph edges
  std::uint64_t iterations = 0;     // sparse Dijkstra settles
  TupleCount transfer_tuples = 0;
  std::size_t reps = 0;             // timed repetitions per stage
  Timing pack;                      // BFFD pack of the new epoch
  Timing graph;                     // overlap graph build
  bool graph_dense_rows = false;    // dense rows (else the scatter)
  Timing solve;                     // sparse matcher alone
  Timing plan;                      // graph build + PlanSparse
  Timing validate;                  // ValidateConfig + ValidatePlan
  Timing dense;                     // graph build + PlanDense; skipped
                                    // past kDenseCap
  bool identity_checked = false;
};

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Runs `stage` `reps` times and returns the minimum and (upper) median of
// its wall-clock.
template <typename Stage>
Timing TimeReps(std::size_t reps, Stage&& stage) {
  std::vector<double> ms;
  for (std::size_t i = 0; i < reps; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    stage();
    ms.push_back(MsSince(t0));
  }
  std::sort(ms.begin(), ms.end());
  return Timing{ms.front(), ms[ms.size() / 2]};
}

// One bench instance: fragment tilings over `tables` tables of
// `table_size` tuples, fragment lengths uniform in [min_len, max_len],
// replica counts uniform in [min_replicas, max_replicas], packed onto
// nodes of `disk` tuples.
struct Instance {
  std::string name;
  std::size_t target_nodes = 0;
  std::size_t tables = 0;
  TupleCount table_size = 0;
  TupleCount min_len = 0;
  TupleCount max_len = 0;
  std::size_t min_replicas = 0;
  std::size_t max_replicas = 0;
  TupleCount disk = 1'000;
};

// The sweep point sized to pack onto roughly `target_nodes` nodes:
// target_nodes/64 tables, replica counts in {1, 2}, total replica volume
// ~90% of the target cluster's disk.
Instance SweepInstance(std::size_t target_nodes) {
  const std::size_t tables = target_nodes < 64 ? 1 : target_nodes / 64;
  const TupleCount table_size =
      target_nodes * 600 / tables;  // * ~1.5 replicas / disk ~= target
  return {"sweep", target_nodes, tables, table_size, 20, 120, 1, 2};
}

// real2's regime: 3 tables of 620 tuples cut into ~190 fragments of 5-15
// tuples, 60-70 replicas each, packing onto ~130 nodes.
Instance Real2Instance() {
  return {"real2", 130, 3, 620, 5, 15, 60, 70};
}

// stream's regime: 1 table of 10^4 tuples cut into ~20 fragments of
// 400-600 tuples, 110-127 replicas each, on nodes of 10^4 tuples: ~127
// nodes, and every old/new node pair overlaps.
Instance StreamInstance() {
  return {"stream", 127, 1, 10'000, 400, 600, 110, 127, 10'000};
}

std::vector<FragmentInfo> EpochFragments(Rng* rng, const Instance& inst) {
  std::vector<FragmentInfo> frags;
  for (std::size_t t = 0; t < inst.tables; ++t) {
    TupleCount start = 0;
    FragmentId index = 0;
    while (start < inst.table_size) {
      const TupleCount len = std::min<TupleCount>(
          inst.table_size - start,
          inst.min_len + rng->Uniform(inst.max_len - inst.min_len + 1));
      FragmentInfo f;
      f.table = static_cast<TableId>(t);
      f.index_in_table = index++;
      f.range = TupleRange{start, start + len};
      f.value = 1.0;
      f.replicas = inst.min_replicas +
                   rng->Uniform(inst.max_replicas - inst.min_replicas + 1);
      frags.push_back(f);
      start += len;
    }
  }
  return frags;
}

ReplicationParams Params(TupleCount disk) {
  ReplicationParams p;
  p.node_cost = 1.0;
  p.node_disk = disk;
  p.window_scans = 50;
  return p;
}

SizeResult RunInstance(const Instance& inst, std::size_t reps,
                       ThreadPool* pool) {
  Rng rng(0xC0FFEE + inst.target_nodes);
  SizeResult r;
  r.instance = inst.name;
  r.target_nodes = inst.target_nodes;
  r.node_disk = inst.disk;
  r.reps = reps;

  // Old epoch (pack untimed: the timed pack below covers the same code).
  auto old_frags = EpochFragments(&rng, inst);
  auto old_config = PackReplicasBffd(Params(inst.disk), std::move(old_frags));
  NASHDB_CHECK(old_config.ok()) << old_config.status().ToString();

  // New epoch: re-tiled boundaries and re-rolled replica counts over the
  // same tables — the overlap-rich "reconfiguration step" regime.
  const std::vector<FragmentInfo> new_frags = EpochFragments(&rng, inst);
  r.fragments = new_frags.size();
  std::optional<Result<ClusterConfig>> packed;
  r.pack = TimeReps(reps, [&] {
    packed.emplace(PackReplicasBffd(Params(inst.disk), new_frags));
  });
  NASHDB_CHECK(packed->ok()) << packed->status().ToString();
  const ClusterConfig& new_config = packed->value();
  r.nodes_old = old_config->node_count();
  r.nodes_new = new_config.node_count();

  // Stage timings on the explicit primitives. The metrics registry is on
  // for the graph build alone, to read which accumulation it took.
  metrics::Registry& registry = metrics::Registry::Global();
  registry.Reset();
  registry.Enable();
  std::optional<TransitionGraph> graph;
  r.graph = TimeReps(reps, [&] {
    graph.emplace(BuildTransitionGraph(*old_config, new_config, nullptr));
  });
  r.graph_dense_rows =
      registry.CounterValue("transition.graph_dense_rows") > 0;
  registry.Disable();
  registry.Reset();
  r.edges = graph->edges.size();

  std::optional<SparseMatchingResult> matching;
  r.solve = TimeReps(
      reps, [&] { matching.emplace(SolveMaxOverlapMatching(*graph)); });
  r.iterations = matching->iterations;

  // End-to-end sparse plan (re-runs graph + solve: this is the number a
  // control plane actually pays per reconfiguration).
  std::optional<TransitionPlan> sparse;
  r.plan = TimeReps(reps, [&] {
    sparse.emplace(
        PlanSparse(BuildTransitionGraph(*old_config, new_config, nullptr)));
  });
  r.transfer_tuples = sparse->total_transfer_tuples;
  NASHDB_CHECK_EQ(sparse->total_transfer_tuples,
                  graph->TotalNewTuples() - matching->total_overlap);

  Status cfg_ok;
  Status plan_ok;
  r.validate = TimeReps(reps, [&] {
    cfg_ok = ValidateConfig(new_config, pool);
    plan_ok = ValidatePlan(*sparse, *old_config, new_config, nullptr, pool);
  });
  NASHDB_CHECK(cfg_ok.ok()) << cfg_ok.ToString();
  NASHDB_CHECK(plan_ok.ok()) << plan_ok.ToString();

  // Cost-identity gate against the paper-verbatim dense solver.
  if (std::max(r.nodes_old, r.nodes_new) <= kDenseCap) {
    std::optional<TransitionPlan> dense;
    r.dense = TimeReps(reps, [&] {
      dense.emplace(
          PlanDense(BuildTransitionGraph(*old_config, new_config, nullptr)));
    });
    NASHDB_CHECK_EQ(dense->total_transfer_tuples,
                    sparse->total_transfer_tuples)
        << "plan-cost identity broken on " << inst.name << " at "
        << inst.target_nodes << " nodes";
    r.identity_checked = true;
  }
  return r;
}

void WriteJson(const std::string& out_path,
               const std::vector<SizeResult>& results) {
  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"transition_scale\",\n");
  std::fprintf(f, "  \"dense_cap\": %zu,\n", kDenseCap);
  std::fprintf(f,
               "  \"timing_note\": \"each *_ms is the minimum over reps "
               "runs of its stage on identical inputs, each *_ms_median "
               "their median; dense_ms is -1 where the dense solve is "
               "skipped\",\n");
  std::fprintf(f, "  \"hardware_threads\": %zu,\n",
               ThreadPool::DefaultThreads());
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    std::fprintf(
        f,
        "    {\"instance\": \"%s\", \"target_nodes\": %zu, "
        "\"node_disk\": %llu, "
        "\"nodes_old\": %zu, \"nodes_new\": %zu, \"fragments\": %zu, "
        "\"edges\": %zu, "
        "\"iterations\": %llu, \"transfer_tuples\": %llu,\n"
        "     \"graph_accumulation\": \"%s\", \"reps\": %zu, "
        "\"cost_identity_checked\": %s,\n"
        "     \"pack_ms\": %.3f, \"graph_ms\": %.3f, \"solve_ms\": %.3f, "
        "\"plan_ms\": %.3f, \"validate_ms\": %.3f, \"dense_ms\": %.3f,\n"
        "     \"pack_ms_median\": %.3f, \"graph_ms_median\": %.3f, "
        "\"solve_ms_median\": %.3f, \"plan_ms_median\": %.3f, "
        "\"validate_ms_median\": %.3f, \"dense_ms_median\": %.3f}%s\n",
        r.instance.c_str(), r.target_nodes,
        static_cast<unsigned long long>(r.node_disk), r.nodes_old,
        r.nodes_new, r.fragments, r.edges,
        static_cast<unsigned long long>(r.iterations),
        static_cast<unsigned long long>(r.transfer_tuples),
        r.graph_dense_rows ? "dense_rows" : "scatter", r.reps,
        r.identity_checked ? "true" : "false", r.pack.min_ms,
        r.graph.min_ms, r.solve.min_ms, r.plan.min_ms, r.validate.min_ms,
        r.dense.min_ms, r.pack.median_ms, r.graph.median_ms,
        r.solve.median_ms, r.plan.median_ms, r.validate.median_ms,
        r.dense.median_ms, i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s (%zu instances)\n", out_path.c_str(),
              results.size());
}

int Run(bool smoke, const std::string& out_path) {
  std::vector<Instance> instances;
  for (const std::size_t n : smoke ? std::vector<std::size_t>{64, 256}
                                   : std::vector<std::size_t>{
                                         64, 256, 512, 1024, 4096, 8192}) {
    instances.push_back(SweepInstance(n));
  }
  instances.push_back(Real2Instance());
  instances.push_back(StreamInstance());

  ThreadPool pool(ThreadPool::DefaultThreads());

  const std::size_t reps = smoke ? 1 : kReps;
  PrintTitle("Transition scale: sparse SSP matcher vs dense Hungarian (min "
             "of " + std::to_string(reps) + ")");
  PrintRow({"instance", "nodes", "frags", "edges", "pack ms", "graph ms",
            "solve ms", "plan ms", "dense ms"});

  std::vector<SizeResult> results;
  for (const Instance& inst : instances) {
    const SizeResult r = RunInstance(inst, reps, &pool);
    PrintRow({r.instance, std::to_string(r.nodes_new),
              std::to_string(r.fragments), std::to_string(r.edges),
              Fmt(r.pack.min_ms), Fmt(r.graph.min_ms), Fmt(r.solve.min_ms),
              Fmt(r.plan.min_ms),
              r.dense.min_ms < 0.0 ? std::string("(skipped)")
                                   : Fmt(r.dense.min_ms)});
    if (r.dense.min_ms < 0.0) {
      std::printf("  (dense Hungarian skipped at %zu nodes: O(n^3) "
                  "matrix is the infeasible regime)\n",
                  r.nodes_new);
    }
    // The headline SLO of the sweep: planning a 4096-node transition
    // stays interactive even though dense would take minutes.
    if (!smoke && inst.name == "sweep" && inst.target_nodes == 4096) {
      NASHDB_CHECK_LE(r.plan.min_ms, 5'000.0)
          << "4096-node sparse plan exceeded the 5 s budget";
    }
    results.push_back(r);
  }

  WriteJson(out_path, results);
  return 0;
}

}  // namespace
}  // namespace nashdb::bench

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_transition.json";
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
  return nashdb::bench::Run(smoke, out_path);
}
