// nashdb_sim — run any workload x system x router combination on the
// simulated elastic cluster and report latency / cost / transfer metrics.
//
// Examples:
//   nashdb_sim --workload=bernoulli --system=nashdb --price=4
//   nashdb_sim --workload=real2 --system=threshold --nodes=24
//   nashdb_sim --workload=tpch --system=hypergraph --nodes=16
//              --router=greedysc --scale=0.25  (one command line)
//   nashdb_sim --workload=real1 --system=nashdb --adaptive
//
// Run with --help for the full flag list.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "nashdb/nashdb.h"

namespace {

using namespace nashdb;

struct Flags {
  std::string workload = "tpch";
  std::string system = "nashdb";
  std::string router = "maxofmins";
  double scale = 0.25;
  Money price = 1.0;
  std::size_t nodes = 16;           // baselines' fixed cluster size
  std::size_t window = 250;         // |W|
  Money node_cost = -1.0;           // rent per period (-1 = calibrate)
  TupleCount node_disk = 120'000;   // tuples per node
  TupleCount block = 4'000;         // average fragment size
  std::size_t max_replicas = 128;
  double interval_s = 3600.0;       // reconfiguration interval
  bool adaptive = false;
  std::string metrics_path;         // write the metrics snapshot here
  std::string faults;               // fault scenario spec (empty = none)
  std::string scenario;             // scenario spec file (empty = flags)
  std::string report_path;          // write the scenario JSON report here
  std::uint64_t seed = 0;           // seed for all stochastic components
  bool no_repair = false;           // disable emergency re-replication
  std::size_t batch = 64;           // scans per routed block
  double build_window_s = 0.0;      // kick-to-publish delay (sim seconds)
  bool help = false;
};

void PrintHelp() {
  std::printf(
      "nashdb_sim: simulate a data-distribution system on a workload\n\n"
      "  --workload=tpch|bernoulli|random|real1|real2|real1-static\n"
      "  --system=nashdb|threshold|hypergraph\n"
      "  --router=maxofmins|shortestqueue|greedysc|power2\n"
      "  --scale=F          workload scale factor (default 0.25)\n"
      "  --price=F          uniform query price for nashdb (default 1)\n"
      "  --nodes=N          fixed cluster size for baselines (default 16)\n"
      "  --window=N         scan window |W| (default 250; >= 1)\n"
      "  --node-cost=F      rent per period (default: calibrated to the\n"
      "                     window turnover; see DESIGN.md 4c)\n"
      "  --node-disk=N      tuples per node (default 120000; >= 1)\n"
      "  --block=N          average fragment tuples (default 4000; >= 1)\n"
      "  --max-replicas=N   replica cap (default 128)\n"
      "  --interval=SECONDS reconfiguration interval (default 3600;\n"
      "                     must be > 0)\n"
      "  --adaptive         adaptive transition detection\n"
      "  --metrics=PATH     write the end-to-end metrics/trace snapshot\n"
      "                     (JSON; see DESIGN.md \"Observability\")\n"
      "\n"
      "Data plane (DESIGN.md 11):\n"
      "  --batch=N          scans per routed block (RouteBatchInto block\n"
      "                     size; default 64, 1 = per-scan routing; >= 1\n"
      "                     and at most 65536; never changes results,\n"
      "                     only throughput)\n"
      "\n"
      "Reconfiguration rounds (DESIGN.md 12):\n"
      "  --build-window=S   simulated seconds between a boundary, where\n"
      "                     the driver kicks the next\n"
      "                     configuration's build onto a background\n"
      "                     thread, and its publish, applied at the\n"
      "                     boundary's simulated time; queries inside the\n"
      "                     window route against the current epoch.\n"
      "                     Default 0 = publish right after the kick (the\n"
      "                     stop-the-world round). The summary's\n"
      "                     'reconfig stall' line shows the wall-clock the\n"
      "                     admission loop lost. Must be >= 0\n"
      "\n"
      "Fault injection (DESIGN.md 8):\n"
      "  --faults=SPEC      semicolon-separated clauses:\n"
      "                       crash@T:nID[:for=D]    crash node ID at T s,\n"
      "                                              recover after D s\n"
      "                       recover@T:nID          revive node ID at T\n"
      "                       slow@T:nID:xF[:for=D]  straggler at F x speed\n"
      "                       interrupt@T            restart the transfers\n"
      "                                              of the next transition\n"
      "                       mttf=S                 stochastic crashes,\n"
      "                                              Exp(S) apart\n"
      "                       mttr=S                 crash repair Exp(S)\n"
      "                                              (omit: permanent)\n"
      "                       straggle-every=S / straggle-for=S /\n"
      "                       straggle-x=F           stochastic stragglers\n"
      "                       pinterrupt=P           per-transfer restart\n"
      "                                              probability\n"
      "                     e.g. --faults='mttf=1800;mttr=600'\n"
      "  --seed=N           seeds every stochastic fault draw (victim\n"
      "                     choice, Exp() times, transfer interrupts) and\n"
      "                     the power2 router's sampling. Identical\n"
      "                     --faults + --seed replay a bit-identical fault\n"
      "                     history and faults.* metrics on every run and\n"
      "                     at any thread count; changing the seed changes\n"
      "                     only the stochastic draws, never scripted\n"
      "                     events. Default 0.\n"
      "  --no-repair        disable emergency re-replication (measure pure\n"
      "                     degraded operation)\n"
      "\n"
      "Chaos scenarios (DESIGN.md 13):\n"
      "  --scenario=FILE    run a declarative scenario spec (INI-subset:\n"
      "                     [scenario]/[topology]/[workload]/[phase]/\n"
      "                     [faults]/[overload]/[driver]/[assert]; see\n"
      "                     scenarios/*.scn and src/scenario/scenario.h).\n"
      "                     Replaces every workload/system flag above;\n"
      "                     per-scenario SLO assertions are evaluated at\n"
      "                     the end of the run\n"
      "  --report=PATH      write the per-scenario JSON report\n"
      "\n"
      "Numeric flags take the whole value: N is an unsigned integer (no\n"
      "sign), F and SECONDS a finite number; a negative --node-cost means\n"
      "calibrate.\n\n"
      "Exit codes: 0 ok; 1 I/O error; 2 bad flags or malformed\n"
      "--faults/--scenario spec (the message names the bad token and the\n"
      "expected grammar); 3 at least one query aborted (retry budget /\n"
      "timeout exhausted under faults, flag-driven runs only); 4 a\n"
      "scenario SLO assertion was violated (each violation is named on\n"
      "stderr).\n");
}

bool ParseFlag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    *out = arg + n + 1;
    return true;
  }
  return false;
}

// Upper bound on the flag that sizes the routing buffers: a typo must not
// buffer a whole workload per block.
constexpr std::uint64_t kMaxBatch = 65536;

// An unsigned flag's value: digits only (no sign, no space, no suffix) and
// at most `max`; anything else exits 2 naming the flag.
std::uint64_t ParseUnsigned(const char* flag, const std::string& v,
                            std::uint64_t max =
                                std::numeric_limits<std::uint64_t>::max()) {
  const bool digits =
      !v.empty() && std::all_of(v.begin(), v.end(), [](char c) {
        return c >= '0' && c <= '9';
      });
  errno = 0;
  const std::uint64_t value =
      digits ? std::strtoull(v.c_str(), nullptr, 10) : 0;
  if (!digits || errno == ERANGE) {
    std::fprintf(stderr, "%s expects an unsigned integer, got '%s'\n", flag,
                 v.c_str());
    std::exit(2);
  }
  if (value > max) {
    std::fprintf(stderr, "%s must be at most %llu, got '%s'\n", flag,
                 static_cast<unsigned long long>(max), v.c_str());
    std::exit(2);
  }
  return value;
}

// A real-valued flag's value: the whole string must parse as a finite
// number; anything else exits 2 naming the flag.
double ParseReal(const char* flag, const std::string& v) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(v.c_str(), &end);
  if (v.empty() || std::isspace(static_cast<unsigned char>(v[0])) != 0 ||
      end != v.c_str() + v.size() || errno == ERANGE ||
      !std::isfinite(value)) {
    std::fprintf(stderr, "%s expects a finite number, got '%s'\n", flag,
                 v.c_str());
    std::exit(2);
  }
  return value;
}

Flags ParseFlags(int argc, char** argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    std::string v;
    if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      f.help = true;
    } else if (std::strcmp(a, "--adaptive") == 0) {
      f.adaptive = true;
    } else if (std::strcmp(a, "--no-repair") == 0) {
      f.no_repair = true;
    } else if (ParseFlag(a, "--build-window", &v)) {
      f.build_window_s = ParseReal("--build-window", v);
    } else if (ParseFlag(a, "--workload", &f.workload) ||
               ParseFlag(a, "--system", &f.system) ||
               ParseFlag(a, "--router", &f.router) ||
               ParseFlag(a, "--faults", &f.faults) ||
               ParseFlag(a, "--scenario", &f.scenario) ||
               ParseFlag(a, "--report", &f.report_path) ||
               ParseFlag(a, "--metrics", &f.metrics_path)) {
    } else if (ParseFlag(a, "--scale", &v)) {
      f.scale = ParseReal("--scale", v);
    } else if (ParseFlag(a, "--price", &v)) {
      f.price = ParseReal("--price", v);
    } else if (ParseFlag(a, "--nodes", &v)) {
      f.nodes = ParseUnsigned("--nodes", v);
    } else if (ParseFlag(a, "--window", &v)) {
      f.window = ParseUnsigned("--window", v);
    } else if (ParseFlag(a, "--node-cost", &v)) {
      f.node_cost = ParseReal("--node-cost", v);
    } else if (ParseFlag(a, "--node-disk", &v)) {
      f.node_disk = ParseUnsigned("--node-disk", v);
    } else if (ParseFlag(a, "--block", &v)) {
      f.block = ParseUnsigned("--block", v);
    } else if (ParseFlag(a, "--max-replicas", &v)) {
      f.max_replicas = ParseUnsigned("--max-replicas", v);
    } else if (ParseFlag(a, "--interval", &v)) {
      f.interval_s = ParseReal("--interval", v);
    } else if (ParseFlag(a, "--seed", &v)) {
      f.seed = ParseUnsigned("--seed", v);
    } else if (ParseFlag(a, "--batch", &v)) {
      f.batch = ParseUnsigned("--batch", v, kMaxBatch);
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", a);
      std::exit(2);
    }
  }
  return f;
}

Workload BuildWorkload(const Flags& f) {
  const TupleCount tpg = 1000;  // 1 simulated tuple = 1 MB
  if (f.workload == "tpch") {
    TpchOptions o;
    o.db_gb = 1000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(220 * f.scale) + 10;
    o.price = f.price;
    o.arrival_span_s = 24.0 * 3600.0;
    return MakeTpchWorkload(o);
  }
  if (f.workload == "bernoulli") {
    BernoulliOptions o;
    o.db_gb = 1000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(500 * f.scale) + 10;
    o.price = f.price;
    o.arrival_span_s = 24.0 * 3600.0;
    return MakeBernoulliWorkload(o);
  }
  if (f.workload == "random") {
    RandomWorkloadOptions o;
    o.db_gb = 1000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(2000 * f.scale) + 10;
    o.price = f.price;
    return MakeRandomWorkload(o);
  }
  if (f.workload == "real1") {
    RealData1DynamicOptions o;
    o.db_gb = 300.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(1220 * f.scale) + 10;
    o.price = f.price;
    return MakeRealData1DynamicWorkload(o);
  }
  if (f.workload == "real2") {
    RealData2DynamicOptions o;
    o.db_gb = 3000.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(2500 * f.scale) + 10;
    o.price = f.price;
    return MakeRealData2DynamicWorkload(o);
  }
  if (f.workload == "real1-static") {
    RealData1StaticOptions o;
    o.db_gb = 800.0 * f.scale;
    o.tuples_per_gb = tpg;
    o.num_queries = static_cast<std::size_t>(1000 * f.scale) + 10;
    o.price = f.price;
    return MakeRealData1StaticWorkload(o);
  }
  std::fprintf(stderr, "unknown workload: %s\n", f.workload.c_str());
  std::exit(2);
}

std::unique_ptr<DistributionSystem> BuildSystem(const Flags& f,
                                                const Dataset& dataset) {
  if (f.system == "nashdb") {
    NashDbOptions o;
    o.window_scans = f.window;
    o.block_tuples = f.block;
    o.node_cost = f.node_cost;
    o.node_disk = f.node_disk;
    o.max_replicas = f.max_replicas;
    return std::make_unique<NashDbSystem>(dataset, o);
  }
  if (f.system == "threshold") {
    ThresholdOptions o;
    o.window_scans = f.window;
    o.num_nodes = f.nodes;
    o.node_disk = f.node_disk;
    o.node_cost = f.node_cost;
    o.cold_block_tuples = f.block * 4;
    return std::make_unique<ThresholdSystem>(dataset, o);
  }
  if (f.system == "hypergraph") {
    HypergraphSystemOptions o;
    o.window_scans = f.window;
    o.num_partitions = f.nodes;
    o.node_disk = f.node_disk;
    o.node_cost = f.node_cost;
    return std::make_unique<HypergraphSystem>(dataset, o);
  }
  std::fprintf(stderr, "unknown system: %s\n", f.system.c_str());
  std::exit(2);
}

std::unique_ptr<ScanRouter> BuildRouter(const Flags& f) {
  if (f.router == "maxofmins") return std::make_unique<MaxOfMinsRouter>();
  if (f.router == "shortestqueue") {
    return std::make_unique<ShortestQueueRouter>();
  }
  if (f.router == "greedysc") return std::make_unique<GreedyScRouter>();
  if (f.router == "power2") {
    // --seed also pins the router's two-choice sampling, so a power2 run
    // is reproducible end to end. Seed 0 keeps the router's default.
    return f.seed == 0 ? std::make_unique<PowerOfTwoRouter>()
                       : std::make_unique<PowerOfTwoRouter>(f.seed);
  }
  std::fprintf(stderr, "unknown router: %s\n", f.router.c_str());
  std::exit(2);
}

void PrintSummary(const Flags& f, const Workload& wl,
                        const RunResult& r) {
  std::printf("workload           : %s (%zu queries, %lu tuples)\n",
              wl.name.c_str(), wl.queries.size(),
              static_cast<unsigned long>(wl.dataset.TotalTuples()));
  std::printf("system / router    : %s / %s\n", f.system.c_str(),
              f.router.c_str());
  std::printf("mean latency       : %10.1f s\n", r.MeanLatency());
  std::printf("p50 / p95 / p99    : %10.1f / %.1f / %.1f s\n",
              r.TailLatency(50), r.TailLatency(95), r.TailLatency(99));
  std::printf("mean query span    : %10.2f nodes\n", r.MeanSpan());
  std::printf("total cost         : %10.1f cents\n", r.total_cost);
  std::printf("final cluster size : %10zu nodes\n", r.final_nodes);
  std::printf("transitions        : %10zu (+%zu skipped)\n", r.transitions,
              r.transitions_skipped);
  std::printf("reconfig stall     : %10.4f s wall-clock (build window "
              "%g s: kick + residual build wait + plan)\n",
              r.reconfig_stall_s, f.build_window_s);
  std::printf("data moved         : %10.1f GB (bootstrap %.1f GB)\n",
              static_cast<double>(r.transferred_tuples) / 1000.0,
              static_cast<double>(r.bootstrap_transfer_tuples) / 1000.0);
  std::printf("data served        : %10.1f GB\n",
              static_cast<double>(r.read_tuples) / 1000.0);
  std::printf("makespan           : %10.1f h\n", r.makespan_s / 3600.0);
  if (!f.faults.empty()) {
    std::printf("faults             : %10zu crashes, %zu retries, "
                "%zu aborted queries\n",
                r.crashes, r.scan_retries, r.aborted_queries);
    std::printf("emergency repairs  : %10zu (%.1f GB re-replicated)\n",
                r.emergency_repairs,
                static_cast<double>(r.repair_transfer_tuples) / 1000.0);
  }
}

/// Writes a run's metrics snapshot (--metrics) to `path`. Returns false,
/// naming the path on stderr, when the file cannot be opened.
bool WriteMetricsSnapshot(const std::string& path, const std::string& json) {
  std::FILE* mf = std::fopen(path.c_str(), "w");
  if (mf == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return false;
  }
  std::fprintf(mf, "%s\n", json.c_str());
  std::fclose(mf);
  std::printf("metrics snapshot   : %s\n", path.c_str());
  return true;
}

/// --scenario mode: load, run, report, and gate on the SLO assertions.
/// Exit codes: 0 ok, 1 I/O, 2 malformed spec, 4 assertion violated.
int RunScenarioMode(const Flags& f) {
  Result<ScenarioSpec> spec = ScenarioSpec::Load(f.scenario);
  if (!spec.ok()) {
    std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
    return spec.status().code() == StatusCode::kNotFound ? 1 : 2;
  }
  std::printf("scenario           : %s (%s)\n", spec->name.c_str(),
              f.scenario.c_str());
  if (!spec->description.empty()) {
    std::printf("description        : %s\n", spec->description.c_str());
  }
  const ScenarioOutcome out = RunScenario(*spec);
  const RunResult& r = out.result;
  std::printf("queries            : %10zu total, %zu completed, "
              "%zu aborted, %zu shed\n",
              r.total_queries, r.CompletedQueries(), r.aborted_queries,
              r.shed_queries);
  std::printf("mean latency       : %10.1f s\n", r.MeanLatency());
  std::printf("p50 / p95 / p99    : %10.1f / %.1f / %.1f s\n",
              r.TailLatency(50), r.TailLatency(95), r.TailLatency(99));
  std::printf("total cost         : %10.1f cents\n", r.total_cost);
  std::printf("faults             : %10zu crashes, %zu partitions, "
              "%zu retries, %zu repairs\n",
              r.crashes, r.partitions, r.scan_retries, r.emergency_repairs);
  std::printf("recovery time      : %10.1f s after the last fault\n",
              out.recovery_time_s);
  std::printf("peak RSS           : %10.1f MB\n", out.rss_peak_mb);
  std::printf("makespan           : %10.1f h\n", r.makespan_s / 3600.0);
  if (!f.report_path.empty()) {
    std::FILE* rf = std::fopen(f.report_path.c_str(), "w");
    if (rf == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   f.report_path.c_str());
      return 1;
    }
    std::fprintf(rf, "%s", out.report_json.c_str());
    std::fclose(rf);
    std::printf("report             : %s\n", f.report_path.c_str());
  }
  if (!f.metrics_path.empty() &&
      !WriteMetricsSnapshot(f.metrics_path, r.metrics_json)) {
    return 1;
  }
  if (!out.violations.empty()) {
    for (const std::string& v : out.violations) {
      std::fprintf(stderr, "scenario SLO violation: %s\n", v.c_str());
    }
    return 4;
  }
  std::printf("assertions         : %10zu checked, all met\n",
              spec->assertions.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = ParseFlags(argc, argv);
  if (flags.help) {
    PrintHelp();
    return 0;
  }
  // A non-positive interval never advances the next boundary, and a
  // negative window never publishes: reject both before any work (parsing
  // already rejected NaN and infinities).
  if (flags.interval_s <= 0.0) {
    std::fprintf(stderr, "--interval must be a positive number of seconds\n");
    return 2;
  }
  if (flags.build_window_s < 0.0) {
    std::fprintf(stderr,
                 "--build-window must be a finite number of seconds >= 0\n");
    return 2;
  }
  // The estimator needs room for one scan, fragments and nodes room for
  // one tuple; zero would abort deep inside the system's constructor. A
  // routed block holds at least one scan.
  if (flags.window == 0) {
    std::fprintf(stderr, "--window must be a positive number of scans\n");
    return 2;
  }
  if (flags.block == 0) {
    std::fprintf(stderr, "--block must be a positive number of tuples\n");
    return 2;
  }
  if (flags.node_disk == 0) {
    std::fprintf(stderr, "--node-disk must be a positive number of tuples\n");
    return 2;
  }
  if (flags.batch == 0) {
    std::fprintf(stderr, "--batch must be a positive number of scans\n");
    return 2;
  }
  if (!flags.scenario.empty()) {
    return RunScenarioMode(flags);
  }

  Workload wl = BuildWorkload(flags);
  Flags flags_resolved = flags;
  if (flags.node_cost < 0.0) {
    // Calibrate rent to the window turnover (DESIGN.md 4c); fall back to
    // 3.0 for batch workloads with no time extent.
    nashdb::bench::NamedWorkload nw{wl.name, wl, false};
    const auto econ =
        nashdb::bench::CalibratedEconomics(nw, flags.window, 1.0, 3.0);
    flags_resolved.node_cost = econ.node_cost;
    std::printf("calibrated node_cost = %.2f cents/period\n",
                flags_resolved.node_cost);
  }
  const Flags& f = flags_resolved;
  auto system = BuildSystem(f, wl.dataset);
  auto router = BuildRouter(f);

  DriverOptions d;
  d.sim.tuples_per_second = 150.0;
  d.sim.transfer_tuples_per_second = 500.0;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = f.interval_s;
  d.adaptive_reconfigure = f.adaptive;
  d.prewarm_scans = f.window;
  const bool is_static = wl.queries.empty() || wl.queries.back().arrival == 0.0;
  d.warmup_observe = is_static;
  d.periodic_reconfigure = !is_static;
  if (!f.faults.empty()) {
    Result<FaultSpec> spec = FaultSpec::Parse(f.faults);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    d.faults.spec = std::move(*spec);
    d.faults.seed = f.seed;
    d.faults.emergency_repair = !f.no_repair;
  }

  d.online_build_window_s = f.build_window_s;
  d.route_batch_size = f.batch;

  const RunResult r = RunWorkload(wl, system.get(), router.get(), d);
  PrintSummary(f, wl, r);
  if (!f.metrics_path.empty() && !r.metrics_json.empty() &&
      !WriteMetricsSnapshot(f.metrics_path, r.metrics_json)) {
    return 1;
  }
  if (r.aborted_queries > 0) {
    std::fprintf(stderr,
                 "%zu queries aborted without retry budget; exiting 3\n",
                 r.aborted_queries);
    return 3;
  }
  return 0;
}
