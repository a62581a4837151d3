// e2e_bench — one workload of the NashDB end-to-end benchmark.
//
//   e2e_bench --workload=real2|stream|chaos --seed=N --seconds=S
//             --spec-dir=DIR [--trace --trace-out=PATH]
//
// Timed mode (the default) runs whole passes of the workload through the
// public driver entry points (RunWorkload for real2, RunQueryStream for
// the scenario workloads), configured as nashdb_sim and RunScenario
// configure them, until --seconds have been measured, with bootstrap-only
// passes for setup_s in between. Trace mode runs one pass with every
// interface the driver calls wrapped in a timing decorator, replaying the
// public layer functions on each configuration it applies, then one
// undecorated pass with metrics on and one with metrics off. Both modes
// print one JSON object on stdout; run.py checks it and turns it into the
// benchmark's result line. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/validate.h"
#include "nashdb/nashdb.h"
#include "routing/scan_batch.h"
#include "transition/edge_cost.h"

#ifndef NASHDB_E2E_BUILD_TYPE
#define NASHDB_E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace nashdb;
using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

double Mean(const std::vector<double>& v) {
  return v.empty() ? 0.0 : Sum(v) / static_cast<double>(v.size());
}

/// Peak resident memory of this process image. VmHWM, not ru_maxrss:
/// Linux carries ru_maxrss across exec, so under a parent larger than the
/// benchmark (run.py's Python) it would report the parent's peak.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes on Linux
}

// ------------------------------------------------------------------ spans

/// In-memory span log of the traced pass: name, start, end (seconds since
/// the pass began), parent span index and a round or block id. Written as
/// JSON once the run ends. Per-query calls (Observe, Next, per-scan
/// routing) are aggregated into counters instead of spans.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  int Open(const char* name, Clock::time_point start, int parent,
           std::int64_t id) {
    spans_.push_back({name, Seconds(origin_, start), -1.0, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void Close(int span, Clock::time_point end) {
    if (span >= 0) spans_[span].end_s = Seconds(origin_, end);
  }
  int Add(const char* name, Clock::time_point start, Clock::time_point end,
          int parent, std::int64_t id) {
    const int s = Open(name, start, parent, id);
    Close(s, end);
    return s;
  }
  std::size_t size() const { return spans_.size(); }

  bool WriteJson(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"name\": \"%s\", \"start_s\": %.9f, \"end_s\": %.9f, "
                    "\"parent\": %d, \"id\": %" PRId64 "}%s\n",
                    s.name, s.start_s, s.end_s, s.parent, s.id,
                    i + 1 < spans_.size() ? "," : "");
      out << line;
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    int parent;
    std::int64_t id;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

// ------------------------------------------------------------ pass probe

/// What the traced pass's replay measured. The public layer functions are
/// replayed on each applied configuration right after the round that
/// applied it closes (after each emergency repair for repairs), so that
/// they see the host in the state the round saw; their time is excluded
/// from every wall-clock figure of the pass.
struct Replay {
  std::vector<double> audit_ms;  // replayed configurations
  std::vector<double> index_ms;  // replayed configurations after the first
  // Replayed periodic transitions (fault-free runs only).
  std::vector<double> plan_ms, graph_ms, edges, iterations;
  std::size_t audits_failed = 0, sparse_plans = 0;
  Clock::time_point deadline = Clock::time_point::max();
  bool truncated = false;
  /// Over the replayed rounds: build + plan + index, and round wall time.
  double explained_ms = 0.0, round_ms = 0.0;
  Status plan_validation;

  bool planned() const { return !plan_ms.empty(); }
};

/// real2 replays every third round, which keeps the replay near a third
/// of a pass; totals are scaled to all rounds.
constexpr std::size_t kReal2ReplayStride = 3;

/// Seconds after the traced pass starts past which no further replay
/// starts, so a slow host cannot push the run past its time limit. The
/// output says when this cut the replay short.
constexpr std::chrono::seconds kReplayDeadline{75};

/// Everything the decorators of one pass record. Without `spans` the
/// hooks only mark round boundaries and count the regime (two clock reads
/// per round, no per-query clock); with them the pass is traced: every
/// decorated call is timed and every applied configuration is kept for
/// the replay.
struct PassProbe {
  bool validate = true;
  SpanLog* spans = nullptr;
  int run_span = -1;
  Clock::time_point start;

  // Rounds. A round opens at BuildConfig entry and closes at the next
  // admission (the driver's next Observe) or the next BuildConfig. The
  // first round is the bootstrap; its close is the end of setup.
  bool round_open = false;
  Clock::time_point round_start;
  double excluded_at_open = 0.0;
  int round_span = -1;
  std::size_t builds = 0;
  double setup_s = -1.0;
  std::vector<double> round_ms;  // periodic rounds only
  std::vector<double> build_ms;  // every BuildConfig call
  std::size_t observes_before_bootstrap = 0;
  /// Wall time the benchmark itself spent inside the pass (validating and
  /// copying configurations, the replay); subtracted from every wall-clock
  /// figure.
  double excluded_s = 0.0;

  // Regime of the emitted configurations.
  std::vector<double> nodes, fragments, replicas;
  std::size_t bootstrap_nodes = 0, bootstrap_replicas = 0;

  // First failing ValidateConfig (OK when all passed).
  Status validation;
  std::size_t validated = 0;

  // Traced passes: every applied configuration in order (periodic builds
  // and emergency repairs), and the replay of the layer functions on them.
  // Under faults the transition is not replayed: the decorators cannot
  // see the dead bitmap the driver planned with.
  std::vector<ClusterConfig> applied;
  Replay* replay = nullptr;
  bool replay_plans = false;
  std::size_t replay_stride = 1;
  std::size_t round_config = 0;  // `applied` index of the round's config

  // Per-layer counters of traced passes (routing counts are kept in light
  // passes too, for the regime).
  std::uint64_t observe_calls = 0;
  double observe_s = 0.0;
  std::uint64_t next_calls = 0;
  double next_s = 0.0;
  std::uint64_t route_calls = 0, route_batched_calls = 0, route_scans = 0,
                route_requests = 0, route_cands = 0, route_failed = 0;
  double route_s = 0.0;

  bool traced() const { return spans != nullptr; }

  void CloseRound(Clock::time_point now, bool by_admission) {
    round_open = false;
    const double excluded = excluded_s - excluded_at_open;
    double ms = -1.0;
    if (builds == 1) {
      // Setup ends at the first admission; a round that follows the
      // bootstrap with no admission in between leaves it unset (checked).
      if (by_admission) setup_s = Seconds(start, now) - excluded_s;
    } else {
      ms = 1e3 * (Seconds(round_start, now) - excluded);
      round_ms.push_back(ms);
    }
    if (spans != nullptr) spans->Close(round_span, now);
    if (replay != nullptr) ReplayConfig(round_config, ms, round_span);
  }

  /// Replays CheckNashEquilibrium and ConfigIndex on applied[i] and, for
  /// a periodic round of a fault-free run (`round_wall_ms` >= 0),
  /// PlanTransition and BuildTransitionGraph from applied[i - 1], checking
  /// the plan with ValidatePlan. Configuration 0 and every
  /// replay_stride-th after it are replayed.
  void ReplayConfig(std::size_t i, double round_wall_ms, int parent) {
    if (i > 0 && (i - 1) % replay_stride != 0) return;
    Replay& r = *replay;
    const auto replay_start = Clock::now();
    if (replay_start > r.deadline) {
      r.truncated = true;
      return;
    }
    const ClusterConfig& config = applied[i];
    const auto id = static_cast<std::int64_t>(i);

    auto t0 = Clock::now();
    const NashReport nash =
        CheckNashEquilibrium(config, /*exempt_min_replicas=*/true);
    auto t1 = Clock::now();
    spans->Add("replication.audit", t0, t1, parent, id);
    r.audit_ms.push_back(1e3 * Seconds(t0, t1));
    if (!nash.is_equilibrium) ++r.audits_failed;

    t0 = Clock::now();
    {
      const ConfigIndex index(config, i);
      t1 = Clock::now();
    }
    spans->Add("engine.index_build", t0, t1, parent, id);
    const double index_ms = 1e3 * Seconds(t0, t1);
    if (i > 0) r.index_ms.push_back(index_ms);

    if (replay_plans && i > 0 && round_wall_ms >= 0.0) {
      // The plan runs first, right after the audit touched the new
      // configuration, as in the driver's round; the graph build it
      // contains is then timed again on its own.
      const ClusterConfig& prev = applied[i - 1];
      t0 = Clock::now();
      const TransitionPlan plan = PlanTransition(prev, config);
      t1 = Clock::now();
      spans->Add("transition.plan", t0, t1, parent, id);
      const double plan_ms = 1e3 * Seconds(t0, t1);
      r.plan_ms.push_back(plan_ms);
      r.iterations.push_back(
          static_cast<double>(plan.stats.solver_iterations));
      if (plan.stats.used_sparse) ++r.sparse_plans;

      t0 = Clock::now();
      const TransitionGraph graph =
          BuildTransitionGraph(prev, config, nullptr);
      t1 = Clock::now();
      spans->Add("transition.graph", t0, t1, parent, id);
      r.graph_ms.push_back(1e3 * Seconds(t0, t1));
      r.edges.push_back(static_cast<double>(graph.edges.size()));
      r.explained_ms += build_ms[i] + plan_ms + index_ms;
      r.round_ms += round_wall_ms;

      const Status s = ValidatePlan(plan, prev, config);
      if (!s.ok() && r.plan_validation.ok()) r.plan_validation = s;
    }
    excluded_s += Seconds(replay_start, Clock::now());
  }

  void OpenRound(Clock::time_point entry, Clock::time_point built) {
    ++builds;
    build_ms.push_back(1e3 * Seconds(entry, built));
    round_open = true;
    round_start = entry;
    excluded_at_open = excluded_s;
    if (spans != nullptr) {
      round_span = spans->Open(builds == 1 ? "round.bootstrap" : "round",
                               entry, run_span,
                               static_cast<std::int64_t>(builds - 1));
      spans->Add("engine.build", entry, built, round_span,
                 static_cast<std::int64_t>(builds - 1));
    }
  }

  /// Validation, regime counts and (traced) the replay copy of one
  /// applied configuration — all outside every timed figure.
  void Inspect(const ClusterConfig& config, bool repair) {
    const auto t0 = Clock::now();
    if (validate) {
      const Status s = ValidateConfig(config);
      ++validated;
      if (!s.ok() && validation.ok()) validation = s;
    }
    std::size_t placed = 0;
    for (FlatFragmentId f = 0; f < config.fragments().size(); ++f) {
      placed += config.FragmentNodes(f).size();
    }
    if (!repair) {
      nodes.push_back(static_cast<double>(config.node_count()));
      fragments.push_back(static_cast<double>(config.fragments().size()));
      replicas.push_back(static_cast<double>(placed));
      if (builds == 1) {
        bootstrap_nodes = config.node_count();
        bootstrap_replicas = placed;
      }
    }
    if (traced()) applied.push_back(config);
    excluded_s += Seconds(t0, Clock::now());
    if (!traced()) return;
    if (!repair) {
      round_config = applied.size() - 1;
    } else if (replay != nullptr) {
      ReplayConfig(applied.size() - 1, -1.0, run_span);
    }
  }
};

// ------------------------------------------------------------- decorators

/// Wraps the DistributionSystem the driver drives: marks rounds, checks
/// every emitted configuration and, when traced, times Observe and
/// BuildConfig.
class TimedSystem : public DistributionSystem {
 public:
  TimedSystem(DistributionSystem* inner, PassProbe* probe)
      : inner_(inner), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }

  void Observe(const Query& query) override {
    PassProbe& p = *probe_;
    if (p.round_open) p.CloseRound(Clock::now(), /*by_admission=*/true);
    if (p.builds == 0) ++p.observes_before_bootstrap;
    if (!p.traced()) {
      inner_->Observe(query);
      return;
    }
    const auto t0 = Clock::now();
    inner_->Observe(query);
    p.observe_s += Seconds(t0, Clock::now());
    ++p.observe_calls;
  }

  ClusterConfig BuildConfig() override {
    const auto entry = Clock::now();
    if (probe_->round_open) probe_->CloseRound(entry, false);
    ClusterConfig config = inner_->BuildConfig();
    probe_->OpenRound(entry, Clock::now());
    probe_->Inspect(config, /*repair=*/false);
    return config;
  }

  void NoteAppliedConfig(const ClusterConfig& config) override {
    inner_->NoteAppliedConfig(config);
    probe_->Inspect(config, /*repair=*/true);
  }

  void Reset() override { inner_->Reset(); }

 private:
  DistributionSystem* inner_;
  PassProbe* probe_;
};

/// Wraps the ScanRouter: counts scans, requests and candidates of every
/// routing call and, when traced, times it. On the batched path the
/// timed call includes the driver's commit callback into the simulator.
class TimedRouter : public ScanRouter {
 public:
  TimedRouter(ScanRouter* inner, PassProbe* probe)
      : inner_(inner), probe_(probe) {}

  std::string_view name() const override { return inner_->name(); }

  Result<std::vector<RoutedRead>> Route(
      const std::vector<FragmentRequest>& requests, std::vector<double> waits,
      double read_seconds_per_tuple, double phi_s) override {
    return inner_->Route(requests, std::move(waits), read_seconds_per_tuple,
                         phi_s);
  }

  Status RouteInto(const RequestBatch& requests, const WaitView& waits,
                   double read_seconds_per_tuple, double phi_s,
                   RouterScratch* scratch,
                   std::vector<RoutedRead>* out) override {
    const bool traced = probe_->traced();
    const auto t0 = traced ? Clock::now() : Clock::time_point{};
    Status status = inner_->RouteInto(requests, waits, read_seconds_per_tuple,
                                      phi_s, scratch, out);
    if (traced) probe_->route_s += Seconds(t0, Clock::now());
    Count(1, requests.requests, requests.count, status.ok());
    return status;
  }

  Status RouteBatchInto(const ScanBatch& batch, const WaitView& waits,
                        double read_seconds_per_tuple, double phi_s,
                        RouterScratch* scratch, std::vector<RoutedRead>* out,
                        BatchSink* sink) override {
    const bool traced = probe_->traced();
    const auto t0 = traced ? Clock::now() : Clock::time_point{};
    Status status = inner_->RouteBatchInto(
        batch, waits, read_seconds_per_tuple, phi_s, scratch, out, sink);
    if (traced) {
      const auto t1 = Clock::now();
      probe_->route_s += Seconds(t0, t1);
      if (probe_->spans->size() < kMaxBlockSpans) {
        probe_->spans->Add("routing.block", t0, t1, probe_->run_span,
                           static_cast<std::int64_t>(probe_->route_calls));
      }
    }
    ++probe_->route_batched_calls;
    Count(batch.size(), batch.requests.data(), batch.requests.size(),
          status.ok());
    return status;
  }

 private:
  static constexpr std::size_t kMaxBlockSpans = 200'000;

  void Count(std::size_t scans, const FlatRequest* reqs, std::size_t n,
             bool ok) {
    PassProbe& p = *probe_;
    ++p.route_calls;
    p.route_scans += scans;
    p.route_requests += n;
    for (std::size_t i = 0; i < n; ++i) p.route_cands += reqs[i].cand_count;
    if (!ok) ++p.route_failed;
  }

  ScanRouter* inner_;
  PassProbe* probe_;
};

/// Wraps the QueryStream: optionally ends it once `scan_limit` scans were
/// emitted (the bootstrap-only setup passes) and, when traced, times Next.
class TimedStream : public QueryStream {
 public:
  TimedStream(QueryStream* inner, PassProbe* probe, std::size_t scan_limit)
      : inner_(inner), probe_(probe), scan_limit_(scan_limit) {}

  bool Next(TimedQuery* out) override {
    if (scans_ >= scan_limit_) return false;
    bool ok = false;
    if (probe_->traced()) {
      const auto t0 = Clock::now();
      ok = inner_->Next(out);
      probe_->next_s += Seconds(t0, Clock::now());
      ++probe_->next_calls;
    } else {
      ok = inner_->Next(out);
    }
    if (ok) scans_ += out->query.scans.size();
    return ok;
  }

 private:
  QueryStream* inner_;
  PassProbe* probe_;
  std::size_t scan_limit_;
  std::size_t scans_ = 0;
};

/// The driver prewarms with queries until it observed `prewarm_scans`
/// scans; a stream cut at this many scans ends with the prewarmed queries
/// (at least one query when the driver does not prewarm).
std::size_t PrewarmScanLimit(const DriverOptions& d) {
  return std::max<std::size_t>(1, d.prewarm_scans);
}

/// The number of leading queries of `wl` a stream cut at
/// PrewarmScanLimit keeps.
std::size_t PrewarmQueries(const Workload& wl, const DriverOptions& d) {
  const std::size_t limit = PrewarmScanLimit(d);
  std::size_t scans = 0, n = 0;
  while (n < wl.queries.size() && scans < limit) {
    scans += wl.queries[n++].query.scans.size();
  }
  return n;
}

// ------------------------------------------------------- workload inputs

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Sub-input k of benchmark seed n. Seed 0, sub-input 0 reproduces the
/// committed seed; every other pair derives an independent one.
std::uint64_t DeriveSeed(std::uint64_t bench_seed, std::size_t k,
                         std::uint64_t committed, std::uint64_t salt) {
  if (bench_seed == 0 && k == 0) return committed;
  return SplitMix64((bench_seed * 0x100000001b3ULL + k) ^ salt) %
         1'000'000'007ULL;
}

/// Scenario workloads run an ensemble of this many seed-derived inputs
/// per benchmark seed and report the simulated metrics as the ensemble
/// mean: one 10^6-query input moves p95 latency and data moved by up to
/// ~15% between seeds, which a single input would pass on as spread.
constexpr std::size_t kScenarioEnsemble = 4;

/// Scenario workloads time setup on this many seed-derived inputs, the
/// ensemble first: one input's bootstrap takes up to +-25% longer or
/// shorter than another's, and a bootstrap-only pass costs ~12 ms.
constexpr std::size_t kScenarioSetupInputs = 32;

/// The inputs of one pass.
struct Inputs {
  std::string workload;
  bool scenario = false;
  std::uint64_t seed = 0;
  std::size_t reconfig_threads = 1;
  double tuples_per_gb = 1000.0;
  // real2: nashdb_sim --workload=real2 --scale=0.25.
  RealData2DynamicOptions real2;
  // stream / chaos: a ScenarioSpec run as RunScenario runs it.
  ScenarioSpec spec;
};

/// The inputs of one benchmark seed. real2 is the committed reference
/// run at every seed: its simulated latency moves by +-60% between
/// generator seeds (635 queries, bimodal sizes), so it replays the one
/// trace nashdb_sim replays. stream and chaos derive kScenarioSetupInputs
/// inputs (stream_seed and fault seed) from the seed; the first
/// kScenarioEnsemble of them are the ensemble.
Result<std::vector<Inputs>> MakeInputs(const std::string& workload,
                                       std::uint64_t seed,
                                       const std::string& spec_dir,
                                       std::size_t reconfig_threads) {
  Inputs in;
  in.workload = workload;
  in.seed = seed;
  if (workload == "real2") {
    const double scale = 0.25;
    in.real2.db_gb = 3000.0 * scale;
    in.real2.tuples_per_gb = 1000;
    in.real2.num_queries = static_cast<std::size_t>(2500 * scale) + 10;
    in.real2.price = 1.0;
    in.tuples_per_gb = 1000.0;
    in.reconfig_threads = reconfig_threads;
    return std::vector<Inputs>{in};
  }
  if (workload != "stream" && workload != "chaos") {
    return Status::InvalidArgument("unknown workload: " + workload);
  }
  Result<ScenarioSpec> spec =
      ScenarioSpec::Load(spec_dir + "/" + workload + ".scn");
  if (!spec.ok()) return spec.status();
  in.scenario = true;
  in.spec = std::move(*spec);
  in.spec.assertions.clear();
  in.tuples_per_gb = static_cast<double>(in.spec.workload.tuples_per_gb);
  in.reconfig_threads = in.spec.reconfig_threads;
  std::vector<Inputs> inputs;
  for (std::size_t k = 0; k < kScenarioSetupInputs; ++k) {
    Inputs sub = in;
    sub.spec.workload.seed =
        DeriveSeed(seed, k, in.spec.workload.seed, 0x73747265616d);
    sub.spec.seed = DeriveSeed(seed, k, in.spec.seed, 0x6661756c7473);
    inputs.push_back(std::move(sub));
  }
  return inputs;
}

/// nashdb_sim's rent calibration (DESIGN.md 4c): node_cost is the rent a
/// node accrues while one window's worth of scans arrives.
Money CalibratedNodeCost(const Workload& wl, std::size_t window_scans) {
  std::size_t scans = 0;
  for (const TimedQuery& tq : wl.queries) scans += tq.query.scans.size();
  const SimTime span = wl.queries.empty() ? 0.0 : wl.queries.back().arrival;
  if (span <= 0.0 || scans == 0) return 3.0;
  const double scans_per_hour = static_cast<double>(scans) / (span / 3600.0);
  return 1.0 * static_cast<double>(window_scans) / scans_per_hour;
}

NashDbOptions Real2NashOptions(const Inputs& in, const Workload& wl) {
  NashDbOptions o;
  o.window_scans = 250;
  o.block_tuples = 4'000;
  o.node_cost = CalibratedNodeCost(wl, o.window_scans);
  o.node_disk = 120'000;
  o.max_replicas = 128;
  o.reconfig_threads = in.reconfig_threads;
  return o;
}

DriverOptions Real2DriverOptions(bool metrics) {
  DriverOptions d;
  d.sim.tuples_per_second = 150.0;
  d.sim.transfer_tuples_per_second = 500.0;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = 3600.0;
  d.prewarm_scans = 250;
  d.warmup_observe = false;
  d.periodic_reconfigure = true;
  d.collect_metrics = metrics;
  return d;
}

// The scenario mapping below mirrors RunScenario (src/scenario/scenario.cc).
NashDbOptions ScenarioNashOptions(const ScenarioSpec& spec) {
  NashDbOptions o;
  o.window_scans = spec.window;
  o.block_tuples = spec.block;
  o.node_cost = spec.node_cost;
  o.node_disk = spec.node_disk;
  o.max_replicas = spec.max_replicas;
  o.reconfig_threads = spec.reconfig_threads;
  return o;
}

DriverOptions ScenarioDriverOptions(const ScenarioSpec& spec, bool metrics) {
  DriverOptions d;
  d.sim.tuples_per_second = spec.tuples_per_second;
  d.sim.transfer_tuples_per_second = spec.transfer_tuples_per_second;
  d.sim.node_cost_per_hour = 1.0;
  d.reconfigure_interval_s = spec.interval_s;
  d.adaptive_reconfigure = spec.adaptive;
  d.prewarm_scans = spec.prewarm_scans;
  d.keep_records = spec.keep_records;
  d.overload = spec.overload;
  d.faults = spec.fault_options;
  d.faults.seed = spec.seed;
  d.collect_metrics = metrics;
  return d;
}

std::unique_ptr<ScanRouter> ScenarioRouter(const ScenarioSpec& spec) {
  if (spec.router == "shortestqueue") {
    return std::make_unique<ShortestQueueRouter>();
  }
  if (spec.router == "greedysc") return std::make_unique<GreedyScRouter>();
  if (spec.router == "power2") {
    return spec.seed == 0 ? std::make_unique<PowerOfTwoRouter>()
                          : std::make_unique<PowerOfTwoRouter>(spec.seed);
  }
  return std::make_unique<MaxOfMinsRouter>();
}

// ------------------------------------------------------------------ passes

/// One pass: a fresh workload/stream, system and router, run through the
/// driver entry point.
struct Pass {
  RunResult result;
  /// Pass start (workload and system construction) to the entry point's
  /// return, minus the benchmark's own validation and copy time.
  double wall_s = 0.0;
  double gen_s = 0.0;  // real2 workload materialization
  PassProbe probe;
};

/// How one pass runs.
struct PassOptions {
  /// System, router and stream wrapped in the decorators. An undecorated
  /// pass with metrics on is RunScenario itself on the scenario workloads.
  bool decorated = true;
  bool metrics = true;  // DriverOptions::collect_metrics
  /// A bootstrap-only pass cuts the input to the queries the driver
  /// prewarms with and turns periodic reconfiguration off, so it ends once
  /// they drain. Everything before the first admission runs exactly as in
  /// a full pass (checked by the caller).
  bool bootstrap_only = false;
  /// Set together for the traced pass only.
  SpanLog* spans = nullptr;
  Replay* replay = nullptr;
};

Pass RunPass(const Inputs& in, const PassOptions& opt) {
  Pass pass;
  PassProbe& probe = pass.probe;
  SpanLog* spans = opt.spans;
  probe.spans = spans;
  probe.validate = !opt.bootstrap_only;
  probe.replay = opt.replay;
  probe.replay_plans = !(in.scenario && in.spec.fault_options.spec.Active());
  probe.replay_stride = in.scenario ? 1 : kReal2ReplayStride;
  const auto start = Clock::now();
  probe.start = start;
  if (spans != nullptr) probe.run_span = spans->Open("run", start, -1, 0);

  if (!in.scenario) {
    const auto gen_start = Clock::now();
    Workload wl = MakeRealData2DynamicWorkload(in.real2);
    pass.gen_s = Seconds(gen_start, Clock::now());
    if (spans != nullptr) {
      spans->Add("workload.gen", gen_start, Clock::now(), probe.run_span, 0);
    }
    const NashDbOptions nash = Real2NashOptions(in, wl);
    DriverOptions d = Real2DriverOptions(opt.metrics);
    if (opt.bootstrap_only) {
      wl.queries.resize(PrewarmQueries(wl, d));
      d.periodic_reconfigure = false;
    }
    NashDbSystem system(wl.dataset, nash);
    MaxOfMinsRouter router;
    if (!opt.decorated) {
      pass.result = RunWorkload(wl, &system, &router, d);
    } else {
      TimedSystem tsys(&system, &probe);
      TimedRouter trouter(&router, &probe);
      pass.result = RunWorkload(wl, &tsys, &trouter, d);
    }
  } else if (!opt.decorated && opt.metrics) {
    pass.result = RunScenario(in.spec).result;
  } else {
    PhasedQueryStream stream(in.spec.workload);
    NashDbSystem system(stream.dataset(), ScenarioNashOptions(in.spec));
    std::unique_ptr<ScanRouter> router = ScenarioRouter(in.spec);
    DriverOptions d = ScenarioDriverOptions(in.spec, opt.metrics);
    if (opt.bootstrap_only) d.periodic_reconfigure = false;
    if (!opt.decorated) {
      pass.result = RunQueryStream(&stream, &system, router.get(), d);
    } else {
      TimedStream tstream(&stream, &probe,
                          opt.bootstrap_only ? PrewarmScanLimit(d) : SIZE_MAX);
      TimedSystem tsys(&system, &probe);
      TimedRouter trouter(router.get(), &probe);
      pass.result = RunQueryStream(&tstream, &tsys, &trouter, d);
    }
  }
  const auto end = Clock::now();
  pass.wall_s = Seconds(start, end) - probe.excluded_s;
  if (probe.round_open) probe.CloseRound(end, false);
  if (spans != nullptr) spans->Close(probe.run_span, end);
  return pass;
}

// ------------------------------------------------------------- outputs

/// The simulated outputs of one pass. Deterministic for given inputs, so
/// their digest must repeat across passes, variants and commits.
struct SimOutputs {
  std::size_t total = 0, completed = 0, aborted = 0, shed = 0;
  std::size_t retries = 0, crashes = 0, partitions = 0, repairs = 0;
  std::size_t transitions = 0, final_nodes = 0;
  double cost = 0.0, moved_gb = 0.0, bootstrap_gb = 0.0, repair_gb = 0.0;
  double served_gb = 0.0, makespan_s = 0.0;
  double p50 = 0.0, p95 = 0.0, p99 = 0.0, mean_latency = 0.0, span = 0.0;
  std::string digest;
};

void Fnv(std::uint64_t* h, const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ULL;
  }
}

SimOutputs Outputs(const RunResult& r, double tuples_per_gb) {
  SimOutputs o;
  o.total = r.total_queries;
  o.completed = r.CompletedQueries();
  o.aborted = r.aborted_queries;
  o.shed = r.shed_queries;
  o.retries = r.scan_retries;
  o.crashes = r.crashes;
  o.partitions = r.partitions;
  o.repairs = r.emergency_repairs;
  o.transitions = r.transitions;
  o.final_nodes = r.final_nodes;
  o.cost = r.total_cost;
  o.moved_gb = static_cast<double>(r.transferred_tuples) / tuples_per_gb;
  o.bootstrap_gb =
      static_cast<double>(r.bootstrap_transfer_tuples) / tuples_per_gb;
  o.repair_gb = static_cast<double>(r.repair_transfer_tuples) / tuples_per_gb;
  o.served_gb = static_cast<double>(r.read_tuples) / tuples_per_gb;
  o.makespan_s = r.makespan_s;
  o.p50 = r.TailLatency(50);
  o.p95 = r.TailLatency(95);
  o.p99 = r.TailLatency(99);
  o.mean_latency = r.MeanLatency();
  o.span = r.MeanSpan();

  std::uint64_t h = 0xcbf29ce484222325ULL;
  const std::size_t counts[] = {o.total,    o.completed,   o.aborted,
                                o.shed,     o.retries,     o.crashes,
                                o.partitions, o.repairs,   o.transitions,
                                o.final_nodes};
  const double values[] = {o.cost, o.moved_gb, o.bootstrap_gb, o.repair_gb,
                           o.served_gb, o.makespan_s, o.p50, o.p95, o.p99,
                           o.mean_latency, o.span};
  Fnv(&h, counts, sizeof(counts));
  Fnv(&h, values, sizeof(values));
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  o.digest = hex;
  return o;
}

/// Minimal JSON object writer (numbers keep all their digits).
class Json {
 public:
  Json& Num(const char* key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    return Raw(key, buf);
  }
  Json& Int(const char* key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const char* key, bool v) { return Raw(key, v ? "true" : "false"); }
  Json& Str(const char* key, const std::string& v) {
    std::string esc = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') esc += '\\';
      esc += (c == '\n' ? ' ' : c);
    }
    return Raw(key, esc + "\"");
  }
  Json& Obj(const char* key, const Json& sub) { return Raw(key, sub.str()); }
  Json& ObjArr(const char* key, const std::vector<Json>& subs) {
    std::string s = "[";
    for (std::size_t i = 0; i < subs.size(); ++i) {
      s += (i ? ", " : "") + subs[i].str();
    }
    return Raw(key, s + "]");
  }
  Json& Arr(const char* key, const std::vector<double>& v) {
    std::string s = "[";
    char buf[64];
    for (std::size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "", v[i]);
      s += buf;
    }
    return Raw(key, s + "]");
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  Json& Raw(const char* key, const std::string& value) {
    if (!body_.empty()) body_ += ", ";
    body_ += "\"" + std::string(key) + "\": " + value;
    return *this;
  }
  std::string body_;
};

Json OutputsJson(const SimOutputs& o) {
  Json j;
  j.Int("total", o.total).Int("completed", o.completed);
  j.Int("aborted", o.aborted).Int("shed", o.shed).Int("retries", o.retries);
  j.Int("crashes", o.crashes).Int("partitions", o.partitions);
  j.Int("repairs", o.repairs).Int("transitions", o.transitions);
  j.Int("final_nodes", o.final_nodes);
  j.Num("cost_cents", o.cost).Num("moved_gb", o.moved_gb);
  j.Num("bootstrap_gb", o.bootstrap_gb).Num("repair_gb", o.repair_gb);
  j.Num("served_gb", o.served_gb).Num("makespan_s", o.makespan_s);
  j.Num("latency_p50_s", o.p50).Num("latency_p95_s", o.p95);
  j.Num("latency_p99_s", o.p99).Num("latency_mean_s", o.mean_latency);
  j.Num("span_mean", o.span).Str("digest", o.digest);
  return j;
}

/// The sim_* end-to-end metrics and completed_frac: means over the
/// ensemble's inputs (one input for real2).
void SimMetrics(const std::vector<SimOutputs>& outs, Json* m) {
  const auto mean = [&](double (*f)(const SimOutputs&)) {
    double sum = 0.0;
    for (const SimOutputs& o : outs) sum += f(o);
    return sum / static_cast<double>(outs.size());
  };
  m->Num("completed_frac", mean([](const SimOutputs& o) {
    return o.total == 0 ? 0.0
                        : static_cast<double>(o.completed) /
                              static_cast<double>(o.total);
  }));
  m->Num("sim_cost_cents", mean([](const SimOutputs& o) { return o.cost; }));
  m->Num("sim_latency_p50_s", mean([](const SimOutputs& o) { return o.p50; }));
  m->Num("sim_latency_p95_s", mean([](const SimOutputs& o) { return o.p95; }));
  m->Num("sim_span_mean", mean([](const SimOutputs& o) { return o.span; }));
  m->Num("sim_moved_gb", mean([](const SimOutputs& o) { return o.moved_gb; }));
}

/// One digest for the whole ensemble: the inputs' digests joined.
std::string EnsembleDigest(const std::vector<SimOutputs>& outs) {
  std::string d;
  for (const SimOutputs& o : outs) d += (d.empty() ? "" : "+") + o.digest;
  return d;
}

Json RegimeJson(const Inputs& in, const PassProbe& p, const SimOutputs& o) {
  Json j;
  j.Int("queries", o.total).Int("rounds", p.round_ms.size());
  j.Int("prewarm_queries", p.observes_before_bootstrap);
  j.Num("nodes_p50", Median(p.nodes));
  j.Num("fragments_p50", Median(p.fragments));
  j.Num("replicas_p50", Median(p.replicas));
  j.Num("candidates_per_request",
        p.route_requests == 0 ? 0.0
                              : static_cast<double>(p.route_cands) /
                                    static_cast<double>(p.route_requests));
  j.Str("query_path", p.route_batched_calls > 0 ? "batched" : "per-scan");
  j.Bool("faults", in.scenario && in.spec.fault_options.spec.Active());
  j.Bool("overload", in.scenario && in.spec.overload.Active());
  return j;
}

Json CommonJson(const std::vector<Inputs>& ensemble, const char* mode) {
  const Inputs& in = ensemble.front();
  Json j;
  j.Str("workload", in.workload).Str("mode", mode).Int("seed", in.seed);
  j.Int("nproc", std::thread::hardware_concurrency());
  j.Str("build_type", NASHDB_E2E_BUILD_TYPE);
  j.Int("reconfig_threads", in.reconfig_threads);
  std::string seeds;
  for (const Inputs& sub : ensemble) {
    if (!seeds.empty()) seeds += " ";
    seeds += sub.scenario ? "stream_seed=" +
                                std::to_string(sub.spec.workload.seed) +
                                ",fault_seed=" + std::to_string(sub.spec.seed)
                          : "generator_seed=" + std::to_string(sub.real2.seed);
  }
  j.Str("input_seeds", seeds);
  return j;
}

// ------------------------------------------------------------ timed mode

/// Bootstrap-only passes per timed run: ~2 s of ~12 ms bootstraps on the
/// scenario workloads (five per setup input), ~5 s of ~150 ms ones on
/// real2. One bootstrap varies by +-15-25% even in a warm process.
constexpr std::size_t kScenarioSetupPasses = 160;
constexpr std::size_t kReal2SetupPasses = 32;

/// What a pass bootstrapped: its bootstrap-only passes must agree.
struct Bootstrap {
  std::size_t prewarm_queries = 0, nodes = 0, replicas = 0;
  bool operator==(const Bootstrap&) const = default;
};

Bootstrap BootstrapOf(const PassProbe& p) {
  return {p.observes_before_bootstrap, p.bootstrap_nodes,
          p.bootstrap_replicas};
}

/// Timed mode: whole passes, cycling through the ensemble, until every
/// input ran once, a scenario workload repeated its first input, and
/// --seconds were measured. The bootstrap-only passes for setup_s cycle
/// through the setup inputs in slices, one slice before each timed pass
/// until all ran, so that they sample the host over the whole run rather
/// than in one burst. setup_s is their median.
int RunTimed(const std::vector<Inputs>& inputs, double seconds) {
  const Inputs& in0 = inputs.front();
  const std::size_t n_inputs = std::min(inputs.size(), kScenarioEnsemble);
  // The repeat checks that passes of one input agree. real2's one pass is
  // checked against nashdb_sim's figures instead (run.py).
  const std::size_t min_passes = n_inputs + (in0.scenario ? 1 : 0);
  const std::size_t setup_total =
      in0.scenario ? kScenarioSetupPasses : kReal2SetupPasses;
  const std::size_t slice = (setup_total + min_passes) / (min_passes + 1);

  std::vector<double> setup;
  std::vector<Bootstrap> setup_bootstrap(inputs.size());
  bool setup_consistent = true;
  const auto run_setup = [&](std::size_t n) {
    for (std::size_t i = 0; i < n && setup.size() < setup_total; ++i) {
      const std::size_t k = setup.size() % inputs.size();
      const Pass s = RunPass(inputs[k], {.bootstrap_only = true});
      const Bootstrap b = BootstrapOf(s.probe);
      if (setup.size() < inputs.size()) setup_bootstrap[k] = b;
      setup_consistent = setup_consistent && s.probe.setup_s > 0.0 &&
                         b.nodes > 0 && b == setup_bootstrap[k];
      setup.push_back(s.probe.setup_s);
    }
  };

  std::vector<Pass> passes;
  double measured = 0.0;
  // Peak RSS after one pass per input, so that it does not depend on how
  // many passes fit into --seconds.
  double peak_rss_mb = 0.0;
  while (passes.size() < min_passes || measured < seconds) {
    run_setup(slice);
    passes.push_back(RunPass(inputs[passes.size() % n_inputs], {}));
    measured += passes.back().wall_s;
    if (passes.size() == n_inputs) peak_rss_mb = PeakRssMb();
  }
  run_setup(setup_total);

  std::vector<SimOutputs> outs;
  bool identical = true, valid = true, conserved = true;
  bool setup_before_rounds = true;
  std::vector<double> qps, round_ms, walls;
  double completed = 0.0, run_wall_s = 0.0;
  std::uint64_t attempted = 0, failed = 0;
  std::string first_invalid;
  for (std::size_t i = 0; i < passes.size(); ++i) {
    const Pass& p = passes[i];
    const SimOutputs o =
        Outputs(p.result, inputs[i % n_inputs].tuples_per_gb);
    if (i < n_inputs) {
      outs.push_back(o);
      // The setup passes bootstrapped this input as its full pass did.
      setup_consistent = setup_consistent &&
                         BootstrapOf(p.probe) == setup_bootstrap[i];
    } else {
      identical = identical && o.digest == outs[i % n_inputs].digest;
    }
    conserved = conserved && o.completed + o.aborted + o.shed == o.total;
    if (!p.probe.validation.ok() || p.probe.validated == 0) {
      valid = false;
      if (first_invalid.empty()) first_invalid = p.probe.validation.ToString();
    }
    setup_before_rounds = setup_before_rounds && p.probe.setup_s > 0.0;
    const double run_s = p.wall_s - p.probe.setup_s;
    qps.push_back(static_cast<double>(o.completed) / run_s);
    completed += static_cast<double>(o.completed);
    run_wall_s += run_s;
    walls.push_back(p.wall_s);
    round_ms.insert(round_ms.end(), p.probe.round_ms.begin(),
                    p.probe.round_ms.end());
    attempted += o.total;
    failed += o.aborted + o.shed;
  }
  const std::size_t repeats = passes.size() - n_inputs;

  Json metrics;
  metrics.Num("setup_s", Median(setup));
  // Over the whole run, not a median of passes: every pass's wall time
  // counts, which averages the host's second-scale bursts.
  metrics.Num("queries_per_s", completed / run_wall_s);
  metrics.Num("round_ms_p50", Median(round_ms));
  metrics.Num("peak_rss_mb", peak_rss_mb);
  SimMetrics(outs, &metrics);

  Json samples;
  samples.Arr("setup_s", setup).Arr("queries_per_s", qps);
  samples.Arr("pass_wall_s", walls);
  samples.Int("rounds", round_ms.size());

  Json checks;
  checks.Bool("configs_valid", valid);
  checks.Bool("conservation", conserved);
  if (repeats > 0) checks.Bool("passes_identical", identical);
  checks.Bool("setup_bootstrap_matches", setup_consistent);
  checks.Bool("setup_before_first_round", setup_before_rounds);

  Json j = CommonJson({inputs.begin(), inputs.begin() + n_inputs}, "timed");
  j.Int("passes", passes.size()).Int("repeats", repeats);
  j.Int("setup_passes", setup.size()).Int("setup_inputs", inputs.size());
  j.Int("attempted", attempted).Int("failed", failed);
  j.Obj("metrics", metrics).Obj("samples", samples);
  j.Obj("regime", RegimeJson(in0, passes.front().probe, outs.front()));
  std::vector<Json> per_input;
  for (const SimOutputs& o : outs) per_input.push_back(OutputsJson(o));
  j.ObjArr("outputs", per_input);
  j.Str("digest", EnsembleDigest(outs)).Obj("checks", checks);
  if (!first_invalid.empty()) j.Str("invalid_config", first_invalid);
  std::printf("%s\n", j.str().c_str());
  return 0;
}

// ------------------------------------------------------------ trace mode

/// Total seconds of `total` calls estimated from the sampled ones in `ms`.
double ScaledTotalS(const std::vector<double>& ms, std::size_t total) {
  if (ms.empty()) return 0.0;
  return 1e-3 * Sum(ms) * static_cast<double>(total) /
         static_cast<double>(ms.size());
}

/// An untraced reference pass runs only if, judged by the traced pass's
/// wall time x1.25, it would end within this many seconds of the traced
/// run's start, so that the run ends inside the 180 s a run may take even
/// when the host runs real2's passes at 60 s.
constexpr double kTraceBudgetS = 150.0;

/// Trace mode: the traced pass of the first input, then the untraced
/// references that fit kTraceBudgetS: the plain entry point with metrics
/// on (RunScenario itself for the scenario workloads) and with metrics
/// off.
int RunTrace(const Inputs& in, const std::string& trace_out) {
  const auto run_start = Clock::now();
  Replay replay;
  replay.deadline = run_start + kReplayDeadline;
  SpanLog spans(run_start);
  const Pass traced = RunPass(in, {.spans = &spans, .replay = &replay});
  const auto fits = [&] {
    return Seconds(run_start, Clock::now()) + 1.25 * traced.wall_s <=
           kTraceBudgetS;
  };
  std::optional<Pass> plain, quiet;
  if (fits()) plain = RunPass(in, {.decorated = false});
  if (fits()) quiet = RunPass(in, {.decorated = false, .metrics = false});
  const PassProbe& p = traced.probe;
  const std::size_t configs = p.applied.size();
  const std::size_t transitions = configs == 0 ? 0 : configs - 1;

  const SimOutputs out = Outputs(traced.result, in.tuples_per_gb);

  const double layers_s = p.observe_s + 1e-3 * Sum(p.build_ms) + p.route_s +
                          p.next_s;
  const double driver_wall = traced.wall_s - traced.gen_s;
  const double driver_self = driver_wall - layers_s;

  Json m;
  m.Int("value.observe_calls", p.observe_calls);
  m.Num("value.observe_s", p.observe_s);
  m.Num("value.observe_ns_mean",
        p.observe_calls == 0 ? 0.0 : 1e9 * p.observe_s /
                                         static_cast<double>(p.observe_calls));
  m.Int("engine.build_calls", p.builds);
  m.Num("engine.build_ms_p50", Median(p.build_ms));
  m.Num("engine.build_s", 1e-3 * Sum(p.build_ms));
  m.Num("replication.audit_ms_p50", Median(replay.audit_ms));
  m.Num("replication.audit_s", ScaledTotalS(replay.audit_ms, configs));
  m.Num("replication.audit_fail_frac",
        replay.audit_ms.empty()
            ? 0.0
            : static_cast<double>(replay.audits_failed) /
                  static_cast<double>(replay.audit_ms.size()));
  m.Num("replication.nodes_p50", Median(p.nodes));
  m.Num("replication.fragments_p50", Median(p.fragments));
  m.Num("replication.replicas_p50", Median(p.replicas));
  m.Num("transition.plan_ms_p50", Median(replay.plan_ms));
  m.Num("transition.plan_s", ScaledTotalS(replay.plan_ms, transitions));
  m.Num("transition.graph_ms_p50", Median(replay.graph_ms));
  m.Num("transition.graph_s",
        ScaledTotalS(replay.graph_ms, transitions));
  m.Num("transition.graph_edges_mean", Mean(replay.edges));
  m.Num("transition.solver_iterations_mean", Mean(replay.iterations));
  m.Num("transition.sparse_frac",
        replay.plan_ms.empty()
            ? 0.0
            : static_cast<double>(replay.sparse_plans) /
                  static_cast<double>(replay.plan_ms.size()));
  m.Num("engine.index_build_ms_p50", Median(replay.index_ms));
  const double scans = static_cast<double>(p.route_scans);
  m.Int("routing.calls", p.route_calls);
  m.Num("routing.scans_per_call",
        p.route_calls == 0 ? 0.0
                           : scans / static_cast<double>(p.route_calls));
  m.Num("routing.route_s", p.route_s);
  m.Num("routing.route_ns_per_scan",
        scans == 0 ? 0.0 : 1e9 * p.route_s / scans);
  m.Num("routing.requests_per_scan",
        scans == 0 ? 0.0 : static_cast<double>(p.route_requests) / scans);
  m.Num("routing.candidates_per_request",
        p.route_requests == 0 ? 0.0
                              : static_cast<double>(p.route_cands) /
                                    static_cast<double>(p.route_requests));
  m.Num("routing.failed_frac",
        p.route_calls == 0 ? 0.0
                           : static_cast<double>(p.route_failed) /
                                 static_cast<double>(p.route_calls));
  m.Num("workload.next_s", p.next_s);
  m.Num("workload.gen_s", traced.gen_s);
  m.Num("engine.driver_self_s", driver_self);
  m.Num("engine.driver_self_frac",
        driver_wall <= 0.0 ? 0.0 : driver_self / driver_wall);
  m.Num("engine.round_unattributed_frac",
        replay.round_ms <= 0.0 ? 0.0
                               : 1.0 - replay.explained_ms / replay.round_ms);
  m.Int("engine.transitions", out.transitions);
  m.Int("engine.emergency_repairs", out.repairs);
  m.Int("engine.scan_retries", out.retries);
  m.Int("engine.aborted", out.aborted);
  m.Int("engine.shed", out.shed);
  m.Int("cluster.crashes", out.crashes);
  m.Int("cluster.partitions", out.partitions);
  m.Num("common.metrics_cost_frac",
        plain && quiet ? plain->wall_s / quiet->wall_s - 1.0 : 0.0);
  m.Num("bench.trace_overhead_frac",
        plain ? traced.wall_s / plain->wall_s - 1.0 : 0.0);

  Json walls;
  if (plain) walls.Num("untraced_metrics_on_s", plain->wall_s);
  if (quiet) walls.Num("untraced_metrics_off_s", quiet->wall_s);
  walls.Num("traced_s", traced.wall_s);
  walls.Num("replayed_round_ms", replay.round_ms);
  walls.Num("replayed_round_explained_ms", replay.explained_ms);
  walls.Int("spans", spans.size());

  Json checks;
  checks.Bool("configs_valid", p.validation.ok() && p.validated > 0);
  checks.Bool("plans_valid", replay.plan_validation.ok());
  checks.Bool("conservation", out.completed + out.aborted + out.shed ==
                                  out.total);
  // Without the plain pass, real2's equality with nashdb_sim's figures
  // (checked by run.py) shows the decorators transparent instead.
  checks.Bool("decorators_transparent",
              plain ? Outputs(plain->result, in.tuples_per_gb).digest ==
                          out.digest
                    : !in.scenario);
  if (quiet) {
    checks.Bool("metrics_off_same_outputs",
                Outputs(quiet->result, in.tuples_per_gb).digest == out.digest);
  }

  const bool wrote = trace_out.empty() || spans.WriteJson(trace_out);
  checks.Bool("trace_written", wrote);

  Json j = CommonJson({in}, "trace");
  std::string skipped = plain ? "" : "metrics-on ";
  if (!quiet) skipped += "metrics-off";
  j.Str("skipped_passes", skipped);
  j.Int("attempted", out.total).Int("failed", out.aborted + out.shed);
  j.Obj("metrics", m).Obj("walls", walls);
  j.Obj("regime", RegimeJson(in, p, out));
  j.ObjArr("outputs", {OutputsJson(out)}).Str("digest", out.digest);
  j.Obj("checks", checks).Int("plans_replayed", replay.plan_ms.size());
  j.Int("configs_replayed", replay.audit_ms.size());
  j.Bool("replay_truncated", replay.truncated);
  // Per-layer metrics that do not apply to this workload or run (reported
  // as 0).
  std::string na = in.scenario ? "workload.gen_s" : "workload.next_s";
  if (!plain || !quiet) na += " common.metrics_cost_frac";
  if (!plain) na += " bench.trace_overhead_frac";
  if (!replay.planned()) {
    na += " transition.plan_ms_p50 transition.plan_s transition.graph_ms_p50"
          " transition.graph_s transition.graph_edges_mean"
          " transition.solver_iterations_mean transition.sparse_frac"
          " engine.round_unattributed_frac";
  }
  j.Str("not_applicable", na);
  if (!p.validation.ok()) j.Str("invalid_config", p.validation.ToString());
  if (!replay.plan_validation.ok()) {
    j.Str("invalid_plan", replay.plan_validation.ToString());
  }
  std::printf("%s\n", j.str().c_str());
  return 0;
}

bool Flag(const char* arg, const char* name, std::string* out) {
  const std::size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) != 0 || arg[n] != '=') return false;
  *out = arg + n + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, spec_dir = ".", trace_out, v;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--trace") == 0) {
      trace = true;
    } else if (Flag(a, "--workload", &workload) ||
               Flag(a, "--spec-dir", &spec_dir) ||
               Flag(a, "--trace-out", &trace_out)) {
    } else if (Flag(a, "--seed", &v)) {
      seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (Flag(a, "--seconds", &v)) {
      seconds = std::atof(v.c_str());
    } else {
      std::fprintf(stderr, "e2e_bench: unknown flag %s\n", a);
      return 2;
    }
  }
  // real2 refragments on up to four threads, never more than the host
  // has (nashdb_sim's default, 0, would take every hardware thread).
  const std::size_t threads =
      std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  Result<std::vector<Inputs>> inputs =
      MakeInputs(workload, seed, spec_dir, threads);
  if (!inputs.ok()) {
    std::fprintf(stderr, "e2e_bench: %s\n",
                 inputs.status().ToString().c_str());
    return 2;
  }
  return trace ? RunTrace(inputs->front(), trace_out)
               : RunTimed(*inputs, seconds);
}
