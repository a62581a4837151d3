#include "scenario/scenario.h"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "cluster/faults.h"
#include "common/logging.h"
#include "engine/nashdb_system.h"
#include "routing/router.h"

namespace nashdb {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

/// Parse-error factory: every error names the line, the offending token,
/// and what the grammar expected there, so a failing spec is fixable from
/// the message alone (the CLI exits 2 with it).
Status BadLine(std::size_t line, std::string_view token,
               std::string_view expected) {
  std::ostringstream os;
  os << "scenario line " << line << ": bad token '" << token
     << "': expected " << expected;
  return Status::InvalidArgument(os.str());
}

bool ParseDouble(std::string_view v, double* out) {
  char* end = nullptr;
  const std::string s(v);
  const double x = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0' || !std::isfinite(x)) return false;
  *out = x;
  return true;
}

bool ParseUint(std::string_view v, std::uint64_t* out) {
  if (v.empty() || v.front() == '-') return false;
  char* end = nullptr;
  const std::string s(v);
  errno = 0;
  const std::uint64_t x = std::strtoull(s.c_str(), &end, 10);
  if (end == s.c_str() || *end != '\0' || errno == ERANGE) return false;
  *out = x;
  return true;
}

// The most reconfiguration threads a spec may ask for (the same cap as
// nashdb_sim's --shards): NashDbSystem starts exactly that many workers.
constexpr std::uint64_t kMaxReconfigThreads = 64;

bool ParseBool(std::string_view v, bool* out) {
  if (v == "true" || v == "1") return *out = true, true;
  if (v == "false" || v == "0") return *out = false, true;
  return false;
}

constexpr std::string_view kSections =
    "[scenario], [topology], [workload], [phase], [faults], [overload], "
    "[driver], or [assert]";

constexpr std::string_view kAssertKeys =
    "max_abort_rate, max_shed_rate, max_retry_rate, mean_latency_s, "
    "p50_latency_s, p95_latency_s, p99_latency_s, recovery_time_s, "
    "min_completed, min_cost_cents, max_cost_cents, or max_rss_mb";

bool KnownAssertKey(std::string_view key) {
  static constexpr std::string_view kKeys[] = {
      "max_abort_rate", "max_shed_rate",  "max_retry_rate",
      "mean_latency_s", "p50_latency_s",  "p95_latency_s",
      "p99_latency_s",  "recovery_time_s", "min_completed",
      "min_cost_cents", "max_cost_cents", "max_rss_mb",
  };
  for (std::string_view k : kKeys) {
    if (k == key) return true;
  }
  return false;
}

/// Typed key dispatch for one `key = value` line; returns false when the
/// key is not recognized in the current section (the caller reports it).
struct LineContext {
  std::size_t line;
  std::string_view key;
  std::string_view value;
};

Status BadValue(const LineContext& c, std::string_view expected) {
  return BadLine(c.line, c.value, expected);
}

#define NASHDB_SCN_DOUBLE(field)                               \
  do {                                                         \
    if (!ParseDouble(c.value, &(field)))                       \
      return BadValue(c, "a number for key '" +                \
                             std::string(c.key) + "'");        \
    return Status::OK();                                       \
  } while (false)

#define NASHDB_SCN_UINT(field)                                 \
  do {                                                         \
    std::uint64_t u = 0;                                       \
    if (!ParseUint(c.value, &u))                               \
      return BadValue(c, "a nonnegative integer for key '" +   \
                             std::string(c.key) + "'");        \
    (field) = u;                                               \
    return Status::OK();                                       \
  } while (false)

// As NASHDB_SCN_DOUBLE / NASHDB_SCN_UINT, rejecting a negative price or
// duration, a rate or size of 0, or a count above `max`.
#define NASHDB_SCN_NONNEGATIVE_DOUBLE(field)                   \
  do {                                                         \
    double x = 0.0;                                            \
    if (!ParseDouble(c.value, &x) || x < 0.0)                  \
      return BadValue(c, "a number >= 0 for key '" +           \
                             std::string(c.key) + "'");        \
    (field) = x;                                               \
    return Status::OK();                                       \
  } while (false)

#define NASHDB_SCN_POSITIVE_DOUBLE(field)                      \
  do {                                                         \
    double x = 0.0;                                            \
    if (!ParseDouble(c.value, &x) || x <= 0.0)                 \
      return BadValue(c, "a number > 0 for key '" +            \
                             std::string(c.key) + "'");        \
    (field) = x;                                               \
    return Status::OK();                                       \
  } while (false)

#define NASHDB_SCN_BOUNDED_UINT(field, max)                    \
  do {                                                         \
    std::uint64_t u = 0;                                       \
    if (!ParseUint(c.value, &u) || u > (max))                  \
      return BadValue(c, "an integer from 0 to " +             \
                             std::to_string(max) + " for key '" + \
                             std::string(c.key) + "'");        \
    (field) = u;                                               \
    return Status::OK();                                       \
  } while (false)

#define NASHDB_SCN_POSITIVE_UINT(field)                        \
  do {                                                         \
    std::uint64_t u = 0;                                       \
    if (!ParseUint(c.value, &u) || u == 0)                     \
      return BadValue(c, "a positive integer for key '" +      \
                             std::string(c.key) + "'");        \
    (field) = u;                                               \
    return Status::OK();                                       \
  } while (false)

#define NASHDB_SCN_BOOL(field)                                 \
  do {                                                         \
    if (!ParseBool(c.value, &(field)))                         \
      return BadValue(c, "true or false for key '" +           \
                             std::string(c.key) + "'");        \
    return Status::OK();                                       \
  } while (false)

Status ApplyScenarioKey(const LineContext& c, ScenarioSpec* spec) {
  if (c.key == "name") return spec->name = std::string(c.value), Status::OK();
  if (c.key == "description") {
    return spec->description = std::string(c.value), Status::OK();
  }
  if (c.key == "seed") NASHDB_SCN_UINT(spec->seed);
  return BadLine(c.line, c.key, "[scenario] key: name, description, or seed");
}

Status ApplyTopologyKey(const LineContext& c, ScenarioSpec* spec) {
  if (c.key == "racks") NASHDB_SCN_UINT(spec->racks);
  return BadLine(c.line, c.key, "[topology] key: racks");
}

Status ApplyWorkloadKey(const LineContext& c, ScenarioSpec* spec) {
  PhasedStreamOptions& w = spec->workload;
  if (c.key == "queries") NASHDB_SCN_UINT(w.num_queries);
  if (c.key == "db_gb") NASHDB_SCN_POSITIVE_DOUBLE(w.db_gb);
  if (c.key == "tuples_per_gb") NASHDB_SCN_UINT(w.tuples_per_gb);
  // A negative price would put a negative normalized price in the value
  // estimator's window.
  if (c.key == "price") NASHDB_SCN_NONNEGATIVE_DOUBLE(w.price);
  if (c.key == "duration_s") NASHDB_SCN_DOUBLE(w.duration_s);
  if (c.key == "hot_prob") NASHDB_SCN_DOUBLE(w.hot_prob);
  if (c.key == "hot_frac") NASHDB_SCN_DOUBLE(w.hot_frac);
  if (c.key == "hot_center") NASHDB_SCN_DOUBLE(w.hot_center);
  if (c.key == "scan_frac") NASHDB_SCN_DOUBLE(w.scan_frac);
  if (c.key == "stream_seed") NASHDB_SCN_UINT(w.seed);
  return BadLine(c.line, c.key,
                 "[workload] key: queries, db_gb, tuples_per_gb, price, "
                 "duration_s, hot_prob, hot_frac, hot_center, scan_frac, "
                 "or stream_seed");
}

Status ApplyPhaseKey(const LineContext& c, StreamPhase* p) {
  if (c.key == "start_s") NASHDB_SCN_DOUBLE(p->start_s);
  if (c.key == "end_s") NASHDB_SCN_DOUBLE(p->end_s);
  if (c.key == "period_s") NASHDB_SCN_DOUBLE(p->period_s);
  if (c.key == "amplitude") NASHDB_SCN_DOUBLE(p->amplitude);
  if (c.key == "rate_x") NASHDB_SCN_DOUBLE(p->rate_x);
  if (c.key == "focus_lo") NASHDB_SCN_DOUBLE(p->focus_lo);
  if (c.key == "focus_hi") NASHDB_SCN_DOUBLE(p->focus_hi);
  if (c.key == "focus_prob") NASHDB_SCN_DOUBLE(p->focus_prob);
  if (c.key == "drift_to") NASHDB_SCN_DOUBLE(p->drift_to);
  if (c.key == "price_x") NASHDB_SCN_NONNEGATIVE_DOUBLE(p->price_x);
  if (c.key == "tenant_frac") NASHDB_SCN_DOUBLE(p->tenant_frac);
  return BadLine(c.line, c.key,
                 "[phase] key: start_s, end_s, period_s, amplitude, "
                 "rate_x, focus_lo, focus_hi, focus_prob, drift_to, "
                 "price_x, or tenant_frac");
}

Status ApplyFaultsKey(const LineContext& c, ScenarioSpec* spec) {
  FaultOptions& f = spec->fault_options;
  if (c.key == "spec") {
    return spec->faults = std::string(c.value), Status::OK();
  }
  if (c.key == "no_repair") {
    bool no_repair = false;
    if (!ParseBool(c.value, &no_repair)) {
      return BadValue(c, "true or false for key 'no_repair'");
    }
    f.emergency_repair = !no_repair;
    return Status::OK();
  }
  if (c.key == "max_scan_retries") NASHDB_SCN_UINT(f.max_scan_retries);
  // A negative backoff would route a retry before its query arrived.
  if (c.key == "retry_backoff_s") {
    NASHDB_SCN_NONNEGATIVE_DOUBLE(f.retry_backoff_s);
  }
  if (c.key == "retry_backoff_cap_s") {
    NASHDB_SCN_NONNEGATIVE_DOUBLE(f.retry_backoff_cap_s);
  }
  if (c.key == "query_timeout_s") {
    NASHDB_SCN_NONNEGATIVE_DOUBLE(f.query_timeout_s);
  }
  if (c.key == "query_retry_budget") NASHDB_SCN_UINT(f.query_retry_budget);
  return BadLine(c.line, c.key,
                 "[faults] key: spec, no_repair, max_scan_retries, "
                 "retry_backoff_s, retry_backoff_cap_s, query_timeout_s, "
                 "or query_retry_budget");
}

Status ApplyOverloadKey(const LineContext& c, ScenarioSpec* spec) {
  OverloadOptions& o = spec->overload;
  if (c.key == "max_pending") NASHDB_SCN_UINT(o.max_pending_queries);
  if (c.key == "shed_keep_price") NASHDB_SCN_DOUBLE(o.shed_keep_price);
  if (c.key == "hard_cap_factor") NASHDB_SCN_DOUBLE(o.hard_cap_factor);
  return BadLine(c.line, c.key,
                 "[overload] key: max_pending, shed_keep_price, or "
                 "hard_cap_factor");
}

Status ApplyDriverKey(const LineContext& c, ScenarioSpec* spec) {
  if (c.key == "interval_s") {
    // A non-positive interval would never advance the driver's next
    // reconfiguration boundary.
    if (!ParseDouble(c.value, &spec->interval_s) || spec->interval_s <= 0.0) {
      return BadValue(c, "a positive number of seconds for key 'interval_s'");
    }
    return Status::OK();
  }
  // The estimator needs room for one scan; fragments and nodes need room
  // for one tuple.
  if (c.key == "window") NASHDB_SCN_POSITIVE_UINT(spec->window);
  if (c.key == "node_cost") NASHDB_SCN_DOUBLE(spec->node_cost);
  if (c.key == "node_disk") NASHDB_SCN_POSITIVE_UINT(spec->node_disk);
  if (c.key == "block") NASHDB_SCN_POSITIVE_UINT(spec->block);
  if (c.key == "max_replicas") NASHDB_SCN_UINT(spec->max_replicas);
  if (c.key == "prewarm_scans") NASHDB_SCN_UINT(spec->prewarm_scans);
  if (c.key == "keep_records") NASHDB_SCN_BOOL(spec->keep_records);
  if (c.key == "adaptive") NASHDB_SCN_BOOL(spec->adaptive);
  if (c.key == "reconfig_threads") {
    NASHDB_SCN_BOUNDED_UINT(spec->reconfig_threads, kMaxReconfigThreads);
  }
  // The simulator divides by both rates.
  if (c.key == "tuples_per_second") {
    NASHDB_SCN_POSITIVE_DOUBLE(spec->tuples_per_second);
  }
  if (c.key == "transfer_tuples_per_second") {
    NASHDB_SCN_POSITIVE_DOUBLE(spec->transfer_tuples_per_second);
  }
  if (c.key == "router") {
    const std::string r(c.value);
    if (r != "maxofmins" && r != "shortestqueue" && r != "greedysc" &&
        r != "power2") {
      return BadValue(c,
                      "router maxofmins, shortestqueue, greedysc, or power2");
    }
    spec->router = r;
    return Status::OK();
  }
  return BadLine(c.line, c.key,
                 "[driver] key: interval_s, window, node_cost, node_disk, "
                 "block, max_replicas, prewarm_scans, keep_records, "
                 "adaptive, reconfig_threads, tuples_per_second, "
                 "transfer_tuples_per_second, or router");
}

Status ApplyAssertKey(const LineContext& c, ScenarioSpec* spec) {
  if (!KnownAssertKey(c.key)) {
    return BadLine(c.line, c.key,
                   std::string("[assert] key: ") + std::string(kAssertKeys));
  }
  ScenarioAssertion a;
  a.key = std::string(c.key);
  if (!ParseDouble(c.value, &a.value)) {
    return BadValue(c, "a number for assertion '" + a.key + "'");
  }
  spec->assertions.push_back(std::move(a));
  return Status::OK();
}

#undef NASHDB_SCN_DOUBLE
#undef NASHDB_SCN_UINT
#undef NASHDB_SCN_NONNEGATIVE_DOUBLE
#undef NASHDB_SCN_POSITIVE_DOUBLE
#undef NASHDB_SCN_BOUNDED_UINT
#undef NASHDB_SCN_POSITIVE_UINT
#undef NASHDB_SCN_BOOL

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out.push_back('\\');
      out.push_back(ch);
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out.push_back(ch);
    }
  }
  return out;
}

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", x);
  return buf;
}

}  // namespace

Result<ScenarioSpec> ScenarioSpec::Parse(std::string_view text) {
  ScenarioSpec spec;
  enum class Section {
    kNone, kScenario, kTopology, kWorkload, kPhase, kFaults, kOverload,
    kDriver, kAssert,
  };
  Section section = Section::kNone;
  StreamPhase* phase = nullptr;   // open [phase] being filled
  bool phase_has_kind = false;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = std::min(text.find('\n', pos), text.size());
    std::string_view line = Trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++line_no;
    // Whole-line comments only: fault specs and descriptions may contain
    // '#' mid-value, so only a leading '#' comments.
    if (line.empty() || line.front() == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return BadLine(line_no, line, "a section header like [workload]");
      }
      const std::string_view name = Trim(line.substr(1, line.size() - 2));
      if (name == "scenario") section = Section::kScenario;
      else if (name == "topology") section = Section::kTopology;
      else if (name == "workload") section = Section::kWorkload;
      else if (name == "phase") section = Section::kPhase;
      else if (name == "faults") section = Section::kFaults;
      else if (name == "overload") section = Section::kOverload;
      else if (name == "driver") section = Section::kDriver;
      else if (name == "assert") section = Section::kAssert;
      else return BadLine(line_no, line, std::string(kSections));
      if (section == Section::kPhase) {
        spec.workload.phases.emplace_back();
        phase = &spec.workload.phases.back();
        phase_has_kind = false;
      } else {
        phase = nullptr;
      }
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      return BadLine(line_no, line, "a 'key = value' line or [section]");
    }
    const LineContext c{line_no, Trim(line.substr(0, eq)),
                        Trim(line.substr(eq + 1))};
    if (c.key.empty()) {
      return BadLine(line_no, line, "a nonempty key before '='");
    }

    Status st;
    switch (section) {
      case Section::kNone:
        return BadLine(line_no, c.key,
                       std::string("a section header before any key: ") +
                           std::string(kSections));
      case Section::kScenario: st = ApplyScenarioKey(c, &spec); break;
      case Section::kTopology: st = ApplyTopologyKey(c, &spec); break;
      case Section::kWorkload: st = ApplyWorkloadKey(c, &spec); break;
      case Section::kPhase: {
        if (c.key == "kind") {
          if (c.value == "diurnal") phase->kind = StreamPhase::Kind::kDiurnal;
          else if (c.value == "flash_crowd") {
            phase->kind = StreamPhase::Kind::kFlashCrowd;
          } else if (c.value == "skew_drift") {
            phase->kind = StreamPhase::Kind::kSkewDrift;
          } else if (c.value == "price_war") {
            phase->kind = StreamPhase::Kind::kPriceWar;
          } else {
            return BadValue(
                c, "phase kind diurnal, flash_crowd, skew_drift, or "
                   "price_war");
          }
          phase_has_kind = true;
          st = Status::OK();
        } else if (!phase_has_kind) {
          // Requiring kind first keeps the grammar unambiguous: every
          // later key is interpreted under a known phase kind.
          return BadLine(line_no, c.key,
                         "'kind = ...' as the first key of a [phase]");
        } else {
          st = ApplyPhaseKey(c, phase);
        }
        break;
      }
      case Section::kFaults: st = ApplyFaultsKey(c, &spec); break;
      case Section::kOverload: st = ApplyOverloadKey(c, &spec); break;
      case Section::kDriver: st = ApplyDriverKey(c, &spec); break;
      case Section::kAssert: st = ApplyAssertKey(c, &spec); break;
    }
    NASHDB_RETURN_IF_ERROR(st);
    if (pos > text.size()) break;
  }

  if (!spec.workload.phases.empty() && section == Section::kPhase &&
      !phase_has_kind) {
    return Status::InvalidArgument(
        "scenario: [phase] section without a 'kind = ...' line");
  }

  // Fold the topology into the fault grammar: a declared rack count is
  // what r-scoped fault targets resolve against.
  std::string fault_text = spec.faults;
  if (spec.racks > 0 &&
      fault_text.find("racks=") == std::string::npos) {
    fault_text = "racks=" + std::to_string(spec.racks) +
                 (fault_text.empty() ? "" : ";" + fault_text);
  }
  if (!fault_text.empty()) {
    Result<FaultSpec> parsed = FaultSpec::Parse(fault_text);
    if (!parsed.ok()) {
      return Status::InvalidArgument("scenario [faults] spec: " +
                                     parsed.status().message());
    }
    spec.fault_options.spec = std::move(*parsed);
  }
  if (spec.workload.num_queries == 0) {
    return Status::InvalidArgument(
        "scenario [workload]: queries must be > 0");
  }
  if (spec.workload.duration_s <= 0.0) {
    return Status::InvalidArgument(
        "scenario [workload]: duration_s must be > 0");
  }
  // The workload's one table holds db_gb x tuples_per_gb tuples
  // (PhasedQueryStream): it must hold at least one, and the count must
  // fit a TupleCount.
  const double tuples = spec.workload.db_gb *
                        static_cast<double>(spec.workload.tuples_per_gb);
  if (!(tuples >= 1.0 && tuples < std::ldexp(1.0, 64))) {
    std::ostringstream os;
    os << "scenario [workload]: keys 'db_gb' x 'tuples_per_gb' give "
       << tuples << " tuples: expected a table of at least one tuple "
       << "(and fewer than 2^64)";
    return Status::InvalidArgument(os.str());
  }
  const TupleCount fragment =
      std::min<TupleCount>(spec.block, static_cast<TupleCount>(tuples));
  if (spec.node_disk < fragment) {
    std::ostringstream os;
    os << "scenario [driver]: key 'node_disk' = " << spec.node_disk
       << " is below min(block, table tuples) = " << fragment
       << ": expected a node that holds one block-sized fragment";
    return Status::InvalidArgument(os.str());
  }
  return spec;
}

Result<ScenarioSpec> ScenarioSpec::Load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::NotFound("cannot read scenario file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  Result<ScenarioSpec> spec = Parse(buf.str());
  if (!spec.ok()) {
    return Status(spec.status().code(),
                  path + ": " + spec.status().message());
  }
  return spec;
}

std::vector<std::string> EvaluateAssertions(const ScenarioSpec& spec,
                                            const RunResult& result,
                                            double rss_peak_mb) {
  std::vector<std::string> violations;
  const double total =
      std::max<double>(1.0, static_cast<double>(result.total_queries));
  const SimTime recovery =
      result.last_fault_time_s < 0.0
          ? 0.0
          : std::max(0.0, result.last_disruption_time_s -
                              result.last_fault_time_s);
  for (const ScenarioAssertion& a : spec.assertions) {
    double measured = 0.0;
    bool is_min = false;  // min_* asserts measured >= bound
    if (a.key == "max_abort_rate") {
      measured = static_cast<double>(result.aborted_queries) / total;
    } else if (a.key == "max_shed_rate") {
      measured = static_cast<double>(result.shed_queries) / total;
    } else if (a.key == "max_retry_rate") {
      measured = static_cast<double>(result.scan_retries) / total;
    } else if (a.key == "mean_latency_s") {
      measured = result.MeanLatency();
    } else if (a.key == "p50_latency_s") {
      measured = result.TailLatency(50);
    } else if (a.key == "p95_latency_s") {
      measured = result.TailLatency(95);
    } else if (a.key == "p99_latency_s") {
      measured = result.TailLatency(99);
    } else if (a.key == "recovery_time_s") {
      measured = recovery;
    } else if (a.key == "min_completed") {
      measured = static_cast<double>(result.CompletedQueries());
      is_min = true;
    } else if (a.key == "min_cost_cents") {
      measured = result.total_cost;
      is_min = true;
    } else if (a.key == "max_cost_cents") {
      measured = result.total_cost;
    } else if (a.key == "max_rss_mb") {
      measured = rss_peak_mb;
    } else {
      NASHDB_CHECK(false) << "unvalidated assertion key " << a.key;
    }
    const bool ok = is_min ? measured >= a.value : measured <= a.value;
    if (!ok) {
      violations.push_back(a.key + ": " + Num(measured) +
                           (is_min ? " < " : " > ") + Num(a.value));
    }
  }
  return violations;
}

namespace {

std::unique_ptr<ScanRouter> BuildScenarioRouter(const ScenarioSpec& spec) {
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

double PeakRssMb() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
#if defined(__APPLE__)
  return static_cast<double>(ru.ru_maxrss) / (1024.0 * 1024.0);  // bytes
#else
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // kilobytes
#endif
#else
  return 0.0;
#endif
}

std::string BuildReportJson(const ScenarioSpec& spec,
                            const ScenarioOutcome& out) {
  const RunResult& r = out.result;
  std::ostringstream os;
  os << "{\n";
  os << "  \"scenario\": \"" << JsonEscape(spec.name) << "\",\n";
  os << "  \"seed\": " << spec.seed << ",\n";
  os << "  \"total_queries\": " << r.total_queries << ",\n";
  os << "  \"completed_queries\": " << r.CompletedQueries() << ",\n";
  os << "  \"aborted_queries\": " << r.aborted_queries << ",\n";
  os << "  \"shed_queries\": " << r.shed_queries << ",\n";
  os << "  \"scan_retries\": " << r.scan_retries << ",\n";
  os << "  \"crashes\": " << r.crashes << ",\n";
  os << "  \"partitions\": " << r.partitions << ",\n";
  os << "  \"emergency_repairs\": " << r.emergency_repairs << ",\n";
  os << "  \"transitions\": " << r.transitions << ",\n";
  os << "  \"mean_latency_s\": " << Num(r.MeanLatency()) << ",\n";
  os << "  \"p50_latency_s\": " << Num(r.TailLatency(50)) << ",\n";
  os << "  \"p95_latency_s\": " << Num(r.TailLatency(95)) << ",\n";
  os << "  \"p99_latency_s\": " << Num(r.TailLatency(99)) << ",\n";
  os << "  \"total_cost_cents\": " << Num(r.total_cost) << ",\n";
  os << "  \"final_nodes\": " << r.final_nodes << ",\n";
  os << "  \"makespan_s\": " << Num(r.makespan_s) << ",\n";
  os << "  \"last_fault_time_s\": " << Num(r.last_fault_time_s) << ",\n";
  os << "  \"last_disruption_time_s\": " << Num(r.last_disruption_time_s)
     << ",\n";
  os << "  \"recovery_time_s\": " << Num(out.recovery_time_s) << ",\n";
  os << "  \"rss_peak_mb\": " << Num(out.rss_peak_mb) << ",\n";
  os << "  \"violations\": [";
  for (std::size_t i = 0; i < out.violations.size(); ++i) {
    os << (i ? ", " : "") << "\"" << JsonEscape(out.violations[i]) << "\"";
  }
  os << "],\n";
  os << "  \"assertions\": " << spec.assertions.size() << ",\n";
  os << "  \"passed\": " << (out.violations.empty() ? "true" : "false")
     << "\n";
  os << "}\n";
  return os.str();
}

}  // namespace

ScenarioOutcome RunScenario(const ScenarioSpec& spec) {
  PhasedQueryStream stream(spec.workload);

  NashDbOptions no;
  no.window_scans = spec.window;
  no.block_tuples = spec.block;
  no.node_cost = spec.node_cost;
  no.node_disk = spec.node_disk;
  no.max_replicas = spec.max_replicas;
  no.reconfig_threads = spec.reconfig_threads;
  NashDbSystem system(stream.dataset(), no);

  std::unique_ptr<ScanRouter> router = BuildScenarioRouter(spec);

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

  ScenarioOutcome out;
  out.result = RunQueryStream(&stream, &system, router.get(), d);
  out.recovery_time_s =
      out.result.last_fault_time_s < 0.0
          ? 0.0
          : std::max(0.0, out.result.last_disruption_time_s -
                              out.result.last_fault_time_s);
  out.rss_peak_mb = PeakRssMb();
  out.violations = EvaluateAssertions(spec, out.result, out.rss_peak_mb);
  out.report_json = BuildReportJson(spec, out);
  return out;
}

}  // namespace nashdb
