#include "engine/nashdb_system.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <iterator>
#include <map>
#include <tuple>

#include "common/logging.h"
#include "common/metrics.h"
#include "engine/validate.h"
#include "replication/incremental.h"
#include "replication/nash.h"

namespace nashdb {
namespace {

/// True when `params` and `fragments` are the packing inputs `config` was
/// packed from: packing keeps the params and the fragment list it is
/// given and decides only each fragment's `replicas`.
bool SamePackingInputs(const ClusterConfig& config,
                       const ReplicationParams& params,
                       const std::vector<FragmentInfo>& fragments) {
  if (!BitIdentical(config.params(), params) ||
      config.fragments().size() != fragments.size()) {
    return false;
  }
  for (std::size_t i = 0; i < fragments.size(); ++i) {
    if (!SameFragmentInputs(config.fragments()[i], fragments[i])) {
      return false;
    }
  }
  return true;
}

}  // namespace

ClusterConfig DecideAndPack(const ReplicationParams& params,
                            std::vector<FragmentInfo> fragments,
                            const ClusterConfig* previous,
                            std::size_t* ideal_replicas) {
  DecideReplication(params, &fragments);
  if (ideal_replicas != nullptr) {
    *ideal_replicas = 0;
    for (const FragmentInfo& f : fragments) *ideal_replicas += f.replicas;
  }

  // Replica-count hysteresis: keep (approximately) the previous count
  // when the fresh Eq. 9 ideal only flutters around it — sampling noise
  // in the scan window would otherwise turn into fragment copies at every
  // transition. Fragment boundaries shift between reconfigurations, so
  // the previous count of a new fragment is estimated as the
  // overlap-weighted average of the previous fragments covering its
  // range.
  if (previous != nullptr) {
    std::map<TableId, std::vector<const FragmentInfo*>> prev_by_table;
    for (const FragmentInfo& f : previous->fragments()) {
      prev_by_table[f.table].push_back(&f);
    }
    for (auto& [table, frags] : prev_by_table) {
      (void)table;
      std::sort(frags.begin(), frags.end(),
                [](const FragmentInfo* a, const FragmentInfo* b) {
                  return a->range.start < b->range.start;
                });
    }
    for (FragmentInfo& f : fragments) {
      auto it = prev_by_table.find(f.table);
      if (it == prev_by_table.end()) continue;
      double weighted = 0.0;
      TupleCount covered = 0;
      for (const FragmentInfo* p : it->second) {
        if (p->range.start >= f.range.end) break;
        const TupleCount overlap = p->range.Intersect(f.range).size();
        if (overlap == 0) continue;
        weighted +=
            static_cast<double>(p->replicas) * static_cast<double>(overlap);
        covered += overlap;
      }
      if (covered == 0) continue;
      const double prev = weighted / static_cast<double>(covered);
      const double diff = std::abs(static_cast<double>(f.replicas) - prev);
      const double band = std::max(static_cast<double>(kReplicaHysteresis),
                                   kReplicaHysteresisFrac * prev);
      if (diff > 0.0 && diff <= band) {
        std::size_t kept = static_cast<std::size_t>(prev + 0.5);
        kept = std::max(kept, params.min_replicas);
        if (params.max_replicas > 0) {
          kept = std::min(kept, params.max_replicas);
        }
        f.replicas = kept;
      }
    }
  }

  Result<ClusterConfig> packed =
      RepackIncremental(params, std::move(fragments), previous);
  NASHDB_CHECK(packed.ok()) << packed.status().ToString();
  return std::move(packed).value();
}

NashDbSystem::NashDbSystem(Dataset dataset, const NashDbOptions& options)
    : dataset_(std::move(dataset)),
      options_(options),
      estimator_(std::make_unique<TupleValueEstimator>(options.window_scans)) {
  NASHDB_CHECK_GT(options_.block_tuples, 0u);
  NASHDB_CHECK_GT(options_.node_disk, 0u);
  for (const TableSpec& t : dataset_.tables) {
    NASHDB_CHECK_LE(std::min<TupleCount>(t.tuples, options_.block_tuples),
                    options_.node_disk)
        << "a block-sized fragment must fit one node";
  }
}

NashDbSystem::~NashDbSystem() { StopWorker(); }

void NashDbSystem::Observe(const Query& query) {
  // The first admission after a build starts the worker (DESIGN.md §11).
  if (hand_off_ && !scans_) StartWorker();
  ScanRing* const ring = scans_.get();
  std::uint64_t added = 0;
  for (const Scan& scan : query.scans) {
    if (scan.range.empty()) continue;
    ++added;
    if (ring != nullptr) {
      ring->Back() = scan;
      ring->Push();
    } else {
      estimator_->AddScanUncounted(scan);
    }
  }
  if (added == 0) return;
  // The estimator evicts one scan for each scan added to a full window.
  const std::uint64_t room = options_.window_scans - window_fill_;
  const std::uint64_t evicted = added > room ? added - room : 0;
  window_fill_ += added - evicted;
  scans_added_.Inc(added);
  if (evicted > 0) scans_evicted_.Inc(evicted);
}

void NashDbSystem::StartWorker() {
  scans_ = std::make_unique<ScanRing>();
  worker_ = std::thread([this] {
    try {
      while (const Scan* scan = scans_->Front()) {
        estimator_->AddScanUncounted(*scan);
        scans_->Pop();
      }
    } catch (const std::exception& e) {
      NASHDB_CHECK(false) << "estimator worker: " << e.what();
    }
  });
}

void NashDbSystem::Drain() {
  if (!scans_) return;
  scans_->Drain(
      [this](const Scan& scan) { estimator_->AddScanUncounted(scan); });
}

void NashDbSystem::StopWorker() {
  if (!scans_) return;
  scans_->Close();
  worker_.join();
  scans_.reset();
}

std::size_t NashDbSystem::MaxFragsFor(TupleCount table_size) const {
  std::size_t max_frags = static_cast<std::size_t>(
      (table_size + options_.block_tuples - 1) / options_.block_tuples);
  if (max_frags == 0) max_frags = 1;
  return max_frags;
}

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

NashDbSystem::EstimatorSnapshot NashDbSystem::SnapshotEstimator() {
  Drain();
  // From the first build on, Observe hands its scans to the worker.
  hand_off_ = true;
  EstimatorSnapshot snap;
  snap.window_scans = estimator_->window_scans();
  snap.window.assign(estimator_->window().begin(), estimator_->window().end());
  // Materialize every table's value profile now: Profile() is the one
  // estimator read whose input (the endpoint tables) Observe() mutates, so
  // capturing it here is what makes the rest of the build safe to overlap
  // with query admission. Serial on the caller, and a sort of at most
  // 2|W| keys per table — a sliver of the refragmentation cost it
  // unblocks.
  for (const TableSpec& table : dataset_.tables) {
    if (table.tuples == 0) continue;
    snap.profiles.emplace(table.id,
                          estimator_->Profile(table.id, table.tuples));
  }
  for (TableId t : estimator_->ActiveTables()) {
    ++snap.active_tables;
    snap.tree_nodes += estimator_->tree(t)->node_count();
  }
  snap.estimator_bytes = estimator_->SizeBytes();
  return snap;
}

ClusterConfig NashDbSystem::BuildConfig() {
  return BuildFromSnapshot(SnapshotEstimator());
}

std::future<ClusterConfig> NashDbSystem::BuildConfigAsync() {
  // Snapshot serially (Observe may resume the moment this returns), then
  // build on a detached thread. Deliberately a std::async thread rather
  // than a pool task: ParallelFor degrades to inline execution when the
  // caller is itself a pool worker, which would serialize the per-table
  // refragmentation fan-out inside the build.
  return std::async(
      std::launch::async,
      [this, snap = SnapshotEstimator()]() mutable {
        return BuildFromSnapshot(std::move(snap));
      });
}

ClusterConfig NashDbSystem::BuildFromSnapshot(EstimatorSnapshot snap) {
  // Per-round trace (§4 estimation + §5 fragmentation + §6 replication
  // sections; the driver annotates the §7 transition section afterwards).
  // Everything below that exists only to feed the trace is gated on
  // `collect`, so a disabled registry costs one relaxed load here.
  const bool collect = metrics::Enabled();
  metrics::ReconfigTrace trace;
  if (collect) {
    trace.round = metrics::Registry::Global().reconfig_count();
    trace.window_scans = snap.window_scans;
    trace.active_tables = snap.active_tables;
    trace.tree_nodes = snap.tree_nodes;
    trace.estimator_bytes = snap.estimator_bytes;
  }

  ReplicationParams params;
  params.node_cost = options_.node_cost;
  params.node_disk = options_.node_disk;
  params.window_scans = snap.window_scans;
  params.min_replicas = options_.min_replicas;
  params.max_replicas = options_.max_replicas;

  // Refragment tables concurrently: each table's profile, window slice,
  // and (stateful) fragmenter are private to its task, and the estimator
  // is only read. Results land in a per-table slot and are concatenated in
  // table order, so the configuration is identical to the serial one.
  std::vector<const TableSpec*> tables;
  for (const TableSpec& table : dataset_.tables) {
    if (table.tuples > 0) tables.push_back(&table);
  }
  for (const TableSpec* table : tables) {
    auto& fragmenter = fragmenters_[table->id];
    if (!fragmenter) fragmenter = std::make_unique<GreedyFragmenter>();
  }
  const std::size_t threads = options_.reconfig_threads == 0
                                  ? ThreadPool::DefaultThreads()
                                  : options_.reconfig_threads;
  if (!pool_ && threads > 1) pool_ = std::make_unique<ThreadPool>(threads);

  // Per-task wall times and Eq. 4 errors land in private slots (the tasks
  // run concurrently) and are folded into the trace after the join.
  std::vector<double> task_ms(collect ? tables.size() : 0, 0.0);
  std::vector<Money> task_err(collect ? tables.size() : 0, 0.0);
  const auto frag_start = std::chrono::steady_clock::now();

  std::vector<std::vector<FragmentInfo>> per_table(tables.size());
  ParallelFor(pool_.get(), tables.size(), [&](std::size_t ti) {
    const auto task_start = std::chrono::steady_clock::now();
    const TableSpec& table = *tables[ti];
    const ValueProfile& profile = snap.profiles.at(table.id);

    std::vector<Scan> table_scans;
    for (const Scan& s : snap.window) {
      if (s.table == table.id) table_scans.push_back(s);
    }

    FragmentationContext ctx;
    ctx.table = table.id;
    ctx.profile = &profile;
    ctx.window_scans = table_scans;

    const FragmentationScheme scheme = fragmenters_.at(table.id)->Refragment(
        ctx, MaxFragsFor(table.tuples));
    NASHDB_CHECK(scheme.Valid());
    // Validating builds: cross-check the estimator's profile and the
    // fragmenter's Eq. 4 arithmetic before they feed replication.
    NASHDB_VALIDATE_OR_DIE(ValidateProfile(profile));
    NASHDB_VALIDATE_OR_DIE(ValidateScheme(scheme, profile));

    // A fragment must fit on one node; the fragmenter optimizes error, not
    // placement, so carve any over-disk fragment into disk-sized pieces
    // (error-neutral when the oversized fragment was low-variance anyway).
    FragmentId next_index = 0;
    for (const TupleRange& range : scheme.fragments) {
      TupleIndex start = range.start;
      while (start < range.end) {
        const TupleIndex end =
            std::min<TupleIndex>(range.end, start + options_.node_disk);
        FragmentInfo info;
        info.table = table.id;
        info.index_in_table = next_index++;
        info.range = TupleRange{start, end};
        info.value = profile.TotalValue(info.range);
        per_table[ti].push_back(info);
        start = end;
      }
    }
    if (collect) {
      task_err[ti] = SchemeError(scheme, profile);
      task_ms[ti] = MsSince(task_start);
    }
  });

  if (collect) {
    trace.frag_ms = MsSince(frag_start);
    trace.tables_fragmented = tables.size();
    trace.threads = threads;
    double busy_ms = 0.0;
    for (std::size_t ti = 0; ti < tables.size(); ++ti) {
      trace.scheme_error += task_err[ti];
      busy_ms += task_ms[ti];
    }
    if (trace.frag_ms > 0.0) {
      trace.thread_utilization =
          busy_ms / (static_cast<double>(threads) * trace.frag_ms);
    }
    metrics::Observe("frag.refragment_ms", trace.frag_ms);
    metrics::SetGauge("frag.thread_utilization", trace.thread_utilization);
  }

  std::vector<FragmentInfo> fragments;
  for (std::vector<FragmentInfo>& tf : per_table) {
    fragments.insert(fragments.end(), std::make_move_iterator(tf.begin()),
                     std::make_move_iterator(tf.end()));
  }

  const auto replication_start = std::chrono::steady_clock::now();
  // Replication is a pure function of the params, the fragments and the
  // anchor. When the last build reproduced its anchor and this build's
  // params and fragments equal its own, packing would return the anchor
  // again, bit for bit: reuse it (DESIGN.md §15.9).
  const bool reused = last_build_fixed_point_ &&
                      SamePackingInputs(*last_config_, params, fragments);
  if (reused) {
    // Validating builds: the reuse must be what packing would return.
    NASHDB_VALIDATE_OR_DIE(ValidateReusedConfig(
        *last_config_,
        DecideAndPack(params, std::move(fragments), last_config_.get())));
  } else {
    ClusterConfig packed = DecideAndPack(params, std::move(fragments),
                                         last_config_.get(),
                                         &last_ideal_replicas_);
    last_build_fixed_point_ =
        last_config_ != nullptr && packed.BitIdentical(*last_config_);
    last_audit_.reset();
    last_config_ = std::make_unique<ClusterConfig>(std::move(packed));
  }
  const ClusterConfig& config = *last_config_;

  // Validating builds: the packed configuration must be structurally sound
  // and every replica count within the hysteresis band of its Eq. 9 ideal
  // (elastic packing preserves requested counts, so a violation here is a
  // replication-stage bug, not a placement compromise).
#ifdef NASHDB_VALIDATE
  {
    ValidateOptions econ;
    econ.replica_slack_abs = kReplicaHysteresis;
    econ.replica_slack_frac = kReplicaHysteresisFrac;
    NASHDB_VALIDATE_OR_DIE(ValidateConfig(config, pool_.get()));
    NASHDB_VALIDATE_OR_DIE(ValidateReplicaEconomics(config, econ));
  }
#endif

  if (collect) {
    trace.replication_ms = MsSince(replication_start);
    trace.build_reused = reused;
    trace.fragments = config.fragments().size();
    trace.ideal_replicas = last_ideal_replicas_;
    for (const FragmentInfo& f : config.fragments()) {
      trace.placed_replicas += f.replicas;
    }
    trace.nodes = config.node_count();
    if (trace.nodes > 0) {
      trace.disk_fill =
          static_cast<double>(config.TotalStoredTuples()) /
          (static_cast<double>(trace.nodes) *
           static_cast<double>(params.node_disk));
    }
    // Definition 6.1 audit; min_replicas floors are exempt (they force
    // replicas above the economic ideal by design). A reused build keeps
    // the verdict on the configuration it reuses.
    if (!last_audit_) {
      last_audit_ = CheckNashEquilibrium(config, /*exempt_min_replicas=*/true);
    }
    trace.nash_equilibrium = last_audit_->is_equilibrium;
    trace.nash_violation = last_audit_->violation;
    metrics::Count("replication.builds");
    if (reused) metrics::Count("replication.reused_builds");
    if (!trace.nash_equilibrium) metrics::Count("replication.nash_violations");
    metrics::SetGauge("replication.disk_fill", trace.disk_fill);
    metrics::SetGauge("replication.nodes",
                      static_cast<double>(trace.nodes));
    metrics::Observe("replication.decide_pack_ms", trace.replication_ms);
    metrics::Registry::Global().RecordReconfig(std::move(trace));
  }
  return config;
}

void NashDbSystem::NoteAppliedConfig(const ClusterConfig& config) {
  last_config_ = std::make_unique<ClusterConfig>(config);
  last_build_fixed_point_ = false;
  last_audit_.reset();
}

void NashDbSystem::Reset() {
  StopWorker();
  estimator_ =
      std::make_unique<TupleValueEstimator>(options_.window_scans);
  hand_off_ = false;
  window_fill_ = 0;
  fragmenters_.clear();
  last_config_.reset();
  last_build_fixed_point_ = false;
  last_audit_.reset();
}

}  // namespace nashdb
