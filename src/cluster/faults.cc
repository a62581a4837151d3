#include "cluster/faults.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace nashdb {
namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

bool ConsumePrefix(std::string_view* s, std::string_view prefix) {
  if (s->substr(0, prefix.size()) != prefix) return false;
  s->remove_prefix(prefix.size());
  return true;
}

/// Parses a leading non-negative double, consuming it. False on no parse.
bool ConsumeDouble(std::string_view* s, double* out) {
  const std::string buf(*s);
  char* end = nullptr;
  const double v = std::strtod(buf.c_str(), &end);
  if (end == buf.c_str() || v < 0.0) return false;
  s->remove_prefix(static_cast<std::size_t>(end - buf.c_str()));
  *out = v;
  return true;
}

/// Parses "nID" (node-scoped) or "rID" (rack-scoped), filling exactly one
/// of `node` / `rack` and leaving the other kInvalidNode.
bool ConsumeTarget(std::string_view* s, NodeId* node, NodeId* rack) {
  *node = kInvalidNode;
  *rack = kInvalidNode;
  const bool is_rack = !s->empty() && s->front() == 'r';
  if (is_rack) {
    s->remove_prefix(1);
  } else if (!ConsumePrefix(s, "n")) {
    return false;
  }
  double v = 0.0;
  if (!ConsumeDouble(s, &v) || v != std::floor(v)) return false;
  *(is_rack ? rack : node) = static_cast<NodeId>(v);
  return true;
}

/// Optional ":for=D" suffix; defaults to kNeverRecovers.
bool ConsumeDuration(std::string_view* s, SimTime* out) {
  *out = kNeverRecovers;
  if (s->empty()) return true;
  if (!ConsumePrefix(s, ":for=")) return false;
  double v = 0.0;
  if (!ConsumeDouble(s, &v)) return false;
  *out = v;
  return s->empty();
}

/// Parse rejection naming the offending token and the grammar it was
/// expected to match, per-clause (exit code 2 at the CLI).
Status BadClause(std::string_view clause, std::string_view expected) {
  return Status::InvalidArgument("bad --faults clause '" +
                                 std::string(clause) + "': expected " +
                                 std::string(expected));
}

}  // namespace

Result<FaultSpec> FaultSpec::Parse(std::string_view spec) {
  FaultSpec out;
  while (!spec.empty()) {
    const std::size_t sep = spec.find(';');
    std::string_view clause = Trim(spec.substr(0, sep));
    spec = sep == std::string_view::npos ? std::string_view()
                                         : spec.substr(sep + 1);
    if (clause.empty()) continue;
    std::string_view rest = clause;
    FaultEvent ev;
    if (ConsumePrefix(&rest, "crash@")) {
      ev.type = FaultType::kCrash;
      if (!ConsumeDouble(&rest, &ev.time) || !ConsumePrefix(&rest, ":") ||
          !ConsumeTarget(&rest, &ev.node, &ev.rack) ||
          !ConsumeDuration(&rest, &ev.duration_s)) {
        return BadClause(clause, "crash@T:(n|r)ID[:for=D]");
      }
      out.scripted.push_back(ev);
    } else if (ConsumePrefix(&rest, "recover@")) {
      ev.type = FaultType::kRecover;
      if (!ConsumeDouble(&rest, &ev.time) || !ConsumePrefix(&rest, ":") ||
          !ConsumeTarget(&rest, &ev.node, &ev.rack) || !rest.empty()) {
        return BadClause(clause, "recover@T:(n|r)ID");
      }
      out.scripted.push_back(ev);
    } else if (ConsumePrefix(&rest, "slow@")) {
      ev.type = FaultType::kSlowdown;
      if (!ConsumeDouble(&rest, &ev.time) || !ConsumePrefix(&rest, ":") ||
          !ConsumeTarget(&rest, &ev.node, &ev.rack) ||
          !ConsumePrefix(&rest, ":x") || !ConsumeDouble(&rest, &ev.factor) ||
          !ConsumeDuration(&rest, &ev.duration_s) || ev.factor <= 0.0 ||
          ev.factor > 1.0) {
        return BadClause(clause,
                         "slow@T:(n|r)ID:xF[:for=D] with F in (0, 1]");
      }
      out.scripted.push_back(ev);
    } else if (ConsumePrefix(&rest, "partition@")) {
      ev.type = FaultType::kPartition;
      if (!ConsumeDouble(&rest, &ev.time) || !ConsumePrefix(&rest, ":") ||
          !ConsumeTarget(&rest, &ev.node, &ev.rack) ||
          !ConsumeDuration(&rest, &ev.duration_s)) {
        return BadClause(clause, "partition@T:(n|r)ID[:for=D]");
      }
      out.scripted.push_back(ev);
    } else if (ConsumePrefix(&rest, "heal@")) {
      ev.type = FaultType::kHeal;
      if (!ConsumeDouble(&rest, &ev.time) || !ConsumePrefix(&rest, ":") ||
          !ConsumeTarget(&rest, &ev.node, &ev.rack) || !rest.empty()) {
        return BadClause(clause, "heal@T:(n|r)ID");
      }
      out.scripted.push_back(ev);
    } else if (ConsumePrefix(&rest, "interrupt@")) {
      ev.type = FaultType::kInterrupt;
      if (!ConsumeDouble(&rest, &ev.time) || !rest.empty()) {
        return BadClause(clause, "interrupt@T");
      }
      out.scripted.push_back(ev);
    } else if (ConsumePrefix(&rest, "racks=")) {
      double v = 0.0;
      if (!ConsumeDouble(&rest, &v) || !rest.empty() || v < 1.0 ||
          v != std::floor(v)) {
        return BadClause(clause, "racks=N with integer N >= 1");
      }
      out.racks = static_cast<std::size_t>(v);
    } else if (ConsumePrefix(&rest, "mttf=")) {
      if (!ConsumeDouble(&rest, &out.mttf_s) || !rest.empty() ||
          out.mttf_s <= 0.0) {
        return BadClause(clause, "mttf=S with S > 0");
      }
    } else if (ConsumePrefix(&rest, "mttr=")) {
      if (!ConsumeDouble(&rest, &out.mttr_s) || !rest.empty()) {
        return BadClause(clause, "mttr=S");
      }
    } else if (ConsumePrefix(&rest, "straggle-every=")) {
      if (!ConsumeDouble(&rest, &out.straggle_every_s) || !rest.empty() ||
          out.straggle_every_s <= 0.0) {
        return BadClause(clause, "straggle-every=S with S > 0");
      }
    } else if (ConsumePrefix(&rest, "straggle-for=")) {
      if (!ConsumeDouble(&rest, &out.straggle_for_s) || !rest.empty()) {
        return BadClause(clause, "straggle-for=S");
      }
    } else if (ConsumePrefix(&rest, "straggle-x=")) {
      if (!ConsumeDouble(&rest, &out.straggle_factor) || !rest.empty() ||
          out.straggle_factor <= 0.0 || out.straggle_factor > 1.0) {
        return BadClause(clause, "straggle-x=F with F in (0, 1]");
      }
    } else if (ConsumePrefix(&rest, "pinterrupt=")) {
      if (!ConsumeDouble(&rest, &out.interrupt_prob) || !rest.empty() ||
          out.interrupt_prob > 1.0) {
        return BadClause(clause, "pinterrupt=P with P in [0, 1]");
      }
    } else {
      const std::size_t head = clause.find_first_of("@=");
      return Status::InvalidArgument(
          "bad --faults clause '" + std::string(clause) +
          "': unknown clause head '" +
          std::string(clause.substr(0, head)) +
          "'; known clauses: crash@ recover@ slow@ partition@ heal@ "
          "interrupt@ racks= mttf= mttr= straggle-every= straggle-for= "
          "straggle-x= pinterrupt=");
    }
  }
  for (const FaultEvent& ev : out.scripted) {
    if (ev.rack == kInvalidNode) continue;
    if (out.racks == 0) {
      return Status::InvalidArgument(
          "bad --faults spec: rack-scoped target 'r" +
          std::to_string(ev.rack) +
          "' requires a 'racks=N' topology clause");
    }
    if (ev.rack >= out.racks) {
      return Status::InvalidArgument(
          "bad --faults spec: rack id 'r" + std::to_string(ev.rack) +
          "' out of range for racks=" + std::to_string(out.racks));
    }
  }
  std::stable_sort(out.scripted.begin(), out.scripted.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

FaultScheduler::FaultScheduler(FaultSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), rng_(seed) {
  if (spec_.mttf_s > 0.0) next_crash_ = DrawExponential(spec_.mttf_s);
  if (spec_.straggle_every_s > 0.0) {
    next_straggle_ = DrawExponential(spec_.straggle_every_s);
  }
}

SimTime FaultScheduler::DrawExponential(double mean_s) {
  // Inverse-CDF; NextDouble() < 1 keeps the log argument positive.
  return clock_ + -mean_s * std::log(1.0 - rng_.NextDouble());
}

NodeId FaultScheduler::PickLiveVictim(const ClusterSim& sim, SimTime at) {
  std::vector<NodeId> live;
  live.reserve(sim.node_count());
  for (NodeId m = 0; m < sim.node_count(); ++m) {
    if (sim.NodeAlive(m, at)) live.push_back(m);
  }
  if (live.empty()) return kInvalidNode;
  return live[static_cast<std::size_t>(rng_.Uniform(live.size()))];
}

std::vector<FaultEvent> FaultScheduler::AdvanceTo(SimTime now,
                                                  ClusterSim* sim) {
  NASHDB_DCHECK(now >= clock_) << "fault clock moved backwards";
  std::vector<FaultEvent> delivered;
  for (;;) {
    Source src = Source::kScripted;
    const SimTime t = NextEvent(&src);
    if (t > now) break;
    clock_ = t;

    FaultEvent ev;
    if (src == Source::kScripted) {
      // Applies one node-resolved event; returns false (and counts a
      // drop) when the target's state makes it a no-op.
      const auto deliver_one = [&](const FaultEvent& e) -> bool {
        switch (e.type) {
          case FaultType::kCrash:
            if (e.node >= sim->node_count() || !sim->NodeAlive(e.node, t)) {
              break;
            }
            sim->FailNode(e.node, t, t + e.duration_s);
            ++stats_.crashes;
            return true;
          case FaultType::kRecover:
            if (e.node >= sim->node_count() || sim->NodeAlive(e.node, t)) {
              break;
            }
            sim->RecoverNode(e.node, t);
            ++stats_.recoveries;
            return true;
          case FaultType::kSlowdown:
            if (e.node >= sim->node_count() || !sim->NodeAlive(e.node, t)) {
              break;
            }
            sim->SlowNode(e.node, e.factor, t + e.duration_s);
            ++stats_.slowdowns;
            return true;
          case FaultType::kPartition:
            if (e.node >= sim->node_count() || !sim->NodeAlive(e.node, t)) {
              break;
            }
            sim->PartitionNode(e.node, t, t + e.duration_s);
            ++stats_.partitions;
            return true;
          case FaultType::kHeal:
            if (e.node >= sim->node_count() ||
                !sim->NodeAlive(e.node, t) || sim->NodeRoutable(e.node, t)) {
              break;
            }
            sim->HealNode(e.node, t);
            ++stats_.heals;
            return true;
          case FaultType::kInterrupt:
            break;  // Handled before the per-node path.
        }
        ++stats_.dropped_events;
        return false;
      };
      ev = spec_.scripted[next_scripted_++];
      if (ev.type == FaultType::kInterrupt) {
        pending_scripted_interrupt_ = true;
        delivered.push_back(ev);
      } else if (ev.rack != kInvalidNode) {
        // Rack-scoped: expand against the *current* node count
        // (round-robin striping, node m in rack m % racks) so correlated
        // failures follow the elastic cluster.
        NASHDB_DCHECK(spec_.racks > 0);
        for (NodeId m = ev.rack; m < sim->node_count();
             m += static_cast<NodeId>(spec_.racks)) {
          FaultEvent expanded = ev;
          expanded.node = m;
          if (deliver_one(expanded)) delivered.push_back(expanded);
        }
      } else if (deliver_one(ev)) {
        delivered.push_back(ev);
      }
      continue;
    } else if (src == Source::kStochCrash) {
      next_crash_ = DrawExponential(spec_.mttf_s);
      const NodeId victim = PickLiveVictim(*sim, t);
      if (victim == kInvalidNode) {
        ++stats_.dropped_events;
        continue;
      }
      ev.type = FaultType::kCrash;
      ev.time = t;
      ev.node = victim;
      ev.duration_s = spec_.mttr_s > 0.0
                          ? -spec_.mttr_s * std::log(1.0 - rng_.NextDouble())
                          : kNeverRecovers;
      // MTTR recoveries are implicit: FailNode records the revival time,
      // so future-time liveness queries see it without another event.
      sim->FailNode(victim, t, t + ev.duration_s);
      ++stats_.crashes;
    } else {
      next_straggle_ = DrawExponential(spec_.straggle_every_s);
      const NodeId victim = PickLiveVictim(*sim, t);
      if (victim == kInvalidNode) {
        ++stats_.dropped_events;
        continue;
      }
      ev.type = FaultType::kSlowdown;
      ev.time = t;
      ev.node = victim;
      ev.factor = spec_.straggle_factor;
      ev.duration_s = spec_.straggle_for_s;
      sim->SlowNode(victim, ev.factor, t + ev.duration_s);
      ++stats_.slowdowns;
    }
    delivered.push_back(ev);
  }
  clock_ = now;
  return delivered;
}

std::vector<std::size_t> FaultScheduler::InterruptedMoves(
    const TransitionPlan& plan, SimTime now) {
  (void)now;
  std::vector<std::size_t> interrupted;
  const bool all = pending_scripted_interrupt_;
  pending_scripted_interrupt_ = false;
  for (std::size_t i = 0; i < plan.moves.size(); ++i) {
    if (plan.moves[i].transfer_tuples == 0) continue;
    if (all || (spec_.interrupt_prob > 0.0 &&
                rng_.Bernoulli(spec_.interrupt_prob))) {
      interrupted.push_back(i);
    }
  }
  stats_.transfer_interrupts += interrupted.size();
  return interrupted;
}

}  // namespace nashdb
