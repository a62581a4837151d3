// Bitwise oracle suite for the reconfiguration round's three kernels: the
// greedy fragmenter's split search and triplet merge, the dense Hungarian
// solver, and the packer's coverer index. Each production kernel must
// reproduce its reference implementation exactly: every double compared
// with EXPECT_EQ, whole assignment vectors and fragment lists, not only
// costs.
//
// The references below are the earlier implementations, kept verbatim as
// oracles: prefix sums that look up a chunk for every position, a split
// search over a freshly collected candidate vector, a triplet merge that
// recomputes three errors per triplet, the nested-vector Kuhn–Munkres that
// allocates its slack and visited arrays per row, and a linear coverage
// scan over every interval of every node.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <optional>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "fragment/fragmenter.h"
#include "fragment/prefix_stats.h"
#include "replication/cluster_config.h"
#include "replication/node_data.h"
#include "transition/edge_cost.h"
#include "transition/hungarian.h"
#include "value/value_profile.h"

namespace nashdb {
namespace {

// ------------------------------------------------- split-search oracle

class OraclePrefixStats {
 public:
  explicit OraclePrefixStats(const ValueProfile& profile)
      : table_size_(profile.table_size()) {
    const auto& chunks = profile.chunks();
    cum_sum_.resize(chunks.size() + 1, 0.0);
    cum_sumsq_.resize(chunks.size() + 1, 0.0);
    for (std::size_t i = 0; i < chunks.size(); ++i) {
      const ValueChunk& c = chunks[i];
      starts_.push_back(c.start);
      values_.push_back(c.value);
      boundaries_.push_back(c.start);
      const Money n = static_cast<Money>(c.size());
      cum_sum_[i + 1] = cum_sum_[i] + c.value * n;
      cum_sumsq_[i + 1] = cum_sumsq_[i] + c.value * c.value * n;
    }
    boundaries_.push_back(table_size_);
  }

  Money Sum(TupleIndex a, TupleIndex b) const {
    if (b <= a) return 0.0;
    auto cum_at = [this](TupleIndex p) -> Money {
      if (p == 0) return 0.0;
      if (p >= table_size_) return cum_sum_.back();
      const std::size_t c = ChunkOf(p);
      return cum_sum_[c] + values_[c] * static_cast<Money>(p - starts_[c]);
    };
    return cum_at(b) - cum_at(a);
  }

  Money SumSq(TupleIndex a, TupleIndex b) const {
    if (b <= a) return 0.0;
    auto cum_at = [this](TupleIndex p) -> Money {
      if (p == 0) return 0.0;
      if (p >= table_size_) return cum_sumsq_.back();
      const std::size_t c = ChunkOf(p);
      return cum_sumsq_[c] +
             values_[c] * values_[c] * static_cast<Money>(p - starts_[c]);
    };
    return cum_at(b) - cum_at(a);
  }

  Money Err(TupleIndex a, TupleIndex b) const {
    if (b <= a) return 0.0;
    const Money n = static_cast<Money>(b - a);
    const Money sum = Sum(a, b);
    const Money err = SumSq(a, b) - sum * sum / n;
    return err < 0.0 ? 0.0 : err;
  }
  Money Err(const TupleRange& r) const { return Err(r.start, r.end); }

  std::vector<TupleIndex> InteriorBoundaries(TupleIndex a,
                                             TupleIndex b) const {
    std::vector<TupleIndex> out;
    auto lo = std::upper_bound(boundaries_.begin(), boundaries_.end(), a);
    for (auto it = lo; it != boundaries_.end() && *it < b; ++it) {
      out.push_back(*it);
    }
    return out;
  }

 private:
  std::size_t ChunkOf(TupleIndex x) const {
    auto it = std::upper_bound(starts_.begin(), starts_.end(), x);
    return static_cast<std::size_t>(it - starts_.begin()) - 1;
  }

  TupleCount table_size_;
  std::vector<TupleIndex> starts_;
  std::vector<Money> values_;
  std::vector<Money> cum_sum_;
  std::vector<Money> cum_sumsq_;
  std::vector<TupleIndex> boundaries_;
};

std::optional<SplitResult> OracleFindBestSplit(const OraclePrefixStats& stats,
                                               TupleIndex start,
                                               TupleIndex end) {
  const std::vector<TupleIndex> candidates =
      stats.InteriorBoundaries(start, end);
  if (candidates.empty()) return std::nullopt;

  SplitResult best;
  best.original_error = stats.Err(start, end);
  bool found = false;
  for (TupleIndex p : candidates) {
    const Money err = stats.Err(start, p) + stats.Err(p, end);
    if (!found || err < best.split_error) {
      best.split_point = p;
      best.split_error = err;
      found = true;
    }
  }
  return best;
}

std::optional<Money> OracleApplyBestSplit(const OraclePrefixStats& stats,
                                          std::vector<TupleRange>* frags,
                                          Money min_gain) {
  Money best_gain = min_gain;
  std::size_t best_idx = 0;
  TupleIndex best_point = 0;
  bool found = false;
  for (std::size_t i = 0; i < frags->size(); ++i) {
    const auto split =
        OracleFindBestSplit(stats, (*frags)[i].start, (*frags)[i].end);
    if (!split) continue;
    if (split->reduction() > best_gain) {
      best_gain = split->reduction();
      best_idx = i;
      best_point = split->split_point;
      found = true;
    }
  }
  if (!found) return std::nullopt;
  const TupleRange f = (*frags)[best_idx];
  (*frags)[best_idx] = TupleRange{f.start, best_point};
  frags->insert(frags->begin() + static_cast<std::ptrdiff_t>(best_idx) + 1,
                TupleRange{best_point, f.end});
  return best_gain;
}

std::optional<Money> OracleApplyBestTripletMerge(
    const OraclePrefixStats& stats, std::vector<TupleRange>* frags) {
  if (frags->size() < 3) return std::nullopt;
  constexpr Money kInf = std::numeric_limits<Money>::infinity();
  Money best_increase = kInf;
  std::size_t best_i = 0;
  TupleIndex best_point = 0;

  for (std::size_t i = 0; i + 2 < frags->size(); ++i) {
    const TupleRange& fi = (*frags)[i];
    const TupleRange& fj = (*frags)[i + 1];
    const TupleRange& fk = (*frags)[i + 2];
    const Money old_err = stats.Err(fi) + stats.Err(fj) + stats.Err(fk);

    TupleIndex point = fj.start;
    Money new_err;
    if (const auto split = OracleFindBestSplit(stats, fi.start, fk.end)) {
      point = split->split_point;
      new_err = split->split_error;
    } else {
      new_err = 0.0;
    }
    const Money increase = new_err - old_err;
    if (increase < best_increase) {
      best_increase = increase;
      best_i = i;
      best_point = point;
    }
  }
  if (best_increase == kInf) return std::nullopt;

  const TupleIndex start = (*frags)[best_i].start;
  const TupleIndex end = (*frags)[best_i + 2].end;
  (*frags)[best_i] = TupleRange{start, best_point};
  (*frags)[best_i + 1] = TupleRange{best_point, end};
  frags->erase(frags->begin() + static_cast<std::ptrdiff_t>(best_i) + 2);
  return best_increase;
}

// The greedy split/merge fragmenter with default options, over the oracle
// kernels; stateful across calls like GreedyFragmenter.
class OracleGreedy {
 public:
  std::vector<TupleRange> Refragment(const ValueProfile& profile,
                                     std::size_t max_frags) {
    const TupleCount n = profile.table_size();
    if (!initialized_ || table_size_ != n) {
      frags_.clear();
      if (n > 0) frags_.push_back(TupleRange{0, n});
      table_size_ = n;
      initialized_ = true;
    }
    if (n == 0) return frags_;

    OraclePrefixStats stats(profile);
    while (frags_.size() > max_frags) {
      if (frags_.size() >= 3) {
        OracleApplyBestTripletMerge(stats, &frags_);
      } else {
        frags_[0].end = frags_[1].end;
        frags_.pop_back();
      }
    }
    const std::size_t rounds = max_frags + 2;
    for (std::size_t r = 0; r < rounds; ++r) {
      if (frags_.size() < max_frags) {
        if (!OracleApplyBestSplit(stats, &frags_, 0.0)) break;
      } else {
        const auto increase = OracleApplyBestTripletMerge(stats, &frags_);
        if (!increase) break;
        const auto gain = OracleApplyBestSplit(stats, &frags_, 0.0);
        const Money net = (gain ? *gain : 0.0) - *increase;
        if (net <= 1e-12) break;
      }
    }
    return frags_;
  }

 private:
  bool initialized_ = false;
  TupleCount table_size_ = 0;
  std::vector<TupleRange> frags_;
};

// A price spanning 1e-13 .. 1e6, or zero.
double RandomPrice(Rng* rng) {
  if (rng->Bernoulli(0.15)) return 0.0;
  const double exponent = -13.0 + 19.0 * rng->NextDouble();
  return std::pow(10.0, exponent) * (0.5 + rng->NextDouble());
}

// A random profile of `n` tuples with up to `max_chunks` chunks: gaps
// become zero-valued chunks, and one price scale per profile keeps its
// sums cancellation-prone.
ValueProfile RandomProfile(Rng* rng, TupleCount n, std::size_t max_chunks) {
  const double scale = RandomPrice(rng);
  std::vector<ValueChunk> chunks;
  TupleIndex cursor = 0;
  const TupleCount mean_len = std::max<TupleCount>(1, n / max_chunks);
  while (cursor < n && chunks.size() < max_chunks) {
    const TupleIndex end =
        std::min<TupleIndex>(n, cursor + 1 + rng->Uniform(2 * mean_len));
    const double value =
        rng->Bernoulli(0.2) ? 0.0 : scale * (1.0 + rng->NextDouble());
    if (!rng->Bernoulli(0.1)) chunks.push_back(ValueChunk{cursor, end, value});
    cursor = end;
  }
  return ValueProfile::FromSparseChunks(n, chunks);
}

// Endpoints on change points, off them, or mixed.
TupleRange RandomFragment(Rng* rng, const std::vector<TupleIndex>& bounds,
                          TupleCount n) {
  auto point = [&](bool on_change_point) -> TupleIndex {
    if (on_change_point) return bounds[rng->Uniform(bounds.size())];
    return rng->Uniform(n + 1);
  };
  TupleIndex a = point(rng->Bernoulli(0.5));
  TupleIndex b = point(rng->Bernoulli(0.5));
  if (a > b) std::swap(a, b);
  if (a == b) b = std::min<TupleIndex>(n, a + 1 + rng->Uniform(n));
  if (a == b) a = b - 1;
  return TupleRange{a, b};
}

void ExpectSameSplit(const std::optional<SplitResult>& got,
                     const std::optional<SplitResult>& want,
                     const TupleRange& f) {
  ASSERT_EQ(got.has_value(), want.has_value())
      << "[" << f.start << ", " << f.end << ")";
  if (!want) return;
  EXPECT_EQ(got->split_point, want->split_point)
      << "[" << f.start << ", " << f.end << ")";
  EXPECT_EQ(got->split_error, want->split_error)
      << "[" << f.start << ", " << f.end << ")";
  EXPECT_EQ(got->original_error, want->original_error)
      << "[" << f.start << ", " << f.end << ")";
}

TEST(SplitSearchOracleTest, ErrAndSumsMatchBitwise) {
  Rng rng(101);
  for (int trial = 0; trial < 60; ++trial) {
    const TupleCount n = 1 + rng.Uniform(200'000);
    const std::size_t chunks = 1 + rng.Uniform(2000);
    const ValueProfile profile = RandomProfile(&rng, n, chunks);
    const PrefixStats stats(profile);
    const OraclePrefixStats oracle(profile);
    for (int q = 0; q < 200; ++q) {
      const TupleRange f = RandomFragment(&rng, stats.boundaries(), n);
      ASSERT_EQ(stats.Err(f), oracle.Err(f))
          << "trial " << trial << " [" << f.start << ", " << f.end << ")";
      ASSERT_EQ(stats.Sum(f.start, f.end), oracle.Sum(f.start, f.end));
      ASSERT_EQ(stats.SumSq(f.start, f.end), oracle.SumSq(f.start, f.end));
    }
  }
}

TEST(SplitSearchOracleTest, FindBestSplitMatchesBitwise) {
  Rng rng(102);
  for (int trial = 0; trial < 80; ++trial) {
    const TupleCount n = 1 + rng.Uniform(trial % 4 == 0 ? 50 : 500'000);
    const std::size_t chunks = 1 + rng.Uniform(2000);
    const ValueProfile profile = RandomProfile(&rng, n, chunks);
    const PrefixStats stats(profile);
    const OraclePrefixStats oracle(profile);
    for (int q = 0; q < 60; ++q) {
      const TupleRange f = RandomFragment(&rng, stats.boundaries(), n);
      ExpectSameSplit(FindBestSplit(stats, f.start, f.end),
                      OracleFindBestSplit(oracle, f.start, f.end), f);
      if (HasFailure()) return;
    }
    // The whole table, whose endpoints are always change points.
    ExpectSameSplit(FindBestSplit(stats, 0, n),
                    OracleFindBestSplit(oracle, 0, n), TupleRange{0, n});
    if (HasFailure()) return;
  }
}

// Where every chunk holds one tuple of one price, each one-tuple side of a
// split is a cancellation: its error is clamped at zero.
TEST(SplitSearchOracleTest, ConstantRunsClampAtZero) {
  Rng rng(103);
  for (int trial = 0; trial < 40; ++trial) {
    const double price = RandomPrice(&rng) + 1e-9;
    std::vector<ValueChunk> chunks;
    const TupleCount n = 2 + rng.Uniform(400);
    for (TupleIndex x = 0; x < n; ++x) {
      const double v = rng.Bernoulli(0.5) ? price : price * 3.0;
      chunks.push_back(ValueChunk{x, x + 1, v});
    }
    const ValueProfile profile = ValueProfile::FromSparseChunks(n, chunks);
    const PrefixStats stats(profile);
    const OraclePrefixStats oracle(profile);
    for (int q = 0; q < 80; ++q) {
      const TupleRange f = RandomFragment(&rng, stats.boundaries(), n);
      ExpectSameSplit(FindBestSplit(stats, f.start, f.end),
                      OracleFindBestSplit(oracle, f.start, f.end), f);
      ASSERT_EQ(stats.Err(f), oracle.Err(f));
      if (HasFailure()) return;
    }
  }
}

// A drifting profile: a few chunks' prices move each step.
ValueProfile Drift(Rng* rng, const ValueProfile& p) {
  std::vector<ValueChunk> chunks = p.chunks();
  for (ValueChunk& c : chunks) {
    if (rng->Bernoulli(0.2)) c.value *= 0.25 + 1.5 * rng->NextDouble();
    if (rng->Bernoulli(0.05)) c.value = 0.0;
  }
  return ValueProfile::FromSparseChunks(p.table_size(), chunks);
}

TEST(GreedyOracleTest, RefragmentSequencesMatch) {
  Rng rng(104);
  for (int trial = 0; trial < 12; ++trial) {
    const TupleCount n = 1000 + rng.Uniform(400'000);
    const std::size_t chunks = 1 + rng.Uniform(trial < 3 ? 2000 : 300);
    ValueProfile profile = RandomProfile(&rng, n, chunks);
    GreedyFragmenter greedy;
    OracleGreedy oracle;
    // Caps grow, hold, then shrink below the current count.
    const std::size_t caps[] = {1, 8, 40, 40, 40, 17, 17, 3, 25, 2, 30};
    for (std::size_t step = 0; step < std::size(caps); ++step) {
      FragmentationContext ctx;
      ctx.table = 0;
      ctx.profile = &profile;
      const FragmentationScheme got = greedy.Refragment(ctx, caps[step]);
      const std::vector<TupleRange> want =
          oracle.Refragment(profile, caps[step]);
      ASSERT_EQ(got.fragments, want)
          << "trial " << trial << " step " << step << " cap " << caps[step];
      profile = Drift(&rng, profile);
    }
  }
}

TEST(GreedyOracleTest, DtMatchesOracleSplits) {
  Rng rng(105);
  for (int trial = 0; trial < 10; ++trial) {
    const TupleCount n = 100 + rng.Uniform(100'000);
    const ValueProfile profile =
        RandomProfile(&rng, n, 1 + rng.Uniform(1000));
    FragmentationContext ctx;
    ctx.table = 0;
    ctx.profile = &profile;
    const std::size_t cap = 1 + rng.Uniform(60);
    DtFragmenter dt;
    // DT is the greedy fragmenter's split phase from one fragment.
    const OraclePrefixStats stats(profile);
    std::vector<TupleRange> want = {TupleRange{0, n}};
    while (want.size() < cap) {
      Money best_gain = 0.0;
      std::size_t best_idx = 0;
      TupleIndex best_point = 0;
      bool found = false;
      for (std::size_t i = 0; i < want.size(); ++i) {
        const auto split =
            OracleFindBestSplit(stats, want[i].start, want[i].end);
        if (split && split->reduction() > best_gain) {
          best_gain = split->reduction();
          best_idx = i;
          best_point = split->split_point;
          found = true;
        }
      }
      if (!found) break;
      const TupleRange f = want[best_idx];
      want[best_idx] = TupleRange{f.start, best_point};
      want.insert(want.begin() + static_cast<std::ptrdiff_t>(best_idx) + 1,
                  TupleRange{best_point, f.end});
    }
    EXPECT_EQ(dt.Refragment(ctx, cap).fragments, want) << "trial " << trial;
  }
}

// ---------------------------------------------------- Hungarian oracle

AssignmentResult OracleSolveAssignment(
    const std::vector<std::vector<double>>& cost) {
  const std::size_t n = cost.size();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(n + 1, 0.0), v(n + 1, 0.0);
  std::vector<std::size_t> p(n + 1, 0), way(n + 1, 0);

  for (std::size_t i = 1; i <= n; ++i) {
    p[0] = i;
    std::size_t j0 = 0;
    std::vector<double> minv(n + 1, kInf);
    std::vector<bool> used(n + 1, false);
    do {
      used[j0] = true;
      const std::size_t i0 = p[j0];
      double delta = kInf;
      std::size_t j1 = 0;
      for (std::size_t j = 1; j <= n; ++j) {
        if (used[j]) continue;
        const double cur = cost[i0 - 1][j - 1] - u[i0] - v[j];
        if (cur < minv[j]) {
          minv[j] = cur;
          way[j] = j0;
        }
        if (minv[j] < delta) {
          delta = minv[j];
          j1 = j;
        }
      }
      for (std::size_t j = 0; j <= n; ++j) {
        if (used[j]) {
          u[p[j]] += delta;
          v[j] -= delta;
        } else {
          minv[j] -= delta;
        }
      }
      j0 = j1;
    } while (p[j0] != 0);
    do {
      const std::size_t j1 = way[j0];
      p[j0] = p[j1];
      j0 = j1;
    } while (j0 != 0);
  }

  AssignmentResult result;
  result.assignment.resize(n);
  for (std::size_t j = 1; j <= n; ++j) {
    result.assignment[p[j] - 1] = j - 1;
  }
  for (std::size_t i = 0; i < n; ++i) {
    result.total_cost += cost[i][result.assignment[i]];
  }
  return result;
}

std::vector<std::vector<double>> OracleDenseCostMatrix(
    const TransitionGraph& graph) {
  const std::size_t n = std::max(graph.n_old, graph.n_new);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < graph.n_new; ++j) {
      cost[i][j] = static_cast<double>(graph.new_total[j]);
    }
  }
  for (const TransitionEdge& e : graph.edges) {
    cost[e.old_node][e.new_node] =
        static_cast<double>(graph.new_total[e.new_node] - e.overlap);
  }
  return cost;
}

CostMatrix Flatten(const std::vector<std::vector<double>>& rows) {
  CostMatrix m(rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::copy(rows[i].begin(), rows[i].end(), m.row(i));
  }
  return m;
}

void ExpectSameAssignment(const std::vector<std::vector<double>>& rows,
                          const char* what) {
  const AssignmentResult want = OracleSolveAssignment(rows);
  const AssignmentResult got = SolveAssignment(Flatten(rows));
  EXPECT_EQ(got.assignment, want.assignment) << what << " n=" << rows.size();
  EXPECT_EQ(got.total_cost, want.total_cost) << what << " n=" << rows.size();
}

TEST(HungarianOracleTest, HeavilyTiedIntegerMatrices) {
  Rng rng(201);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + rng.Uniform(trial < 50 ? 40 : 256);
    const std::uint64_t levels = 1 + rng.Uniform(4);
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    for (auto& row : cost) {
      for (double& c : row) c = static_cast<double>(rng.Uniform(levels));
    }
    ExpectSameAssignment(cost, "tied");
    if (HasFailure()) return;
  }
}

TEST(HungarianOracleTest, NonIntegerMatrices) {
  Rng rng(202);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 1 + rng.Uniform(trial < 25 ? 60 : 200);
    std::vector<std::vector<double>> cost(n, std::vector<double>(n));
    for (auto& row : cost) {
      for (double& c : row) c = rng.NextDouble() * 1e3 - 200.0;
    }
    ExpectSameAssignment(cost, "real");
    if (HasFailure()) return;
  }
}

// The bootstrap plan's shape: no old nodes, so every row is the same.
TEST(HungarianOracleTest, AllIdenticalRows) {
  Rng rng(203);
  for (std::size_t n : {1u, 2u, 7u, 64u, 128u, 256u}) {
    std::vector<double> row(n);
    for (double& c : row) c = static_cast<double>(1 + rng.Uniform(5000));
    const std::vector<std::vector<double>> cost(n, row);
    ExpectSameAssignment(cost, "identical rows");
  }
}

// Random §7 graphs, dummy-padded on either side, through the production
// matrix builder: the flat cells equal the nested matrix's, and the
// solver's assignment equals the oracle's.
TEST(HungarianOracleTest, DummyPaddedTransitionGraphs) {
  Rng rng(204);
  for (int trial = 0; trial < 40; ++trial) {
    TransitionGraph graph;
    const std::size_t cap = trial < 36 ? 48 : 256;
    graph.n_old = rng.Uniform(cap + 1);
    graph.n_new = rng.Uniform(cap + 1);
    if (trial % 5 == 0) graph.n_old = 0;
    if (graph.n_old == 0 && graph.n_new == 0) graph.n_new = 1;
    graph.new_total.resize(graph.n_new);
    for (TupleCount& t : graph.new_total) t = 10 + rng.Uniform(40);
    for (NodeId j = 0; j < graph.n_new; ++j) {
      for (NodeId i = 0; i < graph.n_old; ++i) {
        if (!rng.Bernoulli(0.3)) continue;
        const TupleCount overlap = 1 + rng.Uniform(graph.new_total[j]);
        graph.edges.push_back(TransitionEdge{i, j, overlap});
      }
    }
    const std::vector<std::vector<double>> nested =
        OracleDenseCostMatrix(graph);
    const CostMatrix flat = DenseCostMatrix(graph);
    ASSERT_EQ(flat.n, nested.size());
    for (std::size_t i = 0; i < flat.n; ++i) {
      for (std::size_t j = 0; j < flat.n; ++j) {
        ASSERT_EQ(flat(i, j), nested[i][j]) << "cell " << i << "," << j;
      }
    }
    const AssignmentResult want = OracleSolveAssignment(nested);
    const AssignmentResult got = SolveAssignment(flat);
    EXPECT_EQ(got.assignment, want.assignment)
        << "trial " << trial << " n_old=" << graph.n_old
        << " n_new=" << graph.n_new;
    EXPECT_EQ(got.total_cost, want.total_cost);
    if (HasFailure()) return;
  }
}

// ------------------------------------------------------- Covers oracle

bool OracleCovers(const std::vector<NodeData::Interval>& intervals,
                  TableId table, const TupleRange& range) {
  for (const NodeData::Interval& iv : intervals) {
    if (iv.table != table) continue;
    if (iv.range.start <= range.start && range.end <= iv.range.end) {
      return true;
    }
    if (iv.table == table && iv.range.start >= range.end) break;
  }
  return false;
}

FragmentInfo Frag(TableId table, TupleIndex start, TupleIndex end) {
  FragmentInfo f;
  f.table = table;
  f.range = TupleRange{start, end};
  f.replicas = 1;
  return f;
}

// The CovererIndex over `data` must list, for every fragment, exactly the
// nodes whose intervals contain it by the linear oracle, ascending.
void ExpectOracleCoverers(const std::vector<FragmentInfo>& frags,
                          const std::vector<NodeData>& data, int trial) {
  const CovererIndex index(frags, data);
  for (std::size_t f = 0; f < frags.size(); ++f) {
    std::vector<NodeId> want;
    for (std::size_t m = 0; m < data.size(); ++m) {
      if (OracleCovers(data[m].intervals(), frags[f].table, frags[f].range)) {
        want.push_back(static_cast<NodeId>(m));
      }
    }
    const std::vector<NodeId> got(index.begin(f), index.end(f));
    ASSERT_EQ(got, want) << "trial " << trial << " fragment " << f
                         << " table " << frags[f].table << " ["
                         << frags[f].range.start << ", "
                         << frags[f].range.end << ")";
  }
}

TEST(CoversOracleTest, RandomCoalescedIntervalSets) {
  Rng rng(301);
  for (int trial = 0; trial < 300; ++trial) {
    const TableId tables = 1 + static_cast<TableId>(rng.Uniform(4));
    const TupleCount n = 10 + rng.Uniform(trial % 3 == 0 ? 30 : 5000);
    std::vector<NodeData> data;
    const std::size_t node_count = 1 + rng.Uniform(5);
    for (std::size_t m = 0; m < node_count; ++m) {
      std::vector<NodeData::Interval> raw;
      const std::size_t count = rng.Uniform(40);
      for (std::size_t k = 0; k < count; ++k) {
        const TupleIndex a = rng.Uniform(n);
        const TupleIndex b = a + 1 + rng.Uniform(n / 4 + 1);
        raw.push_back(NodeData::Interval{
            static_cast<TableId>(rng.Uniform(tables)), TupleRange{a, b}});
      }
      data.push_back(NodeData::FromIntervals(raw));
      const std::vector<NodeData::Interval>& ivs = data.back().intervals();
      for (std::size_t k = 1; k < ivs.size(); ++k) {
        if (ivs[k].table == ivs[k - 1].table) {
          ASSERT_LT(ivs[k - 1].range.end, ivs[k].range.start);
        }
      }
    }
    std::vector<FragmentInfo> frags;
    for (int q = 0; q < 100; ++q) {
      const TableId t = static_cast<TableId>(rng.Uniform(tables + 1));
      const TupleIndex a = rng.Uniform(n + n / 4);
      frags.push_back(Frag(t, a, a + 1 + rng.Uniform(n / 3 + 1)));
    }
    // Ranges at and just past every interval's edges.
    for (const NodeData& d : data) {
      for (const NodeData::Interval& iv : d.intervals()) {
        frags.push_back(Frag(iv.table, iv.range.start, iv.range.end));
        frags.push_back(Frag(iv.table, iv.range.start, iv.range.end + 1));
        if (iv.range.start > 0) {
          frags.push_back(Frag(iv.table, iv.range.start - 1, iv.range.end));
        }
        frags.push_back(Frag(iv.table, iv.range.end - 1, iv.range.end));
        frags.push_back(Frag(iv.table + 1, iv.range.start, iv.range.end));
      }
    }
    rng.Shuffle(&frags);
    ExpectOracleCoverers(frags, data, trial);
    if (HasFailure()) return;
  }
}

// The packer's own inputs: a random previous configuration of 1-4 tables
// (adjacent fragments on one node coalesce), with crashed and partitioned
// nodes contributing no coverage as RepackIncremental builds it. Queried
// with the previous fragments themselves (PlanEmergencyRepair's input),
// with a re-fragmentation that cuts at interval edges, one tuple off them
// and at random, and with fragments of a table no node holds.
TEST(CoversOracleTest, RandomPreviousConfigurations) {
  Rng rng(302);
  for (int trial = 0; trial < 200; ++trial) {
    const TableId tables = 1 + static_cast<TableId>(rng.Uniform(4));
    const std::size_t node_count = 1 + rng.Uniform(12);
    std::vector<FragmentInfo> prev_frags;
    std::vector<std::vector<TupleIndex>> cuts(tables);
    for (TableId t = 0; t < tables; ++t) {
      const TupleCount n = 4 + rng.Uniform(trial % 4 == 0 ? 20 : 2000);
      cuts[t] = {0, n};
      for (std::size_t k = rng.Uniform(12); k > 0; --k) {
        cuts[t].push_back(1 + rng.Uniform(n - 1));
      }
      std::sort(cuts[t].begin(), cuts[t].end());
      cuts[t].erase(std::unique(cuts[t].begin(), cuts[t].end()),
                    cuts[t].end());
      for (std::size_t k = 0; k + 1 < cuts[t].size(); ++k) {
        prev_frags.push_back(Frag(t, cuts[t][k], cuts[t][k + 1]));
      }
    }
    ReplicationParams params;
    params.node_disk = 1'000'000;
    ClusterConfig prev(params, prev_frags);
    for (std::size_t m = 0; m < node_count; ++m) prev.AddNode();
    std::vector<NodeId> nodes(node_count);
    std::iota(nodes.begin(), nodes.end(), NodeId{0});
    for (FlatFragmentId f = 0; f < prev_frags.size(); ++f) {
      // Some fragments go unplaced, so no node covers them.
      rng.Shuffle(&nodes);
      const std::size_t copies = rng.Uniform(std::min<std::size_t>(
          node_count + 1, 4));
      for (std::size_t r = 0; r < copies; ++r) prev.Place(nodes[r], f);
    }
    std::vector<NodeData> data;
    for (NodeId m = 0; m < node_count; ++m) {
      const bool dead = rng.Bernoulli(0.15);
      const bool pinned = rng.Bernoulli(0.15);
      data.push_back(dead || pinned ? NodeData() : NodeData::Of(prev, m));
    }
    ExpectOracleCoverers(prev_frags, data, trial);

    std::vector<FragmentInfo> next;
    for (TableId t = 0; t <= tables; ++t) {
      std::vector<TupleIndex> edges;
      if (t < tables) {
        for (const TupleIndex c : cuts[t]) {
          if (rng.Bernoulli(0.5)) edges.push_back(c);
          if (c > 0 && rng.Bernoulli(0.2)) edges.push_back(c - 1);
          if (rng.Bernoulli(0.2)) edges.push_back(c + 1);
        }
        for (const NodeData& d : data) {
          for (const NodeData::Interval& iv : d.intervals()) {
            if (iv.table != t) continue;
            edges.push_back(iv.range.start);
            edges.push_back(iv.range.end);
          }
        }
      }
      const TupleIndex n = t < tables ? cuts[t].back() : 100;
      edges.push_back(0);
      edges.push_back(n);
      for (std::size_t k = rng.Uniform(4); k > 0; --k) {
        edges.push_back(rng.Uniform(n + 1));
      }
      std::sort(edges.begin(), edges.end());
      edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
      for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
        next.push_back(Frag(t, edges[k], edges[k + 1]));
      }
    }
    ExpectOracleCoverers(next, data, trial);
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace nashdb
