#ifndef NASHDB_WORKLOAD_WORKLOAD_H_
#define NASHDB_WORKLOAD_WORKLOAD_H_

#include <string>
#include <vector>

#include "common/query.h"
#include "common/types.h"

namespace nashdb {

/// One table of the simulated database: NashDB only needs its cardinality
/// and clustered ordering, so a table is just a named tuple count.
struct TableSpec {
  TableId id = 0;
  std::string name;
  TupleCount tuples = 0;
};

/// The database schema the workload runs against.
struct Dataset {
  std::vector<TableSpec> tables;

  TupleCount TableSize(TableId id) const;
  TupleCount TotalTuples() const;
};

/// A query with its arrival time in the simulation.
struct TimedQuery {
  SimTime arrival = 0.0;
  Query query;
};

/// A fully materialized workload: schema plus a time-ordered query stream.
/// Static (batch) workloads have every arrival at time zero.
struct Workload {
  std::string name;
  Dataset dataset;
  std::vector<TimedQuery> queries;

  /// Total tuples read by all queries.
  TupleCount TotalTuplesRead() const;

  /// Ensures queries are sorted by arrival time.
  void SortByArrival();
};

/// Pull-based query source for streaming runs (DESIGN.md §13): queries
/// are produced on demand in nondecreasing arrival order, so a
/// 10⁷–10⁸-query scenario never materializes its workload.
/// The driver calls Next one call at a time, never again after a false,
/// and every call finishes before the run returns; but from the run's
/// first admission on, the calls come from the driver's producer thread
/// (DESIGN.md §11). An implementation must therefore not share mutable
/// state with the thread running the driver while the run lasts.
class QueryStream {
 public:
  virtual ~QueryStream() = default;
  /// Produces the next query; false at end of stream (`*out` untouched).
  virtual bool Next(TimedQuery* out) = 0;
};

/// Scales used across the synthetic workloads: `tuples_per_gb` maps the
/// paper's dataset sizes (expressed in GB/TB) onto simulated tuple counts.
/// The default models 1 GB as 10k tuples, so a "1 TB" TPC-H fact table is
/// ~10M simulated tuples — large enough to exercise every algorithm at its
/// real asymptotics while keeping benches fast (no per-tuple state exists
/// anywhere in NashDB; everything is range-based).
inline constexpr TupleCount kDefaultTuplesPerGb = 10'000;

}  // namespace nashdb

#endif  // NASHDB_WORKLOAD_WORKLOAD_H_
