// The traced run's in-process half: a one-thread replay of the same seeded
// operation streams against a library fixture (CachedQueryEngine over its
// own copy of BENCH, configured like qcached), with spans around the calls
// into each layer — CachedQueryEngine::Prepare/Execute/ExecuteDml,
// sql::Parse/Bind/CanonicalSql/Fingerprint, GpsCache::Get, ExecuteUncached
// on misses, and the same DML applied to an uncached twin database.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ops.h"
#include "spans.h"

namespace perfbench {

struct ReplayResult {
  SpanLog log{kConnections};  // span ids apart from the wire logs
  uint64_t ops = 0;
  double load_s = 0;            // fixture table load (CSV import + indexes)
  double hit_total_us = 0;      // Σ (Prepare + Execute) over exact hits
  double hit_covered_us = 0;    // Σ (Parse + CanonicalSql + Fingerprint + Get) over them
  uint64_t invalidated = 0;     // entries the DML invalidated (tracer keys)
  uint64_t useful = 0;          // … whose result actually changed
  uint64_t unknown_keys = 0;    // invalidated keys the replay never executed
  uint64_t odg_edges = 0;
};

/// Replay `streams` round-robin (one op from each in turn) for `seconds`.
/// `csv_path` holds the initial BENCH table.
ReplayResult RunReplay(const WorkloadSpec& spec, const std::vector<QueryInstance>& population,
                       std::vector<OpStream>& streams, const std::string& csv_path,
                       double seconds);

}  // namespace perfbench
