// Workload definitions and the seeded operation streams the benchmark
// sends to qcached.
//
// Every input is a pure function of the --seed argument: the BENCH table
// contents, the query population (Set Query families Q1–Q6B with their
// literals and parameter pools, plus nested KSEQ sub-ranges), the 80/20
// hot set, and one operation stream per client connection. A connection
// updates only the KSEQ rows of its own partition (k ≡ conn mod n), so the
// table's final state depends on how many operations each connection
// completed, never on how the connections interleaved.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/value.h"
#include "setquery/bench_table.h"

namespace perfbench {

using qc::Value;

struct WorkloadSpec {
  std::string name;
  uint64_t rows = 0;                 // BENCH table size
  size_t memory_budget_bytes = 0;    // qcached --memory-budget-bytes
  size_t server_threads = 0;         // qcached --threads (single node or storage node)
  size_t cache_node_threads = 0;     // --threads of each cache node (cluster only)
  bool cluster = false;
  // Per-connection share of operations that start an update transaction;
  // index = connection. A 0 entry makes that connection read-only.
  std::vector<double> write_share;
  int attrs_per_update = 1;
  double create_delete_share = 0.0;  // share of update transactions done as delete+insert
  bool all_families = false;         // Q5, Q6A/B and the nested sub-range family too
  int param_pool = 0;                // literal values drawn per parameterized template
};

inline constexpr size_t kConnections = 3;

/// The three workloads by name; throws qc::Error on an unknown one.
WorkloadSpec GetWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

/// One distinct query of the population: SQL text with literals and, for
/// parameterized templates, the $1 value. Exactly what reaches the server.
struct QueryInstance {
  std::string family;  // "1" … "6B"; "RW1"/"RW3" KSEQ windows, "R" their sub-ranges
  std::string sql;
  std::vector<Value> params;
};

std::vector<QueryInstance> BuildPopulation(const WorkloadSpec& spec,
                                           const qc::setquery::BenchTable& bench, uint64_t seed);

/// KSEQ values owned by `conn` of `nconns` connections (k ≡ conn mod nconns).
std::vector<int64_t> PartitionRows(uint64_t rows, size_t conn, size_t nconns);

struct Op {
  enum class Kind { kRead, kDml };
  Kind kind = Kind::kRead;
  size_t query = 0;  // population index (reads)
  std::string sql;   // statement text (DML)
  int64_t kseq = 0;  // target row (DML)

  bool operator==(const Op& other) const {
    return kind == other.kind && query == other.query && sql == other.sql && kseq == other.kseq;
  }
};

/// The endless operation stream of one connection. Reads pick from the
/// population with 80/20 hot-spot skew over a seeded hot set shared by all
/// connections; update transactions touch only this connection's rows and
/// always change the values they set (so every DML yields one CDC record).
class OpStream {
 public:
  /// `bench` supplies the initial values of this connection's rows; it is
  /// read only during construction.
  OpStream(const WorkloadSpec& spec, const qc::setquery::BenchTable& bench,
           const std::vector<QueryInstance>& population, size_t conn, uint64_t seed);

  Op Next();

 private:
  int64_t FreshValue(size_t column, int64_t current);

  WorkloadSpec spec_;
  double write_share_;
  qc::Rng rng_;
  std::vector<size_t> order_;  // population shuffled; the first hot_count are hot
  size_t hot_count_ = 0;
  std::vector<int64_t> kseqs_;              // this connection's rows
  std::vector<std::vector<int64_t>> shadow_;  // their current values, parallel
  std::string pending_insert_;
  int64_t pending_kseq_ = 0;
};

}  // namespace perfbench
