// The correctness oracle: an uncached in-process twin of the BENCH table
// that applies the same DML the server acknowledged, and the comparison of
// served result sets against it.
//
// Connections update disjoint KSEQ partitions, so applying each
// connection's acknowledged DML log in its own order reproduces the
// server's final table state whatever the interleaving was. Row order is
// not part of a result (no query in the population has ORDER BY), so served
// and expected rows are compared as multisets (ResultSet::Equals).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "ops.h"
#include "setquery/bench_table.h"
#include "sql/binder.h"
#include "sql/result.h"
#include "storage/database.h"

namespace perfbench {

class Twin {
 public:
  /// BENCH with `rows` rows drawn from `seed` — the data the server loads.
  Twin(uint64_t rows, uint64_t seed);

  Twin(const Twin&) = delete;
  Twin& operator=(const Twin&) = delete;

  qc::setquery::BenchTable& bench() { return *bench_; }

  void ApplyDml(const std::string& sql);

  /// Uncached execution of `q` against the twin's current state.
  qc::sql::ResultSet Expected(const QueryInstance& q);

 private:
  qc::storage::Database db_;
  std::unique_ptr<qc::setquery::BenchTable> bench_;
  std::unordered_map<std::string, std::shared_ptr<const qc::sql::BoundQuery>> bound_;
};

/// Outcome of re-issuing the population against the server.
struct Verdict {
  size_t checked = 0;
  size_t mismatches = 0;
  std::vector<std::string> examples;  // first few mismatching SQL texts

  void Record(const QueryInstance& q, bool ok);
};

}  // namespace perfbench
