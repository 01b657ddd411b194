#include "ops.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/error.h"
#include "setquery/queries.h"

namespace perfbench {

namespace {

using qc::setquery::BenchColumns;

bool ReadOnlyFamily(const std::string& type) { return type != "5" && type != "6A" && type != "6B"; }

std::string S(int64_t v) { return std::to_string(v); }

// Nested KSEQ ranges: wide row-returning windows and, inside each,
// narrower sub-range selections and aggregates that the semantic tier can
// answer from a cached window (docs/SEMANTIC.md). Half the windows project
// only KSEQ, which no attribute update invalidates, so those stay cached
// long enough for their sub-ranges to find them; the other half project
// two updated attributes too.
void AddNestedRanges(std::vector<QueryInstance>& out, uint64_t rows, qc::Rng& rng) {
  const int64_t width = static_cast<int64_t>(rows / 40);
  constexpr int kWindows = 16;
  constexpr int kSubsPerWindow = 12;
  for (int w = 0; w < kWindows; ++w) {
    const bool kseq_only = w % 2 == 0;
    const int64_t lo = rng.Uniform(1, static_cast<int64_t>(rows) - width);
    const int64_t hi = lo + width - 1;
    // Windows are families of their own, so every seed's hot set holds the
    // same number of these large results.
    const std::string projection = kseq_only ? "KSEQ" : "KSEQ, K100, K1K";
    out.push_back({kseq_only ? "RW1" : "RW3",
                   "SELECT " + projection + " FROM BENCH WHERE KSEQ BETWEEN " + S(lo) + " AND " +
                       S(hi),
                   {}});
    for (int s = 0; s < kSubsPerWindow; ++s) {
      int64_t a = rng.Uniform(lo, hi);
      int64_t b = rng.Uniform(lo, hi);
      if (a > b) std::swap(a, b);
      const std::string range = "KSEQ BETWEEN " + S(a) + " AND " + S(b);
      if (kseq_only) {
        const std::string select = s % 2 ? "SELECT COUNT(*)" : "SELECT KSEQ";
        out.push_back({"R", select + " FROM BENCH WHERE " + range, {}});
        continue;
      }
      const int64_t t = rng.Uniform(10, 90);
      switch (s % 3) {
        case 0:
          out.push_back(
              {"R", "SELECT KSEQ, K1K FROM BENCH WHERE " + range + " AND K100 > " + S(t), {}});
          break;
        case 1:
          out.push_back({"R", "SELECT SUM(K1K) FROM BENCH WHERE " + range, {}});
          break;
        default:
          out.push_back(
              {"R", "SELECT COUNT(*) FROM BENCH WHERE " + range + " AND K100 <= " + S(t), {}});
          break;
      }
    }
  }
}

}  // namespace

WorkloadSpec GetWorkload(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  spec.rows = 20'000;
  spec.server_threads = 2;
  if (name == "hit_heavy") {
    spec.memory_budget_bytes = 64u << 20;
    spec.write_share = {0.01, 0.01, 0.01};
    spec.attrs_per_update = 1;
    spec.param_pool = 10;
  } else if (name == "update_mix") {
    spec.memory_budget_bytes = 128u << 10;
    spec.write_share = {0.2, 0.2, 0.2};
    spec.attrs_per_update = 2;
    spec.create_delete_share = 0.1;
    spec.all_families = true;
    spec.param_pool = 20;
  } else if (name == "cluster") {
    spec.cluster = true;
    spec.memory_budget_bytes = 64u << 20;
    spec.server_threads = 1;
    spec.cache_node_threads = 2;
    // Connections 0 and 2 sit on the writer node, connection 1 on the
    // subscriber's node: 7.5% on two of three connections is 5% overall.
    spec.write_share = {0.075, 0.0, 0.075};
    spec.attrs_per_update = 1;
    spec.param_pool = 10;
  } else {
    throw qc::Error("unknown workload '" + name + "' (hit_heavy, update_mix, cluster)");
  }
  return spec;
}

std::vector<std::string> WorkloadNames() { return {"hit_heavy", "update_mix", "cluster"}; }

std::vector<QueryInstance> BuildPopulation(const WorkloadSpec& spec,
                                           const qc::setquery::BenchTable& bench, uint64_t seed) {
  qc::Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::vector<QueryInstance> out;
  for (const auto& q : qc::setquery::BuildAllQueries(bench)) {
    if (spec.all_families || ReadOnlyFamily(q.type)) out.push_back({q.type, q.sql, {}});
  }
  for (const auto& t : qc::setquery::BuildParameterizedQueries(bench)) {
    if (!spec.all_families && !ReadOnlyFamily(t.type)) continue;
    const int64_t cardinality = BenchColumns()[t.param_column].cardinality;
    const int64_t domain = cardinality == 0 ? static_cast<int64_t>(bench.rows()) : cardinality;
    const int64_t pool = std::min<int64_t>(spec.param_pool, domain);
    std::set<int64_t> seen;
    while (static_cast<int64_t>(seen.size()) < pool) {
      const int64_t v = bench.RandomValue(t.param_column, rng);
      if (seen.insert(v).second) out.push_back({t.type, t.sql, {Value(v)}});
    }
  }
  if (spec.all_families) AddNestedRanges(out, bench.rows(), rng);
  return out;
}

std::vector<int64_t> PartitionRows(uint64_t rows, size_t conn, size_t nconns) {
  std::vector<int64_t> out;
  for (uint64_t k = conn + 1; k <= rows; k += nconns) out.push_back(static_cast<int64_t>(k));
  return out;
}

OpStream::OpStream(const WorkloadSpec& spec, const qc::setquery::BenchTable& bench,
                   const std::vector<QueryInstance>& population, size_t conn, uint64_t seed)
    : spec_(spec),
      write_share_(spec.write_share.at(conn)),
      rng_(seed * 1'000'003ULL + conn + 1),
      kseqs_(PartitionRows(bench.rows(), conn, kConnections)) {
  if (population.empty()) throw qc::Error("empty query population");
  // The hot set is every fifth member of each stratum — each $1 template's
  // instances (whose values the seed draws) and each family's literal
  // queries — so every seed's hot set has the same mix of cheap and
  // expensive, rarely and often invalidated queries.
  std::map<std::string, std::vector<size_t>> strata;
  for (size_t i = 0; i < population.size(); ++i) {
    const QueryInstance& q = population[i];
    strata[q.params.empty() ? q.family : q.sql].push_back(i);
  }
  std::vector<size_t> cold;
  for (const auto& [stratum, members] : strata) {
    for (size_t k = 0; k < members.size(); ++k) (k % 5 == 0 ? order_ : cold).push_back(members[k]);
  }
  hot_count_ = order_.size();
  order_.insert(order_.end(), cold.begin(), cold.end());

  // Rows are loaded in KSEQ order, so KSEQ k lives in row id k-1.
  shadow_.reserve(kseqs_.size());
  for (int64_t k : kseqs_) {
    const qc::storage::Row& row = bench.table().GetRow(static_cast<qc::storage::RowId>(k - 1));
    std::vector<int64_t> values;
    values.reserve(row.size());
    for (const Value& v : row) values.push_back(v.as_int());
    shadow_.push_back(std::move(values));
  }
}

int64_t OpStream::FreshValue(size_t column, int64_t current) {
  const int64_t cardinality = BenchColumns()[column].cardinality;
  for (;;) {
    const int64_t v = rng_.Uniform(1, cardinality);
    if (v != current) return v;
  }
}

Op OpStream::Next() {
  Op op;
  if (!pending_insert_.empty()) {
    op.kind = Op::Kind::kDml;
    op.sql = std::move(pending_insert_);
    op.kseq = pending_kseq_;
    pending_insert_.clear();
    return op;
  }
  if (write_share_ > 0 && rng_.Chance(write_share_)) {
    const auto slot =
        static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(kseqs_.size()) - 1));
    const int64_t k = kseqs_[slot];
    std::vector<int64_t>& row = shadow_[slot];
    op.kind = Op::Kind::kDml;
    op.kseq = k;
    if (spec_.create_delete_share > 0 && rng_.Chance(spec_.create_delete_share)) {
      // Delete + re-insert of the same KSEQ with every other attribute
      // redrawn: the paper's create/delete pair, row count unchanged.
      op.sql = "DELETE FROM BENCH WHERE KSEQ = " + S(k);
      std::string insert = "INSERT INTO BENCH VALUES (" + S(k);
      for (size_t c = 1; c < row.size(); ++c) {
        row[c] = FreshValue(c, row[c]);
        insert += ", " + S(row[c]);
      }
      pending_insert_ = insert + ")";
      pending_kseq_ = k;
      return op;
    }
    // attrs_per_update distinct non-KSEQ attributes, each set to a value
    // different from its current one.
    std::vector<size_t> attrs(row.size() - 1);
    std::iota(attrs.begin(), attrs.end(), 1);
    std::shuffle(attrs.begin(), attrs.end(), rng_.engine());
    std::string sets;
    for (int i = 0; i < spec_.attrs_per_update; ++i) {
      const size_t c = attrs[i];
      row[c] = FreshValue(c, row[c]);
      if (!sets.empty()) sets += ", ";
      sets += std::string(BenchColumns()[c].name) + " = " + S(row[c]);
    }
    op.sql = "UPDATE BENCH SET " + sets + " WHERE KSEQ = " + S(k);
    return op;
  }
  op.kind = Op::Kind::kRead;
  const size_t n = order_.size();
  if (n > hot_count_ && !rng_.Chance(0.8)) {
    op.query = order_[static_cast<size_t>(
        rng_.Uniform(static_cast<int64_t>(hot_count_), static_cast<int64_t>(n) - 1))];
  } else {
    op.query = order_[static_cast<size_t>(rng_.Uniform(0, static_cast<int64_t>(hot_count_) - 1))];
  }
  return op;
}

}  // namespace perfbench
