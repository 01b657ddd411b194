#include "replay.h"

#include <algorithm>
#include <unordered_map>

#include "cache/gps_cache.h"
#include "middleware/query_engine.h"
#include "setquery/bench_table.h"
#include "sql/dml.h"
#include "sql/fingerprint.h"
#include "sql/parser.h"
#include "storage/csv.h"

namespace perfbench {

namespace {

namespace mw = qc::middleware;

// What qcached's --init script does: \create, \import, then the indexes.
void LoadBench(qc::storage::Database& db, const std::string& csv_path) {
  std::vector<qc::storage::ColumnDef> defs;
  for (const auto& col : qc::setquery::BenchColumns()) {
    defs.push_back({col.name, qc::ValueType::kInt, /*nullable=*/false});
  }
  qc::storage::Table& table = db.CreateTable("BENCH", qc::storage::Schema(std::move(defs)));
  qc::storage::ImportCsvFile(table, csv_path);
  for (uint32_t c = 0; c < qc::setquery::BenchColumns().size(); ++c) table.CreateHashIndex(c);
  table.CreateOrderedIndex(0);
}

mw::CachedQueryEngine::Options EngineOptions(const WorkloadSpec& spec) {
  mw::CachedQueryEngine::Options options;
  options.policy = qc::dup::InvalidationPolicy::kValueAware;
  options.cache.mode = qc::cache::CacheMode::kMemory;
  options.cache.shards = 1;
  options.cache.eviction = qc::cache::EvictionPolicy::kClock;
  options.cache.memory_budget_bytes = spec.memory_budget_bytes;
  return options;
}

}  // namespace

ReplayResult RunReplay(const WorkloadSpec& spec, const std::vector<QueryInstance>& population,
                       std::vector<OpStream>& streams, const std::string& csv_path,
                       double seconds) {
  ReplayResult out;
  SpanLog& log = out.log;

  qc::storage::Database db;
  {
    ScopedSpan span(log, "storage.load", 0, 0);
    LoadBench(db, csv_path);
    out.load_s = static_cast<double>(span.End()) / 1e9;
  }
  qc::storage::Database storage_twin;
  LoadBench(storage_twin, csv_path);
  mw::CachedQueryEngine engine(db, EngineOptions(spec));

  std::vector<std::string> traced_keys;
  engine.dup_engine().SetTracer(
      [&traced_keys](const std::string& key, const std::string&) { traced_keys.push_back(key); });

  // Per population entry: its statement and the result the cache holds
  // for it (the last one the engine returned), to judge invalidations.
  std::vector<std::shared_ptr<const qc::sql::BoundQuery>> bound(population.size());
  std::vector<qc::sql::ResultPtr> last_result(population.size());
  std::unordered_map<std::string, size_t> key_index;
  for (size_t i = 0; i < population.size(); ++i) {
    bound[i] = engine.Prepare(population[i].sql);
    key_index.emplace(qc::sql::Fingerprint(bound[i]->stmt(), population[i].params), i);
    last_result[i] = engine.Execute(bound[i], population[i].params).result;  // warm-up pass
  }

  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  size_t turn = 0;
  while (NowNs() < deadline) {
    const Op op = streams[turn++ % streams.size()].Next();
    const uint64_t op_id = ++out.ops;
    if (op.kind == Op::Kind::kRead) {
      const QueryInstance& q = population[op.query];
      ScopedSpan root(log, "op.read", 0, op_id);
      std::shared_ptr<const qc::sql::BoundQuery> prepared;
      int64_t engine_ns = 0;
      {
        ScopedSpan span(log, "engine.Prepare", root.id(), op_id);
        prepared = engine.Prepare(q.sql);
        engine_ns += span.End();
      }
      mw::CachedQueryEngine::ExecuteResult result;
      bool semantic = false;
      {
        const uint64_t semantic_before = engine.cache_stats().semantic_hits;
        ScopedSpan span(log, "engine.Execute", root.id(), op_id);
        result = engine.Execute(prepared, q.params);
        engine_ns += span.End();
        semantic = engine.cache_stats().semantic_hits != semantic_before;
        span.Rename(!result.cache_hit ? "engine.Execute.miss"
                    : semantic        ? "engine.Execute.semantic"
                                      : "engine.Execute.hit");
      }
      last_result[op.query] = result.result;
      root.Rename(!result.cache_hit ? "op.read.miss"
                  : semantic        ? "op.read.semantic"
                                    : "op.read.hit");

      // The same work the engine did, call by call, for attribution.
      int64_t covered_ns = 0;
      auto timed = [&](const char* name, auto&& fn) {
        ScopedSpan span(log, name, root.id(), op_id);
        fn();
        covered_ns += span.End();
      };
      qc::sql::SelectStmt stmt;
      timed("sql.Parse", [&] { stmt = qc::sql::Parse(q.sql); });
      timed("sql.CanonicalSql", [&] { (void)qc::sql::CanonicalSql(stmt); });
      std::string key;
      timed("sql.Fingerprint", [&] { key = qc::sql::Fingerprint(prepared->stmt(), q.params); });
      timed("cache.Get", [&] { (void)engine.cache().Get(key); });
      if (result.cache_hit && !semantic) {
        out.hit_total_us += static_cast<double>(engine_ns) / 1000.0;
        out.hit_covered_us += static_cast<double>(covered_ns) / 1000.0;
      }
      // Bind runs only when the statement cache misses; time it apart.
      qc::sql::SelectStmt fresh = qc::sql::Parse(q.sql);
      {
        ScopedSpan span(log, "sql.Bind", root.id(), op_id);
        (void)qc::sql::Bind(std::move(fresh), db);
      }
      if (!result.cache_hit) {
        ScopedSpan span(log, "sql.ExecuteUncached", root.id(), op_id);
        (void)engine.ExecuteUncached(*prepared, q.params);
      }
      continue;
    }

    ScopedSpan root(log, "op.dml", 0, op_id);
    traced_keys.clear();
    {
      ScopedSpan span(log, "engine.ExecuteDml", root.id(), op_id);
      engine.ExecuteDml(op.sql);
    }
    {
      ScopedSpan span(log, "storage.Dml", root.id(), op_id);
      const qc::sql::AnyStatement stmt = qc::sql::ParseStatement(op.sql);
      qc::sql::ExecuteDml(stmt.dml, storage_twin);
    }
    // Was each invalidation useful: did the entry's result really change?
    std::sort(traced_keys.begin(), traced_keys.end());
    traced_keys.erase(std::unique(traced_keys.begin(), traced_keys.end()), traced_keys.end());
    for (const std::string& key : traced_keys) {
      ++out.invalidated;
      const auto it = key_index.find(key);
      if (it == key_index.end() || last_result[it->second] == nullptr) {
        ++out.unknown_keys;
        continue;
      }
      const size_t i = it->second;
      const qc::sql::ResultSet now = engine.ExecuteUncached(*bound[i], population[i].params);
      if (!now.Equals(*last_result[i])) ++out.useful;
    }
  }
  out.odg_edges = engine.dup_engine().GraphEdgeCount();
  engine.dup_engine().SetTracer(nullptr);
  return out;
}

}  // namespace perfbench
