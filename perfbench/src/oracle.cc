#include "oracle.h"

#include "common/error.h"
#include "sql/dml.h"
#include "sql/evaluator.h"
#include "sql/parser.h"

namespace perfbench {

Twin::Twin(uint64_t rows, uint64_t seed)
    : bench_(std::make_unique<qc::setquery::BenchTable>(db_, rows, seed)) {}

void Twin::ApplyDml(const std::string& sql) {
  const qc::sql::AnyStatement stmt = qc::sql::ParseStatement(sql);
  if (stmt.kind != qc::sql::AnyStatement::Kind::kDml) throw qc::Error("not DML: " + sql);
  qc::sql::ExecuteDml(stmt.dml, db_);
}

qc::sql::ResultSet Twin::Expected(const QueryInstance& q) {
  auto it = bound_.find(q.sql);
  if (it == bound_.end()) it = bound_.emplace(q.sql, qc::sql::ParseAndBind(q.sql, db_)).first;
  return qc::sql::Execute(*it->second, q.params);
}

void Verdict::Record(const QueryInstance& q, bool ok) {
  ++checked;
  if (ok) return;
  ++mismatches;
  if (examples.size() < 5) {
    std::string text = q.sql;
    for (const Value& v : q.params) text += " [$=" + v.ToString() + "]";
    examples.push_back(std::move(text));
  }
}

}  // namespace perfbench
