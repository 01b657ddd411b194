// Tests of the benchmark itself: seeded inputs, disjoint row partitions,
// percentile reporting, and the correctness oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "oracle.h"
#include "ops.h"
#include "stats.h"

namespace perfbench {
namespace {

constexpr uint64_t kRows = 2000;

std::vector<Op> Ops(const std::string& workload, uint64_t seed, size_t conn, size_t n) {
  const WorkloadSpec spec = GetWorkload(workload);
  Twin twin(kRows, seed);
  const auto population = BuildPopulation(spec, twin.bench(), seed);
  OpStream stream(spec, twin.bench(), population, conn, seed);
  std::vector<Op> ops;
  for (size_t i = 0; i < n; ++i) ops.push_back(stream.Next());
  return ops;
}

TEST(OpStreamTest, SameSeedGivesIdenticalStream) {
  for (const std::string& w : WorkloadNames()) {
    for (size_t conn = 0; conn < kConnections; ++conn) {
      EXPECT_EQ(Ops(w, 7, conn, 3000), Ops(w, 7, conn, 3000)) << w << " conn " << conn;
    }
  }
}

TEST(OpStreamTest, DifferentSeedsGiveDifferentStreams) {
  for (const std::string& w : WorkloadNames()) {
    EXPECT_NE(Ops(w, 7, 0, 3000), Ops(w, 8, 0, 3000)) << w;
  }
}

TEST(OpStreamTest, PopulationIsSeededAndDistinct) {
  const WorkloadSpec spec = GetWorkload("update_mix");
  Twin a(kRows, 3), b(kRows, 3);
  const auto pa = BuildPopulation(spec, a.bench(), 3);
  const auto pb = BuildPopulation(spec, b.bench(), 3);
  ASSERT_EQ(pa.size(), pb.size());
  std::set<std::string> distinct;
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_EQ(pa[i].sql, pb[i].sql);
    EXPECT_EQ(pa[i].params, pb[i].params);
    std::string key = pa[i].sql;
    for (const Value& v : pa[i].params) key += "|" + v.ToString();
    distinct.insert(key);
  }
  EXPECT_GT(distinct.size(), pa.size() * 9 / 10);  // a few random ranges may coincide
  std::set<std::string> families;
  for (const auto& q : pa) families.insert(q.family);
  for (const char* f :
       {"1", "2A", "2B", "3A", "3B", "4A", "4B", "5", "6A", "6B", "R", "RW1", "RW3"}) {
    EXPECT_TRUE(families.count(f)) << "family " << f;
  }
}

TEST(PartitionTest, PartitionsAreDisjointAndCoverEveryRow) {
  std::set<int64_t> seen;
  size_t total = 0;
  for (size_t c = 0; c < kConnections; ++c) {
    const auto rows = PartitionRows(kRows, c, kConnections);
    total += rows.size();
    seen.insert(rows.begin(), rows.end());
  }
  EXPECT_EQ(total, kRows);
  EXPECT_EQ(seen.size(), kRows);
  EXPECT_EQ(*seen.begin(), 1);
  EXPECT_EQ(*seen.rbegin(), static_cast<int64_t>(kRows));
}

TEST(PartitionTest, EveryDmlTargetsItsConnectionsRows) {
  for (size_t c = 0; c < kConnections; ++c) {
    const auto rows = PartitionRows(kRows, c, kConnections);
    const std::set<int64_t> own(rows.begin(), rows.end());
    size_t dmls = 0;
    for (const Op& op : Ops("update_mix", 11, c, 5000)) {
      if (op.kind != Op::Kind::kDml) continue;
      ++dmls;
      EXPECT_TRUE(own.count(op.kseq)) << op.sql;
      EXPECT_TRUE(op.sql.find("KSEQ = " + std::to_string(op.kseq)) != std::string::npos ||
                  op.sql.find("VALUES (" + std::to_string(op.kseq) + ",") != std::string::npos)
          << op.sql;
    }
    EXPECT_GT(dmls, 500u);
  }
}

TEST(PartitionTest, FinalStateDoesNotDependOnInterleaving) {
  // Apply the same per-connection DML logs in two different interleavings.
  const uint64_t seed = 5;
  std::vector<std::vector<std::string>> logs(kConnections);
  for (size_t c = 0; c < kConnections; ++c) {
    for (const Op& op : Ops("update_mix", seed, c, 2000)) {
      if (op.kind == Op::Kind::kDml) logs[c].push_back(op.sql);
    }
  }
  Twin forward(kRows, seed), interleaved(kRows, seed);
  for (const auto& log : logs) {
    for (const std::string& sql : log) forward.ApplyDml(sql);
  }
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (size_t c = kConnections; c-- > 0;) {
      if (i < logs[c].size()) {
        interleaved.ApplyDml(logs[c][i]);
        any = true;
      }
    }
    if (!any) break;
  }
  const auto population = BuildPopulation(GetWorkload("update_mix"), forward.bench(), seed);
  for (const QueryInstance& q : population) {
    EXPECT_TRUE(interleaved.Expected(q).Equals(forward.Expected(q))) << q.sql;
  }
}

TEST(StatsTest, PercentilesComeWithTheirSampleCount) {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);
  const Summary s = Summarize(samples);
  EXPECT_EQ(s.n, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500);
  EXPECT_DOUBLE_EQ(s.p99, 990);
  EXPECT_NE(FormatSummary("x", s, "us").find("n=1000"), std::string::npos);
  // Fewer than ten samples beyond p99 is flagged.
  std::vector<double> few = {3, 1, 2};
  const Summary f = Summarize(few);
  EXPECT_EQ(f.n, 3u);
  EXPECT_DOUBLE_EQ(f.p50, 2);
  EXPECT_NE(FormatSummary("x", f, "us").find("<10 samples"), std::string::npos);
  std::vector<double> none;
  EXPECT_EQ(Summarize(none).n, 0u);
  EXPECT_NE(FormatRatio("r", 3, 4).find("3/4"), std::string::npos);
}

TEST(OracleTest, FlagsACorruptedResultSet) {
  Twin twin(kRows, 9);
  const QueryInstance rows_query{
      "R", "SELECT KSEQ, K100 FROM BENCH WHERE KSEQ BETWEEN 10 AND 40", {}};
  const QueryInstance count_query{"1", "SELECT COUNT(*) FROM BENCH WHERE K2 = $1", {Value(2)}};
  const qc::sql::ResultSet expected = twin.Expected(rows_query);
  ASSERT_EQ(expected.row_count(), 31u);

  // Row order is not part of the result.
  qc::sql::ResultSet reordered(expected.columns());
  for (size_t i = expected.row_count(); i-- > 0;) reordered.AddRow(expected.rows()[i]);
  EXPECT_TRUE(reordered.Equals(expected));

  qc::sql::ResultSet corrupted(expected.columns());
  for (size_t i = 0; i < expected.row_count(); ++i) {
    auto row = expected.rows()[i];
    if (i == 7) row[1] = Value(row[1].as_int() + 1);
    corrupted.AddRow(row);
  }
  EXPECT_FALSE(corrupted.Equals(expected));

  qc::sql::ResultSet missing(expected.columns());
  for (size_t i = 1; i < expected.row_count(); ++i) missing.AddRow(expected.rows()[i]);
  EXPECT_FALSE(missing.Equals(expected));

  // A stale aggregate: the served count predates an update.
  const qc::sql::ResultSet before = twin.Expected(count_query);
  const auto row = twin.bench().table().GetRow(0);
  const int64_t k2 = row[qc::setquery::BenchColumns().size() - 1].as_int();
  twin.ApplyDml("UPDATE BENCH SET K2 = " + std::to_string(3 - k2) + " WHERE KSEQ = 1");
  const qc::sql::ResultSet after = twin.Expected(count_query);
  EXPECT_FALSE(before.Equals(after));

  Verdict verdict;
  verdict.Record(count_query, before.Equals(after));
  verdict.Record(rows_query, reordered.Equals(expected));
  EXPECT_EQ(verdict.checked, 2u);
  EXPECT_EQ(verdict.mismatches, 1u);
  ASSERT_EQ(verdict.examples.size(), 1u);
  EXPECT_NE(verdict.examples[0].find("K2 = $1"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
