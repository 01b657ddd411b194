// In-memory span recording for the traced run. Spans are taken only in
// the benchmark's own code, around its calls into each layer (QcClient on
// the wire; CachedQueryEngine, sql::*, GpsCache and the twin database in
// the in-process replay). Each thread owns one SpanLog, so recording takes
// no lock; the logs are written out together when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal
  uint64_t id = 0;
  uint64_t parent = 0;    // 0 = root
  uint64_t op = 0;        // operation the span belongs to
  int64_t start_ns = 0;
  int64_t end_ns = 0;

  double DurationUs() const { return static_cast<double>(end_ns - start_ns) / 1000.0; }
};

class SpanLog {
 public:
  /// `thread` namespaces the span ids, so ids are unique across logs.
  explicit SpanLog(uint32_t thread) : next_id_((static_cast<uint64_t>(thread) + 1) << 40) {}

  uint64_t NextId() { return ++next_id_; }

  void Add(const Span& span) { spans_.push_back(span); }

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations (µs) of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const;

 private:
  uint64_t next_id_;
  std::vector<Span> spans_;
};

/// Records [construction, End() or destruction) as one span of `log`.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, uint64_t parent, uint64_t op)
      : log_(log), span_{name, log.NextId(), parent, op, NowNs(), 0} {}
  ~ScopedSpan() {
    if (span_.end_ns == 0) span_.end_ns = NowNs();
    log_.Add(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }
  /// Close the span now rather than at scope exit; returns its length in ns.
  int64_t End() {
    span_.end_ns = NowNs();
    return span_.end_ns - span_.start_ns;
  }
  /// Name the span after the call it wraps has told us what happened
  /// (e.g. a hit or a miss).
  void Rename(const char* name) { span_.name = name; }

 private:
  SpanLog& log_;
  Span span_;
};

/// Write every span as CSV (id,parent,op,name,start_ns,end_ns).
void WriteSpans(const std::string& path, const std::vector<const SpanLog*>& logs);

}  // namespace perfbench
