#include "wire.h"

#include <deque>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

constexpr size_t kMaxErrors = 5;

// The KSEQ an invalidation event is about: each DML statement touches one
// row, identified by its KSEQ (column 0) in the after image, or the before
// image for a delete.
int64_t EventKseq(const qc::storage::UpdateEvent& event) {
  const qc::storage::Row& image = event.after.empty() ? event.before : event.after;
  return image.empty() || !image[0].is_int() ? -1 : image[0].as_int();
}

void NoteError(ConnStats& st, const std::string& what) {
  ++st.failures;
  if (st.errors.size() < kMaxErrors) st.errors.push_back(what);
}

}  // namespace

uint64_t PhaseResult::Ops() const {
  uint64_t n = 0;
  for (const ConnStats& c : conns) n += c.ops;
  return n;
}

uint64_t PhaseResult::Failures() const {
  uint64_t n = missing_records + unmatched_records + (subscriber_error.empty() ? 0 : 1);
  for (const ConnStats& c : conns) n += c.failures;
  return n;
}

PhaseResult RunClosedLoop(std::vector<qc::server::QcClient>& clients,
                          std::vector<OpStream>& streams,
                          const std::vector<QueryInstance>& population,
                          qc::server::QcClient& subscriber, qc::server::QcClient* relay_probe,
                          double seconds, std::vector<SpanLog>* spans) {
  PhaseResult result;
  result.conns.resize(clients.size());

  // DML send times per KSEQ, oldest first. One connection owns each row
  // and waits for every reply, so a row's records arrive in send order.
  std::mutex pending_mutex;
  std::unordered_map<int64_t, std::deque<int64_t>> pending;
  std::atomic<size_t> running{clients.size()};
  std::atomic<int64_t> last_end{0};

  const int64_t start = NowNs();
  const int64_t deadline = start + static_cast<int64_t>(seconds * 1e9);

  auto worker = [&](size_t i) {
    ConnStats& st = result.conns[i];
    SpanLog* log = spans != nullptr ? &(*spans)[i] : nullptr;
    qc::server::QcClient& client = clients[i];
    while (NowNs() < deadline) {
      const Op op = streams[i].Next();
      ++st.ops;
      const uint64_t op_id = (static_cast<uint64_t>(i) << 40) | st.ops;
      try {
        if (op.kind == Op::Kind::kRead) {
          const QueryInstance& q = population[op.query];
          std::optional<ScopedSpan> span;
          if (log) span.emplace(*log, "wire.query", 0, op_id);
          const int64_t t0 = NowNs();
          const auto reply = client.Query(q.sql, q.params);
          const int64_t t1 = NowNs();
          ++st.reads;
          st.read_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
          if (reply.cache_hit) ++st.hits;
          if (span) span->Rename(reply.cache_hit ? "wire.query.hit" : "wire.query.miss");
        } else {
          std::optional<ScopedSpan> span;
          if (log) span.emplace(*log, "wire.dml", 0, op_id);
          const int64_t t0 = NowNs();
          {
            std::lock_guard<std::mutex> lock(pending_mutex);
            pending[op.kseq].push_back(t0);
          }
          const uint64_t affected = client.Dml(op.sql);
          const int64_t t1 = NowNs();
          st.write_us.push_back(static_cast<double>(t1 - t0) / 1000.0);
          ++st.dmls;
          st.dml_log.push_back(op.sql);
          if (affected != 1) {
            NoteError(st, op.sql + ": affected " + std::to_string(affected) + " rows, expected 1");
          }
        }
      } catch (const qc::server::RpcError& e) {
        NoteError(st, e.what());
      } catch (const std::exception& e) {
        NoteError(st, e.what());
        break;  // the connection is unusable
      }
    }
    int64_t now = NowNs();
    int64_t prev = last_end.load();
    while (prev < now && !last_end.compare_exchange_weak(prev, now)) {
    }
    running.fetch_sub(1);
  };

  std::vector<std::thread> threads;
  threads.reserve(clients.size());
  for (size_t i = 0; i < clients.size(); ++i) threads.emplace_back(worker, i);

  // Subscriber loop on this thread.
  std::unordered_map<uint64_t, int64_t> probe_seen, sub_seen;
  size_t matched = 0;
  auto on_record = [&](const qc::server::CdcRecord& record, int64_t now) {
    if (relay_probe != nullptr) {
      if (auto it = probe_seen.find(record.seq); it != probe_seen.end()) {
        result.relay_lag_us.push_back(static_cast<double>(now - it->second) / 1000.0);
        probe_seen.erase(it);
      } else {
        sub_seen.emplace(record.seq, now);
      }
    }
    std::lock_guard<std::mutex> lock(pending_mutex);
    for (const qc::storage::UpdateEvent& event : record.events) {
      auto it = pending.find(EventKseq(event));
      if (it == pending.end() || it->second.empty()) {
        ++result.unmatched_records;
        continue;
      }
      result.visible_us.push_back(static_cast<double>(now - it->second.front()) / 1000.0);
      it->second.pop_front();
      ++matched;
    }
  };
  auto on_probe = [&](const qc::server::CdcRecord& record, int64_t now) {
    if (auto it = sub_seen.find(record.seq); it != sub_seen.end()) {
      result.relay_lag_us.push_back(static_cast<double>(it->second - now) / 1000.0);
      sub_seen.erase(it);
    } else {
      probe_seen.emplace(record.seq, now);
    }
  };

  int64_t drain_deadline = 0;
  try {
    for (;;) {
      if (running.load() == 0) {
        uint64_t acked = 0;
        for (const ConnStats& c : result.conns) acked += c.dmls;
        if (matched >= acked) break;
        if (drain_deadline == 0) drain_deadline = NowNs() + 10'000'000'000;
        if (NowNs() > drain_deadline) {
          result.missing_records = acked - matched;
          break;
        }
      }
      if (relay_probe == nullptr) {
        if (auto record = subscriber.ReadCdcEvent(20)) on_record(*record, NowNs());
        continue;
      }
      // Two streams on one thread: poll both without blocking.
      bool any = false;
      if (auto record = subscriber.ReadCdcEvent(0)) {
        on_record(*record, NowNs());
        any = true;
      }
      if (auto record = relay_probe->ReadCdcEvent(0)) {
        on_probe(*record, NowNs());
        any = true;
      }
      if (!any) std::this_thread::yield();
    }
  } catch (const std::exception& e) {
    result.subscriber_error = e.what();
  }
  for (std::thread& t : threads) t.join();
  result.elapsed_s = static_cast<double>(last_end.load() - start) / 1e9;
  return result;
}

}  // namespace perfbench
