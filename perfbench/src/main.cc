// qcbench — the qcached wire benchmark (README.md in this directory).
//
//   qcbench --workload hit_heavy|update_mix|cluster --seed N --seconds S
//           --trace 0|1 --qcached PATH --workdir DIR
//
// Starts qcached (one node, or a storage node and two cache nodes), loads
// the seeded BENCH table through --init/\import, warms the cache, drives a
// closed loop of three client connections plus one CDC subscriber for S
// seconds in equal windows, then checks every distinct query against an
// uncached twin. Between windows it times further set-ups of a throwaway
// deployment, so setup_s samples the host over the whole run.
// Prints a report with sample counts, then, as the last line, one JSON
// object: the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1, which also writes span files under DIR/traces).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "oracle.h"
#include "ops.h"
#include "procs.h"
#include "replay.h"
#include "server/client.h"
#include "spans.h"
#include "stats.h"
#include "storage/csv.h"
#include "wire.h"

namespace perfbench {
namespace {

using qc::server::QcClient;
using StatsMap = std::map<std::string, double>;

constexpr int kWindows = 5;          // measurement windows of an untraced run
// Set-ups before each window. setup_s is the fastest of them: on a shared
// host the same load takes one of two speeds for seconds at a time, so a
// median flips between the two while the minimum stays put.
constexpr int kSetupsPerWindow = 2;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string qcached;
  std::string workdir;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw qc::Error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--qcached") {
      args.qcached = value;
    } else if (flag == "--workdir") {
      args.workdir = value;
    } else {
      throw qc::Error("unknown flag " + flag);
    }
  }
  if (args.workload.empty() || args.qcached.empty() || args.workdir.empty()) {
    throw qc::Error("usage: qcbench --workload W --seed N --seconds S --trace 0|1 "
                    "--qcached PATH --workdir DIR");
  }
  if (args.seconds <= 0) throw qc::Error("--seconds must be positive");
  return args;
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  out << content;
  if (!out) throw qc::Error("cannot write " + path);
}

std::string SchemaScript() {
  std::string s = "\\create BENCH ";
  const auto& cols = qc::setquery::BenchColumns();
  for (size_t i = 0; i < cols.size(); ++i) s += std::string(i ? ", " : "") + cols[i].name + " INT";
  return s + "\n";
}

std::string StorageScript(const std::string& csv) {
  std::string s = SchemaScript() + "\\import BENCH " + csv + "\n";
  for (const auto& col : qc::setquery::BenchColumns()) {
    s += "\\index BENCH " + std::string(col.name) + " hash\n";
  }
  return s + "\\index BENCH KSEQ ordered\n";
}

// One running deployment: the qcached processes and the benchmark's
// connections to them.
struct Deployment {
  std::unique_ptr<ProcessSet> procs;
  std::vector<QcClient> clients;  // the closed-loop connections
  QcClient subscriber;
  std::vector<uint16_t> cache_ports;  // nodes whose engines serve the clients
  uint16_t storage_port = 0;
  std::vector<std::string> flags_used;  // for the report

  /// Close the connections and stop the processes; returns their summed
  /// peak RSS in KiB.
  long Stop() {
    clients.clear();
    subscriber.Close();
    return procs->StopAll();
  }

  // STATS of every node that serves clients (the single node, or both
  // cache nodes), through the idle client connections.
  std::vector<StatsMap> ServingStats() {
    std::vector<StatsMap> out;
    out.push_back(clients[0].Stats());
    if (cache_ports.size() > 1) out.push_back(clients[1].Stats());
    return out;
  }
};

std::string Join(std::string head, const std::vector<std::string>& words) {
  for (const std::string& w : words) head += " " + w;
  return head;
}

std::vector<std::string> CommonFlags(const WorkloadSpec& spec, size_t threads) {
  return {"--threads", std::to_string(threads), "--policy", "III", "--memory-budget-bytes",
          std::to_string(spec.memory_budget_bytes)};
}

// Start the processes of one deployment from the init scripts in `dir`;
// their logs and port files go into `proc_dir`.
Deployment Deploy(const WorkloadSpec& spec, const Args& args, const std::string& dir,
                  const std::string& proc_dir) {
  Deployment d;
  d.procs = std::make_unique<ProcessSet>(args.qcached, proc_dir);
  auto storage_flags = CommonFlags(spec, spec.server_threads);
  storage_flags.insert(storage_flags.end(), {"--init", dir + "/storage.qc"});
  const ServerProc storage = d.procs->Start("storage", 0, storage_flags);
  d.storage_port = storage.port;
  d.flags_used.push_back(Join("storage:", storage_flags));
  if (!spec.cluster) {
    d.cache_ports = {storage.port};
  } else {
    const std::vector<std::string> names = {"cacheA", "cacheB"};
    const std::vector<uint16_t> ports = {PickFreePort(), PickFreePort()};
    for (size_t n = 0; n < names.size(); ++n) {
      auto flags = CommonFlags(spec, spec.cache_node_threads);
      flags.insert(flags.end(), {"--init", dir + "/schema.qc", "--upstream",
                                 "127.0.0.1:" + std::to_string(storage.port), "--node-name",
                                 names[n], "--peer",
                                 names[1 - n] + "=127.0.0.1:" + std::to_string(ports[1 - n])});
      d.procs->Start(names[n], ports[n], flags);
      d.flags_used.push_back(Join(names[n] + ":", flags));
    }
    d.cache_ports = ports;
  }
  // Cluster: connections 0 and 2 on the writer node A, 1 and the
  // subscriber on node B.
  d.clients.resize(kConnections);
  for (size_t i = 0; i < kConnections; ++i) {
    d.clients[i].Connect("127.0.0.1", d.cache_ports[i % d.cache_ports.size()]);
  }
  d.subscriber.Connect("127.0.0.1", d.cache_ports.back());
  d.subscriber.SubscribeCdc(0);
  return d;
}

// Issue every query of the population once, split over the connections.
// With `expected`, compare each served result (the oracle); otherwise it
// is the warm-up pass.
void PopulationPass(Deployment& d, const std::vector<QueryInstance>& population,
                    const std::vector<qc::sql::ResultSet>* expected, Verdict* verdict) {
  std::vector<std::vector<bool>> ok(kConnections);
  std::vector<std::string> errors(kConnections);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      try {
        for (size_t i = c; i < population.size(); i += kConnections) {
          const auto reply = d.clients[c].Query(population[i].sql, population[i].params);
          ok[c].push_back(expected == nullptr || reply.result.Equals((*expected)[i]));
        }
      } catch (const std::exception& e) {
        errors[c] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw qc::Error("population pass failed: " + e);
  }
  if (verdict == nullptr) return;
  for (size_t c = 0; c < kConnections; ++c) {
    for (size_t k = 0; k < ok[c].size(); ++k) {
      verdict->Record(population[c + k * kConnections], ok[c][k]);
    }
  }
}

// One timed set-up: launch → load → warm-up, appended to `setup_s`.
Deployment SetUp(const WorkloadSpec& spec, const Args& args, const std::string& dir,
                 const std::string& proc_dir, const std::vector<QueryInstance>& population,
                 std::vector<double>& setup_s) {
  const int64_t t0 = NowNs();
  Deployment d = Deploy(spec, args, dir, proc_dir);
  PopulationPass(d, population, nullptr, nullptr);
  setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  return d;
}

// Add each node's STATS counter deltas after − before into `sum`.
void AddDelta(std::vector<StatsMap>& sum, const std::vector<StatsMap>& before,
              const std::vector<StatsMap>& after) {
  sum.resize(after.size());
  for (size_t n = 0; n < after.size(); ++n) {
    for (const auto& [key, value] : Delta(before[n], after[n])) sum[n][key] += value;
  }
}

// Cluster: block until every cache node has applied the storage node's
// last CDC record, so the oracle compares settled state.
void AwaitClusterSettled(Deployment& d) {
  QcClient storage;
  storage.Connect("127.0.0.1", d.storage_port);
  const double committed = storage.Stats().at("server.cdc_committed_seq");
  storage.Close();
  const int64_t deadline = NowNs() + 10'000'000'000;
  for (size_t n = 0; n < d.cache_ports.size(); ++n) {
    while (d.clients[n].Stats().at("server.cdc_committed_seq") < committed) {
      if (NowNs() > deadline) throw qc::Error("cache node did not apply the CDC stream's tail");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

// ---- report ----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string s = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(attempted) +
                  ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    s += (i ? ", " : "") + ("\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
                            ", \"unit\": \"" + metrics[i].unit + "\"}");
  }
  return s + "}}";
}

std::vector<double> Reads(const PhaseResult& p) {
  std::vector<double> out;
  for (const ConnStats& c : p.conns) out.insert(out.end(), c.read_us.begin(), c.read_us.end());
  return out;
}

std::vector<double> Writes(const PhaseResult& p) {
  std::vector<double> out;
  for (const ConnStats& c : p.conns) out.insert(out.end(), c.write_us.begin(), c.write_us.end());
  return out;
}

std::vector<double> Visible(const PhaseResult& p) { return p.visible_us; }

using SamplesOf = std::vector<double> (*)(const PhaseResult&);

// The samples of every window in `phases` together.
std::vector<double> Pooled(const std::vector<const PhaseResult*>& phases, SamplesOf samples_of) {
  std::vector<double> out;
  for (const PhaseResult* p : phases) {
    const std::vector<double> v = samples_of(*p);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

uint64_t Sum(const PhaseResult& r, uint64_t ConnStats::*field) {
  uint64_t n = 0;
  for (const ConnStats& c : r.conns) n += c.*field;
  return n;
}

uint64_t Sum(const std::vector<const PhaseResult*>& phases, uint64_t ConnStats::*field) {
  uint64_t n = 0;
  for (const PhaseResult* p : phases) n += Sum(*p, field);
  return n;
}

// Operations per second over `phases` together.
double OpsRate(const std::vector<const PhaseResult*>& phases) {
  double ops = 0, seconds = 0;
  for (const PhaseResult* p : phases) {
    ops += static_cast<double>(p->Ops());
    seconds += p->elapsed_s;
  }
  return Ratio(ops, seconds);
}

std::vector<double> SpanDurations(const std::vector<SpanLog>& logs, const std::string& name) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    auto d = log.DurationsUs(name);
    out.insert(out.end(), d.begin(), d.end());
  }
  return out;
}

// End-to-end metrics of an untraced run. Latencies and throughput are
// medians over the windows of the run, so a burst of outside load in one
// window does not move them; the pooled summaries give the sample counts.
std::vector<Metric> EndToEndMetrics(const std::vector<const PhaseResult*>& windows,
                                    std::vector<double> setup_s, uint64_t hits, uint64_t reads_n,
                                    uint64_t ops, double rss_mb) {
  auto windowed = [&](SamplesOf samples_of, double q) {
    std::vector<double> per_window;
    for (const PhaseResult* p : windows) {
      std::vector<double> v = samples_of(*p);
      if (!v.empty()) per_window.push_back(Percentile(v, q));
    }
    return Median(per_window);
  };
  std::vector<double> rates;
  for (const PhaseResult* p : windows) rates.push_back(OpsRate({p}));
  auto read_v = Pooled(windows, Reads), write_v = Pooled(windows, Writes),
       visible_v = Pooled(windows, Visible);
  const Summary rs = Summarize(read_v), ws = Summarize(write_v), vs = Summarize(visible_v);
  std::cout << "setup_s samples:";
  for (double v : setup_s) std::cout << " " << v;
  std::cout << "\n";
  const double setup_min = *std::min_element(setup_s.begin(), setup_s.end());
  const Summary ss = Summarize(setup_s);
  std::cout << FormatSummary("setup_s", ss, "s") << " min=" << setup_min << " s\n"
            << FormatSummary("read_us (whole run)", rs, "us") << "\n"
            << FormatSummary("write_us (whole run)", ws, "us") << "\n"
            << FormatSummary("inval_visible_us (whole run)", vs, "us") << "\n"
            << FormatRatio("hit_rate", static_cast<double>(hits),
                           static_cast<double>(reads_n))
            << "\n"
            << "ops " << ops << " in " << windows.size() << " windows, peak RSS " << rss_mb
            << " MiB; reported latencies and ops/s are medians over the windows\n";
  return {
      {"setup_s", setup_min, "s"},
      {"ops_per_s", Median(rates), "1/s"},
      {"read_p50_us", windowed(Reads, 0.50), "us"},
      {"read_p99_us", windowed(Reads, 0.99), "us"},
      {"write_p50_us", windowed(Writes, 0.50), "us"},
      {"write_p99_us", windowed(Writes, 0.99), "us"},
      {"inval_visible_p50_us", windowed(Visible, 0.50), "us"},
      {"inval_visible_p99_us", windowed(Visible, 0.99), "us"},
      {"hit_rate", Ratio(static_cast<double>(hits), static_cast<double>(reads_n)), "ratio"},
      {"server_rss_mb", rss_mb, "MB"},
  };
}

// Per-layer metrics of a traced run: the traced wire windows and their
// STATS deltas, then the in-process replay. The untraced windows run the
// same loop, interleaved with the traced ones, for the tracing overhead.
std::vector<Metric> PerLayerMetrics(const Args& args, const WorkloadSpec& spec,
                                    const std::vector<QueryInstance>& population,
                                    std::vector<OpStream>& replay_streams, const std::string& csv,
                                    const std::vector<const PhaseResult*>& untraced,
                                    const std::vector<const PhaseResult*>& traced,
                                    const std::vector<StatsMap>& delta,
                                    const std::vector<StatsMap>& stats_end,
                                    const std::vector<SpanLog>& wire_spans) {
  auto D = [&](const std::string& key) { return SumKey(delta, key); };

  ReplayResult replay = RunReplay(spec, population, replay_streams, csv, args.seconds / 2);
  auto R = [&](const char* name) {
    auto v = replay.log.DurationsUs(name);
    return Summarize(v);
  };
  const Summary prepare = R("engine.Prepare"), parse = R("sql.Parse"), bind = R("sql.Bind"),
                canonical = R("sql.CanonicalSql"), fingerprint = R("sql.Fingerprint"),
                get = R("cache.Get"), exec = R("sql.ExecuteUncached"),
                mw_dml = R("engine.ExecuteDml"), st_dml = R("storage.Dml");
  // A hit's in-process cost is Prepare + Execute (what ExecuteSql does).
  std::map<uint64_t, double> engine_us_by_op;
  for (const Span& s : replay.log.spans()) {
    const std::string n = s.name;
    if (n == "engine.Prepare" || n.rfind("engine.Execute.", 0) == 0) {
      engine_us_by_op[s.op] += s.DurationUs();
    }
  }
  auto op_durations = [&](const std::string& root_name) {
    std::vector<double> out;
    for (const Span& s : replay.log.spans()) {
      if (root_name == s.name) out.push_back(engine_us_by_op[s.op]);
    }
    return out;
  };
  auto hit_v = op_durations("op.read.hit");
  auto miss_v = op_durations("op.read.miss");
  auto sem_v = op_durations("op.read.semantic");
  const Summary mw_hit = Summarize(hit_v), mw_miss = Summarize(miss_v), mw_sem = Summarize(sem_v);

  auto wire_hit_v = SpanDurations(wire_spans, "wire.query.hit");
  const Summary wire_hit = Summarize(wire_hit_v);
  auto read_u = Pooled(untraced, Reads), read_t = Pooled(traced, Reads);
  const Summary ru = Summarize(read_u), rt = Summarize(read_t);
  const double ops_u = OpsRate(untraced), ops_t = OpsRate(traced);
  auto relay = Pooled(traced, [](const PhaseResult& p) { return p.relay_lag_us; });
  const Summary relay_s = Summarize(relay);
  const double traced_reads = static_cast<double>(Sum(traced, &ConnStats::reads));
  const double traced_dmls = static_cast<double>(Sum(traced, &ConnStats::dmls));
  const double traced_ops = static_cast<double>(Sum(traced, &ConnStats::ops));

  std::cout << "traced wire windows: " << traced_ops << " ops; replay: " << replay.ops << " ops\n"
            << FormatSummary("wire hit RTT", wire_hit, "us") << "\n"
            << FormatSummary("replay Prepare", prepare, "us") << "\n"
            << FormatSummary("replay hit (Prepare+Execute)", mw_hit, "us") << "\n"
            << FormatSummary("replay semantic hit", mw_sem, "us") << "\n"
            << FormatSummary("replay miss", mw_miss, "us") << "\n"
            << FormatSummary("replay ExecuteDml", mw_dml, "us") << "\n"
            << FormatSummary("replay twin DML", st_dml, "us") << "\n"
            << FormatSummary("sql.Parse", parse, "us") << "\n"
            << FormatSummary("sql.Bind", bind, "us") << "\n"
            << FormatSummary("sql.CanonicalSql", canonical, "us") << "\n"
            << FormatSummary("sql.Fingerprint", fingerprint, "us") << "\n"
            << FormatSummary("cache.Get", get, "us") << "\n"
            << FormatSummary("sql.ExecuteUncached", exec, "us") << "\n"
            << FormatSummary("relay lag", relay_s, "us") << "\n"
            << FormatRatio("hit covered by spans (us)", replay.hit_covered_us,
                           replay.hit_total_us)
            << "\n"
            << FormatRatio("vec fallbacks", D("vec.queries_fallback"),
                           D("vec.queries_fallback") + D("vec.queries_vectorized")) << "\n"
            << FormatRatio("exact hits / probes", D("cache.hits"), D("cache.lookups")) << "\n"
            << FormatRatio("semantic hits / probes", D("cache.semantic_hits"),
                           D("cache.semantic_probes"))
            << "\n"
            << FormatRatio("evictions / ops", D("cache.evictions"), traced_ops) << "\n"
            << FormatRatio("invalidations / DML", D("dup.invalidations"), traced_dmls) << "\n"
            << FormatRatio("useful invalidations", static_cast<double>(replay.useful),
                           static_cast<double>(replay.invalidated)) << " (unknown keys "
            << replay.unknown_keys << ")\n"
            << FormatRatio("remote fills / executions", D("engine.remote_fills"),
                           D("engine.executions"))
            << "\n"
            << FormatRatio("ring forwards / reads", D("cluster.ring_forwards"), traced_reads)
            << "\n"
            << "tracing overhead: read p50 " << ru.p50 << " -> " << rt.p50 << " us, ops/s " << ops_u
            << " -> " << ops_t << "\n";

  const std::string traces = args.workdir + "/traces";
  std::filesystem::create_directories(traces);
  const std::string stem = traces + "/" + spec.name + "-seed" + std::to_string(args.seed);
  std::vector<const SpanLog*> wire_logs;
  for (const SpanLog& log : wire_spans) wire_logs.push_back(&log);
  WriteSpans(stem + "-wire.csv", wire_logs);
  WriteSpans(stem + "-replay.csv", {&replay.log});
  std::cout << "spans: " << stem << "-wire.csv, " << stem << "-replay.csv\n";

  return {
      {"server.hit_rtt_p50_us", wire_hit.p50, "us"},
      {"server.overhead_hit_us", wire_hit.p50 - mw_hit.p50, "us"},
      {"server.busy_rejects", D("server.busy_rejections"), "count"},
      {"middleware.prepare_us", prepare.p50, "us"},
      {"middleware.hit_p50_us", mw_hit.p50, "us"},
      {"middleware.hit_p99_us", mw_hit.p99, "us"},
      {"middleware.miss_p50_us", mw_miss.p50, "us"},
      {"middleware.miss_p99_us", mw_miss.p99, "us"},
      {"middleware.semantic_hit_p50_us", mw_sem.p50, "us"},
      {"middleware.dml_p50_us", mw_dml.p50, "us"},
      {"middleware.stale_discards", D("engine.stale_discards"), "count"},
      {"middleware.hit_unaccounted_share", 1 - Ratio(replay.hit_covered_us, replay.hit_total_us),
       "ratio"},
      {"sql.parse_us", parse.p50, "us"},
      {"sql.bind_us", bind.p50, "us"},
      {"sql.canonical_us", canonical.p50, "us"},
      {"sql.fingerprint_us", fingerprint.p50, "us"},
      {"sql.exec_p50_us", exec.p50, "us"},
      {"sql.exec_p99_us", exec.p99, "us"},
      {"sql.vec_fallback_share",
       Ratio(D("vec.queries_fallback"), D("vec.queries_fallback") + D("vec.queries_vectorized")),
       "ratio"},
      {"cache.get_us", get.p50, "us"},
      {"cache.exact_hit_ratio", Ratio(D("cache.hits"), D("cache.lookups")), "ratio"},
      {"cache.semantic_hit_ratio", Ratio(D("cache.semantic_hits"), D("cache.semantic_probes")),
       "ratio"},
      {"cache.residual_filter_us",
       Ratio(D("cache.residual_filter_ns"), D("cache.semantic_hits")) / 1000.0, "us"},
      {"cache.evictions_per_kop", 1000.0 * Ratio(D("cache.evictions"), traced_ops), "1/kop"},
      {"cache.memory_mb", SumKey(stats_end, "cache.memory_bytes") / (1024.0 * 1024.0), "MB"},
      {"dup.invalidate_us", mw_dml.p50 - st_dml.p50, "us"},
      {"dup.invalidations_per_update", Ratio(D("dup.invalidations"), traced_dmls), "1/update"},
      {"dup.useful_invalidation_ratio",
       Ratio(static_cast<double>(replay.useful), static_cast<double>(replay.invalidated)), "ratio"},
      {"dup.odg_edges", static_cast<double>(replay.odg_edges), "count"},
      {"storage.dml_p50_us", st_dml.p50, "us"},
      {"storage.load_s", replay.load_s, "s"},
      {"cluster.remote_fill_share", Ratio(D("engine.remote_fills"), D("engine.executions")),
       "ratio"},
      {"cluster.ring_forward_share", Ratio(D("cluster.ring_forwards"), traced_reads), "ratio"},
      {"cluster.relay_lag_p50_us", relay_s.p50, "us"},
      {"cluster.gap_flushes", D("cluster.gap_flushes"), "count"},
      {"cluster.seq_admit_rejects", D("engine.seq_admit_rejects"), "count"},
      {"trace.overhead_read_p50_us", rt.p50 - ru.p50, "us"},
      {"trace.overhead_ops_share", 1 - Ratio(ops_t, ops_u), "ratio"},
  };
}

int Run(const Args& args) {
  const WorkloadSpec spec = GetWorkload(args.workload);
  const std::string dir = args.workdir + "/" + spec.name + "-" + std::to_string(args.seed) + "-" +
                          std::to_string(::getpid());
  std::filesystem::create_directories(dir);

  // Inputs, all from the seed.
  Twin twin(spec.rows, args.seed);
  const std::vector<QueryInstance> population = BuildPopulation(spec, twin.bench(), args.seed);
  std::vector<OpStream> streams, replay_streams;
  for (size_t c = 0; c < kConnections; ++c) {
    streams.emplace_back(spec, twin.bench(), population, c, args.seed);
    if (args.trace) replay_streams.emplace_back(spec, twin.bench(), population, c, args.seed);
  }
  const std::string csv = dir + "/bench.csv";
  qc::storage::ExportCsvFile(twin.bench().table(), csv);
  WriteFile(dir + "/storage.qc", StorageScript(csv));
  WriteFile(dir + "/schema.qc", SchemaScript());

  // The measured deployment is the first set-up. A traced run alternates
  // untraced and traced windows (U T T U), so a drift of the host over the
  // run does not count as tracing overhead.
  std::vector<double> setup_s;
  Deployment d = SetUp(spec, args, dir, dir, population, setup_s);
  const std::vector<bool> traced_window = args.trace ? std::vector<bool>{false, true, true, false}
                                                     : std::vector<bool>(kWindows, false);
  const double window_s = args.seconds / static_cast<double>(traced_window.size());
  const std::string setup_dir = dir + "/setup";
  std::filesystem::create_directories(setup_dir);

  std::unique_ptr<QcClient> probe;
  if (args.trace && spec.cluster) {
    probe = std::make_unique<QcClient>();
    probe->Connect("127.0.0.1", d.storage_port);
    probe->SubscribeCdc(0);
  }
  std::vector<SpanLog> wire_spans;
  if (args.trace) {
    for (size_t c = 0; c < kConnections; ++c) wire_spans.emplace_back(static_cast<uint32_t>(c));
  }
  const std::vector<StatsMap> stats_start = d.ServingStats();
  std::vector<PhaseResult> phases;  // one per window
  std::vector<StatsMap> traced_delta;
  for (const bool traced : traced_window) {
    // The other set-ups of an untraced run, on a throwaway deployment
    // while the measured one idles: spread over the run, they sample the
    // host's speed as the windows do.
    for (int k = phases.empty() ? 1 : 0; !args.trace && k < kSetupsPerWindow; ++k) {
      SetUp(spec, args, dir, setup_dir, population, setup_s).Stop();
    }
    const std::vector<StatsMap> before = traced ? d.ServingStats() : std::vector<StatsMap>{};
    phases.push_back(RunClosedLoop(d.clients, streams, population, d.subscriber, probe.get(),
                                   window_s, traced ? &wire_spans : nullptr));
    if (traced) AddDelta(traced_delta, before, d.ServingStats());
  }
  const std::vector<StatsMap> stats_end = d.ServingStats();
  if (probe) probe->Close();
  std::vector<const PhaseResult*> untraced_windows, traced_windows;
  for (size_t w = 0; w < phases.size(); ++w) {
    (traced_window[w] ? traced_windows : untraced_windows).push_back(&phases[w]);
  }

  // Oracle: settle, replay the acknowledged DML into the twin, re-issue the
  // whole population and compare.
  if (spec.cluster) AwaitClusterSettled(d);
  for (const PhaseResult& p : phases) {
    for (const ConnStats& c : p.conns) {
      for (const std::string& sql : c.dml_log) twin.ApplyDml(sql);
    }
  }
  std::vector<qc::sql::ResultSet> expected;
  expected.reserve(population.size());
  for (const QueryInstance& q : population) expected.push_back(twin.Expected(q));
  Verdict verdict;
  PopulationPass(d, population, &expected, &verdict);

  uint64_t client_hits = 0, client_reads = 0, failures = 0, ops = 0;
  for (const PhaseResult& p : phases) {
    client_hits += Sum(p, &ConnStats::hits);
    client_reads += Sum(p, &ConnStats::reads);
    failures += p.Failures();
    ops += p.Ops();
  }
  const double server_hits = SumKey(stats_end, "engine.cache_hits") -
                             SumKey(stats_start, "engine.cache_hits");
  const bool hits_agree = static_cast<double>(client_hits) == server_hits;

  const double rss_mb = static_cast<double>(d.Stop()) / 1024.0;

  const uint64_t attempted = ops + verdict.checked + 1;  // +1: the hit cross-check
  const uint64_t failed = failures + verdict.mismatches + (hits_agree ? 0 : 1);
  const bool correct = failed == 0;

  // ---- report -------------------------------------------------------------
  std::cout << "workload " << spec.name << " seed " << args.seed << " seconds " << args.seconds
            << " trace " << args.trace << "  (nproc " << std::thread::hardware_concurrency()
            << ", closed loop: " << kConnections << " connections + 1 CDC subscriber)\n";
  std::cout << "data: BENCH " << spec.rows << " rows, population " << population.size()
            << " distinct queries, cache budget " << spec.memory_budget_bytes << " B\n";
  for (const std::string& f : d.flags_used) std::cout << "qcached " << f << "\n";
  for (const PhaseResult& p : phases) {
    for (const ConnStats& c : p.conns) {
      for (const std::string& e : c.errors) std::cout << "error: " << e << "\n";
    }
    if (!p.subscriber_error.empty()) {
      std::cout << "error: CDC subscriber: " << p.subscriber_error << "\n";
    }
    if (p.missing_records) {
      std::cout << "error: " << p.missing_records << " DML without CDC record\n";
    }
    if (p.unmatched_records) {
      std::cout << "error: " << p.unmatched_records << " CDC events without a sent DML\n";
    }
  }
  size_t population_bytes = 0;
  for (const auto& r : expected) population_bytes += r.ByteSize();
  std::cout << "distinct result population " << population_bytes << " B = "
            << Ratio(static_cast<double>(population_bytes),
                     static_cast<double>(spec.memory_budget_bytes))
            << " x the cache budget\n";
  for (const std::string& e : verdict.examples) std::cout << "wrong result: " << e << "\n";
  if (!hits_agree) {
    std::cout << "error: client-counted hits " << client_hits << " != server STATS hit delta "
              << server_hits << "\n";
  }
  std::cout << FormatRatio("oracle mismatches", static_cast<double>(verdict.mismatches),
                           static_cast<double>(verdict.checked))
            << "\n"
            << FormatRatio("error_rate", static_cast<double>(failed),
                           static_cast<double>(attempted))
            << "\n"
            << "hit cross-check: client " << client_hits << " server " << server_hits << "\n";

  const std::vector<Metric> metrics =
      args.trace ? PerLayerMetrics(args, spec, population, replay_streams, csv, untraced_windows,
                                   traced_windows, traced_delta, stats_end, wire_spans)
                 : EndToEndMetrics(untraced_windows, setup_s, client_hits, client_reads, ops,
                                   rss_mb);
  std::filesystem::remove_all(dir);
  std::cout << ResultJson(correct, attempted, failed, metrics) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Run(perfbench::ParseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "qcbench: " << e.what() << "\n";
    return 2;
  }
}
