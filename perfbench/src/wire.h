// The closed-loop wire phase: three client connections, each sending its
// next operation only after the previous reply arrived (the paper's rule
// server threads waiting on JDBC), and one CDC subscriber connection that
// timestamps every invalidation record it receives. The subscriber loop
// runs on the calling thread, so the phase uses four threads and four
// connections in all (five connections when a relay-lag probe is set).
// A run calls it once per measurement window.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "ops.h"
#include "server/client.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

struct ConnStats {
  std::vector<double> read_us;      // every SELECT round trip
  std::vector<double> write_us;     // every DML round trip
  uint64_t ops = 0;
  uint64_t reads = 0;
  uint64_t hits = 0;
  uint64_t dmls = 0;
  uint64_t failures = 0;            // errors, BUSY, lost connections
  std::vector<std::string> dml_log; // acknowledged DML, in send order
  std::vector<std::string> errors;  // first few error messages
};

struct PhaseResult {
  std::vector<ConnStats> conns;
  std::vector<double> visible_us;    // DML send → its CDC record at the subscriber
  std::vector<double> relay_lag_us;  // record at the probe (storage node) → at the subscriber
  uint64_t unmatched_records = 0;    // CDC events no sent DML accounts for
  uint64_t missing_records = 0;      // acknowledged DML whose record never arrived
  std::string subscriber_error;      // set when the CDC stream broke
  double elapsed_s = 0;

  uint64_t Ops() const;
  uint64_t Failures() const;
};

/// Run the closed loop for `seconds`. `clients[i]` executes `streams[i]`;
/// `subscriber` must already be subscribed to the CDC stream, and so must
/// `relay_probe` when given. With `spans` (one log per connection), every
/// QcClient call is recorded as a span.
PhaseResult RunClosedLoop(std::vector<qc::server::QcClient>& clients,
                          std::vector<OpStream>& streams,
                          const std::vector<QueryInstance>& population,
                          qc::server::QcClient& subscriber, qc::server::QcClient* relay_probe,
                          double seconds, std::vector<SpanLog>* spans);

}  // namespace perfbench
