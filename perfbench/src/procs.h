// qcached child processes: spawn, wait until listening, stop and reap.
// Children die with the benchmark (PR_SET_PDEATHSIG), and the owner's
// destructor kills and reaps whatever is still running, so no run leaves
// a server behind.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct ServerProc {
  std::string name;
  pid_t pid = -1;
  uint16_t port = 0;
};

class ProcessSet {
 public:
  /// `qcached` is the server binary; logs and port files go into `dir`.
  ProcessSet(std::string qcached, std::string dir)
      : qcached_(std::move(qcached)), dir_(std::move(dir)) {}
  ~ProcessSet();

  ProcessSet(const ProcessSet&) = delete;
  ProcessSet& operator=(const ProcessSet&) = delete;

  /// Start qcached with `flags` (plus --port-file/--quiet) and wait until
  /// it listens. `port` 0 lets the server pick one.
  ServerProc Start(const std::string& name, uint16_t port, std::vector<std::string> flags);

  /// SIGTERM every process (last started first) and reap it. Returns the
  /// summed peak resident set (VmHWM) of the processes in KiB. Throws if a
  /// process did not exit cleanly.
  long StopAll();

 private:
  std::string qcached_;
  std::string dir_;
  std::vector<ServerProc> procs_;
};

/// A loopback port that was free a moment ago (peers must know each
/// other's ports before any of them starts).
uint16_t PickFreePort();

}  // namespace perfbench
