#include "procs.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <fstream>
#include <thread>

#include "common/error.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;

pid_t Spawn(const std::vector<std::string>& args, const std::string& log_path) {
  std::vector<std::string> owned = args;
  std::vector<char*> argv;
  for (std::string& a : owned) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid < 0) throw qc::Error("fork failed");
  if (pid == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(126);
    const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  return pid;
}

// Wait for `pid` up to `timeout`; returns true and fills status/usage when
// it exited.
bool Reap(pid_t pid, std::chrono::milliseconds timeout, int& status, rusage& usage) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const pid_t r = ::wait4(pid, &status, WNOHANG, &usage);
    if (r == pid) return true;
    if (r < 0) throw qc::Error("wait4 failed");
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(2ms);
  }
}

}  // namespace

ServerProc ProcessSet::Start(const std::string& name, uint16_t port,
                              std::vector<std::string> flags) {
  const std::string port_file = dir_ + "/" + name + ".port";
  ::unlink(port_file.c_str());
  std::vector<std::string> args = {qcached_, "--port", std::to_string(port), "--port-file",
                                   port_file, "--quiet"};
  args.insert(args.end(), flags.begin(), flags.end());
  ServerProc proc{name, Spawn(args, dir_ + "/" + name + ".log"), 0};
  procs_.push_back(proc);

  const auto deadline = std::chrono::steady_clock::now() + 30s;
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(port_file);
    int bound = 0;
    if (in && (in >> bound) && bound > 0) {
      procs_.back().port = static_cast<uint16_t>(bound);
      return procs_.back();
    }
    int status = 0;
    if (::waitpid(proc.pid, &status, WNOHANG) == proc.pid) {
      procs_.pop_back();
      throw qc::Error("qcached " + name + " exited during start-up (see " + dir_ + "/" + name +
                      ".log)");
    }
    std::this_thread::sleep_for(1ms);
  }
  throw qc::Error("qcached " + name + " did not start listening");
}

long ProcessSet::StopAll() {
  long rss_kib = 0;
  std::string failure;
  while (!procs_.empty()) {
    const ServerProc proc = procs_.back();
    procs_.pop_back();
    ::kill(proc.pid, SIGTERM);
    int status = 0;
    rusage usage{};
    if (!Reap(proc.pid, 20s, status, usage)) {
      ::kill(proc.pid, SIGKILL);
      Reap(proc.pid, 5s, status, usage);
      failure = "qcached " + proc.name + " did not drain on SIGTERM";
      continue;
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      failure = "qcached " + proc.name + " exited with status " + std::to_string(status);
    }
    rss_kib += usage.ru_maxrss;
  }
  if (!failure.empty()) throw qc::Error(failure);
  return rss_kib;
}

ProcessSet::~ProcessSet() {
  for (const ServerProc& proc : procs_) ::kill(proc.pid, SIGKILL);
  for (const ServerProc& proc : procs_) {
    int status = 0;
    ::waitpid(proc.pid, &status, 0);
  }
}

uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw qc::Error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw qc::Error("bind failed");
  }
  socklen_t len = sizeof(addr);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  ::close(fd);
  return ntohs(addr.sin_port);
}

}  // namespace perfbench
