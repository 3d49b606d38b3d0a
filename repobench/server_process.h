#ifndef REPOBENCH_SERVER_PROCESS_H_
#define REPOBENCH_SERVER_PROCESS_H_

#include <sys/types.h>

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/status.h"

namespace repobench {

/// One `bootleg_serve` child on an ephemeral port. Start() forks and execs
/// the binary with `--port 0`, reads its stderr until the "listening on
/// 127.0.0.1:PORT" line, and keeps draining stderr on a thread so the child
/// never blocks on a full pipe. The child is reaped on every path: Stop()
/// (SIGTERM, then SIGKILL after a timeout), the destructor, and — should the
/// benchmark itself die — PR_SET_PDEATHSIG in the child.
class ServerProcess {
 public:
  static bootleg::util::StatusOr<std::unique_ptr<ServerProcess>> Start(
      const std::string& binary, const std::vector<std::string>& args,
      double timeout_s);
  ~ServerProcess();

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }

  /// SIGTERM, wait up to `timeout_s`, then SIGKILL; reaps the child and
  /// joins the stderr drain. Returns true if it exited 0 on SIGTERM.
  /// Idempotent.
  bool Stop(double timeout_s = 10.0);
  /// Peak resident set (VmHWM) of the running child so far, in MiB.
  double PeakRssMb() const;
  /// On-CPU time of the running child's threads so far, in seconds; time
  /// the hypervisor stole is not charged to it.
  double CpuSeconds() const;
  /// Last bytes the child wrote to stderr (for error messages).
  std::string stderr_tail() const;

 private:
  ServerProcess() = default;
  void Drain();

  pid_t pid_ = -1;
  int port_ = 0;
  int stderr_fd_ = -1;
  mutable std::mutex log_mu_;
  std::string log_;  // guarded by log_mu_
  std::thread drain_;
};

/// Runs `binary args...` to completion with its stdout and stderr captured
/// (the benchmark's own stdout carries only its report) and returns what it
/// wrote. Fails, with the output's tail, on a non-zero exit; kills it after
/// `timeout_s`. The child dies with the benchmark (PR_SET_PDEATHSIG).
bootleg::util::StatusOr<std::string> RunToCompletion(
    const std::string& binary, const std::vector<std::string>& args,
    double timeout_s);

/// VmHWM of /proc/<proc>/status ("self" or a pid) in MiB; 0 if unreadable.
double PeakRssMb(const std::string& proc);

}  // namespace repobench

#endif  // REPOBENCH_SERVER_PROCESS_H_
