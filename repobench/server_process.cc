#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

namespace repobench {

using bootleg::util::Status;
using bootleg::util::StatusOr;

namespace {

constexpr size_t kLogCap = 64 << 10;
constexpr char kListening[] = "listening on 127.0.0.1:";

double SecondsSince(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

/// fork + execv of `argv_s` (argv_s[0] is the binary) with stdin and, when
/// `stdout_fd` is -1, stdout on /dev/null; stderr goes to `stderr_fd`. The
/// child dies with the benchmark. Returns the pid, or -1.
pid_t Spawn(std::vector<std::string> argv_s, int stdout_fd, int stderr_fd) {
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int devnull = open("/dev/null", O_RDWR);
    if (devnull >= 0) {
      dup2(devnull, 0);
      dup2(stdout_fd >= 0 ? stdout_fd : devnull, 1);
    }
    dup2(stderr_fd, 2);
    execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

std::string Tail(const std::string& s, size_t n = 2048) {
  return s.size() > n ? s.substr(s.size() - n) : s;
}

}  // namespace

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    double timeout_s) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe2 failed");
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port");
  argv_s.push_back("0");
  // stdout to /dev/null so the benchmark's own stdout carries only its
  // report; stderr (the "listening on" line, then the log) to the pipe.
  const pid_t pid = Spawn(std::move(argv_s), -1, fds[1]);
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::IOError("fork failed");
  }
  close(fds[1]);

  std::unique_ptr<ServerProcess> proc(new ServerProcess());
  proc->pid_ = pid;
  proc->stderr_fd_ = fds[0];
  const auto start = std::chrono::steady_clock::now();
  std::string buf;
  while (proc->port_ == 0) {
    const double left = timeout_s - SecondsSince(start);
    if (left <= 0) break;
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left * 1000.0) + 1) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n <= 0) break;  // EOF: the child exited during start-up
    buf.append(chunk, static_cast<size_t>(n));
    const size_t at = buf.find(kListening);
    if (at != std::string::npos &&
        buf.find('\n', at) != std::string::npos) {
      proc->port_ = std::atoi(buf.c_str() + at + sizeof(kListening) - 1);
    }
  }
  proc->log_ = buf;
  if (proc->port_ <= 0) {
    proc->Stop(2.0);
    return Status::Unavailable("bootleg_serve did not start within " +
                               std::to_string(timeout_s) + " s: " + buf);
  }
  proc->drain_ = std::thread([p = proc.get()] { p->Drain(); });
  return proc;
}

void ServerProcess::Drain() {
  char chunk[4096];
  for (;;) {
    const ssize_t n = read(stderr_fd_, chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    std::lock_guard<std::mutex> lock(log_mu_);
    log_.append(chunk, static_cast<size_t>(n));
    if (log_.size() > kLogCap) log_.erase(0, log_.size() - kLogCap);
  }
}

double ServerProcess::CpuSeconds() const {
  // Sum of every live thread's on-CPU time (/proc/<pid>/task/*/schedstat,
  // first field, nanoseconds); the server's threads live as long as it does.
  double ns = 0.0;
  std::error_code ec;
  for (const auto& task : std::filesystem::directory_iterator(
           "/proc/" + std::to_string(pid_) + "/task", ec)) {
    FILE* f = std::fopen((task.path() / "schedstat").c_str(), "r");
    if (f == nullptr) continue;
    unsigned long long run_ns = 0;
    if (std::fscanf(f, "%llu", &run_ns) == 1) ns += static_cast<double>(run_ns);
    std::fclose(f);
  }
  return ns * 1e-9;
}

double ServerProcess::PeakRssMb() const {
  return pid_ > 0 ? repobench::PeakRssMb(std::to_string(pid_)) : 0.0;
}

std::string ServerProcess::stderr_tail() const {
  std::lock_guard<std::mutex> lock(log_mu_);
  return Tail(log_);
}

bool ServerProcess::Stop(double timeout_s) {
  bool clean = false;
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    const auto start = std::chrono::steady_clock::now();
    int status = 0;
    pid_t got = 0;
    while ((got = waitpid(pid_, &status, WNOHANG)) == 0 &&
           SecondsSince(start) < timeout_s) {
      usleep(2000);
    }
    if (got == 0) {
      kill(pid_, SIGKILL);
      got = waitpid(pid_, &status, 0);
    }
    clean = got == pid_ && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    pid_ = -1;
  }
  if (drain_.joinable()) drain_.join();  // EOF once the child is gone
  if (stderr_fd_ >= 0) {
    close(stderr_fd_);
    stderr_fd_ = -1;
  }
  return clean;
}

ServerProcess::~ServerProcess() { Stop(); }

StatusOr<std::string> RunToCompletion(const std::string& binary,
                                      const std::vector<std::string>& args,
                                      double timeout_s) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::IOError("pipe2 failed");
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  const pid_t pid = Spawn(std::move(argv_s), fds[1], fds[1]);
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    return Status::IOError("fork failed");
  }
  const auto start = std::chrono::steady_clock::now();
  std::string out;
  bool timed_out = false;
  for (;;) {
    const double left = timeout_s - SecondsSince(start);
    if (left <= 0) {
      timed_out = true;
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    if (poll(&p, 1, static_cast<int>(left * 1000.0) + 1) <= 0) continue;
    char chunk[4096];
    const ssize_t n = read(fds[0], chunk, sizeof(chunk));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // EOF: the child has exited
    out.append(chunk, static_cast<size_t>(n));
  }
  if (timed_out) kill(pid, SIGKILL);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  const std::string name = std::filesystem::path(binary).filename().string();
  if (timed_out) {
    return Status::Unavailable(name + " did not finish within " +
                               std::to_string(timeout_s) + " s: " + Tail(out));
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal(name + " failed: " + Tail(out));
  }
  return out;
}

double PeakRssMb(const std::string& proc) {
  FILE* f = std::fopen(("/proc/" + proc + "/status").c_str(), "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb / 1024.0;
}

}  // namespace repobench
