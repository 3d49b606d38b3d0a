#ifndef REPOBENCH_LOADGEN_H_
#define REPOBENCH_LOADGEN_H_

// Load generator for the serving workloads: one thread, one epoll set, a few
// pipelined newline-JSON connections to one bootleg_serve. Open-loop phases
// send on a fixed schedule regardless of replies (latency is timed from the
// scheduled send, so a stall also charges the requests queued behind it);
// closed-loop phases keep a fixed number of requests in flight per
// connection. The last connection is the control connection: it carries the
// optional add_entity writer and blocking control calls (health, stats).

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "accounting.h"
#include "util/status.h"

namespace repobench {

/// One request line (no trailing newline) and the sentences it carries.
struct Request {
  std::string line;
  int64_t sentences = 1;
};

/// Judges a read reply against the oracle; `key` indexes the request list.
using ReplyChecker = std::function<Outcome(size_t key, const std::string&)>;

/// Add-entity stream on the control connection: the k-th add is sent on an
/// open-loop schedule; when its reply arrives, a read of its alias follows.
/// Both replies are judged; the tally's latencies are the adds'.
struct Writer {
  double rate = 0.0;  // adds per second; 0 disables
  std::function<std::string(int64_t k)> add_line;
  std::function<std::string(int64_t k)> read_line;
  std::function<Outcome(int64_t k, const std::string&)> check_add;
  std::function<Outcome(int64_t k, const std::string&)> check_read;
  int64_t next = 0;     // adds sent so far, across phases
  double credit = 0.0;  // fractional add carried into the next phase
  PhaseTally tally;  // adds and read-backs, across phases
};

struct PhaseSpec {
  std::string name;
  double seconds = 1.0;
  double rate = 0.0;     // open loop: requests/s over all read connections
  int outstanding = 0;   // closed loop (rate 0): in flight per connection
  double latency_limit_ms = 1e9;  // goodput limit
  double stall_s = 10.0;  // fail if nothing arrives this long while waiting
};

class LoadClient {
 public:
  /// Opens `read_conns` read connections plus the control connection.
  static bootleg::util::StatusOr<std::unique_ptr<LoadClient>> Connect(
      int port, int read_conns);
  ~LoadClient();

  LoadClient(const LoadClient&) = delete;
  LoadClient& operator=(const LoadClient&) = delete;

  /// Runs one phase over `requests` (rotating from where the last phase
  /// stopped) and, if non-null, the writer. Fails on a stall or a lost
  /// connection; every judged reply is in the tally either way.
  bootleg::util::Status Run(const PhaseSpec& spec,
                            const std::vector<Request>& requests,
                            const ReplyChecker& check, Writer* writer,
                            PhaseTally* tally);

  /// Blocking request/reply on the control connection between phases.
  bootleg::util::StatusOr<std::string> Call(const std::string& line,
                                            double timeout_s);

 private:
  enum class Kind { kRead, kAdd, kReadBack, kCall };
  struct Pending {
    Kind kind = Kind::kRead;
    int64_t key = 0;
    int64_t sched_ns = 0;
  };
  struct Conn {
    int fd = -1;
    std::string in;
    std::string out;
    bool want_out = false;
    std::deque<Pending> pending;
  };

  LoadClient() = default;
  void Send(size_t conn, const std::string& line, Pending p);
  bootleg::util::Status Flush(size_t conn);
  /// Reads what is available on `conn` and hands each complete line to
  /// `on_line`. Returns an error if the peer closed or failed.
  bootleg::util::Status Receive(
      size_t conn, const std::function<void(Pending, std::string)>& on_line);
  size_t control() const { return conns_.size() - 1; }

  int epoll_fd_ = -1;
  std::vector<Conn> conns_;
  size_t cursor_ = 0;  // next request index, across phases
};

/// Monotonic clock in nanoseconds.
int64_t NowNs();

}  // namespace repobench

#endif  // REPOBENCH_LOADGEN_H_
