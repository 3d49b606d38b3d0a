#ifndef BOOTLEG_NET_FRONT_END_H_
#define BOOTLEG_NET_FRONT_END_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/event_loop.h"
#include "util/status.h"

namespace bootleg::net {

class Acceptor;
class Connection;

/// Tuning knobs for the epoll front end. Every buffer is hard-bounded: a
/// hostile or slow client can cost at most max_line_bytes of read buffer
/// plus write_buf_bytes of reply buffer before it is disconnected.
struct FrontEndOptions {
  int port = 0;            // loopback TCP port; 0 = ephemeral
  int io_threads = 1;      // event loops; loop 0 also owns the listener
  int max_conns = 4096;    // accepted connections beyond this are refused
  size_t max_line_bytes = 1 << 20;   // one request line, newline excluded
  size_t write_buf_bytes = 4 << 20;  // buffered unread replies per connection
  int max_inflight_per_conn = 64;    // pipelined requests awaiting replies
  int accept_backoff_initial_ms = 10;   // EMFILE/ENFILE pause, doubles...
  int accept_backoff_max_ms = 1000;     // ...up to this ceiling
  int listen_backlog = 1024;
  /// Idle-connection reaper: a connection with no socket activity and no
  /// request in flight for this long is disconnected and counted in
  /// FrontEndStats::idle_disconnects. 0 disables the reaper.
  int idle_timeout_ms = 0;
};

/// Transport-level identity of the remote end of a connection, captured once
/// at accept time. The protocol layer uses it to gate admin operations
/// (add_entity is loopback-only); stdio and in-process test transports count
/// as loopback by construction.
struct PeerInfo {
  bool loopback = false;  // peer address is in 127.0.0.0/8
  std::string address;    // dotted quad, for structured error replies / logs
};

/// Replies the transport issues on its own behalf, before the protocol
/// handler ever sees the bytes. The handler renders them so the wire format
/// stays a protocol decision.
enum class TransportError {
  kLineTooLong,      // request line exceeded max_line_bytes; conn will close
  kTooManyInflight,  // per-connection pipelining cap hit; request dropped
  kServerFull,       // max_conns reached; sent best-effort before refusing
};

/// Protocol layer seen by the transport. Implementations must be
/// thread-safe: lines arrive on any I/O thread.
class LineHandler {
 public:
  virtual ~LineHandler() = default;

  /// Completion for one request line; carries the reply line (no trailing
  /// newline). Thread-safe, may be invoked from any thread, exactly once.
  /// Invoking it after the client disconnected is safe (the reply is
  /// dropped).
  using Done = std::function<void(std::string reply)>;

  /// Handles one framed request line. MUST NOT block the calling I/O
  /// thread on slow work — hand off and invoke `done` later instead.
  /// Calling `done` synchronously is allowed (cheap inline ops).
  virtual void HandleLineAsync(std::string line, Done done) = 0;

  /// Peer-aware variant the transport actually calls: carries where the
  /// request came from so the protocol can authorize per-peer (admin ops).
  /// Default forwards to HandleLineAsync, so peer-agnostic handlers need not
  /// care.
  virtual void HandleLineFrom(std::string line, const PeerInfo& peer,
                              Done done) {
    (void)peer;
    HandleLineAsync(std::move(line), std::move(done));
  }

  /// Renders a transport-originated error as one reply line.
  virtual std::string TransportErrorReply(TransportError error) = 0;
};

/// Monotonic transport counters plus the active-connection gauge, readable
/// at any time (relaxed atomics; consistency is per-field).
struct FrontEndStats {
  int64_t accepted = 0;
  int64_t active_connections = 0;
  int64_t rejected_connections = 0;     // refused at max_conns
  int64_t accept_errors = 0;            // transient accept failures survived
  int64_t overlong_line_disconnects = 0;
  int64_t slow_client_disconnects = 0;  // write buffer cap exceeded
  int64_t idle_disconnects = 0;         // reaped by the idle timeout
};

/// Epoll-based newline-framed TCP front end.
///
/// A handful of I/O threads own thousands of non-blocking loopback
/// connections with edge-triggered readiness. Loop 0 additionally owns the
/// listener and hands accepted fds to the loops round-robin. Each
/// connection frames newline-delimited request lines out of a bounded read
/// buffer, dispatches them to the LineHandler, and writes replies back in
/// request order (pipelining-safe) through a bounded write buffer. Nothing
/// on an I/O thread ever blocks:
///
///   - a client streaming bytes with no newline is cut off at
///     max_line_bytes with a structured error reply, then disconnected;
///   - a client that stops reading its replies accumulates at most
///     write_buf_bytes of buffered output, then is disconnected;
///   - a failed send() tears the connection down immediately — no compute
///     is spent on replies that can never be delivered;
///   - transient accept() failures (EMFILE/ENFILE/ENOBUFS/ENOMEM) pause the
///     listener with exponential backoff instead of killing it.
class FrontEnd {
 public:
  FrontEnd(FrontEndOptions options, LineHandler* handler);
  ~FrontEnd();

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds 127.0.0.1:options.port, spawns the I/O threads, starts
  /// accepting. Signals commonly handled on a serving main thread (SIGHUP,
  /// SIGINT, SIGTERM) are blocked in the I/O threads so process-directed
  /// delivery keeps landing where the application handles it.
  util::Status Start();

  /// Actual bound port (after Start with port 0).
  int port() const { return port_; }

  /// Closes the listener and every connection, stops and joins the I/O
  /// threads. In-flight handler completions become no-ops. Idempotent.
  void Stop();

  FrontEndStats stats() const;

 private:
  friend class Connection;
  friend class Acceptor;
  struct Loop;

  void HandleAccept();
  void AcceptPause(int listen_fd);
  void AdoptConnection(Loop* loop, int fd);
  /// Loop-thread-only: arms the recurring idle sweep for one loop.
  void ScheduleIdleSweep(Loop* loop);
  /// Loop-thread-only: reaps this loop's connections idle past the timeout.
  void SweepIdle(Loop* loop);

  const FrontEndOptions options_;
  LineHandler* const handler_;

  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;
  // Set by Stop() on the caller's thread, read by the loop threads' accept
  // and idle-sweep callbacks.
  std::atomic<bool> stopped_{false};

  std::vector<std::unique_ptr<Loop>> loops_;
  std::vector<std::thread> threads_;
  size_t next_loop_ = 0;  // round-robin target for accepted fds (loop 0 only)
  std::unique_ptr<Acceptor> acceptor_;
  int accept_backoff_ms_ = 0;  // 0 = not currently backing off

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> active_conns_{0};
  std::atomic<int64_t> rejected_conns_{0};
  std::atomic<int64_t> accept_errors_{0};
  std::atomic<int64_t> overlong_disconnects_{0};
  std::atomic<int64_t> slow_disconnects_{0};
  std::atomic<int64_t> idle_disconnects_{0};
};

}  // namespace bootleg::net

#endif  // BOOTLEG_NET_FRONT_END_H_
