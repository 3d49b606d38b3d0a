#include "net/front_end.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#include "util/logging.h"

namespace bootleg::net {

namespace {

/// Read chunk size and the per-dispatch read budget. Edge-triggered sockets
/// must be drained to EAGAIN before the next edge fires, but one connection
/// with an infinite appetite must not starve its loop siblings — after
/// kReadRoundsPerEvent chunks the connection reposts itself and yields.
constexpr size_t kReadChunk = 64 * 1024;
constexpr int kReadRoundsPerEvent = 16;

/// Compact the write buffer once this many consumed bytes accumulate.
constexpr size_t kWriteCompactBytes = 256 * 1024;

/// Upper bound on iovec entries per coalesced writev (well under IOV_MAX;
/// each reply costs two entries — text and newline — plus one for the
/// buffered backlog).
constexpr int kMaxIovPerFlush = 64;

int64_t MonotonicMs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000 + ts.tv_nsec / 1000000;
}

}  // namespace

struct FrontEnd::Loop {
  EventLoop el;
  // Loop-thread-only: connections owned by this loop, keyed by fd.
  std::unordered_map<int, std::shared_ptr<class Connection>> conns;
};

/// Listener-readiness handler; all logic lives in FrontEnd::HandleAccept.
class Acceptor : public FdHandler {
 public:
  explicit Acceptor(FrontEnd* fe) : fe_(fe) {}
  void OnEvents(uint32_t) override { fe_->HandleAccept(); }

 private:
  FrontEnd* const fe_;
};

/// One non-blocking connection owned by one event loop. Every member is
/// loop-thread-only; cross-thread reply completions re-enter through
/// EventLoop::Post with a weak_ptr, so a torn-down connection simply drops
/// late replies.
class Connection : public FdHandler,
                   public std::enable_shared_from_this<Connection> {
 public:
  Connection(FrontEnd* fe, FrontEnd::Loop* loop, int fd, PeerInfo peer)
      : fe_(fe),
        loop_(loop),
        fd_(fd),
        peer_(std::move(peer)),
        last_activity_ms_(MonotonicMs()) {}

  void OnEvents(uint32_t events) override {
    // Keep *this alive across teardown paths triggered below.
    const std::shared_ptr<Connection> self = shared_from_this();
    if ((events & (EPOLLHUP | EPOLLERR)) != 0) {
      Close();
      return;
    }
    if ((events & EPOLLIN) != 0) ReadAll();
    if (!dead_ && (events & EPOLLOUT) != 0) {
      TryWrite();
      if (!dead_) MaybeCloseAfterDrain();
    }
  }

  /// Resumes reading after a yielded read budget (posted continuation).
  void ResumeRead() {
    const std::shared_ptr<Connection> self = shared_from_this();
    if (!dead_) ReadAll();
  }

  /// Fills the reply slot for request `seq` and schedules a coalesced flush.
  /// Loop-thread-only (Post from elsewhere). Completions landing in the same
  /// event-loop pass share one flush — and one writev — instead of issuing a
  /// syscall apiece.
  void Complete(uint64_t seq, std::string reply) {
    if (dead_) return;
    const uint64_t idx = seq - base_seq_;
    if (idx >= slots_.size()) return;
    Slot& slot = slots_[static_cast<size_t>(idx)];
    if (slot.ready) return;  // double completion — first one wins
    slot.ready = true;
    slot.text = std::move(reply);
    ready_bytes_ += slot.text.size() + 1;
    --inflight_;
    FlushOrSchedule();
  }

  /// True when the idle reaper should disconnect this connection: no reply
  /// owed, neither in flight (a slow batch is not the client's fault) nor
  /// completed and waiting for its posted flush, and no socket activity for
  /// `timeout_ms`.
  bool ReapableAt(int64_t now_ms, int64_t timeout_ms) const {
    return !dead_ && slots_.empty() && now_ms - last_activity_ms_ >= timeout_ms;
  }

  /// Immediate teardown: removes the fd from epoll, closes it, and drops
  /// the connection from its loop. Safe to call repeatedly.
  void Close() {
    if (dead_) return;
    dead_ = true;
    loop_->el.DelFd(fd_, this);
    ::close(fd_);
    fe_->active_conns_.fetch_sub(1, std::memory_order_relaxed);
    loop_->conns.erase(fd_);  // may release the last owning reference
  }

 private:
  /// One pipelined request's reply slot; replies flush strictly in request
  /// order, so responses on a connection always match request order.
  struct Slot {
    bool ready = false;
    std::string text;
  };

  void ReadAll() {
    char buf[kReadChunk];
    int rounds = 0;
    while (!dead_ && !closing_ && !read_closed_) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
      if (n > 0) {
        last_activity_ms_ = MonotonicMs();
        rbuf_.append(buf, static_cast<size_t>(n));
        ProcessReadBuffer();
        if (dead_ || closing_) break;
        if (++rounds >= kReadRoundsPerEvent) {
          // Yield to loop siblings; re-enter via a posted continuation so
          // the edge we have not drained is not lost.
          std::weak_ptr<Connection> weak = weak_from_this();
          loop_->el.Post([weak] {
            if (auto c = weak.lock()) c->ResumeRead();
          });
          return;
        }
        continue;
      }
      if (n == 0) {
        // Peer half-closed: no more requests, but replies still in flight
        // are delivered before the connection closes.
        read_closed_ = true;
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      Close();  // ECONNRESET and friends
      return;
    }
    if (!dead_) MaybeCloseAfterDrain();
  }

  /// Frames complete lines out of rbuf_ and dispatches them. Enforces the
  /// line-length cap on both complete and still-unterminated lines.
  void ProcessReadBuffer() {
    size_t start = 0;
    while (!dead_ && !closing_) {
      const size_t nl = rbuf_.find('\n', std::max(start, scan_pos_));
      if (nl == std::string::npos) break;
      std::string line = rbuf_.substr(start, nl - start);
      start = nl + 1;
      scan_pos_ = start;
      if (!line.empty() && line.back() == '\r') line.pop_back();
      if (line.size() > fe_->options_.max_line_bytes) {
        OverlongLine();
        break;
      }
      if (line.empty()) continue;
      Dispatch(std::move(line));
    }
    if (dead_) return;
    if (start > 0) {
      rbuf_.erase(0, start);
      scan_pos_ = rbuf_.size();
    } else {
      scan_pos_ = rbuf_.size();
    }
    if (!closing_ && rbuf_.size() > fe_->options_.max_line_bytes) {
      // A line with no newline in sight has outgrown the cap (slowloris or
      // a runaway client): structured error, then disconnect.
      OverlongLine();
    }
  }

  void OverlongLine() {
    fe_->overlong_disconnects_.fetch_add(1, std::memory_order_relaxed);
    PushTransportReply(
        fe_->handler_->TransportErrorReply(TransportError::kLineTooLong));
    rbuf_.clear();
    scan_pos_ = 0;
    closing_ = true;      // stop framing; close once the reply drains
    read_closed_ = true;  // stop reading from the socket entirely
    ScheduleFlush();
  }

  void Dispatch(std::string line) {
    if (inflight_ >= fe_->options_.max_inflight_per_conn) {
      // Fairness cap: one connection cannot monopolize the batcher by
      // pipelining without bound. The offending request is answered (in
      // order) with a structured reject; the connection survives.
      PushTransportReply(
          fe_->handler_->TransportErrorReply(TransportError::kTooManyInflight));
      FlushOrSchedule();
      return;
    }
    const uint64_t seq = next_seq_++;
    slots_.emplace_back();
    ++inflight_;
    std::weak_ptr<Connection> weak = weak_from_this();
    EventLoop* el = &loop_->el;
    fe_->handler_->HandleLineFrom(
        std::move(line), peer_, [weak, el, seq](std::string reply) {
          if (el->InLoopThread()) {
            // Synchronous completion (cheap inline ops): skip the wakeup.
            if (auto c = weak.lock()) c->Complete(seq, std::move(reply));
            return;
          }
          el->Post([weak, seq, r = std::move(reply)]() mutable {
            if (auto c = weak.lock()) c->Complete(seq, std::move(r));
          });
        });
  }

  /// Appends a transport-originated reply as an already-ready slot so it
  /// serializes correctly with pending pipelined replies. Consumes a
  /// sequence number like any other slot: seq and deque position must stay
  /// in lockstep or later completions would index the wrong slot.
  void PushTransportReply(std::string text) {
    next_seq_++;
    Slot slot;
    slot.ready = true;
    slot.text = std::move(text);
    ready_bytes_ += slot.text.size() + 1;
    slots_.push_back(std::move(slot));
  }

  /// Schedules a coalesced flush — or flushes immediately once a full write
  /// cap's worth of reply bytes is waiting in ready slots. Without the
  /// inline path, a client that firehoses requests and never reads its
  /// replies accumulates them in slots_ faster than the posted pass drains
  /// them, and the write cap (which only sees wbuf_) never trips.
  void FlushOrSchedule() {
    if (ready_bytes_ > fe_->options_.write_buf_bytes) {
      FlushReadySlots();
      return;
    }
    ScheduleFlush();
  }

  /// Defers FlushReadySlots to a posted continuation so every reply that
  /// becomes ready during the current event-loop pass rides the same writev.
  /// Idempotent per pass: the first caller posts, the rest piggyback.
  void ScheduleFlush() {
    if (dead_ || flush_scheduled_) return;
    flush_scheduled_ = true;
    std::weak_ptr<Connection> weak = weak_from_this();
    loop_->el.Post([weak] {
      if (auto c = weak.lock()) c->FlushReadySlots();
    });
  }

  void FlushReadySlots() {
    flush_scheduled_ = false;
    if (dead_) return;
    // Pop the contiguous ready prefix; replies stay in request order.
    std::vector<std::string> ready;
    while (!slots_.empty() && slots_.front().ready) {
      ready_bytes_ -= slots_.front().text.size() + 1;
      ready.push_back(std::move(slots_.front().text));
      slots_.pop_front();
      ++base_seq_;
    }
    WriteCoalesced(ready);
    if (dead_) return;
    if (wbuf_.size() - woff_ > fe_->options_.write_buf_bytes) {
      // The client is not reading its replies; holding more than the cap
      // hostage would let slow clients exhaust server memory.
      fe_->slow_disconnects_.fetch_add(1, std::memory_order_relaxed);
      Close();
      return;
    }
    MaybeCloseAfterDrain();
  }

  /// Sends the buffered backlog plus this pass's ready replies with a single
  /// writev per kernel round trip — no per-reply send, and reply bytes are
  /// copied only if the kernel leaves them unsent (they then join wbuf_ for
  /// the EPOLLOUT-driven TryWrite path).
  void WriteCoalesced(const std::vector<std::string>& ready) {
    static const char kNewline = '\n';
    // Cursor over the logical [backlog | reply, newline, reply, ...] stream:
    // replies before `idx` are fully sent; `part` bytes of ready[idx] plus
    // its newline are already sent. Each writev advances the cursor, so the
    // whole flush is O(bytes) no matter how many replies are pending.
    size_t idx = 0;
    size_t part = 0;
    while (woff_ < wbuf_.size() || idx < ready.size()) {
      struct iovec iov[kMaxIovPerFlush];
      int iovcnt = 0;
      if (woff_ < wbuf_.size()) {
        iov[iovcnt].iov_base = const_cast<char*>(wbuf_.data() + woff_);
        iov[iovcnt].iov_len = wbuf_.size() - woff_;
        ++iovcnt;
      }
      size_t j = idx;
      size_t jpart = part;
      while (j < ready.size() && iovcnt + 2 <= kMaxIovPerFlush) {
        const std::string& t = ready[j];
        if (jpart < t.size()) {
          iov[iovcnt].iov_base = const_cast<char*>(t.data() + jpart);
          iov[iovcnt].iov_len = t.size() - jpart;
          ++iovcnt;
        }
        iov[iovcnt].iov_base = const_cast<char*>(&kNewline);
        iov[iovcnt].iov_len = 1;
        ++iovcnt;
        ++j;
        jpart = 0;
      }
      const ssize_t n = ::writev(fd_, iov, iovcnt);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n <= 0) {
        // A dead peer: tear down now instead of reading and computing
        // replies that can never be delivered.
        Close();
        return;
      }
      last_activity_ms_ = MonotonicMs();
      size_t left = static_cast<size_t>(n);
      const size_t backlog = wbuf_.size() - woff_;
      const size_t from_backlog = left < backlog ? left : backlog;
      woff_ += from_backlog;
      left -= from_backlog;
      while (left > 0) {
        const size_t remain = ready[idx].size() + 1 - part;
        if (left >= remain) {
          left -= remain;
          ++idx;
          part = 0;
        } else {
          part += left;
          left = 0;
        }
      }
    }

    // Whatever the kernel did not take is appended to wbuf_ byte-exactly.
    for (size_t k = idx; k < ready.size(); ++k) {
      const std::string& t = ready[k];
      const size_t p = k == idx ? part : 0;
      if (p <= t.size()) {
        wbuf_.append(t, p, std::string::npos);
        wbuf_ += '\n';
      }
    }
    if (woff_ == wbuf_.size()) {
      wbuf_.clear();
      woff_ = 0;
    } else if (woff_ > kWriteCompactBytes) {
      wbuf_.erase(0, woff_);
      woff_ = 0;
    }
  }

  void TryWrite() {
    while (woff_ < wbuf_.size()) {
      const ssize_t n = ::send(fd_, wbuf_.data() + woff_, wbuf_.size() - woff_,
                               MSG_NOSIGNAL);
      if (n > 0) {
        woff_ += static_cast<size_t>(n);
        last_activity_ms_ = MonotonicMs();
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      if (n < 0 && errno == EINTR) continue;
      // A dead peer: tear down now instead of reading and computing replies
      // that can never be delivered.
      Close();
      return;
    }
    if (woff_ == wbuf_.size()) {
      wbuf_.clear();
      woff_ = 0;
    } else if (woff_ > kWriteCompactBytes) {
      wbuf_.erase(0, woff_);
      woff_ = 0;
    }
  }

  void MaybeCloseAfterDrain() {
    if ((closing_ || read_closed_) && slots_.empty() && woff_ == wbuf_.size()) {
      Close();
    }
  }

  FrontEnd* const fe_;
  FrontEnd::Loop* const loop_;
  const int fd_;
  const PeerInfo peer_;
  int64_t last_activity_ms_;     // CLOCK_MONOTONIC ms of last socket I/O
  bool flush_scheduled_ = false;  // a posted FlushReadySlots is pending
  size_t ready_bytes_ = 0;        // reply bytes held in ready slots

  std::string rbuf_;
  size_t scan_pos_ = 0;  // rbuf_ prefix already scanned for '\n'

  std::string wbuf_;
  size_t woff_ = 0;  // bytes of wbuf_ already sent

  std::deque<Slot> slots_;   // replies for requests [base_seq_, next_seq_)
  uint64_t base_seq_ = 0;
  uint64_t next_seq_ = 0;
  int inflight_ = 0;  // dispatched requests whose reply has not arrived

  bool read_closed_ = false;  // peer EOF (or transport error stopped reads)
  bool closing_ = false;      // flush pending replies, then close
  bool dead_ = false;
};

FrontEnd::FrontEnd(FrontEndOptions options, LineHandler* handler)
    : options_(std::move(options)), handler_(handler) {
  BOOTLEG_CHECK(handler_ != nullptr);
}

FrontEnd::~FrontEnd() {
  Stop();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

util::Status FrontEnd::Start() {
  BOOTLEG_CHECK_MSG(!started_, "FrontEnd::Start called twice");
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    return util::Status::Internal(std::string("socket: ") +
                                  std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::Internal(
        "bind 127.0.0.1:" + std::to_string(options_.port) + ": " + err);
  }
  if (::listen(listen_fd_, options_.listen_backlog) < 0) {
    const std::string err = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    return util::Status::Internal("listen: " + err);
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) ==
      0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }

  const int nloops = options_.io_threads < 1 ? 1 : options_.io_threads;
  loops_.reserve(static_cast<size_t>(nloops));
  for (int i = 0; i < nloops; ++i) {
    auto loop = std::make_unique<Loop>();
    const util::Status st = loop->el.Init();
    if (!st.ok()) {
      ::close(listen_fd_);
      listen_fd_ = -1;
      loops_.clear();
      return st;
    }
    loops_.push_back(std::move(loop));
  }
  acceptor_ = std::make_unique<Acceptor>(this);
  const util::Status st =
      loops_[0]->el.AddFd(listen_fd_, EPOLLIN | EPOLLET, acceptor_.get());
  if (!st.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    loops_.clear();
    return st;
  }

  // I/O threads inherit a mask with the serving signals blocked, so
  // process-directed SIGHUP/SIGTERM keep landing on the application's main
  // thread (which sigwaits/sigsuspends for them) instead of a random loop.
  sigset_t block, old;
  sigemptyset(&block);
  sigaddset(&block, SIGHUP);
  sigaddset(&block, SIGINT);
  sigaddset(&block, SIGTERM);
  sigaddset(&block, SIGPIPE);
  pthread_sigmask(SIG_BLOCK, &block, &old);
  threads_.reserve(loops_.size());
  for (auto& loop : loops_) {
    threads_.emplace_back([l = loop.get()] { l->el.Run(); });
  }
  pthread_sigmask(SIG_SETMASK, &old, nullptr);

  // Arm the idle reaper on each loop's own thread (RunAfter is
  // loop-thread-only).
  if (options_.idle_timeout_ms > 0) {
    for (auto& loop : loops_) {
      Loop* l = loop.get();
      l->el.Post([this, l] { ScheduleIdleSweep(l); });
    }
  }

  started_ = true;
  return util::Status::OK();
}

void FrontEnd::Stop() {
  if (!started_ || stopped_) return;
  stopped_ = true;
  // Tear the listener out first so no new connections race the shutdown,
  // then close every connection on its owning loop thread.
  loops_[0]->el.Post(
      [this] { loops_[0]->el.DelFd(listen_fd_, acceptor_.get()); });
  for (auto& loop : loops_) {
    Loop* l = loop.get();
    l->el.Post([l] {
      std::vector<std::shared_ptr<Connection>> conns;
      conns.reserve(l->conns.size());
      for (auto& [fd, conn] : l->conns) conns.push_back(conn);
      for (auto& conn : conns) conn->Close();
    });
    l->el.Stop();
  }
  for (std::thread& t : threads_) t.join();
  threads_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

FrontEndStats FrontEnd::stats() const {
  FrontEndStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.active_connections = active_conns_.load(std::memory_order_relaxed);
  s.rejected_connections = rejected_conns_.load(std::memory_order_relaxed);
  s.accept_errors = accept_errors_.load(std::memory_order_relaxed);
  s.overlong_line_disconnects =
      overlong_disconnects_.load(std::memory_order_relaxed);
  s.slow_client_disconnects = slow_disconnects_.load(std::memory_order_relaxed);
  s.idle_disconnects = idle_disconnects_.load(std::memory_order_relaxed);
  return s;
}

void FrontEnd::HandleAccept() {
  while (true) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd >= 0) {
      accept_backoff_ms_ = 0;  // forward progress resets the backoff ladder
      accepted_.fetch_add(1, std::memory_order_relaxed);
      if (active_conns_.load(std::memory_order_relaxed) >=
          options_.max_conns) {
        rejected_conns_.fetch_add(1, std::memory_order_relaxed);
        // Best-effort structured refusal: a fresh socket's send buffer is
        // empty, so this short line goes out without blocking.
        const std::string reply =
            handler_->TransportErrorReply(TransportError::kServerFull) + "\n";
        [[maybe_unused]] const ssize_t n =
            ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
        ::close(fd);
        continue;
      }
      active_conns_.fetch_add(1, std::memory_order_relaxed);
      Loop* target = loops_[next_loop_ % loops_.size()].get();
      ++next_loop_;
      if (target == loops_[0].get()) {
        AdoptConnection(target, fd);
      } else {
        target->el.Post([this, target, fd] { AdoptConnection(target, fd); });
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR || errno == ECONNABORTED) continue;
    // EMFILE/ENFILE/ENOBUFS/ENOMEM and anything unexpected: the listener
    // must survive. Pause accepting with exponential backoff; queued
    // connections wait in the backlog.
    accept_errors_.fetch_add(1, std::memory_order_relaxed);
    BOOTLEG_LOG(Warning) << "accept failed (" << std::strerror(errno)
                         << "); pausing accepts";
    AcceptPause(listen_fd_);
    return;
  }
}

void FrontEnd::AcceptPause(int listen_fd) {
  loops_[0]->el.DelFd(listen_fd, acceptor_.get());
  accept_backoff_ms_ =
      accept_backoff_ms_ == 0
          ? options_.accept_backoff_initial_ms
          : std::min(accept_backoff_ms_ * 2, options_.accept_backoff_max_ms);
  loops_[0]->el.RunAfter(accept_backoff_ms_, [this, listen_fd] {
    if (stopped_) return;
    const util::Status st =
        loops_[0]->el.AddFd(listen_fd, EPOLLIN | EPOLLET, acceptor_.get());
    if (!st.ok()) {
      // epoll itself is resource-starved; keep backing off.
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      AcceptPause(listen_fd);
      return;
    }
    // The edge may have passed while unregistered; drain explicitly.
    HandleAccept();
  });
}

void FrontEnd::ScheduleIdleSweep(Loop* loop) {
  // Sweep granularity: a quarter of the timeout, floored so a tiny test
  // timeout cannot spin the loop.
  const int64_t interval =
      std::max<int64_t>(1, static_cast<int64_t>(options_.idle_timeout_ms) / 4);
  loop->el.RunAfter(interval, [this, loop] {
    if (stopped_) return;
    SweepIdle(loop);
    ScheduleIdleSweep(loop);
  });
}

void FrontEnd::SweepIdle(Loop* loop) {
  const int64_t now = MonotonicMs();
  const int64_t timeout = options_.idle_timeout_ms;
  // Collect first: Close() mutates loop->conns under our feet.
  std::vector<std::shared_ptr<Connection>> victims;
  for (const auto& [fd, conn] : loop->conns) {
    if (conn->ReapableAt(now, timeout)) victims.push_back(conn);
  }
  for (const auto& conn : victims) {
    idle_disconnects_.fetch_add(1, std::memory_order_relaxed);
    conn->Close();
  }
}

void FrontEnd::AdoptConnection(Loop* loop, int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  // Capture the peer once; the protocol layer authorizes admin ops on it.
  PeerInfo peer;
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getpeername(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0 &&
      addr.sin_family == AF_INET) {
    char text[INET_ADDRSTRLEN] = {0};
    if (::inet_ntop(AF_INET, &addr.sin_addr, text, sizeof(text)) != nullptr) {
      peer.address = text;
    }
    peer.loopback = (ntohl(addr.sin_addr.s_addr) >> 24) == 127;
  }
  auto conn = std::make_shared<Connection>(this, loop, fd, std::move(peer));
  loop->conns[fd] = conn;
  const util::Status st =
      loop->el.AddFd(fd, EPOLLIN | EPOLLOUT | EPOLLET, conn.get());
  if (!st.ok()) {
    loop->conns.erase(fd);
    ::close(fd);
    active_conns_.fetch_sub(1, std::memory_order_relaxed);
    accept_errors_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace bootleg::net
