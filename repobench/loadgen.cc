#include "loadgen.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>

namespace repobench {

using bootleg::util::Status;
using bootleg::util::StatusOr;

int64_t NowNs() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

constexpr int64_t kNs = 1000000000;
constexpr double kDrainS = 5.0;  // how long a phase waits for late replies

/// Waits for events with a nanosecond timeout (epoll_pwait2), falling back
/// to epoll_wait's millisecond timeout on kernels without it.
int Wait(int ep, epoll_event* events, int max, int64_t timeout_ns) {
  timespec ts{timeout_ns / kNs, timeout_ns % kNs};
  const int n = epoll_pwait2(ep, events, max, &ts, nullptr);
  if (n >= 0 || errno != ENOSYS) return n;
  return epoll_wait(ep, events, max,
                    static_cast<int>((timeout_ns + 999999) / 1000000));
}

}  // namespace

StatusOr<std::unique_ptr<LoadClient>> LoadClient::Connect(int port,
                                                          int read_conns) {
  std::unique_ptr<LoadClient> client(new LoadClient());
  client->epoll_fd_ = epoll_create1(EPOLL_CLOEXEC);
  if (client->epoll_fd_ < 0) return Status::IOError("epoll_create1 failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  client->conns_.resize(static_cast<size_t>(read_conns) + 1);
  for (size_t i = 0; i < client->conns_.size(); ++i) {
    const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return Status::IOError("socket failed");
    client->conns_[i].fd = fd;
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return Status::IOError("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
    }
    const int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (fcntl(fd, F_SETFL, O_NONBLOCK) != 0) {
      return Status::IOError("fcntl O_NONBLOCK failed");
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.u64 = i;
    if (epoll_ctl(client->epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      return Status::IOError("epoll_ctl failed");
    }
  }
  return client;
}

LoadClient::~LoadClient() {
  for (Conn& c : conns_) {
    if (c.fd >= 0) close(c.fd);
  }
  if (epoll_fd_ >= 0) close(epoll_fd_);
}

void LoadClient::Send(size_t conn, const std::string& line, Pending p) {
  Conn& c = conns_[conn];
  c.out.append(line);
  c.out.push_back('\n');
  c.pending.push_back(p);
}

Status LoadClient::Flush(size_t conn) {
  Conn& c = conns_[conn];
  size_t off = 0;
  while (off < c.out.size()) {
    const ssize_t n =
        send(c.fd, c.out.data() + off, c.out.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      return Status::IOError("send failed on connection " +
                             std::to_string(conn));
    }
  }
  c.out.erase(0, off);
  const bool want_out = !c.out.empty();
  if (want_out != c.want_out) {
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP | (want_out ? EPOLLOUT : 0u);
    ev.data.u64 = conn;
    epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, c.fd, &ev);
    c.want_out = want_out;
  }
  return Status::OK();
}

Status LoadClient::Receive(
    size_t conn, const std::function<void(Pending, std::string)>& on_line) {
  Conn& c = conns_[conn];
  char buf[1 << 16];
  bool closed = false;
  for (;;) {
    const ssize_t n = recv(c.fd, buf, sizeof(buf), 0);
    if (n > 0) {
      c.in.append(buf, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    closed = true;
    break;
  }
  size_t start = 0;
  for (size_t nl; (nl = c.in.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    if (c.pending.empty()) {
      return Status::Internal("unsolicited reply on connection " +
                              std::to_string(conn));
    }
    const Pending p = c.pending.front();
    c.pending.pop_front();
    on_line(p, c.in.substr(start, nl - start));
  }
  c.in.erase(0, start);
  if (closed) {
    return Status::IOError("server closed connection " + std::to_string(conn));
  }
  return Status::OK();
}

Status LoadClient::Run(const PhaseSpec& spec,
                       const std::vector<Request>& requests,
                       const ReplyChecker& check, Writer* writer,
                       PhaseTally* tally) {
  tally->name = spec.name;
  tally->seconds = spec.seconds;
  const size_t nread = conns_.size() - 1;
  const bool open_loop = spec.rate > 0.0;
  const int64_t start = NowNs() + 1000000;  // 1 ms to settle the schedule
  const int64_t end = start + static_cast<int64_t>(spec.seconds * kNs);
  const double interval = open_loop ? kNs / spec.rate : 0.0;
  // The writer spreads its share of adds evenly over the phase; the
  // fractional remainder carries over, so short phases keep the rate.
  int64_t w_due = 0;
  if (writer != nullptr && writer->rate > 0.0) {
    writer->credit += spec.seconds * writer->rate;
    w_due = static_cast<int64_t>(writer->credit);
    writer->credit -= static_cast<double>(w_due);
  }
  const double w_interval =
      w_due > 0 ? spec.seconds * kNs / static_cast<double>(w_due) : 0.0;
  int64_t sent = 0;   // read requests sent in this phase
  int64_t w_sent = 0;  // adds sent in this phase
  int64_t last_progress = start;
  Status status = Status::OK();

  auto send_read = [&](size_t conn, int64_t sched, int64_t now) {
    const size_t key = cursor_;
    cursor_ = (cursor_ + 1) % requests.size();
    Send(conn, requests[key].line,
         {Kind::kRead, static_cast<int64_t>(key), sched});
    tally->lateness_ms.push_back(static_cast<double>(now - sched) / 1e6);
    ++tally->sent;
    ++sent;
  };

  auto on_line = [&](size_t conn, int64_t recv_ns) {
    return [&, conn, recv_ns](Pending p, std::string reply) {
      last_progress = recv_ns;
      const double latency_ms = static_cast<double>(recv_ns - p.sched_ns) / 1e6;
      switch (p.kind) {
        case Kind::kRead: {
          const Outcome o = check(static_cast<size_t>(p.key), reply);
          tally->Record(o);
          if (o == Outcome::kOk) {
            const int64_t s = requests[static_cast<size_t>(p.key)].sentences;
            tally->latency_ms.push_back(latency_ms);
            tally->sentences_ok += s;
            if (recv_ns <= end && latency_ms <= spec.latency_limit_ms) {
              tally->good_sentences += s;
            }
          }
          if (!open_loop && recv_ns < end) {
            send_read(conn, recv_ns, recv_ns);
          }
          break;
        }
        case Kind::kAdd: {
          const Outcome o = writer->check_add(p.key, reply);
          writer->tally.Record(o);
          if (o == Outcome::kOk) {
            writer->tally.latency_ms.push_back(latency_ms);
            Send(control(), writer->read_line(p.key),
                 {Kind::kReadBack, p.key, recv_ns});
            ++writer->tally.sent;
          }
          break;
        }
        case Kind::kReadBack:
          writer->tally.Record(writer->check_read(p.key, reply));
          break;
        case Kind::kCall:
          break;
      }
    };
  };

  if (!open_loop) {
    for (size_t c = 0; c < nread; ++c) {
      for (int i = 0; i < spec.outstanding; ++i) {
        const int64_t now = NowNs();
        send_read(c, now, now);
      }
    }
  }
  epoll_event events[16];
  for (;;) {
    int64_t now = NowNs();
    int64_t next_event = end;
    if (open_loop) {
      for (;;) {
        const int64_t sched =
            start + static_cast<int64_t>(static_cast<double>(sent) * interval);
        if (sched >= end) break;
        if (sched > now) {
          next_event = std::min(next_event, sched);
          break;
        }
        send_read(static_cast<size_t>(sent) % nread, sched, now);
      }
    }
    if (w_sent < w_due) {
      const int64_t sched =
          start +
          static_cast<int64_t>((static_cast<double>(w_sent) + 0.5) * w_interval);
      if (sched <= now) {
        Send(control(), writer->add_line(writer->next),
             {Kind::kAdd, writer->next, sched});
        writer->tally.lateness_ms.push_back(static_cast<double>(now - sched) /
                                            1e6);
        ++writer->tally.sent;
        ++writer->next;
        ++w_sent;
      } else {
        next_event = std::min(next_event, sched);
      }
    }
    for (size_t c = 0; c < conns_.size() && status.ok(); ++c) {
      if (!conns_[c].out.empty() && !conns_[c].want_out) status = Flush(c);
    }
    size_t in_flight = 0;
    for (const Conn& c : conns_) in_flight += c.pending.size();
    if (!status.ok()) break;
    if (now >= end && in_flight == 0) break;
    if (in_flight > 0 &&
        now - last_progress > static_cast<int64_t>(spec.stall_s * kNs)) {
      status = Status::DeadlineExceeded(
          "phase " + spec.name + " stalled: no reply for " +
          std::to_string(spec.stall_s) + " s with " +
          std::to_string(in_flight) + " requests outstanding");
      break;
    }
    if (now >= end + static_cast<int64_t>(kDrainS * kNs)) {
      status = Status::DeadlineExceeded(
          "phase " + spec.name + ": " + std::to_string(in_flight) +
          " replies still missing " + std::to_string(kDrainS) +
          " s after the phase ended");
      break;
    }
    if (now >= end) next_event = now + 1000000;  // draining: poll every ms
    next_event = std::min(next_event,
                          last_progress + static_cast<int64_t>(spec.stall_s * kNs));
    const int n = Wait(epoll_fd_, events, 16, std::max<int64_t>(0, next_event - now));
    const int64_t recv_ns = NowNs();
    for (int i = 0; i < n && status.ok(); ++i) {
      const size_t c = static_cast<size_t>(events[i].data.u64);
      if (events[i].events & EPOLLOUT) status = Flush(c);
      if (status.ok() && (events[i].events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP |
                                              EPOLLERR))) {
        status = Receive(c, on_line(c, recv_ns));
      }
    }
    if (!status.ok()) break;
  }
  // Whatever is still unanswered counts as a connection error (a reply that
  // never came); the connection is not reusable for this run afterwards.
  for (Conn& c : conns_) {
    for (const Pending& p : c.pending) {
      if (p.kind == Kind::kRead) {
        tally->Record(Outcome::kConnectionError);
      } else if (writer != nullptr && p.kind != Kind::kCall) {
        writer->tally.Record(Outcome::kConnectionError);
      }
    }
    if (!status.ok()) c.pending.clear();
  }
  return status;
}

StatusOr<std::string> LoadClient::Call(const std::string& line,
                                       double timeout_s) {
  const size_t c = control();
  if (!conns_[c].pending.empty()) {
    return Status::FailedPrecondition("control connection busy");
  }
  Send(c, line, {Kind::kCall, 0, NowNs()});
  BOOTLEG_RETURN_IF_ERROR(Flush(c));
  std::string reply;
  bool got = false;
  const int64_t deadline = NowNs() + static_cast<int64_t>(timeout_s * kNs);
  epoll_event events[16];
  while (!got) {
    const int64_t now = NowNs();
    if (now >= deadline) {
      return Status::DeadlineExceeded("no reply to control call within " +
                                      std::to_string(timeout_s) + " s");
    }
    const int n = Wait(epoll_fd_, events, 16, deadline - now);
    for (int i = 0; i < n; ++i) {
      const size_t ci = static_cast<size_t>(events[i].data.u64);
      if (events[i].events & EPOLLOUT) BOOTLEG_RETURN_IF_ERROR(Flush(ci));
      if (ci != c) continue;
      BOOTLEG_RETURN_IF_ERROR(Receive(ci, [&](Pending, std::string r) {
        reply = std::move(r);
        got = true;
      }));
    }
  }
  return reply;
}

}  // namespace repobench
