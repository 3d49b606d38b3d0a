// overload_drill — hostile-client load generator for the serving front end.
//
//   overload_drill --port N        target (127.0.0.1)
//                  [--conns N]     well-behaved pipelining clients (default 32)
//                  [--pipeline N]  in-flight window per client      (default 8)
//                  [--requests N]  requests per well-behaved client (default 100)
//                  [--deadline_ms N]  per-request budget; 0 = none  (default 0)
//                  [--slowloris N] clients dribbling newline-free bytes (default 0)
//                  [--deadreaders N]  clients that request replies but never
//                                  read them (default 0)
//                  [--bigblobs N]  clients sending one line far beyond the
//                                  server's cap (default 0)
//                  [--text STR]    request text (default "drill")
//
// Every well-behaved reply is classified by its structured "code"; hostile
// clients verify the server cuts them off instead of stalling or dying. The
// one-line summary is machine-parseable for check.sh:
//
//   drill ok=... overloaded=... deadline_exceeded=... transport_rejects=...
//         errors=... stalls=... slowloris_cut=... deadreader_cut=...
//         bigblob_cut=... p99_ok_us=...
//
// Exit 0 when no well-behaved client stalled and every hostile client was
// disconnected; 1 otherwise.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "flags.h"

namespace {

int ConnectLoopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void SetRecvTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (w <= 0) return false;
    sent += static_cast<size_t>(w);
  }
  return true;
}

/// One reply line; "" on EOF, timeout, or error (caller distinguishes via
/// `timed_out`).
std::string ReadReplyLine(int fd, bool* timed_out) {
  std::string reply;
  char c;
  while (true) {
    const ssize_t n = ::recv(fd, &c, 1, 0);
    if (n == 1) {
      if (c == '\n') return reply;
      reply.push_back(c);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) *timed_out = true;
    return "";
  }
}

struct Tally {
  std::atomic<int64_t> ok{0};
  std::atomic<int64_t> overloaded{0};
  std::atomic<int64_t> deadline_exceeded{0};
  std::atomic<int64_t> transport_rejects{0};
  std::atomic<int64_t> errors{0};
  std::atomic<int64_t> stalls{0};
  std::atomic<int64_t> disconnects{0};  // well-behaved clients cut mid-run
  std::atomic<int64_t> slowloris_cut{0};
  std::atomic<int64_t> deadreader_cut{0};
  std::atomic<int64_t> bigblob_cut{0};

  std::mutex lat_mu;
  std::vector<int64_t> ok_latency_us;
};

void Classify(const std::string& reply, int64_t latency_us, Tally* tally) {
  if (reply.find("\"ok\":true") != std::string::npos ||
      reply.find("\"ok\": true") != std::string::npos) {
    tally->ok.fetch_add(1);
    std::lock_guard<std::mutex> lock(tally->lat_mu);
    tally->ok_latency_us.push_back(latency_us);
    return;
  }
  if (reply.find("overloaded") != std::string::npos) {
    tally->overloaded.fetch_add(1);
    return;
  }
  if (reply.find("deadline_exceeded") != std::string::npos) {
    tally->deadline_exceeded.fetch_add(1);
    return;
  }
  if (reply.find("too_many_inflight") != std::string::npos ||
      reply.find("server_full") != std::string::npos ||
      reply.find("line_too_long") != std::string::npos) {
    tally->transport_rejects.fetch_add(1);
    return;
  }
  tally->errors.fetch_add(1);
}

/// Well-behaved client: `requests` pipelined disambiguate calls with a
/// window of `pipeline` in flight, classifying every reply.
void RunClient(int port, int requests, int pipeline, const std::string& line,
               Tally* tally) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) {
    tally->disconnects.fetch_add(1);
    return;
  }
  SetRecvTimeout(fd, 10000);
  std::deque<std::chrono::steady_clock::time_point> sent_at;
  int sent = 0, received = 0;
  bool dead = false;
  while (received < requests && !dead) {
    while (sent < requests && static_cast<int>(sent_at.size()) < pipeline) {
      if (!SendAll(fd, line)) {
        dead = true;
        break;
      }
      sent_at.push_back(std::chrono::steady_clock::now());
      ++sent;
    }
    if (sent_at.empty()) break;
    bool timed_out = false;
    const std::string reply = ReadReplyLine(fd, &timed_out);
    if (reply.empty() && timed_out) {
      tally->stalls.fetch_add(1);
      dead = true;
      break;
    }
    if (reply.empty()) {
      // Server closed on us (e.g. write-buffer cap): not a stall, but note
      // the lost connection.
      tally->disconnects.fetch_add(1);
      dead = true;
      break;
    }
    const auto now = std::chrono::steady_clock::now();
    const int64_t lat_us =
        std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                              sent_at.front())
            .count();
    sent_at.pop_front();
    ++received;
    Classify(reply, lat_us, tally);
  }
  ::close(fd);
}

/// Slowloris: dribbles newline-free bytes. Success = the server hangs up.
void RunSlowloris(int port, Tally* tally) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return;
  const std::string chunk(512, 'a');
  bool cut = false;
  // Enough dribble to blow any sane line cap; bounded so the drill ends.
  for (int i = 0; i < 4096; ++i) {
    if (!SendAll(fd, chunk)) {
      cut = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!cut) {
    // The cap may have produced an error reply + FIN without RST; a read
    // confirms the close.
    SetRecvTimeout(fd, 3000);
    char buf[4096];
    while (true) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n == 0) {
        cut = true;
        break;
      }
      if (n < 0) break;
    }
  }
  if (cut) tally->slowloris_cut.fetch_add(1);
  ::close(fd);
}

/// Dead reader: pipelines stats requests and never reads. Success = the
/// server disconnects once the reply buffer cap is hit.
void RunDeadReader(int port, Tally* tally) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return;
  const std::string line = "{\"op\":\"stats\"}\n";
  for (int i = 0; i < 100000; ++i) {
    if (!SendAll(fd, line)) {
      tally->deadreader_cut.fetch_add(1);
      break;
    }
    if ((i & 63) == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ::close(fd);
}

/// Big blob: one request line far beyond any sane cap. Success = structured
/// cutoff (reply mentioning line_too_long, or a hangup mid-send).
void RunBigBlob(int port, Tally* tally) {
  const int fd = ConnectLoopback(port);
  if (fd < 0) return;
  std::string blob(8u << 20, 'b');
  blob += '\n';
  const bool sent = SendAll(fd, blob);
  bool cut = !sent;
  if (sent) {
    SetRecvTimeout(fd, 5000);
    bool timed_out = false;
    const std::string reply = ReadReplyLine(fd, &timed_out);
    cut = reply.find("line_too_long") != std::string::npos;
  }
  if (cut) tally->bigblob_cut.fetch_add(1);
  ::close(fd);
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  const bootleg::tools::Flags flags(argc, argv);
  const int port = static_cast<int>(flags.GetInt("port", 0));
  const int conns = static_cast<int>(flags.GetInt("conns", 32));
  const int pipeline = static_cast<int>(flags.GetInt("pipeline", 8));
  const int requests = static_cast<int>(flags.GetInt("requests", 100));
  const int deadline_ms = static_cast<int>(flags.GetInt("deadline_ms", 0));
  const int slowloris = static_cast<int>(flags.GetInt("slowloris", 0));
  const int deadreaders = static_cast<int>(flags.GetInt("deadreaders", 0));
  const int bigblobs = static_cast<int>(flags.GetInt("bigblobs", 0));
  const std::string text = flags.Get("text", "drill");
  const std::string flag_error = flags.FirstError();
  if (!flag_error.empty() || port <= 0) {
    if (!flag_error.empty()) std::fprintf(stderr, "%s\n", flag_error.c_str());
    std::fprintf(stderr, "usage: overload_drill --port N [--conns N] ...\n");
    return 2;
  }

  std::string line = "{\"op\":\"disambiguate\",\"text\":\"" + text + "\"";
  if (deadline_ms > 0) {
    line += ",\"deadline_ms\":" + std::to_string(deadline_ms);
  }
  line += "}\n";

  Tally tally;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(conns + slowloris + deadreaders +
                                      bigblobs));
  for (int i = 0; i < slowloris; ++i) {
    threads.emplace_back([&] { RunSlowloris(port, &tally); });
  }
  for (int i = 0; i < deadreaders; ++i) {
    threads.emplace_back([&] { RunDeadReader(port, &tally); });
  }
  for (int i = 0; i < bigblobs; ++i) {
    threads.emplace_back([&] { RunBigBlob(port, &tally); });
  }
  for (int i = 0; i < conns; ++i) {
    threads.emplace_back(
        [&] { RunClient(port, requests, pipeline, line, &tally); });
  }
  for (std::thread& t : threads) t.join();

  int64_t p99 = 0;
  {
    std::lock_guard<std::mutex> lock(tally.lat_mu);
    if (!tally.ok_latency_us.empty()) {
      std::sort(tally.ok_latency_us.begin(), tally.ok_latency_us.end());
      const size_t idx = std::min(
          tally.ok_latency_us.size() - 1,
          static_cast<size_t>(0.99 * static_cast<double>(
                                         tally.ok_latency_us.size())));
      p99 = tally.ok_latency_us[idx];
    }
  }

  const bool hostile_ok = tally.slowloris_cut.load() == slowloris &&
                          tally.deadreader_cut.load() == deadreaders &&
                          tally.bigblob_cut.load() == bigblobs;
  std::printf(
      "drill ok=%lld overloaded=%lld deadline_exceeded=%lld "
      "transport_rejects=%lld errors=%lld stalls=%lld disconnects=%lld "
      "slowloris_cut=%lld deadreader_cut=%lld bigblob_cut=%lld "
      "p99_ok_us=%lld\n",
      static_cast<long long>(tally.ok.load()),
      static_cast<long long>(tally.overloaded.load()),
      static_cast<long long>(tally.deadline_exceeded.load()),
      static_cast<long long>(tally.transport_rejects.load()),
      static_cast<long long>(tally.errors.load()),
      static_cast<long long>(tally.stalls.load()),
      static_cast<long long>(tally.disconnects.load()),
      static_cast<long long>(tally.slowloris_cut.load()),
      static_cast<long long>(tally.deadreader_cut.load()),
      static_cast<long long>(tally.bigblob_cut.load()),
      static_cast<long long>(p99));
  return (tally.stalls.load() == 0 && hostile_ok) ? 0 : 1;
}
