// Closed-loop serving benchmark: fixed fleets of synchronous clients drive
// the micro-batching service end to end (request assembly, candidate cache,
// batched frozen-model inference) and report throughput plus latency
// percentiles per scenario. The headline comparison is batching ON vs OFF at
// the same concurrency — the dynamic micro-batcher's whole value claim.
//
//   serve_bench [--out PATH] [--requests N] [--pages N] [--net_only 1]
//
// --net_only skips the engine_* scenarios (useful when iterating on the
// transport; the emitted JSON then contains only net_* rows).
//
// Scenarios:
//   single_request   pre-serving baseline: one autograd-tape Predict at a time
//                    — exactly what a request cost before this subsystem
//   engine_c1_b1     frozen engine, 1 client, batching off (max_batch=1)
//   engine_c8_b1     8 clients, batching off — queueing without coalescing
//   engine_c8_b8     8 clients, dynamic micro-batching (max_batch=8)
//   engine_c16_b16   16 clients, deeper coalescing
//   net_c16/64/256/1024  full TCP stack through the epoll front end: N
//                    closed-loop connections (window 1) multiplexed by a
//                    handful of epoll-based client threads, ~8192 requests
//                    total per scenario. Demonstrates that throughput holds
//                    (or improves, via deeper batches) as connection count
//                    grows far past the old thread-per-connection limit.
//
// The headline ratio is micro-batched serving at concurrency 8 over the
// single-request baseline. On a single-core host the forward is compute
// bound and results must stay byte-identical to the serial evaluator, so
// batching-on-vs-off contributes coalesced queueing overhead only; the bulk
// of the win is the frozen no-tape engine. Both ratios are reported.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "core/model.h"
#include "data/generator.h"
#include "data/mention_extractor.h"
#include "data/world.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "serve/server.h"
#include "util/logging.h"
#include "util/thread_pool.h"

using namespace bootleg;  // NOLINT

namespace {

struct ScenarioResult {
  std::string name;
  int concurrency = 1;
  int max_batch = 1;
  int64_t requests = 0;
  double seconds = 0.0;
  double throughput_sps = 0.0;
  double mean_batch = 0.0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
};

/// Runs `concurrency` closed-loop clients, each issuing `per_client`
/// requests through `issue` (which blocks until its request completes).
ScenarioResult RunClosedLoopOnce(
    const std::string& name, int concurrency, int max_batch, int64_t per_client,
    const std::vector<std::string>& texts,
    const std::function<void(const std::string&)>& issue,
    const serve::ServerCounters* counters) {
  obs::LatencyHistogram latency;
  const auto begin = std::chrono::steady_clock::now();
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(concurrency));
  for (int c = 0; c < concurrency; ++c) {
    clients.emplace_back([&, c] {
      for (int64_t i = 0; i < per_client; ++i) {
        const std::string& text =
            texts[static_cast<size_t>(c + i) % texts.size()];
        const auto start = std::chrono::steady_clock::now();
        issue(text);
        latency.Record(std::chrono::duration_cast<std::chrono::microseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count());
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - begin)
          .count();

  ScenarioResult r;
  r.name = name;
  r.concurrency = concurrency;
  r.max_batch = max_batch;
  r.requests = per_client * concurrency;
  r.seconds = seconds;
  r.throughput_sps = static_cast<double>(r.requests) / seconds;
  r.mean_batch = counters == nullptr ? 1.0 : counters->MeanBatchSize();
  r.p50_us = latency.PercentileUs(0.50);
  r.p95_us = latency.PercentileUs(0.95);
  r.p99_us = latency.PercentileUs(0.99);
  return r;
}

void PrintScenario(const ScenarioResult& r) {
  std::printf("%-14s c=%d b=%d  %7.1f sent/s  p50=%lldus p95=%lldus p99=%lldus"
              "  mean_batch=%.2f\n",
              r.name.c_str(), r.concurrency, r.max_batch, r.throughput_sps,
              static_cast<long long>(r.p50_us), static_cast<long long>(r.p95_us),
              static_cast<long long>(r.p99_us), r.mean_batch);
}

/// Keeps the median-throughput repetition, so a scheduler hiccup on a shared
/// box does not distort the checked-in numbers.
ScenarioResult MedianRun(const std::function<ScenarioResult()>& run,
                         int repeats = 3) {
  std::vector<ScenarioResult> runs;
  for (int i = 0; i < repeats; ++i) runs.push_back(run());
  std::sort(runs.begin(), runs.end(),
            [](const ScenarioResult& a, const ScenarioResult& b) {
              return a.throughput_sps < b.throughput_sps;
            });
  ScenarioResult r = runs[runs.size() / 2];
  PrintScenario(r);
  return r;
}

ScenarioResult RunClosedLoop(
    const std::string& name, int concurrency, int max_batch, int64_t per_client,
    const std::vector<std::string>& texts,
    const std::function<void(const std::string&)>& issue,
    const serve::ServerCounters* counters) {
  return MedianRun([&] {
    return RunClosedLoopOnce(name, concurrency, max_batch, per_client, texts,
                             issue, counters);
  });
}

ScenarioResult RunEngineScenario(serve::InferenceEngine* engine,
                                 const std::string& name, int concurrency,
                                 int max_batch, int64_t per_client,
                                 const std::vector<std::string>& texts) {
  serve::ServerCounters counters;
  serve::BatcherOptions options;
  options.max_batch = max_batch;
  options.max_queue = 1024;
  options.workers = 1;
  core::BootlegModel::InferenceScratch scratch;
  serve::MicroBatcher batcher(
      options,
      [&](const std::vector<serve::BatchItem>& batch, int) {
        return engine->DisambiguateBatch(batch, &scratch);
      },
      nullptr, &counters);
  // Warm the candidate cache and code paths outside the timed window.
  for (const std::string& t : texts) batcher.Submit(t).get();

  ScenarioResult result = RunClosedLoop(
      name, concurrency, max_batch, per_client, texts,
      [&](const std::string& text) { batcher.Submit(text).get(); }, &counters);
  batcher.Shutdown();
  return result;
}

// ---- TCP front-end scenarios ----------------------------------------------
//
// The engine_* scenarios call the batcher directly; the net_* scenarios go
// through the whole stack — epoll front end, newline framing, JSON protocol,
// admission control — from real sockets. Client side: each scenario's N
// connections are multiplexed over a few epoll-based driver threads, each
// connection closed-loop with a window of one request, so N is connection
// concurrency (the thing the old thread-per-connection server could not
// scale) rather than client thread count.

// Server-side micro-batch cap for the net_* scenarios. Deliberately larger
// than net_c16's 16 outstanding requests: a window-1 closed loop can never
// queue more requests than it has connections, so batch depth — and with it
// per-batch fixed costs — scales with connection concurrency. That is the
// production claim these rows exist to demonstrate.
constexpr int kNetMaxBatch = 64;

int ConnectLoopbackPort(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BOOTLEG_CHECK(fd >= 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  BOOTLEG_CHECK(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) ==
      0);
  int flag = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, sizeof(flag));
  const int flags = ::fcntl(fd, F_GETFL, 0);
  ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
  return fd;
}

/// Writes the whole line to a non-blocking socket, polling POLLOUT on EAGAIN.
/// Requests are ~100 bytes, so this almost never actually waits.
void SendLine(int fd, const std::string& line) {
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n =
        ::send(fd, line.data() + off, line.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      pollfd p{fd, POLLOUT, 0};
      ::poll(&p, 1, 1000);
      continue;
    }
    BOOTLEG_CHECK_MSG(false, "net bench: send failed");
  }
}

/// Drives `conn_count` closed-loop connections to completion from one
/// thread: epoll for readable sockets (O(ready) per wakeup, so client-side
/// overhead stays flat from 16 to 1024 connections), record a latency
/// sample per reply line, immediately issue the connection's next request.
///
/// Connection setup and teardown happen outside the timed window — the
/// thread connects its share, signals `ready`, and spins on `go` before
/// sending the first byte; `*end_out` is stamped after the last reply,
/// before any fd is closed. Otherwise per-scenario setup cost (1024
/// connects at net_c1024 vs 16 at net_c16) would masquerade as a
/// request-throughput difference.
void DriveConns(int port, const std::vector<std::string>& lines,
                int64_t per_conn, int conn_count, int id_base,
                obs::LatencyHistogram* latency, std::atomic<int64_t>* errors,
                std::atomic<int>* ready, const std::atomic<bool>* go,
                std::chrono::steady_clock::time_point* end_out) {
  struct NetConn {
    int fd = -1;
    int64_t sent = 0;
    int64_t recvd = 0;
    std::string rbuf;
    std::chrono::steady_clock::time_point t0;
  };
  std::vector<NetConn> conns(static_cast<size_t>(conn_count));
  const int ep = ::epoll_create1(0);
  BOOTLEG_CHECK(ep >= 0);
  for (int i = 0; i < conn_count; ++i) {
    NetConn& c = conns[static_cast<size_t>(i)];
    c.fd = ConnectLoopbackPort(port);
    epoll_event ev{};
    ev.events = EPOLLIN;  // level-triggered; rbuf is drained on each wakeup
    ev.data.u32 = static_cast<uint32_t>(i);
    BOOTLEG_CHECK(::epoll_ctl(ep, EPOLL_CTL_ADD, c.fd, &ev) == 0);
  }
  auto next_line = [&](const NetConn& c, int i) -> const std::string& {
    return lines[static_cast<size_t>(id_base + i + c.sent) % lines.size()];
  };
  ready->fetch_add(1, std::memory_order_release);
  while (!go->load(std::memory_order_acquire)) std::this_thread::yield();
  for (int i = 0; i < conn_count; ++i) {
    NetConn& c = conns[static_cast<size_t>(i)];
    c.t0 = std::chrono::steady_clock::now();
    SendLine(c.fd, next_line(c, i));
    ++c.sent;
  }

  std::vector<epoll_event> events(static_cast<size_t>(conn_count));
  int live = conn_count;
  char buf[16384];
  while (live > 0) {
    const int ready = ::epoll_wait(ep, events.data(), conn_count, 10000);
    if (ready < 0 && errno == EINTR) continue;
    BOOTLEG_CHECK_MSG(ready > 0, "net bench: client stalled for 10s");
    for (int e = 0; e < ready; ++e) {
      NetConn& c = conns[events[static_cast<size_t>(e)].data.u32];
      if (c.recvd >= per_conn) continue;
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.rbuf.append(buf, static_cast<size_t>(n));
          if (n < static_cast<ssize_t>(sizeof(buf))) break;
          continue;
        }
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        BOOTLEG_CHECK_MSG(false, "net bench: server closed the connection");
      }
      size_t start = 0;
      size_t nl;
      while ((nl = c.rbuf.find('\n', start)) != std::string::npos) {
        if (c.rbuf.find("\"ok\":false", start) < nl ||
            c.rbuf.find("\"ok\": false", start) < nl) {
          errors->fetch_add(1, std::memory_order_relaxed);
        }
        latency->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - c.t0)
                            .count());
        ++c.recvd;
        start = nl + 1;
        if (c.recvd == per_conn) {
          --live;
          ::epoll_ctl(ep, EPOLL_CTL_DEL, c.fd, nullptr);
          break;
        }
        c.t0 = std::chrono::steady_clock::now();
        SendLine(c.fd, next_line(c, events[static_cast<size_t>(e)].data.u32));
        ++c.sent;
      }
      c.rbuf.erase(0, start);
    }
  }
  *end_out = std::chrono::steady_clock::now();
  ::close(ep);
  for (NetConn& c : conns) ::close(c.fd);
}

ScenarioResult RunNetClientsOnce(const std::string& name, int conns,
                                 int64_t per_conn, int port,
                                 const std::vector<std::string>& lines,
                                 const serve::ServerCounters* counters) {
  obs::LatencyHistogram latency;
  std::atomic<int64_t> errors{0};
  const int thread_count = conns >= 4 ? 2 : 1;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::chrono::steady_clock::time_point> ends(
      static_cast<size_t>(thread_count));
  std::vector<std::thread> drivers;
  int assigned = 0;
  for (int t = 0; t < thread_count; ++t) {
    const int share = conns / thread_count + (t < conns % thread_count ? 1 : 0);
    const int id_base = assigned;
    assigned += share;
    drivers.emplace_back([&, t, share, id_base] {
      DriveConns(port, lines, per_conn, share, id_base, &latency, &errors,
                 &ready, &go, &ends[static_cast<size_t>(t)]);
    });
  }
  while (ready.load(std::memory_order_acquire) < thread_count) {
    std::this_thread::yield();
  }
  const auto begin = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (std::thread& t : drivers) t.join();
  const auto end = *std::max_element(ends.begin(), ends.end());
  const double seconds = std::chrono::duration<double>(end - begin).count();
  BOOTLEG_CHECK_MSG(errors.load() == 0,
                    "net bench: got structured error replies");

  ScenarioResult r;
  r.name = name;
  r.concurrency = conns;
  r.max_batch = kNetMaxBatch;
  r.requests = per_conn * conns;
  r.seconds = seconds;
  r.throughput_sps = static_cast<double>(r.requests) / seconds;
  r.mean_batch = counters->MeanBatchSize();
  r.p50_us = latency.PercentileUs(0.50);
  r.p95_us = latency.PercentileUs(0.95);
  r.p99_us = latency.PercentileUs(0.99);
  return r;
}

/// One TCP scenario: fresh batcher + server (so mean_batch is per-scenario),
/// a warmup pass over one connection, then the median of three timed drives.
ScenarioResult RunNetScenario(serve::InferenceEngine* engine,
                              const std::string& name, int conns,
                              int64_t per_conn,
                              const std::vector<std::string>& lines) {
  serve::ServerCounters counters;
  obs::LatencyHistogram server_latency;
  serve::BatcherOptions options;
  options.max_batch = kNetMaxBatch;
  options.max_queue = 2048;
  options.workers = 1;
  core::BootlegModel::InferenceScratch scratch;
  serve::MicroBatcher batcher(
      options,
      [&](const std::vector<serve::BatchItem>& batch, int) {
        return engine->DisambiguateBatch(batch, &scratch);
      },
      nullptr, &counters);
  serve::ServerOptions server_options;
  server_options.io_threads = 2;
  serve::Server server(engine, &batcher, &counters, &server_latency,
                       server_options);
  BOOTLEG_CHECK(server.Start(0).ok());
  {  // Warmup: one connection, one pass over the request pool.
    obs::LatencyHistogram warmup_latency;
    std::atomic<int64_t> warmup_errors{0};
    std::atomic<int> warmup_ready{0};
    std::atomic<bool> warmup_go{true};
    std::chrono::steady_clock::time_point warmup_end;
    DriveConns(server.port(), lines, static_cast<int64_t>(lines.size()), 1, 0,
               &warmup_latency, &warmup_errors, &warmup_ready, &warmup_go,
               &warmup_end);
    BOOTLEG_CHECK(warmup_errors.load() == 0);
  }
  ScenarioResult result = MedianRun([&] {
    return RunNetClientsOnce(name, conns, per_conn, server.port(), lines,
                             &counters);
  });
  server.Stop();
  batcher.Shutdown();
  return result;
}

std::string DisambiguateLine(const std::string& text) {
  std::string escaped;
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') escaped += '\\';
    escaped += ch;
  }
  return "{\"op\":\"disambiguate\",\"text\":\"" + escaped + "\"}\n";
}

void AppendScenarioJson(std::string* out, const ScenarioResult& r, bool last) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"name\": \"%s\", \"concurrency\": %d, \"max_batch\": %d, "
      "\"requests\": %lld, \"seconds\": %.4f, \"throughput_sps\": %.2f, "
      "\"mean_batch\": %.3f, \"p50_us\": %lld, \"p95_us\": %lld, "
      "\"p99_us\": %lld}%s\n",
      r.name.c_str(), r.concurrency, r.max_batch,
      static_cast<long long>(r.requests), r.seconds, r.throughput_sps,
      r.mean_batch, static_cast<long long>(r.p50_us),
      static_cast<long long>(r.p95_us), static_cast<long long>(r.p99_us),
      last ? "" : ",");
  *out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_serve.json";
  int64_t per_client = 250;
  int64_t pages = 200;
  bool net_only = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--out") out_path = argv[i + 1];
    if (key == "--requests") per_client = std::atoll(argv[i + 1]);
    if (key == "--pages") pages = std::atoll(argv[i + 1]);
    if (key == "--net_only") net_only = std::atoi(argv[i + 1]) != 0;
  }

  // Single-core serving: all parallelism in this benchmark comes from the
  // micro-batcher's compute coalescing, which is exactly the claim under test.
  util::ThreadPool::ResetGlobal(util::ThreadPool::EnvThreads());

  data::SynthConfig config = data::SynthConfig::MicroScale();
  config.num_pages = pages;
  const data::SynthWorld world = data::BuildWorld(config);
  data::CorpusGenerator generator(&world);
  const data::Corpus corpus = generator.Generate();

  const std::string dir =
      (std::filesystem::temp_directory_path() / "bootleg_serve_bench").string();
  std::filesystem::create_directories(dir);
  BOOTLEG_CHECK(world.kb.Save(dir + "/kb.bin").ok());
  BOOTLEG_CHECK(world.candidates.Save(dir + "/candidates.bin").ok());
  BOOTLEG_CHECK(world.vocab.Save(dir + "/vocab.bin").ok());

  core::BootlegConfig model_config;
  model_config.encoder.max_len = 32;
  core::BootlegModel model(&world.kb, world.vocab.size(), model_config,
                           /*seed=*/42);
  BOOTLEG_CHECK(model.store().Save(dir + "/model.bin").ok());

  serve::EngineOptions engine_options;
  engine_options.data_dir = dir;
  engine_options.model_path = dir + "/model.bin";
  auto engine_or = serve::InferenceEngine::Create(engine_options);
  BOOTLEG_CHECK_MSG(engine_or.ok(), engine_or.status().ToString());
  serve::InferenceEngine& engine = *engine_or.value();

  // A fixed pool of real dev sentences: a skewed alias mix like the queries
  // the cache is built for, shared by every scenario.
  std::vector<std::string> texts;
  for (const data::Sentence& s : corpus.dev) {
    if (s.mentions.empty()) continue;
    std::string text;
    for (const std::string& t : s.tokens) {
      if (!text.empty()) text += ' ';
      text += t;
    }
    texts.push_back(std::move(text));
    if (texts.size() == 64) break;
  }
  BOOTLEG_CHECK(!texts.empty());

  std::vector<ScenarioResult> results;

  if (!net_only) {
    // Pre-serving baseline: the batch-experiment path (autograd tape, no
    // frozen features, no batching) invoked per request.
    data::MentionExtractor extractor(&world.candidates);
    for (const std::string& t : texts) {  // warmup
      model.Predict(extractor.BuildExample(world.vocab, t));
    }
    results.push_back(RunClosedLoop(
        "single_request", 1, 1, per_client, texts,
        [&](const std::string& text) {
          model.Predict(extractor.BuildExample(world.vocab, text));
        },
        nullptr));

    results.push_back(
        RunEngineScenario(&engine, "engine_c1_b1", 1, 1, per_client, texts));
    results.push_back(
        RunEngineScenario(&engine, "engine_c8_b1", 8, 1, per_client, texts));
    results.push_back(
        RunEngineScenario(&engine, "engine_c8_b8", 8, 8, per_client, texts));
    results.push_back(
        RunEngineScenario(&engine, "engine_c16_b16", 16, 16, per_client,
                          texts));
  }

  // Full-stack TCP scenarios: ~8192 requests each, connection counts far
  // beyond what the old thread-per-connection transport could carry.
  std::vector<std::string> lines;
  lines.reserve(texts.size());
  for (const std::string& t : texts) lines.push_back(DisambiguateLine(t));
  results.push_back(RunNetScenario(&engine, "net_c16", 16, 512, lines));
  const ScenarioResult net_c16 = results.back();
  results.push_back(RunNetScenario(&engine, "net_c64", 64, 128, lines));
  results.push_back(RunNetScenario(&engine, "net_c256", 256, 32, lines));
  const ScenarioResult net_c256 = results.back();
  results.push_back(RunNetScenario(&engine, "net_c1024", 1024, 8, lines));

  std::string json = "{\n  \"benchmark\": \"bootleg_serve closed-loop\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"pages\": %lld,\n  \"texts\": %zu,\n",
                static_cast<long long>(pages), texts.size());
  json += buf;
  json += "  \"scenarios\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    AppendScenarioJson(&json, results[i], i + 1 == results.size());
  }
  json += "  ],\n";
  if (!net_only) {
    const double single_request = results[0].throughput_sps;
    const double engine_c1 = results[1].throughput_sps;
    const double unbatched_c8 = results[2].throughput_sps;
    const double batched_c8 = results[3].throughput_sps;
    std::snprintf(buf, sizeof(buf),
                  "  \"speedup_batched_c8_vs_single_request\": %.3f,\n",
                  batched_c8 / single_request);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"speedup_batching_on_vs_off_at_c8\": %.3f,\n",
                  batched_c8 / unbatched_c8);
    json += buf;
    std::snprintf(buf, sizeof(buf),
                  "  \"speedup_frozen_engine_vs_tape_at_c1\": %.3f,\n",
                  engine_c1 / single_request);
    json += buf;
    std::printf("batched c8 vs single-request baseline: %.2fx "
                "(batching on/off at c8: %.2fx; frozen engine vs tape at c1: "
                "%.2fx)\n",
                batched_c8 / single_request, batched_c8 / unbatched_c8,
                engine_c1 / single_request);
  }
  std::snprintf(buf, sizeof(buf),
                "  \"net_throughput_c256_vs_c16\": %.3f\n",
                net_c256.throughput_sps / net_c16.throughput_sps);
  json += buf;
  json += "}\n";

  std::ofstream f(out_path);
  f << json;
  f.close();
  std::printf("wrote %s\n", out_path.c_str());
  std::printf("net front end: c256 vs c16 throughput: %.2fx\n",
              net_c256.throughput_sps / net_c16.throughput_sps);
  return 0;
}
