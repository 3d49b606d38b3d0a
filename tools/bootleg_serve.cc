// bootleg_serve — long-running disambiguation service over a trained model.
//
//   bootleg_serve --data DIR (--model PATH | --checkpoint_dir DIR)
//                 [--store_dir DIR]   serve frozen features from an mmap
//                                     embedding store (export-store output;
//                                     requires --model)
//                 [--port N]          TCP on 127.0.0.1:N (0 = ephemeral)
//                 [--stdin]           serve stdin/stdout instead of TCP
//                 [--max_batch N]     micro-batch size cap          (default 8)
//                 [--max_queue N]     bounded queue depth           (default 64)
//                 [--workers N]       batch worker threads          (default 1)
//                 [--io_threads N]    epoll event loops             (default 1)
//                 [--max_conns N]     connection cap                (default 4096)
//                 [--admission_watermark N]  queue depth beyond which new
//                                     disambiguate requests get a structured
//                                     "overloaded" reply (default: max_queue)
//                 [--max_line_bytes N]   request line cap     (default 1 MiB)
//                 [--write_buf_bytes N]  unread-reply cap per connection;
//                                     slower readers are disconnected
//                                     (default 4 MiB)
//                 [--idle_timeout_ms N]  disconnect connections idle (no
//                                     bytes, nothing in flight) this long;
//                                     0 disables the reaper (default 0)
//                 [--resident_budget_mb M]  hot-set residency budget for the
//                                     mapped store, in MiB (fractional ok).
//                                     The popularity clock keeps the hottest
//                                     shards advised resident and
//                                     MADV_DONTNEEDs the cold tail; replies
//                                     stay bit-identical. 0 = unmanaged
//                                     mmap (default 0)
//                 [--resident_sweep_ms N]  residency clock-sweep cadence
//                                     (default 1000)
//                 [--compact_chain_depth N]  auto-compact the store's delta
//                                     chain whenever an adopted generation
//                                     is at least N deltas deep (store
//                                     deployments; 0 = operator-triggered
//                                     compaction only, default 0)
//                 [--char_fallback]   route unknown tokens through the
//                                     vocabulary's single-edit typo fallback
//                                     so typo'd words recover the clean
//                                     embedding instead of [UNK]; clean text
//                                     encodes bit-identically either way
//                 [--ablation A]      config preset when no .meta sidecar
//                 [--no_trace]        disable per-stage trace spans
//
// Any other --flag is an error (exit 2): a typo or a retired flag
// (--max_wait_us, --backend, --cache) must not fall back to defaults
// silently. So is an integer flag whose value is not
// a whole number (`--max_batch abc`).
//
// Protocol: newline-delimited JSON; ops disambiguate / disambiguate_text
// (raw text: sentence-split and mention-extracted server-side, mentions
// carry document-level spans plus a sentence index) / health / stats /
// reload / add_entity (loopback-only live index mutation: induces an
// embedding for a never-trained entity and publishes a chained store
// generation, --store_dir deployments only).
// SIGHUP hot-reloads the newest valid checkpoint (checkpoint_dir
// deployments) or the newest store generation (--store_dir deployments);
// corrupt candidates are skipped, and a failed reload keeps serving the
// previous weights/generation.
#include <csignal>
#include <cstdio>
#include <iostream>
#include <string>

#include "flags.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/batcher.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "serve/server.h"

using namespace bootleg;  // NOLINT

namespace {

volatile std::sig_atomic_t g_reload_requested = 0;
volatile std::sig_atomic_t g_shutdown_requested = 0;

void OnSighup(int) { g_reload_requested = 1; }
void OnTerm(int) { g_shutdown_requested = 1; }

constexpr char kUsage[] =
    "usage: bootleg_serve --data DIR (--model PATH | --checkpoint_dir DIR) "
    "[--port N | --stdin]\n";

}  // namespace

int main(int argc, char** argv) {
  const tools::Flags flags(argc, argv);
  // Spans feed the stats op's per-stage breakdown; --no_trace turns the
  // clock reads off (span scopes then cost one atomic load + branch).
  obs::Trace::Enable(!flags.Has("no_trace"));
  // Every other flag is read here too, before the model loads, so a bad
  // command line fails fast.
  serve::EngineOptions engine_options;
  engine_options.data_dir = flags.Get("data");
  engine_options.model_path = flags.Get("model");
  engine_options.checkpoint_dir = flags.Get("checkpoint_dir");
  engine_options.store_dir = flags.Get("store_dir");
  engine_options.ablation = flags.Get("ablation", "full");
  // Fractional MiB so budgets below 1 MiB (tiny drill/test stores) work.
  engine_options.resident_budget_bytes = static_cast<int64_t>(
      flags.GetDouble("resident_budget_mb", 0.0) * 1024.0 * 1024.0);
  engine_options.resident_sweep_ms = flags.GetInt("resident_sweep_ms", 1000);
  engine_options.compact_chain_depth = flags.GetInt("compact_chain_depth", 0);
  engine_options.char_fallback = flags.Has("char_fallback");

  serve::BatcherOptions batcher_options;
  batcher_options.max_batch = static_cast<int>(flags.GetInt("max_batch", 8));
  batcher_options.max_queue =
      static_cast<size_t>(flags.GetInt("max_queue", 64));
  batcher_options.workers = static_cast<int>(flags.GetInt("workers", 1));

  serve::ServerOptions server_options;
  server_options.io_threads = static_cast<int>(flags.GetInt("io_threads", 1));
  server_options.max_conns = static_cast<int>(flags.GetInt("max_conns", 4096));
  server_options.admission_watermark =
      static_cast<size_t>(flags.GetInt("admission_watermark", 0));
  server_options.max_line_bytes =
      static_cast<size_t>(flags.GetInt("max_line_bytes", 1 << 20));
  server_options.write_buf_bytes =
      static_cast<size_t>(flags.GetInt("write_buf_bytes", 4 << 20));
  server_options.idle_timeout_ms =
      static_cast<int>(flags.GetInt("idle_timeout_ms", 0));

  const bool use_stdin = flags.Has("stdin");
  const int port = static_cast<int>(flags.GetInt("port", 0));

  const std::string flag_error = flags.FirstError();
  if (!flag_error.empty()) {
    std::fprintf(stderr, "%s\n%s", flag_error.c_str(), kUsage);
    return 2;
  }
  if (engine_options.data_dir.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  auto engine_or = serve::InferenceEngine::Create(engine_options);
  if (!engine_or.ok()) {
    std::fprintf(stderr, "error: %s\n", engine_or.status().ToString().c_str());
    return 1;
  }
  serve::InferenceEngine& engine = *engine_or.value();
  std::fprintf(stderr, "serving model %s\n", engine.loaded_path().c_str());

  serve::ServerCounters counters;
  obs::LatencyHistogram latency;

  // One preallocated scratch per batch worker, reused across batches.
  std::vector<core::BootlegModel::InferenceScratch> scratch(
      static_cast<size_t>(batcher_options.workers < 1 ? 1
                                                      : batcher_options.workers));
  serve::MicroBatcher batcher(
      batcher_options,
      [&engine, &scratch](const std::vector<serve::BatchItem>& items,
                          int worker) {
        return engine.DisambiguateBatch(items,
                                        &scratch[static_cast<size_t>(worker)]);
      },
      [&engine] { return engine.Reload(); }, &counters);

  serve::Server server(&engine, &batcher, &counters, &latency, server_options);
  server.SetPollHook([&batcher] {
    if (g_reload_requested) {
      g_reload_requested = 0;
      batcher.RequestReload();
    }
  });

  // No SA_RESTART: SIGHUP must interrupt accept() so the poll hook runs.
  struct sigaction sa {};
  sa.sa_handler = OnSighup;
  sigaction(SIGHUP, &sa, nullptr);
  struct sigaction st {};
  st.sa_handler = OnTerm;
  sigaction(SIGINT, &st, nullptr);
  sigaction(SIGTERM, &st, nullptr);
  std::signal(SIGPIPE, SIG_IGN);

  if (use_stdin) {
    server.RunStdio(std::cin, std::cout);
    batcher.Shutdown();  // graceful drain of anything still queued
    return 0;
  }

  const util::Status st_start = server.Start(port);
  if (!st_start.ok()) {
    std::fprintf(stderr, "error: %s\n", st_start.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "listening on 127.0.0.1:%d\n", server.port());

  // Park until SIGINT/SIGTERM; SIGHUP reloads via the poll hook.
  sigset_t empty;
  sigemptyset(&empty);
  while (!g_shutdown_requested) {
    sigsuspend(&empty);
    if (g_reload_requested) {
      g_reload_requested = 0;
      batcher.RequestReload();
    }
  }
  std::fprintf(stderr, "shutting down: draining in-flight requests\n");
  server.Stop();
  batcher.Shutdown();
  return 0;
}
