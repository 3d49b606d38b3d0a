#ifndef BOOTLEG_SERVE_SERVER_H_
#define BOOTLEG_SERVE_SERVER_H_

#include <functional>
#include <istream>
#include <memory>
#include <ostream>
#include <string>

#include "net/front_end.h"
#include "obs/metrics.h"
#include "serve/batcher.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "util/status.h"

namespace bootleg::serve {

class Json;

/// Transport and admission knobs for the TCP front end (Start). HandleLine /
/// RunStdio ignore the transport fields but honor the admission watermark.
struct ServerOptions {
  int io_threads = 1;       // epoll event loops (loop 0 owns the listener)
  int max_conns = 4096;     // connections beyond this are refused
  size_t max_line_bytes = 1 << 20;   // request line cap; offenders disconnected
  size_t write_buf_bytes = 4 << 20;  // unread-reply cap; offenders disconnected
  int max_inflight_per_conn = 64;    // pipelined requests per connection
  /// Queue-depth admission watermark: disambiguate requests arriving while
  /// the batcher queue is at or beyond this depth get a structured
  /// {"code":"overloaded"} reply without enqueueing. 0 = the batcher's
  /// max_queue (admission collapses into queue-full backpressure).
  size_t admission_watermark = 0;
  /// Idle-connection reaper: connections with no activity and nothing in
  /// flight for this long are disconnected (counted in net.idle_disconnects).
  /// 0 disables the reaper.
  int idle_timeout_ms = 0;
};

/// Newline-delimited-JSON protocol layer over the micro-batcher. One request
/// object per line, one reply object per line:
///
///   {"op":"disambiguate","text":"...","deadline_ms":50}
///       → {"ok":true,"mentions":[...]}
///   {"op":"disambiguate_text","text":"...","deadline_ms":50}
///       → {"ok":true,"mentions":[...]} (raw text: sentence-split and
///         mention-extracted server-side; mentions carry document-level
///         token spans and a "sentence" index)
///   {"op":"health"}   → {"ok":true,"status":"serving",...}
///   {"op":"stats"}    → {"ok":true,"requests":...,...}
///   {"op":"reload"}   → {"ok":true} (same path as SIGHUP)
///   {"op":"add_entity","title":"...","coarse":"person","types":[...],
///    "relations":[{"relation":"...","object":"..."}],
///    "aliases":[{"alias":"...","prior":0.5}]}
///       → {"ok":true,"generation":N,...} (loopback peers only; induces an
///         embedding for the new entity and publishes a chained store
///         generation — see index/live_index.h)
///
/// Every failure is a structured reply carrying a machine-readable "code"
/// ("bad_request", "overloaded", "deadline_exceeded", "line_too_long",
/// "too_many_inflight", "server_full", "forbidden") next to the
/// human-readable "error" —
/// the connection survives and the process never crashes on client bytes.
///
/// Three transports share the protocol: the epoll net::FrontEnd (Start/Stop,
/// non-blocking, thousands of connections on --io_threads event loops), a
/// stdin/stdout loop (RunStdio), and direct HandleLine calls from tests.
///
/// `deadline_ms` is the client's latency budget, measured from request
/// parse. It propagates into the batcher, which sheds the request with
/// {"code":"deadline_exceeded"} if the budget expires while it is queued.
class Server : public net::LineHandler {
 public:
  Server(InferenceEngine* engine, MicroBatcher* batcher,
         ServerCounters* counters, obs::LatencyHistogram* latency,
         ServerOptions options = {});
  ~Server() override;

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Processes one request line into one reply line (no trailing newline),
  /// blocking until the reply is ready. Tests and RunStdio call it.
  std::string HandleLine(const std::string& line);

  /// net::LineHandler: non-blocking protocol entry for the epoll front end.
  /// Control ops complete synchronously; disambiguate completes from a
  /// batcher worker once its micro-batch (or shed decision) lands. The
  /// peer-less form treats the caller as loopback (stdio and in-process
  /// tests run with local privileges by construction).
  void HandleLineAsync(std::string line, Done done) override;
  /// Peer-aware entry the TCP transport uses; add_entity is authorized only
  /// for loopback peers.
  void HandleLineFrom(std::string line, const net::PeerInfo& peer,
                      Done done) override;
  std::string TransportErrorReply(net::TransportError error) override;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the epoll front end.
  util::Status Start(int port);
  /// Actual bound port (after Start with port 0).
  int port() const { return port_; }
  /// Stops accepting, closes every connection, joins the I/O threads.
  void Stop();

  /// Reads request lines from `in` until EOF, writing replies to `out`.
  void RunStdio(std::istream& in, std::ostream& out);

  /// Invoked between stdio requests; the serve tool uses it to translate
  /// the SIGHUP flag into a batcher reload request (signal handlers
  /// themselves must stay async-signal-safe). TCP-mode signals are handled
  /// on the tool's main thread — the I/O threads keep them blocked.
  void SetPollHook(std::function<void()> hook) { poll_hook_ = std::move(hook); }

 private:
  /// Admission + deadline parse + submit for one disambiguate request.
  /// `raw_text` marks the disambiguate_text op: the text is sentence-split
  /// and mention-extracted inside the engine instead of being treated as one
  /// pre-segmented sentence.
  void HandleDisambiguate(const Json& request, bool raw_text, Done done);
  /// Live index mutation: parses the entity spec (names resolved against the
  /// serving KB), then runs InferenceEngine::AddEntityLive through the
  /// batcher's exclusive lane. Loopback peers only.
  void HandleAddEntity(const Json& request, const net::PeerInfo& peer,
                       Done done);
  std::string HandleControl(const Json& request, const std::string& op);
  std::string StatsReply();

  InferenceEngine* const engine_;
  MicroBatcher* const batcher_;
  ServerCounters* const counters_;
  obs::LatencyHistogram* const latency_;
  const ServerOptions options_;
  std::function<void()> poll_hook_;

  int port_ = 0;
  std::unique_ptr<net::FrontEnd> front_end_;
};

}  // namespace bootleg::serve

#endif  // BOOTLEG_SERVE_SERVER_H_
