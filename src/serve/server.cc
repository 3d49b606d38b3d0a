#include "serve/server.h"

#include <chrono>
#include <future>
#include <memory>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"
#include "util/logging.h"

namespace bootleg::serve {

namespace {

/// Every failure reply carries a machine-readable "code" so load-test
/// harnesses and clients can classify rejections without parsing prose.
std::string ErrorReply(const std::string& code, const std::string& what) {
  Json reply = Json::Object();
  reply.Set("ok", Json::Bool(false));
  reply.Set("code", Json::Str(code));
  reply.Set("error", Json::Str(what));
  return reply.Dump();
}

/// Maps a batcher status onto the wire code.
std::string StatusCodeString(const util::Status& status) {
  switch (status.code()) {
    case util::StatusCode::kUnavailable:
      return "overloaded";
    case util::StatusCode::kDeadlineExceeded:
      return "deadline_exceeded";
    default:
      return "error";
  }
}

std::string MentionsReply(const SentenceResult& result) {
  Json mentions = Json::Array();
  for (const ServedMention& m : result.mentions) {
    Json jm = Json::Object();
    jm.Set("alias", Json::Str(m.alias));
    Json span = Json::Array();
    span.Append(Json::Number(static_cast<double>(m.span_start)));
    span.Append(Json::Number(static_cast<double>(m.span_end)));
    jm.Set("span", std::move(span));
    jm.Set("entity", Json::Number(static_cast<double>(m.entity)));
    jm.Set("title", Json::Str(m.title));
    jm.Set("prior", Json::Number(static_cast<double>(m.prior)));
    jm.Set("candidates", Json::Number(static_cast<double>(m.num_candidates)));
    jm.Set("sentence", Json::Number(static_cast<double>(m.sentence_index)));
    mentions.Append(std::move(jm));
  }
  Json reply = Json::Object();
  reply.Set("ok", Json::Bool(true));
  reply.Set("mentions", std::move(mentions));
  return reply.Dump();
}

/// Parses an add_entity spec, resolving its type, relation and object names
/// against `kb`. Returns "" on success, else the bad_request message. An
/// optional field of the wrong JSON type is an error, never a default.
std::string ParseAddEntitySpec(const Json& request,
                               const kb::KnowledgeBase& kb,
                               index::DeltaEntity* spec) {
  spec->title = request.GetString("title");
  if (spec->title.empty()) return "add_entity requires a string \"title\"";

  const Json* coarse = request.Find("coarse");
  if (coarse != nullptr && !coarse->is_string()) {
    return "\"coarse\" must be a coarse type name";
  }
  const std::string coarse_name =
      coarse != nullptr ? coarse->string_value() : "miscellaneous";
  const auto coarse_id = kb::CoarseTypeFromName(coarse_name);
  if (!coarse_id.has_value()) {
    return "unknown coarse type \"" + coarse_name + "\"";
  }
  spec->coarse = *coarse_id;

  const Json* gender = request.Find("gender");
  const std::string gender_name =
      gender == nullptr ? "n" : gender->is_string() ? gender->string_value() : "";
  if (gender_name != "m" && gender_name != "f" && gender_name != "n") {
    return "\"gender\" must be \"m\", \"f\" or \"n\"";
  }
  spec->gender = gender_name[0];

  if (const Json* types = request.Find("types"); types != nullptr) {
    if (!types->is_array()) return "\"types\" must be an array of type names";
    for (const Json& t : types->array_items()) {
      if (!t.is_string()) return "\"types\" must be an array of type names";
      const kb::TypeId id = kb.FindTypeByName(t.string_value());
      if (id == kb::kInvalidId) {
        return "unknown type \"" + t.string_value() + "\"";
      }
      spec->types.push_back(id);
    }
  }

  if (const Json* rels = request.Find("relations"); rels != nullptr) {
    if (!rels->is_array()) {
      return "\"relations\" must be an array of {relation, object} objects";
    }
    for (const Json& r : rels->array_items()) {
      if (!r.is_object()) {
        return "\"relations\" entries must be {relation, object} objects";
      }
      const std::string rel_name = r.GetString("relation");
      const kb::RelationId rel = kb.FindRelationByName(rel_name);
      if (rel == kb::kInvalidId) return "unknown relation \"" + rel_name + "\"";
      const std::string obj_title = r.GetString("object");
      const kb::EntityId obj = kb.FindByTitle(obj_title);
      if (obj == kb::kInvalidId) {
        return "unknown object entity \"" + obj_title + "\"";
      }
      spec->triples.push_back({rel, obj});
    }
  }

  if (const Json* aliases = request.Find("aliases"); aliases != nullptr) {
    if (!aliases->is_array()) {
      return "\"aliases\" must be an array of {alias, prior} objects";
    }
    for (const Json& a : aliases->array_items()) {
      if (!a.is_object() || a.GetString("alias").empty()) {
        return "\"aliases\" entries must be {alias, prior} objects";
      }
      index::DeltaAlias da;
      da.alias = a.GetString("alias");
      if (const Json* prior = a.Find("prior"); prior != nullptr) {
        if (!prior->is_number()) {
          return "\"prior\" of alias \"" + da.alias + "\" must be a number";
        }
        da.prior = static_cast<float>(prior->number_value());
      }
      spec->aliases.push_back(std::move(da));
    }
  }
  // Minimal usable spec: the title itself is the alias.
  if (spec->aliases.empty()) spec->aliases.push_back({spec->title, 0.5f});
  return "";
}

}  // namespace

Server::Server(InferenceEngine* engine, MicroBatcher* batcher,
               ServerCounters* counters, obs::LatencyHistogram* latency,
               ServerOptions options)
    : engine_(engine),
      batcher_(batcher),
      counters_(counters),
      latency_(latency),
      options_(options) {}

Server::~Server() { Stop(); }

std::string Server::HandleLine(const std::string& line) {
  // Blocking façade over the async path so stdio and tests share the exact
  // protocol (admission control and deadline shedding included).
  auto promise = std::make_shared<std::promise<std::string>>();
  std::future<std::string> future = promise->get_future();
  HandleLineAsync(line,
                  [promise](std::string reply) { promise->set_value(std::move(reply)); });
  return future.get();
}

void Server::HandleLineAsync(std::string line, Done done) {
  // Peer-less transports (stdio, in-process tests) carry local privileges.
  net::PeerInfo loopback;
  loopback.loopback = true;
  loopback.address = "stdio";
  HandleLineFrom(std::move(line), loopback, std::move(done));
}

void Server::HandleLineFrom(std::string line, const net::PeerInfo& peer,
                            Done done) {
  OBS_SPAN("serve.request");
  util::StatusOr<Json> parsed = Json::Parse(line);
  if (!parsed.ok()) {
    if (counters_ != nullptr) {
      counters_->errors.fetch_add(1, std::memory_order_relaxed);
    }
    done(ErrorReply("bad_request",
                    "bad request: " + parsed.status().ToString()));
    return;
  }
  const Json& request = parsed.value();
  if (!request.is_object()) {
    if (counters_ != nullptr) {
      counters_->errors.fetch_add(1, std::memory_order_relaxed);
    }
    done(ErrorReply("bad_request", "bad request: expected a JSON object"));
    return;
  }
  const std::string op = request.GetString("op");
  if (op == "disambiguate") {
    HandleDisambiguate(request, /*raw_text=*/false, std::move(done));
    return;
  }
  if (op == "disambiguate_text") {
    HandleDisambiguate(request, /*raw_text=*/true, std::move(done));
    return;
  }
  if (op == "add_entity") {
    HandleAddEntity(request, peer, std::move(done));
    return;
  }
  done(HandleControl(request, op));
}

void Server::HandleDisambiguate(const Json& request, bool raw_text,
                                Done done) {
  const Json* text = request.Find("text");
  if (text == nullptr || !text->is_string()) {
    if (counters_ != nullptr) {
      counters_->errors.fetch_add(1, std::memory_order_relaxed);
    }
    done(ErrorReply("bad_request",
                    "disambiguate requires a string \"text\" field"));
    return;
  }

  // Optional client latency budget, milliseconds from now. The budget rides
  // into the batcher queue; if it expires before dispatch the request is
  // shed instead of batched.
  auto deadline = MicroBatcher::kNoDeadline;
  if (const Json* dl = request.Find("deadline_ms"); dl != nullptr) {
    if (!dl->is_number() || dl->number_value() <= 0) {
      if (counters_ != nullptr) {
        counters_->errors.fetch_add(1, std::memory_order_relaxed);
      }
      done(ErrorReply("bad_request",
                      "\"deadline_ms\" must be a positive number"));
      return;
    }
    deadline = std::chrono::steady_clock::now() +
               std::chrono::microseconds(
                   static_cast<int64_t>(dl->number_value() * 1000.0));
  }

  // Admission control: when the batcher queue is already at the watermark,
  // refuse up front with a structured reply instead of queueing work the
  // server cannot finish in time. Cheaper than a shed (no queue churn) and
  // an unambiguous back-off signal for clients.
  const size_t watermark = options_.admission_watermark != 0
                               ? options_.admission_watermark
                               : batcher_->max_queue();
  if (batcher_->queue_depth() >= watermark) {
    if (counters_ != nullptr) {
      counters_->overloaded.fetch_add(1, std::memory_order_relaxed);
    }
    done(ErrorReply("overloaded",
                    "admission control: queue depth at watermark (" +
                        std::to_string(watermark) + "); retry later"));
    return;
  }

  const auto start = std::chrono::steady_clock::now();
  obs::LatencyHistogram* latency = latency_;
  batcher_->SubmitAsync(
      text->string_value(), raw_text, deadline,
      [latency, start, done = std::move(done)](
          util::StatusOr<SentenceResult> result) {
        if (latency != nullptr) {
          latency->Record(
              std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count());
        }
        if (!result.ok()) {
          done(ErrorReply(StatusCodeString(result.status()),
                          result.status().ToString()));
          return;
        }
        done(MentionsReply(result.value()));
      });
}

void Server::HandleAddEntity(const Json& request, const net::PeerInfo& peer,
                             Done done) {
  // Authorization is transport-level: only a peer the kernel says is
  // loopback (or an in-process/stdio caller) may mutate the index.
  if (!peer.loopback) {
    if (counters_ != nullptr) {
      counters_->errors.fetch_add(1, std::memory_order_relaxed);
    }
    done(ErrorReply("forbidden",
                    "add_entity is restricted to loopback peers (peer \"" +
                        peer.address + "\")"));
    return;
  }
  if (engine_ == nullptr) {
    done(ErrorReply("error", "add_entity requires a serving engine"));
    return;
  }

  // The spec is parsed, and its type, relation and object names resolved,
  // inside the batcher's exclusive lane, like the mutation itself: every
  // other add (and every reload) rewrites the KB there, so this connection
  // thread must not read it. No batch is in flight while the KB, candidate
  // map and store view change, and concurrent requests order around it.
  InferenceEngine* engine = engine_;
  ServerCounters* counters = counters_;
  auto bad_spec = std::make_shared<std::string>();
  batcher_->SubmitExclusive(
      [engine, request, bad_spec] {
        index::DeltaEntity spec;
        *bad_spec = ParseAddEntitySpec(request, engine->kb(), &spec);
        if (!bad_spec->empty()) return util::Status::InvalidArgument(*bad_spec);
        return engine->AddEntityLive(std::move(spec));
      },
      [engine, counters, bad_spec, done = std::move(done)](util::Status st) {
        if (!st.ok()) {
          if (counters != nullptr) {
            counters->errors.fetch_add(1, std::memory_order_relaxed);
          }
          if (!bad_spec->empty()) {
            done(ErrorReply("bad_request", *bad_spec));
            return;
          }
          const util::StatusCode code = st.code();
          const bool client_fault =
              code == util::StatusCode::kInvalidArgument ||
              code == util::StatusCode::kNotFound ||
              code == util::StatusCode::kFailedPrecondition;
          done(ErrorReply(client_fault ? "bad_request" : "error",
                          st.ToString()));
          return;
        }
        Json reply = Json::Object();
        reply.Set("ok", Json::Bool(true));
        reply.Set("status", Json::Str("entity added"));
        reply.Set("generation",
                  Json::Number(static_cast<double>(engine->store_generation())));
        reply.Set("induced_entities",
                  Json::Number(static_cast<double>(engine->induced_entities())));
        done(reply.Dump());
      });
}

std::string Server::HandleControl(const Json& request, const std::string& op) {
  (void)request;
  if (op == "health") {
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("status", Json::Str("serving"));
    reply.Set("model",
              Json::Str(engine_ != nullptr ? engine_->loaded_path() : ""));
    return reply.Dump();
  }
  if (op == "stats") return StatsReply();
  if (op == "reload") {
    batcher_->RequestReload();
    Json reply = Json::Object();
    reply.Set("ok", Json::Bool(true));
    reply.Set("status", Json::Str("reload requested"));
    return reply.Dump();
  }
  if (counters_ != nullptr) {
    counters_->errors.fetch_add(1, std::memory_order_relaxed);
  }
  return ErrorReply("bad_request", "unknown op: \"" + op + "\"");
}

std::string Server::StatsReply() {
  Json reply = Json::Object();
  reply.Set("ok", Json::Bool(true));
  if (counters_ != nullptr) {
    reply.Set("requests", Json::Number(static_cast<double>(
                              counters_->requests.load(std::memory_order_relaxed))));
    reply.Set("rejected", Json::Number(static_cast<double>(
                              counters_->rejected.load(std::memory_order_relaxed))));
    reply.Set("overloaded",
              Json::Number(static_cast<double>(
                  counters_->overloaded.load(std::memory_order_relaxed))));
    reply.Set("shed", Json::Number(static_cast<double>(
                          counters_->shed.load(std::memory_order_relaxed))));
    reply.Set("reclaimed",
              Json::Number(static_cast<double>(
                  counters_->reclaimed.load(std::memory_order_relaxed))));
    reply.Set("errors", Json::Number(static_cast<double>(
                            counters_->errors.load(std::memory_order_relaxed))));
    reply.Set("batches", Json::Number(static_cast<double>(
                             counters_->batches.load(std::memory_order_relaxed))));
    reply.Set("mean_batch", Json::Number(counters_->MeanBatchSize()));
    reply.Set("reloads", Json::Number(static_cast<double>(
                             counters_->reloads.load(std::memory_order_relaxed))));
  }
  if (latency_ != nullptr) {
    Json lat = Json::Object();
    lat.Set("count", Json::Number(static_cast<double>(latency_->count())));
    lat.Set("mean_us", Json::Number(latency_->MeanUs()));
    lat.Set("p50_us", Json::Number(static_cast<double>(latency_->PercentileUs(0.50))));
    lat.Set("p95_us", Json::Number(static_cast<double>(latency_->PercentileUs(0.95))));
    lat.Set("p99_us", Json::Number(static_cast<double>(latency_->PercentileUs(0.99))));
    reply.Set("latency", std::move(lat));
  }

  // Transport health: the front end's own counters, plus connection gauges
  // mirrored into the global registry so `--trace_out` exports see them.
  if (front_end_ != nullptr) {
    const net::FrontEndStats fs = front_end_->stats();
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("serve.connections")
        ->Set(static_cast<double>(fs.active_connections));
    registry.GetGauge("serve.accepted_total")
        ->Set(static_cast<double>(fs.accepted));
    Json jnet = Json::Object();
    jnet.Set("connections",
             Json::Number(static_cast<double>(fs.active_connections)));
    jnet.Set("accepted", Json::Number(static_cast<double>(fs.accepted)));
    jnet.Set("rejected_connections",
             Json::Number(static_cast<double>(fs.rejected_connections)));
    jnet.Set("accept_errors",
             Json::Number(static_cast<double>(fs.accept_errors)));
    jnet.Set("overlong_line_disconnects",
             Json::Number(static_cast<double>(fs.overlong_line_disconnects)));
    jnet.Set("slow_client_disconnects",
             Json::Number(static_cast<double>(fs.slow_client_disconnects)));
    jnet.Set("idle_disconnects",
             Json::Number(static_cast<double>(fs.idle_disconnects)));
    registry.GetGauge("net.idle_disconnects")
        ->Set(static_cast<double>(fs.idle_disconnects));
    reply.Set("net", std::move(jnet));
  }

  // Process-wide observability: the metrics registry federated with this
  // server's own counters (which stay instance-local so multiple servers
  // in one process — as in tests and benches — never share request counts).
  const obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  Json jregistry = Json::Object();
  Json jcounters = Json::Object();
  for (const auto& [name, value] : registry.CounterValues()) {
    jcounters.Set(name, Json::Number(static_cast<double>(value)));
  }
  jregistry.Set("counters", std::move(jcounters));
  Json jgauges = Json::Object();
  for (const auto& [name, value] : registry.GaugeValues()) {
    jgauges.Set(name, Json::Number(value));
  }
  jregistry.Set("gauges", std::move(jgauges));
  Json jhists = Json::Object();
  for (const auto& [name, snap] : registry.HistogramValues()) {
    Json jh = Json::Object();
    jh.Set("count", Json::Number(static_cast<double>(snap.count)));
    jh.Set("mean_us", Json::Number(snap.mean_us));
    jh.Set("p50_us", Json::Number(static_cast<double>(snap.p50_us)));
    jh.Set("p95_us", Json::Number(static_cast<double>(snap.p95_us)));
    jh.Set("p99_us", Json::Number(static_cast<double>(snap.p99_us)));
    jhists.Set(name, std::move(jh));
  }
  jregistry.Set("histograms", std::move(jhists));
  reply.Set("registry", std::move(jregistry));

  Json jspans = Json::Array();
  for (const obs::SpanSummary& s : obs::Trace::Summaries()) {
    Json js = Json::Object();
    js.Set("span", Json::Str(s.name));
    js.Set("count", Json::Number(static_cast<double>(s.count)));
    js.Set("total_us", Json::Number(static_cast<double>(s.total_us)));
    js.Set("mean_us", Json::Number(s.mean_us));
    js.Set("p50_us", Json::Number(static_cast<double>(s.p50_us)));
    js.Set("p95_us", Json::Number(static_cast<double>(s.p95_us)));
    js.Set("p99_us", Json::Number(static_cast<double>(s.p99_us)));
    js.Set("max_us", Json::Number(static_cast<double>(s.max_us)));
    jspans.Append(std::move(js));
  }
  reply.Set("spans", std::move(jspans));

  reply.Set("model",
            Json::Str(engine_ != nullptr ? engine_->loaded_path() : ""));

  if (engine_ != nullptr) {
    // Embedding-store deployments report the serving generation so reload
    // drills can confirm a SIGHUP swap landed without dropping requests.
    // The shared_ptr snapshot pins the mapped generation for the duration of
    // this reply even if the batcher swaps in a newer one mid-read.
    const auto [es, store_generation] = engine_->store_snapshot();
    if (es != nullptr) {
      Json jstore = Json::Object();
      jstore.Set("generation",
                 Json::Number(static_cast<double>(store_generation)));
      jstore.Set("resident_shards",
                 Json::Number(static_cast<double>(es->num_shards())));
      jstore.Set("mapped_bytes",
                 Json::Number(static_cast<double>(es->mapped_bytes())));
      jstore.Set("dir", Json::Str(es->dir()));
      if (const store::TableInfo* t = es->FindTable("static")) {
        jstore.Set("dtype", Json::Str(store::DtypeName(t->dtype)));
        jstore.Set("quant_max_abs_error", Json::Number(t->max_abs_error));
      }
      jstore.Set("induced_entities",
                 Json::Number(static_cast<double>(engine_->induced_entities())));
      jstore.Set("auto_compactions",
                 Json::Number(static_cast<double>(engine_->auto_compactions())));
      // Hot-set residency rows (present only under --resident_budget_mb):
      // the advised resident set next to the mapped ceiling above, plus the
      // advisory event counters.
      if (es->residency() != nullptr) {
        const store::ResidencyStats rs = es->residency_stats();
        jstore.Set("resident_budget_bytes",
                   Json::Number(static_cast<double>(rs.budget_bytes)));
        jstore.Set("resident_bytes",
                   Json::Number(static_cast<double>(rs.resident_bytes)));
        jstore.Set("resident_set_shards",
                   Json::Number(static_cast<double>(rs.resident_shards)));
        jstore.Set("prefetch_issued",
                   Json::Number(static_cast<double>(rs.prefetch_issued)));
        jstore.Set("evictions",
                   Json::Number(static_cast<double>(rs.evictions)));
        jstore.Set("cold_faults",
                   Json::Number(static_cast<double>(rs.cold_faults)));
        jstore.Set("sweeps", Json::Number(static_cast<double>(rs.sweeps)));
      }
      reply.Set("store", std::move(jstore));
    }
  }
  return reply.Dump();
}

std::string Server::TransportErrorReply(net::TransportError error) {
  switch (error) {
    case net::TransportError::kLineTooLong:
      if (counters_ != nullptr) {
        counters_->errors.fetch_add(1, std::memory_order_relaxed);
      }
      return ErrorReply("line_too_long",
                        "request line exceeds " +
                            std::to_string(options_.max_line_bytes) +
                            " bytes; closing connection");
    case net::TransportError::kTooManyInflight:
      if (counters_ != nullptr) {
        counters_->overloaded.fetch_add(1, std::memory_order_relaxed);
      }
      return ErrorReply("too_many_inflight",
                        "per-connection pipeline cap (" +
                            std::to_string(options_.max_inflight_per_conn) +
                            " in flight) exceeded; request dropped");
    case net::TransportError::kServerFull:
      return ErrorReply("server_full",
                        "connection limit (" +
                            std::to_string(options_.max_conns) +
                            ") reached; try again later");
  }
  return ErrorReply("error", "transport error");
}

util::Status Server::Start(int port) {
  net::FrontEndOptions fopts;
  fopts.port = port;
  fopts.io_threads = options_.io_threads;
  fopts.max_conns = options_.max_conns;
  fopts.max_line_bytes = options_.max_line_bytes;
  fopts.write_buf_bytes = options_.write_buf_bytes;
  fopts.max_inflight_per_conn = options_.max_inflight_per_conn;
  fopts.idle_timeout_ms = options_.idle_timeout_ms;
  front_end_ = std::make_unique<net::FrontEnd>(fopts, this);
  const util::Status st = front_end_->Start();
  if (!st.ok()) {
    front_end_.reset();
    return st;
  }
  port_ = front_end_->port();
  return util::Status::OK();
}

void Server::Stop() {
  if (front_end_ != nullptr) front_end_->Stop();
}

void Server::RunStdio(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    if (poll_hook_) poll_hook_();
    if (line.empty()) continue;
    out << HandleLine(line) << "\n";
    out.flush();
  }
}

}  // namespace bootleg::serve
