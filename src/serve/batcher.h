#ifndef BOOTLEG_SERVE_BATCHER_H_
#define BOOTLEG_SERVE_BATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "serve/inference_engine.h"
#include "serve/metrics.h"
#include "util/status.h"

namespace bootleg::serve {

/// Policy knobs for work-conserving micro-batching.
struct BatcherOptions {
  /// Largest batch one dispatch may take from the queue (below 1 means 1).
  int max_batch = 8;
  /// Bounded queue depth; Submit rejects with Unavailable beyond this.
  size_t max_queue = 64;
  /// Consumer threads pulling batches. Each worker owns one preallocated
  /// InferenceScratch; the tensor kernels inside a batch additionally fan
  /// out onto the global util::ThreadPool. Below 1 means 1.
  int workers = 1;
};

/// Work-conserving micro-batcher: a bounded MPMC queue of single-sentence
/// requests that worker threads drain in batches.
///
///   - Dispatch: a free worker takes whatever is queued, up to max_batch,
///     and runs it at once; no worker ever idles while a request waits. A
///     lone request on an idle server runs alone, without waiting for
///     siblings. Batches form only from requests that queued while every
///     worker was busy, so batch size grows with load on its own. There is
///     no coalescing timer: at saturation the queue already fills batches,
///     and below it a timer only adds its full window to every request.
///   - Backpressure: Submit returns an Unavailable future immediately when
///     max_queue requests are already waiting; the connection thread turns
///     that into a reject-with-status reply instead of queueing unboundedly.
///   - Deadline shedding: a request carrying a deadline that expires while it
///     waits in the queue is completed with DeadlineExceeded at dequeue time
///     instead of burning a batch slot — under overload the server spends
///     compute only on replies a client still wants. Shed requests count in
///     ServerCounters::shed and the `serve.shed` registry counter; dispatched
///     deadline-bearing requests record their remaining slack in the
///     `serve.deadline_slack_us` histogram.
///   - Hot reload: RequestReload() marks a flag; the next worker to start a
///     batch performs the engine reload while holding the exclusive side of
///     a shared mutex, so weights never change under an in-flight batch.
///   - Graceful drain: Shutdown() stops intake, lets workers finish every
///     request already accepted, then joins them. Every accepted future is
///     fulfilled; nothing is dropped.
///
/// The batch function is injectable so tests can drive the queueing logic
/// with a synthetic (blockable) stand-in; production wires it to
/// InferenceEngine::Disambiguate.
class MicroBatcher {
 public:
  /// Processes a batch of items (pre-segmented sentences and raw documents
  /// mixed); must return one result per item — or an empty vector to signal
  /// the batch was abandoned because every member's deadline expired
  /// mid-compute (only meaningful when every item carries a deadline; the
  /// batcher completes such members with DeadlineExceeded and counts them as
  /// reclaimed sheds).
  using BatchFn = std::function<std::vector<SentenceResult>(
      const std::vector<BatchItem>& items, int worker)>;
  /// Performed under exclusive lock when a reload was requested.
  using ReloadFn = std::function<util::Status()>;
  /// Completion for one request: the result, or the shed/reject status.
  /// Invoked exactly once, from the submitting thread (fast-path rejects) or
  /// a worker thread; must not block.
  using Callback = std::function<void(util::StatusOr<SentenceResult>)>;

  /// Sentinel for requests without a deadline (never shed).
  static constexpr std::chrono::steady_clock::time_point kNoDeadline =
      std::chrono::steady_clock::time_point::max();

  MicroBatcher(BatcherOptions options, BatchFn batch_fn, ReloadFn reload_fn,
               ServerCounters* counters);
  ~MicroBatcher();

  MicroBatcher(const MicroBatcher&) = delete;
  MicroBatcher& operator=(const MicroBatcher&) = delete;

  /// Enqueues one sentence. The future resolves when its batch completes.
  /// Fails fast with Unavailable (queue full) or FailedPrecondition (after
  /// Shutdown) — in both cases the future is already resolved on return.
  std::future<util::StatusOr<SentenceResult>> Submit(std::string text);

  /// Callback form used by the non-blocking front end. `done` may be invoked
  /// synchronously (queue full, shutting down, deadline already past) or
  /// later from a worker thread. A request whose `deadline` passes while it
  /// waits in the queue is shed with DeadlineExceeded instead of batched.
  /// `raw_text` marks a raw document (`disambiguate_text`): it is sentence-
  /// split and mention-extracted inside the engine rather than treated as
  /// one pre-segmented sentence.
  void SubmitAsync(std::string text,
                   std::chrono::steady_clock::time_point deadline,
                   Callback done);
  void SubmitAsync(std::string text, bool raw_text,
                   std::chrono::steady_clock::time_point deadline,
                   Callback done);

  /// Current queued (not yet dispatched) request count; the server's
  /// admission-control watermark reads this.
  size_t queue_depth() const;

  /// Configured queue bound (the default admission watermark).
  size_t max_queue() const { return options_.max_queue; }

  /// Asks the next batch boundary to run the reload hook.
  void RequestReload();

  /// A mutation run under the exclusive side of the reload mutex.
  using ExclusiveFn = std::function<util::Status()>;
  /// Completion for an exclusive task; invoked exactly once, from a worker
  /// thread (or the submitting thread when rejected); must not block.
  using ExclusiveDone = std::function<void(util::Status)>;

  /// Queues a mutation to run at the next batch boundary while every worker
  /// is excluded — the serialization point for live index mutations
  /// (add_entity): the engine's KB/candidate map/store view never change
  /// under an in-flight batch. Tasks run in submission order, interleaved
  /// with (and ordered against) reload requests. Rejected with
  /// FailedPrecondition after Shutdown; tasks accepted before Shutdown are
  /// drained, never dropped.
  void SubmitExclusive(ExclusiveFn fn, ExclusiveDone done);

  /// Stops intake, drains every accepted request, joins workers. Idempotent.
  void Shutdown();

  /// Largest batch dispatched so far (tests of the batching policy).
  int64_t max_batch_observed() const;

 private:
  struct Request {
    std::string text;
    bool raw_text = false;
    Callback done;
    std::chrono::steady_clock::time_point enqueued;
    std::chrono::steady_clock::time_point deadline = kNoDeadline;
  };

  void WorkerLoop(int worker);
  void RunBatch(std::vector<Request> batch, int worker);

  const BatcherOptions options_;
  const BatchFn batch_fn_;
  const ReloadFn reload_fn_;
  ServerCounters* const counters_;
  // Registry-owned (never deallocated), so the raw pointers are always valid.
  obs::LatencyHistogram* const queue_wait_hist_;
  obs::LatencyHistogram* const deadline_slack_hist_;
  obs::Gauge* const queue_depth_gauge_;
  obs::Counter* const shed_counter_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  std::deque<std::pair<ExclusiveFn, ExclusiveDone>> exclusive_;
  bool stopping_ = false;
  bool reload_requested_ = false;
  int64_t max_batch_observed_ = 0;

  // Workers hold the shared side while running a batch; a reload takes the
  // exclusive side, so it can never overlap inference.
  std::shared_mutex reload_mu_;

  std::vector<std::thread> workers_;
};

}  // namespace bootleg::serve

#endif  // BOOTLEG_SERVE_BATCHER_H_
