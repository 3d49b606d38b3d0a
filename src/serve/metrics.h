#ifndef BOOTLEG_SERVE_METRICS_H_
#define BOOTLEG_SERVE_METRICS_H_

#include <atomic>
#include <cstdint>

namespace bootleg::serve {

/// Counters every serving front end shares. Plain relaxed atomics: the
/// counters are monotonically increasing and read only for reporting.
/// Instance-local by design (benches and tests run several serving stacks in
/// one process and want independent zeros); the server's `stats` op
/// federates them with the global obs::MetricsRegistry + trace spans when it
/// builds the reply.
struct ServerCounters {
  std::atomic<int64_t> requests{0};        // disambiguate requests accepted
  std::atomic<int64_t> rejected{0};        // backpressure rejections
  std::atomic<int64_t> overloaded{0};      // admission-control rejections
  std::atomic<int64_t> shed{0};            // dequeued past their deadline
  std::atomic<int64_t> reclaimed{0};       // batches abandoned mid-compute
                                           // (subset of shed)
  std::atomic<int64_t> errors{0};          // malformed / failed requests
  std::atomic<int64_t> batches{0};         // micro-batches dispatched
  std::atomic<int64_t> batched_sentences{0};  // sentences across all batches
  std::atomic<int64_t> reloads{0};         // successful hot reloads

  double MeanBatchSize() const {
    const int64_t b = batches.load(std::memory_order_relaxed);
    return b == 0 ? 0.0
                  : static_cast<double>(
                        batched_sentences.load(std::memory_order_relaxed)) /
                        static_cast<double>(b);
  }
};

}  // namespace bootleg::serve

#endif  // BOOTLEG_SERVE_METRICS_H_
