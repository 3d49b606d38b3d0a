#ifndef BOOTLEG_OBS_TRACE_H_
#define BOOTLEG_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"
#include "util/status.h"

namespace bootleg::obs {

/// Aggregated wall-time statistics for one named trace stage: a latency
/// histogram (count/sum/percentiles) plus the worst single span. Record() is
/// thread-safe and wait-free, so spans may close concurrently on any thread.
class StageStats {
 public:
  explicit StageStats(std::string name) : name_(std::move(name)) {}

  void Record(int64_t us);

  const std::string& name() const { return name_; }
  const LatencyHistogram& histogram() const { return hist_; }
  int64_t count() const { return hist_.count(); }
  int64_t total_us() const { return hist_.sum_us(); }
  int64_t max_us() const { return max_us_.load(std::memory_order_relaxed); }

  void Reset();

 private:
  const std::string name_;
  LatencyHistogram hist_;
  std::atomic<int64_t> max_us_{0};
};

/// One row of the per-stage trace report.
struct SpanSummary {
  std::string name;
  int64_t count = 0;
  int64_t total_us = 0;
  double mean_us = 0.0;
  int64_t p50_us = 0;
  int64_t p95_us = 0;
  int64_t p99_us = 0;
  int64_t max_us = 0;

  /// The row as one compact JSON object (the `--trace_out` JSONL format).
  std::string ToJson() const;
};

/// Process-wide trace-span aggregator. Tracing is off by default; every
/// OBS_SPAN call site caches its StageStats pointer in a function-local
/// static, so a disabled span costs one relaxed atomic load and a branch —
/// cheap enough to leave compiled into every hot path.
///
/// Stage names are dot-scoped, lowercase, subsystem-first, matching the
/// metrics registry scheme: `train.epoch`, `infer.encode`, `serve.request`.
class Trace {
 public:
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }
  static void Enable(bool on) {
    enabled_flag().store(on, std::memory_order_relaxed);
  }

  /// Stable stats slot for `name`, created on first use; never removed, so
  /// call sites may cache the pointer for the process lifetime.
  static StageStats* Stage(const std::string& name);

  /// Sorted per-stage summaries of everything recorded so far (stages with
  /// zero spans are omitted).
  static std::vector<SpanSummary> Summaries();

  /// Writes Summaries() as JSON-lines, one stage per line, via an atomic
  /// temp+rename so a crash never leaves a torn trace file.
  static util::Status WriteJsonl(const std::string& path);

  /// Zeroes every stage in place; pointers cached at call sites stay valid.
  static void Reset();

 private:
  static std::atomic<bool>& enabled_flag();
};

/// RAII scope timing one span. Reads the clock only when tracing is enabled
/// at entry; a span that straddles an Enable/Disable flip is recorded iff
/// tracing was on when it opened.
class SpanScope {
 public:
  explicit SpanScope(StageStats* stats)
      : stats_(Trace::enabled() ? stats : nullptr) {
    if (stats_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~SpanScope() {
    if (stats_ == nullptr) return;
    stats_->Record(std::chrono::duration_cast<std::chrono::microseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count());
  }

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  StageStats* const stats_;
  std::chrono::steady_clock::time_point start_;
};

#define BOOTLEG_OBS_CONCAT_INNER(a, b) a##b
#define BOOTLEG_OBS_CONCAT(a, b) BOOTLEG_OBS_CONCAT_INNER(a, b)

/// Times the rest of the enclosing scope under stage `name` (a string
/// literal). The stage lookup happens once per call site; afterwards a
/// disabled span is one atomic load + branch.
#define OBS_SPAN(name) OBS_SPAN_IF(true, name)

/// OBS_SPAN that records only when `cond` holds, e.g. in one instantiation
/// of a template (parenthesize a condition that contains a comma).
#define OBS_SPAN_IF(cond, name)                                             \
  static ::bootleg::obs::StageStats* BOOTLEG_OBS_CONCAT(                    \
      bootleg_obs_stage_, __LINE__) = ::bootleg::obs::Trace::Stage(name);   \
  ::bootleg::obs::SpanScope BOOTLEG_OBS_CONCAT(bootleg_obs_span_, __LINE__)( \
      (cond) ? BOOTLEG_OBS_CONCAT(bootleg_obs_stage_, __LINE__) : nullptr)

}  // namespace bootleg::obs

#endif  // BOOTLEG_OBS_TRACE_H_
