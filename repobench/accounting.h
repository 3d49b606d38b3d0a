#ifndef REPOBENCH_ACCOUNTING_H_
#define REPOBENCH_ACCOUNTING_H_

// Sample and outcome accounting for the repo benchmark: exact percentiles
// from raw samples, per-phase sent/ok/failed tallies split by failure code,
// span-matched F1 of served mentions, and deltas between two `stats`
// snapshots of a running server.

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "serve/json.h"

namespace repobench {

/// Exact nearest-rank percentile of raw samples: the ⌈q·n⌉-th smallest value
/// (rank clamped to [1, n]). Returns 0 for an empty sample set.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// How one sent request ended, from the client's point of view.
enum class Outcome {
  kOk = 0,             // ok reply that matches the oracle
  kOverloaded,         // {"code":"overloaded"}
  kDeadlineExceeded,   // {"code":"deadline_exceeded"}
  kBadRequest,         // {"code":"bad_request"}
  kOtherError,         // any other failure code, or an unparsable reply
  kMismatch,           // ok reply that differs from the oracle
  kConnectionError,    // no reply: connection lost, or still unanswered
};
inline constexpr int kNumOutcomes = 7;
const char* OutcomeName(Outcome outcome);
/// Maps a failure reply's "code" field onto an outcome.
Outcome OutcomeFromCode(const std::string& code);

/// Everything one load phase produced. Latencies are of ok replies, in
/// milliseconds from the request's scheduled send time; lateness is how far
/// behind its schedule the generator actually sent.
struct PhaseTally {
  std::string name;
  double seconds = 0.0;      // scheduled phase duration
  int64_t sent = 0;
  int64_t sentences_ok = 0;  // sentences carried by ok replies
  int64_t good_sentences = 0;  // ok, within the latency limit, before the end
  std::array<int64_t, kNumOutcomes> outcomes{};
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;

  void Record(Outcome outcome) {
    ++outcomes[static_cast<size_t>(outcome)];
  }
  /// Pools another tally (a later slice of the same phase) into this one.
  void Merge(const PhaseTally& other);
  int64_t ok() const { return outcomes[0]; }
  int64_t failed() const;  // every non-ok outcome
  /// One human-readable line: counts by outcome, exact latency percentiles
  /// (p99 and max are ungated context) and generator lateness.
  std::string Summary() const;
};

/// Micro-averaged span-matched F1 of served mentions against gold mentions:
/// a gold mention is correct when a served mention has exactly its span and
/// entity; served mentions on non-gold spans are ignored (the server
/// extracts every alias, the gold set labels only some).
struct SpanF1 {
  int64_t gold = 0;       // gold mentions
  int64_t predicted = 0;  // served mentions on a gold span
  int64_t correct = 0;    // ... whose entity is the gold one
  double f1() const;
};
struct SpanEntity {
  int64_t start = 0;
  int64_t end = 0;
  int64_t entity = -1;
};
void AddSpanMatches(const std::vector<SpanEntity>& gold,
                    const std::vector<SpanEntity>& served, SpanF1* f1);

/// Named numbers read out of one `stats` reply: counters (top-level and
/// registry), registry gauges, histogram count/sum, span count/total. Keys
/// are `name` for counters and gauges, `name#count` / `name#sum_us` for
/// histograms and spans. Only the names asked for are read.
using StatsValues = std::map<std::string, double>;
StatsValues ReadStats(const bootleg::serve::Json& reply,
                      const std::vector<std::string>& counters,
                      const std::vector<std::string>& histograms,
                      const std::vector<std::string>& spans);
/// after − before, per key (missing keys read as 0). Gauges subtract too;
/// callers read gauges from `after` directly.
StatsValues Delta(const StatsValues& after, const StatsValues& before);
/// total += delta, per key.
void Accumulate(StatsValues* total, const StatsValues& delta);
/// Value of `key` or 0.
double Get(const StatsValues& values, const std::string& key);

}  // namespace repobench

#endif  // REPOBENCH_ACCOUNTING_H_
