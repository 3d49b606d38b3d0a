#include "accounting.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace repobench {

using bootleg::serve::Json;

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  const double n = static_cast<double>(samples.size());
  int64_t rank = static_cast<int64_t>(std::ceil(q * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(samples.size()));
  auto nth = samples.begin() + (rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kOk:
      return "ok";
    case Outcome::kOverloaded:
      return "overloaded";
    case Outcome::kDeadlineExceeded:
      return "deadline_exceeded";
    case Outcome::kBadRequest:
      return "bad_request";
    case Outcome::kOtherError:
      return "error";
    case Outcome::kMismatch:
      return "mismatch";
    case Outcome::kConnectionError:
      return "connection_error";
  }
  return "?";
}

Outcome OutcomeFromCode(const std::string& code) {
  if (code == "overloaded") return Outcome::kOverloaded;
  if (code == "deadline_exceeded") return Outcome::kDeadlineExceeded;
  if (code == "bad_request") return Outcome::kBadRequest;
  return Outcome::kOtherError;
}

void PhaseTally::Merge(const PhaseTally& other) {
  seconds += other.seconds;
  sent += other.sent;
  sentences_ok += other.sentences_ok;
  good_sentences += other.good_sentences;
  for (int i = 0; i < kNumOutcomes; ++i) {
    outcomes[static_cast<size_t>(i)] += other.outcomes[static_cast<size_t>(i)];
  }
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  lateness_ms.insert(lateness_ms.end(), other.lateness_ms.begin(),
                     other.lateness_ms.end());
}

int64_t PhaseTally::failed() const {
  int64_t n = 0;
  for (int i = 1; i < kNumOutcomes; ++i) n += outcomes[static_cast<size_t>(i)];
  return n;
}

std::string PhaseTally::Summary() const {
  std::string out = "phase " + name + ": sent " + std::to_string(sent) +
                    " ok " + std::to_string(ok()) + " failed " +
                    std::to_string(failed());
  for (int i = 1; i < kNumOutcomes; ++i) {
    out += std::string(" ") + OutcomeName(static_cast<Outcome>(i)) + " " +
           std::to_string(outcomes[static_cast<size_t>(i)]);
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                " | latency_ms n %zu p50 %.4f p90 %.4f p99 %.4f max %.4f"
                " | lateness_ms p99 %.4f max %.4f",
                latency_ms.size(), Percentile(latency_ms, 0.5),
                Percentile(latency_ms, 0.9), Percentile(latency_ms, 0.99),
                Percentile(latency_ms, 1.0), Percentile(lateness_ms, 0.99),
                Percentile(lateness_ms, 1.0));
  return out + buf;
}

double SpanF1::f1() const {
  if (gold == 0 || predicted == 0 || correct == 0) return 0.0;
  const double p = static_cast<double>(correct) / static_cast<double>(predicted);
  const double r = static_cast<double>(correct) / static_cast<double>(gold);
  return 2.0 * p * r / (p + r);
}

void AddSpanMatches(const std::vector<SpanEntity>& gold,
                    const std::vector<SpanEntity>& served, SpanF1* f1) {
  for (const SpanEntity& g : gold) {
    ++f1->gold;
    for (const SpanEntity& s : served) {
      if (s.start != g.start || s.end != g.end) continue;
      ++f1->predicted;
      if (s.entity == g.entity) ++f1->correct;
      break;
    }
  }
}

namespace {

const Json* Path(const Json& root, std::initializer_list<const char*> keys) {
  const Json* node = &root;
  for (const char* key : keys) {
    if (node == nullptr || !node->is_object()) return nullptr;
    node = node->Find(key);
  }
  return node;
}

}  // namespace

StatsValues ReadStats(const Json& reply,
                      const std::vector<std::string>& counters,
                      const std::vector<std::string>& histograms,
                      const std::vector<std::string>& spans) {
  StatsValues out;
  const Json* reg_counters = Path(reply, {"registry", "counters"});
  const Json* reg_gauges = Path(reply, {"registry", "gauges"});
  const Json* reg_hists = Path(reply, {"registry", "histograms"});
  for (const std::string& name : counters) {
    const Json* v = reply.Find(name);
    if (v == nullptr && reg_counters != nullptr) v = reg_counters->Find(name);
    if (v == nullptr && reg_gauges != nullptr) v = reg_gauges->Find(name);
    if (v != nullptr && v->is_number()) out[name] = v->number_value();
  }
  for (const std::string& name : histograms) {
    const Json* h = reg_hists != nullptr ? reg_hists->Find(name) : nullptr;
    if (h == nullptr || !h->is_object()) continue;
    const double count = h->GetNumber("count");
    out[name + "#count"] = count;
    out[name + "#sum_us"] = count * h->GetNumber("mean_us");
  }
  if (const Json* arr = reply.Find("spans"); arr != nullptr && arr->is_array()) {
    for (const Json& s : arr->array_items()) {
      const std::string name = s.GetString("span");
      if (std::find(spans.begin(), spans.end(), name) == spans.end()) continue;
      out[name + "#count"] = s.GetNumber("count");
      out[name + "#sum_us"] = s.GetNumber("total_us");
    }
  }
  return out;
}

StatsValues Delta(const StatsValues& after, const StatsValues& before) {
  StatsValues out = after;
  for (const auto& [key, value] : before) out[key] -= value;
  return out;
}

void Accumulate(StatsValues* total, const StatsValues& delta) {
  for (const auto& [key, value] : delta) (*total)[key] += value;
}

double Get(const StatsValues& values, const std::string& key) {
  const auto it = values.find(key);
  return it == values.end() ? 0.0 : it->second;
}

}  // namespace repobench
