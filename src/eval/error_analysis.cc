#include "eval/error_analysis.h"

#include <cctype>

#include "util/string_util.h"

namespace bootleg::eval {

const char* ErrorBucketName(ErrorBucket b) {
  switch (b) {
    case ErrorBucket::kGranularity:
      return "Granularity";
    case ErrorBucket::kNumerical:
      return "Numerical";
    case ErrorBucket::kMultiHop:
      return "Multi-hop";
    case ErrorBucket::kExactMatch:
      return "Exact Match";
  }
  return "?";
}

namespace {

/// True if `s` contains a standalone 4-digit token: exactly four digits with
/// a non-alphanumeric character or the string's end on each side, like the
/// year in "games_2012_e5". Digit runs glued to letters ("ttl_e1255") are ids.
bool ContainsYear(const std::string& s) {
  auto alnum = [&s](size_t i) {
    return i < s.size() && std::isalnum(static_cast<unsigned char>(s[i]));
  };
  for (size_t i = 0; i + 4 <= s.size(); ++i) {
    if (i > 0 && alnum(i - 1)) continue;
    bool digits = true;
    for (size_t j = i; j < i + 4; ++j) {
      digits = digits && std::isdigit(static_cast<unsigned char>(s[j]));
    }
    if (digits && !alnum(i + 4)) return true;
  }
  return false;
}

}  // namespace

bool InErrorBucket(const kb::KnowledgeBase& kb, const PredictionRecord& record,
                   ErrorBucket bucket) {
  switch (bucket) {
    case ErrorBucket::kGranularity:
      return record.HasPrediction() &&
             kb.SubclassRelated(record.predicted, record.gold);
    case ErrorBucket::kNumerical:
      return ContainsYear(kb.entity(record.gold).title);
    case ErrorBucket::kMultiHop: {
      const data::Sentence* s = record.sentence;
      if (s == nullptr) return false;
      for (size_t i = 0; i < s->mentions.size(); ++i) {
        if (i == record.mention_idx) continue;
        if (kb.TwoHopConnected(record.gold, s->mentions[i].gold)) return true;
      }
      return false;
    }
    case ErrorBucket::kExactMatch:
      return record.alias == kb.entity(record.gold).title;
  }
  return false;
}

std::vector<ErrorBucketReport> AnalyzeErrors(const kb::KnowledgeBase& kb,
                                             const ResultSet& results,
                                             int max_examples) {
  std::vector<ErrorBucketReport> reports;
  for (ErrorBucket bucket :
       {ErrorBucket::kGranularity, ErrorBucket::kNumerical,
        ErrorBucket::kMultiHop, ErrorBucket::kExactMatch}) {
    ErrorBucketReport report;
    report.bucket = bucket;
    for (const PredictionRecord& r : results.records()) {
      if (!r.Eligible() || r.Correct()) continue;
      const bool is_tail = r.bucket == data::PopularityBucket::kTail ||
                           r.bucket == data::PopularityBucket::kUnseen;
      ++report.overall_errors;
      if (is_tail) ++report.tail_errors;
      if (!InErrorBucket(kb, r, bucket)) continue;
      ++report.overall_errors_in_bucket;
      if (is_tail) ++report.tail_errors_in_bucket;
      if (static_cast<int>(report.examples.size()) < max_examples &&
          r.sentence != nullptr) {
        std::string text = util::Join(r.sentence->tokens, " ");
        const std::string pred_title =
            r.HasPrediction() ? kb.entity(r.predicted).title : "<none>";
        report.examples.push_back(util::StrFormat(
            "\"%s\" gold=%s predicted=%s", text.c_str(),
            kb.entity(r.gold).title.c_str(), pred_title.c_str()));
      }
    }
    reports.push_back(std::move(report));
  }
  return reports;
}

}  // namespace bootleg::eval
