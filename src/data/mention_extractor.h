#ifndef BOOTLEG_DATA_MENTION_EXTRACTOR_H_
#define BOOTLEG_DATA_MENTION_EXTRACTOR_H_

#include <string>
#include <vector>

#include "data/corpus.h"
#include "data/example.h"
#include "kb/candidate_map.h"
#include "text/vocabulary.h"

namespace bootleg::data {

/// Mention extraction for raw text: a greedy leftmost-longest scan over the
/// token stream against the aliases of Γ. The paper's Bootleg is a pure
/// disambiguation system (mention boundaries given); this extractor supplies
/// the boundaries for end-to-end use (the TACRED pipeline of Appendix C does
/// the same n-gram-over-candidate-maps scan). With `disambiguate_text` this
/// is the server's untrusted input surface, so it must tolerate anything:
/// empty input, overlong tokens, punctuation-only text, and overlapping
/// alias matches (leftmost-longest wins, deterministically). Every n-gram
/// probe is one lookup in Γ's hash map, and ToExample reads a reported
/// alias's candidates from the same map.
class MentionExtractor {
 public:
  /// `candidates` must be finalized; the constructor scans it once for the
  /// longest alias (in tokens) to bound the n-gram window.
  explicit MentionExtractor(const kb::CandidateMap* candidates);

  /// Greedy leftmost-longest scan: at each position the longest n-gram
  /// (n <= max_alias_tokens()) that has a non-empty candidate list in Γ
  /// becomes an unlabeled mention and the scan resumes after its last token.
  /// Overlapping matches resolve deterministically — earlier start wins,
  /// then longer span.
  std::vector<Mention> Extract(const std::vector<std::string>& tokens) const;

  /// The model-ready form of an extracted mention: its span, and the
  /// candidates and priors of its alias in Γ, in Γ's order (gold unknown).
  MentionExample ToExample(const Mention& mention) const;

  /// Longest alias in Γ, in whitespace-delimited tokens (>= 1).
  int64_t max_alias_tokens() const { return max_alias_tokens_; }

  /// Tokenizes raw text, extracts mentions, and assembles a model-ready
  /// example (golds unknown: gold_index = -1, usable with Predict only).
  SentenceExample BuildExample(const text::Vocabulary& vocab,
                               const std::string& text) const;

 private:
  const kb::CandidateMap* candidates_;
  int64_t max_alias_tokens_ = 1;
};

}  // namespace bootleg::data

#endif  // BOOTLEG_DATA_MENTION_EXTRACTOR_H_
