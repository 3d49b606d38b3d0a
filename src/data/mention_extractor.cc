#include "data/mention_extractor.h"

#include <algorithm>

namespace bootleg::data {

MentionExtractor::MentionExtractor(const kb::CandidateMap* candidates)
    : candidates_(candidates) {
  if (candidates_ != nullptr && candidates_->finalized()) {
    for (const auto& [alias, cands] : candidates_->map()) {
      (void)cands;
      int64_t words = 1;
      for (const char c : alias) words += (c == ' ');
      max_alias_tokens_ = std::max(max_alias_tokens_, words);
    }
  }
}

std::vector<Mention> MentionExtractor::Extract(
    const std::vector<std::string>& tokens) const {
  std::vector<Mention> mentions;
  size_t i = 0;
  while (i < tokens.size()) {
    const size_t max_n = std::min(static_cast<size_t>(max_alias_tokens_),
                                  tokens.size() - i);
    size_t matched = 0;
    std::string alias;
    for (size_t n = max_n; n >= 1; --n) {
      std::string surface = tokens[i];
      for (size_t k = 1; k < n; ++k) {
        surface += ' ';
        surface += tokens[i + k];
      }
      const auto* cands = candidates_->Lookup(surface);
      if (cands != nullptr && !cands->empty()) {
        matched = n;
        alias = std::move(surface);
        break;
      }
    }
    if (matched == 0) {
      ++i;
      continue;
    }
    Mention m;
    m.span_start = static_cast<int64_t>(i);
    m.span_end = static_cast<int64_t>(i + matched - 1);
    m.alias = std::move(alias);
    mentions.push_back(std::move(m));
    i += matched;
  }
  return mentions;
}

MentionExample MentionExtractor::ToExample(const Mention& mention) const {
  MentionExample me;
  me.span_start = mention.span_start;
  me.span_end = mention.span_end;
  if (const auto* cands = candidates_->Lookup(mention.alias)) {
    me.candidates.reserve(cands->size());
    me.priors.reserve(cands->size());
    for (const kb::Candidate& c : *cands) {
      me.candidates.push_back(c.entity);
      me.priors.push_back(c.prior);
    }
  }
  return me;
}

SentenceExample MentionExtractor::BuildExample(const text::Vocabulary& vocab,
                                               const std::string& text) const {
  const std::vector<std::string> tokens = text::Tokenize(text);
  SentenceExample ex;
  ex.token_ids = text::Encode(vocab, tokens);
  for (const Mention& m : Extract(tokens)) ex.mentions.push_back(ToExample(m));
  return ex;
}

}  // namespace bootleg::data
