// Design-choice ablations called out in DESIGN.md, beyond the paper's own
// tables:
//   1. ensemble scoring max(E_k vᵀ, E' vᵀ) vs scoring the final output only;
//   2. the paper's *future-work* extension — a 2-hop KG2Ent adjacency
//      (shared-neighbor connectivity), aimed at the multi-hop error bucket
//      the paper identifies in Section 5.
#include <cstdio>

#include "eval/error_analysis.h"
#include "harness/experiment.h"

using namespace bootleg;  // NOLINT

namespace {

/// Error rate on mentions whose gold is 2-hop (not 1-hop) connected to a
/// co-mention — the paper's multi-hop bucket, measured over all mentions.
double MultiHopErrorRate(const kb::KnowledgeBase& kb,
                         const eval::ResultSet& results) {
  int64_t n = 0, errors = 0;
  for (const eval::PredictionRecord& r : results.records()) {
    if (!r.Eligible()) continue;
    if (!eval::InErrorBucket(kb, r, eval::ErrorBucket::kMultiHop)) continue;
    ++n;
    if (!r.Correct()) ++errors;
  }
  return n == 0 ? 0.0 : 100.0 * static_cast<double>(errors) / n;
}

}  // namespace

int main() {
  harness::Environment env =
      harness::BuildEnvironment(data::SynthConfig::MicroScale());
  core::TrainOptions train = harness::DefaultTrainOptions();
  train.epochs = 8;

  struct Arm {
    const char* label;
    const char* name;
    bool ensemble;
    bool two_hop;
    bool two_dimensional;
  };
  const Arm arms[] = {
      {"Bootleg (full)", "abl_full", true, false, true},
      {"  - ensemble scoring", "abl_noens", false, false, true},
      {"  + 2-hop KG2Ent", "abl_twohop", true, true, true},
      {"  1-D dropout (not 2-D)", "abl_1d", true, false, false},
  };

  // Outlives every ResultSet below: records point into these sentences,
  // and MultiHopErrorRate reads them.
  const std::vector<data::Sentence> dev_test = harness::DevPlusTest(env);
  std::printf("\n=== Design-choice ablations (micro dataset) ===\n");
  std::printf("%-24s %8s %8s %8s %8s %14s\n", "Model", "all", "torso", "tail",
              "unseen", "2hop-slice err");
  for (const Arm& arm : arms) {
    core::BootlegConfig config = harness::DefaultBootlegConfig();
    config.ensemble_scoring = arm.ensemble;
    config.use_two_hop_kg = arm.two_hop;
    config.regularization.two_dimensional = arm.two_dimensional;
    auto model = harness::TrainBootleg(&env, {arm.name, config, train, 7});
    harness::BucketResult r =
        harness::EvaluateBuckets(model.get(), env, dev_test);
    std::printf("%-24s %8.1f %8.1f %8.1f %8.1f %14.1f\n", arm.label,
                r.all.f1(), r.torso.f1(), r.tail.f1(), r.unseen.f1(),
                MultiHopErrorRate(env.world.kb, r.results));
  }
  std::printf(
      "\nExpected: removing ensemble scoring costs F1 where the KG module "
      "disagrees with\nthe textual view; the 2-hop adjacency reduces the "
      "multi-hop-slice error rate the\npaper calls out as Bootleg's "
      "fundamental limitation; 1-D dropout underperforms\nthe 2-D scheme on "
      "unseen entities (the Sec. 3.3.1 contrast).\n");
  return 0;
}
