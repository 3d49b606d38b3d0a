#ifndef BOOTLEG_CORE_CHECKPOINT_H_
#define BOOTLEG_CORE_CHECKPOINT_H_

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "nn/optimizer.h"
#include "nn/param_store.h"
#include "util/status.h"

namespace bootleg::core {

/// Everything beyond the parameters that the training loop needs to continue
/// a run bit-identically: the optimizer cursor is saved separately (Adam
/// moments + step count via nn::Adam::SaveState); this struct carries the
/// loop position, the RNG streams, and the epoch's shuffle permutation.
struct TrainerState {
  int64_t epoch = 0;
  int64_t cursor = 0;  // next sentence index within this epoch's order
  int64_t in_batch = 0;
  int64_t steps = 0;
  int64_t sentences_seen = 0;
  double window_loss = 0.0;
  int64_t window_count = 0;
  int nthreads = 1;
  std::string master_rng;                // util::Rng::SerializeState
  std::vector<std::string> worker_rngs;  // one per worker, worker order
  std::vector<int64_t> order;            // this epoch's shuffle permutation
};

/// `dir`/ckpt_<step>.bin — the canonical checkpoint file name.
std::string CheckpointPath(const std::string& dir, int64_t step);

/// Checkpoint files in `dir`, newest (highest step) first. Torn `.tmp`
/// files and anything else not matching ckpt_<step>.bin are ignored.
std::vector<std::pair<int64_t, std::string>> ListCheckpoints(
    const std::string& dir);

/// Atomically writes ckpt_<state.steps>.bin into `dir` (creating it if
/// needed), rewrites MANIFEST, and prunes all but the newest `retain`
/// checkpoints. The file carries the trainer state, every parameter, and the
/// optimizer state, each guarded by section checksums and a footer.
util::Status WriteCheckpoint(const std::string& dir, const TrainerState& state,
                             const nn::ParameterStore& store,
                             const nn::Adam& optimizer, int64_t retain);

/// Loads one checkpoint file, verifying checksums and the footer. The
/// trainer state is read first and, when `validate` is set, checked before
/// anything is written to `store` or `optimizer`: a rejected checkpoint
/// leaves both untouched. A checkpoint found corrupt past that point may
/// leave a partial mix of old and checkpoint values, which the next
/// successful read fully overwrites.
util::Status ReadCheckpoint(
    const std::string& path, TrainerState* state, nn::ParameterStore* store,
    nn::Adam* optimizer,
    const std::function<util::Status(const TrainerState&)>& validate = nullptr);

struct RecoveryResult {
  bool resumed = false;
  int64_t step = -1;
  std::string path;
};

/// Scans `dir` newest-first and loads the first checkpoint that both reads
/// cleanly and passes `validate` (the trainer's compatibility check: corpus
/// size, thread count, epoch bounds). Corrupt, partial, or incompatible
/// checkpoints are logged and skipped — a crash mid-write can never poison
/// recovery, it just falls back to the previous snapshot. An incompatible
/// checkpoint is skipped before its weights load, so skipping it leaves the
/// store and optimizer as they were.
RecoveryResult RecoverLatestCheckpoint(
    const std::string& dir, TrainerState* state, nn::ParameterStore* store,
    nn::Adam* optimizer,
    const std::function<util::Status(const TrainerState&)>& validate);

}  // namespace bootleg::core

#endif  // BOOTLEG_CORE_CHECKPOINT_H_
