#ifndef BOOTLEG_CORE_TRAINER_H_
#define BOOTLEG_CORE_TRAINER_H_

#include <functional>
#include <vector>

#include "data/example.h"
#include "nn/optimizer.h"
#include "nn/param_store.h"
#include "tensor/autograd.h"
#include "util/rng.h"

namespace bootleg::core {

/// Anything trainable with the shared sentence-level loop: Bootleg, its
/// ablations, and NED-Base all expose a per-sentence loss over a
/// ParameterStore.
class TrainableModel {
 public:
  virtual ~TrainableModel() = default;
  /// Scalar loss for one sentence, or an undefined Var if the sentence has
  /// no trainable mention. `rng` supplies every stochastic draw (dropout,
  /// regularization masks); nullptr means "use the model's internal
  /// generator", which is only safe from one thread at a time.
  virtual tensor::Var Loss(const data::SentenceExample& example, bool train,
                           util::Rng* rng) = 0;
  tensor::Var Loss(const data::SentenceExample& example, bool train) {
    return Loss(example, train, nullptr);
  }
  /// True when Loss honors the rng argument, making concurrent Loss calls
  /// from the data-parallel trainer safe. Models that ignore it train with
  /// one worker and without checkpointing.
  virtual bool SupportsParallelLoss() const { return false; }
  virtual nn::ParameterStore& store() = 0;
};

/// Adapter wrapping any model with a Loss member function. Models exposing
/// Loss(example, train, rng) get the per-worker RNG threaded through (and are
/// eligible for data-parallel training and checkpointing); models with
/// Loss(example, train) keep their internal generator and train with one
/// worker.
template <typename M>
class Trainable : public TrainableModel {
 public:
  explicit Trainable(M* model) : model_(model) {}
  using TrainableModel::Loss;
  tensor::Var Loss(const data::SentenceExample& example, bool train,
                   util::Rng* rng) override {
    if constexpr (kHasRngLoss) {
      return model_->Loss(example, train, rng);
    } else {
      (void)rng;
      return model_->Loss(example, train);
    }
  }
  bool SupportsParallelLoss() const override { return kHasRngLoss; }
  nn::ParameterStore& store() override { return model_->store(); }

 private:
  static constexpr bool kHasRngLoss =
      requires(M* m, const data::SentenceExample& e, util::Rng* r) {
        m->Loss(e, true, r);
      };
  M* model_;
};

struct TrainOptions {
  int64_t epochs = 2;        // paper: 2 epochs over Wikipedia
  int64_t batch_size = 8;    // sentences per optimizer step
  float lr = 1e-3f;
  uint64_t seed = 99;
  bool verbose = false;
  int64_t log_every = 1000;  // sentences
  /// Data-parallel workers per optimizer step. 0 reads BOOTLEG_THREADS (and
  /// falls back to 1). Every count runs the same loop: workers shard each
  /// group of `batch_size` sentences, draw dropout from their own RNG
  /// forked from `seed`, accumulate into per-worker gradient scopes, and the
  /// scopes are reduced in worker order; the Adam step comes once
  /// `batch_size` defined losses have accumulated, checked after each group.
  /// A run is deterministic for a fixed worker count.
  int num_threads = 0;
  /// Stop after this many optimizer steps (0 = no limit). Used by tests and
  /// the CLI's fault-injection flow to simulate a mid-run kill.
  int64_t max_steps = 0;

  /// Durable checkpointing: with a non-empty `checkpoint_dir` and
  /// `checkpoint_every_steps` > 0, the trainer snapshots full training state
  /// — every parameter, Adam moments and step count, all RNG streams, the
  /// epoch/batch cursor, and the epoch's shuffle permutation — into
  /// `checkpoint_dir`/ckpt_<step>.bin every K optimizer steps, atomically
  /// (temp file + fsync + rename) and checksummed, retaining the newest
  /// `checkpoint_retain` files plus a MANIFEST. Writing checkpoints does not
  /// change the trajectory: the model is byte-identical to a run without
  /// them. Requires a model supporting per-worker RNGs; otherwise
  /// checkpointing and resume are disabled with a warning.
  std::string checkpoint_dir;
  int64_t checkpoint_every_steps = 0;
  int64_t checkpoint_retain = 3;
  /// Scan `checkpoint_dir` (when non-empty) before training and resume from
  /// the newest valid checkpoint, skipping corrupt or partial files, whether
  /// or not this run writes checkpoints. A resumed run finishes
  /// bit-identical to the uninterrupted run at the same thread count.
  bool resume = false;
};

struct TrainStats {
  double final_avg_loss = 0.0;
  int64_t sentences_seen = 0;
  int64_t steps = 0;
  double seconds = 0.0;
  int threads = 1;  // resolved worker count actually used
  int64_t resumed_from_step = -1;  // -1 when the run started fresh
};

/// Runs the shared training loop: shuffle each epoch, accumulate gradients
/// over `batch_size` sentences, Adam step. Each group of sentences is
/// sharded across TrainWorkers() pool workers; with checkpointing enabled
/// the loop additionally snapshots and can resume full training state (see
/// TrainOptions::checkpoint_dir).
TrainStats Train(TrainableModel* model,
                 const std::vector<data::SentenceExample>& train_examples,
                 const TrainOptions& options);

/// The worker count Train runs `model` with: `num_threads`, else
/// BOOTLEG_THREADS, else 1 — and always 1 when !SupportsParallelLoss().
int TrainWorkers(const TrainableModel& model, const TrainOptions& options);

}  // namespace bootleg::core

#endif  // BOOTLEG_CORE_TRAINER_H_
