#include "core/trainer.h"

#include <algorithm>

#include "core/checkpoint.h"
#include "obs/trace.h"
#include "util/logging.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace bootleg::core {

namespace {

// Validates a recovered TrainerState against this run's configuration before
// trusting it. Checkpoint checksums already guarantee the bytes are intact;
// this guards against resuming with a different corpus, thread count, or
// schedule, and against logically-impossible states.
util::Status ValidateRecoveredState(const TrainerState& s, size_t num_examples,
                                    int nthreads, const TrainOptions& options) {
  if (s.nthreads != nthreads) {
    return util::Status::FailedPrecondition(
        "checkpoint thread count mismatch (resume with the same thread "
        "count for a bit-identical trajectory)");
  }
  if (s.order.size() != num_examples) {
    return util::Status::FailedPrecondition(
        "checkpoint corpus size mismatch");
  }
  if (s.epoch >= options.epochs ||
      s.cursor > static_cast<int64_t>(num_examples) ||
      s.in_batch > options.batch_size) {
    return util::Status::FailedPrecondition(
        "checkpoint position beyond this run's schedule");
  }
  std::vector<bool> seen(num_examples, false);
  for (int64_t v : s.order) {
    if (v < 0 || v >= static_cast<int64_t>(num_examples) ||
        seen[static_cast<size_t>(v)]) {
      return util::Status::Corruption("checkpoint order is not a permutation");
    }
    seen[static_cast<size_t>(v)] = true;
  }
  util::Rng probe(0);
  if (!probe.DeserializeState(s.master_rng)) {
    return util::Status::Corruption("checkpoint master RNG state unreadable");
  }
  for (const std::string& state : s.worker_rngs) {
    if (!probe.DeserializeState(state)) {
      return util::Status::Corruption("checkpoint worker RNG state unreadable");
    }
  }
  return util::Status::OK();
}

// Worker count before the per-worker RNG guard: `num_threads`, else
// BOOTLEG_THREADS, else 1.
int RequestedWorkers(const TrainOptions& options) {
  if (options.num_threads > 0) return options.num_threads;
  const int env = util::ThreadPool::EnvThreads();
  return env > 0 ? env : 1;
}

}  // namespace

int TrainWorkers(const TrainableModel& model, const TrainOptions& options) {
  return model.SupportsParallelLoss() ? RequestedWorkers(options) : 1;
}

// One loop at every worker count. Each epoch's shuffled order is cut into
// groups of `batch_size` sentences, and each group is sharded contiguously
// across `nthreads` workers. Workers run Loss+Backward with a private RNG
// (forked once, up front, from the master generator) and a private
// GradScope; scopes are reduced in worker order, and the optimizer steps
// once `batch_size` defined losses have accumulated, checked after each
// group. The trajectory is therefore deterministic for a fixed worker count.
//
// All loop state lives in explicitly serializable form (counters, the master
// and worker RNG streams, the epoch's shuffle permutation), which is what
// makes mid-run checkpointing possible: a snapshot taken right after an
// optimizer step captures everything, so a resumed run replays the exact
// remaining trajectory, and writing checkpoints never changes what is
// trained. The master RNG is saved post-shuffle/post-fork, so a resumed
// epoch must not re-shuffle and workers restore rather than re-fork.
TrainStats Train(TrainableModel* model,
                 const std::vector<data::SentenceExample>& train_examples,
                 const TrainOptions& options) {
  const int nthreads = TrainWorkers(*model, options);
  bool checkpointing =
      !options.checkpoint_dir.empty() && options.checkpoint_every_steps > 0;
  bool resuming = !options.checkpoint_dir.empty() && options.resume;
  if (!model->SupportsParallelLoss() &&
      (RequestedWorkers(options) > 1 || checkpointing || resuming)) {
    BOOTLEG_LOG(Warning)
        << "model does not support per-worker RNGs; training serially"
        << (checkpointing || resuming ? " without checkpointing" : "");
    checkpointing = false;
    resuming = false;
  }

  util::Rng rng(options.seed);
  nn::Adam::Options adam_options;
  adam_options.lr = options.lr;
  nn::Adam optimizer(&model->store(), adam_options);

  std::vector<util::Rng> worker_rngs;
  worker_rngs.reserve(static_cast<size_t>(nthreads));
  for (int w = 0; w < nthreads; ++w) worker_rngs.push_back(rng.Fork());
  std::vector<tensor::GradScope> scopes(static_cast<size_t>(nthreads));

  std::vector<size_t> order(train_examples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  util::ThreadPool* pool = util::ThreadPool::Global();
  util::Timer timer;
  TrainStats stats;
  stats.threads = nthreads;
  double window_loss = 0.0;
  int64_t window_count = 0;
  int64_t in_batch = 0;

  int64_t start_epoch = 0;
  int64_t start_cursor = 0;
  bool restored = false;

  if (resuming) {
    TrainerState ts;
    RecoveryResult rec = RecoverLatestCheckpoint(
        options.checkpoint_dir, &ts, &model->store(), &optimizer,
        [&](const TrainerState& s) {
          return ValidateRecoveredState(s, train_examples.size(), nthreads,
                                        options);
        });
    if (rec.resumed) {
      rng.DeserializeState(ts.master_rng);
      for (int w = 0; w < nthreads; ++w) {
        worker_rngs[static_cast<size_t>(w)].DeserializeState(
            ts.worker_rngs[static_cast<size_t>(w)]);
      }
      for (size_t i = 0; i < order.size(); ++i) {
        order[i] = static_cast<size_t>(ts.order[i]);
      }
      start_epoch = ts.epoch;
      start_cursor = ts.cursor;
      in_batch = ts.in_batch;
      stats.steps = ts.steps;
      stats.sentences_seen = ts.sentences_seen;
      window_loss = ts.window_loss;
      window_count = ts.window_count;
      stats.resumed_from_step = rec.step;
      restored = true;
      BOOTLEG_LOG(Info) << "resumed from " << rec.path << " (step " << rec.step
                        << ", epoch " << ts.epoch << ", cursor " << ts.cursor
                        << ")";
    } else {
      BOOTLEG_LOG(Info) << "no usable checkpoint in "
                        << options.checkpoint_dir << "; starting fresh";
    }
  }

  // Snapshots the complete loop state; `next_cursor` is where the inner loop
  // will pick up within the current epoch's order.
  const auto save_checkpoint = [&](int64_t epoch, int64_t next_cursor) {
    OBS_SPAN("train.checkpoint");
    TrainerState ts;
    ts.epoch = epoch;
    ts.cursor = next_cursor;
    ts.in_batch = in_batch;
    ts.steps = stats.steps;
    ts.sentences_seen = stats.sentences_seen;
    ts.window_loss = window_loss;
    ts.window_count = window_count;
    ts.nthreads = nthreads;
    ts.master_rng = rng.SerializeState();
    ts.worker_rngs.reserve(worker_rngs.size());
    for (const util::Rng& w : worker_rngs) {
      ts.worker_rngs.push_back(w.SerializeState());
    }
    ts.order.assign(order.begin(), order.end());
    util::Status st = WriteCheckpoint(options.checkpoint_dir, ts,
                                      model->store(), optimizer,
                                      options.checkpoint_retain);
    if (!st.ok()) {
      BOOTLEG_LOG(Warning) << "checkpoint write failed: " << st.ToString();
    }
  };

  std::vector<double> worker_loss(static_cast<size_t>(nthreads));
  std::vector<int64_t> worker_defined(static_cast<size_t>(nthreads));

  bool done = false;
  for (int64_t epoch = start_epoch; epoch < options.epochs; ++epoch) {
    OBS_SPAN("train.epoch");
    // A restored epoch was already shuffled before the snapshot (the saved
    // master RNG state is post-shuffle); re-shuffling would double-draw.
    const bool resumed_epoch = restored && epoch == start_epoch;
    if (!resumed_epoch) rng.Shuffle(&order);
    for (size_t group_start =
             resumed_epoch ? static_cast<size_t>(start_cursor) : 0;
         group_start < order.size();
         group_start += static_cast<size_t>(options.batch_size)) {
      const size_t group =
          std::min(static_cast<size_t>(options.batch_size),
                   order.size() - group_start);
      std::fill(worker_loss.begin(), worker_loss.end(), 0.0);
      std::fill(worker_defined.begin(), worker_defined.end(), int64_t{0});
      OBS_SPAN("train.group");
      {
        OBS_SPAN("train.forward_backward");
        pool->RunWorkers(nthreads, [&](int w) {
          const size_t lo = group * static_cast<size_t>(w) /
                            static_cast<size_t>(nthreads);
          const size_t hi = group * (static_cast<size_t>(w) + 1) /
                            static_cast<size_t>(nthreads);
          if (lo == hi) return;
          tensor::GradScope::Activation act(&scopes[static_cast<size_t>(w)]);
          for (size_t i = lo; i < hi; ++i) {
            tensor::Var loss = model->Loss(
                train_examples[order[group_start + i]], /*train=*/true,
                &worker_rngs[static_cast<size_t>(w)]);
            if (loss.defined()) {
              tensor::Backward(loss);
              worker_loss[static_cast<size_t>(w)] += loss.value().at(0);
              ++worker_defined[static_cast<size_t>(w)];
            }
          }
        });
      }
      {
        OBS_SPAN("train.reduce");
        nn::ParameterStore::ReduceGradScopes(&scopes);
      }
      stats.sentences_seen += static_cast<int64_t>(group);
      for (int w = 0; w < nthreads; ++w) {
        window_loss += worker_loss[static_cast<size_t>(w)];
        window_count += worker_defined[static_cast<size_t>(w)];
        in_batch += worker_defined[static_cast<size_t>(w)];
      }
      if (in_batch >= options.batch_size) {
        {
          OBS_SPAN("train.step");
          optimizer.Step();
        }
        ++stats.steps;
        in_batch = 0;
        // Snapshot right after the step: gradients are clear and the next
        // unit of work is the group starting at `group_start + group`.
        if (checkpointing &&
            stats.steps % options.checkpoint_every_steps == 0) {
          save_checkpoint(epoch,
                          static_cast<int64_t>(group_start + group));
        }
        if (options.max_steps > 0 && stats.steps >= options.max_steps) {
          done = true;
          break;
        }
      }
      if (options.verbose && window_count > 0 &&
          stats.sentences_seen / options.log_every !=
              (stats.sentences_seen - static_cast<int64_t>(group)) /
                  options.log_every) {
        BOOTLEG_LOG(Info) << "epoch " << epoch << " sentences "
                          << stats.sentences_seen << " avg loss "
                          << window_loss / window_count << " (threads "
                          << nthreads << ")";
        window_loss = 0.0;
        window_count = 0;
      }
    }
    if (done) break;
    if (in_batch > 0) {
      {
        OBS_SPAN("train.step");
        optimizer.Step();
      }
      ++stats.steps;
      in_batch = 0;
      if (checkpointing && stats.steps % options.checkpoint_every_steps == 0) {
        // Cursor at end-of-epoch: a resume lands on an empty remainder of
        // this epoch and proceeds to the next one with the restored RNG.
        save_checkpoint(epoch, static_cast<int64_t>(order.size()));
      }
      if (options.max_steps > 0 && stats.steps >= options.max_steps) break;
    }
  }
  stats.final_avg_loss = window_count > 0 ? window_loss / window_count : 0.0;
  stats.seconds = timer.ElapsedSeconds();
  return stats;
}

}  // namespace bootleg::core
