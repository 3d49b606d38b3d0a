#ifndef BOOTLEG_CORE_MODEL_LOADER_H_
#define BOOTLEG_CORE_MODEL_LOADER_H_

#include <optional>
#include <string>

#include "core/config.h"
#include "nn/param_store.h"
#include "util/status.h"

namespace bootleg::core {

/// Loads a ParameterStore snapshot from `path`, deleting the file when the
/// read fails so the caller can fall back to retraining without tripping
/// over the same corrupt bytes again. This is the load-or-retrain pattern
/// shared by the harness trainers and the CLI.
util::Status LoadSnapshotOrInvalidate(const std::string& path,
                                      nn::ParameterStore* store);

/// Scans a checkpoint directory newest-first (the crash-recovery scan from
/// core/checkpoint.h) and loads the parameters of the first checkpoint that
/// reads cleanly into `store`, discarding trainer and optimizer state.
/// Returns the path of the checkpoint that was loaded, or NotFound when the
/// directory holds no readable checkpoint. This is the serving-side loader:
/// the inference engine and hot-reload both go through it.
util::StatusOr<std::string> LoadNewestCheckpointParams(
    const std::string& dir, nn::ParameterStore* store);

/// The config preset for an ablation name, as `bootleg_cli train --ablation`
/// builds it and every loader must rebuild it: the default config at
/// max_len 32, narrowed by `ent`, `type` or `kg` (`full` keeps every
/// signal). nullopt for any other name.
std::optional<BootlegConfig> AblationPreset(const std::string& ablation);

/// The ablation name recorded in a snapshot's `<model_path>.meta` sidecar
/// (written by `bootleg_cli train`): its first whitespace-separated token,
/// or `fallback` when the sidecar is missing or blank.
std::string ReadAblationMeta(const std::string& model_path,
                             const std::string& fallback);

}  // namespace bootleg::core

#endif  // BOOTLEG_CORE_MODEL_LOADER_H_
