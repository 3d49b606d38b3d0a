#include "core/model_loader.h"

#include <filesystem>
#include <system_error>

#include "core/checkpoint.h"
#include "nn/optimizer.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace bootleg::core {

util::Status LoadSnapshotOrInvalidate(const std::string& path,
                                      nn::ParameterStore* store) {
  const util::Status st = store->Load(path);
  if (st.code() != util::StatusCode::kCorruption) return st;
  BOOTLEG_LOG(Warning) << "snapshot load failed (" << st.ToString()
                       << "); deleting corrupt snapshot " << path;
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return st;
}

util::StatusOr<std::string> LoadNewestCheckpointParams(
    const std::string& dir, nn::ParameterStore* store) {
  // ReadCheckpoint wants a full (state, store, optimizer) triple; the state
  // and optimizer are throwaways here — serving only needs the parameters.
  TrainerState state;
  nn::Adam optimizer(store, nn::Adam::Options{});
  const RecoveryResult result = RecoverLatestCheckpoint(
      dir, &state, store, &optimizer,
      [](const TrainerState&) { return util::Status::OK(); });
  if (!result.resumed) {
    return util::Status::NotFound("no readable checkpoint in " + dir);
  }
  return result.path;
}

std::optional<BootlegConfig> AblationPreset(const std::string& ablation) {
  BootlegConfig config;
  config.encoder.max_len = 32;
  if (ablation == "ent") return BootlegConfig::EntOnly(config);
  if (ablation == "type") return BootlegConfig::TypeOnly(config);
  if (ablation == "kg") return BootlegConfig::KgOnly(config);
  if (ablation == "full") return config;
  return std::nullopt;
}

util::StatusOr<std::unique_ptr<BootlegModel>> LoadModelFile(
    const kb::KnowledgeBase* kb, int64_t vocab_size, const std::string& path) {
  const std::string ablation = ReadAblationMeta(path, "full");
  const std::optional<BootlegConfig> config = AblationPreset(ablation);
  if (!config.has_value()) {
    return util::Status::InvalidArgument(path + ".meta names unknown ablation \"" +
                                         ablation + "\"");
  }
  // The construction seed is irrelevant: the snapshot overwrites every weight.
  auto model = std::make_unique<BootlegModel>(kb, vocab_size, *config,
                                              /*seed=*/7);
  BOOTLEG_RETURN_IF_ERROR(model->store().Load(path));
  return model;
}

std::string ReadAblationMeta(const std::string& model_path,
                             const std::string& fallback) {
  auto meta = util::ReadTextFile(model_path + ".meta");
  if (!meta.ok()) return fallback;
  const std::vector<std::string> tokens = util::Split(meta.value());
  return tokens.empty() ? fallback : tokens[0];
}

}  // namespace bootleg::core
