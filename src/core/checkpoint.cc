#include "core/checkpoint.h"

#include <algorithm>
#include <filesystem>
#include <sstream>

#include "util/io.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace bootleg::core {

namespace {

constexpr uint32_t kCheckpointMagic = 0xB0071ECC;
constexpr uint32_t kCheckpointVersion = 1;
constexpr char kManifestName[] = "MANIFEST";

/// Hard sanity bound on worker counts read from disk; anything larger is a
/// corrupt field, not a configuration.
constexpr int64_t kMaxThreads = 1 << 16;

void WriteTrainerState(util::BinaryWriter* w, const TrainerState& s) {
  w->BeginSection();
  w->WriteI64(s.epoch);
  w->WriteI64(s.cursor);
  w->WriteI64(s.in_batch);
  w->WriteI64(s.steps);
  w->WriteI64(s.sentences_seen);
  w->WriteF64(s.window_loss);
  w->WriteI64(s.window_count);
  w->WriteU32(static_cast<uint32_t>(s.nthreads));
  w->WriteString(s.master_rng);
  w->WriteU64(s.worker_rngs.size());
  for (const std::string& rng : s.worker_rngs) w->WriteString(rng);
  w->WriteI64Vector(s.order);
  w->EndSection();
}

util::Status ReadTrainerState(util::BinaryReader* r, TrainerState* s) {
  r->BeginSection();
  s->epoch = r->ReadI64();
  s->cursor = r->ReadI64();
  s->in_batch = r->ReadI64();
  s->steps = r->ReadI64();
  s->sentences_seen = r->ReadI64();
  s->window_loss = r->ReadF64();
  s->window_count = r->ReadI64();
  const int64_t nthreads = static_cast<int64_t>(r->ReadU32());
  s->master_rng = r->ReadString();
  const uint64_t nworkers = r->ReadU64();
  if (!r->status().ok()) return r->status();
  if (s->epoch < 0 || s->cursor < 0 || s->in_batch < 0 || s->steps < 0 ||
      s->sentences_seen < 0 || nthreads < 1 || nthreads > kMaxThreads ||
      nworkers != static_cast<uint64_t>(nthreads)) {
    return util::Status::Corruption("trainer state field out of range");
  }
  s->nthreads = static_cast<int>(nthreads);
  s->worker_rngs.clear();
  for (uint64_t i = 0; i < nworkers && r->status().ok(); ++i) {
    s->worker_rngs.push_back(r->ReadString());
  }
  s->order = r->ReadI64Vector();
  r->EndSection();
  return r->status();
}

}  // namespace

std::string CheckpointPath(const std::string& dir, int64_t step) {
  return util::StrFormat("%s/ckpt_%lld.bin", dir.c_str(),
                         static_cast<long long>(step));
}

std::vector<std::pair<int64_t, std::string>> ListCheckpoints(
    const std::string& dir) {
  std::vector<std::pair<int64_t, std::string>> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (!util::StartsWith(name, "ckpt_") || !util::EndsWith(name, ".bin")) {
      continue;
    }
    const std::string digits = name.substr(5, name.size() - 5 - 4);
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    out.emplace_back(std::stoll(digits), entry.path().string());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  return out;
}

util::Status WriteCheckpoint(const std::string& dir, const TrainerState& state,
                             const nn::ParameterStore& store,
                             const nn::Adam& optimizer, int64_t retain) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return util::Status::IOError("cannot create checkpoint dir: " + dir);

  const std::string path = CheckpointPath(dir, state.steps);
  {
    util::AtomicFileWriter atomic(path);
    util::BinaryWriter w(atomic.temp_path());
    w.WriteU32(kCheckpointMagic);
    w.WriteU32(kCheckpointVersion);
    WriteTrainerState(&w, state);
    store.SaveTo(&w);
    optimizer.SaveState(&w);
    w.WriteFooter();
    BOOTLEG_RETURN_IF_ERROR(w.Finish());
    BOOTLEG_RETURN_IF_ERROR(atomic.Commit());
  }

  // Retain-K pruning, then a manifest naming the survivors newest-first.
  // Both are conveniences layered on the directory scan: recovery re-lists
  // the directory itself, so a stale or torn manifest can never mask a valid
  // checkpoint or resurrect a deleted one.
  auto checkpoints = ListCheckpoints(dir);
  while (static_cast<int64_t>(checkpoints.size()) > std::max<int64_t>(1, retain)) {
    std::filesystem::remove(checkpoints.back().second, ec);
    checkpoints.pop_back();
  }
  std::ostringstream manifest;
  for (const auto& [step, file] : checkpoints) {
    manifest << std::filesystem::path(file).filename().string() << "\n";
  }
  return util::WriteTextFile(dir + "/" + kManifestName, manifest.str());
}

util::Status ReadCheckpoint(
    const std::string& path, TrainerState* state, nn::ParameterStore* store,
    nn::Adam* optimizer,
    const std::function<util::Status(const TrainerState&)>& validate) {
  util::BinaryReader r(path);
  BOOTLEG_RETURN_IF_ERROR(r.status());
  if (r.ReadU32() != kCheckpointMagic) {
    if (!r.status().ok()) return r.status();
    return util::Status::Corruption("bad checkpoint magic: " + path);
  }
  const uint32_t version = r.ReadU32();
  if (r.status().ok() && version != kCheckpointVersion) {
    return util::Status::Corruption("unsupported checkpoint version: " + path);
  }
  BOOTLEG_RETURN_IF_ERROR(ReadTrainerState(&r, state));
  // The trainer state section comes first, so a checkpoint the caller
  // rejects is refused before any weight or moment reaches the store.
  if (validate) BOOTLEG_RETURN_IF_ERROR(validate(*state));
  BOOTLEG_RETURN_IF_ERROR(store->LoadFrom(&r));
  BOOTLEG_RETURN_IF_ERROR(optimizer->LoadState(&r));
  r.VerifyFooter();
  if (!r.status().ok()) {
    return util::Status::Corruption(r.status().message() + ": " + path);
  }
  return util::Status::OK();
}

RecoveryResult RecoverLatestCheckpoint(
    const std::string& dir, TrainerState* state, nn::ParameterStore* store,
    nn::Adam* optimizer,
    const std::function<util::Status(const TrainerState&)>& validate) {
  RecoveryResult result;
  for (const auto& [step, path] : ListCheckpoints(dir)) {
    const util::Status st =
        ReadCheckpoint(path, state, store, optimizer, validate);
    if (!st.ok()) {
      BOOTLEG_LOG(Warning) << "skipping checkpoint " << path << ": "
                           << st.ToString();
      continue;
    }
    result.resumed = true;
    result.step = step;
    result.path = path;
    return result;
  }
  return result;
}

}  // namespace bootleg::core
