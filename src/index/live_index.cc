#include "index/live_index.h"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "util/crc32.h"
#include "util/io.h"
#include "util/logging.h"

namespace bootleg::index {

namespace {

namespace fs = std::filesystem;

constexpr uint32_t kIndexDeltaMagic = 0xB0071DE1;
constexpr uint32_t kIndexDeltaVersion = 1;

/// Bounds against a doctored delta file claiming absurd counts; the serving
/// replay allocates per record, so counts are capped before trusting them.
constexpr uint64_t kMaxDeltaEntities = 1u << 20;
constexpr uint64_t kMaxPerEntityList = 1u << 16;

std::string GenDirName(int64_t n) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "gen_%06lld", static_cast<long long>(n));
  return buf;
}

bool IsGenDirName(const std::string& name) {
  if (name.rfind("gen_", 0) != 0 || name.size() <= 4) return false;
  for (size_t i = 4; i < name.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(name[i]))) return false;
  }
  return true;
}

std::string DeltaFileName(int64_t n) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%06lld.bin", kIndexDeltaFilePrefix,
                static_cast<long long>(n));
  return buf;
}

bool IsDeltaFileName(const std::string& name) {
  return name.rfind(kIndexDeltaFilePrefix, 0) == 0;
}

/// First unused generation number strictly above `above` — a crashed publish
/// may have left a manifest-less `gen_<n+1>` husk that scans skip but whose
/// directory still exists.
int64_t FirstFreeGeneration(const std::string& store_root, int64_t above) {
  int64_t n = above + 1;
  while (fs::exists(fs::path(store_root) / GenDirName(n))) ++n;
  return n;
}

/// Full path of a chained-manifest file reference (shard or aux).
std::string RefPath(const std::string& store_root, const std::string& own_dir,
                    const std::string& dir_ref, const std::string& file) {
  if (dir_ref.empty()) return own_dir + "/" + file;
  return (fs::path(store_root) / dir_ref / file).string();
}

util::Status CopyFileBytes(const std::string& src, const std::string& dst,
                           uint64_t want_bytes) {
  auto bytes = util::ReadTextFile(src);
  if (!bytes.ok()) return bytes.status();
  if (bytes.value().size() != want_bytes) {
    return util::Status::Corruption("compaction source changed size: " + src);
  }
  return util::WriteTextFile(dst, bytes.value());
}

}  // namespace

util::Status WriteIndexDelta(const std::string& path,
                             const IndexDelta& delta) {
  util::AtomicFileWriter atomic(path);
  util::BinaryWriter w(atomic.temp_path());
  w.WriteU32(kIndexDeltaMagic);
  w.WriteU32(kIndexDeltaVersion);
  w.BeginSection();
  w.WriteI64(delta.base_entities);
  w.WriteU64(delta.entities.size());
  for (const DeltaEntity& e : delta.entities) {
    w.WriteString(e.title);
    w.WriteI64(static_cast<int64_t>(e.coarse));
    w.WriteU32(static_cast<uint32_t>(e.gender));
    w.WriteI64(e.title_token_id);
    w.WriteI64Vector(e.types);
    w.WriteU64(e.triples.size());
    for (const DeltaTriple& t : e.triples) {
      w.WriteI64(t.relation);
      w.WriteI64(t.object);
    }
    w.WriteU64(e.aliases.size());
    for (const DeltaAlias& a : e.aliases) {
      w.WriteString(a.alias);
      w.WriteF32(a.prior);
    }
  }
  w.EndSection();
  w.WriteFooter();
  BOOTLEG_RETURN_IF_ERROR(w.Finish());
  return atomic.Commit();
}

util::StatusOr<IndexDelta> ReadIndexDelta(const std::string& path) {
  util::BinaryReader r(path);
  BOOTLEG_RETURN_IF_ERROR(r.status());
  auto corrupt = [&path](const std::string& what) {
    return util::Status::Corruption("index delta: " + what + ": " + path);
  };
  if (r.ReadU32() != kIndexDeltaMagic) return corrupt("bad magic");
  if (r.ReadU32() != kIndexDeltaVersion) return corrupt("unsupported version");
  r.BeginSection();
  IndexDelta delta;
  delta.base_entities = r.ReadI64();
  const uint64_t n = r.ReadU64();
  if (!r.status().ok()) return corrupt(r.status().message());
  if (delta.base_entities < 0 || n > kMaxDeltaEntities) {
    return corrupt("implausible header counts");
  }
  delta.entities.reserve(n);
  for (uint64_t i = 0; i < n && r.status().ok(); ++i) {
    DeltaEntity e;
    e.title = r.ReadString();
    e.coarse = static_cast<kb::CoarseType>(r.ReadI64());
    e.gender = static_cast<char>(r.ReadU32());
    e.title_token_id = r.ReadI64();
    e.types = r.ReadI64Vector();
    const uint64_t nt = r.ReadU64();
    if (!r.status().ok() || nt > kMaxPerEntityList) break;
    e.triples.reserve(nt);
    for (uint64_t j = 0; j < nt && r.status().ok(); ++j) {
      DeltaTriple t;
      t.relation = r.ReadI64();
      t.object = r.ReadI64();
      e.triples.push_back(t);
    }
    const uint64_t na = r.ReadU64();
    if (!r.status().ok() || na > kMaxPerEntityList) break;
    e.aliases.reserve(na);
    for (uint64_t j = 0; j < na && r.status().ok(); ++j) {
      DeltaAlias a;
      a.alias = r.ReadString();
      a.prior = r.ReadF32();
      e.aliases.push_back(a);
    }
    const int64_t coarse = static_cast<int64_t>(e.coarse);
    if (coarse < 0 || coarse >= kb::kNumCoarseTypes) {
      return corrupt("coarse type out of range");
    }
    delta.entities.push_back(std::move(e));
  }
  r.EndSection();
  r.VerifyFooter();
  if (!r.status().ok()) return corrupt(r.status().message());
  if (delta.entities.size() != n) return corrupt("truncated entity list");
  return delta;
}

util::Status ValidateDeltaEntity(const kb::KnowledgeBase& kb,
                                 const kb::CandidateMap& candidates,
                                 int64_t chain_entities,
                                 const DeltaEntity& entity) {
  if (entity.title.empty()) {
    return util::Status::InvalidArgument("entity title must not be empty");
  }
  if (kb.FindByTitle(entity.title) != kb::kInvalidId) {
    return util::Status::InvalidArgument("title already in the KB: '" +
                                         entity.title + "'");
  }
  if (entity.gender != 'm' && entity.gender != 'f' && entity.gender != 'n') {
    return util::Status::InvalidArgument(
        "gender must be 'm', 'f', or 'n'");
  }
  for (kb::TypeId t : entity.types) {
    if (t < 0 || t >= kb.num_types()) {
      return util::Status::InvalidArgument("unknown type id " +
                                           std::to_string(t));
    }
  }
  for (const DeltaTriple& t : entity.triples) {
    if (t.relation < 0 || t.relation >= kb.num_relations()) {
      return util::Status::InvalidArgument("unknown relation id " +
                                           std::to_string(t.relation));
    }
    if (t.object < 0 || t.object >= chain_entities) {
      return util::Status::InvalidArgument("triple object " +
                                           std::to_string(t.object) +
                                           " is not an existing entity");
    }
  }
  if (entity.aliases.empty()) {
    return util::Status::InvalidArgument(
        "at least one alias (the title) is required");
  }
  bool has_title_alias = false;
  std::set<std::string> seen;
  for (const DeltaAlias& a : entity.aliases) {
    if (a.alias.empty()) {
      return util::Status::InvalidArgument("empty alias");
    }
    if (!seen.insert(a.alias).second) {
      return util::Status::InvalidArgument("duplicate alias '" + a.alias +
                                           "'");
    }
    if (!(a.prior > 0.0f && a.prior < 1.0f)) {
      return util::Status::InvalidArgument("alias '" + a.alias +
                                           "' prior must be in (0, 1)");
    }
    has_title_alias |= a.alias == entity.title;
    // Dry-run the candidate insertion rule so a prior too small to survive
    // the top-K cut is rejected at publish time, not at replay time.
    const std::vector<kb::Candidate>* cands = candidates.Lookup(a.alias);
    if (cands != nullptr &&
        static_cast<int>(cands->size()) >= candidates.max_candidates()) {
      float kth = cands->back().prior * (1.0f - a.prior);
      if (a.prior <= kth) {
        return util::Status::InvalidArgument(
            "alias '" + a.alias + "' prior " + std::to_string(a.prior) +
            " would rank below the existing top-" +
            std::to_string(candidates.max_candidates()) + " candidates");
      }
    }
  }
  if (!has_title_alias) {
    return util::Status::InvalidArgument(
        "the alias list must include the title");
  }
  return util::Status::OK();
}

util::Status InduceRow(const core::BootlegModel& model,
                       const kb::KnowledgeBase& kb,
                       const store::StoreView& view, const DeltaEntity& entity,
                       std::vector<float>* row) {
  const core::BootlegConfig& config = model.config();
  const int64_t cols = model.FrozenStaticCols();
  if (view.cols() != cols) {
    return util::Status::InvalidArgument(
        "store view has " + std::to_string(view.cols()) +
        " columns but the model's frozen layout needs " +
        std::to_string(cols));
  }
  row->assign(static_cast<size_t>(cols), 0.0f);

  std::vector<float> slot;
  if (config.use_entity) {
    // The entity-embedding slot cannot come from training, so it borrows the
    // centroid of the new entity's structural siblings — entities sharing a
    // fine type, then any entity of the same coarse type, then a global
    // sample. The sibling rows are gathered from the *live* view, so induced
    // entities published earlier in the chain contribute too.
    const int64_t limit = std::min(view.rows(), kb.num_entities());
    constexpr int64_t kMaxSiblings = 64;
    std::vector<int64_t> siblings;
    auto scan = [&](auto&& match) {
      for (int64_t e = 0;
           e < limit && static_cast<int64_t>(siblings.size()) < kMaxSiblings;
           ++e) {
        if (match(kb.entity(e))) siblings.push_back(e);
      }
    };
    if (!entity.types.empty()) {
      scan([&](const kb::Entity& other) {
        for (kb::TypeId t : other.types) {
          if (std::find(entity.types.begin(), entity.types.end(), t) !=
              entity.types.end()) {
            return true;
          }
        }
        return false;
      });
    }
    if (siblings.empty()) {
      scan([&](const kb::Entity& other) {
        return other.coarse_type == entity.coarse;
      });
    }
    if (siblings.empty()) {
      const int64_t sample = std::min<int64_t>(limit, 256);
      for (int64_t e = 0; e < sample; ++e) siblings.push_back(e);
    }
    if (siblings.empty()) {
      return util::Status::FailedPrecondition(
          "cannot induce an entity slot from an empty store");
    }
    const int64_t entity_dim = config.entity_dim;
    const int64_t n = static_cast<int64_t>(siblings.size());
    std::vector<float> rows(static_cast<size_t>(n * cols));
    view.GatherRows(siblings.data(), n, rows.data());
    // Summed sibling by sibling, in list order: the centroid's bytes depend
    // on that order.
    slot.assign(static_cast<size_t>(entity_dim), 0.0f);
    for (int64_t i = 0; i < n; ++i) {
      const float* r = rows.data() + i * cols;
      for (int64_t j = 0; j < entity_dim; ++j) slot[j] += r[j];
    }
    const float inv = 1.0f / static_cast<float>(siblings.size());
    for (int64_t j = 0; j < entity_dim; ++j) slot[j] *= inv;
  }

  // Dedup relations in first-triple order — the same order AddTriple builds
  // Entity::relations in, so replayed KB state and this synthesis agree.
  kb::Entity synth;
  synth.title = entity.title;
  synth.coarse_type = entity.coarse;
  synth.types = entity.types;
  for (const DeltaTriple& t : entity.triples) {
    if (std::find(synth.relations.begin(), synth.relations.end(),
                  t.relation) == synth.relations.end()) {
      synth.relations.push_back(t.relation);
    }
  }
  return model.SynthesizeFrozenRow(synth, slot.empty() ? nullptr : slot.data(),
                                   entity.title_token_id, row->data());
}

util::Status PublishDelta(const std::string& store_root,
                          const store::EmbeddingStore& parent,
                          int64_t parent_generation, const IndexDelta& delta,
                          const float* rows, PublishResult* out) {
  if (delta.entities.empty()) {
    return util::Status::InvalidArgument("empty delta");
  }
  const std::string parent_name = fs::path(parent.dir()).filename().string();
  if (!IsGenDirName(parent_name)) {
    return util::Status::InvalidArgument(
        "cannot chain onto a store outside a gen_<number> directory: " +
        parent.dir());
  }

  const store::TableInfo* static_table = parent.FindTable("static");
  if (static_table == nullptr) {
    return util::Status::InvalidArgument("parent store has no 'static' table");
  }
  if (delta.base_entities != static_table->rows) {
    return util::Status::InvalidArgument(
        "delta bases on " + std::to_string(delta.base_entities) +
        " entities but the parent serves " +
        std::to_string(static_table->rows));
  }

  const int64_t generation = FirstFreeGeneration(store_root, parent_generation);
  const std::string dir =
      (fs::path(store_root) / GenDirName(generation)).string();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create " + dir + ": " + ec.message());
  }

  // Child tables: every parent shard re-referenced by content (its dir tag
  // now naming the directory it physically lives in), plus one fresh delta
  // shard appended to "static".
  const int64_t num_new = static_cast<int64_t>(delta.entities.size());
  std::vector<store::TableInfo> tables = parent.tables();
  std::vector<store::AuxFileInfo> aux = parent.aux_files();
  for (store::TableInfo& t : tables) {
    for (store::ShardInfo& s : t.shards) {
      if (s.dir.empty()) s.dir = parent_name;
    }
  }
  for (store::AuxFileInfo& a : aux) {
    if (a.dir.empty()) a.dir = parent_name;
  }
  for (store::TableInfo& t : tables) {
    if (t.name != "static") continue;
    char shard_name[64];
    std::snprintf(shard_name, sizeof(shard_name), "static.delta_%06lld.bin",
                  static_cast<long long>(generation));
    store::ShardInfo info;
    double max_err = 0.0, sum_err = 0.0;
    BOOTLEG_RETURN_IF_ERROR(store::WriteTableShard(
        dir, shard_name, "static", rows, t.rows, num_new, t.cols, t.dtype,
        &info, &max_err, &sum_err));
    // Fold the delta rows into the table-wide quantization error stats.
    const double old_elems = static_cast<double>(t.rows) * t.cols;
    const double new_elems = static_cast<double>(num_new) * t.cols;
    t.max_abs_error = std::max(t.max_abs_error, max_err);
    t.mean_abs_error = (t.mean_abs_error * old_elems + sum_err) /
                       (old_elems + new_elems);
    t.rows += num_new;
    t.shards.push_back(std::move(info));
  }

  // The INDEX_DELTA aux file: committed (atomically) before the manifest
  // that references it.
  const std::string delta_file = DeltaFileName(generation);
  BOOTLEG_RETURN_IF_ERROR(WriteIndexDelta(dir + "/" + delta_file, delta));
  auto bytes = util::ReadTextFile(dir + "/" + delta_file);
  BOOTLEG_RETURN_IF_ERROR(bytes.status());
  store::AuxFileInfo delta_aux;
  delta_aux.file = delta_file;
  delta_aux.file_bytes = bytes.value().size();
  delta_aux.crc = util::Crc32(bytes.value().data(), bytes.value().size());
  aux.push_back(std::move(delta_aux));

  BOOTLEG_RETURN_IF_ERROR(store::WriteChainedManifest(dir, tables, aux));
  if (out != nullptr) {
    out->dir = dir;
    out->generation = generation;
  }
  return util::Status::OK();
}

util::Status ApplyDeltas(const store::EmbeddingStore& store,
                         kb::KnowledgeBase* kb, kb::CandidateMap* candidates,
                         std::vector<int64_t>* title_token_ids,
                         ApplyStats* stats) {
  if (stats != nullptr) *stats = ApplyStats();
  for (const store::AuxFileInfo& a : store.aux_files()) {
    if (!IsDeltaFileName(a.file)) continue;
    auto delta = ReadIndexDelta(store.AuxPath(a));
    BOOTLEG_RETURN_IF_ERROR(delta.status());
    if (stats != nullptr) ++stats->deltas_seen;
    if (delta.value().base_entities > kb->num_entities()) {
      return util::Status::Corruption(
          "delta chain gap: " + a.file + " bases on " +
          std::to_string(delta.value().base_entities) +
          " entities but only " + std::to_string(kb->num_entities()) +
          " are present");
    }
    // Idempotent replay: records below the current entity count were applied
    // by an earlier adoption of a shorter chain.
    const int64_t skip = kb->num_entities() - delta.value().base_entities;
    const auto& records = delta.value().entities;
    for (size_t i = static_cast<size_t>(skip); i < records.size(); ++i) {
      const DeltaEntity& rec = records[i];
      util::Status valid =
          ValidateDeltaEntity(*kb, *candidates, kb->num_entities(), rec);
      if (!valid.ok()) {
        return util::Status::Corruption("delta record rejected (" + a.file +
                                        "): " + valid.message());
      }
      kb::Entity e;
      e.title = rec.title;
      e.coarse_type = rec.coarse;
      e.gender = rec.gender;
      e.types = rec.types;
      for (const DeltaAlias& al : rec.aliases) {
        if (al.alias != rec.title) e.aliases.push_back(al.alias);
      }
      const kb::EntityId id = kb->AddEntity(std::move(e));
      for (const DeltaTriple& t : rec.triples) {
        kb->AddTriple(id, t.relation, t.object);
      }
      for (const DeltaAlias& al : rec.aliases) {
        util::Status cs = candidates->AddCandidateLive(al.alias, id, al.prior);
        if (!cs.ok()) {
          return util::Status::Corruption("candidate delta rejected (" +
                                          a.file + "): " + cs.message());
        }
      }
      if (title_token_ids != nullptr) {
        title_token_ids->push_back(rec.title_token_id);
      }
      if (stats != nullptr) ++stats->entities_applied;
    }
  }
  return util::Status::OK();
}

util::Status Compact(const std::string& store_root, CompactResult* out) {
  BOOTLEG_CHECK(out != nullptr);
  *out = CompactResult();
  int64_t source_gen = -1;
  auto opened = store::OpenNewestGeneration(store_root, &source_gen);
  BOOTLEG_RETURN_IF_ERROR(opened.status());
  const store::EmbeddingStore& src = *opened.value();
  out->source_generation = source_gen;

  bool flat = true;
  for (const store::TableInfo& t : src.tables()) {
    for (const store::ShardInfo& s : t.shards) flat &= s.dir.empty();
  }
  for (const store::AuxFileInfo& a : src.aux_files()) flat &= a.dir.empty();
  if (flat) {
    out->already_flat = true;
    out->dir = src.dir();
    out->generation = source_gen;
    return util::Status::OK();
  }

  const int64_t generation = FirstFreeGeneration(store_root, source_gen);
  const std::string dir =
      (fs::path(store_root) / GenDirName(generation)).string();
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return util::Status::IOError("cannot create " + dir + ": " + ec.message());
  }

  // Byte-copy every referenced shard into the flat directory under fresh
  // sequential names (delta shards from different generations may otherwise
  // collide). The bytes — and so the payload CRCs and every gathered row —
  // are identical to the chain's.
  std::vector<store::TableInfo> tables = src.tables();
  for (store::TableInfo& t : tables) {
    for (size_t si = 0; si < t.shards.size(); ++si) {
      store::ShardInfo& s = t.shards[si];
      char name[96];
      std::snprintf(name, sizeof(name), "%s.shard_%06lld.bin", t.name.c_str(),
                    static_cast<long long>(si));
      BOOTLEG_RETURN_IF_ERROR(
          CopyFileBytes(RefPath(store_root, src.dir(), s.dir, s.file),
                        dir + "/" + name, s.file_bytes));
      s.file = name;
      s.dir.clear();
      ++out->files_copied;
    }
  }
  std::vector<store::AuxFileInfo> aux = src.aux_files();
  int64_t aux_seq = 0;
  for (store::AuxFileInfo& a : aux) {
    char name[96];
    std::snprintf(name, sizeof(name), "%s%06lld.bin", kIndexDeltaFilePrefix,
                  static_cast<long long>(aux_seq));
    // Non-delta aux files (none today) keep their name; deltas renumber.
    const std::string fresh = IsDeltaFileName(a.file) ? name : a.file;
    ++aux_seq;
    BOOTLEG_RETURN_IF_ERROR(CopyFileBytes(src.AuxPath(a), dir + "/" + fresh,
                                          a.file_bytes));
    a.file = fresh;
    a.dir.clear();
    ++out->files_copied;
  }

  BOOTLEG_RETURN_IF_ERROR(store::WriteChainedManifest(dir, tables, aux));

  // Certify before reporting success: the compacted generation must open and
  // fully CRC-verify, or the caller should not point traffic at it.
  auto check = store::EmbeddingStore::Open(dir);
  BOOTLEG_RETURN_IF_ERROR(check.status());
  BOOTLEG_RETURN_IF_ERROR(check.value()->Verify());

  out->dir = dir;
  out->generation = generation;
  return util::Status::OK();
}

}  // namespace bootleg::index
