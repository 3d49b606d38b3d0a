#ifndef BOOTLEG_INDEX_LIVE_INDEX_H_
#define BOOTLEG_INDEX_LIVE_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/model.h"
#include "kb/candidate_map.h"
#include "kb/kb.h"
#include "store/embedding_store.h"
#include "util/status.h"

namespace bootleg::index {

/// Live index mutation: add a never-trained entity to a serving deployment
/// without retraining or re-exporting the store.
///
/// The paper's central claim (Sec. 3, Sec. D.1) is that tail and unseen
/// entities are recoverable from their types and relations — ~90% of tail
/// entities keep non-tail types/relations. This subsystem turns that
/// inductive story into an online operation:
///
///   1. InduceRow() synthesizes the new entity's frozen feature row from its
///      declared types and relations through the frozen type/relation
///      embedding tables and pooling weights (the exact math
///      PrepareFrozenInference runs per trained entity); the untrainable
///      entity-embedding slot is filled with a sibling centroid gathered
///      from the live store.
///   2. PublishDelta() appends the row as a delta shard plus an INDEX_DELTA
///      aux file (the KB/alias/candidate mutations) and publishes generation
///      N+1 whose chained manifest references the parent's unchanged shards
///      by content (exact size + payload CRC) instead of rewriting them.
///   3. ApplyDeltas() replays a chain's INDEX_DELTA files onto the serving
///      KnowledgeBase and CandidateMap, idempotently, so the store rows and
///      the KB agree before the model adopts the new view.
///   4. Compact() folds a long chain back into one flat generation by
///      byte-copying the referenced shard files (gathers stay bit-identical)
///      and merging the aux files.
///
/// Crash safety matches WriteStore: every delta artifact is committed before
/// the manifest, the manifest itself is atomic, and a torn publish leaves a
/// directory without a valid manifest that generation scans skip.

/// One alias under which the new entity should be a candidate. `prior` is
/// the mass the entity takes inside an existing alias's candidate list (the
/// survivors are rescaled by 1-prior); a brand-new alias gets the entity as
/// its only candidate regardless of `prior`.
struct DeltaAlias {
  std::string alias;
  float prior = 0.5f;
};

/// One KG edge of the new entity. `object` may be any entity already in the
/// chain, including one added earlier in the same delta.
struct DeltaTriple {
  kb::RelationId relation = kb::kInvalidId;
  kb::EntityId object = kb::kInvalidId;
};

/// A new entity, fully resolved against the base KB (type/relation ids, not
/// names — resolution from names happens at the admin-op / CLI boundary).
struct DeltaEntity {
  std::string title;
  kb::CoarseType coarse = kb::CoarseType::kMisc;
  char gender = 'n';
  std::vector<kb::TypeId> types;
  std::vector<DeltaTriple> triples;
  std::vector<DeltaAlias> aliases;  // must include the title alias
  /// Vocabulary id of the title token (resolved at publish time so applying
  /// a delta needs no vocabulary); feeds the title feature.
  int64_t title_token_id = 0;
};

/// The KB-side mutations of one published delta generation, persisted as an
/// aux file in that generation's directory. `base_entities` records the
/// chain's entity count before this delta — replays skip already-applied
/// records, so applying a chain is idempotent.
struct IndexDelta {
  int64_t base_entities = 0;
  std::vector<DeltaEntity> entities;
};

/// Aux files whose name starts with this prefix are index deltas.
inline constexpr char kIndexDeltaFilePrefix[] = "index_delta_";

/// CRC-checked v1 binary round trip (AtomicFileWriter on the write side).
util::Status WriteIndexDelta(const std::string& path, const IndexDelta& delta);
util::StatusOr<IndexDelta> ReadIndexDelta(const std::string& path);

/// Validates a DeltaEntity against the current KB + candidate map state:
/// unused title, known gender code, in-range type/relation/object ids,
/// non-empty alias list containing the title, priors in (0,1). Returns
/// InvalidArgument with a
/// human-readable reason — the admin op surfaces it as a structured error.
util::Status ValidateDeltaEntity(const kb::KnowledgeBase& kb,
                                 const kb::CandidateMap& candidates,
                                 int64_t chain_entities,
                                 const DeltaEntity& entity);

/// Synthesizes the frozen static-feature row of `entity` (the paper's
/// inductive path): entity slot = centroid of sibling entities (fine-type
/// siblings first, then coarse-type, then a global sample) gathered from the
/// live store view's entity columns; type/relation slots pooled through the
/// frozen tables by model.SynthesizeFrozenRow(). `row` receives
/// model.FrozenStaticCols() floats.
util::Status InduceRow(const core::BootlegModel& model,
                       const kb::KnowledgeBase& kb,
                       const store::StoreView& view, const DeltaEntity& entity,
                       std::vector<float>* row);

struct PublishResult {
  std::string dir;         // the new generation's directory
  int64_t generation = 0;  // its parsed number
};

/// Publishes `delta` (whose rows were induced into `rows`, a
/// [delta.entities.size() × static-cols] row-major matrix) as an incremental
/// generation chained onto `parent`: a delta shard appended to the "static"
/// table (quantized to the table's dtype), an INDEX_DELTA aux file, and a v2
/// manifest referencing every unchanged parent file by content. The parent
/// must live in a `gen_<digits>` directory under `store_root`.
util::Status PublishDelta(const std::string& store_root,
                          const store::EmbeddingStore& parent,
                          int64_t parent_generation, const IndexDelta& delta,
                          const float* rows, PublishResult* out);

struct ApplyStats {
  int64_t entities_applied = 0;  // newly applied (not previously replayed)
  int64_t deltas_seen = 0;       // INDEX_DELTA files in the chain
};

/// Replays the chain's INDEX_DELTA aux files (base → tip) onto `kb` and
/// `candidates`, skipping records already applied (by entity count). When
/// `title_token_ids` is non-null the applied entities' title token ids are
/// appended to it (the serving model's SetTitleTokenIds bookkeeping).
/// On error the KB may hold a prefix of the chain's mutations — callers
/// must treat the (kb, candidates) pair as unservable for this store.
util::Status ApplyDeltas(const store::EmbeddingStore& store,
                         kb::KnowledgeBase* kb, kb::CandidateMap* candidates,
                         std::vector<int64_t>* title_token_ids,
                         ApplyStats* stats);

struct CompactResult {
  std::string dir;                // the flat generation's directory
  int64_t generation = 0;         // its number
  int64_t source_generation = 0;  // the chain tip that was compacted
  int64_t files_copied = 0;
  bool already_flat = false;      // nothing to do; dir/generation = source
};

/// Folds the newest valid chain under `store_root` into one flat generation:
/// every referenced shard file is byte-copied (payload CRCs carry over, so
/// gathers from the compacted generation are bit-identical to the chain),
/// aux files are renumbered into the new directory, and a v2 manifest with
/// no cross-directory references lands last. The source chain is left in
/// place — the caller (or an operator) prunes old generations once the
/// compacted one is adopted. No-op when the newest generation is already
/// flat.
util::Status Compact(const std::string& store_root, CompactResult* out);

}  // namespace bootleg::index

#endif  // BOOTLEG_INDEX_LIVE_INDEX_H_
