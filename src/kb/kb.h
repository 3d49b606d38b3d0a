#ifndef BOOTLEG_KB_KB_H_
#define BOOTLEG_KB_KB_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/status.h"

namespace bootleg::kb {

using EntityId = int64_t;
using TypeId = int64_t;
using RelationId = int64_t;

inline constexpr int64_t kInvalidId = -1;

/// Coarse NER-style types (the paper uses the 5 coarse HYENA types plus
/// miscellaneous for mention type prediction).
enum class CoarseType : int64_t {
  kPerson = 0,
  kLocation = 1,
  kOrganization = 2,
  kArtifact = 3,
  kEvent = 4,
  kMisc = 5,
};
inline constexpr int64_t kNumCoarseTypes = 6;

const char* CoarseTypeName(CoarseType t);

/// Inverse of CoarseTypeName; nullopt for an unknown name.
std::optional<CoarseType> CoarseTypeFromName(const std::string& name);

/// A fine-grained type (Wikidata "instance of"/"occupation"-style).
struct TypeInfo {
  TypeId id = kInvalidId;
  std::string name;
  CoarseType coarse = CoarseType::kMisc;
};

/// A KG relation (Wikidata property-style, e.g. "capital of").
struct RelationInfo {
  RelationId id = kInvalidId;
  std::string name;
};

/// A knowledge-base entity with its structural signals.
struct Entity {
  EntityId id = kInvalidId;
  std::string title;
  std::vector<std::string> aliases;      // includes the title
  std::vector<TypeId> types;             // fine-grained types (possibly empty)
  CoarseType coarse_type = CoarseType::kMisc;
  std::vector<RelationId> relations;     // relations the entity participates in
  char gender = 'n';                     // 'm'/'f' for persons, 'n' otherwise

  bool IsPerson() const { return coarse_type == CoarseType::kPerson; }
};

/// A KG triple (subject, relation, object).
struct Triple {
  EntityId subject = kInvalidId;
  RelationId relation = kInvalidId;
  EntityId object = kInvalidId;
};

/// In-memory knowledge base: entities, types, relations, triples, and a
/// subclass hierarchy (used by the granularity error bucket). This is the
/// stand-in for Wikidata + YAGO in the paper.
class KnowledgeBase {
 public:
  KnowledgeBase() = default;

  // -- construction -----------------------------------------------------------
  TypeId AddType(const std::string& name, CoarseType coarse);
  RelationId AddRelation(const std::string& name);
  EntityId AddEntity(Entity entity);  // entity.id is assigned; aliases may be empty
  void AddTriple(EntityId subject, RelationId relation, EntityId object);
  /// Declares `child` a subclass (finer-granularity variant) of `parent`.
  void AddSubclass(EntityId child, EntityId parent);

  // -- queries ----------------------------------------------------------------
  int64_t num_entities() const { return static_cast<int64_t>(entities_.size()); }
  int64_t num_types() const { return static_cast<int64_t>(types_.size()); }
  int64_t num_relations() const { return static_cast<int64_t>(relations_.size()); }
  int64_t num_triples() const { return static_cast<int64_t>(triples_.size()); }

  const Entity& entity(EntityId id) const;
  Entity& mutable_entity(EntityId id);
  const TypeInfo& type(TypeId id) const;
  const RelationInfo& relation(RelationId id) const;
  const std::vector<Triple>& triples() const { return triples_; }

  /// True if a and b are connected by any triple in either direction.
  bool Connected(EntityId a, EntityId b) const;

  /// The relation on an edge a→b or b→a, if any.
  std::optional<RelationId> RelationBetween(EntityId a, EntityId b) const;

  /// Outgoing+incoming neighbors of an entity with the joining relation.
  const std::vector<std::pair<EntityId, RelationId>>& Neighbors(EntityId id) const;

  /// True if the two entities are 2-hop connected through some intermediate
  /// entity but not directly connected (the paper's multi-hop error bucket).
  bool TwoHopConnected(EntityId a, EntityId b) const;

  /// True if a is a (transitive, depth ≤ 4) subclass of b or vice versa.
  bool SubclassRelated(EntityId a, EntityId b) const;

  /// True if both entities share at least one fine type.
  bool SharesType(EntityId a, EntityId b) const;

  /// Lookup of an entity by exact title; kInvalidId if absent.
  EntityId FindByTitle(const std::string& title) const;

  /// Lookup of a type / relation by exact name; kInvalidId if absent.
  /// Linear scans — these serve the rare live-add admin path, not the
  /// per-request hot path.
  TypeId FindTypeByName(const std::string& name) const;
  RelationId FindRelationByName(const std::string& name) const;

  // -- serialization ----------------------------------------------------------
  /// v1 snapshot format (versioned header, per-section CRC32 checksums,
  /// footer), written atomically via temp file + rename. Load verifies
  /// checksums and every id range, rejecting truncation, bit flips, and
  /// trailing garbage with Status::Corruption — never a crash or oversized
  /// allocation — including a file in the retired unchecksummed v0 layout.
  /// On a non-OK Load the KB contents are unspecified; reload before use.
  util::Status Save(const std::string& path) const;
  util::Status Load(const std::string& path);

 private:
  bool IsSubclassOf(EntityId child, EntityId parent, int max_depth) const;

  std::vector<Entity> entities_;
  std::vector<TypeInfo> types_;
  std::vector<RelationInfo> relations_;
  std::vector<Triple> triples_;
  std::unordered_map<EntityId, std::vector<std::pair<EntityId, RelationId>>>
      neighbors_;
  std::unordered_map<EntityId, std::vector<EntityId>> subclass_parents_;
  std::unordered_map<std::string, EntityId> title_index_;
  std::vector<std::pair<EntityId, RelationId>> empty_neighbors_;
};

}  // namespace bootleg::kb

#endif  // BOOTLEG_KB_KB_H_
