#include "kb/kb.h"

#include <algorithm>

#include "util/io.h"
#include "util/logging.h"

namespace bootleg::kb {

const char* CoarseTypeName(CoarseType t) {
  switch (t) {
    case CoarseType::kPerson:
      return "person";
    case CoarseType::kLocation:
      return "location";
    case CoarseType::kOrganization:
      return "organization";
    case CoarseType::kArtifact:
      return "artifact";
    case CoarseType::kEvent:
      return "event";
    case CoarseType::kMisc:
      return "miscellaneous";
  }
  return "?";
}

std::optional<CoarseType> CoarseTypeFromName(const std::string& name) {
  for (int64_t i = 0; i < kNumCoarseTypes; ++i) {
    const CoarseType t = static_cast<CoarseType>(i);
    if (name == CoarseTypeName(t)) return t;
  }
  return std::nullopt;
}

TypeId KnowledgeBase::AddType(const std::string& name, CoarseType coarse) {
  const TypeId id = num_types();
  types_.push_back({id, name, coarse});
  return id;
}

RelationId KnowledgeBase::AddRelation(const std::string& name) {
  const RelationId id = num_relations();
  relations_.push_back({id, name});
  return id;
}

EntityId KnowledgeBase::AddEntity(Entity entity) {
  const EntityId id = num_entities();
  entity.id = id;
  if (std::find(entity.aliases.begin(), entity.aliases.end(), entity.title) ==
      entity.aliases.end()) {
    entity.aliases.push_back(entity.title);
  }
  title_index_.emplace(entity.title, id);
  entities_.push_back(std::move(entity));
  return id;
}

void KnowledgeBase::AddTriple(EntityId subject, RelationId relation,
                              EntityId object) {
  BOOTLEG_CHECK(subject >= 0 && subject < num_entities());
  BOOTLEG_CHECK(object >= 0 && object < num_entities());
  BOOTLEG_CHECK(relation >= 0 && relation < num_relations());
  triples_.push_back({subject, relation, object});
  neighbors_[subject].emplace_back(object, relation);
  neighbors_[object].emplace_back(subject, relation);
  auto add_rel = [this](EntityId e, RelationId r) {
    auto& rels = entities_[static_cast<size_t>(e)].relations;
    if (std::find(rels.begin(), rels.end(), r) == rels.end()) rels.push_back(r);
  };
  add_rel(subject, relation);
  add_rel(object, relation);
}

void KnowledgeBase::AddSubclass(EntityId child, EntityId parent) {
  subclass_parents_[child].push_back(parent);
}

const Entity& KnowledgeBase::entity(EntityId id) const {
  BOOTLEG_CHECK(id >= 0 && id < num_entities());
  return entities_[static_cast<size_t>(id)];
}

Entity& KnowledgeBase::mutable_entity(EntityId id) {
  BOOTLEG_CHECK(id >= 0 && id < num_entities());
  return entities_[static_cast<size_t>(id)];
}

const TypeInfo& KnowledgeBase::type(TypeId id) const {
  BOOTLEG_CHECK(id >= 0 && id < num_types());
  return types_[static_cast<size_t>(id)];
}

const RelationInfo& KnowledgeBase::relation(RelationId id) const {
  BOOTLEG_CHECK(id >= 0 && id < num_relations());
  return relations_[static_cast<size_t>(id)];
}

bool KnowledgeBase::Connected(EntityId a, EntityId b) const {
  return RelationBetween(a, b).has_value();
}

std::optional<RelationId> KnowledgeBase::RelationBetween(EntityId a,
                                                         EntityId b) const {
  auto it = neighbors_.find(a);
  if (it == neighbors_.end()) return std::nullopt;
  for (const auto& [other, rel] : it->second) {
    if (other == b) return rel;
  }
  return std::nullopt;
}

const std::vector<std::pair<EntityId, RelationId>>& KnowledgeBase::Neighbors(
    EntityId id) const {
  auto it = neighbors_.find(id);
  return it == neighbors_.end() ? empty_neighbors_ : it->second;
}

bool KnowledgeBase::TwoHopConnected(EntityId a, EntityId b) const {
  if (Connected(a, b)) return false;
  auto it = neighbors_.find(a);
  if (it == neighbors_.end()) return false;
  for (const auto& [mid, rel] : it->second) {
    (void)rel;
    if (mid != b && Connected(mid, b)) return true;
  }
  return false;
}

bool KnowledgeBase::IsSubclassOf(EntityId child, EntityId parent,
                                 int max_depth) const {
  if (max_depth <= 0) return false;
  auto it = subclass_parents_.find(child);
  if (it == subclass_parents_.end()) return false;
  for (EntityId p : it->second) {
    if (p == parent || IsSubclassOf(p, parent, max_depth - 1)) return true;
  }
  return false;
}

bool KnowledgeBase::SubclassRelated(EntityId a, EntityId b) const {
  return IsSubclassOf(a, b, 4) || IsSubclassOf(b, a, 4);
}

bool KnowledgeBase::SharesType(EntityId a, EntityId b) const {
  const auto& ta = entity(a).types;
  const auto& tb = entity(b).types;
  for (TypeId t : ta) {
    if (std::find(tb.begin(), tb.end(), t) != tb.end()) return true;
  }
  return false;
}

EntityId KnowledgeBase::FindByTitle(const std::string& title) const {
  auto it = title_index_.find(title);
  return it == title_index_.end() ? kInvalidId : it->second;
}

TypeId KnowledgeBase::FindTypeByName(const std::string& name) const {
  for (const TypeInfo& t : types_) {
    if (t.name == name) return t.id;
  }
  return kInvalidId;
}

RelationId KnowledgeBase::FindRelationByName(const std::string& name) const {
  for (const RelationInfo& r : relations_) {
    if (r.name == name) return r.id;
  }
  return kInvalidId;
}

namespace {

// Snapshot format magic. v1 carries a version word, per-section CRC32s, and
// an end-of-file footer.
constexpr uint32_t kKbMagicV1 = 0xB0071EB1;
constexpr uint32_t kKbFormatVersion = 1;

bool InRange(int64_t id, int64_t limit) { return id >= 0 && id < limit; }

}  // namespace

util::Status KnowledgeBase::Save(const std::string& path) const {
  util::AtomicFileWriter atomic(path);
  util::BinaryWriter w(atomic.temp_path());
  w.WriteU32(kKbMagicV1);
  w.WriteU32(kKbFormatVersion);
  w.BeginSection();
  w.WriteU64(types_.size());
  for (const TypeInfo& t : types_) {
    w.WriteString(t.name);
    w.WriteI64(static_cast<int64_t>(t.coarse));
  }
  w.WriteU64(relations_.size());
  for (const RelationInfo& r : relations_) w.WriteString(r.name);
  w.EndSection();
  w.BeginSection();
  w.WriteU64(entities_.size());
  for (const Entity& e : entities_) {
    w.WriteString(e.title);
    w.WriteU64(e.aliases.size());
    for (const std::string& a : e.aliases) w.WriteString(a);
    w.WriteI64Vector(e.types);
    w.WriteI64(static_cast<int64_t>(e.coarse_type));
    w.WriteU32(static_cast<uint32_t>(e.gender));
  }
  w.EndSection();
  w.BeginSection();
  w.WriteU64(triples_.size());
  for (const Triple& t : triples_) {
    w.WriteI64(t.subject);
    w.WriteI64(t.relation);
    w.WriteI64(t.object);
  }
  w.WriteU64(subclass_parents_.size());
  for (const auto& [child, parents] : subclass_parents_) {
    w.WriteI64(child);
    w.WriteI64Vector(parents);
  }
  w.EndSection();
  w.WriteFooter();
  BOOTLEG_RETURN_IF_ERROR(w.Finish());
  return atomic.Commit();
}

util::Status KnowledgeBase::Load(const std::string& path) {
  util::BinaryReader r(path);
  BOOTLEG_RETURN_IF_ERROR(r.status());
  if (r.ReadU32() != kKbMagicV1) {
    return util::Status::Corruption("bad KB magic: " + path);
  }
  const uint32_t version = r.ReadU32();
  if (r.status().ok() && version != kKbFormatVersion) {
    return util::Status::Corruption("unsupported KB version: " + path);
  }
  *this = KnowledgeBase();
  // Every id read below is range-checked before use: construction helpers
  // like AddTriple CHECK-fail on bad ids, and a corrupt or bit-flipped file
  // must surface as Status::Corruption, never a crash.
  r.BeginSection();
  const uint64_t nt = r.ReadU64();
  for (uint64_t i = 0; i < nt && r.status().ok(); ++i) {
    const std::string name = r.ReadString();
    const int64_t coarse = r.ReadI64();
    if (!r.status().ok()) break;
    if (!InRange(coarse, kNumCoarseTypes)) {
      return util::Status::Corruption("type coarse id out of range: " + path);
    }
    AddType(name, static_cast<CoarseType>(coarse));
  }
  const uint64_t nr = r.ReadU64();
  for (uint64_t i = 0; i < nr && r.status().ok(); ++i) AddRelation(r.ReadString());
  r.EndSection();
  r.BeginSection();
  const uint64_t ne = r.ReadU64();
  for (uint64_t i = 0; i < ne && r.status().ok(); ++i) {
    Entity e;
    e.title = r.ReadString();
    const uint64_t na = r.ReadU64();
    for (uint64_t j = 0; j < na && r.status().ok(); ++j) {
      e.aliases.push_back(r.ReadString());
    }
    e.types = r.ReadI64Vector();
    const int64_t coarse = r.ReadI64();
    e.gender = static_cast<char>(r.ReadU32());
    if (!r.status().ok()) break;
    if (!InRange(coarse, kNumCoarseTypes)) {
      return util::Status::Corruption("entity coarse id out of range: " + path);
    }
    e.coarse_type = static_cast<CoarseType>(coarse);
    for (TypeId t : e.types) {
      if (!InRange(t, num_types())) {
        return util::Status::Corruption("entity type id out of range: " + path);
      }
    }
    AddEntity(std::move(e));
  }
  r.EndSection();
  r.BeginSection();
  const uint64_t ntr = r.ReadU64();
  for (uint64_t i = 0; i < ntr && r.status().ok(); ++i) {
    const EntityId s = r.ReadI64();
    const RelationId rel = r.ReadI64();
    const EntityId o = r.ReadI64();
    if (!r.status().ok()) break;
    if (!InRange(s, num_entities()) || !InRange(o, num_entities()) ||
        !InRange(rel, num_relations())) {
      return util::Status::Corruption("triple id out of range: " + path);
    }
    AddTriple(s, rel, o);
  }
  const uint64_t ns = r.ReadU64();
  for (uint64_t i = 0; i < ns && r.status().ok(); ++i) {
    const EntityId child = r.ReadI64();
    const std::vector<EntityId> parents = r.ReadI64Vector();
    if (!r.status().ok()) break;
    if (!InRange(child, num_entities())) {
      return util::Status::Corruption("subclass child out of range: " + path);
    }
    for (EntityId parent : parents) {
      if (!InRange(parent, num_entities())) {
        return util::Status::Corruption("subclass parent out of range: " + path);
      }
      AddSubclass(child, parent);
    }
  }
  r.EndSection();
  r.VerifyFooter();
  if (!r.status().ok()) {
    return util::Status::Corruption(r.status().message() + ": " + path);
  }
  return util::Status::OK();
}

}  // namespace bootleg::kb
