#include "storage/database.h"

#include "common/string_util.h"

namespace mweaver::storage {

Database Database::Clone() const {
  Database copy(name_);
  copy.relations_.reserve(relations_.size());
  for (const auto& rel : relations_) {
    copy.relations_.push_back(std::make_shared<Relation>(rel->Clone()));
  }
  copy.relations_by_name_ = relations_by_name_;
  copy.foreign_keys_ = foreign_keys_;
  return copy;
}

Database Database::CloneCow(const std::vector<RelationId>& touched) const {
  Database copy(name_);
  copy.relations_ = relations_;  // share everything ...
  for (RelationId id : touched) {  // ... except what the caller will mutate
    copy.relations_[static_cast<size_t>(id)] =
        std::make_shared<Relation>(relation(id).Clone());
  }
  copy.relations_by_name_ = relations_by_name_;
  copy.foreign_keys_ = foreign_keys_;
  return copy;
}

Result<RelationId> Database::AddRelation(RelationSchema schema) {
  if (schema.name().empty()) {
    return Status::InvalidArgument("relation name must be non-empty");
  }
  if (relations_by_name_.count(schema.name()) > 0) {
    return Status::AlreadyExists(
        StrFormat("relation '%s' already exists", schema.name().c_str()));
  }
  const RelationId id = static_cast<RelationId>(relations_.size());
  relations_by_name_.emplace(schema.name(), id);
  relations_.push_back(std::make_shared<Relation>(std::move(schema)));
  return id;
}

Result<ForeignKeyId> Database::AddForeignKey(const std::string& from_relation,
                                             const std::string& from_attribute,
                                             const std::string& to_relation,
                                             const std::string& to_attribute) {
  const RelationId from_rel = FindRelation(from_relation);
  if (from_rel == kInvalidRelation) {
    return Status::NotFound(
        StrFormat("unknown relation '%s'", from_relation.c_str()));
  }
  const RelationId to_rel = FindRelation(to_relation);
  if (to_rel == kInvalidRelation) {
    return Status::NotFound(
        StrFormat("unknown relation '%s'", to_relation.c_str()));
  }
  const AttributeId from_attr =
      relation(from_rel).schema().FindAttribute(from_attribute);
  if (from_attr == kInvalidAttribute) {
    return Status::NotFound(StrFormat("unknown attribute '%s.%s'",
                                      from_relation.c_str(),
                                      from_attribute.c_str()));
  }
  const AttributeId to_attr =
      relation(to_rel).schema().FindAttribute(to_attribute);
  if (to_attr == kInvalidAttribute) {
    return Status::NotFound(StrFormat("unknown attribute '%s.%s'",
                                      to_relation.c_str(),
                                      to_attribute.c_str()));
  }
  const ValueType from_type =
      relation(from_rel).schema().attribute(from_attr).type;
  const ValueType to_type = relation(to_rel).schema().attribute(to_attr).type;
  if (from_type != to_type) {
    return Status::InvalidArgument(StrFormat(
        "foreign key type mismatch: %s.%s (%s) -> %s.%s (%s)",
        from_relation.c_str(), from_attribute.c_str(),
        ValueTypeName(from_type), to_relation.c_str(), to_attribute.c_str(),
        ValueTypeName(to_type)));
  }
  const ForeignKeyId id = static_cast<ForeignKeyId>(foreign_keys_.size());
  foreign_keys_.push_back(
      ForeignKey{from_rel, from_attr, to_rel, to_attr});
  return id;
}

RelationId Database::FindRelation(const std::string& name) const {
  auto it = relations_by_name_.find(name);
  return it == relations_by_name_.end() ? kInvalidRelation : it->second;
}

size_t Database::TotalAttributes() const {
  size_t total = 0;
  for (const auto& rel : relations_) {
    total += rel->schema().num_attributes();
  }
  return total;
}

size_t Database::TotalRows() const {
  size_t total = 0;
  for (const auto& rel : relations_) total += rel->num_live_rows();
  return total;
}

Status Database::CheckReferentialIntegrity() const {
  for (const ForeignKey& fk : foreign_keys_) {
    const Relation& from = relation(fk.from_relation);
    const Relation& to = relation(fk.to_relation);
    // Only the referenced side is indexed: callers may still append to
    // the referencing relation between checks.
    const JoinIndex& to_rows = to.IndexOn(fk.to_attribute);
    for (size_t r = 0; r < from.num_rows(); ++r) {
      if (from.is_deleted(static_cast<RowId>(r))) continue;
      const ValueView v = from.at(static_cast<RowId>(r), fk.from_attribute);
      if (v.is_null()) continue;
      if (to_rows.Lookup(v).empty()) {
        return Status::FailedPrecondition(StrFormat(
            "dangling foreign key: %s.%s row %zu -> %s.%s (value %s)",
            from.name().c_str(),
            from.schema().attribute(fk.from_attribute).name.c_str(), r,
            to.name().c_str(),
            to.schema().attribute(fk.to_attribute).name.c_str(),
            v.ToDisplayString().c_str()));
      }
    }
  }
  return Status::OK();
}

}  // namespace mweaver::storage
