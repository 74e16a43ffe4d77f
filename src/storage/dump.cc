#include "storage/dump.h"

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/failpoint.h"
#include "common/string_util.h"
#include "storage/csv.h"

namespace mweaver::storage {

namespace {

constexpr const char* kMagic = "mweaverdb";
constexpr int kVersion = 1;

const char* TypeTag(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "?";
}

Result<ValueType> ParseTypeTag(const std::string& tag) {
  if (tag == "int64") return ValueType::kInt64;
  if (tag == "double") return ValueType::kDouble;
  if (tag == "string") return ValueType::kString;
  if (tag == "null") return ValueType::kNull;
  return Status::InvalidArgument("unknown attribute type tag '" + tag + "'");
}

// Strings are backslash-escaped so every record stays on a single line
// (the dump reader is line-oriented).
std::string EscapeNewlines(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeNewlines(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\') {
      out += s[i];
      continue;
    }
    if (++i >= s.size()) {
      return Status::InvalidArgument("dangling escape in dump string");
    }
    switch (s[i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::InvalidArgument("unknown escape in dump string");
    }
  }
  return out;
}

// Cell encoding: "" is NULL; otherwise a one-character type sigil followed
// by the value text ("s" string, "i" int64, "d" double). The sigil keeps
// empty strings distinguishable from NULLs.
std::string EncodeCell(ValueView value) {
  switch (value.type()) {
    case ValueType::kNull:
      return "";
    case ValueType::kInt64:
      return "i" + std::to_string(value.AsInt64());
    case ValueType::kDouble:
      return "d" + StrFormat("%.17g", value.AsDouble());
    case ValueType::kString:
      return "s" + EscapeNewlines(value.AsString());
  }
  return "";
}

Result<Value> DecodeCell(const std::string& text) {
  if (text.empty()) return Value::Null();
  const std::string body = text.substr(1);
  switch (text[0]) {
    case 's': {
      MW_ASSIGN_OR_RETURN(std::string unescaped, UnescapeNewlines(body));
      return Value(std::move(unescaped));
    }
    case 'i': {
      errno = 0;
      char* end = nullptr;
      const long long v = std::strtoll(body.c_str(), &end, 10);
      if (errno != 0 || end == body.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad int64 cell '" + text + "'");
      }
      return Value(static_cast<int64_t>(v));
    }
    case 'd': {
      errno = 0;
      char* end = nullptr;
      const double v = std::strtod(body.c_str(), &end);
      if (errno != 0 || end == body.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad double cell '" + text + "'");
      }
      return Value(v);
    }
    default:
      return Status::InvalidArgument("bad cell sigil in '" + text + "'");
  }
}

}  // namespace

Status DumpDatabase(const Database& db, std::ostream* out) {
  *out << kMagic << " " << kVersion << "\n";
  *out << FormatCsvLine({"db", db.name()}) << "\n";
  for (size_t r = 0; r < db.num_relations(); ++r) {
    const Relation& rel = db.relation(static_cast<RelationId>(r));
    *out << FormatCsvLine({"relation", rel.name(),
                           std::to_string(rel.schema().num_attributes())})
         << "\n";
    for (const AttributeSchema& attr : rel.schema().attributes()) {
      *out << FormatCsvLine({"attr", attr.name, TypeTag(attr.type),
                             attr.searchable ? "1" : "0"})
           << "\n";
    }
    if (!rel.schema().primary_key().empty()) {
      std::vector<std::string> pk{"pk"};
      for (AttributeId a : rel.schema().primary_key()) {
        pk.push_back(std::to_string(a));
      }
      *out << FormatCsvLine(pk) << "\n";
    }
    for (size_t r = 0; r < rel.num_rows(); ++r) {
      std::vector<std::string> fields{"row"};
      fields.reserve(rel.schema().num_attributes() + 1);
      for (size_t a = 0; a < rel.schema().num_attributes(); ++a) {
        fields.push_back(EncodeCell(
            rel.at(static_cast<RowId>(r), static_cast<AttributeId>(a))));
      }
      *out << FormatCsvLine(fields) << "\n";
    }
  }
  for (const ForeignKey& fk : db.foreign_keys()) {
    const Relation& from = db.relation(fk.from_relation);
    const Relation& to = db.relation(fk.to_relation);
    *out << FormatCsvLine(
                {"fk", from.name(),
                 from.schema().attribute(fk.from_attribute).name, to.name(),
                 to.schema().attribute(fk.to_attribute).name})
         << "\n";
  }
  if (!*out) return Status::IOError("dump write failed");
  return Status::OK();
}

Status DumpDatabaseToFile(const Database& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  return DumpDatabase(db, &out);
}

Result<Database> LoadDatabase(std::istream* in) {
  std::string line;
  if (!std::getline(*in, line)) {
    return Status::InvalidArgument("empty dump");
  }
  std::istringstream header(line);
  std::string magic;
  int version = 0;
  header >> magic >> version;
  if (magic != kMagic || version != kVersion) {
    return Status::InvalidArgument("not an mweaverdb v1 dump: " + line);
  }

  Database db;
  Relation* current = nullptr;
  // Attribute records follow their relation record; we buffer the schema
  // until the first pk/row/next-relation record, then register it.
  std::string pending_name;
  std::vector<AttributeSchema> pending_attrs;
  std::vector<AttributeId> pending_pk;
  size_t pending_declared = 0;
  bool has_pending = false;

  auto flush_pending = [&]() -> Status {
    if (!has_pending) return Status::OK();
    // Chaos site: relation materialization failing mid-load (short read,
    // corrupt page) — the load must fail cleanly, not half-register.
    MW_FAILPOINT_RETURN_NOT_OK("storage.load.relation");
    if (pending_attrs.size() != pending_declared) {
      return Status::InvalidArgument(StrFormat(
          "relation '%s' declares %zu attributes but lists %zu",
          pending_name.c_str(), pending_declared, pending_attrs.size()));
    }
    RelationSchema schema(pending_name, std::move(pending_attrs));
    if (!pending_pk.empty()) schema.SetPrimaryKey(std::move(pending_pk));
    MW_ASSIGN_OR_RETURN(RelationId id, db.AddRelation(std::move(schema)));
    current = db.mutable_relation(id);
    pending_attrs = {};
    pending_pk = {};
    has_pending = false;
    return Status::OK();
  };

  size_t line_no = 1;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    MW_ASSIGN_OR_RETURN(std::vector<std::string> fields, ParseCsvLine(line));
    const std::string& kind = fields[0];
    if (kind == "db") {
      if (fields.size() != 2) {
        return Status::InvalidArgument("bad db record at line " +
                                       std::to_string(line_no));
      }
      db = Database(fields[1]);
      current = nullptr;
    } else if (kind == "relation") {
      MW_RETURN_NOT_OK(flush_pending());
      if (fields.size() != 3) {
        return Status::InvalidArgument("bad relation record at line " +
                                       std::to_string(line_no));
      }
      pending_name = fields[1];
      pending_declared =
          static_cast<size_t>(std::strtoull(fields[2].c_str(), nullptr, 10));
      has_pending = true;
      current = nullptr;
    } else if (kind == "attr") {
      if (!has_pending || fields.size() != 4) {
        return Status::InvalidArgument("stray attr record at line " +
                                       std::to_string(line_no));
      }
      MW_ASSIGN_OR_RETURN(ValueType type, ParseTypeTag(fields[2]));
      pending_attrs.push_back(
          AttributeSchema{fields[1], type, fields[3] == "1"});
    } else if (kind == "pk") {
      if (!has_pending) {
        return Status::InvalidArgument("stray pk record at line " +
                                       std::to_string(line_no));
      }
      for (size_t i = 1; i < fields.size(); ++i) {
        pending_pk.push_back(static_cast<AttributeId>(
            std::strtol(fields[i].c_str(), nullptr, 10)));
      }
    } else if (kind == "row") {
      MW_RETURN_NOT_OK(flush_pending());
      if (current == nullptr) {
        return Status::InvalidArgument("row before any relation at line " +
                                       std::to_string(line_no));
      }
      Row row;
      row.reserve(fields.size() - 1);
      for (size_t i = 1; i < fields.size(); ++i) {
        MW_ASSIGN_OR_RETURN(Value v, DecodeCell(fields[i]));
        row.push_back(std::move(v));
      }
      MW_RETURN_NOT_OK(current->Append(std::move(row)));
    } else if (kind == "fk") {
      MW_RETURN_NOT_OK(flush_pending());
      if (fields.size() != 5) {
        return Status::InvalidArgument("bad fk record at line " +
                                       std::to_string(line_no));
      }
      // Chaos site: FK resolution faulting while the catalog is wired up.
      MW_FAILPOINT_RETURN_NOT_OK("storage.load.foreign_key");
      MW_ASSIGN_OR_RETURN(ForeignKeyId fk_id,
                          db.AddForeignKey(fields[1], fields[2], fields[3],
                                           fields[4]));
      (void)fk_id;
    } else {
      return Status::InvalidArgument("unknown record '" + kind +
                                     "' at line " + std::to_string(line_no));
    }
  }
  MW_RETURN_NOT_OK(flush_pending());
  return db;
}

Result<Database> LoadDatabaseFromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open dump: " + path);
  return LoadDatabase(&in);
}

}  // namespace mweaver::storage
