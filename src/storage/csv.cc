#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/string_util.h"

namespace mweaver::storage {

Result<std::vector<std::string>> ParseCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      if (!current.empty()) {
        return Status::InvalidArgument(
            "CSV quote appearing mid-field: " + line);
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(current));
      current.clear();
    } else if (c == '\r') {
      // Tolerate CRLF files.
    } else {
      current += c;
    }
  }
  if (in_quotes) {
    return Status::InvalidArgument("unterminated CSV quote: " + line);
  }
  fields.push_back(std::move(current));
  return fields;
}

std::string FormatCsvLine(const std::vector<std::string>& fields) {
  std::string out;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    const std::string& f = fields[i];
    const bool needs_quote = f.find_first_of(",\"\r\n") != std::string::npos;
    if (needs_quote) {
      out += '"';
      for (char c : f) {
        if (c == '"') out += '"';
        out += c;
      }
      out += '"';
    } else {
      out += f;
    }
  }
  return out;
}

Result<Relation> LoadCsvRelation(const std::string& path,
                                 const std::string& relation_name) {
  std::ifstream in(path);
  if (!in) {
    return Status::IOError("cannot open CSV file: " + path);
  }
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV file: " + path);
  }
  MW_ASSIGN_OR_RETURN(std::vector<std::string> header, ParseCsvLine(line));
  std::vector<AttributeSchema> attrs;
  attrs.reserve(header.size());
  for (std::string& name : header) {
    attrs.push_back(AttributeSchema{Trim(name), ValueType::kString, true});
  }
  Relation rel(RelationSchema(relation_name, std::move(attrs)));
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    MW_ASSIGN_OR_RETURN(std::vector<std::string> fields, ParseCsvLine(line));
    if (fields.size() != rel.schema().num_attributes()) {
      return Status::InvalidArgument(
          StrFormat("%s:%zu: expected %zu fields, got %zu", path.c_str(),
                    line_no, rel.schema().num_attributes(), fields.size()));
    }
    Row row;
    row.reserve(fields.size());
    for (std::string& f : fields) row.emplace_back(std::move(f));
    MW_RETURN_NOT_OK(rel.Append(std::move(row)));
  }
  return rel;
}

Status SaveCsvRelation(const Relation& relation, const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Status::IOError("cannot open CSV file for writing: " + path);
  }
  std::vector<std::string> header;
  header.reserve(relation.schema().num_attributes());
  for (const AttributeSchema& a : relation.schema().attributes()) {
    header.push_back(a.name);
  }
  out << FormatCsvLine(header) << "\n";
  std::vector<std::string> fields(relation.schema().num_attributes());
  for (size_t r = 0; r < relation.num_rows(); ++r) {
    if (relation.is_deleted(static_cast<RowId>(r))) continue;  // live only
    for (size_t c = 0; c < fields.size(); ++c) {
      fields[c] = relation.at(static_cast<RowId>(r),
                              static_cast<AttributeId>(c))
                      .ToDisplayString();
    }
    out << FormatCsvLine(fields) << "\n";
  }
  if (!out) {
    return Status::IOError("write failed: " + path);
  }
  return Status::OK();
}

}  // namespace mweaver::storage
