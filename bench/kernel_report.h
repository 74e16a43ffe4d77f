// Shared per-kernel JSON reporting for the lookup/search benches: each bench
// owns one top-level section of BENCH_kernels.json (read-modify-write, so
// bench_text_lookup and bench_table3_search can both land in one file), and
// gates its own section against a checked-in baseline.
//
// Gate rules, per numeric leaf of the section:
//   * timing fields (key ends in "_us" or "_ms"): regression when
//     current > max(baseline * 2, baseline + 10) — generous, because CI
//     runners are noisy; the counters below carry the exactness.
//   * kernel dispatch counters (key starts with "kernel_"): must match the
//     baseline exactly — the dispatch decisions are deterministic for a
//     given dataset seed, and every build runs the same kernels.
//   * anything else: informational, not gated.
#ifndef MWEAVER_BENCH_KERNEL_REPORT_H_
#define MWEAVER_BENCH_KERNEL_REPORT_H_

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "common/json_util.h"

namespace mweaver::bench {

inline bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

inline void SerializeJsonValue(const JsonValue& value, JsonWriter* writer) {
  switch (value.type()) {
    case JsonValue::Type::kNull:
      writer->Raw("null");
      break;
    case JsonValue::Type::kBool:
      writer->Bool(value.boolean());
      break;
    case JsonValue::Type::kNumber:
      writer->Number(value.number());
      break;
    case JsonValue::Type::kString:
      writer->String(value.string());
      break;
    case JsonValue::Type::kArray:
      writer->BeginArray();
      for (const JsonValue& item : value.array()) {
        SerializeJsonValue(item, writer);
      }
      writer->EndArray();
      break;
    case JsonValue::Type::kObject:
      writer->BeginObject();
      for (const auto& [key, member] : value.object()) {
        writer->Key(key);
        SerializeJsonValue(member, writer);
      }
      writer->EndObject();
      break;
  }
}

/// \brief Writes `section_json` (a serialized JSON object) as the
/// `section` member of the JSON object in `path`, preserving every other
/// top-level member already present. Returns false on I/O or parse errors.
inline bool MergeSectionIntoFile(const std::string& path,
                                 std::string_view section,
                                 std::string_view section_json) {
  JsonWriter writer;
  writer.BeginObject();
  std::string existing;
  if (ReadFileToString(path, &existing)) {
    auto parsed = ParseJson(existing);
    if (parsed.ok() && parsed->is_object()) {
      for (const auto& [key, member] : parsed->object()) {
        if (key == section) continue;  // replaced below
        writer.Key(key);
        SerializeJsonValue(member, &writer);
      }
    }
  }
  writer.Key(section);
  writer.Raw(section_json);
  writer.EndObject();
  const std::string doc = writer.Finish();
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << doc << "\n";
  return out.good();
}

namespace internal {

// Recursive comparison of one section subtree; `prefix` names the leaf in
// diagnostics. Returns the number of violations found.
inline int CompareKernelTree(const JsonValue& base,
                             const JsonValue& current,
                             const std::string& prefix) {
  int violations = 0;
  if (!current.is_object()) return 0;
  for (const auto& [key, cur] : current.object()) {
    const std::string name = prefix.empty() ? key : prefix + "." + key;
    const JsonValue* ref = base.is_object() ? base.Find(key) : nullptr;
    if (cur.is_object()) {
      if (ref != nullptr) {
        violations += CompareKernelTree(*ref, cur, name);
      }
      continue;
    }
    if (!cur.is_number() || ref == nullptr || !ref->is_number()) continue;
    const double got = cur.number();
    const double want = ref->number();
    const bool is_timing = key.size() > 3 && (key.ends_with("_us") ||
                                              key.ends_with("_ms"));
    const bool is_counter = key.rfind("kernel_", 0) == 0;
    if (is_timing) {
      const double limit = std::max(want * 2.0, want + 10.0);
      if (got > limit) {
        std::fprintf(stderr,
                     "KERNEL GATE: %s = %.3f exceeds limit %.3f "
                     "(baseline %.3f)\n",
                     name.c_str(), got, limit, want);
        ++violations;
      }
    } else if (is_counter) {
      if (got != want) {
        std::fprintf(stderr,
                     "KERNEL GATE: %s = %.0f differs from baseline %.0f "
                     "(dispatch counters must match exactly)\n",
                     name.c_str(), got, want);
        ++violations;
      }
    }
  }
  return violations;
}

}  // namespace internal

/// \brief Gates `section_json` (the section the calling bench just
/// produced) against the same section of the baseline file. Returns 0 when
/// within limits (or the baseline lacks the section — a fresh baseline is
/// seeded by committing the emitted file), 1 on a regression, 2 on a
/// malformed baseline.
inline int GateAgainstBaseline(const std::string& baseline_path,
                               std::string_view section,
                               std::string_view section_json) {
  std::string text;
  if (!ReadFileToString(baseline_path, &text)) {
    std::fprintf(stderr, "no baseline at %s; skipping gate\n",
                 baseline_path.c_str());
    return 0;
  }
  auto base_doc = ParseJson(text);
  if (!base_doc.ok()) {
    std::fprintf(stderr, "baseline %s: %s\n", baseline_path.c_str(),
                 base_doc.status().ToString().c_str());
    return 2;
  }
  auto cur_doc = ParseJson(section_json);
  if (!cur_doc.ok()) {
    std::fprintf(stderr, "internal: emitted section does not parse: %s\n",
                 cur_doc.status().ToString().c_str());
    return 2;
  }
  const JsonValue* base_section = base_doc->Find(section);
  if (base_section == nullptr) {
    std::fprintf(stderr, "baseline %s has no \"%.*s\" section; skipping "
                 "gate\n",
                 baseline_path.c_str(), static_cast<int>(section.size()),
                 section.data());
    return 0;
  }
  const int violations = internal::CompareKernelTree(
      *base_section, *cur_doc, std::string(section));
  if (violations > 0) {
    std::fprintf(stderr, "%d kernel-gate violation(s) vs %s\n", violations,
                 baseline_path.c_str());
    return 1;
  }
  std::printf("kernel gate: \"%.*s\" within baseline limits (%s)\n",
              static_cast<int>(section.size()), section.data(),
              baseline_path.c_str());
  return 0;
}

}  // namespace mweaver::bench

#endif  // MWEAVER_BENCH_KERNEL_REPORT_H_
