#include "workload/baseline.h"

#include <algorithm>
#include <map>

#include "common/string_util.h"
#include "common/json_util.h"

namespace mweaver::workload {

namespace {

/// (phase, cell) -> p95_ms extracted from one report document.
using P95Map = std::map<std::pair<std::string, std::string>, double>;

Result<P95Map> ExtractP95s(const JsonValue& doc) {
  const JsonValue* phases = doc.Find("phases");
  if (phases == nullptr || !phases->is_array()) {
    return Status::InvalidArgument(
        "perf document has no 'phases' array (not a "
        "BENCH_service_scenarios.json?)");
  }
  P95Map out;
  for (const JsonValue& phase : phases->array()) {
    const std::string name = phase.StringOr("name", "");
    if (name.empty()) continue;
    if (const JsonValue* total = phase.Find("total")) {
      if (const JsonValue* latency = total->Find("latency_ms")) {
        out[{name, "total"}] = latency->NumberOr("p95_ms", 0.0);
      }
    }
    const JsonValue* actors = phase.Find("actors");
    if (actors == nullptr || !actors->is_array()) continue;
    for (const JsonValue& actor : actors->array()) {
      const std::string type = actor.StringOr("type", "");
      const JsonValue* latency = actor.Find("latency_ms");
      if (type.empty() || latency == nullptr) continue;
      out[{name, type}] = latency->NumberOr("p95_ms", 0.0);
    }
  }
  return out;
}

}  // namespace

std::string BaselineComparison::ToString() const {
  std::string out = StrFormat("baseline check: %zu cell(s), %s\n",
                              entries.size(), ok ? "PASS" : "FAIL");
  for (const BaselineEntry& entry : entries) {
    if (entry.missing) {
      out += StrFormat("  %-12s %-14s baseline %8.3f ms  -> MISSING from "
                       "current run\n",
                       entry.phase.c_str(), entry.cell.c_str(),
                       entry.baseline_p95_ms);
      continue;
    }
    out += StrFormat("  %-12s %-14s baseline %8.3f ms  current %8.3f ms  "
                     "allowed %8.3f ms  %s\n",
                     entry.phase.c_str(), entry.cell.c_str(),
                     entry.baseline_p95_ms, entry.current_p95_ms,
                     entry.allowed_p95_ms,
                     entry.regressed ? "REGRESSED" : "ok");
  }
  return out;
}

Result<BaselineComparison> CompareToBaseline(
    std::string_view current_json, std::string_view baseline_json,
    const BaselineCheckOptions& options) {
  MW_ASSIGN_OR_RETURN(const JsonValue current, ParseJson(current_json));
  MW_ASSIGN_OR_RETURN(const JsonValue baseline, ParseJson(baseline_json));
  MW_ASSIGN_OR_RETURN(const P95Map current_p95s, ExtractP95s(current));
  MW_ASSIGN_OR_RETURN(const P95Map baseline_p95s, ExtractP95s(baseline));
  if (baseline_p95s.empty()) {
    return Status::InvalidArgument("baseline document has no p95 cells");
  }

  BaselineComparison comparison;
  for (const auto& [key, base_p95] : baseline_p95s) {
    BaselineEntry entry;
    entry.phase = key.first;
    entry.cell = key.second;
    entry.baseline_p95_ms = base_p95;
    entry.allowed_p95_ms = std::max(base_p95 * (1.0 + options.tolerance),
                                    base_p95 + options.abs_floor_ms);
    const auto it = current_p95s.find(key);
    if (it == current_p95s.end()) {
      entry.missing = true;
      entry.regressed = true;
    } else {
      entry.current_p95_ms = it->second;
      entry.regressed = entry.current_p95_ms > entry.allowed_p95_ms;
    }
    if (entry.regressed) comparison.ok = false;
    comparison.entries.push_back(std::move(entry));
  }
  return comparison;
}

}  // namespace mweaver::workload
