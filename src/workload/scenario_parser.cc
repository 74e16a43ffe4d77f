#include "workload/scenario_parser.h"

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/string_util.h"

namespace mweaver::workload {

namespace {

Status LineError(size_t line, const std::string& what) {
  return Status::InvalidArgument(
      StrFormat("line %zu: %s", line, what.c_str()));
}

Result<uint64_t> ParseUint(std::string_view value, size_t line,
                           std::string_view key) {
  const std::string token = Trim(value);
  if (token.empty() || token[0] == '-') {
    return LineError(line, StrFormat("%.*s must be a non-negative integer, "
                                     "got '%s'",
                                     static_cast<int>(key.size()), key.data(),
                                     token.c_str()));
  }
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return LineError(line, StrFormat("%.*s must be a non-negative integer, "
                                     "got '%s'",
                                     static_cast<int>(key.size()), key.data(),
                                     token.c_str()));
  }
  return static_cast<uint64_t>(parsed);
}

Result<double> ParseDouble(std::string_view value, size_t line,
                           std::string_view key) {
  const std::string token = Trim(value);
  char* end = nullptr;
  const double parsed = std::strtod(token.c_str(), &end);
  if (token.empty() || end == nullptr || *end != '\0') {
    return LineError(line,
                     StrFormat("%.*s must be a number, got '%s'",
                               static_cast<int>(key.size()), key.data(),
                               token.c_str()));
  }
  return parsed;
}

/// Parses "searcher=2 pruner=1 ..." into per-type counts.
Status ParseActors(std::string_view value, size_t line, PhaseSpec* phase) {
  phase->actor_counts.fill(0);
  bool any = false;
  for (const std::string& token : Split(std::string(value), ' ')) {
    const std::string entry = Trim(token);
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return LineError(line, StrFormat("actor entry '%s' must look like "
                                       "type=count",
                                       entry.c_str()));
    }
    auto type = ParseActorType(Trim(entry.substr(0, eq)));
    if (!type.ok()) {
      return LineError(line, type.status().message());
    }
    MW_ASSIGN_OR_RETURN(const uint64_t count,
                        ParseUint(entry.substr(eq + 1), line, "actor count"));
    phase->actor_counts[static_cast<size_t>(*type)] =
        static_cast<size_t>(count);
    any = true;
  }
  if (!any) return LineError(line, "actors: needs at least one type=count");
  return Status::OK();
}

Status ValidatePhase(const PhaseSpec& phase, size_t line) {
  if (phase.duration.count() == 0 && phase.iterations == 0) {
    return LineError(line,
                     StrFormat("phase '%s' needs duration_ms > 0 or "
                               "iterations > 0",
                               phase.name.c_str()));
  }
  if (phase.duration.count() > 0 && phase.iterations > 0) {
    return LineError(line,
                     StrFormat("phase '%s' sets both duration_ms and "
                               "iterations; pick one bound",
                               phase.name.c_str()));
  }
  if (phase.arrival == ArrivalModel::kOpen && phase.rate_per_sec <= 0.0) {
    return LineError(line,
                     StrFormat("phase '%s' has open arrival but no positive "
                               "rate_per_sec",
                               phase.name.c_str()));
  }
  if (phase.TotalActors() == 0) {
    return LineError(
        line, StrFormat("phase '%s' has no actors", phase.name.c_str()));
  }
  return Status::OK();
}

}  // namespace

Result<Scenario> ScenarioParser::Parse(std::string_view text) {
  Scenario scenario;
  PhaseSpec current;
  bool in_phase = false;
  size_t phase_header_line = 0;

  const std::vector<std::string> lines = Split(std::string(text), '\n');
  for (size_t i = 0; i < lines.size(); ++i) {
    const size_t line_no = i + 1;
    std::string line = lines[i];
    // Strip comments ('#' anywhere) and surrounding whitespace.
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    line = Trim(line);
    if (line.empty()) continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        return LineError(line_no, "unterminated section header");
      }
      const std::string header = Trim(line.substr(1, line.size() - 2));
      constexpr std::string_view kPhasePrefix = "phase";
      if (header.rfind(kPhasePrefix, 0) != 0) {
        return LineError(line_no,
                         StrFormat("unknown section '[%s]' (only [phase "
                                   "NAME] is supported)",
                                   header.c_str()));
      }
      const std::string phase_name =
          Trim(std::string_view(header).substr(kPhasePrefix.size()));
      if (phase_name.empty()) {
        return LineError(line_no, "phase section needs a name: [phase NAME]");
      }
      if (in_phase) {
        MW_RETURN_NOT_OK(ValidatePhase(current, phase_header_line));
        scenario.phases.push_back(std::move(current));
      }
      for (const PhaseSpec& prior : scenario.phases) {
        if (prior.name == phase_name) {
          return LineError(line_no, StrFormat("duplicate phase name '%s'",
                                              phase_name.c_str()));
        }
      }
      current = PhaseSpec{};
      current.name = phase_name;
      in_phase = true;
      phase_header_line = line_no;
      continue;
    }

    const size_t colon = line.find(':');
    if (colon == std::string::npos) {
      return LineError(line_no,
                       StrFormat("expected 'key: value', got '%s'",
                                 line.c_str()));
    }
    const std::string key = Trim(line.substr(0, colon));
    const std::string value = Trim(line.substr(colon + 1));

    if (!in_phase) {
      if (key == "name") {
        scenario.name = value;
      } else if (key == "seed") {
        MW_ASSIGN_OR_RETURN(scenario.seed, ParseUint(value, line_no, key));
      } else if (key == "movies") {
        MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
        scenario.movies = static_cast<size_t>(v);
      } else if (key == "workers") {
        MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
        if (v == 0) return LineError(line_no, "workers must be > 0");
        scenario.workers = static_cast<size_t>(v);
      } else if (key == "queue") {
        MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
        if (v == 0) return LineError(line_no, "queue must be > 0");
        scenario.queue_depth = static_cast<size_t>(v);
      } else if (key == "cache") {
        MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
        scenario.cache_capacity = static_cast<size_t>(v);
      } else if (key == "script_rows") {
        MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
        if (v == 0) return LineError(line_no, "script_rows must be > 0");
        scenario.max_script_rows = static_cast<size_t>(v);
      } else if (key == "tenants") {
        MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
        if (v == 0) return LineError(line_no, "tenants must be > 0");
        scenario.tenants = static_cast<size_t>(v);
      } else if (key == "publish_churn") {
        if (value == "on") {
          scenario.publish_churn = true;
        } else if (value == "off") {
          scenario.publish_churn = false;
        } else {
          return LineError(line_no,
                           StrFormat("publish_churn must be 'on' or 'off', "
                                     "got '%s'",
                                     value.c_str()));
        }
      } else {
        return LineError(line_no,
                         StrFormat("unknown scenario key '%s'", key.c_str()));
      }
      continue;
    }

    // Phase-scoped keys.
    if (key == "duration_ms") {
      MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
      current.duration = std::chrono::milliseconds(v);
    } else if (key == "iterations") {
      MW_ASSIGN_OR_RETURN(current.iterations, ParseUint(value, line_no, key));
    } else if (key == "arrival") {
      if (value == "closed") {
        current.arrival = ArrivalModel::kClosed;
      } else if (value == "open") {
        current.arrival = ArrivalModel::kOpen;
      } else {
        return LineError(line_no,
                         StrFormat("arrival must be 'closed' or 'open', got "
                                   "'%s'",
                                   value.c_str()));
      }
    } else if (key == "rate_per_sec") {
      MW_ASSIGN_OR_RETURN(const double rate,
                          ParseDouble(value, line_no, key));
      if (rate < 0.0) {
        return LineError(line_no, "rate_per_sec must not be negative");
      }
      current.rate_per_sec = rate;
    } else if (key == "deadline_ms") {
      MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
      current.request_deadline = std::chrono::milliseconds(v);
    } else if (key == "think_time_ms") {
      MW_ASSIGN_OR_RETURN(const uint64_t v, ParseUint(value, line_no, key));
      current.think_time = std::chrono::milliseconds(v);
    } else if (key == "actors") {
      MW_RETURN_NOT_OK(ParseActors(value, line_no, &current));
    } else {
      return LineError(line_no,
                       StrFormat("unknown phase key '%s'", key.c_str()));
    }
  }

  if (in_phase) {
    MW_RETURN_NOT_OK(ValidatePhase(current, phase_header_line));
    scenario.phases.push_back(std::move(current));
  }
  if (scenario.name.empty()) {
    return Status::InvalidArgument("scenario is missing 'name:'");
  }
  if (scenario.phases.empty()) {
    return Status::InvalidArgument(
        "scenario has no [phase ...] sections");
  }
  return scenario;
}

Result<Scenario> ScenarioParser::ParseFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IOError(
        StrFormat("cannot open scenario '%s'", path.c_str()));
  }
  std::string text;
  char buffer[4096];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, read);
  }
  std::fclose(file);
  auto parsed = Parse(text);
  if (!parsed.ok()) {
    return Status(parsed.status().code(),
                  StrFormat("%s: %s", path.c_str(),
                            parsed.status().message().c_str()));
  }
  return parsed;
}

}  // namespace mweaver::workload
