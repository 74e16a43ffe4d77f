#include "workload/scenario.h"

#include "common/string_util.h"

namespace mweaver::workload {

const char* ActorTypeName(ActorType type) {
  switch (type) {
    case ActorType::kSearcher:
      return "searcher";
    case ActorType::kPruner:
      return "pruner";
    case ActorType::kBulkLoader:
      return "bulk_loader";
    case ActorType::kCacheBuster:
      return "cache_buster";
    case ActorType::kUpdater:
      return "updater";
  }
  return "?";
}

Result<ActorType> ParseActorType(std::string_view name) {
  for (size_t i = 0; i < kNumActorTypes; ++i) {
    const auto type = static_cast<ActorType>(i);
    if (name == ActorTypeName(type)) return type;
  }
  return Status::InvalidArgument(
      StrFormat("unknown actor type '%.*s'", static_cast<int>(name.size()),
                name.data()));
}

const char* ArrivalModelName(ArrivalModel model) {
  switch (model) {
    case ArrivalModel::kClosed:
      return "closed";
    case ArrivalModel::kOpen:
      return "open";
  }
  return "?";
}

size_t PhaseSpec::TotalActors() const {
  size_t total = 0;
  for (size_t count : actor_counts) total += count;
  return total;
}

std::array<size_t, kNumActorTypes> Scenario::MaxActorCounts() const {
  std::array<size_t, kNumActorTypes> max{};
  for (const PhaseSpec& phase : phases) {
    for (size_t i = 0; i < kNumActorTypes; ++i) {
      if (phase.actor_counts[i] > max[i]) max[i] = phase.actor_counts[i];
    }
  }
  return max;
}

}  // namespace mweaver::workload
