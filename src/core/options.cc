#include "core/options.h"

#include "common/string_util.h"

namespace mweaver::core {

std::string SearchOptions::Fingerprint() const {
  // Every result-affecting field, in declaration order.
  return StrFormat("opt1;pmnj=%d;w=%.6f/%.6f;caps=%zu/%zu;keep=%zu", pmnj,
                   matching_weight, complexity_weight,
                   max_tuple_paths_per_mapping, max_total_tuple_paths,
                   retained_tuple_paths_per_mapping);
}

}  // namespace mweaver::core
