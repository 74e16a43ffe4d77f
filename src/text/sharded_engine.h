// Perfbench only; ROADMAP item 11 deletes. The engine is not sharded: it
// keeps one inverted index per indexed attribute. This name survives only
// because the session benchmark (perfbench/src/layers.cc) still constructs
// a ShardedTextEngine(db, policy, n, options); it ignores `n` and builds
// the engine's one index set. Code under src/ uses FullTextEngine.
#ifndef MWEAVER_TEXT_SHARDED_ENGINE_H_
#define MWEAVER_TEXT_SHARDED_ENGINE_H_

#include <cstdint>

#include "text/fulltext_engine.h"

namespace mweaver::text {

class ShardedTextEngine : public FullTextEngine {
 public:
  ShardedTextEngine(const storage::Database* db, MatchPolicy policy,
                    uint32_t /*shard_count*/, EngineOptions options = {})
      : FullTextEngine(db, policy, options) {}
};

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_SHARDED_ENGINE_H_
