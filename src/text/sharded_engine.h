// Compatibility name for the sharded engine. Sharding is a constructor
// argument of FullTextEngine (one engine holding N shard index sets), so
// ShardedTextEngine(db, policy, n, options) is FullTextEngine(db, policy, n,
// options). Kept only for the session benchmark (perfbench/src/layers.cc),
// which still names it; code under src/ uses FullTextEngine directly.
#ifndef MWEAVER_TEXT_SHARDED_ENGINE_H_
#define MWEAVER_TEXT_SHARDED_ENGINE_H_

#include "text/fulltext_engine.h"

namespace mweaver::text {

using ShardedTextEngine = FullTextEngine;

}  // namespace mweaver::text

#endif  // MWEAVER_TEXT_SHARDED_ENGINE_H_
