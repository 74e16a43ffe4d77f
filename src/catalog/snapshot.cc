#include "catalog/snapshot.h"

#include "common/logging.h"

namespace mweaver::catalog {

Snapshot::Snapshot(std::string tenant, uint64_t epoch, uint64_t minor_epoch,
                   std::unique_ptr<storage::Database> db,
                   std::unique_ptr<text::FullTextEngine> engine,
                   std::unique_ptr<graph::SchemaGraph> graph)
    : tenant_(std::move(tenant)),
      epoch_(epoch),
      minor_epoch_(minor_epoch),
      db_(std::move(db)),
      engine_(std::move(engine)),
      graph_(std::move(graph)) {
  MW_CHECK(db_ != nullptr) << "a snapshot needs a database";
  MW_CHECK(engine_ != nullptr) << "a snapshot needs an engine";
  MW_CHECK(graph_ != nullptr) << "a snapshot needs a schema graph";
}

}  // namespace mweaver::catalog
