// mapping_server: demo of the concurrent service layer. Publishes the
// Figure-2 movie database to one or more catalog tenants, spins up a
// MappingService over the catalog, and drives several concurrent "users"
// through it — each opens a session on its tenant, types sample rows
// keystroke by keystroke, and converges on the Director join path — then
// prints the service metrics snapshot (request outcomes, latency
// histogram percentiles, queue high-water, cache hit rate) plus the
// per-tenant rollups.
//
//   $ ./examples/mapping_server [num_users] [--tenants=N]
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <latch>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "catalog/catalog.h"
#include "service/mapping_service.h"
#include "storage/database.h"

namespace {

using mweaver::storage::AttributeSchema;
using mweaver::storage::Database;
using mweaver::storage::RelationSchema;
using mweaver::storage::Row;
using mweaver::storage::Value;
using mweaver::storage::ValueType;

AttributeSchema Id(const char* name) {
  return {name, ValueType::kInt64, /*searchable=*/false};
}
AttributeSchema Str(const char* name) {
  return {name, ValueType::kString, /*searchable=*/true};
}

// Same Figure-2 source as the quickstart: movie/person joined through
// both director and writer link tables.
Database MakeExampleDb() {
  Database db("example");
  db.AddRelation(RelationSchema("movie", {Id("mid"), Str("title")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("person", {Id("pid"), Str("name")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("director", {Id("mid"), Id("pid")}))
      .ValueOrDie();
  db.AddRelation(RelationSchema("writer", {Id("mid"), Id("pid")}))
      .ValueOrDie();
  db.AddForeignKey("director", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("director", "pid", "person", "pid").ValueOrDie();
  db.AddForeignKey("writer", "mid", "movie", "mid").ValueOrDie();
  db.AddForeignKey("writer", "pid", "person", "pid").ValueOrDie();

  auto add = [&](const char* rel, Row row) {
    db.mutable_relation(db.FindRelation(rel))->AppendUnchecked(std::move(row));
  };
  add("movie", {Value(int64_t{0}), Value("Avatar")});
  add("movie", {Value(int64_t{1}), Value("Harry Potter")});
  add("movie", {Value(int64_t{2}), Value("Big Fish")});
  add("person", {Value(int64_t{0}), Value("James Cameron")});
  add("person", {Value(int64_t{1}), Value("David Yates")});
  add("person", {Value(int64_t{2}), Value("J. K. Rowling")});
  add("person", {Value(int64_t{3}), Value("Tim Burton")});
  add("person", {Value(int64_t{4}), Value("John August")});
  add("director", {Value(int64_t{0}), Value(int64_t{0})});
  add("director", {Value(int64_t{1}), Value(int64_t{1})});
  add("director", {Value(int64_t{2}), Value(int64_t{3})});
  add("writer", {Value(int64_t{0}), Value(int64_t{0})});
  add("writer", {Value(int64_t{1}), Value(int64_t{2})});
  add("writer", {Value(int64_t{2}), Value(int64_t{4})});
  return db;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mweaver;
  size_t num_users = 6;
  size_t num_tenants = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--tenants=", 10) == 0) {
      num_tenants = std::strtoul(argv[i] + 10, nullptr, 10);
      if (num_tenants == 0) num_tenants = 1;
    } else {
      num_users = std::strtoul(argv[i], nullptr, 10);
    }
  }

  // Each tenant serves its own snapshot of the example source. Tenant "0"
  // doubles as the default tenant so `--tenants=1` exercises the plain
  // single-tenant path.
  catalog::Catalog cat;
  std::vector<std::string> tenants;
  for (size_t t = 0; t < num_tenants; ++t) {
    tenants.push_back(num_tenants == 1
                          ? std::string(service::kDefaultTenant)
                          : "tenant-" + std::to_string(t));
    auto published = cat.Publish(tenants.back(), MakeExampleDb());
    if (!published.ok()) {
      std::cerr << "publish: " << published.status() << "\n";
      return 1;
    }
  }

  service::ServiceOptions options;
  options.num_workers = 4;
  options.max_queue_depth = 32;
  options.cache_capacity = 64;
  service::MappingService svc(&cat, options);

  std::cout << "mapping_server: " << num_users << " concurrent users over "
            << num_tenants << " tenant(s), " << options.num_workers
            << " workers, queue depth " << options.max_queue_depth
            << "\n\n";

  std::atomic<size_t> converged{0};
  std::atomic<size_t> cache_hits_seen{0};
  // Users are dealt round-robin over the tenants, so users 0..T-1 are the
  // tenants' first users. They type their first rows before the other
  // users start, which then find those rows' searches in the result cache
  // instead of all missing it at the same moment.
  const size_t first_users = std::min(num_users, num_tenants);
  std::latch first_rows_typed(static_cast<std::ptrdiff_t>(first_users));
  std::vector<std::thread> users;
  for (size_t u = 0; u < num_users; ++u) {
    if (u == first_users) first_rows_typed.wait();
    users.emplace_back([&, u]() {
      // Counts a first user down once, however its session ends.
      struct FirstRowTyped {
        std::latch* latch;
        void Now() {
          if (latch != nullptr) latch->count_down();
          latch = nullptr;
        }
        ~FirstRowTyped() { Now(); }
      } first_row_typed{u < first_users ? &first_rows_typed : nullptr};
      // Sessions pin their tenant's snapshot at creation.
      auto created =
          svc.CreateSession(tenants[u % tenants.size()], {"Name", "Director"});
      if (!created.ok()) {
        std::cerr << "user " << u << ": " << created.status() << "\n";
        return;
      }
      const std::vector<std::tuple<size_t, size_t, const char*>> keystrokes{
          {0, 0, "Avatar"},
          {0, 1, "James Cameron"},
          {1, 0, "Harry Potter"},
          {1, 1, "David Yates"},
      };
      service::RequestResult last;
      for (const auto& [row, col, value] : keystrokes) {
        service::InputRequest request;
        request.session_id = *created;
        request.row = row;
        request.col = col;
        request.value = value;
        last = svc.Call(request);
        while (last.outcome == service::RequestOutcome::kOverloaded) {
          std::this_thread::yield();  // closed-loop backoff on backpressure
          last = svc.Call(request);
        }
        if (!last.status.ok()) {
          std::cerr << "user " << u << ": " << last.status << "\n";
          return;
        }
        if (last.cache_hit) cache_hits_seen.fetch_add(1);
        if (row == 0 && col == 1) first_row_typed.Now();
      }
      if (last.state == core::SessionState::kConverged) {
        converged.fetch_add(1);
      }
      (void)svc.CloseSession(*created);
    });
  }
  for (std::thread& user : users) user.join();

  const service::MetricsSnapshot metrics = svc.SnapshotMetrics();
  std::cout << "users converged:  " << converged.load() << "/" << num_users
            << "\n";
  std::cout << "metrics:          " << metrics.ToString() << "\n";
  std::cout << "metrics (json):   " << svc.SnapshotMetricsJson() << "\n";
  std::cout << "per-tenant (json): " << svc.PerTenantMetricsJson() << "\n";
  std::cout << "open sessions:    " << svc.sessions().size() << "\n";

  if (converged.load() != num_users) {
    std::cerr << "expected every user to converge\n";
    return 1;
  }
  // Every user types the identical first row, and each tenant's first
  // user cached it before the other users started, so every other user's
  // first-row search is a cache hit (keys are tenant-scoped: users on
  // DIFFERENT tenants never share entries).
  const size_t expected_hits = num_users > num_tenants
                                   ? num_users - num_tenants
                                   : 0;
  if (metrics.cache_hits < expected_hits) {
    std::cerr << "expected cache hits on repeated first rows: "
              << metrics.cache_hits << " < " << expected_hits << "\n";
    return 1;
  }
  return 0;
}
