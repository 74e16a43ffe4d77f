// CSV integration: build a source database from CSV files on disk, declare
// foreign keys, and derive a mapping from samples — the "map your own
// files" workflow a downstream user of this library would follow.
//
// The example writes a small orders/customers/products dataset to a temp
// directory, loads it back, and weaves a mapping for a target
// OrderReport(customer, product, city) spreadsheet.
//
//   $ ./examples/csv_integration [dir]
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "core/session.h"
#include "graph/schema_graph.h"
#include "query/sql.h"
#include "storage/csv.h"
#include "storage/database.h"
#include "text/fulltext_engine.h"

namespace {

namespace fs = std::filesystem;
using mweaver::storage::Database;
using mweaver::storage::LoadCsvRelation;
using mweaver::storage::Relation;

void WriteFile(const fs::path& path, const char* content) {
  std::ofstream out(path);
  out << content;
}

// A small commerce dataset: customers place orders for products.
void WriteSampleCsvs(const fs::path& dir) {
  WriteFile(dir / "customers.csv",
            "customer_id,customer_name,city\n"
            "1,Acme Tooling,Detroit\n"
            "2,Borealis Labs,Oslo\n"
            "3,Cascade Outfitters,Portland\n"
            "4,Delta Shipping,Rotterdam\n");
  WriteFile(dir / "products.csv",
            "product_id,product_name,category\n"
            "10,Torque Wrench,tools\n"
            "11,Field Microscope,instruments\n"
            "12,Rain Shell,apparel\n"
            "13,Cargo Strap,logistics\n");
  WriteFile(dir / "orders.csv",
            "order_id,customer_id,product_id,quantity\n"
            "100,1,10,5\n"
            "101,2,11,1\n"
            "102,3,12,8\n"
            "103,4,13,40\n"
            "104,1,13,2\n"
            "105,2,12,3\n");
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path dir = argc > 1 ? fs::path(argv[1])
                                : fs::temp_directory_path() /
                                      "mweaver_csv_example";
  fs::create_directories(dir);
  WriteSampleCsvs(dir);
  std::cout << "sample CSVs in " << dir << "\n";

  // Load each CSV as a relation. LoadCsvRelation types every column as a
  // searchable string; joins work on string equality of the key columns.
  Database db("commerce");
  for (const char* name : {"customers", "products", "orders"}) {
    auto rel = LoadCsvRelation((dir / (std::string(name) + ".csv")).string(),
                               name);
    if (!rel.ok()) {
      std::cerr << rel.status() << "\n";
      return 1;
    }
    auto added = db.AddRelation(rel->schema());
    if (!added.ok()) {
      std::cerr << added.status() << "\n";
      return 1;
    }
    Relation* dest = db.mutable_relation(*added);
    for (size_t r = 0; r < rel->num_rows(); ++r) {
      dest->AppendUnchecked(rel->row(static_cast<mweaver::storage::RowId>(r)));
    }
  }
  // Declare the foreign keys the CSVs imply.
  db.AddForeignKey("orders", "customer_id", "customers", "customer_id")
      .ValueOrDie();
  db.AddForeignKey("orders", "product_id", "products", "product_id")
      .ValueOrDie();
  if (auto st = db.CheckReferentialIntegrity(); !st.ok()) {
    std::cerr << "CSV data is inconsistent: " << st << "\n";
    return 1;
  }

  const mweaver::text::FullTextEngine engine(
      &db, mweaver::text::MatchPolicy::Substring());
  const mweaver::graph::SchemaGraph schema_graph(&db);

  // Target: OrderReport(customer, product, city). The user types two rows
  // of values they remember from their own data.
  mweaver::core::Session session(&engine, &schema_graph,
                                 {"customer", "product", "city"});
  auto type = [&](size_t row, size_t col, const char* value) {
    auto status = session.Input(row, col, value);
    if (!status.ok()) {
      std::cerr << status << "\n";
      std::exit(1);
    }
  };
  type(0, 0, "Acme Tooling");
  type(0, 1, "Torque Wrench");
  type(0, 2, "Detroit");
  std::cout << "after first row: " << session.candidates().size()
            << " candidate mapping(s)\n";
  type(1, 0, "Borealis Labs");
  type(1, 1, "Field Microscope");
  std::cout << "after second row: " << session.candidates().size()
            << " candidate mapping(s), state="
            << SessionStateName(session.state()) << "\n";

  if (!session.candidates().empty()) {
    std::cout << "\nbest mapping:\n  "
              << session.candidates().front().mapping.ToString(db) << "\n\n"
              << mweaver::query::ToSql(
                     db, session.candidates().front().mapping,
                     {{0, "customer"}, {1, "product"}, {2, "city"}})
              << "\n";
  }
  return 0;
}
