#ifndef SKINNER_STORAGE_CATALOG_H_
#define SKINNER_STORAGE_CATALOG_H_

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "storage/string_pool.h"
#include "storage/table.h"

namespace skinner {

/// Owns all tables of a database plus the shared string dictionary.
///
/// Each name maps to the table's current *version* (a shared_ptr<Table>).
/// Readers pin the version they bind (Pin, usually through a
/// TableSnapshot) and read it without any lock; a write either mutates the
/// current version in place — when no reader pins it — or writes a clone
/// and publishes it as the new current version (Write). A short mutex
/// guards the name map and the pin check, never a statement's execution.
///
/// Writers — CreateTable, DropTable, Write and anything holding a Current
/// handle across them — must be serialized by the caller (Database's
/// writer mutex). Pin, FindTable and TableNames may run concurrently with
/// them.
class Catalog {
 public:
  Catalog() = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates an empty table; fails with AlreadyExists on name clash
  /// (case-insensitive). The returned version may be filled directly
  /// (generators, loaders) until readers can see it.
  Result<Table*> CreateTable(const std::string& name, Schema schema);

  /// Removes a table; fails with NotFound if absent. Readers that pinned
  /// one of its versions keep reading it until they let go.
  Status DropTable(const std::string& name);

  /// Case-insensitive lookup of the current version; nullptr if absent.
  /// Unpinned: the pointer is valid until the next write to the table, so
  /// it is for set-up, loaders and inspection while no writer runs.
  Table* FindTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Pins the current version of `name` for a reader (nullptr if absent).
  /// The version stays alive and unchanged for as long as any copy of the
  /// returned pointer does: a write meanwhile goes to a clone.
  std::shared_ptr<const Table> Pin(const std::string& name) const;

  /// Writer side: the current version of `name` (nullptr if absent),
  /// kept alive by the handle after a later write supersedes it. Unlike a
  /// Pin it does not stop the holder from writing the version in place.
  std::shared_ptr<Table> Current(const std::string& name) const;

  /// Applies one write to `base`, which must be the table's current
  /// version; `apply` may change only `write_cols` and, if `write_mask`,
  /// the delete mask. When no reader pins `base`, `apply` mutates it in
  /// place under the catalog mutex (readers wait to pin until it is done),
  /// after OwnForWrite copied any of those parts `base` still shares with
  /// an older version. Otherwise `apply` runs on a clone of `base` that
  /// copies only those parts and shares the rest, and the clone is
  /// published as the current version. Either way `log`
  /// runs after `apply` — and only when the data version moved, so no two
  /// live versions ever share a (id, data_version) stamp. A clone whose
  /// `log` fails is not published. Returns the first error of `apply` and
  /// `log` (an `apply` that fails part-way still keeps and logs the
  /// changes it made, like an in-place write would).
  Status Write(const std::shared_ptr<Table>& base,
               const std::vector<int>& write_cols, bool write_mask,
               const std::function<Status(Table*)>& apply,
               const std::function<Status()>& log);

  StringPool* string_pool() { return &pool_; }
  const StringPool& string_pool() const { return pool_; }

 private:
  StringPool pool_;
  mutable std::mutex mu_;  // guards tables_ and the pin-vs-write check
  std::unordered_map<std::string, std::shared_ptr<Table>> tables_;  // lowercase key
  /// Source of unique table ids; never reused, so a DROP + CREATE under the
  /// same name yields a distinct identity stamp (see Table::id()).
  uint64_t next_table_id_ = 0;
};

/// The table versions one read statement sees. Resolve pins a table's
/// current version the first time its name is looked up and returns that
/// same version on every later lookup, so a self-join, every item of a
/// QueryBatch and every parameter set of an ExecuteBatch read one version
/// per table. The pins are released when the snapshot is destroyed.
///
/// Resolve is not thread-safe (binding is sequential); the pinned tables
/// may be read from any number of threads.
class TableSnapshot {
 public:
  explicit TableSnapshot(Catalog* catalog) : catalog_(catalog) {}
  TableSnapshot(const TableSnapshot&) = delete;
  TableSnapshot& operator=(const TableSnapshot&) = delete;

  Catalog* catalog() const { return catalog_; }

  /// The pinned version of `name`; nullptr if no such table exists.
  const Table* Resolve(const std::string& name);

 private:
  Catalog* catalog_;
  std::unordered_map<std::string, std::shared_ptr<const Table>> pins_;  // lowercase
};

}  // namespace skinner

#endif  // SKINNER_STORAGE_CATALOG_H_
