#ifndef SKINNER_STORAGE_TABLE_H_
#define SKINNER_STORAGE_TABLE_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"
#include "storage/schema.h"
#include "storage/string_pool.h"

namespace skinner {

/// An in-memory, column-store table. Rows are identified by their 0-based
/// position; execution engines pass row ids around instead of tuples.
///
/// A Table object is one *version* of a catalog table (see Catalog). Its
/// columns and delete mask are held by shared_ptr, so a copy-on-write
/// write makes a new version that shares everything it leaves alone:
/// readers keep reading the old version while the writer changes the new
/// one. A part shared between versions is never changed; a writer first
/// makes it its own (OwnForWrite).
class Table {
 public:
  Table(std::string name, Schema schema, StringPool* pool);

  Table& operator=(const Table&) = delete;

  /// Every column ordinal, for writes that touch the whole row.
  std::vector<int> AllColumns() const;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  const Column& column(int i) const { return *cols_[static_cast<size_t>(i)]; }
  Column* mutable_column(int i) { return cols_[static_cast<size_t>(i)].get(); }

  /// Identity stamp assigned by the catalog at creation, unique across the
  /// database's lifetime: a table re-created under the same name gets a new
  /// id, so cached per-table state (PreparedCache entries foremost) can
  /// never be confused between the two.
  uint64_t id() const { return id_; }
  void set_id(uint64_t id) { id_ = id; }

  /// Monotonic data-version counter, bumped once per appended, updated or
  /// deleted row. Cached derived state (filtered positions, hash indexes)
  /// keyed on (id, data_version) is invalidated by any DML on the table.
  uint64_t data_version() const { return data_version_; }

  /// Appends one row; values.size() must equal the column count.
  Status AppendRow(const std::vector<Value>& values);

  /// Fast typed appends for generators (one call per column, then
  /// CommitRow). The caller must append to every column exactly once.
  void CommitRow() {
    if (valid_ != nullptr) valid_->push_back(1);
    ++num_rows_;
    ++data_version_;
  }

  /// Deleted-row tracking: a lazy byte-per-row validity mask, allocated on
  /// the first DELETE (mirrors Column's lazy nulls_). A table with no mask
  /// takes exactly the pre-mutation scan path — scans only consult the
  /// mask when has_deletes() is true. Checkpoint compaction (Compact())
  /// rewrites the columns and drops the mask.
  bool has_deletes() const { return valid_ != nullptr; }
  bool IsRowValid(int64_t row) const {
    return valid_ == nullptr || (*valid_)[static_cast<size_t>(row)] != 0;
  }
  /// Marks `row` deleted (idempotent); bumps data_version on first delete.
  void DeleteRow(int64_t row);
  /// Rows minus deleted rows.
  int64_t num_valid_rows() const { return num_rows_ - num_deleted_; }
  int64_t num_deleted() const { return num_deleted_; }

  /// Overwrites one cell (UPDATE executor path); bumps data_version.
  Status UpdateCell(int64_t row, int col, const Value& v);

  /// Physically removes deleted rows and drops the validity mask. Bumps
  /// data_version when anything moved.
  void Compact();

  /// Materializes one row (for result output / debugging).
  std::vector<Value> GetRow(int64_t row) const;

  // Snapshot-loader access (src/txn/snapshot.cc): restores row count after
  // columns were filled via RestoreRaw. Snapshots are written post-compaction
  // so no validity mask is ever restored.
  void RestoreRowCount(int64_t rows) {
    num_rows_ = rows;
    ++data_version_;
  }

 private:
  friend class Catalog;  // pin accounting and copy-on-write versions

  /// A new version with `base`'s id, data version and contents, sharing
  /// every column and the delete mask with it (owning none of them yet).
  Table(const Table& base);
  /// Makes `write_cols` and, if `write_mask`, the delete mask exclusively
  /// this version's, copying those it still shares with another version.
  /// A writer calls it before changing them.
  void OwnForWrite(const std::vector<int>& write_cols, bool write_mask);

  std::string name_;
  Schema schema_;
  StringPool* pool_;
  std::vector<std::shared_ptr<Column>> cols_;
  std::shared_ptr<std::vector<uint8_t>> valid_;  // lazily allocated; 0 = deleted
  /// Which parts this version owns (false: shared with the version it was
  /// cloned from). A null mask counts as owned: DeleteRow allocates anew.
  std::vector<bool> owned_cols_;
  bool owned_mask_ = true;
  int64_t num_rows_ = 0;
  int64_t num_deleted_ = 0;
  uint64_t id_ = 0;
  uint64_t data_version_ = 0;
  /// Readers holding this version through Catalog::Pin. A write to a
  /// pinned version goes to a clone; an unpinned one is written in place.
  mutable std::atomic<int64_t> pins_{0};
};

}  // namespace skinner

#endif  // SKINNER_STORAGE_TABLE_H_
