#include "storage/catalog.h"

#include <algorithm>

#include "common/str_util.h"

namespace skinner {

Result<Table*> Catalog::CreateTable(const std::string& name, Schema schema) {
  std::string key = ToLower(name);
  auto table = std::make_shared<Table>(name, std::move(schema), &pool_);
  std::lock_guard<std::mutex> lock(mu_);
  if (tables_.count(key) != 0) {
    return Status::AlreadyExists("table already exists: " + name);
  }
  table->set_id(++next_table_id_);
  Table* ptr = table.get();
  tables_.emplace(std::move(key), std::move(table));
  return ptr;
}

Status Catalog::DropTable(const std::string& name) {
  std::shared_ptr<Table> dropped;  // freed (if unpinned) outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  if (it == tables_.end()) return Status::NotFound("no such table: " + name);
  dropped = std::move(it->second);
  tables_.erase(it);
  return Status::OK();
}

Table* Catalog::FindTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second.get();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(tables_.size());
    for (const auto& [k, t] : tables_) names.push_back(t->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::shared_ptr<const Table> Catalog::Pin(const std::string& name) const {
  const std::string key = ToLower(name);
  std::shared_ptr<Table> version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = tables_.find(key);
    if (it == tables_.end()) return nullptr;
    version = it->second;
    // Counted under the mutex, so Write's pin check cannot miss it.
    version->pins_.fetch_add(1, std::memory_order_relaxed);
  }
  const Table* raw = version.get();
  // The release pairs with Write's acquire load: everything this reader
  // did with the version happens before a writer sees the count at zero.
  return std::shared_ptr<const Table>(
      raw, [keep = std::move(version)](const Table* t) {
        t->pins_.fetch_sub(1, std::memory_order_release);
      });
}

std::shared_ptr<Table> Catalog::Current(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = tables_.find(ToLower(name));
  return it == tables_.end() ? nullptr : it->second;
}

Status Catalog::Write(const std::shared_ptr<Table>& base,
                      const std::vector<int>& write_cols, bool write_mask,
                      const std::function<Status(Table*)>& apply,
                      const std::function<Status()>& log) {
  const std::string key = ToLower(base->name());
  const uint64_t before = base->data_version();
  std::unique_lock<std::mutex> lock(mu_);
  auto it = tables_.find(key);
  if (it == tables_.end() || it->second != base) {
    return Status::Internal("write to a superseded version of table " +
                            base->name());
  }
  if (base->pins_.load(std::memory_order_acquire) == 0) {
    // In place — but a part still shared with an older version (which a
    // reader may pin) is copied first.
    base->OwnForWrite(write_cols, write_mask);
    Status applied = apply(base.get());
    lock.unlock();
    if (base->data_version() == before) return applied;
    Status logged = log();
    return applied.ok() ? logged : applied;
  }
  lock.unlock();
  // Pinned: readers keep the base; the write goes to a private clone that
  // copies only the parts it changes.
  std::shared_ptr<Table> clone(new Table(*base));
  clone->OwnForWrite(write_cols, write_mask);
  Status applied = apply(clone.get());
  if (clone->data_version() == before) return applied;
  SKINNER_RETURN_IF_ERROR(log());
  {
    std::lock_guard<std::mutex> lock(mu_);
    tables_[key] = std::move(clone);
  }
  return applied;
}

const Table* TableSnapshot::Resolve(const std::string& name) {
  std::string key = ToLower(name);
  auto it = pins_.find(key);
  if (it != pins_.end()) return it->second.get();
  std::shared_ptr<const Table> pin = catalog_->Pin(name);
  if (pin == nullptr) return nullptr;
  const Table* t = pin.get();
  pins_.emplace(std::move(key), std::move(pin));
  return t;
}

}  // namespace skinner
