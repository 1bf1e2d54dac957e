#include "storage/table.h"

#include "common/str_util.h"

namespace skinner {

Table::Table(std::string name, Schema schema, StringPool* pool)
    : name_(std::move(name)), schema_(std::move(schema)), pool_(pool) {
  cols_.reserve(static_cast<size_t>(schema_.num_columns()));
  for (int i = 0; i < schema_.num_columns(); ++i) {
    cols_.push_back(std::make_shared<Column>(schema_.column(i).type));
  }
  owned_cols_.assign(cols_.size(), true);
}

Table::Table(const Table& base)
    : name_(base.name_),
      schema_(base.schema_),
      pool_(base.pool_),
      cols_(base.cols_),
      valid_(base.valid_),
      owned_cols_(base.cols_.size(), false),
      owned_mask_(base.valid_ == nullptr),
      num_rows_(base.num_rows_),
      num_deleted_(base.num_deleted_),
      id_(base.id_),
      data_version_(base.data_version_) {}

void Table::OwnForWrite(const std::vector<int>& write_cols, bool write_mask) {
  for (int c : write_cols) {
    const size_t i = static_cast<size_t>(c);
    if (owned_cols_[i]) continue;
    cols_[i] = std::make_shared<Column>(*cols_[i]);
    owned_cols_[i] = true;
  }
  if (write_mask && !owned_mask_) {
    valid_ = std::make_shared<std::vector<uint8_t>>(*valid_);
    owned_mask_ = true;
  }
}

std::vector<int> Table::AllColumns() const {
  std::vector<int> all(cols_.size());
  for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
  return all;
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (static_cast<int>(values.size()) != schema_.num_columns()) {
    return Status::InvalidArgument(
        StrFormat("table %s expects %d values, got %zu", name_.c_str(),
                  schema_.num_columns(), values.size()));
  }
  for (int i = 0; i < schema_.num_columns(); ++i) {
    SKINNER_RETURN_IF_ERROR(cols_[static_cast<size_t>(i)]->AppendValue(
        values[static_cast<size_t>(i)], pool_));
  }
  if (valid_ != nullptr) valid_->push_back(1);
  ++num_rows_;
  ++data_version_;
  return Status::OK();
}

void Table::DeleteRow(int64_t row) {
  if (valid_ == nullptr) {
    valid_ = std::make_shared<std::vector<uint8_t>>(
        static_cast<size_t>(num_rows_), 1);
    owned_mask_ = true;
  }
  uint8_t& slot = (*valid_)[static_cast<size_t>(row)];
  if (slot == 0) return;
  slot = 0;
  ++num_deleted_;
  ++data_version_;
}

Status Table::UpdateCell(int64_t row, int col, const Value& v) {
  SKINNER_RETURN_IF_ERROR(
      cols_[static_cast<size_t>(col)]->SetValue(row, v, pool_));
  ++data_version_;
  return Status::OK();
}

void Table::Compact() {
  if (valid_ == nullptr) return;
  for (auto& c : cols_) c->Retain(valid_->data(), num_rows_);
  num_rows_ -= num_deleted_;
  num_deleted_ = 0;
  valid_.reset();
  owned_mask_ = true;
  ++data_version_;
}

std::vector<Value> Table::GetRow(int64_t row) const {
  std::vector<Value> out;
  out.reserve(cols_.size());
  for (const auto& c : cols_) out.push_back(c->GetValue(row, *pool_));
  return out;
}

}  // namespace skinner
