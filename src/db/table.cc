#include "db/table.h"

#include <algorithm>
#include <iterator>

#include "db/row_codec.h"

namespace sdbenc {

StatusOr<uint64_t> Table::AppendRow(std::vector<Bytes> cells) {
  if (cells.size() != schema_.num_columns()) {
    return InvalidArgumentError("cell count does not match schema");
  }
  rows_.push_back(std::move(cells));
  deleted_.push_back(false);
  row_versions_.push_back(0);
  return static_cast<uint64_t>(rows_.size() - 1);
}

Status Table::CheckBounds(uint64_t row, uint32_t column) const {
  if (row >= rows_.size()) {
    return OutOfRangeError("row " + std::to_string(row) + " out of range");
  }
  if (column >= schema_.num_columns()) {
    return OutOfRangeError("column " + std::to_string(column) +
                           " out of range");
  }
  return OkStatus();
}

StatusOr<BytesView> Table::cell(uint64_t row, uint32_t column) const {
  SDBENC_RETURN_IF_ERROR(CheckBounds(row, column));
  return BytesView(rows_[row][column]);
}

StatusOr<Bytes*> Table::mutable_cell(uint64_t row, uint32_t column) {
  SDBENC_RETURN_IF_ERROR(CheckBounds(row, column));
  MarkGroupDirty(row);
  ++row_versions_[row];
  return &rows_[row][column];
}

Status Table::DeleteRow(uint64_t row) {
  if (row >= rows_.size()) {
    return OutOfRangeError("row " + std::to_string(row) + " out of range");
  }
  deleted_[row] = true;
  MarkGroupDirty(row);
  return OkStatus();
}

bool Table::IsDeleted(uint64_t row) const {
  return row < deleted_.size() && deleted_[row];
}

void Table::MarkGroupDirty(uint64_t row) {
  if (row >= PackedRows(groups_)) return;  // the next flush packs it anyway
  const auto after = std::upper_bound(
      groups_.begin(), groups_.end(), row,
      [](uint64_t r, const RowGroup& g) { return r < g.first_row; });
  std::prev(after)->dirty = true;
}

void Table::PackRows(std::vector<RowGroup>& groups, size_t payload) const {
  uint64_t row = PackedRows(groups);
  if (row == rows_.size()) return;
  // Bytes the open tail group already fills.
  size_t fill = 0;
  if (!groups.empty()) {
    fill = kRowGroupHeaderLen;
    for (uint64_t r = groups.back().first_row; r < row; ++r) {
      fill += RowGroupSlotSize(rows_[r]);
    }
  }
  for (; row < rows_.size(); ++row) {
    const size_t slot = RowGroupSlotSize(rows_[row]);
    if (groups.empty() || fill + slot > payload) {
      groups.push_back(RowGroup{kNoRecord, row, 0, true});
      fill = kRowGroupHeaderLen;
    }
    RowGroup& tail = groups.back();
    ++tail.count;
    tail.dirty = true;
    fill += slot;
  }
}

void Table::EncodeGroup(const RowGroup& group, Bytes* out) const {
  const uint64_t end = group.first_row + group.count;
  size_t size = kRowGroupHeaderLen;
  for (uint64_t r = group.first_row; r < end; ++r) {
    size += RowGroupSlotSize(rows_[r]);
  }
  out->resize(size);
  uint8_t* p = out->data();
  PutUint32Be(p, group.count);
  p += kRowGroupHeaderLen;
  for (uint64_t r = group.first_row; r < end; ++r) {
    uint8_t* const row_start = p + 4;
    p = EncodeRowTo(rows_[r], deleted_[r], row_start);
    PutUint32Be(row_start - 4, static_cast<uint32_t>(p - row_start));
  }
}

Status Table::FlushRows(RecordStore& store) {
  // Free a v1/v2 directory's per-row records first, so the groups that
  // replace them reuse their pages instead of growing the file.
  for (const RecordId id : per_row_records_) {
    SDBENC_RETURN_IF_ERROR(store.Free(id));
  }
  per_row_records_.clear();
  PackRows(groups_, store.payload_size());
  Bytes buf;
  for (RowGroup& group : groups_) {
    if (!group.dirty) continue;
    EncodeGroup(group, &buf);
    if (group.record == kNoRecord) {
      SDBENC_ASSIGN_OR_RETURN(group.record, store.Put(buf));
    } else {
      SDBENC_RETURN_IF_ERROR(store.Update(group.record, buf));
    }
    group.dirty = false;
  }
  return OkStatus();
}

Status Table::LoadRows(RecordStore& store, const std::vector<RecordId>& ids,
                       RowDirectory directory) {
  rows_.clear();
  deleted_.clear();
  groups_.clear();
  per_row_records_.clear();
  auto adopt = [&](RowRecord& row) -> Status {
    if (row.cells.size() != schema_.num_columns()) {
      return ParseError("stored row arity does not match schema");
    }
    rows_.push_back(std::move(row.cells));
    deleted_.push_back(row.deleted);
    return OkStatus();
  };
  for (const RecordId id : ids) {
    SDBENC_ASSIGN_OR_RETURN(const Bytes record, store.Get(id));
    if (directory == RowDirectory::kPerRow) {
      SDBENC_ASSIGN_OR_RETURN(RowRecord row, DecodeRow(record));
      SDBENC_RETURN_IF_ERROR(adopt(row));
      continue;
    }
    SDBENC_ASSIGN_OR_RETURN(std::vector<RowRecord> rows,
                            DecodeRowGroup(record));
    groups_.push_back(RowGroup{id, rows_.size(),
                               static_cast<uint32_t>(rows.size()), false});
    for (RowRecord& row : rows) SDBENC_RETURN_IF_ERROR(adopt(row));
  }
  if (directory == RowDirectory::kPerRow) per_row_records_ = ids;
  row_versions_.assign(rows_.size(), 0);
  return OkStatus();
}

Status Table::DumpRowsTo(RecordStore& store,
                         std::vector<RecordId>* ids) const {
  std::vector<RowGroup> groups;
  PackRows(groups, store.payload_size());
  ids->clear();
  ids->reserve(groups.size());
  Bytes buf;
  for (const RowGroup& group : groups) {
    EncodeGroup(group, &buf);
    SDBENC_ASSIGN_OR_RETURN(const RecordId id, store.Put(buf));
    ids->push_back(id);
  }
  return OkStatus();
}

StatusOr<std::vector<RecordId>> Table::GroupRecordIds() const {
  std::vector<RecordId> ids;
  ids.reserve(groups_.size());
  for (const RowGroup& group : groups_) {
    if (group.record == kNoRecord) break;
    ids.push_back(group.record);
  }
  if (ids.size() != groups_.size() || PackedRows(groups_) != rows_.size() ||
      !per_row_records_.empty()) {
    return FailedPreconditionError(
        "table has unflushed rows; Flush() before saving the catalog");
  }
  return ids;
}

}  // namespace sdbenc
