#include "db/row_codec.h"

#include <cstring>

#include "db/serialize.h"

namespace sdbenc {

namespace {
constexpr uint8_t kFlagDeleted = 0x01;
constexpr size_t kRowHeaderLen = 1 + 4;  // flags + ncells
}  // namespace

size_t EncodedRowSize(const std::vector<Bytes>& cells) {
  size_t size = kRowHeaderLen + 4 * cells.size();
  for (const Bytes& cell : cells) size += cell.size();
  return size;
}

uint8_t* EncodeRowTo(const std::vector<Bytes>& cells, bool deleted,
                     uint8_t* out) {
  *out++ = deleted ? kFlagDeleted : 0;
  PutUint32Be(out, static_cast<uint32_t>(cells.size()));
  out += 4;
  for (const Bytes& cell : cells) {
    PutUint32Be(out, static_cast<uint32_t>(cell.size()));
    out += 4;
  }
  for (const Bytes& cell : cells) {
    if (!cell.empty()) std::memcpy(out, cell.data(), cell.size());
    out += cell.size();
  }
  return out;
}

StatusOr<RowRecord> DecodeRow(BytesView record) {
  BinaryReader r(record);
  SDBENC_ASSIGN_OR_RETURN(const uint8_t flags, r.GetU8());
  SDBENC_ASSIGN_OR_RETURN(const uint32_t ncells, r.GetU32());
  // Every slot costs at least its 4-octet directory entry; reject counts the
  // input cannot possibly hold before reserving space for them.
  if (static_cast<uint64_t>(ncells) * 4 > r.Remaining()) {
    return ParseError("row slot count exceeds record size");
  }
  std::vector<uint32_t> lengths(ncells);
  uint64_t total = 0;
  for (uint32_t i = 0; i < ncells; ++i) {
    SDBENC_ASSIGN_OR_RETURN(lengths[i], r.GetU32());
    total += lengths[i];
  }
  const size_t header = kRowHeaderLen + static_cast<size_t>(ncells) * 4;
  if (header + total != record.size()) {
    return ParseError("row payload length mismatch");
  }
  RowRecord row;
  row.deleted = (flags & kFlagDeleted) != 0;
  row.cells.reserve(ncells);
  const uint8_t* p = record.data() + header;
  for (uint32_t i = 0; i < ncells; ++i) {
    row.cells.emplace_back(p, p + lengths[i]);
    p += lengths[i];
  }
  return row;
}

StatusOr<std::vector<RowRecord>> DecodeRowGroup(BytesView record) {
  if (record.size() < kRowGroupHeaderLen) {
    return ParseError("truncated row group record");
  }
  const uint32_t count = GetUint32Be(record.data());
  if (count == 0) return ParseError("empty row group");
  // The smallest row (no cells) still takes its length slot and header;
  // reject counts the record cannot hold before reserving for them.
  size_t pos = kRowGroupHeaderLen;
  if (static_cast<uint64_t>(count) * (4 + kRowHeaderLen) >
      record.size() - pos) {
    return ParseError("row group count exceeds record size");
  }
  std::vector<RowRecord> rows;
  rows.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    if (record.size() - pos < 4) {
      return ParseError("truncated row group record");
    }
    const uint32_t len = GetUint32Be(record.data() + pos);
    pos += 4;
    if (len > record.size() - pos) {
      return ParseError("row length exceeds row group record");
    }
    SDBENC_ASSIGN_OR_RETURN(RowRecord row, DecodeRow(record.substr(pos, len)));
    rows.push_back(std::move(row));
    pos += len;
  }
  if (pos != record.size()) {
    return ParseError("trailing bytes in row group record");
  }
  return rows;
}

}  // namespace sdbenc
