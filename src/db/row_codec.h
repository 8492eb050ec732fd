#ifndef SDBENC_DB_ROW_CODEC_H_
#define SDBENC_DB_ROW_CODEC_H_

#include <cstddef>
#include <vector>

#include "util/bytes.h"
#include "util/statusor.h"

namespace sdbenc {

/// A decoded row record: the stored (possibly encrypted) cell bytes plus the
/// tombstone flag.
struct RowRecord {
  std::vector<Bytes> cells;
  bool deleted = false;
};

/// Slotted-row encoding of one table row for page-resident storage:
///
///   u8 flags (bit 0 = tombstone) | u32 ncells
///   | u32 slot length directory (ncells entries) | cell payloads
///
/// The directory-first layout lets a reader locate any cell without walking
/// the payloads; cells stay opaque octet strings, so the codec is the same
/// for clear and encrypted columns. Rows are written straight into their
/// row group's buffer: EncodedRowSize sizes the encoding arithmetically and
/// EncodeRowTo writes exactly that many octets at `out`, returning one past
/// the last.
size_t EncodedRowSize(const std::vector<Bytes>& cells);
uint8_t* EncodeRowTo(const std::vector<Bytes>& cells, bool deleted,
                     uint8_t* out);

/// Inverse of EncodeRowTo; fails with kParseError on truncated or
/// inconsistent input.
StatusOr<RowRecord> DecodeRow(BytesView record);

/// Row group: consecutive rows of one table packed into one record,
///
///   u32 count | count x (u32 len | encoded row)
///
/// A group fills at most one page payload unless it holds a single row
/// larger than that. The group carries no row numbers: the catalog lists a
/// table's groups in row order, so row r is found by counting.
inline constexpr size_t kRowGroupHeaderLen = 4;

/// Octets one row adds to a group: its length slot plus its encoding.
inline size_t RowGroupSlotSize(const std::vector<Bytes>& cells) {
  return 4 + EncodedRowSize(cells);
}

/// Decodes a row group record; kParseError on truncation, trailing bytes,
/// an empty group, or a `count` the record cannot hold (checked before
/// anything is reserved for it).
StatusOr<std::vector<RowRecord>> DecodeRowGroup(BytesView record);

}  // namespace sdbenc

#endif  // SDBENC_DB_ROW_CODEC_H_
