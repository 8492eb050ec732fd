#ifndef SDBENC_DB_TABLE_H_
#define SDBENC_DB_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "db/cell_address.h"
#include "db/schema.h"
#include "storage/record_store.h"
#include "util/bytes.h"
#include "util/statusor.h"

namespace sdbenc {

/// Raw cell storage — the model of the *untrusted* storage layer in the
/// paper's threat model (§2.1). Each cell holds an opaque octet string: the
/// serialized plaintext value for clear columns, or whatever the configured
/// cell codec produced for encrypted columns. The table knows nothing about
/// keys or codecs; an adversary with storage access sees exactly this
/// object's contents and may rewrite them at will (which the attack modules
/// do, via mutable_cell).
class Table {
 public:
  Table(uint64_t id, std::string name, Schema schema)
      : id_(id), name_(std::move(name)), schema_(std::move(schema)) {}

  uint64_t id() const { return id_; }
  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  size_t num_columns() const { return schema_.num_columns(); }

  /// Appends a row of stored cells; returns the new row number. The cell
  /// count must match the schema arity.
  StatusOr<uint64_t> AppendRow(std::vector<Bytes> cells);

  /// Read access to the stored (possibly encrypted) cell bytes.
  StatusOr<BytesView> cell(uint64_t row, uint32_t column) const;

  /// Write access — legitimate updates and adversarial tampering both go
  /// through here, as both are just writes to untrusted storage. Every
  /// access bumps the row's stored-bytes version.
  StatusOr<Bytes*> mutable_cell(uint64_t row, uint32_t column);

  /// Monotonic counter of writes to this row's stored bytes (via
  /// mutable_cell or LoadRows replacing content). Layers that cache
  /// *derived* state — notably decrypted plaintext — key it by this
  /// version, so anything recomputed after a storage write sees the new
  /// bytes: a rewritten cell can never be masked by a stale cached
  /// decrypt.
  uint64_t row_version(uint64_t row) const {
    return row < row_versions_.size() ? row_versions_[row] : 0;
  }

  /// The address triple for a cell of this table.
  CellAddress AddressOf(uint64_t row, uint32_t column) const {
    return CellAddress{id_, row, column};
  }

  /// Marks a row deleted (tombstone). Rows are never renumbered: cell
  /// addresses are part of the ciphertexts' authenticated positions, so
  /// compaction would require re-encryption.
  Status DeleteRow(uint64_t row);
  bool IsDeleted(uint64_t row) const;

  /// How LoadRows reads its record directory.
  enum class RowDirectory {
    kRowGroups,  ///< one group record per run of rows (catalog v3)
    kPerRow,     ///< one bare row record per row (catalog v1/v2)
  };

  /// Persists the rows into `store` as row groups (db/row_codec.h) and
  /// clears the dirty bits. Rows never flushed join the open tail group,
  /// then fresh groups: consecutive rows are packed greedily until the next
  /// row would overflow one page payload, and a row larger than that sits
  /// alone. Only groups holding a changed row are rewritten, in place, so
  /// group record ids stay stable; a group that outgrew its page becomes a
  /// longer chain. Per-row records adopted by LoadRows are freed here once
  /// their rows are repacked.
  Status FlushRows(RecordStore& store);

  /// Rebuilds the in-memory rows from `ids` (in row order), replacing any
  /// current content. Group records are adopted as the table's groups, so a
  /// later FlushRows() updates the same records; per-row records are kept
  /// only until that flush repacks and frees them.
  Status LoadRows(RecordStore& store, const std::vector<RecordId>& ids,
                  RowDirectory directory);

  /// Packs *all* rows, flushed or not, into fresh group records in `store`
  /// (for full-image dumps to a different engine) without touching this
  /// table's own groups or dirty bits.
  Status DumpRowsTo(RecordStore& store, std::vector<RecordId>* ids) const;

  /// Group record ids in row order, as the catalog lists them. Fails if
  /// some rows have not been flushed into groups yet.
  StatusOr<std::vector<RecordId>> GroupRecordIds() const;

 private:
  // A run of consecutive rows stored as one record.
  struct RowGroup {
    RecordId record = kNoRecord;
    uint64_t first_row = 0;
    uint32_t count = 0;
    bool dirty = true;
  };

  Status CheckBounds(uint64_t row, uint32_t column) const;
  /// Rows held by `groups`; the rows after them have never been packed.
  static uint64_t PackedRows(const std::vector<RowGroup>& groups) {
    return groups.empty() ? 0 : groups.back().first_row + groups.back().count;
  }
  /// Marks the group holding `row` for rewrite (no-op if not yet packed).
  void MarkGroupDirty(uint64_t row);
  /// Packs the rows after PackedRows(groups) onto `groups`, filling its
  /// last group first; no group exceeds `payload` bytes unless it holds a
  /// single row.
  void PackRows(std::vector<RowGroup>& groups, size_t payload) const;
  /// Encodes `group` into `out` (resized to fit).
  void EncodeGroup(const RowGroup& group, Bytes* out) const;

  uint64_t id_;
  std::string name_;
  Schema schema_;
  std::vector<std::vector<Bytes>> rows_;
  std::vector<bool> deleted_;
  std::vector<uint64_t> row_versions_;
  // Page-residence bookkeeping: the row groups in row order, and per-row
  // records of a catalog v1/v2 directory awaiting repacking.
  std::vector<RowGroup> groups_;
  std::vector<RecordId> per_row_records_;
};

}  // namespace sdbenc

#endif  // SDBENC_DB_TABLE_H_
