#include "attacks/storage_scrape.h"

#include <utility>

#include "db/row_codec.h"
#include "db/serialize.h"
#include "storage/file_storage_engine.h"
#include "storage/record_store.h"

namespace sdbenc {

StatusOr<ScrapedImage> ScrapePageFile(const std::string& path) {
  // The storage code itself is the attacker's parser: open read-write is
  // not needed, but the engine API is what a real adversary would lift
  // from the public sources anyway.
  SDBENC_ASSIGN_OR_RETURN(auto engine,
                          FileStorageEngine::Open(path, /*pool_pages=*/64));
  RecordStore records(engine.get());
  const uint64_t root = engine->root_record();
  if (root == kNoRecord) {
    return ParseError("page file has no catalog record");
  }
  SDBENC_ASSIGN_OR_RETURN(const Bytes catalog, records.Get(root));

  // The catalog is plain public structure (see SecureDatabase::WriteCatalog)
  // — only the keycheck token and the cell/index payloads it points at are
  // ciphertext.
  BinaryReader r(catalog);
  SDBENC_ASSIGN_OR_RETURN(const uint32_t version, r.GetU32());
  if (version < 1 || version > 3) {
    return ParseError("unsupported catalog version");
  }
  SDBENC_ASSIGN_OR_RETURN(const Bytes keycheck, r.GetBytes());
  (void)keycheck;  // opaque to the attacker: AEAD under a key they lack
  SDBENC_ASSIGN_OR_RETURN(const uint64_t next_index_id, r.GetU64());
  (void)next_index_id;
  SDBENC_ASSIGN_OR_RETURN(const uint32_t n_tables, r.GetU32());

  ScrapedImage image;
  for (uint32_t t = 0; t < n_tables; ++t) {
    ScrapedTable table;
    SDBENC_ASSIGN_OR_RETURN(table.id, r.GetU64());
    SDBENC_ASSIGN_OR_RETURN(table.name, r.GetString());
    SDBENC_ASSIGN_OR_RETURN(const uint32_t ncols, r.GetU32());
    for (uint32_t c = 0; c < ncols; ++c) {
      ScrapedColumn col;
      SDBENC_ASSIGN_OR_RETURN(col.name, r.GetString());
      SDBENC_ASSIGN_OR_RETURN(col.type, r.GetU8());
      SDBENC_ASSIGN_OR_RETURN(const uint8_t encrypted, r.GetU8());
      col.encrypted = encrypted != 0;
      table.columns.push_back(std::move(col));
    }
    // Version 3 lists one row group record per run of rows; versions 1
    // and 2 list one bare row record per row.
    SDBENC_ASSIGN_OR_RETURN(const uint64_t n_records, r.GetU64());
    if (n_records > r.Remaining() / 8) {
      return ParseError("catalog record count exceeds catalog size");
    }
    for (uint64_t i = 0; i < n_records; ++i) {
      SDBENC_ASSIGN_OR_RETURN(const uint64_t record_id, r.GetU64());
      SDBENC_ASSIGN_OR_RETURN(const Bytes record, records.Get(record_id));
      std::vector<RowRecord> rows;
      if (version >= 3) {
        SDBENC_ASSIGN_OR_RETURN(rows, DecodeRowGroup(record));
      } else {
        SDBENC_ASSIGN_OR_RETURN(RowRecord row, DecodeRow(record));
        rows.push_back(std::move(row));
      }
      for (RowRecord& row : rows) {
        if (row.cells.size() != table.columns.size()) {
          return ParseError("row record arity does not match schema");
        }
        table.rows.push_back(std::move(row.cells));
        table.deleted.push_back(row.deleted);
      }
    }
    SDBENC_ASSIGN_OR_RETURN(const std::string alg_name, r.GetString());
    (void)alg_name;
    SDBENC_ASSIGN_OR_RETURN(const uint32_t order, r.GetU32());
    (void)order;
    SDBENC_ASSIGN_OR_RETURN(const uint32_t n_indexes, r.GetU32());
    for (uint32_t i = 0; i < n_indexes; ++i) {
      SDBENC_ASSIGN_OR_RETURN(std::string column, r.GetString());
      SDBENC_ASSIGN_OR_RETURN(const uint64_t index_id, r.GetU64());
      (void)index_id;
      SDBENC_ASSIGN_OR_RETURN(const Bytes meta, r.GetBytes());
      (void)meta;  // node record ids; the nodes hold AEAD entries only
      table.indexed_columns.push_back(std::move(column));
    }
    if (version >= 2) {
      // Version 2 appends per-table statistics — AEAD-sealed precisely so
      // a scraper like this one learns nothing from them.
      SDBENC_ASSIGN_OR_RETURN(const Bytes sealed_stats, r.GetBytes());
      (void)sealed_stats;
    }
    image.tables.push_back(std::move(table));
  }
  if (!r.AtEnd()) {
    return ParseError("trailing garbage in catalog record");
  }
  return image;
}

}  // namespace sdbenc
