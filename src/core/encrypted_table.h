#ifndef SDBENC_CORE_ENCRYPTED_TABLE_H_
#define SDBENC_CORE_ENCRYPTED_TABLE_H_

#include <vector>

#include "db/table.h"
#include "db/value.h"
#include "schemes/cell_codec.h"
#include "storage/decrypted_cache.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace sdbenc {

/// Structure-preserving encrypted view over a raw Table: columns marked
/// `encrypted` in the schema pass through their column's codec (cells bound
/// to their (t, r, c) address), clear columns are stored as serialized
/// plaintext. This is the paper's database encryption layer with the codecs
/// as the pluggable scheme — Elovici's for the attack demonstrations, AEAD
/// for the fix. Per-column codecs (and therefore per-column keys) are what
/// make cryptographic column-granular access control possible (see
/// core/restricted_reader.h).
class EncryptedTable {
 public:
  /// `table` and every codec must outlive this object. `codecs` holds one
  /// entry per column; entries for unencrypted columns may be nullptr.
  EncryptedTable(Table* table, std::vector<CellCodec*> codecs)
      : table_(table), codecs_(std::move(codecs)) {}

  /// Convenience: one codec shared by all encrypted columns.
  EncryptedTable(Table* table, CellCodec* codec)
      : table_(table),
        codecs_(table->schema().num_columns(), codec) {}

  const Table& table() const { return *table_; }
  Table* mutable_table() { return table_; }

  /// Validates against the schema, encodes each cell, appends the row.
  StatusOr<uint64_t> InsertRow(const std::vector<Value>& values);

  /// Bulk counterpart of InsertRow: validates every row up front, encodes
  /// all cells (row-parallel at `par` when every encrypted column's codec
  /// supports stateless encoding — nonces are pre-drawn serially in
  /// row-major order, so the stored cells are byte-identical to a serial
  /// InsertRow loop at every thread count), then appends the rows in order.
  /// Returns the new row ids.
  StatusOr<std::vector<uint64_t>> InsertRows(
      const std::vector<std::vector<Value>>& rows,
      const Parallelism& par = Parallelism());

  /// Attaches a shared decrypted-block cache (owned by the caller;
  /// `codec_tag` distinguishes AEAD algorithms in cache keys). GetRow then
  /// *refreshes* the cache with every row it decrypts, and GetRowsCached
  /// serves repeat reads from it.
  void AttachBlockCache(DecryptedBlockCache* cache, uint8_t codec_tag) {
    cache_ = cache;
    cache_codec_tag_ = codec_tag;
  }

  /// Drops this row's cached plaintext, if any. Mutators that bypass
  /// UpdateCell (e.g. tombstoning) must call this.
  void InvalidateCachedRow(uint64_t row) const;

  /// Decodes one cell, authenticating its position where the codec can.
  StatusOr<Value> GetCell(uint64_t row, uint32_t column) const;

  /// Decodes a whole row — always from storage, so tampering is caught
  /// regardless of cache state. On success the row's plaintext is
  /// (re)cached; on failure any cached copy is dropped.
  StatusOr<std::vector<Value>> GetRow(uint64_t row) const;

  /// GetRow through the decrypted-block cache for many rows, in `rows`
  /// order: a hit deserialises the cached plaintext without touching
  /// storage; the misses are decrypted in parallel at `par` and cached.
  /// The hot path for query execution — callers that need a
  /// storage-truthful read (integrity checks, direct point reads after
  /// external mutation) use GetRow instead. Cache lookups and inserts run
  /// on the calling thread in `rows` order, so the cache sees the same
  /// traffic at every thread count.
  StatusOr<std::vector<std::vector<Value>>> GetRowsCached(
      const std::vector<uint64_t>& rows,
      const Parallelism& par = Parallelism()) const;

  /// Re-encodes one cell in place (fresh nonce under probabilistic codecs).
  Status UpdateCell(uint64_t row, uint32_t column, const Value& value);

  /// Decodes every cell of every live row; the first authentication failure
  /// aborts the sweep with its position in the message. Rows are verified
  /// in parallel at `par`; the reported failure is always the first failing
  /// cell in row-major order, identical to the serial sweep's verdict.
  Status VerifyAll(const Parallelism& par = Parallelism()) const;

 private:
  StatusOr<Bytes> EncodeCell(const Value& value, uint64_t row,
                             uint32_t column);
  StatusOr<CellCodec*> CodecFor(uint32_t column) const;
  DecryptedBlockCache::Key RowCacheKey(uint64_t row) const;
  /// Decodes every cell of `row` from storage; no cache traffic except
  /// dropping the row's entry on failure.
  StatusOr<std::vector<Value>> DecryptRow(uint64_t row) const;
  /// Inserts a row's serialised plaintext into the attached cache.
  void CacheRow(uint64_t row, BytesView blob) const;

  Table* table_;
  std::vector<CellCodec*> codecs_;
  DecryptedBlockCache* cache_ = nullptr;  // not owned; null = no caching
  uint8_t cache_codec_tag_ = 0;
};

}  // namespace sdbenc

#endif  // SDBENC_CORE_ENCRYPTED_TABLE_H_
