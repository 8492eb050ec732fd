#include "core/encrypted_table.h"

#include <optional>

#include "db/serialize.h"
#include "obs/trace_context.h"

namespace sdbenc {

namespace {

/// Cached row blob: column count, then each cell's self-describing Value
/// serialisation (length-prefixed). Purely in-memory — never persisted.
Bytes SerializeRowBlob(const std::vector<Value>& values) {
  BinaryWriter w;
  w.PutU32(static_cast<uint32_t>(values.size()));
  for (const Value& v : values) w.PutBytes(v.Serialize());
  return w.Take();
}

StatusOr<std::vector<Value>> DeserializeRowBlob(BytesView blob) {
  BinaryReader r(blob);
  SDBENC_ASSIGN_OR_RETURN(const uint32_t ncols, r.GetU32());
  std::vector<Value> values;
  values.reserve(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    SDBENC_ASSIGN_OR_RETURN(const Bytes encoded, r.GetBytes());
    SDBENC_ASSIGN_OR_RETURN(Value v, Value::Deserialize(encoded));
    values.push_back(std::move(v));
  }
  return values;
}

}  // namespace

DecryptedBlockCache::Key EncryptedTable::RowCacheKey(uint64_t row) const {
  DecryptedBlockCache::Key key;
  key.space = table_->id();
  key.block = row;
  // The row's storage-write version: any rewrite of the stored bytes —
  // legitimate update or tampering — moves the key, so a stale cached
  // decrypt can never answer for bytes that changed underneath it.
  key.version = table_->row_version(row);
  key.epoch = cache_->epoch();
  key.codec = cache_codec_tag_;
  return key;
}

void EncryptedTable::InvalidateCachedRow(uint64_t row) const {
  if (cache_ != nullptr) cache_->Erase(RowCacheKey(row));
}

StatusOr<CellCodec*> EncryptedTable::CodecFor(uint32_t column) const {
  if (column >= codecs_.size() || codecs_[column] == nullptr) {
    return FailedPreconditionError(
        "no codec (key) available for column " + std::to_string(column));
  }
  return codecs_[column];
}

StatusOr<Bytes> EncryptedTable::EncodeCell(const Value& value, uint64_t row,
                                           uint32_t column) {
  const Bytes serialized = value.Serialize();
  if (!table_->schema().column(column).encrypted) {
    return serialized;
  }
  SDBENC_ASSIGN_OR_RETURN(CellCodec * codec, CodecFor(column));
  return codec->Encode(serialized, table_->AddressOf(row, column));
}

StatusOr<uint64_t> EncryptedTable::InsertRow(const std::vector<Value>& values) {
  SDBENC_RETURN_IF_ERROR(table_->schema().ValidateRow(values));
  // The row number is part of every encrypted cell's authenticated address,
  // so it must be fixed before encoding: rows are append-only and the next
  // row number is num_rows().
  const uint64_t row = table_->num_rows();
  std::vector<Bytes> cells;
  cells.reserve(values.size());
  for (uint32_t c = 0; c < values.size(); ++c) {
    SDBENC_ASSIGN_OR_RETURN(Bytes cell, EncodeCell(values[c], row, c));
    cells.push_back(std::move(cell));
  }
  return table_->AppendRow(std::move(cells));
}

StatusOr<std::vector<uint64_t>> EncryptedTable::InsertRows(
    const std::vector<std::vector<Value>>& rows, const Parallelism& par) {
  for (const std::vector<Value>& values : rows) {
    SDBENC_RETURN_IF_ERROR(table_->schema().ValidateRow(values));
  }
  const uint32_t num_columns = table_->num_columns();
  bool stateless = par.Resolve() > 1 && !rows.empty();
  for (uint32_t c = 0; c < num_columns && stateless; ++c) {
    if (!table_->schema().column(c).encrypted) continue;
    SDBENC_ASSIGN_OR_RETURN(CellCodec * codec, CodecFor(c));
    stateless = codec->supports_stateless_encode();
  }

  std::vector<uint64_t> row_ids;
  row_ids.reserve(rows.size());
  if (!stateless) {
    for (const std::vector<Value>& values : rows) {
      SDBENC_ASSIGN_OR_RETURN(uint64_t row, InsertRow(values));
      row_ids.push_back(row);
    }
    return row_ids;
  }

  // Serial pre-pass: draw every encrypted cell's randomness in row-major
  // order — exactly the sequence a serial InsertRow loop would consume —
  // so the stored cells are byte-identical at every thread count.
  const uint64_t first_row = table_->num_rows();
  std::vector<std::vector<Bytes>> nonces(rows.size());
  for (size_t r = 0; r < rows.size(); ++r) {
    nonces[r].resize(num_columns);
    for (uint32_t c = 0; c < rows[r].size(); ++c) {
      if (!table_->schema().column(c).encrypted) continue;
      nonces[r][c] = codecs_[c]->DrawEncodeNonce();
    }
  }

  // Row-parallel encode: each task owns whole rows of the output matrix;
  // codecs are only touched through const EncodeWithNonce.
  std::vector<std::vector<Bytes>> cells(rows.size());
  SDBENC_RETURN_IF_ERROR(ParallelFor(
      rows.size(), /*grain=*/16, par,
      [&](size_t begin, size_t end) -> Status {
        for (size_t r = begin; r < end; ++r) {
          cells[r].reserve(rows[r].size());
          for (uint32_t c = 0; c < rows[r].size(); ++c) {
            const Bytes serialized = rows[r][c].Serialize();
            if (!table_->schema().column(c).encrypted) {
              cells[r].push_back(serialized);
              continue;
            }
            SDBENC_ASSIGN_OR_RETURN(
                Bytes stored,
                codecs_[c]->EncodeWithNonce(
                    ToView(serialized), table_->AddressOf(first_row + r, c),
                    ToView(nonces[r][c])));
            cells[r].push_back(std::move(stored));
          }
        }
        return OkStatus();
      }));

  for (std::vector<Bytes>& row_cells : cells) {
    SDBENC_ASSIGN_OR_RETURN(uint64_t row, table_->AppendRow(std::move(row_cells)));
    row_ids.push_back(row);
  }
  return row_ids;
}

StatusOr<Value> EncryptedTable::GetCell(uint64_t row, uint32_t column) const {
  SDBENC_ASSIGN_OR_RETURN(BytesView stored, table_->cell(row, column));
  if (!table_->schema().column(column).encrypted) {
    return Value::Deserialize(stored);
  }
  SDBENC_ASSIGN_OR_RETURN(CellCodec * codec, CodecFor(column));
  SDBENC_ASSIGN_OR_RETURN(
      Bytes serialized, codec->Decode(stored, table_->AddressOf(row, column)));
  // One AEAD Open of one ciphertext cell: the unit of decryption leakage.
  obs::CountLeak(obs::LeakKind::kCellsDecrypted);
  return Value::Deserialize(serialized);
}

StatusOr<std::vector<Value>> EncryptedTable::DecryptRow(uint64_t row) const {
  std::vector<Value> values;
  values.reserve(table_->num_columns());
  for (uint32_t c = 0; c < table_->num_columns(); ++c) {
    StatusOr<Value> v = GetCell(row, c);
    if (!v.ok()) {
      // A failed authenticated read means any cached plaintext for this
      // row describes bytes that are no longer there.
      InvalidateCachedRow(row);
      return v.status();
    }
    values.push_back(std::move(v).value());
  }
  return values;
}

void EncryptedTable::CacheRow(uint64_t row, BytesView blob) const {
  obs::CountLeak(obs::LeakKind::kPlaintextBytes, blob.size());
  cache_->Insert(RowCacheKey(row), blob);
}

StatusOr<std::vector<Value>> EncryptedTable::GetRow(uint64_t row) const {
  SDBENC_ASSIGN_OR_RETURN(std::vector<Value> values, DecryptRow(row));
  if (cache_ != nullptr) CacheRow(row, SerializeRowBlob(values));
  return values;
}

StatusOr<std::vector<std::vector<Value>>> EncryptedTable::GetRowsCached(
    const std::vector<uint64_t>& rows, const Parallelism& par) const {
  // Only decryption and deserialisation run in parallel. Every cache
  // operation happens on the calling thread in `rows` order — all lookups,
  // then all inserts — so the cache's LRU order, and with it every later
  // hit, miss and eviction, is the same at every thread count.
  std::vector<std::optional<Bytes>> cached(rows.size());
  if (cache_ != nullptr) {
    for (size_t i = 0; i < rows.size(); ++i) {
      cached[i] = cache_->Lookup(RowCacheKey(rows[i]));
      if (cached[i]) {
        obs::CountLeak(obs::LeakKind::kPlaintextBytes, cached[i]->size());
      }
    }
  }
  std::vector<std::vector<Value>> out(rows.size());
  std::vector<Bytes> fresh(rows.size());
  SDBENC_RETURN_IF_ERROR(ParallelFor(
      rows.size(), /*grain=*/16, par,
      [&](size_t begin, size_t end) -> Status {
        for (size_t i = begin; i < end; ++i) {
          if (cached[i]) {
            StatusOr<std::vector<Value>> values =
                DeserializeRowBlob(ToView(*cached[i]));
            // A corrupt blob (cannot happen short of a bug) is decrypted
            // afresh and replaced by the insert below.
            if (values.ok()) {
              out[i] = std::move(values).value();
              continue;
            }
          }
          SDBENC_ASSIGN_OR_RETURN(out[i], DecryptRow(rows[i]));
          if (cache_ != nullptr) fresh[i] = SerializeRowBlob(out[i]);
        }
        return OkStatus();
      }));
  for (size_t i = 0; i < rows.size(); ++i) {
    if (!fresh[i].empty()) CacheRow(rows[i], fresh[i]);
  }
  return out;
}

Status EncryptedTable::UpdateCell(uint64_t row, uint32_t column,
                                  const Value& value) {
  if (!value.is_null() &&
      value.type() != table_->schema().column(column).type) {
    return InvalidArgumentError("value type does not match column type");
  }
  SDBENC_ASSIGN_OR_RETURN(Bytes encoded, EncodeCell(value, row, column));
  SDBENC_ASSIGN_OR_RETURN(Bytes * cell, table_->mutable_cell(row, column));
  *cell = std::move(encoded);
  InvalidateCachedRow(row);
  return OkStatus();
}

Status EncryptedTable::VerifyAll(const Parallelism& par) const {
  // Row-parallel sweep over read-only state (resident cells, const Decode).
  // First-error-wins by chunk index plus front-to-back rows within a chunk
  // means the reported cell is the globally first failure in row-major
  // order — the same verdict and message as the serial sweep.
  return ParallelFor(
      table_->num_rows(), /*grain=*/16, par,
      [&](size_t begin, size_t end) -> Status {
        for (uint64_t r = begin; r < end; ++r) {
          if (table_->IsDeleted(r)) continue;
          for (uint32_t c = 0; c < table_->num_columns(); ++c) {
            StatusOr<Value> v = GetCell(r, c);
            if (!v.ok()) {
              return Status(v.status().code(),
                            "cell " + table_->AddressOf(r, c).ToString() +
                                ": " + v.status().message());
            }
          }
        }
        return OkStatus();
      });
}

}  // namespace sdbenc
