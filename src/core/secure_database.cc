#include "core/secure_database.h"

#include <cstdio>
#include <utility>

#include "crypto/hash.h"
#include "crypto/hkdf.h"
#include "db/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/file_storage_engine.h"
#include "storage/memory_storage_engine.h"
#include "util/constant_time.h"
#include "util/file.h"

namespace sdbenc {

SecureDatabase::SecureDatabase(Bytes master_key,
                               std::optional<uint64_t> rng_seed)
    : master_key_(std::move(master_key)),
      storage_holder_(std::make_unique<Database>()),
      dcache_(std::make_unique<DecryptedBlockCache>()) {
  if (rng_seed.has_value()) {
    rng_ = std::make_unique<DeterministicRng>(*rng_seed);
  } else {
    rng_ = std::make_unique<SystemRng>();
  }
}

StatusOr<std::unique_ptr<SecureDatabase>> SecureDatabase::Open(
    BytesView master_key, std::optional<uint64_t> rng_seed) {
  return Open(master_key, StorageOptions::Memory(), rng_seed);
}

StatusOr<std::unique_ptr<SecureDatabase>> SecureDatabase::Open(
    BytesView master_key, const StorageOptions& storage,
    std::optional<uint64_t> rng_seed) {
  return OpenImpl(master_key, storage, rng_seed, /*create_if_missing=*/true);
}

StatusOr<std::unique_ptr<SecureDatabase>> SecureDatabase::OpenImpl(
    BytesView master_key, const StorageOptions& storage,
    std::optional<uint64_t> rng_seed, bool create_if_missing) {
  if (master_key.size() < 16) {
    return InvalidArgumentError("master key must be >= 16 octets");
  }
  auto db = std::unique_ptr<SecureDatabase>(new SecureDatabase(
      Bytes(master_key.begin(), master_key.end()), rng_seed));

  if (storage.backend == StorageBackend::kMemory) {
    db->engine_ = std::make_unique<MemoryStorageEngine>(storage.page_size);
    db->records_ = std::make_unique<RecordStore>(db->engine_.get());
    SDBENC_ASSIGN_OR_RETURN(db->keycheck_, db->MakeKeycheckToken());
    SDBENC_RETURN_IF_ERROR(db->InitAudit(storage));
    return db;
  }

  // The WAL key sits under the master-key hierarchy like every other
  // subkey, so the log leaks no more than the pages it shadows.
  FileStorageEngine::Options engine_options;
  engine_options.page_size = storage.page_size;
  engine_options.pool_pages = storage.buffer_pool_pages;
  engine_options.stripes = storage.stripes;
  engine_options.enable_wal = storage.enable_wal;
  engine_options.group_commit_window_us = storage.group_commit_window_us;
  if (storage.enable_wal) engine_options.wal_key = db->DeriveKey("wal");

  StatusOr<std::unique_ptr<FileStorageEngine>> reopened =
      FileStorageEngine::Open(storage.path, engine_options);
  if (reopened.ok()) {
    const FileStorageEngine::RecoveryInfo recovery =
        (*reopened)->recovery_info();
    db->engine_ = std::move(reopened).value();
    db->records_ = std::make_unique<RecordStore>(db->engine_.get());
    SDBENC_RETURN_IF_ERROR(db->LoadCatalog());
    // The audit log opens only after LoadCatalog authenticated the master
    // key (keycheck) — a wrong key must never create or reseal evidence.
    SDBENC_RETURN_IF_ERROR(db->InitAudit(storage));
    if (recovery.applied) {
      db->NoteSecurityEvent(
          AuditEventType::kWalRecovery,
          "WAL replay rolled the page image forward: " +
              std::to_string(recovery.pages_applied) + " afterimage(s), " +
              std::to_string(recovery.restores_applied) + " restore(s), " +
              (recovery.had_commit ? "commit metadata applied"
                                   : "no commit record"));
    }
    return db;
  }
  if (!create_if_missing ||
      reopened.status().code() != StatusCode::kNotFound) {
    return reopened.status();
  }
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<FileStorageEngine> fresh,
                          FileStorageEngine::Create(storage.path,
                                                    engine_options));
  db->engine_ = std::move(fresh);
  db->records_ = std::make_unique<RecordStore>(db->engine_.get());
  SDBENC_ASSIGN_OR_RETURN(db->keycheck_, db->MakeKeycheckToken());
  SDBENC_RETURN_IF_ERROR(db->InitAudit(storage));
  return db;
}

Status SecureDatabase::CheckOpen() const {
  if (closed_) {
    return FailedPreconditionError("session closed; keys were wiped");
  }
  return OkStatus();
}

Bytes SecureDatabase::DeriveSubkey(BytesView master_key,
                                   const std::string& label) {
  // HKDF (RFC 5869) with the label as info; 32 octets so every AEAD
  // (including two-key SIV) can be keyed. Independent labels give
  // cryptographically independent subkeys — exactly the separation whose
  // absence the paper's Sect. 3.3 attack exploits.
  auto okm = Hkdf(HashAlgorithm::kSha256,
                  Bytes(master_key.begin(), master_key.end()),
                  BytesFromString("sdbenc-subkey-v1"), BytesFromString(label),
                  32);
  return std::move(okm).value();  // length is static and valid
}

Bytes SecureDatabase::DeriveKey(const std::string& label) const {
  return DeriveSubkey(ToView(master_key_), label);
}

Status SecureDatabase::InitAudit(const StorageOptions& storage) {
  if (storage.audit_path.empty()) return OkStatus();
  AuditLogOptions options;
  options.key = DeriveKey("audit");
  SDBENC_ASSIGN_OR_RETURN(audit_,
                          AuditLog::Open(storage.audit_path, options));
  const char* backend =
      storage.backend == StorageBackend::kMemory ? "memory" : "file";
  NoteSecurityEvent(AuditEventType::kSessionOpen,
                    std::string("session opened (") + backend + " backend)");
  return OkStatus();
}

void SecureDatabase::NoteSecurityEvent(AuditEventType type,
                                       const std::string& detail) const {
  if (audit_ == nullptr) return;
  const Status appended = audit_->AppendEvent(type, detail);
  if (!appended.ok()) {
    // Evidence loss is itself worth counting, but an audit I/O error must
    // not fail the operation that triggered the event.
    static obs::Counter* const dropped =
        obs::Registry().GetCounter("sdbenc_audit_append_failures_total");
    dropped->Increment();
  }
}

StatusOr<AuditChain> SecureDatabase::VerifyAuditChain() const {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  if (audit_ == nullptr) {
    return FailedPreconditionError("session has no audit log configured");
  }
  AuditLogOptions options;
  options.key = DeriveKey("audit");
  return AuditLog::VerifyChain(audit_->path(), options);
}

namespace {

StatusOr<std::unique_ptr<Aead>> MakeAead(AeadAlgorithm alg,
                                         const Bytes& key32) {
  // SIV wants the full 32 octets; the AES-based modes take the first 16.
  if (alg == AeadAlgorithm::kSiv || alg == AeadAlgorithm::kEtm) {
    return CreateAead(alg, key32);
  }
  return CreateAead(alg, BytesView(key32.data(), 16));
}

// The keycheck token is this constant, AEAD-encrypted under the dedicated
// "keycheck" subkey at a reserved address. Decrypt-verifying it proves the
// master key without touching any cell.
constexpr char kKeycheckPlaintext[] = "sdbenc-keycheck";
constexpr CellAddress kKeycheckAddress{0, 0, 0};

// Sealed table statistics live at this reserved per-table address — no real
// cell can collide with it (rows are dense from 0).
constexpr CellAddress StatsAddress(uint64_t table_id) {
  return CellAddress{table_id, UINT64_MAX, UINT32_MAX};
}

}  // namespace

StatusOr<Bytes> SecureDatabase::MakeKeycheckToken() const {
  SDBENC_ASSIGN_OR_RETURN(
      std::unique_ptr<Aead> aead,
      MakeAead(AeadAlgorithm::kEax, DeriveKey("keycheck")));
  AeadCellCodec codec(*aead, *rng_);
  return codec.Encode(BytesFromString(kKeycheckPlaintext), kKeycheckAddress);
}

StatusOr<Bytes> SecureDatabase::SealStats(const TableState& state) const {
  BinaryWriter plain;
  state.stats.Serialize(plain);
  SDBENC_ASSIGN_OR_RETURN(
      std::unique_ptr<Aead> aead,
      MakeAead(AeadAlgorithm::kEax, DeriveKey("stats/" + state.name)));
  AeadCellCodec codec(*aead, *rng_);
  return codec.Encode(ToView(plain.data()),
                      StatsAddress(state.encrypted_table->table().id()));
}

Status SecureDatabase::VerifyKeycheck(BytesView token) const {
  SDBENC_ASSIGN_OR_RETURN(
      std::unique_ptr<Aead> aead,
      MakeAead(AeadAlgorithm::kEax, DeriveKey("keycheck")));
  AeadCellCodec codec(*aead, *rng_);
  const StatusOr<Bytes> plain = codec.Decode(token, kKeycheckAddress);
  if (!plain.ok() || *plain != BytesFromString(kKeycheckPlaintext)) {
    return AuthenticationFailedError(
        "master key rejected: keycheck token failed to authenticate");
  }
  return OkStatus();
}

Status SecureDatabase::BuildTableState(
    const std::string& name, AeadAlgorithm alg, size_t index_order,
    const std::vector<std::string>& indexed_columns, bool populate_indexes,
    const std::vector<uint64_t>* index_table_ids, const Parallelism& par) {
  SDBENC_ASSIGN_OR_RETURN(Table * table, storage_holder_->GetTable(name));
  if (index_table_ids != nullptr &&
      index_table_ids->size() != indexed_columns.size()) {
    return InternalError("index id count does not match indexed columns");
  }

  auto state = std::make_unique<TableState>();
  state->name = name;
  state->aead_alg = alg;
  state->index_order = index_order;
  // One independently keyed AEAD per encrypted column.
  std::vector<CellCodec*> codecs(table->schema().num_columns(), nullptr);
  for (uint32_t c = 0; c < table->schema().num_columns(); ++c) {
    if (!table->schema().column(c).encrypted) {
      state->column_aeads.push_back(nullptr);
      state->column_codecs.push_back(nullptr);
      continue;
    }
    SDBENC_ASSIGN_OR_RETURN(
        std::unique_ptr<Aead> aead,
        MakeAead(alg, DeriveKey("cell/" + name + "/" +
                                table->schema().column(c).name)));
    state->column_aeads.push_back(std::move(aead));
    state->column_codecs.push_back(std::make_unique<AeadCellCodec>(
        *state->column_aeads.back(), *rng_));
    codecs[c] = state->column_codecs.back().get();
  }
  state->encrypted_table =
      std::make_unique<EncryptedTable>(table, std::move(codecs));
  state->encrypted_table->AttachBlockCache(dcache_.get(),
                                           static_cast<uint8_t>(alg));
  // Fresh states start with the row count only (LoadCatalog overwrites
  // this with unsealed persisted stats; rotation carries the live ones
  // over); the planner falls back to syntactic defaults until then.
  state->stats = TableStatistics(table->schema().num_columns());
  uint64_t live_rows = 0;
  for (uint64_t row = 0; row < table->num_rows(); ++row) {
    if (!table->IsDeleted(row)) ++live_rows;
  }
  state->stats.SeedRowCountOnly(live_rows);

  for (size_t i = 0; i < indexed_columns.size(); ++i) {
    const std::string& column_name = indexed_columns[i];
    SDBENC_ASSIGN_OR_RETURN(size_t column,
                            table->schema().FindColumn(column_name));
    TableState::IndexState index_state;
    index_state.column = static_cast<uint32_t>(column);
    index_state.column_name = column_name;
    // A reopened index must keep its persisted table id: every stored
    // entry authenticates a context containing it.
    index_state.index_table_id = index_table_ids != nullptr
                                     ? (*index_table_ids)[i]
                                     : next_index_table_id_++;
    SDBENC_ASSIGN_OR_RETURN(
        index_state.aead,
        MakeAead(alg, DeriveKey("index/" + name + "/" + column_name)));
    index_state.codec =
        std::make_unique<AeadIndexCodec>(*index_state.aead, *rng_);
    index_state.index = std::make_unique<EncryptedIndex>(
        index_state.codec.get(), index_state.index_table_id, table->id(),
        static_cast<uint32_t>(column), index_order);
    index_state.index->AttachResultCache(dcache_.get(),
                                         static_cast<uint8_t>(alg));
    if (populate_indexes) {
      // Decode the indexed column row-parallel (const reads), then build
      // the tree bottom-up in one pass — each entry encrypted exactly once
      // instead of the split-heavy incremental Add loop.
      const uint64_t num_rows = table->num_rows();
      std::vector<Value> values(num_rows);
      std::vector<uint8_t> live(num_rows, 0);
      const EncryptedTable* encrypted = state->encrypted_table.get();
      SDBENC_RETURN_IF_ERROR(ParallelFor(
          num_rows, /*grain=*/16, par,
          [&](size_t begin, size_t end) -> Status {
            for (uint64_t row = begin; row < end; ++row) {
              if (table->IsDeleted(row)) continue;
              SDBENC_ASSIGN_OR_RETURN(
                  values[row], encrypted->GetCell(
                                   row, static_cast<uint32_t>(column)));
              live[row] = 1;
            }
            return OkStatus();
          }));
      std::vector<std::pair<Value, uint64_t>> pairs;
      pairs.reserve(num_rows);
      for (uint64_t row = 0; row < num_rows; ++row) {
        if (live[row]) pairs.emplace_back(std::move(values[row]), row);
      }
      SDBENC_RETURN_IF_ERROR(index_state.index->BulkLoad(pairs, par));
    }
    state->indexes.push_back(std::move(index_state));
  }

  tables_.push_back(std::move(state));
  return OkStatus();
}

Status SecureDatabase::CreateTable(const std::string& name, Schema schema,
                                   SecureTableOptions options) {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  // Validate the indexed columns against the schema before any state lands.
  for (const std::string& column_name : options.indexed_columns) {
    SDBENC_ASSIGN_OR_RETURN(size_t column, schema.FindColumn(column_name));
    (void)column;
  }
  SDBENC_ASSIGN_OR_RETURN(Table * table,
                          storage_holder_->CreateTable(name,
                                                       std::move(schema)));
  (void)table;
  return BuildTableState(name, options.aead, options.index_order,
                         options.indexed_columns,
                         /*populate_indexes=*/false);
}

StatusOr<SecureDatabase::TableState*> SecureDatabase::FindState(
    const std::string& table) {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  for (auto& state : tables_) {
    if (state->name == table) return state.get();
  }
  return NotFoundError("no table named '" + table + "'");
}

StatusOr<const SecureDatabase::TableState*> SecureDatabase::FindState(
    const std::string& table) const {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  for (const auto& state : tables_) {
    if (state->name == table) return state.get();
  }
  return NotFoundError("no table named '" + table + "'");
}

StatusOr<const SecureDatabase::TableState*> SecureDatabase::GetTableState(
    const std::string& table) const {
  return FindState(table);
}

StatusOr<uint64_t> SecureDatabase::Insert(const std::string& table,
                                          const std::vector<Value>& values) {
  SDBENC_ASSIGN_OR_RETURN(TableState * state, FindState(table));
  SDBENC_ASSIGN_OR_RETURN(uint64_t row,
                          state->encrypted_table->InsertRow(values));
  for (auto& index_state : state->indexes) {
    SDBENC_RETURN_IF_ERROR(
        index_state.index->Add(values[index_state.column], row));
  }
  state->stats.ObserveInsert(values);
  return row;
}

Status SecureDatabase::BulkInsert(
    const std::string& table, const std::vector<std::vector<Value>>& rows,
    const Parallelism& par) {
  SDBENC_ASSIGN_OR_RETURN(TableState * state, FindState(table));
  if (state->encrypted_table->table().num_rows() != 0) {
    return FailedPreconditionError("BulkInsert requires an empty table");
  }
  SDBENC_ASSIGN_OR_RETURN(std::vector<uint64_t> row_ids,
                          state->encrypted_table->InsertRows(rows, par));
  (void)row_ids;
  // Indexes build one after another — their codecs draw nonces from the
  // shared rng in a fixed order — while each build encodes node-parallel.
  for (auto& index_state : state->indexes) {
    std::vector<std::pair<Value, uint64_t>> pairs;
    pairs.reserve(rows.size());
    for (uint64_t row = 0; row < rows.size(); ++row) {
      pairs.emplace_back(rows[row][index_state.column], row);
    }
    SDBENC_RETURN_IF_ERROR(index_state.index->BulkLoad(pairs, par));
  }
  for (const std::vector<Value>& row : rows) {
    state->stats.ObserveInsert(row);
  }
  return OkStatus();
}

namespace {

/// Core read-path stage instrumentation (DESIGN §8): index-backed row
/// collection, unindexed decrypt-scans, and whole SelectRange calls.
struct CoreQueryMetrics {
  obs::Counter* selects_total;
  obs::Histogram* collect_rows_ns;
  obs::Histogram* scan_ns;
  obs::Histogram* select_range_ns;
};

const CoreQueryMetrics& CoreMetrics() {
  static const CoreQueryMetrics m = {
      obs::Registry().GetCounter("sdbenc_core_selects_total"),
      obs::Registry().GetHistogram("sdbenc_core_collect_rows_ns"),
      obs::Registry().GetHistogram("sdbenc_core_scan_ns"),
      obs::Registry().GetHistogram("sdbenc_core_select_range_ns"),
  };
  return m;
}

}  // namespace

StatusOr<std::vector<std::vector<Value>>> SecureDatabase::CollectRows(
    const TableState& state, const std::vector<uint64_t>& rows) const {
  const obs::StageTimer timer(CoreMetrics().collect_rows_ns,
                              "core.collect_rows");
  std::vector<uint64_t> live;
  live.reserve(rows.size());
  for (const uint64_t row : rows) {
    if (!state.encrypted_table->table().IsDeleted(row)) live.push_back(row);
  }
  return state.encrypted_table->GetRowsCached(live, default_parallelism_);
}

StatusOr<std::vector<std::vector<Value>>> SecureDatabase::ScanWhere(
    const TableState& state, uint32_t column, const Value& lo,
    const Value& hi) const {
  const obs::StageTimer timer(CoreMetrics().scan_ns, "core.scan");
  // Full decrypt-scan of the predicate column, row-parallel over read-only
  // state; the matching rows are then fetched in row order, so results
  // match the serial scan.
  const Table& table = state.encrypted_table->table();
  const uint64_t num_rows = table.num_rows();
  std::vector<uint8_t> keep(num_rows, 0);
  SDBENC_RETURN_IF_ERROR(ParallelFor(
      num_rows, /*grain=*/16, default_parallelism_,
      [&](size_t begin, size_t end) -> Status {
        for (uint64_t row = begin; row < end; ++row) {
          if (table.IsDeleted(row)) continue;
          SDBENC_ASSIGN_OR_RETURN(
              Value v, state.encrypted_table->GetCell(row, column));
          keep[row] = Value::Compare(v, lo) >= 0 && Value::Compare(v, hi) <= 0;
        }
        return OkStatus();
      }));
  std::vector<uint64_t> matches;
  for (uint64_t row = 0; row < num_rows; ++row) {
    if (keep[row]) matches.push_back(row);
  }
  return state.encrypted_table->GetRowsCached(matches, default_parallelism_);
}

StatusOr<std::vector<std::vector<Value>>> SecureDatabase::SelectEquals(
    const std::string& table, const std::string& column,
    const Value& value) const {
  return SelectRange(table, column, value, value);
}

StatusOr<std::vector<std::vector<Value>>> SecureDatabase::SelectRange(
    const std::string& table, const std::string& column, const Value& lo,
    const Value& hi) const {
  CoreMetrics().selects_total->Increment();
  const obs::StageTimer timer(CoreMetrics().select_range_ns,
                              "core.select_range");
  SDBENC_ASSIGN_OR_RETURN(const TableState* state, FindState(table));
  SDBENC_ASSIGN_OR_RETURN(
      size_t col,
      state->encrypted_table->table().schema().FindColumn(column));
  for (const auto& index_state : state->indexes) {
    if (index_state.column == col) {
      SDBENC_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                              index_state.index->Range(lo, hi));
      return CollectRows(*state, rows);
    }
  }
  return ScanWhere(*state, static_cast<uint32_t>(col), lo, hi);
}

StatusOr<std::vector<Value>> SecureDatabase::GetRow(const std::string& table,
                                                    uint64_t row) const {
  SDBENC_ASSIGN_OR_RETURN(const TableState* state, FindState(table));
  if (state->encrypted_table->table().IsDeleted(row)) {
    return NotFoundError("row is deleted");
  }
  return state->encrypted_table->GetRow(row);
}

Status SecureDatabase::Update(const std::string& table, uint64_t row,
                              const std::string& column, const Value& value) {
  SDBENC_ASSIGN_OR_RETURN(TableState * state, FindState(table));
  SDBENC_ASSIGN_OR_RETURN(
      size_t col,
      state->encrypted_table->table().schema().FindColumn(column));
  // Maintain the index: the old entry must leave before the new one lands.
  for (auto& index_state : state->indexes) {
    if (index_state.column != col) continue;
    SDBENC_ASSIGN_OR_RETURN(
        Value old_value,
        state->encrypted_table->GetCell(row, static_cast<uint32_t>(col)));
    SDBENC_RETURN_IF_ERROR(index_state.index->Remove(old_value, row));
    SDBENC_RETURN_IF_ERROR(state->encrypted_table->UpdateCell(
        row, static_cast<uint32_t>(col), value));
    SDBENC_RETURN_IF_ERROR(index_state.index->Add(value, row));
    state->stats.ObserveValue(col, value);
    return OkStatus();
  }
  SDBENC_RETURN_IF_ERROR(state->encrypted_table->UpdateCell(
      row, static_cast<uint32_t>(col), value));
  state->stats.ObserveValue(col, value);
  return OkStatus();
}

Status SecureDatabase::Delete(const std::string& table, uint64_t row) {
  SDBENC_ASSIGN_OR_RETURN(TableState * state, FindState(table));
  Table* raw = state->encrypted_table->mutable_table();
  if (row >= raw->num_rows()) return OutOfRangeError("row out of range");
  if (raw->IsDeleted(row)) return NotFoundError("row already deleted");
  for (auto& index_state : state->indexes) {
    SDBENC_ASSIGN_OR_RETURN(Value v, state->encrypted_table->GetCell(
                                         row, index_state.column));
    SDBENC_RETURN_IF_ERROR(index_state.index->Remove(v, row));
  }
  SDBENC_RETURN_IF_ERROR(raw->DeleteRow(row));
  state->encrypted_table->InvalidateCachedRow(row);
  state->stats.ObserveDelete();
  return OkStatus();
}

Status SecureDatabase::VerifyIntegrity(const Parallelism& par) const {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  const Status verdict = [&]() -> Status {
    for (const auto& state : tables_) {
      SDBENC_RETURN_IF_ERROR(state->encrypted_table->VerifyAll(par));
      // One task per index: a tree faults nodes through its own pager, so a
      // single tree is never shared between tasks, while distinct trees only
      // meet at the (thread-safe) storage engine. First-error-wins by task
      // index keeps the reported failure identical to the serial loop.
      std::vector<std::function<Status()>> tasks;
      tasks.reserve(state->indexes.size());
      for (const auto& index_state : state->indexes) {
        const BPlusTree* tree = &index_state.index->tree();
        tasks.push_back([tree] { return tree->CheckStructure(); });
      }
      SDBENC_RETURN_IF_ERROR(ParallelInvoke(tasks, par));
    }
    return OkStatus();
  }();
  if (verdict.code() == StatusCode::kAuthenticationFailed) {
    NoteSecurityEvent(AuditEventType::kTamperDetected,
                      "integrity verification failed: " +
                          std::string(verdict.message()));
  }
  return verdict;
}

bool SecureDatabase::HasIndex(const std::string& table,
                              const std::string& column) const {
  StatusOr<const TableState*> state = FindState(table);
  if (!state.ok()) return false;
  StatusOr<size_t> col =
      (*state)->encrypted_table->table().schema().FindColumn(column);
  if (!col.ok()) return false;
  for (const auto& index_state : (*state)->indexes) {
    if (index_state.column == *col) return true;
  }
  return false;
}

obs::MetricsSnapshot SecureDatabase::Stats() const {
  return obs::Registry().Snapshot();
}

std::string SecureDatabase::DumpMetrics(obs::ExportFormat format) const {
  return obs::Export(Stats(), format);
}

// ------------------------------------------------------------- persistence

Status SecureDatabase::WriteCatalog(BinaryWriter& w,
                                    RecordStore* dump_target) const {
  // Version 3 lists one record id per row group (db/row_codec.h) instead of
  // one per row; version 2 appended AEAD-sealed per-table statistics after
  // each table's index metadata. Versions 1 and 2 still load (v1 stats
  // reseed from the row count) and are repacked into groups on the next
  // flush.
  w.PutU32(3);  // catalog version
  w.PutBytes(keycheck_);
  w.PutU64(next_index_table_id_);
  w.PutU32(static_cast<uint32_t>(tables_.size()));
  for (const auto& state : tables_) {
    const Table& table = state->encrypted_table->table();
    w.PutU64(table.id());
    w.PutString(state->name);
    w.PutU32(static_cast<uint32_t>(table.schema().num_columns()));
    for (const ColumnDef& col : table.schema().columns()) {
      w.PutString(col.name);
      w.PutU8(static_cast<uint8_t>(col.type));
      w.PutU8(col.encrypted ? 1 : 0);
    }
    std::vector<RecordId> group_ids;
    if (dump_target != nullptr) {
      SDBENC_RETURN_IF_ERROR(table.DumpRowsTo(*dump_target, &group_ids));
    } else {
      SDBENC_ASSIGN_OR_RETURN(group_ids, table.GroupRecordIds());
    }
    w.PutU64(group_ids.size());
    for (const RecordId id : group_ids) w.PutU64(id);
    w.PutString(AeadAlgorithmName(state->aead_alg));
    w.PutU32(static_cast<uint32_t>(state->index_order));
    w.PutU32(static_cast<uint32_t>(state->indexes.size()));
    for (const auto& index_state : state->indexes) {
      w.PutString(index_state.column_name);
      w.PutU64(index_state.index_table_id);
      BinaryWriter meta;
      if (dump_target != nullptr) {
        SDBENC_RETURN_IF_ERROR(
            index_state.index->tree().DumpTo(*dump_target, &meta));
      } else {
        SDBENC_RETURN_IF_ERROR(index_state.index->tree().SaveMeta(meta));
      }
      w.PutBytes(meta.data());
    }
    SDBENC_ASSIGN_OR_RETURN(const Bytes sealed_stats, SealStats(*state));
    w.PutBytes(sealed_stats);
  }
  return OkStatus();
}

// Pushes everything changed since the last flush — dirty rows, dirty index
// nodes, the catalog — into the engine's pages (on a WAL-backed engine,
// writes to pages holding committed content also go into the log).
// Durability is the caller's next step: Flush() checkpoints,
// CommitDurable() group-commits.
Status SecureDatabase::FlushToEngine() {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  for (const auto& state : tables_) {
    SDBENC_RETURN_IF_ERROR(
        state->encrypted_table->mutable_table()->FlushRows(*records_));
    for (const auto& index_state : state->indexes) {
      SDBENC_RETURN_IF_ERROR(
          index_state.index->tree().FlushDirty(*records_));
    }
  }
  BinaryWriter catalog;
  SDBENC_RETURN_IF_ERROR(WriteCatalog(catalog, nullptr));
  if (catalog_record_ == kNoRecord) {
    SDBENC_ASSIGN_OR_RETURN(catalog_record_, records_->Put(catalog.data()));
  } else {
    SDBENC_RETURN_IF_ERROR(records_->Update(catalog_record_,
                                            catalog.data()));
  }
  engine_->set_root_record(catalog_record_);
  return OkStatus();
}

Status SecureDatabase::Flush() {
  SDBENC_RETURN_IF_ERROR(FlushToEngine());
  return engine_->Flush();
}

Status SecureDatabase::CommitDurable() {
  SDBENC_RETURN_IF_ERROR(FlushToEngine());
  return engine_->CommitBatch();
}

Status SecureDatabase::LoadCatalog() {
  const uint64_t root = engine_->root_record();
  if (root == kNoRecord) {
    return ParseError("page file has no catalog record");
  }
  SDBENC_ASSIGN_OR_RETURN(const Bytes image, records_->Get(root));
  BinaryReader r(image);
  SDBENC_ASSIGN_OR_RETURN(const uint32_t version, r.GetU32());
  if (version < 1 || version > 3) {
    return ParseError("unsupported catalog version " +
                      std::to_string(version));
  }
  SDBENC_ASSIGN_OR_RETURN(Bytes keycheck, r.GetBytes());
  // A wrong master key dies right here, before any cell or index page is
  // touched.
  SDBENC_RETURN_IF_ERROR(VerifyKeycheck(keycheck));
  keycheck_ = std::move(keycheck);
  SDBENC_ASSIGN_OR_RETURN(const uint64_t next_index_id, r.GetU64());
  SDBENC_ASSIGN_OR_RETURN(const uint32_t n_tables, r.GetU32());
  for (uint32_t t = 0; t < n_tables; ++t) {
    SDBENC_ASSIGN_OR_RETURN(const uint64_t table_id, r.GetU64());
    SDBENC_ASSIGN_OR_RETURN(const std::string name, r.GetString());
    SDBENC_ASSIGN_OR_RETURN(const uint32_t ncols, r.GetU32());
    std::vector<ColumnDef> cols;
    cols.reserve(ncols);
    for (uint32_t c = 0; c < ncols; ++c) {
      ColumnDef col;
      SDBENC_ASSIGN_OR_RETURN(col.name, r.GetString());
      SDBENC_ASSIGN_OR_RETURN(const uint8_t type, r.GetU8());
      if (type > static_cast<uint8_t>(ValueType::kFloat64)) {
        return ParseError("unknown column type in catalog");
      }
      col.type = static_cast<ValueType>(type);
      SDBENC_ASSIGN_OR_RETURN(const uint8_t encrypted, r.GetU8());
      col.encrypted = encrypted != 0;
      cols.push_back(std::move(col));
    }
    SDBENC_ASSIGN_OR_RETURN(
        Table * table,
        storage_holder_->RestoreTable(table_id, name,
                                      Schema(std::move(cols))));
    // v3: one id per row group; v1/v2: one id per row.
    SDBENC_ASSIGN_OR_RETURN(const uint64_t n_records, r.GetU64());
    if (n_records > r.Remaining() / 8) {
      return ParseError("catalog record count exceeds catalog size");
    }
    std::vector<RecordId> record_ids(n_records);
    for (RecordId& id : record_ids) {
      SDBENC_ASSIGN_OR_RETURN(id, r.GetU64());
      if (id == kNoRecord) return ParseError("catalog lists no record");
    }
    // Rows load eagerly — their pages' checksums are verified as a side
    // effect — but nothing is decrypted: the cells stay ciphertext.
    SDBENC_RETURN_IF_ERROR(table->LoadRows(
        *records_, record_ids,
        version >= 3 ? Table::RowDirectory::kRowGroups
                     : Table::RowDirectory::kPerRow));
    SDBENC_ASSIGN_OR_RETURN(const std::string alg_name, r.GetString());
    SDBENC_ASSIGN_OR_RETURN(const AeadAlgorithm alg,
                            ParseAeadAlgorithm(alg_name));
    SDBENC_ASSIGN_OR_RETURN(const uint32_t order, r.GetU32());
    SDBENC_ASSIGN_OR_RETURN(const uint32_t n_indexes, r.GetU32());
    std::vector<std::string> indexed;
    std::vector<uint64_t> index_ids;
    std::vector<Bytes> metas;
    for (uint32_t i = 0; i < n_indexes; ++i) {
      SDBENC_ASSIGN_OR_RETURN(std::string column, r.GetString());
      SDBENC_ASSIGN_OR_RETURN(const uint64_t index_id, r.GetU64());
      SDBENC_ASSIGN_OR_RETURN(Bytes meta, r.GetBytes());
      indexed.push_back(std::move(column));
      index_ids.push_back(index_id);
      metas.push_back(std::move(meta));
    }
    Bytes sealed_stats;
    if (version >= 2) {
      SDBENC_ASSIGN_OR_RETURN(sealed_stats, r.GetBytes());
    }
    // populate_indexes=false: the trees attach to their persisted nodes
    // below and fault them in lazily — no decrypt-everything rebuild.
    SDBENC_RETURN_IF_ERROR(BuildTableState(name, alg, order, indexed,
                                           /*populate_indexes=*/false,
                                           &index_ids));
    TableState* state = tables_.back().get();
    for (uint32_t i = 0; i < n_indexes; ++i) {
      BinaryReader meta_reader(metas[i]);
      SDBENC_RETURN_IF_ERROR(state->indexes[i].index->tree().LoadFrom(
          records_.get(), meta_reader));
    }
    if (version >= 2) {
      // Unseal the statistics; a forged or replayed blob fails AEAD
      // authentication and aborts the open. Version-1 files keep the
      // row-count-only seed from BuildTableState.
      SDBENC_ASSIGN_OR_RETURN(
          std::unique_ptr<Aead> aead,
          MakeAead(AeadAlgorithm::kEax, DeriveKey("stats/" + name)));
      AeadCellCodec codec(*aead, *rng_);
      SDBENC_ASSIGN_OR_RETURN(const Bytes plain,
                              codec.Decode(ToView(sealed_stats),
                                           StatsAddress(table_id)));
      BinaryReader stats_reader(plain);
      SDBENC_ASSIGN_OR_RETURN(state->stats,
                              TableStatistics::Deserialize(stats_reader));
      // The sealed live-row count bounds the row total from below, so rows
      // or groups dropped from the (unauthenticated) directory show here.
      if (state->stats.row_count() > table->num_rows()) {
        return ParseError("catalog directory holds fewer rows than the "
                          "sealed statistics count");
      }
    }
  }
  if (!r.AtEnd()) {
    return ParseError("trailing garbage in catalog record");
  }
  next_index_table_id_ = next_index_id;
  catalog_record_ = root;
  return OkStatus();
}

Status SecureDatabase::SaveToFile(const std::string& path) const {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  // Build the complete image next to the target, then rename into place so
  // a crash mid-save never clobbers an existing good file.
  const std::string tmp = path + ".tmp";
  SDBENC_ASSIGN_OR_RETURN(
      std::unique_ptr<FileStorageEngine> engine,
      FileStorageEngine::Create(tmp, engine_->page_size()));
  RecordStore records(engine.get());
  BinaryWriter catalog;
  SDBENC_RETURN_IF_ERROR(WriteCatalog(catalog, &records));
  SDBENC_ASSIGN_OR_RETURN(const uint64_t root, records.Put(catalog.data()));
  engine->set_root_record(root);
  SDBENC_RETURN_IF_ERROR(engine->Flush());
  engine.reset();  // close the file before renaming
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return InternalError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return OkStatus();
}

StatusOr<std::unique_ptr<SecureDatabase>> SecureDatabase::OpenFromFile(
    BytesView master_key, const std::string& path,
    std::optional<uint64_t> rng_seed) {
  // Reopen only — unlike Open(File(...)), a missing file is an error.
  return OpenImpl(master_key, StorageOptions::File(path), rng_seed,
                  /*create_if_missing=*/false);
}

Status SecureDatabase::RotateMasterKey(BytesView new_master_key,
                                       const Parallelism& par) {
  SDBENC_RETURN_IF_ERROR(CheckOpen());
  if (new_master_key.size() < 16) {
    return InvalidArgumentError("master key must be >= 16 octets");
  }
  // Snapshot the table configurations, then decrypt every live cell under
  // the old keys and re-encrypt under the new ones.
  struct Config {
    std::string name;
    AeadAlgorithm alg;
    size_t order;
    std::vector<std::string> indexed;
  };
  std::vector<Config> configs;
  for (const auto& state : tables_) {
    Config config{state->name, state->aead_alg, state->index_order, {}};
    for (const auto& index_state : state->indexes) {
      config.indexed.push_back(index_state.column_name);
    }
    configs.push_back(std::move(config));
  }

  const Bytes old_key = master_key_;
  for (const Config& config : configs) {
    SDBENC_ASSIGN_OR_RETURN(TableState * old_state, FindState(config.name));
    Table* raw = old_state->encrypted_table->mutable_table();
    for (uint32_t col = 0; col < raw->num_columns(); ++col) {
      if (!raw->schema().column(col).encrypted) continue;
      // Build the new codec for this column under the new master key.
      master_key_.assign(new_master_key.begin(), new_master_key.end());
      SDBENC_ASSIGN_OR_RETURN(
          std::unique_ptr<Aead> new_aead,
          MakeAead(config.alg, DeriveKey("cell/" + config.name + "/" +
                                         raw->schema().column(col).name)));
      AeadCellCodec new_codec(*new_aead, *rng_);
      master_key_ = old_key;

      AeadCellCodec* old_codec = old_state->column_codecs[col].get();
      // Serial nonce pre-pass (same rng order as the serial loop), then
      // decode + re-encode row-parallel into per-row slots; the column's
      // cells are only swapped in once every row succeeded.
      const uint64_t num_rows = raw->num_rows();
      std::vector<Bytes> nonces(num_rows);
      for (uint64_t row = 0; row < num_rows; ++row) {
        if (raw->IsDeleted(row)) continue;
        nonces[row] = new_codec.DrawEncodeNonce();
      }
      std::vector<Bytes> reencrypted(num_rows);
      const AeadCellCodec& encode_codec = new_codec;
      SDBENC_RETURN_IF_ERROR(ParallelFor(
          num_rows, /*grain=*/16, par,
          [&](size_t begin, size_t end) -> Status {
            for (uint64_t row = begin; row < end; ++row) {
              if (raw->IsDeleted(row)) continue;
              SDBENC_ASSIGN_OR_RETURN(BytesView stored, raw->cell(row, col));
              const CellAddress addr = raw->AddressOf(row, col);
              SDBENC_ASSIGN_OR_RETURN(Bytes plaintext,
                                      old_codec->Decode(stored, addr));
              SDBENC_ASSIGN_OR_RETURN(
                  reencrypted[row],
                  encode_codec.EncodeWithNonce(ToView(plaintext), addr,
                                               ToView(nonces[row])));
              SecureWipe(plaintext);
            }
            return OkStatus();
          }));
      for (uint64_t row = 0; row < num_rows; ++row) {
        if (raw->IsDeleted(row)) continue;
        SDBENC_ASSIGN_OR_RETURN(Bytes * cell, raw->mutable_cell(row, col));
        *cell = std::move(reencrypted[row]);
      }
    }
  }

  // Release the old indexes' node records: the rebuilt trees encrypt every
  // entry afresh under the new keys and get fresh records on next Flush.
  for (auto& state : tables_) {
    for (auto& index_state : state->indexes) {
      SDBENC_RETURN_IF_ERROR(
          index_state.index->tree().FreeStorage(*records_));
    }
  }

  // Swap in the new key, drop every old state and rebuild (indexes are
  // repopulated by decrypting the freshly rotated cells). The keycheck
  // token must follow the key, or the next open would reject it.
  master_key_.assign(new_master_key.begin(), new_master_key.end());
  SDBENC_ASSIGN_OR_RETURN(keycheck_, MakeKeycheckToken());
  // The audit chain must follow the key hierarchy: reseal every existing
  // record under the new "audit" subkey (same sequence numbers, fresh
  // salt), then record the rotation itself as the first event of the new
  // key's reign.
  if (audit_ != nullptr) {
    AuditLogOptions audit_options;
    audit_options.key = DeriveKey("audit");
    SDBENC_RETURN_IF_ERROR(audit_->Reseal(audit_options));
    NoteSecurityEvent(AuditEventType::kKeyRotation,
                      "master key rotated; every cell and index entry "
                      "re-encrypted, audit chain resealed");
  }
  // Every cached plaintext belongs to the old key epoch: bump (making all
  // of it unreachable at once) and wipe the frames.
  dcache_->BumpEpoch();
  NoteSecurityEvent(AuditEventType::kCacheEpochBump,
                    "decrypted-block cache epoch bumped by key rotation; "
                    "all resident plaintext wiped");
  // Statistics describe plaintext, which rotation does not change — carry
  // them across the state rebuild.
  std::vector<TableStatistics> carried;
  carried.reserve(tables_.size());
  for (const auto& state : tables_) carried.push_back(state->stats);
  tables_.clear();
  for (size_t i = 0; i < configs.size(); ++i) {
    const Config& config = configs[i];
    SDBENC_RETURN_IF_ERROR(BuildTableState(config.name, config.alg,
                                           config.order, config.indexed,
                                           /*populate_indexes=*/true,
                                           /*index_table_ids=*/nullptr, par));
    tables_.back()->stats = std::move(carried[i]);
  }
  return OkStatus();
}

StatusOr<KeyGrant> SecureDatabase::GrantRead(
    const std::string& table, const std::vector<std::string>& columns) const {
  SDBENC_ASSIGN_OR_RETURN(const TableState* state, FindState(table));
  const Table& raw = state->encrypted_table->table();
  KeyGrant grant;
  for (const std::string& column_name : columns) {
    SDBENC_ASSIGN_OR_RETURN(size_t col, raw.schema().FindColumn(column_name));
    if (!raw.schema().column(col).encrypted) {
      return InvalidArgumentError("column '" + column_name +
                                  "' is stored in clear; no key to grant");
    }
    KeyGrant::Entry entry;
    entry.table = table;
    entry.table_id = raw.id();
    entry.column = static_cast<uint32_t>(col);
    entry.column_name = column_name;
    entry.aead = state->aead_alg;
    entry.key = DeriveKey("cell/" + table + "/" + column_name);
    grant.entries.push_back(std::move(entry));
  }
  return grant;
}

StatusOr<KeyGrant> SecureDatabase::GrantIndex(const std::string& table,
                                              const std::string& column) const {
  SDBENC_ASSIGN_OR_RETURN(const TableState* state, FindState(table));
  const Table& raw = state->encrypted_table->table();
  SDBENC_ASSIGN_OR_RETURN(size_t col, raw.schema().FindColumn(column));
  for (const auto& index_state : state->indexes) {
    if (index_state.column != col) continue;
    KeyGrant grant;
    KeyGrant::Entry entry;
    entry.table = table;
    entry.table_id = raw.id();
    entry.column = static_cast<uint32_t>(col);
    entry.column_name = column;
    entry.aead = state->aead_alg;
    entry.is_index_key = true;
    entry.key = DeriveKey("index/" + table + "/" + column);
    grant.entries.push_back(std::move(entry));
    return grant;
  }
  return NotFoundError("no index on column '" + column + "'");
}

void SecureDatabase::CloseSession() {
  // The close event goes in first — the audit log's own subkey is one of
  // the derived keys this wipe removes.
  NoteSecurityEvent(AuditEventType::kSessionClose,
                    "session closed; master key and derived keys wiped");
  audit_.reset();
  SecureWipe(master_key_);
  dcache_->WipeAll();  // no decrypted plaintext survives the session
  tables_.clear();     // drops every derived-key object
  closed_ = true;
}

}  // namespace sdbenc
