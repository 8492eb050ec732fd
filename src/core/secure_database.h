#ifndef SDBENC_CORE_SECURE_DATABASE_H_
#define SDBENC_CORE_SECURE_DATABASE_H_

#include <memory>
#include <string>
#include <vector>

#include "aead/factory.h"
#include "core/encrypted_index.h"
#include "core/restricted_reader.h"
#include "core/encrypted_table.h"
#include "db/column_stats.h"
#include "db/database.h"
#include "obs/export.h"
#include "schemes/aead_cell.h"
#include "schemes/aead_index.h"
#include "storage/audit/audit_log.h"
#include "storage/record_store.h"
#include "util/rng.h"
#include "util/statusor.h"
#include "util/thread_pool.h"

namespace sdbenc {

class BinaryWriter;

/// Per-table configuration of the fixed scheme.
struct SecureTableOptions {
  /// AEAD instantiation for both cell and index encryption.
  AeadAlgorithm aead = AeadAlgorithm::kEax;
  /// Columns to build encrypted B+-tree indexes over.
  std::vector<std::string> indexed_columns;
  /// B+-tree fan-out (max entries per node).
  size_t index_order = 8;
};

/// The complete fixed system of the paper's §4 as one engine: per-cell AEAD
/// encryption with authenticated (t, r, c) addresses, plus encrypted
/// B+-tree indexes whose entries authenticate (Ref_S, Ref_I) and carry
/// (V, Ref_T) inside the ciphertext. This is what a partially-trusted DBMS
/// server runs during a session (paper §2.1): it holds the session keys,
/// executes point and range queries through the encrypted indexes, and
/// returns only rows that belong to the answer; the storage below it sees
/// ciphertext only, and any storage-level tampering surfaces as
/// kAuthenticationFailed on the next touch (or in VerifyIntegrity).
class SecureDatabase {
 public:
  /// Creates an engine with session key material derived from `master_key`
  /// (>= 16 octets). `rng_seed` seeds the nonce generator: pass a fixed seed
  /// for reproducible tests/benches, or std::nullopt for OS entropy.
  static StatusOr<std::unique_ptr<SecureDatabase>> Open(
      BytesView master_key, std::optional<uint64_t> rng_seed = std::nullopt);

  /// Opens a session on an explicit storage substrate. With a memory
  /// backend this is a fresh session (the seed behaviour). With a file
  /// backend, an existing page file is reopened *incrementally*: the
  /// catalog and rows are read (their page checksums verified as a side
  /// effect), a keycheck token authenticates the master key, and index
  /// nodes stay on their pages until a query faults them in — nothing is
  /// decrypted up front. A missing file starts a fresh session that
  /// Flush() will persist to `storage.path`.
  static StatusOr<std::unique_ptr<SecureDatabase>> Open(
      BytesView master_key, const StorageOptions& storage,
      std::optional<uint64_t> rng_seed = std::nullopt);

  /// Creates a table plus its encrypted indexes.
  Status CreateTable(const std::string& name, Schema schema,
                     SecureTableOptions options);

  /// Inserts a row, maintaining every index of the table.
  StatusOr<uint64_t> Insert(const std::string& table,
                            const std::vector<Value>& values);

  /// Initial load fast path: appends all rows, then builds each index
  /// bottom-up with exactly one encryption per entry (no split-triggered
  /// re-encryptions). Only valid while the table is empty.
  ///
  /// Cell encryption runs row-parallel and each index build node-parallel
  /// at `par` (default: one thread per hardware thread). Nonces are drawn
  /// serially before the parallel passes, so the stored bytes are
  /// byte-identical at every thread count.
  Status BulkInsert(const std::string& table,
                    const std::vector<std::vector<Value>>& rows,
                    const Parallelism& par = Parallelism());

  /// Point query; uses the column's encrypted index when one exists,
  /// otherwise falls back to a full decrypting scan.
  StatusOr<std::vector<std::vector<Value>>> SelectEquals(
      const std::string& table, const std::string& column,
      const Value& value) const;

  /// Inclusive range query, index-backed where possible.
  StatusOr<std::vector<std::vector<Value>>> SelectRange(
      const std::string& table, const std::string& column, const Value& lo,
      const Value& hi) const;

  /// Reads one full row.
  StatusOr<std::vector<Value>> GetRow(const std::string& table,
                                      uint64_t row) const;

  /// Updates one cell, maintaining the column's index if present.
  Status Update(const std::string& table, uint64_t row,
                const std::string& column, const Value& value);

  /// Tombstones a row and removes its index entries.
  Status Delete(const std::string& table, uint64_t row);

  /// Decrypt-verifies every live cell of every table and the structure of
  /// every index. Any storage tampering fails here.
  ///
  /// Tables are checked in order; within a table, cell verification runs
  /// row-parallel and the indexes' structure checks run concurrently (one
  /// task per index) at `par`. The verdict — including which failure is
  /// reported — is identical at every thread count.
  Status VerifyIntegrity(const Parallelism& par = Parallelism()) const;

  /// Incrementally persists everything changed since the last flush —
  /// dirty rows, dirty index nodes, the catalog — into the session's
  /// storage engine and makes it durable. Cheap when little changed; a
  /// no-op workload flushes no pages at all.
  Status Flush();

  /// Group-commit variant of Flush(): pushes the same dirty state into the
  /// engine's pages but makes it durable through the engine's write-ahead
  /// log (one fsync shared by every thread committing in the same window)
  /// instead of a full checkpoint. On engines without a WAL this degrades
  /// to Flush(). The cheap way to make each batch of a long load
  /// crash-safe; call Flush() once at the end to checkpoint.
  Status CommitDurable();

  /// Writes a complete page-file image of the session to `path` (built
  /// next to it, then atomically renamed). Only ciphertext and public
  /// structure touch the disk; the master key is never written. For a
  /// session already opened on a file backend, prefer Flush().
  Status SaveToFile(const std::string& path) const;

  /// Reopens a saved page file: equivalent to Open(master_key,
  /// StorageOptions::File(path), rng_seed). A wrong master key fails with
  /// kAuthenticationFailed via the keycheck token *without* decrypting any
  /// cell, and index pages are not even read until a query needs them — so
  /// opening no longer implies full re-verification. Run VerifyIntegrity()
  /// for the old every-cell guarantee; page-level tampering additionally
  /// surfaces as kAuthenticationFailed on the next touch of the page.
  static StatusOr<std::unique_ptr<SecureDatabase>> OpenFromFile(
      BytesView master_key, const std::string& path,
      std::optional<uint64_t> rng_seed = std::nullopt);

  /// Key rotation: decrypts and re-encrypts every cell and index entry
  /// under subkeys derived from `new_master_key`, in place. On success the
  /// old key no longer opens anything. Cell re-encryption runs row-parallel
  /// and the index rebuilds node-parallel at `par`.
  Status RotateMasterKey(BytesView new_master_key,
                         const Parallelism& par = Parallelism());

  /// Ends the session (paper §2.1: keys are "securely removed at the end"):
  /// wipes the master key and drops every derived key. All subsequent
  /// operations fail with FAILED_PRECONDITION.
  void CloseSession();

  /// Exports the column subkeys for (table, columns) as a grant bundle —
  /// cryptographic discretionary access control: a RestrictedReader opened
  /// with the bundle can decrypt exactly these columns of the raw storage
  /// and nothing else. Revoke by rotating the master key.
  StatusOr<KeyGrant> GrantRead(
      const std::string& table,
      const std::vector<std::string>& columns) const;

  /// Exports the *index* subkey of (table, column): the principal can then
  /// run the Remark-1 blind-navigation protocol over that encrypted index
  /// (GrantedIndexCodec + BlindIndexClient) without the engine decrypting
  /// anything on their behalf.
  StatusOr<KeyGrant> GrantIndex(const std::string& table,
                                const std::string& column) const;

  /// True if the column has an index (used by examples to explain plans).
  bool HasIndex(const std::string& table, const std::string& column) const;

  /// Point-in-time snapshot of the process-wide metrics registry (DESIGN
  /// §8): cipher and AEAD invocation counters, buffer-pool traffic, B+-tree
  /// maintenance, per-stage query latencies, thread-pool load. Safe to call
  /// while other threads run queries; with SDBENC_METRICS=0 every counter
  /// reads zero.
  obs::MetricsSnapshot Stats() const;

  /// Serialises Stats() for consumption outside the process — JSON lines by
  /// default, or Prometheus text exposition format.
  std::string DumpMetrics(
      obs::ExportFormat format = obs::ExportFormat::kJsonLines) const;

  /// Appends one event to the session's tamper-evident audit log
  /// (StorageOptions::audit_path). A no-op when no audit log is configured;
  /// best-effort otherwise — an append failure must not turn a read-only
  /// query into an error, so it is counted, not propagated.
  void NoteSecurityEvent(AuditEventType type, const std::string& detail) const;

  /// Strict end-to-end verification of the session's audit log: every
  /// record must parse, authenticate and chain. kFailedPrecondition when
  /// the session has no audit log.
  StatusOr<AuditChain> VerifyAuditChain() const;

  /// The session's audit log, or nullptr when none is configured.
  AuditLog* audit_log() const { return audit_.get(); }

  /// The subkey hierarchy, exposed for out-of-process auditors: an operator
  /// holding the master key can derive the "audit" subkey and run
  /// AuditLog::VerifyChain without opening a session (tools/sdbenc_stat).
  static Bytes DeriveSubkey(BytesView master_key, const std::string& label);

  /// Direct access to the storage substrate — what the adversary sees and
  /// may rewrite in tamper tests.
  Database& storage() { return *storage_holder_; }

  /// The page engine under this session (never null); exposes the
  /// buffer-pool hit/miss/eviction counters for benches and tests.
  StorageEngine* storage_engine() { return engine_.get(); }

  /// The per-table engine internals, exposed for benches.
  struct TableState {
    std::string name;
    AeadAlgorithm aead_alg = AeadAlgorithm::kEax;
    size_t index_order = 8;
    /// One AEAD + codec per column (nullptr for clear columns): per-column
    /// keys make column-granular key grants possible (restricted_reader.h).
    std::vector<std::unique_ptr<Aead>> column_aeads;
    std::vector<std::unique_ptr<AeadCellCodec>> column_codecs;
    std::unique_ptr<EncryptedTable> encrypted_table;
    /// Plaintext summaries (row count, per-column HLL distinct sketch,
    /// min/max) maintained on every write and fed to the cost-based
    /// planner. Persisted AEAD-sealed in the version-2 catalog.
    TableStatistics stats;
    struct IndexState {
      uint32_t column;
      std::string column_name;
      /// Persisted with the catalog: index entries authenticate contexts
      /// containing this id, so a reopened index must keep it.
      uint64_t index_table_id = 0;
      std::unique_ptr<Aead> aead;
      std::unique_ptr<AeadIndexCodec> codec;
      std::unique_ptr<EncryptedIndex> index;
    };
    std::vector<IndexState> indexes;
  };
  StatusOr<const TableState*> GetTableState(const std::string& table) const;

  /// The session's decrypted-block cache (never null while the session
  /// lives): row plaintexts and index point-lookup results, sharded-LRU,
  /// secure-wiped on eviction, epoch-invalidated by RotateMasterKey and
  /// emptied by CloseSession. Exposed for benches/tests (stats, WipeAll
  /// between cold/hot runs).
  DecryptedBlockCache* decrypted_cache() const { return dcache_.get(); }

  /// Degree of parallelism for the read-only query paths (index row
  /// collection and unindexed decrypt-scans), which take no per-call option.
  /// Defaults to one thread per hardware thread.
  void set_default_parallelism(const Parallelism& par) {
    default_parallelism_ = par;
  }
  const Parallelism& default_parallelism() const {
    return default_parallelism_;
  }

 private:
  explicit SecureDatabase(Bytes master_key, std::optional<uint64_t> rng_seed);

  static StatusOr<std::unique_ptr<SecureDatabase>> OpenImpl(
      BytesView master_key, const StorageOptions& storage,
      std::optional<uint64_t> rng_seed, bool create_if_missing);

  /// Independent subkey for (table, purpose) pairs via HMAC extraction.
  Bytes DeriveKey(const std::string& label) const;

  /// Opens the audit log named by `storage.audit_path` (if any) under the
  /// "audit" subkey and records the session-open event. Called at the end
  /// of OpenImpl, after the master key has been authenticated.
  Status InitAudit(const StorageOptions& storage);

  StatusOr<TableState*> FindState(const std::string& table);
  StatusOr<const TableState*> FindState(const std::string& table) const;

  /// Scan fallback for unindexed predicates.
  StatusOr<std::vector<std::vector<Value>>> ScanWhere(
      const TableState& state, uint32_t column, const Value& lo,
      const Value& hi) const;

  StatusOr<std::vector<std::vector<Value>>> CollectRows(
      const TableState& state, const std::vector<uint64_t>& rows) const;

  /// (Re)creates the crypto stack + index objects of one table and fills
  /// the indexes from the stored cells. Used by OpenFromFile and rotation.
  /// `index_table_ids`, when given, pins each index's persisted table id
  /// (same order as `indexed_columns`) instead of assigning fresh ones.
  Status BuildTableState(const std::string& name, AeadAlgorithm alg,
                         size_t index_order,
                         const std::vector<std::string>& indexed_columns,
                         bool populate_indexes,
                         const std::vector<uint64_t>* index_table_ids =
                             nullptr,
                         const Parallelism& par = Parallelism());

  Status CheckOpen() const;

  /// Shared body of Flush()/CommitDurable(): persists dirty rows, dirty
  /// index nodes and the catalog into the engine's pages, leaving the
  /// durability step (checkpoint vs. group commit) to the caller.
  Status FlushToEngine();

  /// Serialises a table's statistics and seals them under the dedicated
  /// "stats/<table>" subkey at a reserved address: the summaries describe
  /// plaintext (row count, value ranges, distinct counts) and must not
  /// reach untrusted storage in clear.
  StatusOr<Bytes> SealStats(const TableState& state) const;

  /// The keycheck token: a constant AEAD-encrypted under a dedicated
  /// subkey. Verifying it on open rejects a wrong master key with
  /// kAuthenticationFailed before any cell is touched.
  StatusOr<Bytes> MakeKeycheckToken() const;
  Status VerifyKeycheck(BytesView token) const;

  /// Serialises the catalog — keycheck, schemas, row/node record
  /// directories, index definitions. With `dump_target` set, rows and
  /// nodes are first copied into that store as fresh records (full-image
  /// saves); otherwise the catalog references this session's own records
  /// (incremental Flush, which must have persisted them already).
  Status WriteCatalog(BinaryWriter& w, RecordStore* dump_target) const;

  /// Reads the catalog from the engine's root record and rebuilds every
  /// table state: rows eagerly, index nodes lazily.
  Status LoadCatalog();

  Bytes master_key_;
  std::unique_ptr<Rng> rng_;
  std::unique_ptr<Database> storage_holder_;
  std::unique_ptr<StorageEngine> engine_;
  std::unique_ptr<RecordStore> records_;
  std::unique_ptr<DecryptedBlockCache> dcache_;
  std::vector<std::unique_ptr<TableState>> tables_;
  std::unique_ptr<AuditLog> audit_;
  Bytes keycheck_;
  uint64_t catalog_record_ = kNoRecord;
  uint64_t next_index_table_id_ = 1000000;  // disjoint from data table ids
  Parallelism default_parallelism_;
  bool closed_ = false;
};

}  // namespace sdbenc

#endif  // SDBENC_CORE_SECURE_DATABASE_H_
