#ifndef SDBENC_STORAGE_WAL_WAL_H_
#define SDBENC_STORAGE_WAL_WAL_H_

#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "aead/factory.h"
#include "storage/page.h"
#include "util/bytes.h"
#include "util/statusor.h"
#include "util/thread_annotations.h"

namespace sdbenc {

/// Configuration for a write-ahead log. The key sits under the session's
/// master-key hierarchy (SecureDatabase derives it as HKDF("wal")), so the
/// log leaks no more than the pages it shadows: an adversary reading the
/// log sees record boundaries, page ids in the clear framing is *not* —
/// everything including the page id is inside the AEAD envelope; only
/// record count, record sizes and commit cadence are visible.
struct WalOptions {
  /// AEAD key, >= 16 octets. Every record is sealed under it.
  Bytes key;
  /// Sealing algorithm. Must have a nonce of >= 8 octets (SIV's synthetic
  /// zero-length nonce is rejected: WAL nonces are derived from the LSN).
  AeadAlgorithm aead = AeadAlgorithm::kGcm;
  /// Extra time the committer lingers after picking up work so concurrent
  /// producers can join the same fsync. 0 = natural batching only (whatever
  /// accumulates while the previous fsync is in flight).
  uint32_t group_commit_window_us = 0;
};

/// Engine metadata snapshot carried by a commit record. Replay restores
/// these into the page-file header, so a batch commits atomically together
/// with the allocation state it produced.
struct WalCommitMeta {
  uint64_t num_pages = 0;
  PageId free_head = kInvalidPageId;
  uint64_t root_record = 0;
};

/// What Replay() recovered from a log left behind by a crash.
struct WalRecoveredState {
  /// True if at least one commit record survived intact; `meta` and
  /// `pages` are meaningful only in that case.
  bool has_commit = false;
  WalCommitMeta meta;
  /// Committed page afterimages: for each page, the last image logged at or
  /// before the last valid commit record.
  std::map<PageId, Bytes> pages;
  /// Before-images to restore: pages whose committed content may have been
  /// overwritten on disk by an *uncommitted* eviction (a before-image was
  /// logged but no commit covered a later afterimage).
  std::map<PageId, Bytes> restores;
  /// Committed logical (note) records, in append order.
  std::vector<Bytes> notes;
  /// Total records scanned before the valid prefix ended.
  uint64_t records_scanned = 0;
};

/// Append-only write-ahead log with group commit.
///
/// On-disk layout:
///
///   header (64 octets):
///     "SDBWAL01" | u32 page_size | u32 aead_alg | u8[16] salt
///     | 24 zero octets | u8[8] checksum (truncated SHA-256)
///   record frame, append-only after the header:
///     u32 body_len | u32 crc32(body) | body
///   body (sealed):
///     u64 lsn | u8 type | ciphertext | tag
///
/// The CRC detects torn tails from a crash mid-append (replay stops at the
/// first bad frame); the AEAD detects *tampering* of a fully written frame
/// (replay fails loudly with kAuthenticationFailed instead of silently
/// truncating history). Nonces are `salt-prefix || be64(lsn)` — LSNs are
/// monotonic for the life of the object (they do not reset at Checkpoint),
/// and the salt is redrawn on every checkpoint, so no (key, nonce) pair
/// ever repeats. The plaintext of a page record is `u64 page_id || page
/// payload`; the page id is confidential, like everything else.
///
/// Group commit: producers append records under a small mutex and receive
/// an LSN; a dedicated committer thread writes batches and issues one
/// fsync per batch. Appending a page or note record does not wake the
/// committer: the record waits for the next durability point. Commit(meta)
/// appends a commit record and blocks until the committer has made it
/// durable; every record appended before it rides the same fsync.
/// WaitDurable(lsn) wakes the committer for the same purpose.
///
/// Thread safety: all public methods are safe to call concurrently.
/// Checkpoint() assumes the caller has already made the page file durable
/// and externally excludes appends it cannot afford to lose (the engine
/// calls it from Flush()).
class WriteAheadLog {
 public:
  /// Creates (or truncates) the log at `path` with a fresh salt and starts
  /// the committer thread.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Create(
      const std::string& path, size_t page_size, const WalOptions& options);

  /// Scans the log at `path`, validating CRCs and AEAD tags, and returns
  /// the recovered state. A torn tail (short frame / CRC mismatch) ends
  /// the valid prefix silently; a CRC-valid frame that fails authentication
  /// is tampering and fails with kAuthenticationFailed. A missing file
  /// recovers to an empty state.
  static StatusOr<WalRecoveredState> Replay(const std::string& path,
                                            size_t page_size,
                                            const WalOptions& options);

  /// Stops the committer (pending non-durable records are abandoned — they
  /// were never acknowledged) and closes the file.
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  /// Append a page afterimage / committed-content before-image / opaque
  /// logical record. Returns the record's LSN; the record is NOT yet
  /// durable (see WaitDurable / Commit).
  StatusOr<uint64_t> AppendPageImage(PageId id, BytesView payload);
  StatusOr<uint64_t> AppendBeforeImage(PageId id, BytesView payload);
  StatusOr<uint64_t> AppendNote(BytesView payload);

  /// Appends a commit record carrying `meta`.
  StatusOr<uint64_t> AppendCommit(const WalCommitMeta& meta);

  /// Blocks until every record with LSN <= `lsn` is durable (or an I/O
  /// error is sticky, which it then returns).
  Status WaitDurable(uint64_t lsn);

  /// AppendCommit + WaitDurable: the group-commit durability point.
  Status Commit(const WalCommitMeta& meta);

  /// Truncates the log back to a fresh header (new salt). Call only after
  /// the page file itself has been made durable; drains in-flight batches
  /// first so no acknowledged record is ever dropped.
  Status Checkpoint();

  uint64_t durable_lsn() const;

 private:
  WriteAheadLog(std::string path, size_t page_size, WalOptions options,
                std::unique_ptr<Aead> aead, int fd);

  StatusOr<uint64_t> AppendRecord(uint8_t type, BytesView body);
  Status WriteHeaderLocked() SDB_REQUIRES(mu_);
  void CommitterLoop();
  // Runs outside mu_ (the committer drops the lock around the write+fsync);
  // touches fd_ and reads nothing mu_ guards.
  Status WriteAndSync(const Bytes& batch);

  const std::string path_;
  const size_t page_size_;
  const WalOptions options_;
  const std::unique_ptr<Aead> aead_;
  int fd_;

  mutable Mutex mu_{lockrank::kWal, "storage.wal"};
  CondVar work_cv_;     // producer -> committer
  CondVar durable_cv_;  // committer -> waiters
  Bytes salt_ SDB_GUARDED_BY(mu_);
  // Serialized frames awaiting the committer.
  Bytes pending_ SDB_GUARDED_BY(mu_);
  size_t pending_records_ SDB_GUARDED_BY(mu_) = 0;
  uint64_t next_lsn_ SDB_GUARDED_BY(mu_) = 1;
  // Last LSN serialized into pending_.
  uint64_t appended_lsn_ SDB_GUARDED_BY(mu_) = 0;
  uint64_t durable_lsn_ SDB_GUARDED_BY(mu_) = 0;
  // Committer's append offset.
  uint64_t file_size_ SDB_GUARDED_BY(mu_) = 0;
  // Committer is mid write+fsync outside mu_.
  bool writing_ SDB_GUARDED_BY(mu_) = false;
  bool stop_ SDB_GUARDED_BY(mu_) = false;
  // Sticky first failure.
  Status io_error_ SDB_GUARDED_BY(mu_);

  std::thread committer_;
};

}  // namespace sdbenc

#endif  // SDBENC_STORAGE_WAL_WAL_H_
