#ifndef SDBENC_STORAGE_STORAGE_ENGINE_H_
#define SDBENC_STORAGE_STORAGE_ENGINE_H_

#include <string>

#include "storage/page.h"
#include "util/bytes.h"
#include "util/statusor.h"

namespace sdbenc {

/// Which StorageEngine backend a SecureDatabase session runs on.
enum class StorageBackend {
  kMemory,  ///< pages live in process memory; Flush() is a no-op
  kFile,    ///< page file on disk behind an LRU buffer pool
};

/// Configuration for the storage substrate of a session. The defaults give
/// the seed behaviour (everything in memory); a file backend additionally
/// needs `path`.
struct StorageOptions {
  StorageBackend backend = StorageBackend::kMemory;
  /// Page-file path; required for kFile, ignored for kMemory.
  std::string path;
  /// Fixed page size in octets. Must match the on-disk value when opening
  /// an existing page file.
  size_t page_size = kDefaultPageSize;
  /// Buffer-pool capacity in pages (kFile only). Sizing it below the
  /// working set exercises eviction; the stats counters expose the hit rate.
  size_t buffer_pool_pages = 256;
  /// Number of latch stripes the page table is sharded over (kFile only).
  /// 0 = auto (scaled from the pool size; tiny pools collapse to one
  /// stripe so their eviction behaviour matches the unsharded engine).
  size_t stripes = 0;
  /// Write-ahead logging for kFile sessions (ignored for kMemory). When
  /// on, SecureDatabase derives the log key from the master key and
  /// Open() replays any log left behind by a crash.
  bool enable_wal = true;
  /// How long the WAL committer lingers collecting a group-commit batch
  /// before its fsync, in microseconds. 0 = natural batching only.
  uint32_t group_commit_window_us = 0;
  /// Tamper-evident audit log path (both backends; empty = no audit log).
  /// SecureDatabase derives the sealing key from the master key and logs
  /// security events — session lifecycle, key rotation, auth failures,
  /// tamper detections, WAL recovery — as a hash-chained AEAD stream.
  std::string audit_path;

  static StorageOptions Memory() { return StorageOptions{}; }
  static StorageOptions File(std::string file_path,
                             size_t pool_pages = 256) {
    StorageOptions o;
    o.backend = StorageBackend::kFile;
    o.path = std::move(file_path);
    o.buffer_pool_pages = pool_pages;
    return o;
  }
};

/// The paged storage substrate — the *untrusted* layer of the paper's threat
/// model, generalised from "a Table object in RAM" to fixed-size pages
/// addressed by PageId. Everything stored here is ciphertext or plaintext
/// structure; an adversary controlling the engine sees and may rewrite every
/// page, and the layers above must surface such tampering as
/// kAuthenticationFailed on the next touch.
///
/// Contract:
///  - Allocate() hands out a page id (possibly recycling a freed one); the
///    page content is undefined until the first Write().
///  - Write() replaces the whole page (short data is zero-padded to
///    page_size); Read() returns exactly page_size octets.
///  - Free() recycles the page; reading a freed page is undefined.
///  - Flush() makes every accepted Write() durable (no-op in memory).
///  - CommitBatch() is the cheap durability point: engines with a WAL make
///    everything written so far recoverable (one group-committed fsync of
///    the log, plus a page-file fsync when pages written outside the log
///    were evicted) without checkpointing the page image; engines without
///    one fall back to Flush().
///  - set_root_record()/root_record() persist one u64 bootstrap pointer so
///    a reopened file can find its catalog without scanning.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  virtual size_t page_size() const = 0;
  virtual uint64_t num_pages() const = 0;

  virtual StatusOr<PageId> Allocate() = 0;
  virtual Status Read(PageId id, Bytes* out) = 0;
  virtual Status Write(PageId id, BytesView data) = 0;
  virtual Status Free(PageId id) = 0;
  virtual Status Flush() = 0;
  virtual Status CommitBatch() { return Flush(); }

  virtual void set_root_record(uint64_t record) = 0;
  virtual uint64_t root_record() const = 0;

  virtual const StorageStats& stats() const = 0;
};

}  // namespace sdbenc

#endif  // SDBENC_STORAGE_STORAGE_ENGINE_H_
