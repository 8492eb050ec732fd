#ifndef SDBENC_STORAGE_FILE_STORAGE_ENGINE_H_
#define SDBENC_STORAGE_FILE_STORAGE_ENGINE_H_

#include <atomic>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "aead/factory.h"
#include "storage/buffer_pool.h"
#include "storage/storage_engine.h"
#include "storage/wal/wal.h"
#include "util/thread_annotations.h"

namespace sdbenc {

/// Durable page file behind a striped LRU buffer pool, with an optional
/// AEAD-sealed write-ahead log for crash recovery.
///
/// On-disk layout (unchanged since the unsharded engine — images are
/// byte-compatible both ways):
///
///   header (64 octets):
///     "SDBPAGE1" | u32 page_size | u32 reserved | u64 num_pages
///     | u64 free_head | u64 root_record | 24 zero octets | u8[8] checksum
///   page i at offset 64 + i * (8 + page_size):
///     u8[8] checksum | payload (page_size octets)
///
/// Checksums are truncated SHA-256 over the covered bytes. They detect any
/// storage-level modification of a page the moment it is faulted in, and the
/// mismatch is reported as kAuthenticationFailed — in the paper's threat
/// model a storage adversary *may* rewrite pages, and the engine's job is to
/// make that tampering loud, not silent. (An adversary recomputing the
/// checksum gains nothing: content integrity still rests on the AEAD tags
/// inside the payload.)
///
/// Concurrency: the page table is sharded into N latch stripes keyed by
/// `PageId % N`, each owning its slice of the buffer pool under its own
/// mutex; operations on pages in different stripes never contend. All file
/// I/O is positional (pread/pwrite against one shared fd), so there is no
/// seek state to serialise — a Read miss faults its page in with the
/// stripe lock *dropped* and re-checks the pool before inserting (a
/// resident frame is never staler than disk, so it wins). Engine metadata
/// (free list head, header writes) lives under a separate `meta_mu_`;
/// `num_pages_`/`root_record_` are atomics so bounds checks stay
/// lock-free. Lock order: meta_mu_ -> stripe mutex -> WAL internals;
/// never the reverse. The one caveat carried over: a Read racing a Write
/// *to the same page* may return either the old or the new content.
///
/// Durability: without a WAL, pages reach disk on eviction and Flush()
/// (which also fsyncs). With `Options::enable_wal`, a write is logged only
/// when its page may hold committed content: a checkpointed page (id below
/// the page count at the last checkpoint) or a page a commit has covered
/// since. Such a write appends its afterimage to `path + ".wal"`, plus a
/// before-image the first time a page whose committed content lives only
/// in the page file is overwritten, so an uncommitted eviction can never
/// destroy committed content; evicting its frame first forces the log past
/// the frame's record (write-ahead rule). Every other write is unlogged:
/// nothing committed lives at that page, so its frame is evicted straight
/// to the page file. CommitBatch() covers the unlogged pages (it syncs the
/// page file if any were evicted, and logs the afterimages of those still
/// resident), then group-commits a commit record (one fsync amortised over
/// all concurrent writers) instead of checkpointing the image. Flush()
/// checkpoints (commit, pages + header + fsync, then truncates the log),
/// and Open() replays the log when the crash left the image behind it.
class FileStorageEngine : public StorageEngine {
 public:
  struct Options {
    size_t page_size = kDefaultPageSize;
    size_t pool_pages = 256;
    /// Latch stripe count; 0 = auto (one stripe per 8 pool pages, capped
    /// at 64 — tiny pools collapse to a single stripe so their eviction
    /// behaviour matches the unsharded engine exactly).
    size_t stripes = 0;
    /// Write-ahead log at `path + ".wal"`; requires `wal_key`.
    bool enable_wal = false;
    Bytes wal_key;
    AeadAlgorithm wal_aead = AeadAlgorithm::kGcm;
    uint32_t group_commit_window_us = 0;
  };

  /// Creates a fresh page file at `path`, truncating any existing file
  /// (and any leftover log).
  static StatusOr<std::unique_ptr<FileStorageEngine>> Create(
      const std::string& path, const Options& options);
  static StatusOr<std::unique_ptr<FileStorageEngine>> Create(
      const std::string& path, size_t page_size = kDefaultPageSize,
      size_t pool_pages = 256);

  /// Opens an existing page file; fails with kParseError on a bad header
  /// and kAuthenticationFailed on a header checksum mismatch. With a WAL
  /// enabled, first replays any log the last crash left behind: committed
  /// afterimages are applied, orphaned before-images restored, and the
  /// log reset.
  static StatusOr<std::unique_ptr<FileStorageEngine>> Open(
      const std::string& path, const Options& options);
  static StatusOr<std::unique_ptr<FileStorageEngine>> Open(
      const std::string& path, size_t pool_pages = 256);

  ~FileStorageEngine() override;

  FileStorageEngine(const FileStorageEngine&) = delete;
  FileStorageEngine& operator=(const FileStorageEngine&) = delete;

  size_t page_size() const override { return page_size_; }
  uint64_t num_pages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }

  StatusOr<PageId> Allocate() override;
  Status Read(PageId id, Bytes* out) override;
  Status Write(PageId id, BytesView data) override;
  Status Free(PageId id) override;

  /// Checkpoint: writes back every dirty frame plus the header, fsyncs,
  /// and (with a WAL) truncates the log. After Flush() the file is a
  /// complete, reopenable image that no longer needs the log.
  Status Flush() override;

  /// Durability point: with a WAL, covers the unlogged pages (a page-file
  /// sync if any of their frames were evicted, afterimages for the rest),
  /// then appends a commit record carrying the metadata snapshot and
  /// group-commits the log — everything written so far survives a crash
  /// without the full checkpoint. Without a WAL, falls back to Flush().
  Status CommitBatch() override;

  void set_root_record(uint64_t record) override {
    root_record_.store(record, std::memory_order_release);
  }
  uint64_t root_record() const override {
    return root_record_.load(std::memory_order_acquire);
  }

  /// Counter fields are relaxed atomics; cross-field consistency only when
  /// no other thread is inside the engine.
  const StorageStats& stats() const override { return stats_; }

  size_t pool_capacity() const { return pool_capacity_; }
  size_t stripe_count() const { return stripes_.size(); }
  bool wal_enabled() const { return wal_ != nullptr; }

  /// What WAL replay did when this engine was opened. `applied` means the
  /// image was behind the log and pages were rolled forward — the event a
  /// session wants in its audit trail.
  struct RecoveryInfo {
    bool applied = false;
    uint64_t pages_applied = 0;
    uint64_t restores_applied = 0;
    bool had_commit = false;
  };
  const RecoveryInfo& recovery_info() const { return recovery_; }

 private:
  struct Stripe {
    /// All stripes share one rank: two stripe latches must never nest
    /// (Flush locks them strictly one at a time). Contended waits land on
    /// sdbenc_storage_stripe_wait_ns (attached in the constructor) as well
    /// as the global lock-wait histogram.
    mutable Mutex mu{lockrank::kStorageStripe, "storage.stripe"};
    BufferPool pool SDB_GUARDED_BY(mu);
    /// Pages whose unlogged frames were written back since the last
    /// durability point; CommitBatch() syncs them and marks them covered.
    std::vector<PageId> unlogged_evictions SDB_GUARDED_BY(mu);
    /// `page_file_syncs_started_` as read right after the latest of those
    /// write-backs: once `page_file_synced_through_` exceeds it, a sync
    /// that began after every one of them has returned.
    uint64_t unlogged_evicted_at SDB_GUARDED_BY(mu) = 0;
    explicit Stripe(size_t capacity) : pool(capacity) {}
  };

  FileStorageEngine(int fd, const std::string& path, const Options& options);

  static StatusOr<std::unique_ptr<FileStorageEngine>> OpenImpl(
      const std::string& path, const Options& options);
  /// Applies a recovered WAL state to the page file (called from OpenImpl
  /// before any stripe exists, single-threaded).
  Status ApplyRecovery(const WalRecoveredState& recovered);

  Stripe& StripeFor(PageId id) { return *stripes_[id % stripes_.size()]; }

  /// Makes room in `stripe` (evicting + writing back a dirty victim —
  /// under the stripe lock, so a concurrent miss on the victim cannot
  /// fault stale bytes from disk) and inserts `payload` as the frame for
  /// `id`. Caller holds the stripe lock.
  StatusOr<BufferPool::Frame*> InsertFrameLocked(Stripe& stripe, PageId id,
                                                 Bytes payload, bool dirty)
      SDB_REQUIRES(stripe.mu);

  /// Faults `id` into `stripe` from disk (verifying its checksum),
  /// evicting if needed. Caller holds the stripe lock, which is kept
  /// across the disk I/O — Allocate uses this, while the hot Read-miss
  /// path drops the lock around its fault instead.
  StatusOr<BufferPool::Frame*> FetchFrameLocked(Stripe& stripe, PageId id)
      SDB_REQUIRES(stripe.mu);

  /// WAL hook for a full-page update `id` := `after`, called with the
  /// stripe lock held. Returns 0 when the write takes the unlogged path
  /// (the page holds nothing committed). Otherwise logs a before-image on
  /// the first overwrite this epoch of a page whose committed content
  /// lives only in the page file (`frame` is the page's current frame or
  /// nullptr), then the afterimage, and returns the afterimage's LSN.
  StatusOr<uint64_t> LogPageWrite(PageId id, const BufferPool::Frame* frame,
                                  BytesView after);

  /// The full-page update `id` := `payload` (Write and Free): logs it
  /// through LogPageWrite and stores it as the page's dirty frame. Returns
  /// whether the page was resident.
  StatusOr<bool> WriteFrameLocked(Stripe& stripe, PageId id, Bytes payload)
      SDB_REQUIRES(stripe.mu);

  /// The one fsync of the page file: checkpoint, recovery and a commit
  /// covering unlogged evictions all come through here.
  Status SyncPageFile();

  /// Whether every unlogged write-back noted on `stripe` is durable: a
  /// page-file sync that began after the latest one has returned. Any
  /// committer's sync counts, so concurrent commits share one.
  bool UnloggedEvictionsSynced(const Stripe& stripe) const
      SDB_REQUIRES(stripe.mu);

  Status WritePageToDisk(PageId id, BytesView payload);
  Status ReadPageFromDisk(PageId id, Bytes* payload);
  Status WriteHeader() SDB_REQUIRES(meta_mu_);

  int fd_;
  std::string path_;
  size_t page_size_;
  size_t pool_capacity_;

  std::vector<std::unique_ptr<Stripe>> stripes_;

  /// Guards free_head_ and header writes. Lock order: meta_mu_ before any
  /// stripe mutex (Allocate/Free walk the free list through the pool).
  mutable Mutex meta_mu_{lockrank::kStorageMeta, "storage.meta"};
  std::atomic<uint64_t> num_pages_{0};
  PageId free_head_ SDB_GUARDED_BY(meta_mu_) = kInvalidPageId;
  std::atomic<uint64_t> root_record_{0};
  StorageStats stats_;
  /// Page-file sync tickets: how many syncs have begun, and the highest
  /// ticket whose fsync has returned. Both only grow.
  std::atomic<uint64_t> page_file_syncs_started_{0};
  std::atomic<uint64_t> page_file_synced_through_{0};

  std::unique_ptr<WriteAheadLog> wal_;
  /// Checkpoint bookkeeping; wal_mu_ nests inside stripe locks
  /// (LogPageWrite runs under the page's stripe latch), and the WAL's own
  /// mutex nests inside it (CommitBatch appends afterimages under it).
  Mutex wal_mu_{lockrank::kStorageCheckpoint, "storage.checkpoint"};
  /// Pages whose committed content is already in the log this epoch.
  std::unordered_set<PageId> imaged_ SDB_GUARDED_BY(wal_mu_);
  /// Page count at the last checkpoint: pages below it hold checkpointed
  /// content, so every write to them is logged.
  uint64_t checkpoint_pages_ SDB_GUARDED_BY(wal_mu_) = 0;
  /// Pages at or past checkpoint_pages_ that a commit since the checkpoint
  /// has covered, so writes to them are logged. The value is true when the
  /// commit covered the page through the page-file sync: its committed
  /// content is not in the log, so it needs a before-image like a
  /// checkpointed page.
  std::unordered_map<PageId, bool> covered_ SDB_GUARDED_BY(wal_mu_);
  RecoveryInfo recovery_;
};

}  // namespace sdbenc

#endif  // SDBENC_STORAGE_FILE_STORAGE_ENGINE_H_
