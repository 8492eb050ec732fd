#include "storage/file_storage_engine.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "crypto/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/constant_time.h"

namespace sdbenc {

namespace {

// Registry mirrors of the per-engine StorageStats counters (DESIGN §8).
// The struct stays — tests and benches compare engines — while the registry
// aggregates across every engine in the process and adds the I/O byte
// counters and the latency histograms the struct never had.
struct StorageMetrics {
  obs::Counter* page_reads;
  obs::Counter* page_writes;
  obs::Counter* pool_hits;
  obs::Counter* pool_misses;
  obs::Counter* pool_evictions;
  obs::Counter* dirty_writebacks;
  obs::Counter* read_bytes;
  obs::Counter* write_bytes;
  obs::Counter* page_file_syncs;
  obs::Histogram* fault_ns;
  obs::Histogram* stripe_wait_ns;
};

const StorageMetrics& Metrics() {
  static const StorageMetrics m = {
      obs::Registry().GetCounter("sdbenc_storage_page_reads_total"),
      obs::Registry().GetCounter("sdbenc_storage_page_writes_total"),
      obs::Registry().GetCounter("sdbenc_storage_pool_hits_total"),
      obs::Registry().GetCounter("sdbenc_storage_pool_misses_total"),
      obs::Registry().GetCounter("sdbenc_storage_pool_evictions_total"),
      obs::Registry().GetCounter("sdbenc_storage_dirty_writebacks_total"),
      obs::Registry().GetCounter("sdbenc_storage_read_bytes_total"),
      obs::Registry().GetCounter("sdbenc_storage_write_bytes_total"),
      obs::Registry().GetCounter("sdbenc_storage_page_file_syncs_total"),
      obs::Registry().GetHistogram("sdbenc_storage_fault_ns"),
      obs::Registry().GetHistogram("sdbenc_storage_stripe_wait_ns"),
  };
  return m;
}

constexpr char kMagic[] = "SDBPAGE1";
constexpr size_t kMagicLen = 8;
constexpr size_t kHeaderSize = 64;
constexpr size_t kChecksumLen = 8;
// Header bytes covered by the trailing checksum.
constexpr size_t kHeaderBodyLen = kHeaderSize - kChecksumLen;

Bytes Checksum(BytesView data) {
  Bytes digest = ComputeHash(HashAlgorithm::kSha256, data);
  digest.resize(kChecksumLen);
  return digest;
}

uint64_t PageOffset(PageId id, size_t page_size) {
  return kHeaderSize + id * (kChecksumLen + page_size);
}

size_t AutoStripes(size_t pool_pages) {
  // One stripe per 8 pool pages, capped: tiny pools (the eviction-stress
  // configurations in the tests) collapse to a single stripe so their
  // hit/eviction sequences match the unsharded engine exactly.
  const size_t stripes = pool_pages / 8;
  if (stripes <= 1) return 1;
  return stripes > 64 ? 64 : stripes;
}

Status FullPread(int fd, uint8_t* data, size_t len, uint64_t offset,
                 const char* what) {
  while (len > 0) {
    const ssize_t n = ::pread(fd, data, len, static_cast<off_t>(offset));
    if (n <= 0) {
      return InternalError(std::string(what) + " failed" +
                           (n < 0 ? std::string(": ") + std::strerror(errno)
                                  : std::string(": short read")));
    }
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

Status FullPwrite(int fd, const uint8_t* data, size_t len, uint64_t offset,
                  const char* what) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      return InternalError(std::string(what) + " failed: " +
                           std::strerror(errno));
    }
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

}  // namespace

FileStorageEngine::FileStorageEngine(int fd, const std::string& path,
                                     const Options& options)
    : fd_(fd), path_(path), page_size_(options.page_size) {
  const size_t pool_pages =
      options.pool_pages == 0 ? 1 : options.pool_pages;
  const size_t stripe_count =
      options.stripes == 0 ? AutoStripes(pool_pages) : options.stripes;
  pool_capacity_ = 0;
  stripes_.reserve(stripe_count);
  for (size_t i = 0; i < stripe_count; ++i) {
    size_t capacity = pool_pages / stripe_count +
                      (i < pool_pages % stripe_count ? 1 : 0);
    if (capacity == 0) capacity = 1;
    pool_capacity_ += capacity;
    stripes_.push_back(std::make_unique<Stripe>(capacity));
    // Contended stripe waits keep their dedicated histogram on top of the
    // global sdbenc_lock_wait_ns.
    stripes_.back()->mu.set_wait_histogram(Metrics().stripe_wait_ns);
  }
}

FileStorageEngine::~FileStorageEngine() {
  wal_.reset();  // joins the committer before the fd goes away
  if (fd_ >= 0) ::close(fd_);
}

StatusOr<std::unique_ptr<FileStorageEngine>> FileStorageEngine::Create(
    const std::string& path, size_t page_size, size_t pool_pages) {
  Options options;
  options.page_size = page_size;
  options.pool_pages = pool_pages;
  return Create(path, options);
}

StatusOr<std::unique_ptr<FileStorageEngine>> FileStorageEngine::Create(
    const std::string& path, const Options& options) {
  if (options.page_size < 64 || options.page_size > (1u << 24)) {
    return InvalidArgumentError("unreasonable page size");
  }
  const int fd = ::open(path.c_str(),
                        O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError("cannot create page file '" + path + "'");
  }
  auto engine = std::unique_ptr<FileStorageEngine>(
      new FileStorageEngine(fd, path, options));
  {
    const MutexLock meta_lock(engine->meta_mu_);
    SDBENC_RETURN_IF_ERROR(engine->WriteHeader());
  }
  if (options.enable_wal) {
    WalOptions wal_options;
    wal_options.key = options.wal_key;
    wal_options.aead = options.wal_aead;
    wal_options.group_commit_window_us = options.group_commit_window_us;
    SDBENC_ASSIGN_OR_RETURN(
        engine->wal_, WriteAheadLog::Create(path + ".wal",
                                            options.page_size, wal_options));
  }
  return engine;
}

StatusOr<std::unique_ptr<FileStorageEngine>> FileStorageEngine::Open(
    const std::string& path, size_t pool_pages) {
  Options options;
  options.pool_pages = pool_pages;
  return OpenImpl(path, options);
}

StatusOr<std::unique_ptr<FileStorageEngine>> FileStorageEngine::Open(
    const std::string& path, const Options& options) {
  return OpenImpl(path, options);
}

StatusOr<std::unique_ptr<FileStorageEngine>> FileStorageEngine::OpenImpl(
    const std::string& path, const Options& options) {
  const int fd = ::open(path.c_str(), O_RDWR | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("cannot open page file '" + path + "'");
  }
  uint8_t header[kHeaderSize];
  const ssize_t got = ::pread(fd, header, kHeaderSize, 0);
  if (got != static_cast<ssize_t>(kHeaderSize)) {
    ::close(fd);
    return ParseError("page file shorter than its header");
  }
  if (std::memcmp(header, kMagic, kMagicLen) != 0) {
    ::close(fd);
    return ParseError("bad page file magic");
  }
  const Bytes expected = Checksum(BytesView(header, kHeaderBodyLen));
  if (!ConstantTimeEquals(BytesView(header + kHeaderBodyLen, kChecksumLen),
                          expected)) {
    ::close(fd);
    return AuthenticationFailedError("page file header checksum mismatch");
  }
  const uint32_t page_size = GetUint32Be(header + 8);
  if (page_size < 64 || page_size > (1u << 24)) {
    ::close(fd);
    return ParseError("unreasonable page size in page file header");
  }
  Options resolved = options;
  resolved.page_size = page_size;
  auto engine = std::unique_ptr<FileStorageEngine>(
      new FileStorageEngine(fd, path, resolved));
  engine->num_pages_.store(GetUint64Be(header + 16),
                           std::memory_order_relaxed);
  {
    const MutexLock meta_lock(engine->meta_mu_);
    engine->free_head_ = GetUint64Be(header + 24);
  }
  engine->root_record_.store(GetUint64Be(header + 32),
                             std::memory_order_relaxed);
  if (options.enable_wal) {
    WalOptions wal_options;
    wal_options.key = options.wal_key;
    wal_options.aead = options.wal_aead;
    wal_options.group_commit_window_us = options.group_commit_window_us;
    // If a crash left a log behind, the file image may be behind it:
    // replay before anything reads a page.
    SDBENC_ASSIGN_OR_RETURN(
        const WalRecoveredState recovered,
        WriteAheadLog::Replay(path + ".wal", page_size, wal_options));
    SDBENC_RETURN_IF_ERROR(engine->ApplyRecovery(recovered));
    SDBENC_ASSIGN_OR_RETURN(
        engine->wal_,
        WriteAheadLog::Create(path + ".wal", page_size, wal_options));
    {
      const MutexLock wal_lock(engine->wal_mu_);
      engine->checkpoint_pages_ =
          engine->num_pages_.load(std::memory_order_relaxed);
    }
  }
  return engine;
}

// Single-threaded (called from OpenImpl before the engine is shared). The
// recovered afterimages/restores are written straight to the file, then
// the header is brought up to the committed metadata and the whole image
// fsynced — only after that does the caller truncate the log, so a crash
// during recovery just replays again.
Status FileStorageEngine::ApplyRecovery(const WalRecoveredState& recovered) {
  if (!recovered.has_commit && recovered.pages.empty() &&
      recovered.restores.empty()) {
    return OkStatus();
  }
  recovery_.applied = true;
  recovery_.pages_applied = recovered.pages.size();
  recovery_.restores_applied = recovered.restores.size();
  recovery_.had_commit = recovered.has_commit;
  for (const auto& [id, image] : recovered.restores) {
    SDBENC_RETURN_IF_ERROR(WritePageToDisk(id, image));
  }
  for (const auto& [id, image] : recovered.pages) {
    SDBENC_RETURN_IF_ERROR(WritePageToDisk(id, image));
  }
  const MutexLock meta_lock(meta_mu_);
  if (recovered.has_commit) {
    num_pages_.store(recovered.meta.num_pages, std::memory_order_relaxed);
    free_head_ = recovered.meta.free_head;
    root_record_.store(recovered.meta.root_record,
                       std::memory_order_relaxed);
  }
  SDBENC_RETURN_IF_ERROR(WriteHeader());
  return SyncPageFile();
}

Status FileStorageEngine::SyncPageFile() {
  Metrics().page_file_syncs->Increment();
  const uint64_t ticket = page_file_syncs_started_.fetch_add(1) + 1;
  if (::fsync(fd_) != 0) {
    return InternalError(std::string("page file fsync failed: ") +
                         std::strerror(errno));
  }
  // Concurrent syncs may return out of ticket order; keep the highest.
  uint64_t done = page_file_synced_through_.load();
  while (done < ticket &&
         !page_file_synced_through_.compare_exchange_weak(done, ticket)) {
  }
  return OkStatus();
}

bool FileStorageEngine::UnloggedEvictionsSynced(const Stripe& stripe) const {
  return stripe.unlogged_evictions.empty() ||
         page_file_synced_through_.load() > stripe.unlogged_evicted_at;
}

// The disk helpers are positional (pread/pwrite) and touch no shared
// state beyond the fd itself, so they need no lock. WriteHeader
// additionally reads free_head_, so it requires meta_mu_ — the
// single-threaded open/create/recovery paths take it too, purely to keep
// one annotated contract.
Status FileStorageEngine::WriteHeader() {
  uint8_t header[kHeaderSize];
  std::memset(header, 0, kHeaderSize);
  std::memcpy(header, kMagic, kMagicLen);
  PutUint32Be(header + 8, static_cast<uint32_t>(page_size_));
  PutUint64Be(header + 16, num_pages_.load(std::memory_order_acquire));
  PutUint64Be(header + 24, free_head_);
  PutUint64Be(header + 32, root_record_.load(std::memory_order_acquire));
  const Bytes checksum = Checksum(BytesView(header, kHeaderBodyLen));
  std::memcpy(header + kHeaderBodyLen, checksum.data(), kChecksumLen);
  return FullPwrite(fd_, header, kHeaderSize, 0, "page file header write");
}

Status FileStorageEngine::WritePageToDisk(PageId id, BytesView payload) {
  Metrics().write_bytes->Add(kChecksumLen + payload.size());
  const Bytes checksum = Checksum(payload);
  uint8_t sum[kChecksumLen];
  std::memcpy(sum, checksum.data(), kChecksumLen);
  const uint64_t offset = PageOffset(id, page_size_);
  SDBENC_RETURN_IF_ERROR(
      FullPwrite(fd_, sum, kChecksumLen, offset, "page checksum write"));
  return FullPwrite(fd_, payload.data(), payload.size(),
                    offset + kChecksumLen,
                    "page write");
}

Status FileStorageEngine::ReadPageFromDisk(PageId id, Bytes* payload) {
  const obs::StageTimer fault_timer(Metrics().fault_ns, "storage.fault");
  Metrics().read_bytes->Add(kChecksumLen + page_size_);
  Bytes raw(kChecksumLen + page_size_);
  SDBENC_RETURN_IF_ERROR(FullPread(fd_, raw.data(), raw.size(),
                                   PageOffset(id, page_size_), "page read"));
  const BytesView stored_sum(raw.data(), kChecksumLen);
  const BytesView body(raw.data() + kChecksumLen, page_size_);
  if (!ConstantTimeEquals(stored_sum, Checksum(body))) {
    // A storage adversary rewrote this page (or the medium corrupted it):
    // same verdict either way — the page is not what this engine wrote.
    return AuthenticationFailedError("checksum mismatch on page " +
                                     std::to_string(id) +
                                     ": storage tampering detected");
  }
  payload->assign(body.begin(), body.end());
  return OkStatus();
}

StatusOr<BufferPool::Frame*> FileStorageEngine::InsertFrameLocked(
    Stripe& stripe, PageId id, Bytes payload, bool dirty) {
  if (stripe.pool.Full()) {
    BufferPool::Frame victim;
    SDBENC_RETURN_IF_ERROR(stripe.pool.Evict(&victim));
    ++stats_.pool_evictions;
    Metrics().pool_evictions->Increment();
    if (victim.dirty) {
      ++stats_.dirty_writebacks;
      Metrics().dirty_writebacks->Increment();
      if (victim.wal_lsn != 0) {
        // Write-ahead rule: the log must hold this frame's records
        // durably before its (possibly uncommitted) bytes land over the
        // committed image. An unlogged frame has no record to wait for:
        // nothing committed lives at its page.
        SDBENC_RETURN_IF_ERROR(wal_->WaitDurable(victim.wal_lsn));
      }
      // Written back while the stripe is still locked: if a concurrent
      // miss on this page faulted from disk first, it would read bytes
      // older than the frame it just lost the race to.
      SDBENC_RETURN_IF_ERROR(WritePageToDisk(victim.id, victim.data));
      if (victim.unlogged) {
        stripe.unlogged_evictions.push_back(victim.id);
        stripe.unlogged_evicted_at = page_file_syncs_started_.load();
      }
    }
  }
  return stripe.pool.Insert(id, std::move(payload), dirty);
}

StatusOr<BufferPool::Frame*> FileStorageEngine::FetchFrameLocked(
    Stripe& stripe, PageId id) {
  Bytes payload;
  SDBENC_RETURN_IF_ERROR(ReadPageFromDisk(id, &payload));
  return InsertFrameLocked(stripe, id, std::move(payload), /*dirty=*/false);
}

StatusOr<uint64_t> FileStorageEngine::LogPageWrite(
    PageId id, const BufferPool::Frame* frame, BytesView after) {
  bool need_before = false;
  {
    const MutexLock lock(wal_mu_);
    // Committed content in the page file: checkpointed, or covered by a
    // commit's page-file sync.
    bool on_disk = id < checkpoint_pages_;
    if (!on_disk) {
      const auto it = covered_.find(id);
      // No commit since the checkpoint has covered this page, so nothing
      // committed lives here: the write skips the log, and the next
      // durability point covers it.
      if (it == covered_.end()) return 0;
      on_disk = it->second;
    }
    need_before = on_disk && imaged_.insert(id).second;
  }
  if (need_before) {
    // First overwrite this epoch of committed content that only the page
    // file holds: log it so an uncommitted eviction can be undone. A clean
    // frame matches disk; a dirty frame cannot occur here (its first
    // write already imaged the page, and a page is covered only once it
    // has no unlogged frame); otherwise the committed bytes are on disk.
    // An unreadable disk page means nothing committed lives there
    // (allocated but never written) — no before-image needed.
    Bytes before;
    bool have_before = false;
    if (frame != nullptr && !frame->dirty) {
      before = frame->data;
      have_before = true;
    } else if (frame == nullptr) {
      have_before = ReadPageFromDisk(id, &before).ok();
    }
    if (have_before) {
      SDBENC_RETURN_IF_ERROR(wal_->AppendBeforeImage(id, before).status());
    }
  }
  return wal_->AppendPageImage(id, after);
}

StatusOr<PageId> FileStorageEngine::Allocate() {
  const MutexLock meta_lock(meta_mu_);
  ++stats_.pages_allocated;
  if (free_head_ != kInvalidPageId) {
    const PageId id = free_head_;
    // Follow the free-list link stored in the page's first octets.
    ++stats_.page_reads;
    Metrics().page_reads->Increment();
    Stripe& stripe = StripeFor(id);
    const MutexLock lock(stripe.mu);
    BufferPool::Frame* frame = stripe.pool.Lookup(id);
    if (frame != nullptr) {
      ++stats_.pool_hits;
      Metrics().pool_hits->Increment();
    } else {
      ++stats_.pool_misses;
      Metrics().pool_misses->Increment();
      SDBENC_ASSIGN_OR_RETURN(frame, FetchFrameLocked(stripe, id));
    }
    free_head_ = GetUint64Be(frame->data.data());
    return id;
  }
  return num_pages_.fetch_add(1, std::memory_order_acq_rel);
}

Status FileStorageEngine::Read(PageId id, Bytes* out) {
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    return OutOfRangeError("page " + std::to_string(id) + " out of range");
  }
  ++stats_.page_reads;
  Metrics().page_reads->Increment();
  Stripe& stripe = StripeFor(id);
  MutexLock lock(stripe.mu);
  BufferPool::Frame* frame = stripe.pool.Lookup(id);
  if (frame != nullptr) {
    ++stats_.pool_hits;
    Metrics().pool_hits->Increment();
    *out = frame->data;
    return OkStatus();
  }
  ++stats_.pool_misses;
  Metrics().pool_misses->Increment();
  // Miss: fault the page in with the stripe unlocked, so concurrent
  // misses — even inside one stripe — overlap their disk I/O and checksum
  // verification instead of serialising the stripe.
  lock.Unlock();
  Bytes payload;
  SDBENC_RETURN_IF_ERROR(ReadPageFromDisk(id, &payload));
  lock.Lock();
  // Another thread may have faulted (or rewritten) the page meanwhile; a
  // resident frame is never staler than our disk copy, so it wins.
  frame = stripe.pool.Lookup(id);
  if (frame == nullptr) {
    SDBENC_ASSIGN_OR_RETURN(frame, InsertFrameLocked(stripe, id,
                                                     std::move(payload),
                                                     /*dirty=*/false));
  }
  *out = frame->data;
  return OkStatus();
}

Status FileStorageEngine::Write(PageId id, BytesView data) {
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    return OutOfRangeError("page " + std::to_string(id) + " out of range");
  }
  if (data.size() > page_size_) {
    return InvalidArgumentError("page write larger than page size");
  }
  ++stats_.page_writes;
  Metrics().page_writes->Increment();
  Bytes payload(data.begin(), data.end());
  payload.resize(page_size_, 0);
  Stripe& stripe = StripeFor(id);
  const MutexLock lock(stripe.mu);
  SDBENC_ASSIGN_OR_RETURN(const bool resident,
                          WriteFrameLocked(stripe, id, std::move(payload)));
  if (resident) {
    ++stats_.pool_hits;
    Metrics().pool_hits->Increment();
  }
  return OkStatus();
}

StatusOr<bool> FileStorageEngine::WriteFrameLocked(Stripe& stripe, PageId id,
                                                   Bytes payload) {
  BufferPool::Frame* frame = stripe.pool.Lookup(id);
  const bool resident = frame != nullptr;
  uint64_t lsn = 0;
  if (wal_ != nullptr) {
    SDBENC_ASSIGN_OR_RETURN(lsn, LogPageWrite(id, frame, payload));
  }
  if (resident) {
    frame->data = std::move(payload);
  } else {
    // Whole-page overwrite: no need to fault the old content in from disk.
    SDBENC_ASSIGN_OR_RETURN(
        frame, InsertFrameLocked(stripe, id, std::move(payload),
                                 /*dirty=*/true));
  }
  frame->dirty = true;
  frame->wal_lsn = lsn;
  frame->unlogged = wal_ != nullptr && lsn == 0;
  return resident;
}

Status FileStorageEngine::Free(PageId id) {
  const MutexLock meta_lock(meta_mu_);
  if (id >= num_pages_.load(std::memory_order_acquire)) {
    return OutOfRangeError("page " + std::to_string(id) + " out of range");
  }
  ++stats_.pages_freed;
  // Whatever the page held is dead; it becomes a free-list link node.
  Bytes link(page_size_, 0);
  PutUint64Be(link.data(), free_head_);
  Stripe& stripe = StripeFor(id);
  const MutexLock lock(stripe.mu);
  SDBENC_RETURN_IF_ERROR(
      WriteFrameLocked(stripe, id, std::move(link)).status());
  free_head_ = id;
  return OkStatus();
}

Status FileStorageEngine::CommitBatch() {
  if (wal_ == nullptr) return Flush();
  // Cover the unlogged pages before the commit record. Those evicted since
  // the last durability point are already in the page file: a sync that
  // began after their write-back makes them durable, whichever committer
  // issued it. The rest are resident: their afterimages join the commit's
  // fsync. Each stripe is settled under its latch, so a page is marked
  // covered only once it has no unlogged frame left.
  bool need_sync = false;
  for (const std::unique_ptr<Stripe>& stripe : stripes_) {
    const MutexLock lock(stripe->mu);
    need_sync = need_sync || !UnloggedEvictionsSynced(*stripe);
  }
  if (need_sync) SDBENC_RETURN_IF_ERROR(SyncPageFile());
  for (const std::unique_ptr<Stripe>& stripe_ptr : stripes_) {
    Stripe& stripe = *stripe_ptr;
    const MutexLock lock(stripe.mu);
    if (!UnloggedEvictionsSynced(stripe)) {
      // An eviction landed here after the latest returned sync began (a
      // concurrent writer, or one racing another committer's sync); the
      // latch keeps any further one out until this stripe is settled.
      SDBENC_RETURN_IF_ERROR(SyncPageFile());
    }
    const MutexLock wal_lock(wal_mu_);
    for (BufferPool::Frame& frame : stripe.pool.frames()) {
      if (!frame.unlogged) continue;
      SDBENC_ASSIGN_OR_RETURN(frame.wal_lsn,
                              wal_->AppendPageImage(frame.id, frame.data));
      frame.unlogged = false;
      covered_.emplace(frame.id, false);
    }
    // emplace keeps a page logged above as covered in the log.
    for (const PageId id : stripe.unlogged_evictions) {
      covered_.emplace(id, true);
    }
    stripe.unlogged_evictions.clear();
  }
  uint64_t commit_lsn = 0;
  {
    // Snapshot and append under one lock: replay keeps the last commit
    // record's metadata, so a concurrent committer must not append an
    // older snapshot after a newer one.
    const MutexLock meta_lock(meta_mu_);
    WalCommitMeta meta;
    meta.num_pages = num_pages_.load(std::memory_order_acquire);
    meta.free_head = free_head_;
    meta.root_record = root_record_.load(std::memory_order_acquire);
    SDBENC_ASSIGN_OR_RETURN(commit_lsn, wal_->AppendCommit(meta));
  }
  return wal_->WaitDurable(commit_lsn);
}

Status FileStorageEngine::Flush() {
  // Checkpoint sequence (WAL case): commit the log, write the full image,
  // fsync it, and only then truncate the log — a crash anywhere in
  // between replays an idempotent redo. Flush assumes no concurrent
  // writers when its recovery guarantee matters (SecureDatabase calls it
  // from its single-threaded control path); racing writers keep the image
  // consistent but may straddle the checkpoint.
  if (wal_ != nullptr) {
    SDBENC_RETURN_IF_ERROR(CommitBatch());
  }
  for (const std::unique_ptr<Stripe>& stripe : stripes_) {
    const MutexLock lock(stripe->mu);
    for (BufferPool::Frame& frame : stripe->pool.frames()) {
      if (!frame.dirty) continue;
      SDBENC_RETURN_IF_ERROR(WritePageToDisk(frame.id, frame.data));
      frame.dirty = false;
      frame.wal_lsn = 0;
      frame.unlogged = false;
      ++stats_.dirty_writebacks;
      Metrics().dirty_writebacks->Increment();
    }
    stripe->unlogged_evictions.clear();
  }
  {
    const MutexLock meta_lock(meta_mu_);
    SDBENC_RETURN_IF_ERROR(WriteHeader());
  }
  SDBENC_RETURN_IF_ERROR(SyncPageFile());
  if (wal_ != nullptr) {
    {
      const MutexLock lock(wal_mu_);
      imaged_.clear();
      covered_.clear();
      checkpoint_pages_ = num_pages_.load(std::memory_order_acquire);
    }
    SDBENC_RETURN_IF_ERROR(wal_->Checkpoint());
  }
  return OkStatus();
}

}  // namespace sdbenc
