#include "storage/wal/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "crypto/hash.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/constant_time.h"
#include "util/crc32.h"
#include "util/rng.h"

namespace sdbenc {

namespace {

struct WalMetrics {
  obs::Counter* bytes;
  obs::Counter* records;
  obs::Counter* commits;
  obs::Counter* fsyncs;
  obs::Histogram* batch_records;
  obs::Histogram* fsync_ns;
};

const WalMetrics& Metrics() {
  static const WalMetrics m = {
      obs::Registry().GetCounter("sdbenc_wal_bytes_total"),
      obs::Registry().GetCounter("sdbenc_wal_records_total"),
      obs::Registry().GetCounter("sdbenc_wal_commits_total"),
      obs::Registry().GetCounter("sdbenc_wal_fsyncs_total"),
      obs::Registry().GetHistogram("sdbenc_wal_batch_record_count"),
      obs::Registry().GetHistogram("sdbenc_wal_fsync_ns"),
  };
  return m;
}

constexpr char kMagic[] = "SDBWAL01";
constexpr size_t kMagicLen = 8;
constexpr size_t kHeaderSize = 64;
constexpr size_t kSaltLen = 16;
constexpr size_t kChecksumLen = 8;
constexpr size_t kHeaderBodyLen = kHeaderSize - kChecksumLen;
// body = u64 lsn | u8 type | ciphertext | tag
constexpr size_t kBodyPrefixLen = 9;
// frame = u32 body_len | u32 crc | body
constexpr size_t kFramePrefixLen = 8;

// Record types (the type octet is authenticated via the associated data;
// it also appears inside the framing only through the sealed body).
constexpr uint8_t kPageImage = 1;
constexpr uint8_t kBeforeImage = 2;
constexpr uint8_t kCommit = 3;
constexpr uint8_t kNote = 4;

Bytes Checksum(BytesView data) {
  Bytes digest = ComputeHash(HashAlgorithm::kSha256, data);
  digest.resize(kChecksumLen);
  return digest;
}

// Nonce for record `lsn`: a salt prefix with the LSN in the last 8 octets.
// LSNs are unique for the life of the log file *and* across checkpoints
// (they never reset), so the pair never repeats under one key.
Bytes MakeNonce(const Bytes& salt, size_t nonce_size, uint64_t lsn) {
  Bytes nonce(nonce_size, 0);
  for (size_t i = 0; i + 8 < nonce_size && i < salt.size(); ++i) {
    nonce[i] = salt[i];
  }
  PutUint64Be(nonce.data() + nonce_size - 8, lsn);
  return nonce;
}

// Associated data binds each record to its position and role.
Bytes MakeAd(uint64_t lsn, uint8_t type) {
  Bytes ad = BytesFromString("SDBWAL");
  ad.resize(ad.size() + 9);
  PutUint64Be(ad.data() + 6, lsn);
  ad[14] = type;
  return ad;
}

StatusOr<std::unique_ptr<Aead>> MakeWalAead(const WalOptions& options) {
  if (options.key.size() < 16) {
    return InvalidArgumentError("WAL key must be >= 16 octets");
  }
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> aead,
                          CreateAead(options.aead, options.key));
  if (aead->nonce_size() < 8) {
    return InvalidArgumentError(
        "WAL requires an AEAD with a nonce of >= 8 octets (LSN-derived)");
  }
  return aead;
}

Status FullPwrite(int fd, const uint8_t* data, size_t len, uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      return InternalError("WAL write failed: " +
                           std::string(std::strerror(errno)));
    }
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

}  // namespace

WriteAheadLog::WriteAheadLog(std::string path, size_t page_size,
                             WalOptions options, std::unique_ptr<Aead> aead,
                             int fd)
    : path_(std::move(path)),
      page_size_(page_size),
      options_(std::move(options)),
      aead_(std::move(aead)),
      fd_(fd) {}

WriteAheadLog::~WriteAheadLog() {
  {
    const MutexLock lock(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  if (committer_.joinable()) committer_.join();
  if (fd_ >= 0) ::close(fd_);
}

Status WriteAheadLog::WriteHeaderLocked() {
  uint8_t header[kHeaderSize];
  std::memset(header, 0, kHeaderSize);
  std::memcpy(header, kMagic, kMagicLen);
  PutUint32Be(header + 8, static_cast<uint32_t>(page_size_));
  PutUint32Be(header + 12, static_cast<uint32_t>(options_.aead));
  std::memcpy(header + 16, salt_.data(), kSaltLen);
  const Bytes checksum = Checksum(BytesView(header, kHeaderBodyLen));
  std::memcpy(header + kHeaderBodyLen, checksum.data(), kChecksumLen);
  SDBENC_RETURN_IF_ERROR(FullPwrite(fd_, header, kHeaderSize, 0));
  file_size_ = kHeaderSize;
  return OkStatus();
}

StatusOr<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Create(
    const std::string& path, size_t page_size, const WalOptions& options) {
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> aead, MakeWalAead(options));
  const int fd =
      ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError("cannot create WAL file '" + path + "'");
  }
  auto wal = std::unique_ptr<WriteAheadLog>(new WriteAheadLog(
      path, page_size, options, std::move(aead), fd));
  SystemRng rng;
  {
    const MutexLock lock(wal->mu_);
    wal->salt_ = rng.RandomBytes(kSaltLen);
    SDBENC_RETURN_IF_ERROR(wal->WriteHeaderLocked());
  }
  wal->committer_ = std::thread(&WriteAheadLog::CommitterLoop, wal.get());
  return wal;
}

StatusOr<WalRecoveredState> WriteAheadLog::Replay(const std::string& path,
                                                  size_t page_size,
                                                  const WalOptions& options) {
  WalRecoveredState state;
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> aead, MakeWalAead(options));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return state;  // no log: nothing to recover
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  uint8_t header[kHeaderSize];
  const ssize_t got = ::pread(fd, header, kHeaderSize, 0);
  if (got != static_cast<ssize_t>(kHeaderSize)) return state;  // torn header
  if (std::memcmp(header, kMagic, kMagicLen) != 0) {
    return ParseError("bad WAL magic in '" + path + "'");
  }
  if (!ConstantTimeEquals(
          BytesView(header + kHeaderBodyLen, kChecksumLen),
          Checksum(BytesView(header, kHeaderBodyLen)))) {
    return AuthenticationFailedError("WAL header checksum mismatch");
  }
  if (GetUint32Be(header + 8) != page_size) {
    return ParseError("WAL page size does not match the page file");
  }
  if (GetUint32Be(header + 12) != static_cast<uint32_t>(options.aead)) {
    return ParseError("WAL sealed under a different AEAD algorithm");
  }
  const Bytes salt(header + 16, header + 16 + kSaltLen);

  // Scan the valid prefix. Uncommitted records are buffered until a commit
  // record promotes them; `first_before` keeps the earliest before-image
  // per page (its content as of the checkpoint this log started from).
  std::map<PageId, Bytes> uncommitted_pages;
  std::map<PageId, Bytes> first_before;
  std::vector<Bytes> uncommitted_notes;
  uint64_t offset = kHeaderSize;
  uint64_t expected_lsn = 0;  // first record fixes the base
  const size_t max_body =
      kBodyPrefixLen + 8 + page_size + aead->tag_size() + 4096;
  for (;;) {
    uint8_t prefix[kFramePrefixLen];
    if (::pread(fd, prefix, kFramePrefixLen, static_cast<off_t>(offset)) !=
        static_cast<ssize_t>(kFramePrefixLen)) {
      break;  // clean end or torn tail
    }
    const uint32_t body_len = GetUint32Be(prefix);
    const uint32_t crc = GetUint32Be(prefix + 4);
    if (body_len < kBodyPrefixLen + aead->tag_size() ||
        body_len > max_body) {
      break;  // garbage length: torn tail
    }
    Bytes body(body_len);
    if (::pread(fd, body.data(), body_len,
                static_cast<off_t>(offset + kFramePrefixLen)) !=
        static_cast<ssize_t>(body_len)) {
      break;  // frame cut short by the crash
    }
    if (Crc32(body) != crc) break;  // torn write
    const uint64_t lsn = GetUint64Be(body.data());
    const uint8_t type = body[8];
    if (expected_lsn != 0 && lsn != expected_lsn) break;
    expected_lsn = lsn + 1;
    // A CRC-valid frame that fails to open is not a torn write — the frame
    // reached the disk whole and was then altered. Fail loudly.
    const Bytes nonce = MakeNonce(salt, aead->nonce_size(), lsn);
    StatusOr<Bytes> opened = aead->Open(
        nonce,
        BytesView(body.data() + kBodyPrefixLen,
                  body_len - kBodyPrefixLen - aead->tag_size()),
        BytesView(body.data() + body_len - aead->tag_size(),
                  aead->tag_size()),
        MakeAd(lsn, type));
    if (!opened.ok()) {
      return AuthenticationFailedError(
          "WAL record at LSN " + std::to_string(lsn) +
          " failed authentication: log tampering detected");
    }
    const Bytes& plain = opened.value();
    ++state.records_scanned;
    offset += kFramePrefixLen + body_len;
    switch (type) {
      case kPageImage: {
        if (plain.size() != 8 + page_size) break;
        const PageId id = GetUint64Be(plain.data());
        uncommitted_pages[id] = Bytes(plain.begin() + 8, plain.end());
        break;
      }
      case kBeforeImage: {
        if (plain.size() != 8 + page_size) break;
        const PageId id = GetUint64Be(plain.data());
        first_before.emplace(id, Bytes(plain.begin() + 8, plain.end()));
        break;
      }
      case kNote:
        uncommitted_notes.push_back(plain);
        break;
      case kCommit: {
        if (plain.size() != 24) break;
        state.has_commit = true;
        state.meta.num_pages = GetUint64Be(plain.data());
        state.meta.free_head = GetUint64Be(plain.data() + 8);
        state.meta.root_record = GetUint64Be(plain.data() + 16);
        for (auto& [id, image] : uncommitted_pages) {
          state.pages[id] = std::move(image);
        }
        uncommitted_pages.clear();
        for (auto& note : uncommitted_notes) {
          state.notes.push_back(std::move(note));
        }
        uncommitted_notes.clear();
        break;
      }
      default:
        break;  // unknown record type: ignore (forward compatibility)
    }
  }
  // Pages with a before-image but no committed afterimage may have been
  // overwritten on disk by an uncommitted eviction: restore their
  // checkpoint-time content.
  for (auto& [id, image] : first_before) {
    if (state.pages.find(id) == state.pages.end()) {
      state.restores[id] = std::move(image);
    }
  }
  return state;
}

StatusOr<uint64_t> WriteAheadLog::AppendRecord(uint8_t type, BytesView body) {
  // Sealing happens under mu_ so frames land in pending_ in LSN order —
  // replay depends on it. The serial cost is one AEAD over a page (~µs with
  // AES-NI), dwarfed by the fsync this lock exists to amortize.
  MutexLock lock(mu_);
  if (!io_error_.ok()) return io_error_;
  const uint64_t lsn = next_lsn_++;
  const Bytes nonce = MakeNonce(salt_, aead_->nonce_size(), lsn);
  SDBENC_ASSIGN_OR_RETURN(Aead::Sealed sealed,
                          aead_->Seal(nonce, body, MakeAd(lsn, type)));
  const size_t body_len =
      kBodyPrefixLen + sealed.ciphertext.size() + sealed.tag.size();
  const size_t old_size = pending_.size();
  pending_.resize(old_size + kFramePrefixLen + body_len);
  uint8_t* frame = pending_.data() + old_size;
  uint8_t* frame_body = frame + kFramePrefixLen;
  PutUint64Be(frame_body, lsn);
  frame_body[8] = type;
  std::memcpy(frame_body + kBodyPrefixLen, sealed.ciphertext.data(),
              sealed.ciphertext.size());
  std::memcpy(frame_body + kBodyPrefixLen + sealed.ciphertext.size(),
              sealed.tag.data(), sealed.tag.size());
  PutUint32Be(frame, static_cast<uint32_t>(body_len));
  PutUint32Be(frame + 4, Crc32(BytesView(frame_body, body_len)));
  appended_lsn_ = lsn;
  ++pending_records_;
  Metrics().records->Increment();
  Metrics().bytes->Add(kFramePrefixLen + body_len);
  lock.Unlock();
  // Only a commit record wakes the committer. Page and note records wait
  // for the durability point they belong to (a commit, or a WaitDurable
  // from the write-ahead rule), so a batch's records share one fsync.
  if (type == kCommit) work_cv_.NotifyOne();
  return lsn;
}

StatusOr<uint64_t> WriteAheadLog::AppendPageImage(PageId id,
                                                  BytesView payload) {
  Bytes body(8 + page_size_, 0);
  PutUint64Be(body.data(), id);
  std::memcpy(body.data() + 8, payload.data(),
              payload.size() < page_size_ ? payload.size() : page_size_);
  return AppendRecord(kPageImage, body);
}

StatusOr<uint64_t> WriteAheadLog::AppendBeforeImage(PageId id,
                                                    BytesView payload) {
  Bytes body(8 + page_size_, 0);
  PutUint64Be(body.data(), id);
  std::memcpy(body.data() + 8, payload.data(),
              payload.size() < page_size_ ? payload.size() : page_size_);
  return AppendRecord(kBeforeImage, body);
}

StatusOr<uint64_t> WriteAheadLog::AppendNote(BytesView payload) {
  return AppendRecord(kNote, payload);
}

StatusOr<uint64_t> WriteAheadLog::AppendCommit(const WalCommitMeta& meta) {
  Bytes body(24);
  PutUint64Be(body.data(), meta.num_pages);
  PutUint64Be(body.data() + 8, meta.free_head);
  PutUint64Be(body.data() + 16, meta.root_record);
  Metrics().commits->Increment();
  return AppendRecord(kCommit, body);
}

Status WriteAheadLog::WaitDurable(uint64_t lsn) {
  const MutexLock lock(mu_);
  if (durable_lsn_ < lsn) work_cv_.NotifyOne();
  while (durable_lsn_ < lsn && io_error_.ok()) durable_cv_.Wait(mu_);
  return io_error_;
}

Status WriteAheadLog::Commit(const WalCommitMeta& meta) {
  SDBENC_ASSIGN_OR_RETURN(const uint64_t lsn, AppendCommit(meta));
  return WaitDurable(lsn);
}

Status WriteAheadLog::Checkpoint() {
  const MutexLock lock(mu_);
  // Drain: never truncate records a producer was promised an LSN for while
  // their frames are still in flight (an evicted dirty frame may hold that
  // LSN and later WaitDurable on it).
  if (!pending_.empty()) work_cv_.NotifyOne();
  while ((!pending_.empty() || writing_) && io_error_.ok()) {
    durable_cv_.Wait(mu_);
  }
  SDBENC_RETURN_IF_ERROR(io_error_);
  if (::ftruncate(fd_, 0) != 0) {
    return InternalError("WAL truncate failed");
  }
  SystemRng rng;
  salt_ = rng.RandomBytes(kSaltLen);
  SDBENC_RETURN_IF_ERROR(WriteHeaderLocked());
  // LSNs keep counting — everything issued so far is either in the durable
  // page image (that is what checkpointing asserts) or was never
  // acknowledged; either way it no longer needs the log.
  durable_lsn_ = appended_lsn_;
  return OkStatus();
}

uint64_t WriteAheadLog::durable_lsn() const {
  const MutexLock lock(mu_);
  return durable_lsn_;
}

Status WriteAheadLog::WriteAndSync(const Bytes& batch) {
  SDBENC_RETURN_IF_ERROR(
      FullPwrite(fd_, batch.data(), batch.size(), file_size_));
  const obs::StageTimer timer(Metrics().fsync_ns, "wal.fsync");
  Metrics().fsyncs->Increment();
  if (::fsync(fd_) != 0) {
    return InternalError("WAL fsync failed: " +
                         std::string(std::strerror(errno)));
  }
  return OkStatus();
}

void WriteAheadLog::CommitterLoop() {
  MutexLock lock(mu_);
  for (;;) {
    while (!stop_ && pending_.empty()) work_cv_.Wait(mu_);
    if (pending_.empty()) {
      if (stop_) return;
      continue;
    }
    if (options_.group_commit_window_us > 0 && !stop_) {
      // Linger briefly so producers racing toward Commit() can join this
      // batch; natural batching (appends landing during the previous
      // fsync) already gives most of the win. Deadline loop: a spurious or
      // unrelated wakeup goes back to sleep for the remaining window.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(options_.group_commit_window_us);
      while (!stop_) {
        const auto now = std::chrono::steady_clock::now();
        if (now >= deadline) break;
        work_cv_.WaitFor(mu_, deadline - now);
      }
    }
    const Bytes batch = std::move(pending_);
    pending_ = Bytes();
    const size_t batch_records = pending_records_;
    pending_records_ = 0;
    const uint64_t batch_last = appended_lsn_;
    writing_ = true;
    lock.Unlock();
    Metrics().batch_records->Record(batch_records);
    const Status status = WriteAndSync(batch);
    lock.Lock();
    writing_ = false;
    if (status.ok()) {
      file_size_ += batch.size();
      durable_lsn_ = batch_last;
    } else if (io_error_.ok()) {
      io_error_ = status;
    }
    durable_cv_.NotifyAll();
  }
}

}  // namespace sdbenc
