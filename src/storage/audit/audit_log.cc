#include "storage/audit/audit_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <utility>

#include "crypto/hash.h"
#include "obs/metrics.h"
#include "util/constant_time.h"
#include "util/crc32.h"
#include "util/hex.h"
#include "util/rng.h"

namespace sdbenc {

namespace {

struct AuditMetrics {
  obs::Counter* records;
  obs::Counter* reseals;
};

const AuditMetrics& Metrics() {
  static const AuditMetrics m = {
      obs::Registry().GetCounter("sdbenc_audit_records_total"),
      obs::Registry().GetCounter("sdbenc_audit_reseals_total"),
  };
  return m;
}

constexpr char kMagic[] = "SDBAUD01";
constexpr size_t kMagicLen = 8;
constexpr size_t kHeaderSize = 64;
constexpr size_t kSaltLen = 16;
constexpr size_t kChecksumLen = 8;
constexpr size_t kHeaderBodyLen = kHeaderSize - kChecksumLen;
// body = u64 seq | u8 type | ciphertext | tag
constexpr size_t kBodyPrefixLen = 9;
// frame = u32 body_len | u32 crc | body
constexpr size_t kFramePrefixLen = 8;
// plaintext = u64 wall_ms | detail; cap the detail so a corrupted length
// field cannot drive a huge allocation during the scan.
constexpr size_t kMaxDetailLen = 1 << 16;

Bytes Checksum(BytesView data) {
  Bytes digest = ComputeHash(HashAlgorithm::kSha256, data);
  digest.resize(kChecksumLen);
  return digest;
}

// Nonce for record `seq`: a salt prefix with the sequence number in the
// last 8 octets. Sequence numbers never reset under one salt, and Reseal
// redraws the salt, so no (key, nonce) pair repeats.
Bytes MakeNonce(const Bytes& salt, size_t nonce_size, uint64_t seq) {
  Bytes nonce(nonce_size, 0);
  for (size_t i = 0; i + 8 < nonce_size && i < salt.size(); ++i) {
    nonce[i] = salt[i];
  }
  PutUint64Be(nonce.data() + nonce_size - 8, seq);
  return nonce;
}

// Associated data binds each record to its position, role, and — through
// `prev_link` (the previous record's tag; the header checksum for the
// first) — to the entire history before it.
Bytes MakeAd(uint64_t seq, uint8_t type, const Bytes& prev_link) {
  Bytes ad = BytesFromString("SDBAUD");
  ad.resize(ad.size() + 9);
  PutUint64Be(ad.data() + 6, seq);
  ad[14] = type;
  ad.insert(ad.end(), prev_link.begin(), prev_link.end());
  return ad;
}

StatusOr<std::unique_ptr<Aead>> MakeAuditAead(const AuditLogOptions& options) {
  if (options.key.size() < 16) {
    return InvalidArgumentError("audit key must be >= 16 octets");
  }
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> aead,
                          CreateAead(options.aead, options.key));
  if (aead->nonce_size() < 8) {
    return InvalidArgumentError(
        "audit log requires an AEAD with a nonce of >= 8 octets "
        "(sequence-derived)");
  }
  return aead;
}

Status FullPwrite(int fd, const uint8_t* data, size_t len, uint64_t offset) {
  while (len > 0) {
    const ssize_t n = ::pwrite(fd, data, len, static_cast<off_t>(offset));
    if (n < 0) {
      return InternalError("audit log write failed: " +
                           std::string(std::strerror(errno)));
    }
    data += n;
    len -= static_cast<size_t>(n);
    offset += static_cast<uint64_t>(n);
  }
  return OkStatus();
}

uint64_t WallClockMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

// One sealed frame for record `seq`.
StatusOr<Bytes> SealFrame(const Aead& aead, const Bytes& salt,
                          const Bytes& prev_link, uint64_t seq, uint8_t type,
                          uint64_t wall_ms, const std::string& detail,
                          Bytes* tag_out) {
  Bytes plaintext(8 + detail.size());
  PutUint64Be(plaintext.data(), wall_ms);
  std::memcpy(plaintext.data() + 8, detail.data(), detail.size());

  const Bytes nonce = MakeNonce(salt, aead.nonce_size(), seq);
  const Bytes ad = MakeAd(seq, type, prev_link);
  SDBENC_ASSIGN_OR_RETURN(Aead::Sealed sealed,
                          aead.Seal(ToView(nonce), ToView(plaintext),
                                    ToView(ad)));

  Bytes body(kBodyPrefixLen + sealed.ciphertext.size() + sealed.tag.size());
  PutUint64Be(body.data(), seq);
  body[8] = type;
  std::memcpy(body.data() + kBodyPrefixLen, sealed.ciphertext.data(),
              sealed.ciphertext.size());
  std::memcpy(body.data() + kBodyPrefixLen + sealed.ciphertext.size(),
              sealed.tag.data(), sealed.tag.size());

  Bytes frame(kFramePrefixLen + body.size());
  PutUint32Be(frame.data(), static_cast<uint32_t>(body.size()));
  PutUint32Be(frame.data() + 4, Crc32(ToView(body)));
  std::memcpy(frame.data() + kFramePrefixLen, body.data(), body.size());

  *tag_out = std::move(sealed.tag);
  return frame;
}

// 64-octet header with a fresh checksum; `salt` must already be drawn.
Bytes BuildHeader(AeadAlgorithm alg, const Bytes& salt) {
  Bytes header(kHeaderSize, 0);
  std::memcpy(header.data(), kMagic, kMagicLen);
  PutUint32Be(header.data() + 8, static_cast<uint32_t>(alg));
  std::memcpy(header.data() + 16, salt.data(), kSaltLen);
  const Bytes checksum = Checksum(BytesView(header.data(), kHeaderBodyLen));
  std::memcpy(header.data() + kHeaderBodyLen, checksum.data(), kChecksumLen);
  return header;
}

struct ScanResult {
  std::vector<AuditEvent> events;
  Bytes salt;
  Bytes last_link;            // tag of the last record (header checksum if none)
  uint64_t next_seq = 0;
  uint64_t end_offset = kHeaderSize;  // end of the valid prefix
  bool torn_tail = false;     // octets past end_offset failed to parse
};

// Walks the file from the header, decrypting and chain-checking every
// frame. Unreadable framing (short read, insane length, CRC mismatch) ends
// the valid prefix and sets `torn_tail` — the caller decides whether that
// is a crash to repair (Open) or a verification failure (VerifyChain). A
// readable frame that fails authentication or sequencing is evidence of
// tampering and always fails here.
StatusOr<ScanResult> ScanChain(int fd, const std::string& path,
                               const AuditLogOptions& options,
                               const Aead& aead) {
  ScanResult result;
  uint8_t header[kHeaderSize];
  const ssize_t got = ::pread(fd, header, kHeaderSize, 0);
  if (got != static_cast<ssize_t>(kHeaderSize)) {
    return AuthenticationFailedError("audit log '" + path +
                                     "' has a torn or missing header");
  }
  if (std::memcmp(header, kMagic, kMagicLen) != 0) {
    return ParseError("bad audit log magic in '" + path + "'");
  }
  if (!ConstantTimeEquals(BytesView(header + kHeaderBodyLen, kChecksumLen),
                          Checksum(BytesView(header, kHeaderBodyLen)))) {
    return AuthenticationFailedError("audit log header checksum mismatch");
  }
  if (GetUint32Be(header + 8) != static_cast<uint32_t>(options.aead)) {
    return ParseError("audit log sealed under a different AEAD algorithm");
  }
  result.salt = Bytes(header + 16, header + 16 + kSaltLen);
  result.last_link = Checksum(BytesView(header, kHeaderBodyLen));

  const size_t max_body = kBodyPrefixLen + 8 + kMaxDetailLen + aead.tag_size();
  uint64_t offset = kHeaderSize;
  for (;;) {
    uint8_t prefix[kFramePrefixLen];
    const ssize_t n =
        ::pread(fd, prefix, kFramePrefixLen, static_cast<off_t>(offset));
    if (n == 0) break;  // clean end at a frame boundary
    if (n != static_cast<ssize_t>(kFramePrefixLen)) {
      result.torn_tail = true;
      break;
    }
    const uint32_t body_len = GetUint32Be(prefix);
    const uint32_t crc = GetUint32Be(prefix + 4);
    if (body_len < kBodyPrefixLen + aead.tag_size() + 8 ||
        body_len > max_body) {
      result.torn_tail = true;
      break;
    }
    Bytes body(body_len);
    if (::pread(fd, body.data(), body_len,
                static_cast<off_t>(offset + kFramePrefixLen)) !=
        static_cast<ssize_t>(body_len)) {
      result.torn_tail = true;
      break;
    }
    if (Crc32(ToView(body)) != crc) {
      result.torn_tail = true;
      break;
    }
    const uint64_t seq = GetUint64Be(body.data());
    const uint8_t type = body[8];
    // A readable frame out of sequence is a splice, not a crash.
    if (seq != result.next_seq) {
      return AuthenticationFailedError(
          "audit log record out of sequence: tampering detected");
    }
    const size_t cipher_len = body_len - kBodyPrefixLen - aead.tag_size();
    const Bytes nonce = MakeNonce(result.salt, aead.nonce_size(), seq);
    const Bytes ad = MakeAd(seq, type, result.last_link);
    StatusOr<Bytes> opened =
        aead.Open(ToView(nonce),
                  BytesView(body.data() + kBodyPrefixLen, cipher_len),
                  BytesView(body.data() + kBodyPrefixLen + cipher_len,
                            aead.tag_size()),
                  ToView(ad));
    if (!opened.ok()) {
      return AuthenticationFailedError(
          "audit log record " + std::to_string(seq) +
          " failed authentication: tampering detected");
    }
    const Bytes& plaintext = opened.value();
    if (plaintext.size() < 8) {
      return AuthenticationFailedError("audit log record too short");
    }
    AuditEvent event;
    event.seq = seq;
    event.type = static_cast<AuditEventType>(type);
    event.wall_ms = GetUint64Be(plaintext.data());
    event.detail.assign(
        reinterpret_cast<const char*>(plaintext.data()) + 8,
        plaintext.size() - 8);
    result.events.push_back(std::move(event));

    result.last_link =
        Bytes(body.end() - static_cast<ptrdiff_t>(aead.tag_size()),
              body.end());
    result.next_seq = seq + 1;
    offset += kFramePrefixLen + body_len;
    result.end_offset = offset;
  }
  return result;
}

}  // namespace

const char* AuditEventTypeName(AuditEventType type) {
  switch (type) {
    case AuditEventType::kSessionOpen:
      return "session_open";
    case AuditEventType::kSessionClose:
      return "session_close";
    case AuditEventType::kKeyRotation:
      return "key_rotation";
    case AuditEventType::kAuthFailure:
      return "auth_failure";
    case AuditEventType::kTamperDetected:
      return "tamper_detected";
    case AuditEventType::kWalRecovery:
      return "wal_recovery";
    case AuditEventType::kCacheEpochBump:
      return "cache_epoch_bump";
  }
  return "unknown";
}

AuditLog::AuditLog(std::string path, AuditLogOptions options,
                   std::unique_ptr<Aead> aead, int fd)
    : path_(std::move(path)),
      options_(std::move(options)),
      aead_(std::move(aead)),
      fd_(fd) {}

AuditLog::~AuditLog() {
  if (fd_ >= 0) ::close(fd_);
}

Status AuditLog::WriteHeaderLocked() {
  const Bytes header = BuildHeader(options_.aead, salt_);
  SDBENC_RETURN_IF_ERROR(FullPwrite(fd_, header.data(), header.size(), 0));
  prev_link_ = Checksum(BytesView(header.data(), kHeaderBodyLen));
  file_size_ = kHeaderSize;
  next_seq_ = 0;
  return OkStatus();
}

StatusOr<std::unique_ptr<AuditLog>> AuditLog::Open(
    const std::string& path, const AuditLogOptions& options) {
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> aead, MakeAuditAead(options));
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return InternalError("cannot open audit log '" + path + "'");
  }
  auto log = std::unique_ptr<AuditLog>(
      new AuditLog(path, options, std::move(aead), fd));

  const off_t size = ::lseek(fd, 0, SEEK_END);
  const MutexLock lock(log->mu_);
  if (size <= 0) {
    SystemRng rng;
    log->salt_ = rng.RandomBytes(kSaltLen);
    SDBENC_RETURN_IF_ERROR(log->WriteHeaderLocked());
    if (::fsync(fd) != 0) {
      return InternalError("audit log fsync failed");
    }
    return log;
  }

  SDBENC_ASSIGN_OR_RETURN(ScanResult scan,
                          ScanChain(fd, path, options, *log->aead_));
  if (scan.torn_tail) {
    // Crash mid-append: drop the unreadable tail and continue the chain
    // from the last whole record. The strict VerifyChain would refuse this
    // file; the writer is the one party entitled to repair it.
    if (::ftruncate(fd, static_cast<off_t>(scan.end_offset)) != 0) {
      return InternalError("audit log truncate failed: " +
                           std::string(std::strerror(errno)));
    }
  }
  log->salt_ = std::move(scan.salt);
  log->prev_link_ = std::move(scan.last_link);
  log->next_seq_ = scan.next_seq;
  log->file_size_ = scan.end_offset;
  return log;
}

StatusOr<AuditChain> AuditLog::VerifyChain(const std::string& path,
                                           const AuditLogOptions& options) {
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> aead, MakeAuditAead(options));
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return NotFoundError("audit log '" + path + "' does not exist");
  }
  struct FdCloser {
    int fd;
    ~FdCloser() { ::close(fd); }
  } closer{fd};

  SDBENC_ASSIGN_OR_RETURN(ScanResult scan,
                          ScanChain(fd, path, options, *aead));
  if (scan.torn_tail) {
    return AuthenticationFailedError(
        "audit log has unverifiable trailing octets (torn or tampered "
        "tail)");
  }
  AuditChain chain;
  chain.events = std::move(scan.events);
  chain.final_link_hex = HexEncode(ToView(scan.last_link));
  return chain;
}

Status AuditLog::AppendLocked(AuditEventType type, uint64_t wall_ms,
                              const std::string& detail) {
  Bytes tag;
  SDBENC_ASSIGN_OR_RETURN(
      Bytes frame,
      SealFrame(*aead_, salt_, prev_link_, next_seq_,
                static_cast<uint8_t>(type), wall_ms, detail, &tag));
  SDBENC_RETURN_IF_ERROR(FullPwrite(fd_, frame.data(), frame.size(),
                                    file_size_));
  if (::fsync(fd_) != 0) {
    return InternalError("audit log fsync failed: " +
                         std::string(std::strerror(errno)));
  }
  file_size_ += frame.size();
  prev_link_ = std::move(tag);
  ++next_seq_;
  Metrics().records->Increment();
  return OkStatus();
}

Status AuditLog::AppendEvent(AuditEventType type,
                             const std::string& detail) {
  if (detail.size() > kMaxDetailLen) {
    return InvalidArgumentError("audit detail too long");
  }
  const MutexLock lock(mu_);
  return AppendLocked(type, WallClockMs(), detail);
}

Status AuditLog::Reseal(const AuditLogOptions& new_options) {
  SDBENC_ASSIGN_OR_RETURN(std::unique_ptr<Aead> new_aead,
                          MakeAuditAead(new_options));
  const MutexLock lock(mu_);

  // Re-read our own file under the current key; the in-memory chain state
  // only covers the tail, and Reseal must carry the whole history.
  SDBENC_ASSIGN_OR_RETURN(ScanResult scan,
                          ScanChain(fd_, path_, options_, *aead_));
  if (scan.torn_tail || scan.end_offset != file_size_) {
    return AuthenticationFailedError(
        "audit log changed underneath the writer; refusing to reseal");
  }

  const std::string tmp_path = path_ + ".reseal";
  const int tmp_fd = ::open(tmp_path.c_str(),
                            O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (tmp_fd < 0) {
    return InternalError("cannot create '" + tmp_path + "'");
  }
  SystemRng rng;
  const Bytes new_salt = rng.RandomBytes(kSaltLen);
  const Bytes header = BuildHeader(new_options.aead, new_salt);
  Status status = FullPwrite(tmp_fd, header.data(), header.size(), 0);
  Bytes link = Checksum(BytesView(header.data(), kHeaderBodyLen));
  uint64_t offset = kHeaderSize;
  for (const AuditEvent& event : scan.events) {
    if (!status.ok()) break;
    Bytes tag;
    StatusOr<Bytes> frame =
        SealFrame(*new_aead, new_salt, link, event.seq,
                  static_cast<uint8_t>(event.type), event.wall_ms,
                  event.detail, &tag);
    if (!frame.ok()) {
      status = frame.status();
      break;
    }
    status = FullPwrite(tmp_fd, frame.value().data(), frame.value().size(),
                        offset);
    offset += frame.value().size();
    link = std::move(tag);
  }
  if (status.ok() && ::fsync(tmp_fd) != 0) {
    status = InternalError("audit log fsync failed during reseal");
  }
  if (!status.ok()) {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return status;
  }
  if (::rename(tmp_path.c_str(), path_.c_str()) != 0) {
    ::close(tmp_fd);
    ::unlink(tmp_path.c_str());
    return InternalError("audit log rename failed during reseal: " +
                         std::string(std::strerror(errno)));
  }
  ::close(fd_);
  fd_ = tmp_fd;
  options_ = new_options;
  aead_ = std::move(new_aead);
  salt_ = new_salt;
  prev_link_ = std::move(link);
  file_size_ = offset;
  // next_seq_ unchanged: sequence numbers survive resealing.
  Metrics().reseals->Increment();
  return OkStatus();
}

uint64_t AuditLog::next_seq() const {
  const MutexLock lock(mu_);
  return next_seq_;
}

std::string AuditLog::last_link_hex() const {
  const MutexLock lock(mu_);
  return HexEncode(ToView(prev_link_));
}

}  // namespace sdbenc
