// Write-ahead log: replay correctness (round trip, torn tails, tampering),
// group-commit concurrency, engine-level recovery, and a fork-based
// kill-and-reopen harness that crashes a SecureDatabase session at a
// random point during a committed bulk load and proves no acknowledged
// batch is ever lost.

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/stat.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/secure_database.h"
#include "obs/metrics.h"
#include "storage/file_storage_engine.h"
#include "storage/wal/wal.h"
#include "util/crc32.h"
#include "util/file.h"
#include "util/rng.h"

// gcc announces TSan with __SANITIZE_THREAD__, clang through
// __has_feature.
#if defined(__SANITIZE_THREAD__)
#define SDBENC_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SDBENC_TSAN 1
#endif
#endif

namespace sdbenc {
namespace {
void RecordFsync(int fd);
}  // namespace
}  // namespace sdbenc

// This binary replaces the C library's fsync() so that the PowerCut
// recorder below sees every sync, the engine's and the WAL's alike.
extern "C" int fsync(int fd) {
  const int rc = static_cast<int>(::syscall(SYS_fsync, fd));
  if (rc == 0) sdbenc::RecordFsync(fd);
  return rc;
}

namespace sdbenc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

WalOptions TestWalOptions() {
  WalOptions o;
  o.key = Bytes(16, 0x33);
  return o;
}

Bytes PatternPage(size_t page_size, uint8_t seed) {
  Bytes page(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    page[i] = static_cast<uint8_t>(seed + i * 11);
  }
  return page;
}

// Same polynomial as the WAL's frame CRC; the tamper test needs it to
// forge a CRC-valid frame whose AEAD tag no longer verifies.
uint32_t Crc32(const uint8_t* data, size_t len) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    crc ^= data[i];
    for (int b = 0; b < 8; ++b) {
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

constexpr size_t kWalHeaderSize = 64;
constexpr size_t kPs = 256;

TEST(WalReplayTest, MissingFileRecoversEmpty) {
  auto state = WriteAheadLog::Replay(TempPath("sdbenc_wal_missing.wal"),
                                     kPs, TestWalOptions());
  ASSERT_TRUE(state.ok());
  EXPECT_FALSE(state->has_commit);
  EXPECT_TRUE(state->pages.empty());
  EXPECT_EQ(state->records_scanned, 0u);
}

TEST(WalReplayTest, RoundTripRestoresCommittedState) {
  const std::string path = TempPath("sdbenc_wal_roundtrip.wal");
  {
    auto wal = WriteAheadLog::Create(path, kPs, TestWalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPageImage(0, PatternPage(kPs, 1)).ok());
    ASSERT_TRUE((*wal)->AppendPageImage(7, PatternPage(kPs, 2)).ok());
    ASSERT_TRUE((*wal)->AppendNote(Bytes{0xAA, 0xBB}).ok());
    WalCommitMeta meta;
    meta.num_pages = 8;
    meta.root_record = 42;
    ASSERT_TRUE((*wal)->Commit(meta).ok());
    // Overwrite page 0 *after* the commit and commit again: replay must
    // surface the newest committed image.
    ASSERT_TRUE((*wal)->AppendPageImage(0, PatternPage(kPs, 3)).ok());
    meta.root_record = 43;
    ASSERT_TRUE((*wal)->Commit(meta).ok());
  }
  auto state = WriteAheadLog::Replay(path, kPs, TestWalOptions());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->has_commit);
  EXPECT_EQ(state->meta.num_pages, 8u);
  EXPECT_EQ(state->meta.root_record, 43u);
  ASSERT_EQ(state->pages.size(), 2u);
  EXPECT_EQ(state->pages.at(0), PatternPage(kPs, 3));
  EXPECT_EQ(state->pages.at(7), PatternPage(kPs, 2));
  ASSERT_EQ(state->notes.size(), 1u);
  EXPECT_EQ(state->notes[0], (Bytes{0xAA, 0xBB}));
  ::unlink(path.c_str());
}

TEST(WalReplayTest, UncommittedTailIsNotReplayed) {
  const std::string path = TempPath("sdbenc_wal_uncommitted.wal");
  {
    auto wal = WriteAheadLog::Create(path, kPs, TestWalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPageImage(1, PatternPage(kPs, 1)).ok());
    WalCommitMeta meta;
    meta.num_pages = 2;
    ASSERT_TRUE((*wal)->Commit(meta).ok());
    // Durable but never committed: replay must ignore it.
    auto lsn = (*wal)->AppendPageImage(1, PatternPage(kPs, 9));
    ASSERT_TRUE(lsn.ok());
    ASSERT_TRUE((*wal)->WaitDurable(*lsn).ok());
  }
  auto state = WriteAheadLog::Replay(path, kPs, TestWalOptions());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->has_commit);
  EXPECT_EQ(state->pages.at(1), PatternPage(kPs, 1));
  ::unlink(path.c_str());
}

TEST(WalReplayTest, TornTailStopsSilently) {
  const std::string path = TempPath("sdbenc_wal_torn.wal");
  {
    auto wal = WriteAheadLog::Create(path, kPs, TestWalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPageImage(3, PatternPage(kPs, 5)).ok());
    WalCommitMeta meta;
    meta.num_pages = 4;
    ASSERT_TRUE((*wal)->Commit(meta).ok());
  }
  // Simulate a crash mid-append: a frame prefix promising more bytes than
  // the file holds.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const uint8_t torn[10] = {0, 0, 1, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2};
    ASSERT_EQ(std::fwrite(torn, 1, sizeof(torn), f), sizeof(torn));
    std::fclose(f);
  }
  auto state = WriteAheadLog::Replay(path, kPs, TestWalOptions());
  ASSERT_TRUE(state.ok()) << state.status().message();
  EXPECT_TRUE(state->has_commit);
  EXPECT_EQ(state->pages.at(3), PatternPage(kPs, 5));
  ::unlink(path.c_str());
}

TEST(WalReplayTest, TamperedFrameFailsLoudly) {
  const std::string path = TempPath("sdbenc_wal_tamper.wal");
  {
    auto wal = WriteAheadLog::Create(path, kPs, TestWalOptions());
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->AppendPageImage(0, PatternPage(kPs, 1)).ok());
    WalCommitMeta meta;
    meta.num_pages = 1;
    ASSERT_TRUE((*wal)->Commit(meta).ok());
  }
  // Flip one ciphertext byte of the first frame and re-forge the CRC so
  // the frame still *parses* — only the AEAD can catch this, and it must
  // do so loudly (tampering, not a torn tail).
  auto file = ReadFile(path);
  ASSERT_TRUE(file.ok());
  Bytes bytes = std::move(file).value();
  ASSERT_GT(bytes.size(), kWalHeaderSize + 8);
  uint32_t body_len = 0;
  for (int i = 0; i < 4; ++i) {
    body_len = (body_len << 8) | bytes[kWalHeaderSize + i];
  }
  ASSERT_GE(bytes.size(), kWalHeaderSize + 8 + body_len);
  uint8_t* body = bytes.data() + kWalHeaderSize + 8;
  body[body_len / 2] ^= 0x01;
  const uint32_t crc = Crc32(body, body_len);
  for (int i = 0; i < 4; ++i) {
    bytes[kWalHeaderSize + 4 + i] =
        static_cast<uint8_t>(crc >> (24 - 8 * i));
  }
  ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
  auto state = WriteAheadLog::Replay(path, kPs, TestWalOptions());
  ASSERT_FALSE(state.ok());
  EXPECT_EQ(state.status().code(), StatusCode::kAuthenticationFailed);
  ::unlink(path.c_str());
}

TEST(WalReplayTest, CheckpointTruncatesAndLogStaysUsable) {
  const std::string path = TempPath("sdbenc_wal_checkpoint.wal");
  auto wal = WriteAheadLog::Create(path, kPs, TestWalOptions());
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE((*wal)->AppendPageImage(0, PatternPage(kPs, 1)).ok());
  WalCommitMeta meta;
  meta.num_pages = 1;
  ASSERT_TRUE((*wal)->Commit(meta).ok());
  ASSERT_TRUE((*wal)->Checkpoint().ok());
  // Post-checkpoint appends land in the truncated log and replay alone.
  ASSERT_TRUE((*wal)->AppendPageImage(5, PatternPage(kPs, 7)).ok());
  meta.num_pages = 6;
  ASSERT_TRUE((*wal)->Commit(meta).ok());
  wal->reset();
  auto state = WriteAheadLog::Replay(path, kPs, TestWalOptions());
  ASSERT_TRUE(state.ok());
  EXPECT_TRUE(state->has_commit);
  EXPECT_EQ(state->meta.num_pages, 6u);
  ASSERT_EQ(state->pages.size(), 1u);
  EXPECT_EQ(state->pages.at(5), PatternPage(kPs, 7));
  ::unlink(path.c_str());
}

TEST(WalGroupCommitTest, ConcurrentProducersAllSurviveReplay) {
  const std::string path = TempPath("sdbenc_wal_group.wal");
  constexpr size_t kThreads = 8;
  constexpr size_t kCommitsPerThread = 16;
  {
    WalOptions options = TestWalOptions();
    options.group_commit_window_us = 100;
    auto wal = WriteAheadLog::Create(path, kPs, options);
    ASSERT_TRUE(wal.ok());
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t i = 0; i < kCommitsPerThread && !failed.load(); ++i) {
          const PageId id = t * kCommitsPerThread + i;
          if (!(*wal)
                   ->AppendPageImage(
                       id, PatternPage(kPs, static_cast<uint8_t>(id)))
                   .ok()) {
            failed.store(true);
            return;
          }
          WalCommitMeta meta;
          meta.num_pages = kThreads * kCommitsPerThread;
          if (!(*wal)->Commit(meta).ok()) failed.store(true);
        }
      });
    }
    for (std::thread& t : threads) t.join();
    ASSERT_FALSE(failed.load());
  }
  auto state = WriteAheadLog::Replay(path, kPs, TestWalOptions());
  ASSERT_TRUE(state.ok()) << state.status().message();
  ASSERT_TRUE(state->has_commit);
  ASSERT_EQ(state->pages.size(), kThreads * kCommitsPerThread);
  for (const auto& [id, payload] : state->pages) {
    EXPECT_EQ(payload, PatternPage(kPs, static_cast<uint8_t>(id))) << id;
  }
  ::unlink(path.c_str());
}

// ------------------------------------------------- engine-level recovery

FileStorageEngine::Options WalEngineOptions() {
  FileStorageEngine::Options o;
  o.page_size = kPs;
  o.pool_pages = 8;  // small pool: recovery must survive evictions too
  o.enable_wal = true;
  o.wal_key = Bytes(16, 0x44);
  return o;
}

TEST(FileEngineRecoveryTest, CommitBatchSurvivesCrashWithoutFlush) {
  const std::string path = TempPath("sdbenc_engine_recover.pages");
  constexpr int kPages = 24;
  {
    auto engine = FileStorageEngine::Create(path, WalEngineOptions());
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < kPages; ++i) {
      auto id = (*engine)->Allocate();
      ASSERT_TRUE(id.ok());
      ASSERT_TRUE(
          (*engine)
              ->Write(*id, PatternPage(kPs, static_cast<uint8_t>(i)))
              .ok());
    }
    (*engine)->set_root_record(99);
    ASSERT_TRUE((*engine)->CommitBatch().ok());
    // Engine destroyed with dirty frames and no Flush(): the page file
    // header still says zero pages. Only the WAL knows the truth.
  }
  auto reopened = FileStorageEngine::Open(path, WalEngineOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->num_pages(), static_cast<uint64_t>(kPages));
  EXPECT_EQ((*reopened)->root_record(), 99u);
  for (int i = 0; i < kPages; ++i) {
    Bytes back;
    ASSERT_TRUE((*reopened)->Read(i, &back).ok());
    EXPECT_EQ(back, PatternPage(kPs, static_cast<uint8_t>(i))) << i;
  }
  reopened->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(FileEngineRecoveryTest, UncommittedWritesRollBackToLastCommit) {
  const std::string path = TempPath("sdbenc_engine_rollback.pages");
  {
    auto engine = FileStorageEngine::Create(path, WalEngineOptions());
    ASSERT_TRUE(engine.ok());
    auto id = (*engine)->Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE((*engine)->Write(*id, PatternPage(kPs, 1)).ok());
    ASSERT_TRUE((*engine)->CommitBatch().ok());
    // Overwritten but never committed: must roll back on reopen.
    ASSERT_TRUE((*engine)->Write(*id, PatternPage(kPs, 2)).ok());
  }
  auto reopened = FileStorageEngine::Open(path, WalEngineOptions());
  ASSERT_TRUE(reopened.ok());
  Bytes back;
  ASSERT_TRUE((*reopened)->Read(0, &back).ok());
  EXPECT_EQ(back, PatternPage(kPs, 1));
  reopened->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

// Fresh pages skip the WAL until a commit covers them. Through an 8-frame
// pool, 56 of these 64 are evicted unlogged and made durable by the
// commit's page-file sync; the 8 still resident are logged by the commit.
TEST(FileEngineRecoveryTest, UnloggedPagesSurviveCommitWithoutFlush) {
  const std::string path = TempPath("sdbenc_engine_unlogged.pages");
  constexpr int kPages = 64;
  {
    auto engine = FileStorageEngine::Create(path, WalEngineOptions());
    ASSERT_TRUE(engine.ok());
    for (int i = 0; i < kPages; ++i) {
      auto id = (*engine)->Allocate();
      ASSERT_TRUE(id.ok());
      const Bytes page = PatternPage(kPs, static_cast<uint8_t>(i));
      ASSERT_TRUE((*engine)->Write(*id, page).ok());
    }
    ASSERT_TRUE((*engine)->CommitBatch().ok());
  }
  auto reopened = FileStorageEngine::Open(path, WalEngineOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->num_pages(), static_cast<uint64_t>(kPages));
  for (int i = 0; i < kPages; ++i) {
    Bytes back;
    ASSERT_TRUE((*reopened)->Read(i, &back).ok()) << i;
    EXPECT_EQ(back, PatternPage(kPs, static_cast<uint8_t>(i))) << i;
  }
  reopened->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

// The lost-update case: a page whose committed content reached the page
// file through a commit's sync, not the log, must get a before-image when
// it is next overwritten — else an uncommitted eviction destroys it.
TEST(FileEngineRecoveryTest, SyncCoveredPageSurvivesUncommittedEviction) {
  const std::string path = TempPath("sdbenc_engine_sync_covered.pages");
  {
    auto engine = FileStorageEngine::Create(path, WalEngineOptions());
    ASSERT_TRUE(engine.ok());
    auto write_fresh_pages = [&](int count, uint8_t seed) {
      for (int i = 0; i < count; ++i) {
        auto id = (*engine)->Allocate();
        ASSERT_TRUE(id.ok());
        const Bytes page = PatternPage(kPs, static_cast<uint8_t>(seed + i));
        ASSERT_TRUE((*engine)->Write(*id, page).ok());
      }
    };
    auto p = (*engine)->Allocate();
    ASSERT_TRUE(p.ok());
    ASSERT_TRUE((*engine)->Write(*p, PatternPage(kPs, 1)).ok());
    // Eight more pages push p out of the 8-frame pool, unlogged.
    write_fresh_pages(8, 100);
    // p joins the committed state through the page-file sync.
    ASSERT_TRUE((*engine)->CommitBatch().ok());
    ASSERT_TRUE((*engine)->Write(*p, PatternPage(kPs, 2)).ok());
    // Eight more evictions push the uncommitted overwrite to the file.
    write_fresh_pages(8, 200);
    auto file = ReadFile(path);
    ASSERT_TRUE(file.ok());
    const size_t offset = 64 + *p * (8 + kPs) + 8;
    ASSERT_GE(file->size(), offset + kPs);
    ASSERT_EQ(Bytes(file->begin() + offset, file->begin() + offset + kPs),
              PatternPage(kPs, 2))
        << "the uncommitted overwrite never reached the page file";
  }
  auto reopened = FileStorageEngine::Open(path, WalEngineOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  EXPECT_EQ((*reopened)->num_pages(), 9u);
  Bytes back;
  ASSERT_TRUE((*reopened)->Read(0, &back).ok());
  EXPECT_EQ(back, PatternPage(kPs, 1));
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE((*reopened)->Read(1 + i, &back).ok());
    EXPECT_EQ(back, PatternPage(kPs, static_cast<uint8_t>(100 + i))) << i;
  }
  reopened->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

// ------------------------------------------------------ simulated power cut

// A killed process loses nothing it wrote, because the OS page cache
// outlives it, so the kill-and-reopen tests below cannot see a write that
// was never fsynced. A power cut can. While a PowerCut is armed, every
// fsync of a watched file records the file's bytes as the sync returns
// (a write racing the sync may or may not be included, as on a disk), and
// Synced() hands back the last bytes recorded: what a power cut leaves.
class PowerCut {
 public:
  /// Arms the recorder; the files' current bytes count as synced.
  explicit PowerCut(std::vector<std::string> files)
      : files_(std::move(files)) {
    for (const std::string& file : files_) {
      auto bytes = ReadFile(file);
      synced_[file] = bytes.ok() ? *bytes : Bytes();
    }
    armed_.store(this);
  }
  ~PowerCut() { armed_.store(nullptr); }
  PowerCut(const PowerCut&) = delete;
  PowerCut& operator=(const PowerCut&) = delete;

  /// Runs `hook` once, on the thread whose next fsync of `file` has just
  /// returned, before that thread goes on.
  void AfterNextSync(const std::string& file, std::function<void()> hook) {
    const std::lock_guard<std::mutex> lock(mu_);
    hook_file_ = file;
    hook_ = std::move(hook);
  }

  /// The last synced bytes of every watched file, taken at one instant.
  std::map<std::string, Bytes> Synced() {
    const std::lock_guard<std::mutex> lock(mu_);
    return synced_;
  }

  static void Record(int fd) {
    PowerCut* cut = armed_.load();
    if (cut != nullptr) cut->RecordSync(fd);
  }

 private:
  void RecordSync(int fd) {
    struct stat synced_file;
    if (::fstat(fd, &synced_file) != 0) return;
    std::function<void()> hook;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      for (const std::string& file : files_) {
        struct stat watched;
        if (::stat(file.c_str(), &watched) != 0 ||
            watched.st_dev != synced_file.st_dev ||
            watched.st_ino != synced_file.st_ino) {
          continue;
        }
        auto bytes = ReadFile(file);
        if (bytes.ok()) synced_[file] = std::move(*bytes);
        if (file == hook_file_) hook = std::exchange(hook_, nullptr);
      }
    }
    if (hook) hook();
  }

  static inline std::atomic<PowerCut*> armed_{nullptr};
  const std::vector<std::string> files_;
  std::mutex mu_;
  std::map<std::string, Bytes> synced_;
  std::string hook_file_;
  std::function<void()> hook_;
};

void RecordFsync(int fd) { PowerCut::Record(fd); }

// Opens what a power cut at this instant leaves of `path` and its log,
// copied to `copy`.
StatusOr<std::unique_ptr<FileStorageEngine>> OpenAfterPowerCut(
    PowerCut& cut, const std::string& path, const std::string& copy,
    const FileStorageEngine::Options& options) {
  std::map<std::string, Bytes> synced = cut.Synced();
  SDBENC_RETURN_IF_ERROR(WriteFileAtomic(copy, synced[path]));
  SDBENC_RETURN_IF_ERROR(
      WriteFileAtomic(copy + ".wal", synced[path + ".wal"]));
  return FileStorageEngine::Open(copy, options);
}

// Two commits overlap. While commit A's page-file sync is in flight,
// commit B settles the stripe and clears its eviction list, and then a
// writer evicts two fresh pages unlogged. A's sync began before those
// write-backs, so A must sync again before marking them covered: the
// writer's own commit finds nothing left to cover and relies on it.
TEST(FileEngineRecoveryTest, OverlappingCommitsSyncEveryUnloggedEviction) {
  const std::string path = TempPath("sdbenc_engine_overlap.pages");
  const std::string copy = path + ".cut";
  std::vector<Bytes> expected;  // indexed by page id
  auto engine = FileStorageEngine::Create(path, WalEngineOptions());
  ASSERT_TRUE(engine.ok());
  FileStorageEngine& e = **engine;
  auto write_fresh_pages = [&](int count) {
    for (int i = 0; i < count; ++i) {
      auto id = e.Allocate();
      ASSERT_TRUE(id.ok());
      ASSERT_EQ(*id, expected.size());
      expected.push_back(PatternPage(kPs, static_cast<uint8_t>(*id)));
      ASSERT_TRUE(e.Write(*id, expected.back()).ok());
    }
  };
  write_fresh_pages(1);
  ASSERT_TRUE(e.Flush().ok());  // a synced image and an empty log
  PowerCut cut({path, path + ".wal"});
  // The 8-frame pool writes back pages 1-3 unlogged.
  write_fresh_pages(11);
  cut.AfterNextSync(path, [&] {
    ASSERT_TRUE(e.CommitBatch().ok());  // B
    // Pages 4-11 now have afterimages; 12 and 13 leave unlogged.
    write_fresh_pages(10);
  });
  ASSERT_TRUE(e.CommitBatch().ok());  // A
  ASSERT_TRUE(e.CommitBatch().ok());  // the writer's commit
  auto reopened = OpenAfterPowerCut(cut, path, copy, WalEngineOptions());
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ASSERT_EQ((*reopened)->num_pages(), expected.size());
  for (PageId id = 0; id < expected.size(); ++id) {
    Bytes back;
    ASSERT_TRUE((*reopened)->Read(id, &back).ok()) << "page " << id;
    EXPECT_EQ(back, expected[id]) << "page " << id;
  }
  reopened->reset();
  engine->reset();
  for (const std::string& f : {path, path + ".wal", copy, copy + ".wal"}) {
    ::unlink(f.c_str());
  }
}

// Threads write fresh pages and commit at once through a small striped
// pool, so unlogged evictions race other threads' commits. The moment a
// commit returns, its thread cuts the power on a copy: every page that
// thread has committed must read back.
TEST(FileEngineRecoveryTest, ConcurrentCommittersLoseNothingToPowerCut) {
  constexpr int kThreads = 4;
  constexpr int kCommits = 30;
  constexpr int kPagesPerCommit = 3;
  const std::string path = TempPath("sdbenc_engine_power_cut.pages");
  FileStorageEngine::Options options = WalEngineOptions();
  options.pool_pages = 16;  // two stripes of 8 frames
  auto engine = FileStorageEngine::Create(path, options);
  ASSERT_TRUE(engine.ok());
  FileStorageEngine& e = **engine;
  ASSERT_TRUE(e.Flush().ok());
  PowerCut cut({path, path + ".wal"});
  auto tagged_page = [](uint64_t tag) {
    Bytes page = PatternPage(kPs, static_cast<uint8_t>(tag));
    PutUint64Be(page.data(), tag);
    return page;
  };
  std::vector<std::string> errors(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::string copy = path + ".cut" + std::to_string(t);
      std::vector<std::pair<PageId, uint64_t>> committed;
      for (int c = 0; c < kCommits && errors[t].empty(); ++c) {
        for (int p = 0; p < kPagesPerCommit; ++p) {
          auto id = e.Allocate();
          const uint64_t tag = (uint64_t{1} << 32) * t + c * 16 + p;
          if (!id.ok() || !e.Write(*id, tagged_page(tag)).ok()) {
            errors[t] = "write failed";
            return;
          }
          committed.emplace_back(*id, tag);
        }
        if (!e.CommitBatch().ok()) {
          errors[t] = "commit failed";
          return;
        }
        auto reopened = OpenAfterPowerCut(cut, path, copy, options);
        if (!reopened.ok()) {
          errors[t] = "reopen failed: " + reopened.status().message();
          return;
        }
        for (const auto& [id, tag] : committed) {
          Bytes back;
          if (!(*reopened)->Read(id, &back).ok() || back != tagged_page(tag)) {
            errors[t] = "commit " + std::to_string(c) + " lost page " +
                        std::to_string(id);
            break;
          }
        }
      }
      ::unlink(copy.c_str());
      ::unlink((copy + ".wal").c_str());
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
  }
  engine->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

// ------------------------------------------- what the WAL and fsyncs cost

struct IoCounts {
  uint64_t wal_records, wal_fsyncs, page_file_syncs;
};

IoCounts SnapshotIo() {
  const obs::MetricsSnapshot s = obs::Registry().Snapshot();
  return {s.CounterValue("sdbenc_wal_records_total"),
          s.CounterValue("sdbenc_wal_fsyncs_total"),
          s.CounterValue("sdbenc_storage_page_file_syncs_total")};
}

IoCounts Since(const IoCounts& before) {
  const IoCounts now = SnapshotIo();
  return {now.wal_records - before.wal_records,
          now.wal_fsyncs - before.wal_fsyncs,
          now.page_file_syncs - before.page_file_syncs};
}

TEST(WalCostTest, FlushOfFreshPagesLogsOnlyResidentFrames) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const std::string path = TempPath("sdbenc_wal_cost_fresh.pages");
  constexpr int kPages = 1000;
  auto engine = FileStorageEngine::Create(path, WalEngineOptions());
  ASSERT_TRUE(engine.ok());
  const IoCounts before = SnapshotIo();
  for (int i = 0; i < kPages; ++i) {
    auto id = (*engine)->Allocate();
    ASSERT_TRUE(id.ok());
    const Bytes page = PatternPage(kPs, static_cast<uint8_t>(i));
    ASSERT_TRUE((*engine)->Write(*id, page).ok());
  }
  ASSERT_TRUE((*engine)->Flush().ok());
  const IoCounts cost = Since(before);
  // The 8 frames still resident get afterimages, plus one commit record.
  EXPECT_LE(cost.wal_records, 8u + 1u);
  // Commit's page-file sync, the commit's WAL fsync, the checkpoint sync.
  EXPECT_EQ(cost.page_file_syncs, 2u);
  EXPECT_LE(cost.wal_fsyncs + cost.page_file_syncs, 3u);
  engine->reset();
  auto reopened = FileStorageEngine::Open(path, WalEngineOptions());
  ASSERT_TRUE(reopened.ok());
  for (int i = 0; i < kPages; i += 37) {
    Bytes back;
    ASSERT_TRUE((*reopened)->Read(i, &back).ok());
    EXPECT_EQ(back, PatternPage(kPs, static_cast<uint8_t>(i))) << i;
  }
  reopened->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(WalCostTest, CheckpointedPageOverwriteLogsBeforeAndAfterImage) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const std::string path = TempPath("sdbenc_wal_cost_checkpointed.pages");
  auto engine = FileStorageEngine::Create(path, WalEngineOptions());
  ASSERT_TRUE(engine.ok());
  auto id = (*engine)->Allocate();
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE((*engine)->Write(*id, PatternPage(kPs, 1)).ok());
  ASSERT_TRUE((*engine)->Flush().ok());
  const IoCounts before = SnapshotIo();
  ASSERT_TRUE((*engine)->Write(*id, PatternPage(kPs, 2)).ok());
  EXPECT_EQ(Since(before).wal_records, 2u);  // before-image + afterimage
  ASSERT_TRUE((*engine)->CommitBatch().ok());
  const IoCounts cost = Since(before);
  EXPECT_EQ(cost.wal_records, 3u);  // ... + the commit record
  EXPECT_EQ(cost.page_file_syncs, 0u);
  engine->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

TEST(WalCostTest, CommitWithoutUnloggedEvictionSkipsPageFileSync) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  const std::string path = TempPath("sdbenc_wal_cost_resident.pages");
  auto engine = FileStorageEngine::Create(path, WalEngineOptions());
  ASSERT_TRUE(engine.ok());
  const IoCounts before = SnapshotIo();
  for (int i = 0; i < 4; ++i) {  // fits the 8-frame pool
    auto id = (*engine)->Allocate();
    ASSERT_TRUE(id.ok());
    const Bytes page = PatternPage(kPs, static_cast<uint8_t>(i));
    ASSERT_TRUE((*engine)->Write(*id, page).ok());
  }
  EXPECT_EQ(Since(before).wal_records, 0u);  // fresh pages: unlogged
  ASSERT_TRUE((*engine)->CommitBatch().ok());
  const IoCounts cost = Since(before);
  EXPECT_EQ(cost.wal_records, 4u + 1u);
  EXPECT_EQ(cost.page_file_syncs, 0u);
  EXPECT_EQ(cost.wal_fsyncs, 1u);
  engine->reset();
  ::unlink(path.c_str());
  ::unlink((path + ".wal").c_str());
}

// ------------------------------------------------------------ frame CRC

// The byte-at-a-time table loop the slicing-by-8 CRC replaced.
uint32_t ByteWiseCrc32(BytesView data) {
  static const auto table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  for (const uint8_t b : data) {
    crc = table[(crc ^ b) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(WalCrcTest, MatchesCheckValueAndByteWiseLoop) {
  const Bytes check = BytesFromString("123456789");
  EXPECT_EQ(sdbenc::Crc32(check), 0xCBF43926u);
  EXPECT_EQ(sdbenc::Crc32(Bytes()), 0u);
  DeterministicRng rng(0xC4C);
  const Bytes buffer = rng.RandomBytes(9000 + 8);
  for (int trial = 0; trial < 64; ++trial) {
    const size_t len = rng.UniformUint64(9001);
    for (size_t start = 0; start < 8; ++start) {
      const BytesView view(buffer.data() + start, len);
      ASSERT_EQ(sdbenc::Crc32(view), ByteWiseCrc32(view))
          << "len " << len << " start " << start;
    }
  }
  for (size_t len = 0; len <= 64; ++len) {  // every tail length
    const BytesView view(buffer.data() + 3, len);
    ASSERT_EQ(sdbenc::Crc32(view), ByteWiseCrc32(view)) << "len " << len;
  }
}

// -------------------------------------------- kill-and-reopen crash test

// The child loads rows batch by batch, making each batch durable with
// CommitDurable() and then recording it in a progress side-file (fsynced),
// while a watchdog thread `_exit`s the process at a random instant. The
// parent replays the WAL on reopen and asserts that every batch the child
// recorded as committed is fully present and the database verifies clean.
// Exit codes: 2 = killed by watchdog, 3 = ran to completion, anything
// else = child-side setup failure.
constexpr int kBatches = 12;
constexpr int kRowsPerBatch = 8;

void CrashChild(const std::string& db_path, const std::string& progress_path,
                uint64_t seed, size_t pool_pages) {
  DeterministicRng rng(seed);
  // Kill window sized to the load: most children die mid-load, a few
  // complete. The watchdog starts before the first commit so even table
  // creation can be interrupted.
  const uint64_t kill_after_us = rng.UniformUint64(120000);
  std::thread watchdog([kill_after_us] {
    std::this_thread::sleep_for(std::chrono::microseconds(kill_after_us));
    ::_exit(2);
  });
  watchdog.detach();

  StorageOptions storage = StorageOptions::File(db_path, pool_pages);
  storage.page_size = 512;
  storage.enable_wal = true;
  auto db = SecureDatabase::Open(Bytes(16, 0x66), storage, /*rng_seed=*/7);
  if (!db.ok()) ::_exit(10);
  SecureTableOptions topt;
  topt.indexed_columns = {"k"};
  const Schema schema({{"k", ValueType::kInt64, true},
                       {"v", ValueType::kString, true}});
  if (!(*db)->CreateTable("t", schema, topt).ok()) ::_exit(11);
  if (!(*db)->CommitDurable().ok()) ::_exit(12);

  const int progress_fd =
      ::open(progress_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (progress_fd < 0) ::_exit(13);
  for (int b = 0; b < kBatches; ++b) {
    for (int r = 0; r < kRowsPerBatch; ++r) {
      const int64_t key = b * kRowsPerBatch + r;
      if (!(*db)
               ->Insert("t", {Value::Int(key),
                              Value::Str("row-" + std::to_string(key))})
               .ok()) {
        ::_exit(14);
      }
    }
    if (!(*db)->CommitDurable().ok()) ::_exit(15);
    // Record the committed batch; fsync so the parent's view of "what was
    // acknowledged" survives the kill exactly like the data must.
    char line[16];
    const int n = std::snprintf(line, sizeof(line), "%d\n", b);
    if (::write(progress_fd, line, n) != n) ::_exit(16);
    if (::fsync(progress_fd) != 0) ::_exit(17);
  }
  ::close(progress_fd);
  ::_exit(3);
}

int CountCommittedBatches(const std::string& progress_path) {
  std::FILE* f = std::fopen(progress_path.c_str(), "r");
  if (f == nullptr) return 0;
  int batches = 0, value = 0;
  while (std::fscanf(f, "%d", &value) == 1) batches = value + 1;
  std::fclose(f);
  return batches;
}

// Forks kIterations loaders on a `pool_pages`-frame buffer pool, kills
// each at a random instant, and checks every acknowledged batch after
// reopen.
void RunKilledLoads(size_t pool_pages) {
  constexpr int kIterations = 5;
  for (int iter = 0; iter < kIterations; ++iter) {
    const std::string db_path =
        TempPath("sdbenc_crash_" + std::to_string(pool_pages) + "_" +
                 std::to_string(iter) + ".sdb");
    const std::string progress_path = db_path + ".progress";
    ::unlink(db_path.c_str());
    ::unlink((db_path + ".wal").c_str());
    ::unlink(progress_path.c_str());

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Vary the kill point across iterations *and* runs: CI repeats this
      // test with fresh pids.
      const uint64_t seed = static_cast<uint64_t>(iter) * 7919u +
                            static_cast<uint64_t>(::getpid());
      CrashChild(db_path, progress_path, seed, pool_pages);
      ::_exit(99);  // unreachable
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "child did not exit cleanly";
    const int code = WEXITSTATUS(status);
    ASSERT_TRUE(code == 2 || code == 3)
        << "child setup failed with exit code " << code;

    const int committed = CountCommittedBatches(progress_path);
    SCOPED_TRACE("iteration " + std::to_string(iter) + ", killed=" +
                 std::to_string(code == 2) + ", committed batches=" +
                 std::to_string(committed));

    if (committed == 0) {
      // Killed before the first durable batch: nothing to verify beyond
      // "reopen either finds an empty/fresh session or a clean one".
      continue;
    }
    StorageOptions storage = StorageOptions::File(db_path);
    storage.page_size = 512;
    storage.enable_wal = true;
    auto db = SecureDatabase::Open(Bytes(16, 0x66), storage);
    ASSERT_TRUE(db.ok()) << db.status().message();
    ASSERT_TRUE((*db)->VerifyIntegrity().ok());
    for (int b = 0; b < committed; ++b) {
      for (int r = 0; r < kRowsPerBatch; ++r) {
        const int64_t key = b * kRowsPerBatch + r;
        auto rows = (*db)->SelectEquals("t", "k", Value::Int(key));
        ASSERT_TRUE(rows.ok()) << "batch " << b << " key " << key;
        ASSERT_EQ(rows->size(), 1u) << "batch " << b << " key " << key;
        EXPECT_EQ((*rows)[0][1].AsString(),
                  "row-" + std::to_string(key));
      }
    }
    db->reset();
    ::unlink(db_path.c_str());
    ::unlink((db_path + ".wal").c_str());
    ::unlink(progress_path.c_str());
  }
}

TEST(CrashRecoveryTest, KilledLoadLosesNoCommittedBatch) {
#ifdef SDBENC_TSAN
  GTEST_SKIP() << "fork-based crash harness is not TSan-compatible";
#endif
  RunKilledLoads(256);
}

// An 8-frame pool evicts fresh pages unlogged between commits, so kills
// land between those evictions and the page-file sync that covers them.
TEST(CrashRecoveryTest, KilledLoadOnTinyPoolLosesNoCommittedBatch) {
#ifdef SDBENC_TSAN
  GTEST_SKIP() << "fork-based crash harness is not TSan-compatible";
#endif
  RunKilledLoads(8);
}

}  // namespace
}  // namespace sdbenc
