#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/secure_database.h"
#include "db/row_codec.h"
#include "db/serialize.h"
#include "db/table.h"
#include "storage/buffer_pool.h"
#include "storage/file_storage_engine.h"
#include "storage/memory_storage_engine.h"
#include "storage/record_store.h"
#include "util/file.h"
#include "util/rng.h"

namespace sdbenc {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Bytes PatternPage(size_t page_size, uint8_t seed) {
  Bytes page(page_size);
  for (size_t i = 0; i < page_size; ++i) {
    page[i] = static_cast<uint8_t>(seed + i * 7);
  }
  return page;
}

// ------------------------------------------------------ engine contract

// Both engines must satisfy the same StorageEngine contract; the file
// engine is additionally run with a pool far smaller than the page count
// so every pattern survives eviction and re-fault.
void ExerciseEngineContract(StorageEngine& engine) {
  const size_t ps = engine.page_size();
  constexpr int kPages = 32;
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    auto id = engine.Allocate();
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
    ASSERT_TRUE(engine.Write(*id, PatternPage(ps, static_cast<uint8_t>(i)))
                    .ok());
  }
  EXPECT_EQ(engine.num_pages(), static_cast<uint64_t>(kPages));
  for (int i = 0; i < kPages; ++i) {
    Bytes back;
    ASSERT_TRUE(engine.Read(ids[i], &back).ok());
    EXPECT_EQ(back, PatternPage(ps, static_cast<uint8_t>(i))) << i;
  }
  // Short writes are zero-padded to a full page.
  ASSERT_TRUE(engine.Write(ids[0], Bytes{1, 2, 3}).ok());
  Bytes back;
  ASSERT_TRUE(engine.Read(ids[0], &back).ok());
  ASSERT_EQ(back.size(), ps);
  EXPECT_EQ(back[2], 3);
  EXPECT_EQ(back[3], 0);
  // Freed pages are recycled before the file grows.
  ASSERT_TRUE(engine.Free(ids[5]).ok());
  ASSERT_TRUE(engine.Free(ids[9]).ok());
  const uint64_t before = engine.num_pages();
  auto recycled = engine.Allocate();
  ASSERT_TRUE(recycled.ok());
  EXPECT_TRUE(*recycled == ids[5] || *recycled == ids[9]);
  EXPECT_EQ(engine.num_pages(), before);
  // Out-of-range ids are rejected, not UB.
  EXPECT_FALSE(engine.Read(1000000, &back).ok());
  EXPECT_FALSE(engine.Write(1000000, back).ok());
}

TEST(MemoryStorageEngineTest, SatisfiesContract) {
  MemoryStorageEngine engine(256);
  ExerciseEngineContract(engine);
  EXPECT_EQ(engine.stats().pool_evictions, 0u);
}

TEST(FileStorageEngineTest, SatisfiesContractWithTinyPool) {
  const std::string path = TempPath("sdbenc_engine_contract.pages");
  auto engine = FileStorageEngine::Create(path, 256, /*pool_pages=*/4);
  ASSERT_TRUE(engine.ok());
  ExerciseEngineContract(**engine);
  // 32 pages through 4 frames: eviction and re-faulting must have happened,
  // and re-faults are the pool misses.
  const StorageStats& stats = (*engine)->stats();
  EXPECT_GT(stats.pool_evictions, 0u);
  EXPECT_GT(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_hits, 0u);
  EXPECT_GT(stats.dirty_writebacks, 0u);
  std::remove(path.c_str());
}

TEST(FileStorageEngineTest, FlushReopenRoundTrip) {
  const std::string path = TempPath("sdbenc_engine_reopen.pages");
  constexpr int kPages = 12;
  {
    auto engine = FileStorageEngine::Create(path, 512, 4).value();
    for (int i = 0; i < kPages; ++i) {
      ASSERT_TRUE(engine->Write(engine->Allocate().value(),
                                PatternPage(512, static_cast<uint8_t>(i)))
                      .ok());
    }
    engine->set_root_record(42);
    ASSERT_TRUE(engine->Flush().ok());
  }  // destructor does NOT flush; only flushed state survives
  auto reopened = FileStorageEngine::Open(path, 4);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->page_size(), 512u);
  EXPECT_EQ((*reopened)->num_pages(), static_cast<uint64_t>(kPages));
  EXPECT_EQ((*reopened)->root_record(), 42u);
  for (int i = 0; i < kPages; ++i) {
    Bytes back;
    ASSERT_TRUE((*reopened)->Read(static_cast<PageId>(i), &back).ok());
    EXPECT_EQ(back, PatternPage(512, static_cast<uint8_t>(i))) << i;
  }
  std::remove(path.c_str());
}

TEST(FileStorageEngineTest, TamperedPageFailsAuthentication) {
  const std::string path = TempPath("sdbenc_engine_tamper.pages");
  {
    auto engine = FileStorageEngine::Create(path, 128, 4).value();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(engine->Write(engine->Allocate().value(),
                                PatternPage(128, static_cast<uint8_t>(i)))
                      .ok());
    }
    ASSERT_TRUE(engine->Flush().ok());
  }
  Bytes image = *ReadFile(path);
  // Flip one byte inside page 1's payload: 64-byte header, then
  // (8-byte checksum + 128-byte payload) per page.
  image[64 + 1 * (8 + 128) + 8 + 17] ^= 0x80;
  ASSERT_TRUE(WriteFileAtomic(path, image).ok());
  auto engine = FileStorageEngine::Open(path, 4);
  ASSERT_TRUE(engine.ok());  // header is intact
  Bytes back;
  EXPECT_TRUE((*engine)->Read(0, &back).ok());
  const Status tampered = (*engine)->Read(1, &back);
  EXPECT_EQ(tampered.code(), StatusCode::kAuthenticationFailed);
  std::remove(path.c_str());
}

TEST(FileStorageEngineTest, RejectsGarbageHeader) {
  const std::string path = TempPath("sdbenc_engine_garbage.pages");
  ASSERT_TRUE(WriteFileAtomic(path, BytesFromString("not a page file"))
                  .ok());
  EXPECT_FALSE(FileStorageEngine::Open(path, 4).ok());
  std::remove(path.c_str());
}

// -------------------------------------------------------- buffer pool

TEST(BufferPoolTest, EvictsLeastRecentlyUsedUnpinned) {
  BufferPool pool(2);
  ASSERT_TRUE(pool.Insert(1, Bytes{1}, false).ok());
  ASSERT_TRUE(pool.Insert(2, Bytes{2}, false).ok());
  ASSERT_NE(pool.Lookup(1), nullptr);  // promotes 1; LRU is now 2
  BufferPool::Frame victim;
  ASSERT_TRUE(pool.Evict(&victim).ok());
  EXPECT_EQ(victim.id, 2u);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_EQ(pool.Lookup(2), nullptr);
}

TEST(BufferPoolTest, PinnedFramesSurviveEviction) {
  BufferPool pool(2);
  BufferPool::Frame* f1 = pool.Insert(1, Bytes{1}, false).value();
  ASSERT_TRUE(pool.Insert(2, Bytes{2}, false).ok());
  PinGuard pin(f1);
  pool.Lookup(2);  // frame 1 is LRU but pinned
  BufferPool::Frame victim;
  ASSERT_TRUE(pool.Evict(&victim).ok());
  EXPECT_EQ(victim.id, 2u);  // the unpinned one went instead
  // With the survivor pinned too, eviction must fail, not loop.
  BufferPool::Frame* f1_again = pool.Lookup(1);
  ASSERT_EQ(f1_again, f1);
  EXPECT_FALSE(pool.Evict(&victim).ok());
}

// ------------------------------------------------------- record store

void ExerciseRecordStore(StorageEngine& engine) {
  RecordStore store(&engine);
  const size_t ps = engine.page_size();
  // Small record, one page.
  const RecordId small = store.Put(Bytes{9, 8, 7}).value();
  ASSERT_NE(small, kNoRecord);
  EXPECT_EQ(store.Get(small).value(), (Bytes{9, 8, 7}));
  // Multi-page record.
  const Bytes big = PatternPage(ps * 3 + 123, 0x5a);
  const RecordId chain = store.Put(big).value();
  EXPECT_EQ(store.Get(chain).value(), big);
  // Update in place: grow, then shrink, id stays valid throughout.
  const Bytes bigger = PatternPage(ps * 5, 0xa5);
  ASSERT_TRUE(store.Update(chain, bigger).ok());
  EXPECT_EQ(store.Get(chain).value(), bigger);
  const uint64_t pages_at_peak = engine.num_pages();
  ASSERT_TRUE(store.Update(chain, Bytes{1}).ok());
  EXPECT_EQ(store.Get(chain).value(), Bytes{1});
  EXPECT_EQ(store.Get(small).value(), (Bytes{9, 8, 7}));
  // The shrink released its tail pages: a fresh multi-page record fits in
  // recycled pages without growing the file.
  const RecordId reuse = store.Put(PatternPage(ps * 2, 0x11)).value();
  EXPECT_EQ(engine.num_pages(), pages_at_peak);
  ASSERT_TRUE(store.Free(reuse).ok());
  // Empty record round-trips.
  const RecordId empty = store.Put(Bytes()).value();
  EXPECT_EQ(store.Get(empty).value(), Bytes());
  // kNoRecord is never handed out and never readable.
  EXPECT_FALSE(store.Get(kNoRecord).ok());
}

TEST(RecordStoreTest, RoundTripsOnMemoryEngine) {
  MemoryStorageEngine engine(256);
  ExerciseRecordStore(engine);
}

TEST(RecordStoreTest, RoundTripsOnFileEngineWithTinyPool) {
  const std::string path = TempPath("sdbenc_records.pages");
  auto engine = FileStorageEngine::Create(path, 256, 3).value();
  ExerciseRecordStore(*engine);
  EXPECT_GT(engine->stats().pool_evictions, 0u);
  std::remove(path.c_str());
}

// ------------------------------- SecureDatabase on a file substrate

Schema PeopleSchema() {
  return Schema({{"id", ValueType::kInt64, true},
                 {"name", ValueType::kString, true}});
}

Status FillPeople(SecureDatabase& db, int n) {
  SecureTableOptions options;
  options.indexed_columns = {"name"};
  SDBENC_RETURN_IF_ERROR(db.CreateTable("people", PeopleSchema(), options));
  for (int i = 0; i < n; ++i) {
    SDBENC_RETURN_IF_ERROR(
        db.Insert("people",
                  {Value::Int(i), Value::Str("n" + std::to_string(i % 10))})
            .status());
  }
  return OkStatus();
}

// The whole engine runs unchanged on a file substrate whose pool is far
// smaller than the working set — the acceptance bar of the refactor.
TEST(SecureDatabaseStorageTest, WorksOnFileBackendSmallerThanWorkingSet) {
  const std::string path = TempPath("sdbenc_db_small_pool.pages");
  std::remove(path.c_str());
  const Bytes key(32, 0x2f);
  {
    auto db =
        SecureDatabase::Open(key, StorageOptions::File(path, 8), 55).value();
    ASSERT_TRUE(FillPeople(*db, 80).ok());
    ASSERT_TRUE(db->Flush().ok());
    // A fresh session is write-back cached above the engine: filling it
    // writes pages but never needs to read one back.
    EXPECT_GT(db->storage_engine()->stats().pool_evictions, 0u);
  }
  // Reopening is where the pool earns its keep: catalog, 80 row records
  // and the index nodes all fault through 8 frames.
  auto db =
      SecureDatabase::Open(key, StorageOptions::File(path, 8), 56).value();
  auto rows = db->SelectEquals("people", "name", Value::Str("n3"));
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 8u);
  auto range = db->SelectRange("people", "id", Value::Int(10),
                               Value::Int(19));
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(range->size(), 10u);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  ASSERT_TRUE(
      db->Insert("people", {Value::Int(200), Value::Str("n3")}).ok());
  ASSERT_TRUE(db->Flush().ok());
  EXPECT_EQ(db->SelectEquals("people", "name", Value::Str("n3"))->size(),
            9u);

  const StorageStats& stats = db->storage_engine()->stats();
  EXPECT_GT(db->storage_engine()->num_pages(), 8u);
  EXPECT_GT(stats.pool_evictions, 0u);
  EXPECT_GT(stats.pool_misses, 0u);
  EXPECT_GT(stats.pool_hits, 0u);
  std::remove(path.c_str());
}

TEST(SecureDatabaseStorageTest, FlushReopenPreservesEverything) {
  const std::string path = TempPath("sdbenc_db_flush_reopen.pages");
  std::remove(path.c_str());
  const Bytes key(32, 0x2f);
  {
    auto db = SecureDatabase::Open(key, StorageOptions::File(path, 8), 55)
                  .value();
    ASSERT_TRUE(FillPeople(*db, 40).ok());
    ASSERT_TRUE(db->Delete("people", 7).ok());
    ASSERT_TRUE(db->Flush().ok());
  }  // no SaveToFile: the flushed page file IS the database
  {
    auto db = SecureDatabase::Open(key, StorageOptions::File(path, 8), 56)
                  .value();
    EXPECT_TRUE(db->HasIndex("people", "name"));
    EXPECT_EQ(db->SelectEquals("people", "name", Value::Str("n3"))->size(),
              4u);
    EXPECT_FALSE(db->GetRow("people", 7).ok());  // tombstone survived
    // Incremental writes keep working across reopen cycles.
    ASSERT_TRUE(
        db->Insert("people", {Value::Int(100), Value::Str("n3")}).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto db = SecureDatabase::OpenFromFile(key, path, 57).value();
  EXPECT_EQ(db->SelectEquals("people", "name", Value::Str("n3"))->size(),
            5u);
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  std::remove(path.c_str());
}

// Opening a saved file must not decrypt the indexes: the trees' decode
// counters stay at zero until a query actually walks them.
TEST(SecureDatabaseStorageTest, OpenDecryptsNothingUntilQueried) {
  const std::string path = TempPath("sdbenc_db_lazy_open.sdb");
  const Bytes key(32, 0x2f);
  {
    auto db = SecureDatabase::Open(key, 55).value();
    ASSERT_TRUE(FillPeople(*db, 60).ok());
    ASSERT_TRUE(db->SaveToFile(path).ok());
  }
  auto db = SecureDatabase::OpenFromFile(key, path, 56).value();
  const SecureDatabase::TableState* state =
      db->GetTableState("people").value();
  ASSERT_EQ(state->indexes.size(), 1u);
  const BPlusTree& tree = state->indexes[0].index->tree();
  EXPECT_EQ(tree.decode_calls(), 0u);
  EXPECT_EQ(tree.encode_calls(), 0u);
  // First index-backed query faults nodes in and starts decrypting.
  ASSERT_TRUE(db->SelectEquals("people", "name", Value::Str("n3")).ok());
  EXPECT_GT(tree.decode_calls(), 0u);
  std::remove(path.c_str());
}

// The satellite tamper case: one flipped byte in a persisted *index* page
// is invisible to the (lazy) open but must surface as
// kAuthenticationFailed on the next touch of that index.
TEST(SecureDatabaseStorageTest, TamperedIndexPageFailsOnNextTouch) {
  const std::string path = TempPath("sdbenc_db_index_tamper.sdb");
  const Bytes key(32, 0x2f);
  {
    auto db = SecureDatabase::Open(key, 55).value();
    SecureTableOptions options;
    options.indexed_columns = {"name"};
    ASSERT_TRUE(db->CreateTable("people", PeopleSchema(), options).ok());
    // Few enough rows that the whole index is one node: any page the open
    // path skips must be that node's page.
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(db->Insert("people", {Value::Int(i),
                                        Value::Str("n" + std::to_string(i))})
                      .ok());
    }
    ASSERT_TRUE(db->SaveToFile(path).ok());
  }
  const Bytes clean = *ReadFile(path);
  const size_t page_size = kDefaultPageSize;
  const size_t num_pages = (clean.size() - 64) / (8 + page_size);
  bool found_lazy_page = false;
  for (size_t p = 0; p < num_pages; ++p) {
    Bytes image = clean;
    image[64 + p * (8 + page_size) + 8 + 3] ^= 0x01;
    ASSERT_TRUE(WriteFileAtomic(path, image).ok());
    auto db = SecureDatabase::OpenFromFile(key, path, 56);
    if (!db.ok()) continue;  // catalog or row page: caught at open
    found_lazy_page = true;
    auto rows = (*db)->SelectEquals("people", "name", Value::Str("n3"));
    EXPECT_FALSE(rows.ok()) << "page " << p;
    EXPECT_EQ(rows.status().code(), StatusCode::kAuthenticationFailed)
        << "page " << p;
  }
  EXPECT_TRUE(found_lazy_page);
  std::remove(path.c_str());
}

// Wrong master key on a file-backend open dies on the keycheck token,
// before any cell or index page is read.
TEST(SecureDatabaseStorageTest, WrongKeyRejectedByKeycheck) {
  const std::string path = TempPath("sdbenc_db_keycheck.pages");
  std::remove(path.c_str());
  {
    auto db = SecureDatabase::Open(Bytes(32, 0x2f),
                                   StorageOptions::File(path, 8), 55)
                  .value();
    ASSERT_TRUE(FillPeople(*db, 4).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  auto wrong = SecureDatabase::Open(Bytes(32, 0x30),
                                    StorageOptions::File(path, 8), 56);
  ASSERT_FALSE(wrong.ok());
  EXPECT_EQ(wrong.status().code(), StatusCode::kAuthenticationFailed);
  std::remove(path.c_str());
}

// ------------------------------------------------------------ row groups

// Cells of `n` rows with deterministic pseudo-random lengths in
// [min_len, max_len].
std::vector<std::vector<Bytes>> RandomRows(size_t n, size_t min_len,
                                           size_t max_len, uint64_t seed) {
  DeterministicRng rng(seed);
  std::vector<std::vector<Bytes>> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        {rng.RandomBytes(8),
         rng.RandomBytes(min_len + rng.UniformUint64(max_len - min_len + 1))});
  }
  return rows;
}

Schema TwoCellSchema() {
  return Schema({{"k", ValueType::kInt64, true},
                 {"v", ValueType::kString, true}});
}

// Small rows share pages: greedy packing fills every page but the last to
// within one row slot of the payload, so the table costs at most one page
// more than its encoded bytes need — not one page per row.
TEST(RowGroupTest, SmallRowsSharePages) {
  MemoryStorageEngine engine(kDefaultPageSize);
  RecordStore store(&engine);
  Table table(1, "t", TwoCellSchema());
  const auto rows = RandomRows(500, 10, 120, 3);
  size_t bytes = 0;
  for (const auto& row : rows) {
    ASSERT_TRUE(table.AppendRow(row).ok());
    bytes += RowGroupSlotSize(row);
  }
  ASSERT_TRUE(table.FlushRows(store).ok());
  const uint64_t payload = store.payload_size();
  const uint64_t needed = (bytes + payload - 1) / payload;
  EXPECT_LE(engine.num_pages(), needed + 1);
  EXPECT_LT(engine.num_pages(), rows.size() / 10);

  const auto ids = table.GroupRecordIds().value();
  EXPECT_EQ(ids.size(), engine.num_pages());
  Table reloaded(1, "t", TwoCellSchema());
  ASSERT_TRUE(
      reloaded.LoadRows(store, ids, Table::RowDirectory::kRowGroups).ok());
  ASSERT_EQ(reloaded.num_rows(), rows.size());
  for (uint64_t r = 0; r < rows.size(); ++r) {
    EXPECT_EQ(reloaded.cell(r, 1).value(), BytesView(rows[r][1])) << r;
  }
}

// A row larger than one page payload is never packed with neighbours: it
// sits alone in its group (a chain), and the rows around it pack as usual.
TEST(RowGroupTest, RowLargerThanPageSitsAlone) {
  MemoryStorageEngine engine(kDefaultPageSize);
  RecordStore store(&engine);
  Table table(1, "t", TwoCellSchema());
  auto rows = RandomRows(5, 20, 20, 4);
  rows[2][1] = Bytes(store.payload_size() + 500, 0x5a);
  for (const auto& row : rows) ASSERT_TRUE(table.AppendRow(row).ok());
  ASSERT_TRUE(table.FlushRows(store).ok());
  const auto ids = table.GroupRecordIds().value();
  ASSERT_EQ(ids.size(), 3u);
  std::vector<size_t> counts;
  for (const RecordId id : ids) {
    counts.push_back(DecodeRowGroup(store.Get(id).value()).value().size());
  }
  EXPECT_EQ(counts, (std::vector<size_t>{2, 1, 2}));
  // The same packing applies to rows appended after a flush: they join the
  // open tail group while it has room.
  ASSERT_TRUE(table.AppendRow(RandomRows(1, 20, 20, 5)[0]).ok());
  ASSERT_TRUE(table.FlushRows(store).ok());
  EXPECT_EQ(table.GroupRecordIds().value(), ids);
}

// Reads the on-disk page file as its format describes it: the header's
// page count and free-list head, each free page's link, and the length of
// any record chain.
class PageFileShape {
 public:
  explicit PageFileShape(const std::string& path)
      : file_(ReadFile(path).value()),
        page_size_(GetUint32Be(file_.data() + 8)),
        num_pages_(GetUint64Be(file_.data() + 16)) {}

  uint64_t num_pages() const { return num_pages_; }
  RecordId root() const { return GetUint64Be(file_.data() + 32); }

  uint64_t FreePages() const {
    uint64_t n = 0;
    for (PageId p = GetUint64Be(file_.data() + 24);
         p != kInvalidPageId && n <= num_pages_; p = GetUint64Be(Payload(p))) {
      ++n;
    }
    return n;
  }

  uint64_t ChainPages(RecordId id) const {
    uint64_t n = 0;
    for (uint64_t link = id; link != 0 && n <= num_pages_;
         link = GetUint64Be(Payload(link - 1))) {
      ++n;
    }
    return n;
  }

  uint32_t CatalogVersion() const {
    return GetUint32Be(Payload(root() - 1) + 12);
  }

 private:
  const uint8_t* Payload(PageId p) const {
    return file_.data() + 64 + p * (8 + page_size_) + 8;
  }

  Bytes file_;
  size_t page_size_;
  uint64_t num_pages_;
};

const Table& RawTable(const SecureDatabase& db, const std::string& name) {
  return db.GetTableState(name).value()->encrypted_table->table();
}

// For a database without indexes every page is the catalog's, a row
// group's, or on the free list.
void ExpectNoLeakedPage(const SecureDatabase& db, const std::string& path) {
  const PageFileShape shape(path);
  uint64_t used = shape.ChainPages(shape.root());
  const std::vector<RecordId> groups =
      RawTable(db, "notes").GroupRecordIds().value();
  for (const RecordId id : groups) used += shape.ChainPages(id);
  EXPECT_EQ(shape.num_pages(), used + shape.FreePages());
}

Schema NotesSchema() {
  return Schema({{"id", ValueType::kInt64, false},
                 {"note", ValueType::kString, true}});
}

std::string Note(int i) { return "note-" + std::to_string(i * 7919); }

// An UPDATE that grows a row past its group's page turns the group into a
// chain; shrinking it back frees the tail. Record ids never move, no page
// leaks, and the result survives reopen.
TEST(RowGroupTest, GrowThenShrinkKeepsRecordIdsAndFreesTail) {
  const std::string path = TempPath("sdbenc_rowgroup_grow.pages");
  std::remove(path.c_str());
  const Bytes key(32, 0x31);
  std::vector<RecordId> ids;
  {
    auto db = SecureDatabase::Open(key, StorageOptions::File(path, 8), 1)
                  .value();
    ASSERT_TRUE(db->CreateTable("notes", NotesSchema(), {}).ok());
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE(db->Insert("notes", {Value::Int(i), Value::Str(Note(i))})
                      .ok());
    }
    ASSERT_TRUE(db->Flush().ok());
    ids = RawTable(*db, "notes").GroupRecordIds().value();
    ASSERT_GT(ids.size(), 1u);
    ASSERT_LT(ids.size(), 20u);
    const uint64_t pages_before = PageFileShape(path).num_pages();

    ASSERT_TRUE(db->Update("notes", 5, "note",
                           Value::Str(std::string(3 * kDefaultPageSize, 'x')))
                    .ok());
    ASSERT_TRUE(db->Flush().ok());
    EXPECT_EQ(RawTable(*db, "notes").GroupRecordIds().value(), ids);
    const PageFileShape grown(path);
    EXPECT_GE(grown.num_pages(), pages_before + 3);
    EXPECT_GE(grown.ChainPages(ids[0]), 4u);
    ExpectNoLeakedPage(*db, path);

    ASSERT_TRUE(db->Update("notes", 5, "note", Value::Str(Note(5))).ok());
    ASSERT_TRUE(db->Flush().ok());
    EXPECT_EQ(RawTable(*db, "notes").GroupRecordIds().value(), ids);
    const PageFileShape shrunk(path);
    EXPECT_EQ(shrunk.ChainPages(ids[0]), 1u);
    EXPECT_GE(shrunk.FreePages(), grown.FreePages() + 3);
    ExpectNoLeakedPage(*db, path);
  }
  auto db =
      SecureDatabase::Open(key, StorageOptions::File(path, 8), 2).value();
  EXPECT_EQ(RawTable(*db, "notes").GroupRecordIds().value(), ids);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(db->GetRow("notes", i).value()[1].AsString(), Note(i)) << i;
  }
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// Rewrites a flushed catalog-v3 page file into the catalog-v2 layout, one
// bare row record per row, exactly as a file written before row groups.
void DowngradeToPerRowCatalog(const std::string& path) {
  auto engine = FileStorageEngine::Open(path, 64).value();
  RecordStore store(engine.get());
  const RecordId root = engine->root_record();
  const Bytes catalog = store.Get(root).value();
  BinaryReader r(catalog);
  BinaryWriter w;
  ASSERT_EQ(r.GetU32().value(), 3u);
  w.PutU32(2);
  w.PutBytes(r.GetBytes().value());     // keycheck
  w.PutU64(r.GetU64().value());         // next index table id
  ASSERT_EQ(r.GetU32().value(), 1u);    // one table
  w.PutU32(1);
  w.PutU64(r.GetU64().value());         // table id
  w.PutString(r.GetString().value());   // name
  const uint32_t ncols = r.GetU32().value();
  w.PutU32(ncols);
  for (uint32_t c = 0; c < ncols; ++c) {
    w.PutString(r.GetString().value());
    w.PutU8(r.GetU8().value());
    w.PutU8(r.GetU8().value());
  }
  std::vector<RowRecord> rows;
  const uint64_t n_groups = r.GetU64().value();
  for (uint64_t g = 0; g < n_groups; ++g) {
    const RecordId id = r.GetU64().value();
    std::vector<RowRecord> group =
        DecodeRowGroup(store.Get(id).value()).value();
    for (RowRecord& row : group) rows.push_back(std::move(row));
    ASSERT_TRUE(store.Free(id).ok());
  }
  w.PutU64(rows.size());
  for (const RowRecord& row : rows) {
    Bytes record(EncodedRowSize(row.cells));
    EncodeRowTo(row.cells, row.deleted, record.data());
    w.PutU64(store.Put(record).value());
  }
  // The rest (codec, index order, indexes, sealed stats) is unchanged.
  Bytes image = w.Take();
  const size_t tail = catalog.size() - r.Remaining();
  image.insert(image.end(), catalog.begin() + tail, catalog.end());
  ASSERT_TRUE(store.Update(root, image).ok());
  ASSERT_TRUE(engine->Flush().ok());
}

// A catalog-v2 file (one page per row) opens, and its next flush repacks
// the rows into groups, writes catalog v3, frees every per-row record and
// leaks no page.
TEST(RowGroupTest, PerRowCatalogRepacksOnFlushWithoutLeaking) {
  const std::string path = TempPath("sdbenc_rowgroup_v2.pages");
  std::remove(path.c_str());
  const Bytes key(32, 0x32);
  {
    auto db = SecureDatabase::Open(key, StorageOptions::File(path, 8), 1)
                  .value();
    ASSERT_TRUE(db->CreateTable("notes", NotesSchema(), {}).ok());
    for (int i = 0; i < 120; ++i) {
      ASSERT_TRUE(db->Insert("notes", {Value::Int(i), Value::Str(Note(i))})
                      .ok());
    }
    ASSERT_TRUE(db->Delete("notes", 17).ok());
    ASSERT_TRUE(db->Flush().ok());
  }
  DowngradeToPerRowCatalog(path);
  const PageFileShape v2(path);
  ASSERT_EQ(v2.CatalogVersion(), 2u);
  ASSERT_GE(v2.num_pages(), 120u);
  {
    auto db = SecureDatabase::Open(key, StorageOptions::File(path, 8), 2)
                  .value();
    EXPECT_EQ(db->GetRow("notes", 3).value()[1].AsString(), Note(3));
    EXPECT_FALSE(db->GetRow("notes", 17).ok());
    ASSERT_TRUE(db->Flush().ok());
    const PageFileShape v3(path);
    EXPECT_EQ(v3.CatalogVersion(), 3u);
    EXPECT_EQ(v3.num_pages(), v2.num_pages());  // repacked into freed pages
    EXPECT_GE(v3.FreePages(), v2.FreePages() + 100);
    ExpectNoLeakedPage(*db, path);
  }
  auto db =
      SecureDatabase::Open(key, StorageOptions::File(path, 8), 3).value();
  EXPECT_LT(RawTable(*db, "notes").GroupRecordIds().value().size(), 10u);
  for (int i = 0; i < 120; ++i) {
    if (i == 17) {
      EXPECT_FALSE(db->GetRow("notes", i).ok());
    } else {
      EXPECT_EQ(db->GetRow("notes", i).value()[1].AsString(), Note(i)) << i;
    }
  }
  EXPECT_TRUE(db->VerifyIntegrity().ok());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// ------------------------------------------------- concurrent access

// Many readers hammering ONE file engine whose pool is far smaller than the
// page count: hits copy out under the engine mutex while misses fault pages
// in with the mutex dropped, so this path exercises eviction, double-checked
// insertion and checksum verification racing each other. Every read must
// return the exact pattern written — run under TSan in CI.
TEST(FileEngineConcurrencyTest, ParallelReadsSeeConsistentPages) {
  const std::string path = TempPath("sdbenc_concurrent_reads.pages");
  std::remove(path.c_str());
  constexpr size_t kPages = 64;
  constexpr size_t kReadsPerThread = 400;
  {
    auto engine = FileStorageEngine::Create(path, 256, /*pool_pages=*/8)
                      .value();
    for (size_t i = 0; i < kPages; ++i) {
      const PageId id = engine->Allocate().value();
      ASSERT_TRUE(
          engine->Write(id, ToView(PatternPage(256, static_cast<uint8_t>(id))))
              .ok());
    }
    ASSERT_TRUE(engine->Flush().ok());
  }
  auto engine = FileStorageEngine::Open(path, /*pool_pages=*/8).value();
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 8; ++t) {
    readers.emplace_back([&engine, &mismatches, t] {
      Bytes out;
      for (size_t i = 0; i < kReadsPerThread; ++i) {
        const PageId id = (t * 13 + i * 7) % kPages;
        if (!engine->Read(id, &out).ok() ||
            out != PatternPage(256, static_cast<uint8_t>(id))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Under an 8-frame pool and a 64-page working set the readers must have
  // both hit and missed; the counters were maintained under the mutex.
  EXPECT_GT(engine->stats().pool_misses, 0u);
  EXPECT_GT(engine->stats().pool_hits, 0u);
  std::remove(path.c_str());
}

// Readers and an allocating/freeing writer on DISJOINT pages share the
// engine: the metadata paths serialise under the mutex while read misses
// overlap their I/O. (Read/Write of the SAME page is documented as needing
// external ordering, so the workload keeps them disjoint.)
TEST(FileEngineConcurrencyTest, ReadersConcurrentWithAllocateAndFree) {
  const std::string path = TempPath("sdbenc_concurrent_alloc.pages");
  std::remove(path.c_str());
  auto engine = FileStorageEngine::Create(path, 128, /*pool_pages=*/4)
                    .value();
  constexpr size_t kStable = 16;
  for (size_t i = 0; i < kStable; ++i) {
    const PageId id = engine->Allocate().value();
    ASSERT_TRUE(
        engine->Write(id, ToView(PatternPage(128, static_cast<uint8_t>(id))))
            .ok());
  }
  std::atomic<int> failures{0};
  std::thread churn([&engine, &failures] {
    // Allocate fresh pages, write them, free them again — never touching
    // the stable prefix the readers verify.
    for (int round = 0; round < 60; ++round) {
      auto id = engine->Allocate();
      if (!id.ok() || *id < kStable) {
        failures.fetch_add(1);
        return;
      }
      if (!engine->Write(*id, ToView(PatternPage(128, 0xAA))).ok() ||
          !engine->Free(*id).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 4; ++t) {
    readers.emplace_back([&engine, &failures, t] {
      Bytes out;
      for (size_t i = 0; i < 300; ++i) {
        const PageId id = (t + i) % kStable;
        if (!engine->Read(id, &out).ok() ||
            out != PatternPage(128, static_cast<uint8_t>(id))) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  churn.join();
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(engine->Flush().ok());
  std::remove(path.c_str());
}

// Full storm on the striped pool with the WAL on: four writers rewrite
// their own disjoint page ranges (read-back verifying every version), four
// readers hammer a stable prefix, a churn thread allocates and frees fresh
// pages, and a committer thread issues group commits throughout. Disjoint
// stripes must proceed independently; TSan in CI checks the stripe locks,
// the shared metadata mutex and the WAL internals against each other.
TEST(FileEngineConcurrencyTest, MixedReaderWriterStormOnStripedPool) {
  const std::string path = TempPath("sdbenc_storm.pages");
  std::remove(path.c_str());
  FileStorageEngine::Options options;
  options.page_size = 128;
  options.pool_pages = 32;
  options.stripes = 8;
  options.enable_wal = true;
  options.wal_key = Bytes(16, 0x21);
  options.group_commit_window_us = 50;
  auto engine = FileStorageEngine::Create(path, options).value();
  EXPECT_EQ(engine->stripe_count(), 8u);

  constexpr size_t kStable = 24;     // readers' territory, never rewritten
  constexpr size_t kPerWriter = 12;  // each writer owns a disjoint range
  constexpr size_t kWriters = 4;
  constexpr size_t kRounds = 40;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kStable + kWriters * kPerWriter; ++i) {
    const PageId id = engine->Allocate().value();
    ASSERT_TRUE(
        engine->Write(id, ToView(PatternPage(128, static_cast<uint8_t>(id))))
            .ok());
    ids.push_back(id);
  }
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};

  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t i = 0; i < kPerWriter; ++i) {
          const PageId id = ids[kStable + w * kPerWriter + i];
          const uint8_t stamp = static_cast<uint8_t>(id ^ round);
          Bytes back;
          if (!engine->Write(id, ToView(PatternPage(128, stamp))).ok() ||
              !engine->Read(id, &back).ok() ||
              back != PatternPage(128, stamp)) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Bytes out;
      for (size_t i = 0; i < 400; ++i) {
        const PageId id = ids[(t * 7 + i) % kStable];
        if (!engine->Read(id, &out).ok() ||
            out != PatternPage(128, static_cast<uint8_t>(id))) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 80; ++round) {
      auto id = engine->Allocate();
      if (!id.ok() ||
          !engine->Write(*id, ToView(PatternPage(128, 0xEE))).ok() ||
          !engine->Free(*id).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (!engine->CommitBatch().ok()) {
        failures.fetch_add(1);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (size_t i = 0; i + 1 < threads.size(); ++i) threads[i].join();
  done.store(true, std::memory_order_release);
  threads.back().join();
  EXPECT_EQ(failures.load(), 0);

  // Quiesced: checkpoint and reread everything single-threaded.
  ASSERT_TRUE(engine->Flush().ok());
  Bytes out;
  for (size_t i = 0; i < kStable; ++i) {
    ASSERT_TRUE(engine->Read(ids[i], &out).ok());
    EXPECT_EQ(out, PatternPage(128, static_cast<uint8_t>(ids[i])));
  }
  for (size_t w = 0; w < kWriters; ++w) {
    for (size_t i = 0; i < kPerWriter; ++i) {
      const PageId id = ids[kStable + w * kPerWriter + i];
      ASSERT_TRUE(engine->Read(id, &out).ok());
      EXPECT_EQ(out,
                PatternPage(128, static_cast<uint8_t>(id ^ (kRounds - 1))));
    }
  }
  engine.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// The sharded memory engine under the same mixed workload: writers on
// disjoint ids spread across shards, readers on a stable prefix, and an
// allocate/free churner contending on the shared free-list.
TEST(MemoryEngineConcurrencyTest, MixedReaderWriterStormAcrossShards) {
  MemoryStorageEngine engine(128);
  constexpr size_t kStable = 24;
  constexpr size_t kPerWriter = 12;
  constexpr size_t kWriters = 4;
  std::vector<PageId> ids;
  for (size_t i = 0; i < kStable + kWriters * kPerWriter; ++i) {
    const PageId id = engine.Allocate().value();
    ASSERT_TRUE(
        engine.Write(id, ToView(PatternPage(128, static_cast<uint8_t>(id))))
            .ok());
    ids.push_back(id);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      for (size_t round = 0; round < 60; ++round) {
        for (size_t i = 0; i < kPerWriter; ++i) {
          const PageId id = ids[kStable + w * kPerWriter + i];
          const uint8_t stamp = static_cast<uint8_t>(id ^ round);
          Bytes back;
          if (!engine.Write(id, ToView(PatternPage(128, stamp))).ok() ||
              !engine.Read(id, &back).ok() ||
              back != PatternPage(128, stamp)) {
            failures.fetch_add(1);
            return;
          }
        }
      }
    });
  }
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      Bytes out;
      for (size_t i = 0; i < 500; ++i) {
        const PageId id = ids[(t * 5 + i) % kStable];
        if (!engine.Read(id, &out).ok() ||
            out != PatternPage(128, static_cast<uint8_t>(id))) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  threads.emplace_back([&] {
    for (int round = 0; round < 100; ++round) {
      auto id = engine.Allocate();
      if (!id.ok() ||
          !engine.Write(*id, ToView(PatternPage(128, 0xEE))).ok() ||
          !engine.Free(*id).ok()) {
        failures.fetch_add(1);
        return;
      }
    }
  });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The memory engine honours the same contract under its shard latches.
TEST(MemoryEngineConcurrencyTest, ParallelReadsSeeConsistentPages) {
  MemoryStorageEngine engine(128);
  constexpr size_t kPages = 32;
  for (size_t i = 0; i < kPages; ++i) {
    const PageId id = engine.Allocate().value();
    ASSERT_TRUE(
        engine.Write(id, ToView(PatternPage(128, static_cast<uint8_t>(id))))
            .ok());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> readers;
  for (size_t t = 0; t < 8; ++t) {
    readers.emplace_back([&engine, &mismatches, t] {
      Bytes out;
      for (size_t i = 0; i < 500; ++i) {
        const PageId id = (t * 5 + i * 3) % kPages;
        if (!engine.Read(id, &out).ok() ||
            out != PatternPage(128, static_cast<uint8_t>(id))) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
          return;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace sdbenc
