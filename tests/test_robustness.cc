#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "aead/factory.h"
#include "core/restricted_reader.h"
#include "core/secure_database.h"
#include "crypto/aes.h"
#include "crypto/mac.h"
#include "db/mu.h"
#include "db/csv.h"
#include "db/row_codec.h"
#include "db/serialize.h"
#include "query/sql_parser.h"
#include "schemes/aead_cell.h"
#include "schemes/aead_index.h"
#include "schemes/deterministic_encryptor.h"
#include "schemes/elovici_cell.h"
#include "schemes/elovici_index.h"
#include "db/table.h"
#include "storage/file_storage_engine.h"
#include "storage/memory_storage_engine.h"
#include "storage/record_store.h"
#include "util/file.h"
#include "util/rng.h"

namespace sdbenc {
namespace {

/// Adversarial robustness: every Decode/Open/Deserialize surface must turn
/// arbitrary bytes into a clean Status — never crash, never return garbage
/// as success (for the authenticated codecs). These tests are deterministic
/// "mini-fuzzers": thousands of random and structured-corrupt inputs per
/// surface.

class GarbageSource {
 public:
  explicit GarbageSource(uint64_t seed) : rng_(seed) {}

  Bytes Next() {
    // Mix of empty, tiny, block-aligned, huge-length-prefixed shapes.
    const uint64_t shape = rng_.UniformUint64(6);
    switch (shape) {
      case 0:
        return Bytes();
      case 1:
        return rng_.RandomBytes(1 + rng_.UniformUint64(4));
      case 2:
        return rng_.RandomBytes(16 * (1 + rng_.UniformUint64(4)));
      case 3: {
        // Plausible length prefix pointing beyond the buffer.
        Bytes b = rng_.RandomBytes(24);
        PutUint32Be(b.data(), 0x7fffffff);
        return b;
      }
      case 4: {
        Bytes b = rng_.RandomBytes(64);
        PutUint64Be(b.data(), ~uint64_t{0});
        return b;
      }
      default:
        return rng_.RandomBytes(rng_.UniformUint64(200));
    }
  }

 private:
  DeterministicRng rng_;
};

constexpr int kTrials = 2000;

TEST(RobustnessTest, AeadOpenNeverAcceptsGarbage) {
  GarbageSource garbage(1);
  for (AeadAlgorithm alg :
       {AeadAlgorithm::kEax, AeadAlgorithm::kOcbPmac, AeadAlgorithm::kCcfb,
        AeadAlgorithm::kEtm, AeadAlgorithm::kGcm, AeadAlgorithm::kSiv}) {
    const size_t key_len =
        (alg == AeadAlgorithm::kSiv || alg == AeadAlgorithm::kEtm) ? 32 : 16;
    auto aead = CreateAead(alg, Bytes(key_len, 0x42)).value();
    DeterministicRng rng(2);
    for (int i = 0; i < kTrials / 4; ++i) {
      const Bytes nonce = rng.RandomBytes(aead->nonce_size());
      const Bytes ct = garbage.Next();
      const Bytes tag = garbage.Next();
      auto r = aead->Open(nonce, ct, tag, garbage.Next());
      EXPECT_FALSE(r.ok()) << AeadAlgorithmName(alg);
    }
  }
}

TEST(RobustnessTest, CellCodecsDecodeGarbageCleanly) {
  auto aes = Aes::Create(Bytes(16, 0x42)).value();
  const DeterministicEncryptor enc(*aes,
                                   DeterministicEncryptor::Mode::kCbcZeroIv);
  const MuFunction mu(HashAlgorithm::kSha1, 16);
  const AsciiDomain ascii;
  XorSchemeCellCodec xor_codec(enc, mu, ascii);
  AppendSchemeCellCodec append_codec(enc, mu);
  auto aead = CreateAead(AeadAlgorithm::kEax, Bytes(16, 0x42)).value();
  DeterministicRng rng(3);
  AeadCellCodec aead_codec(*aead, rng);

  GarbageSource garbage(4);
  const CellAddress addr{1, 2, 3};
  size_t xor_accepts = 0;
  for (int i = 0; i < kTrials; ++i) {
    const Bytes junk = garbage.Next();
    // The XOR scheme accepts anything whose decryption is in-domain —
    // that IS its weakness — but it must never crash and never accept a
    // wrong-sized input.
    auto x = xor_codec.Decode(junk, addr);
    if (x.ok()) {
      ++xor_accepts;
      EXPECT_EQ(junk.size(), 16u);
    }
    // Authenticated codecs must reject.
    EXPECT_FALSE(append_codec.Decode(junk, addr).ok() &&
                 junk.size() > 64)
        << "append accepted large garbage";
    EXPECT_FALSE(aead_codec.Decode(junk, addr).ok());
  }
  // In-domain random single blocks happen with probability 2^-16: rare.
  EXPECT_LT(xor_accepts, 5u);
}

TEST(RobustnessTest, IndexCodecsDecodeGarbageCleanly) {
  auto aes = Aes::Create(Bytes(16, 0x42)).value();
  const DeterministicEncryptor enc(*aes,
                                   DeterministicEncryptor::Mode::kCbcZeroIv);
  Cmac mac(*aes);
  DeterministicRng rng(5);
  Index2004Codec codec_2004(enc);
  Index2005Codec codec_2005(enc, mac, rng);
  auto aead = CreateAead(AeadAlgorithm::kOcbPmac, Bytes(16, 0x42)).value();
  AeadIndexCodec aead_codec(*aead, rng);

  IndexEntryContext ctx;
  ctx.index_table_id = 9;
  ctx.indexed_table_id = 1;
  ctx.indexed_column = 0;
  ctx.entry_ref = 7;
  ctx.is_leaf = true;
  ctx.ref_i = EncodeUint64Be(0);

  GarbageSource garbage(6);
  for (int i = 0; i < kTrials; ++i) {
    const Bytes junk = garbage.Next();
    EXPECT_FALSE(codec_2005.Decode(junk, ctx).ok());
    EXPECT_FALSE(aead_codec.Decode(junk, ctx).ok());
    // 2004: structurally valid junk of >= 1 block might decrypt, but the
    // embedded r_I check makes acceptance a ~2^-64 event.
    EXPECT_FALSE(codec_2004.Decode(junk, ctx).ok());
  }
}

TEST(RobustnessTest, StorageImageFuzz) {
  // Valid image with every possible single truncation + random corruption.
  Database db;
  Schema schema({{"a", ValueType::kInt64, true},
                 {"b", ValueType::kString, false}});
  Table* t = db.CreateTable("t", schema).value();
  ASSERT_TRUE(t->AppendRow({Bytes{1, 2, 3}, Bytes{4}}).ok());
  const Bytes image = SerializeDatabase(db);

  for (size_t cut = 0; cut < image.size(); cut += 3) {
    const Bytes truncated(image.begin(), image.begin() + cut);
    EXPECT_FALSE(DeserializeDatabase(truncated).ok()) << cut;
  }
  DeterministicRng rng(7);
  for (int i = 0; i < 500; ++i) {
    Bytes corrupt = image;
    corrupt[rng.UniformUint64(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.UniformUint64(255));
    EXPECT_FALSE(DeserializeDatabase(corrupt).ok());
  }
  GarbageSource garbage(8);
  for (int i = 0; i < kTrials; ++i) {
    EXPECT_FALSE(DeserializeDatabase(garbage.Next()).ok());
  }
}

TEST(RobustnessTest, KeyGrantFuzz) {
  GarbageSource garbage(9);
  for (int i = 0; i < kTrials; ++i) {
    // Must never crash; mostly rejects. (A random buffer that happens to
    // parse is harmless — it only yields useless keys.)
    (void)KeyGrant::Deserialize(garbage.Next());
  }
  SUCCEED();
}

TEST(RobustnessTest, SqlParserFuzz) {
  DeterministicRng rng(10);
  const char alphabet[] =
      "abcXYZ019'\"()*,;=<>! \t\nSELECTFROMWHEREANDORNOTINSERTNULL-";
  for (int i = 0; i < kTrials; ++i) {
    std::string sql;
    const size_t len = rng.UniformUint64(80);
    for (size_t j = 0; j < len; ++j) {
      sql.push_back(alphabet[rng.UniformUint64(sizeof(alphabet) - 1)]);
    }
    (void)ParseSql(sql);  // never crashes; Status or statement both fine
  }
  SUCCEED();
}

TEST(RobustnessTest, CsvParserFuzz) {
  const Schema schema({{"a", ValueType::kInt64, true},
                       {"b", ValueType::kString, true},
                       {"c", ValueType::kBytes, true}});
  DeterministicRng rng(12);
  const char alphabet[] = "ab,\"\n\r'0123456789deadbeef -.x";
  for (int i = 0; i < kTrials; ++i) {
    std::string text = "a,b,c\n";
    const size_t len = rng.UniformUint64(120);
    for (size_t j = 0; j < len; ++j) {
      text.push_back(alphabet[rng.UniformUint64(sizeof(alphabet) - 1)]);
    }
    (void)ParseCsv(schema, text);  // Status or rows; never crashes
  }
  SUCCEED();
}

TEST(RobustnessTest, ValueDeserializeFuzz) {
  GarbageSource garbage(11);
  for (int i = 0; i < kTrials; ++i) {
    (void)Value::Deserialize(garbage.Next());
  }
  SUCCEED();
}

// ------------------------------------------- row groups and catalog v3

// A valid row group record of `n` rows, each (8-octet key, `len`-octet
// value), every other one a tombstone, as Table::FlushRows writes it.
Bytes ValidRowGroup(uint32_t n, size_t len) {
  MemoryStorageEngine engine(kDefaultPageSize);
  RecordStore store(&engine);
  Table table(1, "t", Schema({{"k", ValueType::kInt64, true},
                              {"v", ValueType::kString, true}}));
  for (uint32_t i = 0; i < n; ++i) {
    EXPECT_TRUE(
        table.AppendRow({Bytes(8, static_cast<uint8_t>(i)), Bytes(len, 0x61)})
            .ok());
    if (i % 2 == 1) {
      EXPECT_TRUE(table.DeleteRow(i).ok());
    }
  }
  EXPECT_TRUE(table.FlushRows(store).ok());
  const std::vector<RecordId> ids = table.GroupRecordIds().value();
  EXPECT_EQ(ids.size(), 1u);
  return store.Get(ids.at(0)).value();
}

void ExpectParseError(const Status& s, const std::string& what) {
  EXPECT_FALSE(s.ok()) << what;
  EXPECT_EQ(s.code(), StatusCode::kParseError) << what << ": " << s.ToString();
}

TEST(RobustnessTest, RowGroupDecodeFuzz) {
  const Bytes group = ValidRowGroup(3, 20);
  ASSERT_EQ(DecodeRowGroup(group).value().size(), 3u);
  for (size_t cut = 0; cut < group.size(); ++cut) {
    ExpectParseError(
        DecodeRowGroup(BytesView(group.data(), cut)).status(),
        "cut at " + std::to_string(cut));
  }
  // Hostile counts: none, far more than the bytes can hold (rejected before
  // any reservation), one too many, one too few.
  for (const uint32_t count : {0u, 0xffffffffu, 0x20000000u, 4u, 2u}) {
    Bytes bad = group;
    PutUint32Be(bad.data(), count);
    ExpectParseError(DecodeRowGroup(bad).status(),
                     "count " + std::to_string(count));
  }
  // Hostile length slots of the first row.
  const uint32_t len = GetUint32Be(group.data() + 4);
  for (const uint32_t l : {0u, 1u, len - 1, len + 1, 0xffffffffu}) {
    Bytes bad = group;
    PutUint32Be(bad.data() + 4, l);
    ExpectParseError(DecodeRowGroup(bad).status(),
                     "len " + std::to_string(l));
  }
  // Random flips decode or fail cleanly; garbage never decodes.
  DeterministicRng rng(13);
  for (int i = 0; i < kTrials; ++i) {
    Bytes corrupt = group;
    corrupt[rng.UniformUint64(corrupt.size())] ^=
        static_cast<uint8_t>(1 + rng.UniformUint64(255));
    const auto decoded = DecodeRowGroup(corrupt);
    if (!decoded.ok()) {
      EXPECT_EQ(decoded.status().code(), StatusCode::kParseError);
    }
  }
  GarbageSource garbage(14);
  for (int i = 0; i < kTrials; ++i) {
    ExpectParseError(DecodeRowGroup(garbage.Next()).status(), "garbage");
  }
}

// Catalog v3 and its row groups, read back by SecureDatabase::Open from a
// page file an adversary rewrote. Every case must end in kParseError: the
// page checksums are recomputed by the writer, so only the decoders stand
// between hostile bytes and the session.
class CatalogFuzz {
 public:
  CatalogFuzz() : path_(::testing::TempDir() + "/sdbenc_catalog_fuzz.pages") {
    Cleanup();
    {
      auto db = SecureDatabase::Open(key_, StorageOptions::File(path_, 8), 1)
                    .value();
      SecureTableOptions options;
      options.indexed_columns = {"k"};
      const Schema schema({{"k", ValueType::kInt64, true},
                           {"v", ValueType::kString, true}});
      EXPECT_TRUE(db->CreateTable("t", schema, options).ok());
      for (int i = 0; i < 150; ++i) {
        EXPECT_TRUE(db->Insert("t", {Value::Int(i),
                                     Value::Str(std::string(40, 'v'))})
                        .ok());
      }
      EXPECT_TRUE(db->Flush().ok());
    }
    std::remove((path_ + ".wal").c_str());
    pristine_ = ReadFile(path_).value();
    auto engine = FileStorageEngine::Open(path_, 16).value();
    RecordStore store(engine.get());
    catalog_id_ = engine->root_record();
    catalog_ = store.Get(catalog_id_).value();
    // Skip to the first table's group directory.
    BinaryReader r(catalog_);
    EXPECT_EQ(r.GetU32().value(), 3u);
    (void)r.GetBytes();   // keycheck
    (void)r.GetU64();     // next index table id
    (void)r.GetU32();     // table count
    (void)r.GetU64();     // table id
    (void)r.GetString();  // name
    const uint32_t ncols = r.GetU32().value();
    for (uint32_t c = 0; c < ncols; ++c) {
      (void)r.GetString();
      (void)r.GetU8();
      (void)r.GetU8();
    }
    directory_ = catalog_.size() - r.Remaining();
    const uint64_t n_groups = r.GetU64().value();
    EXPECT_GE(n_groups, 2u);
    first_group_ = r.GetU64().value();
    group_ = store.Get(first_group_).value();
    for (uint64_t g = 1; g < n_groups; ++g) (void)r.GetU64();
    (void)r.GetString();  // codec
    (void)r.GetU32();     // index order
    EXPECT_EQ(r.GetU32().value(), 1u);
    (void)r.GetString();  // indexed column
    (void)r.GetU64();     // index table id
    // The tree metadata blob: u64 length | u32 root | u64 entries
    // | u64 next ref | u32 node count | node record ids.
    node_count_ = catalog_.size() - r.Remaining() + 8 + 4 + 8 + 8;
    const uint64_t meta_len = r.GetBytes().value().size();
    EXPECT_EQ(GetUint32Be(catalog_.data() + node_count_), (meta_len - 24) / 8);
  }
  ~CatalogFuzz() { Cleanup(); }

  const Bytes& catalog() const { return catalog_; }
  const Bytes& group() const { return group_; }
  size_t directory() const { return directory_; }
  size_t node_count() const { return node_count_; }

  /// Restores the pristine file, replaces the catalog (or the first row
  /// group) with `bytes`, and returns the open verdict.
  Status OpenWithCatalog(const Bytes& bytes) {
    return OpenWith(catalog_id_, bytes);
  }
  Status OpenWithGroup(const Bytes& bytes) {
    return OpenWith(first_group_, bytes);
  }

 private:
  Status OpenWith(RecordId id, const Bytes& bytes) {
    std::remove((path_ + ".wal").c_str());
    EXPECT_TRUE(WriteFileAtomic(path_, pristine_).ok());
    {
      auto engine = FileStorageEngine::Open(path_, 16).value();
      RecordStore store(engine.get());
      EXPECT_TRUE(store.Update(id, bytes).ok());
      EXPECT_TRUE(engine->Flush().ok());
    }
    return SecureDatabase::Open(key_, StorageOptions::File(path_, 8), 2)
        .status();
  }

  void Cleanup() {
    std::remove(path_.c_str());
    std::remove((path_ + ".wal").c_str());
  }

  const Bytes key_ = Bytes(32, 0x44);
  const std::string path_;
  Bytes pristine_;
  RecordId catalog_id_ = kNoRecord;
  Bytes catalog_;
  size_t directory_ = 0;
  size_t node_count_ = 0;
  RecordId first_group_ = kNoRecord;
  Bytes group_;
};

TEST(RobustnessTest, CatalogV3Fuzz) {
  CatalogFuzz fuzz;
  ASSERT_TRUE(fuzz.OpenWithCatalog(fuzz.catalog()).ok());
  const Bytes& catalog = fuzz.catalog();
  for (size_t cut = 0; cut < catalog.size(); cut += 5) {
    ExpectParseError(
        fuzz.OpenWithCatalog(Bytes(catalog.begin(), catalog.begin() + cut)),
        "catalog cut at " + std::to_string(cut));
  }
  const size_t dir = fuzz.directory();
  // Group counts no catalog can hold: rejected before any reservation.
  for (const uint64_t n : {~uint64_t{0}, uint64_t{1} << 61, uint64_t{1000}}) {
    Bytes bad = catalog;
    PutUint64Be(bad.data() + dir, n);
    ExpectParseError(fuzz.OpenWithCatalog(bad),
                     "group count " + std::to_string(n));
  }
  // A directory entry naming no record.
  {
    Bytes bad = catalog;
    PutUint64Be(bad.data() + dir + 8, kNoRecord);
    ExpectParseError(fuzz.OpenWithCatalog(bad), "group id 0");
  }
  // An index node count the tree metadata cannot hold.
  for (const uint32_t n : {0xffffffffu, 0x10000000u}) {
    Bytes bad = catalog;
    PutUint32Be(bad.data() + fuzz.node_count(), n);
    ExpectParseError(fuzz.OpenWithCatalog(bad),
                     "node count " + std::to_string(n));
  }
  // A directory that drops its last group: the rows left sum to fewer than
  // the sealed statistics' live count.
  {
    const uint64_t n = GetUint64Be(catalog.data() + dir);
    Bytes bad(catalog.begin(), catalog.begin() + dir + 8 * n);
    bad.insert(bad.end(), catalog.begin() + dir + 8 + 8 * n, catalog.end());
    PutUint64Be(bad.data() + dir, n - 1);
    ExpectParseError(fuzz.OpenWithCatalog(bad), "last group dropped");
  }
}

TEST(RobustnessTest, RowGroupRecordFuzz) {
  CatalogFuzz fuzz;
  ASSERT_TRUE(fuzz.OpenWithGroup(fuzz.group()).ok());
  const Bytes& group = fuzz.group();
  for (size_t cut = 0; cut < group.size(); cut += 97) {
    ExpectParseError(
        fuzz.OpenWithGroup(Bytes(group.begin(), group.begin() + cut)),
        "group cut at " + std::to_string(cut));
  }
  const uint32_t count = GetUint32Be(group.data());
  for (const uint32_t c : {0u, 0xffffffffu, count + 1, count - 1}) {
    Bytes bad = group;
    PutUint32Be(bad.data(), c);
    ExpectParseError(fuzz.OpenWithGroup(bad),
                     "group count " + std::to_string(c));
  }
  const uint32_t len = GetUint32Be(group.data() + 4);
  for (const uint32_t l : {len - 1, len + 1, 0xffffffffu}) {
    Bytes bad = group;
    PutUint32Be(bad.data() + 4, l);
    ExpectParseError(fuzz.OpenWithGroup(bad), "row len " + std::to_string(l));
  }
}

}  // namespace
}  // namespace sdbenc
