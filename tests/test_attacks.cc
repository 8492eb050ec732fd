#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "aead/factory.h"
#include "attacks/append_forgery.h"
#include "attacks/index_linkage.h"
#include "attacks/mac_interaction.h"
#include "attacks/pattern_match.h"
#include "attacks/storage_scrape.h"
#include "attacks/xor_substitution.h"
#include "core/secure_database.h"
#include "crypto/aes.h"
#include "crypto/mac.h"
#include "db/domain.h"
#include "db/mu.h"
#include "schemes/aead_cell.h"
#include "schemes/aead_index.h"
#include "schemes/deterministic_encryptor.h"
#include "schemes/elovici_cell.h"
#include "schemes/elovici_index.h"
#include "util/rng.h"

namespace sdbenc {
namespace {

IndexEntryContext LeafContext(uint64_t entry_ref) {
  IndexEntryContext ctx;
  ctx.index_table_id = 900;
  ctx.indexed_table_id = 7;
  ctx.indexed_column = 2;
  ctx.entry_ref = entry_ref;
  ctx.is_leaf = true;
  ctx.ref_i = EncodeUint64Be(0);
  return ctx;
}

// ====================================================================
// E1 — §3.1 substitution attack on the XOR-Scheme
// ====================================================================

TEST(XorSubstitutionTest, HighBitSignatureAndMatch) {
  const Bytes a = {0x80, 0x00, 0xff, 0x10};
  const Bytes b = {0x81, 0x7f, 0x80, 0x6f};
  EXPECT_TRUE(HighBitsMatch(a, b));
  const Bytes c = {0x00, 0x00, 0xff, 0x10};
  EXPECT_FALSE(HighBitsMatch(a, c));
  EXPECT_FALSE(HighBitsMatch(a, Bytes{0x80}));
  EXPECT_EQ(HighBitSignature(a), 0b1010u);
}

TEST(XorSubstitutionTest, PaperExperiment1024Addresses) {
  // Paper §3.1: SHA-1 truncated to 128 bits, 1024 addresses (same t and c,
  // running r) — "we found 6 collisions"; expectation ≈ 8.
  const MuFunction mu(HashAlgorithm::kSha1, 16);
  const auto result = RunPartialCollisionExperiment(mu, 1, 2, 1024);
  EXPECT_EQ(result.trials, 1024u);
  EXPECT_NEAR(result.expected, 8.0, 0.05);
  // Poisson(8): essentially always within [1, 25].
  EXPECT_GE(result.collisions, 1u);
  EXPECT_LE(result.collisions, 25u);
  EXPECT_EQ(result.collisions, result.pairs.size());
}

TEST(XorSubstitutionTest, CollisionCountScalesQuadratically) {
  const MuFunction mu(HashAlgorithm::kSha1, 16);
  const auto small = RunPartialCollisionExperiment(mu, 1, 2, 1024);
  const auto large = RunPartialCollisionExperiment(mu, 1, 2, 4096);
  EXPECT_NEAR(large.expected / small.expected, 16.0, 0.3);
  EXPECT_GT(large.collisions, small.collisions);
}

TEST(XorSubstitutionTest, FoundPairsEnableUndetectedRelocation) {
  const MuFunction mu(HashAlgorithm::kSha1, 16);
  const auto result = RunPartialCollisionExperiment(mu, 1, 2, 2048);
  ASSERT_FALSE(result.pairs.empty());

  auto aes = Aes::Create(Bytes(16, 0x10)).value();
  DeterministicEncryptor enc(*aes, DeterministicEncryptor::Mode::kCbcZeroIv);
  AsciiDomain ascii;
  XorSchemeCellCodec codec(enc, mu, ascii);
  for (size_t i = 0; i < std::min<size_t>(result.pairs.size(), 3); ++i) {
    const CollisionPair& pair = result.pairs[i];
    const Bytes value = BytesFromString("CONFIDENTIAL ROW");
    auto stored = codec.Encode(value, pair.a).value();
    // Relocate to the colliding address: accepted, different plaintext.
    auto moved = codec.Decode(stored, pair.b);
    ASSERT_TRUE(moved.ok()) << "collision pair " << i;
    EXPECT_FALSE(*moved == value);
    // And the swap works in both directions.
    auto stored_b = codec.Encode(value, pair.b).value();
    EXPECT_TRUE(codec.Decode(stored_b, pair.a).ok());
  }
}

TEST(XorSubstitutionTest, SecondPreimageSearchSucceedsWithinBudget) {
  // "After about 2^b trials" — here the condition is 16 bits, so 2^16
  // trials find a partial second preimage with probability ≈ 1 - 1/e.
  const MuFunction mu(HashAlgorithm::kSha1, 16);
  const CellAddress target{1, 500, 2};
  auto found = FindPartialSecondPreimage(mu, target, 1 << 18);
  ASSERT_TRUE(found.ok());
  EXPECT_NE(found->row, target.row);
  EXPECT_TRUE(HighBitsMatch(mu.Compute(*found), mu.Compute(target)));
}

TEST(XorSubstitutionTest, AeadFixStopsRelocationAtCollidingAddresses) {
  // The same colliding address pairs are useless against the fixed scheme:
  // the address is authenticated, not just XOR-masked.
  const MuFunction mu(HashAlgorithm::kSha1, 16);
  const auto result = RunPartialCollisionExperiment(mu, 1, 2, 2048);
  ASSERT_FALSE(result.pairs.empty());
  auto aead = CreateAead(AeadAlgorithm::kEax, Bytes(16, 0x10)).value();
  DeterministicRng rng(1);
  AeadCellCodec codec(*aead, rng);
  const CollisionPair& pair = result.pairs[0];
  auto stored = codec.Encode(BytesFromString("CONFIDENTIAL ROW"), pair.a)
                    .value();
  auto moved = codec.Decode(stored, pair.b);
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.status().code(), StatusCode::kAuthenticationFailed);
}

// ====================================================================
// E2 — §3.1 pattern matching on the Append-Scheme
// ====================================================================

class PatternMatchingTest : public ::testing::Test {
 protected:
  PatternMatchingTest()
      : aes_(std::move(Aes::Create(Bytes(16, 0x20)).value())),
        enc_(*aes_, DeterministicEncryptor::Mode::kCbcZeroIv),
        mu_(HashAlgorithm::kSha1, 16) {}

  std::vector<Bytes> EncodeCorpus(CellCodec& codec, size_t n,
                                  size_t prefix_blocks) {
    std::vector<Bytes> corpus;
    const Bytes prefix(prefix_blocks * 16, 0x50);
    for (size_t i = 0; i < n; ++i) {
      Bytes v = prefix;
      Append(v, BytesFromString("unique suffix " + std::to_string(i)));
      corpus.push_back(codec.Encode(v, {1, i, 0}).value());
    }
    return corpus;
  }

  std::unique_ptr<Aes> aes_;
  DeterministicEncryptor enc_;
  MuFunction mu_;
};

TEST_F(PatternMatchingTest, CommonPrefixBlocksCounts) {
  Bytes a(48, 1), b(48, 1);
  EXPECT_EQ(CommonPrefixBlocks(a, b, 16), 3u);
  b[40] ^= 1;
  EXPECT_EQ(CommonPrefixBlocks(a, b, 16), 2u);
  b[0] ^= 1;
  EXPECT_EQ(CommonPrefixBlocks(a, b, 16), 0u);
  EXPECT_EQ(CommonPrefixBlocks(a, Bytes(8, 1), 16), 0u);
}

TEST_F(PatternMatchingTest, AppendSchemeLeaksSharedPrefixes) {
  AppendSchemeCellCodec codec(enc_, mu_);
  const auto corpus = EncodeCorpus(codec, 8, 3);
  const auto matches = FindCommonPrefixes(corpus, 16, 2);
  EXPECT_EQ(matches.size(), 8u * 7 / 2);  // every pair matches
  for (const auto& m : matches) EXPECT_GE(m.common_blocks, 3u);
}

TEST_F(PatternMatchingTest, UnrelatedPlaintextsDoNotMatch) {
  AppendSchemeCellCodec codec(enc_, mu_);
  DeterministicRng rng(4);
  std::vector<Bytes> corpus;
  for (size_t i = 0; i < 32; ++i) {
    corpus.push_back(codec.Encode(rng.RandomBytes(64), {1, i, 0}).value());
  }
  EXPECT_TRUE(FindCommonPrefixes(corpus, 16, 1).empty());
}

TEST_F(PatternMatchingTest, AeadFixEliminatesTheLeak) {
  auto aead = CreateAead(AeadAlgorithm::kEax, Bytes(16, 0x20)).value();
  DeterministicRng rng(2);
  AeadCellCodec codec(*aead, rng);
  const auto corpus = EncodeCorpus(codec, 8, 3);
  EXPECT_TRUE(FindCommonPrefixes(corpus, 16, 1).empty());
}

// ====================================================================
// E3 — §3.1 existential forgery on the Append-Scheme
// ====================================================================

class AppendForgeryTest : public ::testing::Test {
 protected:
  AppendForgeryTest()
      : aes_(std::move(Aes::Create(Bytes(16, 0x30)).value())),
        enc_(*aes_, DeterministicEncryptor::Mode::kCbcZeroIv),
        mu_(HashAlgorithm::kSha1, 16),
        codec_(enc_, mu_) {}

  std::unique_ptr<Aes> aes_;
  DeterministicEncryptor enc_;
  MuFunction mu_;
  AppendSchemeCellCodec codec_;
};

TEST_F(AppendForgeryTest, SpliceForgeryAcceptedWithAlteredPlaintext) {
  for (size_t data_blocks : {4u, 8u, 32u}) {
    const Bytes value(16 * data_blocks, 'D');
    const CellAddress addr{3, 14, 1};
    const Bytes stored = codec_.Encode(value, addr).value();
    auto forgery = ForgeAppendSchemeCiphertext(stored, 16, 16);
    ASSERT_TRUE(forgery.ok()) << data_blocks;
    auto decoded = codec_.Decode(forgery->forged, addr);
    ASSERT_TRUE(decoded.ok()) << "forgery rejected at " << data_blocks;
    EXPECT_FALSE(*decoded == value);
    EXPECT_EQ(decoded->size(), value.size());
  }
}

TEST_F(AppendForgeryTest, ShortValuesAreNotForgeableThisWay) {
  // With V inside the protected trailer there is no safe block to modify.
  const Bytes value = BytesFromString("tiny");
  const Bytes stored = codec_.Encode(value, {3, 14, 1}).value();
  EXPECT_FALSE(ForgeAppendSchemeCiphertext(stored, 16, 16).ok());
}

TEST_F(AppendForgeryTest, ForgeryPreservesChecksumBlocksExactly) {
  const Bytes value(16 * 6, 'D');
  const Bytes stored = codec_.Encode(value, {3, 14, 1}).value();
  auto forgery = ForgeAppendSchemeCiphertext(stored, 16, 16).value();
  const size_t protect = ProtectedTrailerBlocks(16, 16) * 16;
  EXPECT_EQ(Bytes(forgery.forged.end() - protect, forgery.forged.end()),
            Bytes(stored.end() - protect, stored.end()));
  EXPECT_NE(forgery.forged, stored);
}

TEST_F(AppendForgeryTest, AeadSchemesRejectTheSameSplice) {
  for (AeadAlgorithm alg :
       {AeadAlgorithm::kEax, AeadAlgorithm::kOcbPmac, AeadAlgorithm::kCcfb,
        AeadAlgorithm::kEtm, AeadAlgorithm::kGcm}) {
    auto aead = CreateAead(alg, Bytes(16, 0x30)).value();
    DeterministicRng rng(6);
    AeadCellCodec codec(*aead, rng);
    const Bytes value(16 * 6, 'D');
    const CellAddress addr{3, 14, 1};
    const Bytes stored = codec.Encode(value, addr).value();
    Bytes spliced = stored;
    spliced[aead->nonce_size()] ^= 0x01;  // flip first ciphertext byte
    auto r = codec.Decode(spliced, addr);
    EXPECT_FALSE(r.ok()) << AeadAlgorithmName(alg);
  }
}

// ====================================================================
// E4/E5 — §3.2/§3.3 index linkage
// ====================================================================

class IndexLinkageTest : public ::testing::Test {
 protected:
  IndexLinkageTest()
      : aes_(std::move(Aes::Create(Bytes(16, 0x40)).value())),
        enc_(*aes_, DeterministicEncryptor::Mode::kCbcZeroIv),
        mu_(HashAlgorithm::kSha1, 16),
        mac_(*aes_),
        rng_(8) {}

  Bytes LongValue(int i) {
    return BytesFromString("account holder #" + std::to_string(2000 + i) +
                           " with a description spanning several cipher "
                           "blocks for realism");
  }

  std::unique_ptr<Aes> aes_;
  DeterministicEncryptor enc_;
  MuFunction mu_;
  Cmac mac_;
  DeterministicRng rng_;
};

TEST_F(IndexLinkageTest, Index2004LinksToAppendCells) {
  AppendSchemeCellCodec cell_codec(enc_, mu_);
  Index2004Codec index_codec(enc_);
  std::vector<Bytes> cells, entries;
  for (int i = 0; i < 24; ++i) {
    const Bytes v = LongValue(i);
    cells.push_back(cell_codec.Encode(v, {1, (uint64_t)i, 0}).value());
    entries.push_back(
        index_codec.Encode({v, (uint64_t)i}, LeafContext(i + 1)).value());
  }
  const auto report = CorrelateIndexWithTable(entries, cells, 16, 2);
  EXPECT_EQ(report.linked_cells, 24u);
  EXPECT_DOUBLE_EQ(report.linked_cell_fraction, 1.0);
}

TEST_F(IndexLinkageTest, Index2005StillLinksDespiteRandomSuffix) {
  AppendSchemeCellCodec cell_codec(enc_, mu_);
  Index2005Codec index_codec(enc_, mac_, rng_);
  std::vector<Bytes> cells, entries;
  for (int i = 0; i < 24; ++i) {
    const Bytes v = LongValue(i);
    cells.push_back(cell_codec.Encode(v, {1, (uint64_t)i, 0}).value());
    entries.push_back(
        index_codec.Encode({v, (uint64_t)i}, LeafContext(i + 1)).value());
  }
  const auto payloads = ExtractIndex2005Payloads(entries);
  ASSERT_EQ(payloads.size(), 24u);
  const auto report = CorrelateIndexWithTable(payloads, cells, 16, 2);
  EXPECT_EQ(report.linked_cells, 24u);
}

TEST_F(IndexLinkageTest, LinkageRecoversOrderingInformation) {
  // The actual damage: the adversary sorts linked cells by their position
  // in the (plaintext-structured) index and learns the order of rows.
  AppendSchemeCellCodec cell_codec(enc_, mu_);
  Index2004Codec index_codec(enc_);
  // Values inserted in sorted order into index rows 1..n, while the table
  // stores them at scrambled row positions.
  std::vector<Bytes> cells(10), entries;
  for (int i = 0; i < 10; ++i) {
    Bytes v = BytesFromString("sorted-key-" + std::string(1, 'a' + i) +
                              std::string(40, 'x'));
    const uint64_t table_row = (7 * i + 3) % 10;  // scrambled table order
    cells[table_row] = cell_codec.Encode(v, {1, table_row, 0}).value();
    entries.push_back(
        index_codec.Encode({v, table_row}, LeafContext(i + 1)).value());
  }
  const auto matches = FindCrossPrefixes(entries, cells, 16, 2);
  // Every index entry links to exactly one cell; entry order == key order,
  // so the adversary has totally ordered the (encrypted) cells.
  ASSERT_EQ(matches.size(), 10u);
  std::vector<size_t> cell_order;
  for (const auto& m : matches) cell_order.push_back(m.second);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(cell_order[i], static_cast<size_t>((7 * i + 3) % 10));
  }
}

TEST_F(IndexLinkageTest, AeadIndexDoesNotLink) {
  auto cell_aead = CreateAead(AeadAlgorithm::kEax, Bytes(16, 0x41)).value();
  auto index_aead = CreateAead(AeadAlgorithm::kEax, Bytes(16, 0x42)).value();
  AeadCellCodec cell_codec(*cell_aead, rng_);
  AeadIndexCodec index_codec(*index_aead, rng_);
  std::vector<Bytes> cells, entries;
  for (int i = 0; i < 24; ++i) {
    const Bytes v = LongValue(i);
    cells.push_back(cell_codec.Encode(v, {1, (uint64_t)i, 0}).value());
    entries.push_back(
        index_codec.Encode({v, (uint64_t)i}, LeafContext(i + 1)).value());
  }
  const auto report = CorrelateIndexWithTable(entries, cells, 16, 1);
  EXPECT_EQ(report.linked_pairs, 0u);
}

// ====================================================================
// E6 — §3.3 same-key CBC/OMAC interaction forgery
// ====================================================================

class MacInteractionTest : public ::testing::Test {
 protected:
  MacInteractionTest()
      : aes_(std::move(Aes::Create(Bytes(16, 0x60)).value())),
        other_aes_(std::move(Aes::Create(Bytes(16, 0x61)).value())),
        enc_(*aes_, DeterministicEncryptor::Mode::kCbcZeroIv),
        same_key_mac_(*aes_),
        separate_mac_(*other_aes_),
        rng_(12) {}

  std::unique_ptr<Aes> aes_;
  std::unique_ptr<Aes> other_aes_;
  DeterministicEncryptor enc_;
  Cmac same_key_mac_;
  Cmac separate_mac_;
  DeterministicRng rng_;
};

TEST_F(MacInteractionTest, SameKeyForgeryVerifiesForAllBlockCounts) {
  Index2005Codec codec(enc_, same_key_mac_, rng_);
  for (size_t s : {3u, 4u, 8u, 16u}) {
    const Bytes v(16 * s, 'V');
    const IndexEntryContext ctx = LeafContext(50 + s);
    const Bytes stored = codec.Encode({v, 99}, ctx).value();
    auto forged = ForgeIndex2005Entry(stored, 16, v.size());
    ASSERT_TRUE(forged.ok()) << s;
    auto decoded = codec.Decode(forged->forged, ctx);
    ASSERT_TRUE(decoded.ok()) << "forgery rejected, s=" << s;
    EXPECT_FALSE(decoded->key == v) << s;
    EXPECT_EQ(decoded->key.size(), v.size());
    EXPECT_EQ(decoded->table_row, 99u);  // Ref_T block untouched
  }
}

TEST_F(MacInteractionTest, ExactlyTwoBlocksOfVChange) {
  Index2005Codec codec(enc_, same_key_mac_, rng_);
  const size_t s = 6;
  const Bytes v(16 * s, 'V');
  const IndexEntryContext ctx = LeafContext(70);
  const Bytes stored = codec.Encode({v, 1}, ctx).value();
  auto forged = ForgeIndex2005Entry(stored, 16, v.size()).value();
  const Bytes v_prime = codec.Decode(forged.forged, ctx)->key;
  size_t changed_blocks = 0;
  for (size_t b = 0; b < s; ++b) {
    if (!(Bytes(v.begin() + b * 16, v.begin() + (b + 1) * 16) ==
          Bytes(v_prime.begin() + b * 16, v_prime.begin() + (b + 1) * 16))) {
      ++changed_blocks;
    }
  }
  EXPECT_EQ(changed_blocks, 2u);  // blocks j and j+1, CBC error propagation
}

TEST_F(MacInteractionTest, SeparateMacKeyDefeatsTheForgery) {
  Index2005Codec codec(enc_, separate_mac_, rng_);
  const Bytes v(16 * 4, 'V');
  const IndexEntryContext ctx = LeafContext(80);
  const Bytes stored = codec.Encode({v, 99}, ctx).value();
  auto forged = ForgeIndex2005Entry(stored, 16, v.size()).value();
  auto decoded = codec.Decode(forged.forged, ctx);
  EXPECT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kAuthenticationFailed);
}

TEST_F(MacInteractionTest, PreconditionsEnforced) {
  EXPECT_FALSE(ForgeIndex2005Entry(Bytes(100, 0), 16, 15).ok());   // unaligned
  EXPECT_FALSE(ForgeIndex2005Entry(Bytes(100, 0), 16, 16).ok());   // s == 1
  EXPECT_FALSE(ForgeIndex2005Entry(Bytes(2, 0), 16, 32).ok());     // truncated
}

TEST_F(MacInteractionTest, AeadIndexRejectsAnySingleByteChange) {
  auto aead = CreateAead(AeadAlgorithm::kOcbPmac, Bytes(16, 0x62)).value();
  AeadIndexCodec codec(*aead, rng_);
  const Bytes v(16 * 4, 'V');
  const IndexEntryContext ctx = LeafContext(90);
  const Bytes stored = codec.Encode({v, 99}, ctx).value();
  for (size_t i = 0; i < stored.size(); ++i) {
    Bytes bad = stored;
    bad[i] ^= 0x01;
    EXPECT_FALSE(codec.Decode(bad, ctx).ok()) << i;
  }
}

// ------------------------------------------------------ storage scrape

// Checks a key-less scrape of `path` against the session's own stored
// bytes: every row, every cell byte-equal to Table::cell, every tombstone.
void ExpectScrapeMatches(const SecureDatabase& db, const std::string& path) {
  const StatusOr<ScrapedImage> image = ScrapePageFile(path);
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  ASSERT_EQ(image->tables.size(), 1u);
  const ScrapedTable& scraped = image->tables[0];
  const Table& table =
      db.GetTableState("people").value()->encrypted_table->table();
  EXPECT_EQ(scraped.name, "people");
  EXPECT_EQ(scraped.indexed_columns, std::vector<std::string>{"id"});
  ASSERT_EQ(scraped.rows.size(), table.num_rows());
  ASSERT_EQ(scraped.deleted.size(), table.num_rows());
  for (uint64_t r = 0; r < table.num_rows(); ++r) {
    EXPECT_EQ(scraped.deleted[r], table.IsDeleted(r)) << r;
    ASSERT_EQ(scraped.rows[r].size(), table.num_columns()) << r;
    for (uint32_t c = 0; c < table.num_columns(); ++c) {
      EXPECT_EQ(BytesView(scraped.rows[r][c]), table.cell(r, c).value())
          << r << "," << c;
    }
  }
}

Status FillScrapeVictim(SecureDatabase& db) {
  SecureTableOptions options;
  options.indexed_columns = {"id"};
  const Schema schema({{"id", ValueType::kInt64, true},
                       {"name", ValueType::kString, false},
                       {"note", ValueType::kString, true}});
  SDBENC_RETURN_IF_ERROR(db.CreateTable("people", schema, options));
  for (int i = 0; i < 300; ++i) {
    // Row 100 is larger than a page and sits alone in its row group.
    const size_t note = i == 100 ? 6000 : 5 + (i * 37) % 90;
    SDBENC_RETURN_IF_ERROR(
        db.Insert("people", {Value::Int(i), Value::Str("p" + std::to_string(i)),
                             Value::Str(std::string(note, 'n'))})
            .status());
  }
  for (const uint64_t row : {0, 99, 100, 101, 299}) {
    SDBENC_RETURN_IF_ERROR(db.Delete("people", row));
  }
  return OkStatus();
}

// The scraper reads row groups as the engine writes them, both in a full
// image (SaveToFile) and in a session's own flushed page file.
TEST(StorageScrapeTest, RecoversEveryStoredCellAndTombstone) {
  const std::string saved = ::testing::TempDir() + "/sdbenc_scrape_saved.sdb";
  const std::string flushed =
      ::testing::TempDir() + "/sdbenc_scrape_flushed.pages";
  std::remove(flushed.c_str());
  {
    auto db = SecureDatabase::Open(Bytes(32, 0x21), 5).value();
    ASSERT_TRUE(FillScrapeVictim(*db).ok());
    ASSERT_TRUE(db->SaveToFile(saved).ok());
    ExpectScrapeMatches(*db, saved);
  }
  {
    auto db = SecureDatabase::Open(Bytes(32, 0x21),
                                   StorageOptions::File(flushed, 16), 5)
                  .value();
    ASSERT_TRUE(FillScrapeVictim(*db).ok());
    ASSERT_TRUE(db->Flush().ok());
    ExpectScrapeMatches(*db, flushed);
    // An update rewrites its group in place; the scrape follows.
    ASSERT_TRUE(db->Update("people", 7, "note", Value::Str("changed")).ok());
    ASSERT_TRUE(db->Flush().ok());
    ExpectScrapeMatches(*db, flushed);
  }
  std::remove(saved.c_str());
  std::remove(flushed.c_str());
  std::remove((flushed + ".wal").c_str());
}

}  // namespace
}  // namespace sdbenc
