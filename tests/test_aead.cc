#include <gtest/gtest.h>

#include "aead/ccfb.h"
#include "aead/eax.h"
#include "aead/factory.h"
#include "aead/gcm.h"
#include "aead/ocb.h"
#include "aead/siv.h"
#include "crypto/aes.h"
#include "crypto/counting_cipher.h"
#include "db/cell_address.h"
#include "obs/metrics.h"
#include "query/planner.h"
#include "util/hex.h"
#include "util/rng.h"

namespace sdbenc {
namespace {

std::unique_ptr<Aead> Make(AeadAlgorithm alg, uint8_t key_fill = 0x42) {
  const size_t key_len =
      (alg == AeadAlgorithm::kSiv || alg == AeadAlgorithm::kEtm) ? 32 : 16;
  return std::move(CreateAead(alg, Bytes(key_len, key_fill)).value());
}

// --------------------------------------------------- EAX paper vectors

struct EaxVector {
  const char* key;
  const char* nonce;
  const char* header;
  const char* msg;
  const char* cipher;  // ciphertext || tag as listed in the EAX paper
};

// Bellare–Rogaway–Wagner, "The EAX Mode of Operation", test vectors 1-4.
const EaxVector kEaxVectors[] = {
    {"233952DEE4D5ED5F9B9C6D6FF80FF478", "62EC67F9C3A4A407FCB2A8C49031A8B3",
     "6BFB914FD07EAE6B", "", "E037830E8389F27B025A2D6527E79D01"},
    {"91945D3F4DCBEE0BF45EF52255F095A4", "BECAF043B0A23D843194BA972C66DEBD",
     "FA3BFD4806EB53FA", "F7FB", "19DD5C4C9331049D0BDAB0277408F67967E5"},
    {"01F74AD64077F2E704C0F60ADA3DD523", "70C3DB4F0D26368400A10ED05D2BFF5E",
     "234A3463C1264AC6", "1A47CB4933",
     "D851D5BAE03A59F238A23E39199DC9266626C40F80"},
    {"D07CF6CBB7F313BDDE66B727AFD3C5E8", "8408DFFF3C1A2B1292DC199E46B7D617",
     "33CCE2EABFF5A79D", "481C9E39B1",
     "632A9D131AD4C168A4225D8E1FF755939974A7BEDE"},
};

class EaxVectorTest : public ::testing::TestWithParam<EaxVector> {};

TEST_P(EaxVectorTest, MatchesPublishedVector) {
  const EaxVector& v = GetParam();
  auto aead = CreateAead(AeadAlgorithm::kEax, MustHexDecode(v.key)).value();
  const Bytes nonce = MustHexDecode(v.nonce);
  const Bytes header = MustHexDecode(v.header);
  const Bytes msg = MustHexDecode(v.msg);
  const Bytes expected = MustHexDecode(v.cipher);

  auto sealed = aead->Seal(nonce, msg, header);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(Concat(sealed->ciphertext, sealed->tag), expected);

  auto opened = aead->Open(nonce, sealed->ciphertext, sealed->tag, header);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, msg);
}

INSTANTIATE_TEST_SUITE_P(PaperVectors, EaxVectorTest,
                         ::testing::ValuesIn(kEaxVectors));

// ------------------------------------------------ GCM reference vectors
// Cases 1-2 are NIST GCM spec vectors; 3-4 were generated with OpenSSL 3
// (see DESIGN.md §6) against synthetic patterns reproduced here.

TEST(GcmTest, NistCase1EmptyEverything) {
  auto gcm = CreateAead(AeadAlgorithm::kGcm, Bytes(16, 0)).value();
  auto sealed = gcm->Seal(Bytes(12, 0), Bytes(), Bytes());
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(sealed->ciphertext.empty());
  EXPECT_EQ(HexEncode(sealed->tag), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, NistCase2SingleZeroBlock) {
  auto gcm = CreateAead(AeadAlgorithm::kGcm, Bytes(16, 0)).value();
  auto sealed = gcm->Seal(Bytes(12, 0), Bytes(16, 0), Bytes());
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(sealed->ciphertext),
            "0388dace60b6a392f328c2b971b2fe78");
  EXPECT_EQ(HexEncode(sealed->tag), "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(GcmTest, OpensslCrossCheckWithAad) {
  auto gcm = CreateAead(AeadAlgorithm::kGcm,
                        MustHexDecode("feffe9928665731c6d6a8f9467308308"))
                 .value();
  const Bytes iv = MustHexDecode("cafebabefacedbaddecaf888");
  Bytes pt(60), aad(20);
  for (int i = 0; i < 60; ++i) pt[i] = static_cast<uint8_t>(i * 7 + 3);
  for (int i = 0; i < 20; ++i) aad[i] = static_cast<uint8_t>(i * 11 + 1);
  auto sealed = gcm->Seal(iv, pt, aad);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(sealed->ciphertext),
            "98b83dffc6d55ff5d56961227c7b976a167709f4b6a0ce9eb03ff7de6453fe80"
            "de03e9df3e08975b49624d4ed21c5a6cf99387a4af7137440ca90208");
  EXPECT_EQ(HexEncode(sealed->tag), "938efb074fde6ba7eefaf055d46a014d");
}

TEST(GcmTest, OpensslCrossCheckAes256Partial) {
  Bytes key(32);
  for (int i = 0; i < 32; ++i) key[i] = static_cast<uint8_t>(i);
  auto gcm = CreateAead(AeadAlgorithm::kGcm, key).value();
  const Bytes iv = MustHexDecode("cafebabefacedbaddecaf888");
  Bytes pt(23), aad(7);
  for (int i = 0; i < 23; ++i) pt[i] = static_cast<uint8_t>(200 - i);
  for (int i = 0; i < 7; ++i) aad[i] = static_cast<uint8_t>(i * 11 + 1);
  auto sealed = gcm->Seal(iv, pt, aad);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(sealed->ciphertext),
            "426466e36eb98dda86b4e360c7a63386b59776e46baad8");
  EXPECT_EQ(HexEncode(sealed->tag), "8a2130fa3c5737867b97863cf8232e12");
}

// -------------------------------------------------- SIV RFC 5297 vector

TEST(SivTest, Rfc5297DeterministicAuthenticatedExample) {
  auto siv = CreateAead(
                 AeadAlgorithm::kSiv,
                 MustHexDecode("fffefdfcfbfaf9f8f7f6f5f4f3f2f1f0"
                               "f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff"))
                 .value();
  const Bytes ad =
      MustHexDecode("101112131415161718191a1b1c1d1e1f2021222324252627");
  const Bytes pt = MustHexDecode("112233445566778899aabbccddee");
  auto sealed = siv->Seal(Bytes(), pt, ad);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(sealed->tag), "85632d07c6e8f37f950acd320a2ecc93");
  EXPECT_EQ(HexEncode(sealed->ciphertext), "40c02b9690c4dc04daef7f6afe5c");
  auto opened = siv->Open(Bytes(), sealed->ciphertext, sealed->tag, ad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(SivTest, DeterminismAndMisuseResistance) {
  auto siv = Make(AeadAlgorithm::kSiv);
  const Bytes pt = BytesFromString("same plaintext");
  const Bytes ad = BytesFromString("same ad");
  auto a = siv->Seal(Bytes(), pt, ad);
  auto b = siv->Seal(Bytes(), pt, ad);
  // Deterministic: identical input -> identical output (leaks only equality).
  EXPECT_EQ(a->ciphertext, b->ciphertext);
  EXPECT_EQ(a->tag, b->tag);
  // Different AD -> unrelated output.
  auto c = siv->Seal(Bytes(), pt, BytesFromString("other ad"));
  EXPECT_NE(a->ciphertext, c->ciphertext);
  EXPECT_FALSE(siv->Seal(Bytes(12, 0), pt, ad).ok());  // nonce rejected
}

// ------------------------------------- generic conformance, all schemes

class AeadConformanceTest : public ::testing::TestWithParam<AeadAlgorithm> {
 protected:
  std::unique_ptr<Aead> aead_ = Make(GetParam());
  DeterministicRng rng_{2024};
};

TEST_P(AeadConformanceTest, RoundTripsAllLengths) {
  for (size_t pt_len : {0u, 1u, 11u, 12u, 13u, 15u, 16u, 17u, 31u, 32u, 33u,
                        100u, 255u, 1000u}) {
    for (size_t ad_len : {0u, 1u, 16u, 20u, 33u}) {
      const Bytes pt = rng_.RandomBytes(pt_len);
      const Bytes ad = rng_.RandomBytes(ad_len);
      const Bytes nonce = rng_.RandomBytes(aead_->nonce_size());
      auto sealed = aead_->Seal(nonce, pt, ad);
      ASSERT_TRUE(sealed.ok()) << aead_->name();
      EXPECT_EQ(sealed->ciphertext.size(), pt_len) << aead_->name();
      EXPECT_EQ(sealed->tag.size(), aead_->tag_size());
      auto opened = aead_->Open(nonce, sealed->ciphertext, sealed->tag, ad);
      ASSERT_TRUE(opened.ok())
          << aead_->name() << " pt=" << pt_len << " ad=" << ad_len;
      EXPECT_EQ(*opened, pt);
    }
  }
}

TEST_P(AeadConformanceTest, RejectsEverysingle1BitCiphertextFlip) {
  const Bytes pt = rng_.RandomBytes(40);
  const Bytes ad = BytesFromString("cell (1,2,3)");
  const Bytes nonce = rng_.RandomBytes(aead_->nonce_size());
  auto sealed = aead_->Seal(nonce, pt, ad).value();
  for (size_t byte = 0; byte < sealed.ciphertext.size(); ++byte) {
    Bytes bad = sealed.ciphertext;
    bad[byte] ^= 0x01;
    auto r = aead_->Open(nonce, bad, sealed.tag, ad);
    EXPECT_FALSE(r.ok()) << aead_->name() << " byte " << byte;
    EXPECT_EQ(r.status().code(), StatusCode::kAuthenticationFailed);
  }
}

TEST_P(AeadConformanceTest, RejectsTagTamperAndTruncation) {
  const Bytes pt = rng_.RandomBytes(24);
  const Bytes nonce = rng_.RandomBytes(aead_->nonce_size());
  auto sealed = aead_->Seal(nonce, pt, Bytes()).value();
  Bytes bad_tag = sealed.tag;
  bad_tag.back() ^= 0x80;
  EXPECT_FALSE(aead_->Open(nonce, sealed.ciphertext, bad_tag, Bytes()).ok());
  Bytes short_tag(sealed.tag.begin(), sealed.tag.end() - 1);
  EXPECT_FALSE(
      aead_->Open(nonce, sealed.ciphertext, short_tag, Bytes()).ok());
}

TEST_P(AeadConformanceTest, RejectsWrongAssociatedData) {
  // The heart of the fix: the cell address is AD, so relocation fails.
  const Bytes pt = BytesFromString("salary=120000");
  const Bytes nonce = rng_.RandomBytes(aead_->nonce_size());
  auto sealed = aead_->Seal(nonce, pt, BytesFromString("(t=1,r=5,c=2)"));
  auto moved = aead_->Open(nonce, sealed->ciphertext, sealed->tag,
                           BytesFromString("(t=1,r=6,c=2)"));
  EXPECT_FALSE(moved.ok()) << aead_->name();
  EXPECT_EQ(moved.status().code(), StatusCode::kAuthenticationFailed);
}

TEST_P(AeadConformanceTest, RejectsWrongNonce) {
  if (aead_->nonce_size() == 0) GTEST_SKIP() << "deterministic scheme";
  const Bytes pt = rng_.RandomBytes(30);
  const Bytes nonce = rng_.RandomBytes(aead_->nonce_size());
  auto sealed = aead_->Seal(nonce, pt, Bytes()).value();
  Bytes other = nonce;
  other[0] ^= 1;
  EXPECT_FALSE(aead_->Open(other, sealed.ciphertext, sealed.tag, Bytes()).ok());
}

TEST_P(AeadConformanceTest, RejectsWrongKey) {
  const Bytes pt = rng_.RandomBytes(30);
  const Bytes nonce = rng_.RandomBytes(aead_->nonce_size());
  auto sealed = aead_->Seal(nonce, pt, Bytes()).value();
  auto other = Make(GetParam(), 0x43);
  EXPECT_FALSE(other->Open(nonce, sealed.ciphertext, sealed.tag, Bytes()).ok());
}

TEST_P(AeadConformanceTest, FreshNoncesHideEqualPlaintexts) {
  if (aead_->nonce_size() == 0) GTEST_SKIP() << "deterministic scheme";
  // IND$ behaviour the paper's §4 requires: same plaintext, fresh nonces,
  // unrelated ciphertexts (in particular, no shared prefix).
  const Bytes pt(64, 0x41);
  const Bytes n1 = rng_.RandomBytes(aead_->nonce_size());
  const Bytes n2 = rng_.RandomBytes(aead_->nonce_size());
  auto a = aead_->Seal(n1, pt, Bytes()).value();
  auto b = aead_->Seal(n2, pt, Bytes()).value();
  EXPECT_NE(a.ciphertext, b.ciphertext);
  EXPECT_NE(Bytes(a.ciphertext.begin(), a.ciphertext.begin() + 16),
            Bytes(b.ciphertext.begin(), b.ciphertext.begin() + 16));
}

TEST_P(AeadConformanceTest, EnforcesNonceLength) {
  if (aead_->nonce_size() == 0) GTEST_SKIP();
  EXPECT_FALSE(
      aead_->Seal(Bytes(aead_->nonce_size() + 1, 0), Bytes(), Bytes()).ok());
  EXPECT_FALSE(
      aead_->Open(Bytes(aead_->nonce_size() - 1, 0), Bytes(),
                  Bytes(aead_->tag_size(), 0), Bytes())
          .ok());
}

TEST_P(AeadConformanceTest, OverheadMatchesNoncePlusTag) {
  EXPECT_EQ(aead_->overhead(), aead_->nonce_size() + aead_->tag_size());
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, AeadConformanceTest,
    ::testing::Values(AeadAlgorithm::kEax, AeadAlgorithm::kOcbPmac,
                      AeadAlgorithm::kCcfb, AeadAlgorithm::kEtm,
                      AeadAlgorithm::kGcm, AeadAlgorithm::kSiv),
    [](const ::testing::TestParamInfo<AeadAlgorithm>& info) {
      return AeadAlgorithmName(info.param);
    });

// --------------------------------------------- storage overhead (paper §4)

TEST(AeadOverheadTest, PaperStorageNumbers) {
  // "the storage overhead thus is limited to the nonce and the tag, i.e.
  // 256 bits or 32 octets for EAX and OCB+PMAC, ... and 128 bits or 16
  // octets for CCFB."
  EXPECT_EQ(Make(AeadAlgorithm::kEax)->overhead(), 32u);
  EXPECT_EQ(Make(AeadAlgorithm::kOcbPmac)->overhead(), 32u);
  EXPECT_EQ(Make(AeadAlgorithm::kCcfb)->overhead(), 16u);
}

// ------------------------------------- block-cipher call counts (paper §4)

struct CallCountFixture {
  std::unique_ptr<Aead> aead;
  const CountingBlockCipher* counter;
};

CallCountFixture MakeCounting(AeadAlgorithm alg) {
  auto aes = Aes::Create(Bytes(16, 0x42)).value();
  auto counting =
      std::make_unique<CountingBlockCipher>(std::move(aes));
  const CountingBlockCipher* raw = counting.get();
  CallCountFixture fixture;
  switch (alg) {
    case AeadAlgorithm::kEax:
      fixture.aead = std::move(EaxAead::Create(std::move(counting)).value());
      break;
    case AeadAlgorithm::kOcbPmac:
      fixture.aead = std::move(OcbAead::Create(std::move(counting)).value());
      break;
    case AeadAlgorithm::kCcfb:
      fixture.aead = std::move(CcfbAead::Create(std::move(counting)).value());
      break;
    case AeadAlgorithm::kGcm:
      fixture.aead = std::move(GcmAead::Create(std::move(counting)).value());
      break;
    default:
      break;
  }
  fixture.counter = raw;
  return fixture;
}

TEST(AeadCallCountTest, EaxIsTwoPassPlusHeader) {
  // Paper §4: EAX needs 2n + m + 1 block-cipher calls (plus reusable
  // precomputation). Our OMAC prepends a one-block tweak to each of the
  // three passes, so the per-message constant differs by a small fixed
  // amount — the 2n + m slope is what the paper's accounting predicts.
  auto f = MakeCounting(AeadAlgorithm::kEax);
  const Bytes nonce(16, 1);
  auto count_for = [&](size_t n_blocks, size_t m_blocks) {
    const_cast<CountingBlockCipher*>(f.counter)->ResetCounters();
    (void)f.aead->Seal(nonce, Bytes(16 * n_blocks, 0), Bytes(16 * m_blocks, 0));
    return f.counter->total_calls();
  };
  const uint64_t base = count_for(4, 1);
  EXPECT_EQ(count_for(5, 1) - base, 2u);   // +1 message block -> +2 calls
  EXPECT_EQ(count_for(4, 2) - base, 1u);   // +1 header block  -> +1 call
  EXPECT_EQ(count_for(8, 1) - base, 8u);   // slope 2 in n
}

TEST(AeadCallCountTest, OcbIsOnePassPlusHeader) {
  // Paper §4: OCB+PMAC needs n + m + 5 calls.
  auto f = MakeCounting(AeadAlgorithm::kOcbPmac);
  const Bytes nonce(16, 1);
  auto count_for = [&](size_t n_blocks, size_t m_blocks) {
    const_cast<CountingBlockCipher*>(f.counter)->ResetCounters();
    (void)f.aead->Seal(nonce, Bytes(16 * n_blocks, 0), Bytes(16 * m_blocks, 0));
    return f.counter->total_calls();
  };
  const uint64_t base = count_for(4, 1);
  EXPECT_EQ(count_for(5, 1) - base, 1u);   // +1 message block -> +1 call
  EXPECT_EQ(count_for(4, 2) - base, 1u);   // +1 header block  -> +1 call
  EXPECT_EQ(count_for(8, 1) - base, 4u);   // slope 1 in n
}

TEST(AeadCallCountTest, CcfbSitsBetweenEaxAndOcb) {
  // "CCFB is, depending on parameters, somewhere in between": with 96 of
  // 128 bits carrying payload, the slope is 4/3 calls per 16-octet block.
  auto eax = MakeCounting(AeadAlgorithm::kEax);
  auto ocb = MakeCounting(AeadAlgorithm::kOcbPmac);
  auto ccfb = MakeCounting(AeadAlgorithm::kCcfb);
  auto slope = [](CallCountFixture& f, size_t nonce_len) {
    const Bytes nonce(nonce_len, 1);
    const_cast<CountingBlockCipher*>(f.counter)->ResetCounters();
    (void)f.aead->Seal(nonce, Bytes(16 * 12, 0), Bytes());
    const uint64_t lo = f.counter->total_calls();
    const_cast<CountingBlockCipher*>(f.counter)->ResetCounters();
    (void)f.aead->Seal(nonce, Bytes(16 * 24, 0), Bytes());
    return static_cast<double>(f.counter->total_calls() - lo) / 12.0;
  };
  const double s_eax = slope(eax, 16);
  const double s_ocb = slope(ocb, 16);
  const double s_ccfb = slope(ccfb, 12);
  EXPECT_NEAR(s_eax, 2.0, 0.01);
  EXPECT_NEAR(s_ocb, 1.0, 0.01);
  EXPECT_GT(s_ccfb, s_ocb);
  EXPECT_LT(s_ccfb, s_eax);
  EXPECT_NEAR(s_ccfb, 16.0 / 12.0, 0.05);
}

// The planner prices every cell open with AeadOpenBlocks (query/planner.cc).
// Pinning it to the instrumented cipher keeps the cost model and the
// paper's §4 accounting (EXPERIMENTS E8) from drifting apart. Cells are
// opened as AeadCellCodec opens them, with the 20-octet cell address as
// the header.
TEST(AeadCallCountTest, PlannerOpenFormulaMatchesCountedCalls) {
  const Bytes address = CellAddress{1, 2, 3}.Encode();
  for (const AeadAlgorithm alg :
       {AeadAlgorithm::kEax, AeadAlgorithm::kOcbPmac, AeadAlgorithm::kCcfb,
        AeadAlgorithm::kGcm}) {
    auto f = MakeCounting(alg);
    ASSERT_NE(f.aead, nullptr);
    const Bytes nonce(f.aead->nonce_size(), 1);
    for (const size_t blocks : {1, 8, 64}) {
      const Bytes plaintext(16 * blocks, 0x5c);
      auto sealed = f.aead->Seal(nonce, plaintext, address);
      ASSERT_TRUE(sealed.ok());
      const_cast<CountingBlockCipher*>(f.counter)->ResetCounters();
      ASSERT_TRUE(
          f.aead->Open(nonce, sealed->ciphertext, sealed->tag, address).ok());
      EXPECT_EQ(f.counter->total_calls(),
                AeadOpenBlocks(alg, plaintext.size(), address.size()))
          << AeadAlgorithmName(alg) << " at " << blocks << " blocks";
    }
  }
}

// EtM and SIV build their own AES, so their opens are counted through the
// process-wide AES block counters instead of a wrapped cipher.
TEST(AeadCallCountTest, PlannerOpenFormulaMatchesAesBlockCounters) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Counter* enc =
      obs::Registry().GetCounter("sdbenc_cipher_encrypt_blocks_total");
  obs::Counter* dec =
      obs::Registry().GetCounter("sdbenc_cipher_decrypt_blocks_total");
  const Bytes address = CellAddress{1, 2, 3}.Encode();
  for (const AeadAlgorithm alg : {AeadAlgorithm::kEtm, AeadAlgorithm::kSiv}) {
    auto aead = CreateAead(alg, Bytes(32, 0x42));
    ASSERT_TRUE(aead.ok());
    const Bytes nonce((*aead)->nonce_size(), 1);
    for (const size_t blocks : {1, 8, 64}) {
      const Bytes plaintext(16 * blocks, 0x5c);
      auto sealed = (*aead)->Seal(nonce, plaintext, address);
      ASSERT_TRUE(sealed.ok());
      const uint64_t before = enc->Value() + dec->Value();
      ASSERT_TRUE((*aead)
                      ->Open(nonce, sealed->ciphertext, sealed->tag, address)
                      .ok());
      EXPECT_EQ(enc->Value() + dec->Value() - before,
                AeadOpenBlocks(alg, plaintext.size(), address.size()))
          << AeadAlgorithmName(alg) << " at " << blocks << " blocks";
    }
  }
}

}  // namespace
}  // namespace sdbenc
