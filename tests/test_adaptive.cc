// Adaptive query processing (DESIGN §13): the decrypted-block cache's
// security contract (secure wipe on eviction, epoch invalidation on key
// rotation), the incremental table statistics, the cost-based planner's
// mode behaviour and tenant isolation, and the version-2 catalog
// round-trip of sealed stats.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>

#include "core/secure_database.h"
#include "db/column_stats.h"
#include "db/serialize.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/planner.h"
#include "storage/decrypted_cache.h"

namespace sdbenc {
namespace {

// ------------------------------------------------------ DecryptedBlockCache

DecryptedBlockCache::Key MakeKey(uint64_t space, uint64_t block,
                                 uint64_t epoch) {
  DecryptedBlockCache::Key key;
  key.space = space;
  key.block = block;
  key.epoch = epoch;
  return key;
}

TEST(DecryptedCacheTest, InsertLookupEraseAndStats) {
  DecryptedBlockCache cache(1 << 20);
  const Bytes payload = BytesFromString("forty-two plaintext bytes");
  const auto key = MakeKey(1, 42, cache.epoch());

  EXPECT_FALSE(cache.Lookup(key).has_value());  // miss
  cache.Insert(key, ToView(payload));
  const auto hit = cache.Lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(*hit, payload);

  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.resident_frames, 1u);
  EXPECT_EQ(stats.resident_bytes, payload.size());

  cache.Erase(key);
  EXPECT_FALSE(cache.Lookup(key).has_value());
  EXPECT_EQ(cache.GetStats().resident_frames, 0u);
  EXPECT_GE(cache.GetStats().wipes, 1u);
}

TEST(DecryptedCacheTest, EvictedFramesAreZeroised) {
  // Tiny capacity so insertions evict quickly (per-shard share is 1/16).
  DecryptedBlockCache cache(16 << 10);
  size_t wiped_frames = 0;
  size_t nonzero_octets = 0;
  cache.SetWipeObserverForTest([&](const Bytes& frame) {
    ++wiped_frames;
    EXPECT_FALSE(frame.empty());  // wipe happens before the buffer shrinks
    for (const uint8_t b : frame) {
      if (b != 0) ++nonzero_octets;
    }
  });

  // Poison pattern: if a wipe were skipped, 0xAB octets would survive.
  const Bytes poison(512, 0xAB);
  for (uint64_t i = 0; i < 256; ++i) {
    cache.Insert(MakeKey(7, i, cache.epoch()), ToView(poison));
  }
  const auto stats = cache.GetStats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_GT(wiped_frames, 0u);
  EXPECT_EQ(nonzero_octets, 0u);  // every wiped frame was all-zero
  EXPECT_LE(stats.resident_bytes, cache.capacity_bytes());
  cache.SetWipeObserverForTest(nullptr);
}

TEST(DecryptedCacheTest, BumpEpochWipesAndInvalidatesEverything) {
  DecryptedBlockCache cache(1 << 20);
  const uint64_t old_epoch = cache.epoch();
  for (uint64_t i = 0; i < 32; ++i) {
    cache.Insert(MakeKey(3, i, old_epoch), ToView(Bytes(64, 0xCD)));
  }
  EXPECT_EQ(cache.GetStats().resident_frames, 32u);

  size_t wiped = 0;
  size_t nonzero = 0;
  cache.SetWipeObserverForTest([&](const Bytes& frame) {
    ++wiped;
    nonzero += static_cast<size_t>(
        std::count_if(frame.begin(), frame.end(),
                      [](uint8_t b) { return b != 0; }));
  });
  const uint64_t new_epoch = cache.BumpEpoch();
  cache.SetWipeObserverForTest(nullptr);

  EXPECT_GT(new_epoch, old_epoch);
  EXPECT_EQ(wiped, 32u);    // every frame of the old epoch was wiped
  EXPECT_EQ(nonzero, 0u);   // ... and zeroised first
  EXPECT_EQ(cache.GetStats().resident_frames, 0u);
  // Old-epoch keys can never be answered again.
  EXPECT_FALSE(cache.Lookup(MakeKey(3, 0, old_epoch)).has_value());
  EXPECT_FALSE(cache.Lookup(MakeKey(3, 0, new_epoch)).has_value());
}

TEST(DecryptedCacheTest, OversizedAndStaleEpochInsertsAreDropped) {
  DecryptedBlockCache cache(16 << 10);  // shard share: 1 KiB
  cache.Insert(MakeKey(1, 1, cache.epoch()), ToView(Bytes(4096, 0x11)));
  EXPECT_EQ(cache.GetStats().resident_frames, 0u);  // larger than a shard
  cache.Insert(MakeKey(1, 2, cache.epoch() - 1), ToView(Bytes(16, 0x22)));
  EXPECT_EQ(cache.GetStats().resident_frames, 0u);  // stale epoch
}

// ---------------------------------------------------------- ColumnStats

TEST(ColumnStatsTest, DistinctEstimateTracksCardinality) {
  ColumnStats wide;
  ColumnStats narrow;
  for (int i = 0; i < 2000; ++i) {
    wide.Observe(Value::Int(i));        // all distinct
    narrow.Observe(Value::Int(i % 4));  // four distinct
  }
  EXPECT_EQ(wide.non_null(), 2000u);
  // HLL with 64 registers: ~13% standard error; allow a generous band.
  EXPECT_GT(wide.EstimateDistinct(), 1200.0);
  EXPECT_LT(wide.EstimateDistinct(), 3200.0);
  EXPECT_LT(narrow.EstimateDistinct(), 16.0);
  EXPECT_GE(narrow.EstimateDistinct(), 1.0);
}

TEST(ColumnStatsTest, MinMaxOnlyForNumericsAndNullsSkipped) {
  ColumnStats stats;
  stats.Observe(Value::Int(5));
  stats.Observe(Value::Int(-3));
  stats.Observe(Value::Null());
  stats.Observe(Value::Int(11));
  EXPECT_EQ(stats.non_null(), 3u);
  ASSERT_TRUE(stats.min().has_value());
  ASSERT_TRUE(stats.max().has_value());
  EXPECT_EQ(*stats.min(), Value::Int(-3));
  EXPECT_EQ(*stats.max(), Value::Int(11));

  ColumnStats text;
  text.Observe(Value::Str("zebra"));
  EXPECT_FALSE(text.min().has_value());  // strings carry no range stats
}

TEST(ColumnStatsTest, SerializeRoundTrip) {
  TableStatistics stats(2);
  for (int i = 0; i < 500; ++i) {
    stats.ObserveInsert({Value::Int(i), Value::Str("s" + std::to_string(i))});
  }
  BinaryWriter w;
  stats.Serialize(w);
  BinaryReader r(w.data());
  const auto restored = TableStatistics::Deserialize(r);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->row_count(), 500u);
  EXPECT_EQ(restored->num_columns(), 2u);
  EXPECT_DOUBLE_EQ(restored->column(0).EstimateDistinct(),
                   stats.column(0).EstimateDistinct());
  EXPECT_EQ(*restored->column(0).max(), Value::Int(499));
  EXPECT_DOUBLE_EQ(restored->avg_row_bytes(), stats.avg_row_bytes());
}

TEST(TableStatisticsTest, SelectivityEstimates) {
  TableStatistics stats(1);
  for (int i = 0; i < 1000; ++i) {
    stats.ObserveInsert({Value::Int(i % 10)});  // 10 distinct values
  }
  const double eq = stats.EstimateEqualityFraction(0, 0.5);
  EXPECT_GT(eq, 0.02);
  EXPECT_LT(eq, 0.5);  // far below the fallback; near 1/10

  // Range [0, 4] over observed [0, 9]: about half the table.
  const Value lo = Value::Int(0);
  const Value hi = Value::Int(4);
  const double range = stats.EstimateRangeFraction(0, &lo, &hi, 1.0);
  EXPECT_GT(range, 0.2);
  EXPECT_LT(range, 0.8);

  // Unbounded on both sides = the whole table.
  EXPECT_DOUBLE_EQ(stats.EstimateRangeFraction(0, nullptr, nullptr, 0.1),
                   1.0);
}

// ------------------------------------------------- adaptive planning + cache

// Parameterised over the engine's thread count (1, 2, 4, 8): the planner
// never reads it, so every plan assertion holds at each width.
class AdaptiveQueryTest : public ::testing::TestWithParam<size_t> {
 protected:
  static constexpr int kRows = 2000;

  AdaptiveQueryTest() {
    db_ = std::move(SecureDatabase::Open(Bytes(32, 0x7a), 1337).value());
    SecureTableOptions options;
    options.indexed_columns = {"id"};
    options.index_order = 16;
    Schema schema({{"id", ValueType::kInt64, true},
                   {"grp", ValueType::kInt64, true},
                   {"payload", ValueType::kString, true}});
    EXPECT_TRUE(db_->CreateTable("t", schema, options).ok());
    std::vector<std::vector<Value>> rows;
    rows.reserve(kRows);
    for (int i = 0; i < kRows; ++i) {
      rows.push_back({Value::Int(i), Value::Int(i % 50),
                      Value::Str("payload-" + std::to_string(i))});
    }
    EXPECT_TRUE(db_->BulkInsert("t", rows).ok());
    engine_ = std::make_unique<QueryEngine>(
        db_.get(), Parallelism::Exactly(GetParam()));
  }

  SelectStatement PointQuery(int64_t id) const {
    SelectStatement s;
    s.table = "t";
    s.where = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                            Expr::Literal(Value::Int(id)));
    return s;
  }

  SelectStatement WideRange() const {
    // id >= 100 covers 95% of the table, and the unindexed grp conjunct
    // keeps a residual on both paths — the shape where the scan's single
    // sweep beats the index's per-row entry decodes.
    SelectStatement s;
    s.table = "t";
    s.where = Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column("id"),
                                      Expr::Literal(Value::Int(100))),
                        Expr::Compare(CompareOp::kGe, Expr::Column("grp"),
                                      Expr::Literal(Value::Int(1))));
    return s;
  }

  std::unique_ptr<SecureDatabase> db_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_P(AdaptiveQueryTest, PointQueryKeepsTheIndex) {
  const auto plan = engine_->Explain(PointQuery(1234));
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("index-range(id"), std::string::npos) << *plan;
}

TEST_P(AdaptiveQueryTest, WideRangeIsDemotedToScan) {
  const auto plan = engine_->Explain(WideRange());
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->find("index-range"), std::string::npos) << *plan;

  engine_->set_planner_mode(PlannerMode::kForceIndex);
  const auto forced = engine_->Explain(WideRange());
  ASSERT_TRUE(forced.ok());
  EXPECT_NE(forced->find("index-range(id"), std::string::npos) << *forced;
  engine_->set_planner_mode(PlannerMode::kAdaptive);
}

TEST_P(AdaptiveQueryTest, AllPlannerModesReturnIdenticalResults) {
  const PlannerMode modes[] = {PlannerMode::kAdaptive,
                               PlannerMode::kForceIndex,
                               PlannerMode::kForceScan};
  const SelectStatement queries[] = {PointQuery(777), WideRange()};
  for (const SelectStatement& q : queries) {
    std::vector<std::vector<std::vector<Value>>> results;
    for (const PlannerMode mode : modes) {
      engine_->set_planner_mode(mode);
      auto r = engine_->Execute(q);
      ASSERT_TRUE(r.ok());
      results.push_back(r->rows);
    }
    EXPECT_EQ(results[0], results[1]);
    EXPECT_EQ(results[0], results[2]);
  }
  engine_->set_planner_mode(PlannerMode::kAdaptive);
}

TEST_P(AdaptiveQueryTest, RepeatedQueriesHitTheCache) {
  DecryptedBlockCache* cache = db_->decrypted_cache();
  ASSERT_TRUE(engine_->Execute(PointQuery(55)).ok());
  const uint64_t hits_before = cache->GetStats().hits;
  auto again = engine_->Execute(PointQuery(55));
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->rows.size(), 1u);
  EXPECT_GT(cache->GetStats().hits, hits_before);
}

TEST_P(AdaptiveQueryTest, RotationInvalidatesEveryCachedEpoch) {
  DecryptedBlockCache* cache = db_->decrypted_cache();
  auto before = engine_->Execute(PointQuery(321));
  ASSERT_TRUE(before.ok());
  EXPECT_GT(cache->GetStats().resident_frames, 0u);
  const uint64_t old_epoch = cache->epoch();

  size_t nonzero = 0;
  cache->SetWipeObserverForTest([&](const Bytes& frame) {
    nonzero += static_cast<size_t>(
        std::count_if(frame.begin(), frame.end(),
                      [](uint8_t b) { return b != 0; }));
  });
  ASSERT_TRUE(db_->RotateMasterKey(Bytes(32, 0x99)).ok());
  cache->SetWipeObserverForTest(nullptr);

  EXPECT_EQ(nonzero, 0u);  // every rotated-away frame was zeroised
  EXPECT_GT(cache->epoch(), old_epoch);
  EXPECT_EQ(cache->GetStats().resident_frames, 0u);

  // Same answers under the new key, and the cache refills under the new
  // epoch.
  auto after = engine_->Execute(PointQuery(321));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(before->rows, after->rows);
  EXPECT_GT(cache->GetStats().resident_frames, 0u);
}

TEST_P(AdaptiveQueryTest, TamperingIsDetectedDespiteWarmCache) {
  // Warm the cache with the victim row...
  ASSERT_TRUE(engine_->Execute(PointQuery(3)).ok());
  // ... then rewrite its stored ciphertext, as the storage adversary would.
  Table* raw = db_->storage().GetTable("t").value();
  (*raw->mutable_cell(3, 2).value())[7] ^= 1;
  auto read = engine_->Execute(PointQuery(3));
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kAuthenticationFailed);
}

TEST_P(AdaptiveQueryTest, StatsMaintainedAcrossWrites) {
  const auto* state = db_->GetTableState("t").value();
  EXPECT_EQ(state->stats.row_count(), static_cast<uint64_t>(kRows));
  EXPECT_GT(state->stats.column(0).EstimateDistinct(), kRows * 0.6);
  ASSERT_TRUE(db_->Insert("t", {Value::Int(kRows), Value::Int(0),
                                Value::Str("x")})
                  .ok());
  EXPECT_EQ(state->stats.row_count(), static_cast<uint64_t>(kRows) + 1);
  ASSERT_TRUE(db_->Delete("t", 0).ok());
  EXPECT_EQ(state->stats.row_count(), static_cast<uint64_t>(kRows));
}

TEST_P(AdaptiveQueryTest, CloseSessionWipesTheCache) {
  ASSERT_TRUE(engine_->Execute(PointQuery(9)).ok());
  DecryptedBlockCache* cache = db_->decrypted_cache();
  EXPECT_GT(cache->GetStats().resident_frames, 0u);
  db_->CloseSession();
  EXPECT_EQ(cache->GetStats().resident_frames, 0u);
}

// Two sessions in one process, as sdbenc_serve hosts tenants. This
// fixture's session is tenant B. Tenant A runs cold scans over a
// file-backed store with a tiny buffer pool, which moves the process-global
// pool counters, and then warms its own cache. Neither may change B's plan
// text or priced cost, and neither may B's own cache state: the planner
// reads only B's table.
TEST_P(AdaptiveQueryTest, OtherTenantsTrafficCannotMoveThePlan) {
  const SelectStatement queries[] = {PointQuery(1234), WideRange()};
  const auto* state = db_->GetTableState("t").value();
  const auto plans = [&] {
    std::vector<std::pair<std::string, double>> out;
    for (const SelectStatement& q : queries) {
      out.emplace_back(
          engine_->Explain(q).value(),
          PlanForTable(*state, q.where, PlannerMode::kAdaptive).cost);
    }
    return out;
  };
  const auto before = plans();
  EXPECT_GT(before[0].second, 0.0);

  const std::string path =
      ::testing::TempDir() + "/sdbenc_test_adaptive_tenant_a.sdb";
  std::remove(path.c_str());
  const Bytes key_a(32, 0x5a);
  {
    auto a = std::move(
        SecureDatabase::Open(key_a, StorageOptions::File(path, 8), 5).value());
    SecureTableOptions options;
    options.indexed_columns = {"id"};
    Schema schema({{"id", ValueType::kInt64, true},
                   {"grp", ValueType::kInt64, true}});
    ASSERT_TRUE(a->CreateTable("t", schema, options).ok());
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE(a->Insert("t", {Value::Int(i), Value::Int(i % 7)}).ok());
    }
    ASSERT_TRUE(a->Flush().ok());
  }
  // The reopen faults A's catalog, rows and index nodes through 8 frames.
  obs::Counter* global_misses =
      obs::Registry().GetCounter("sdbenc_storage_pool_misses_total");
  const uint64_t global_misses_before = global_misses->Value();
  auto a = std::move(
      SecureDatabase::Open(key_a, StorageOptions::File(path, 8), 6).value());
  QueryEngine engine_a(a.get(), Parallelism::Exactly(GetParam()));
  SelectStatement scan;
  scan.table = "t";
  scan.where = Expr::Compare(CompareOp::kEq, Expr::Column("grp"),
                             Expr::Literal(Value::Int(3)));
  for (int pass = 0; pass < 2; ++pass) {  // cold, then cache-warm
    auto r = engine_a.Execute(scan);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows.size(), 57u);
  }
  EXPECT_GT(a->storage_engine()->stats().pool_misses, 0u);
  if (obs::kMetricsEnabled) {
    EXPECT_GT(global_misses->Value(), global_misses_before);
  }
  EXPECT_GT(a->decrypted_cache()->GetStats().hits, 0u);
  EXPECT_EQ(plans(), before);

  // B's own cache, warm and then wiped, is no planner input either.
  for (const SelectStatement& q : queries) {
    ASSERT_TRUE(engine_->Execute(q).ok());
  }
  EXPECT_GT(db_->decrypted_cache()->GetStats().resident_frames, 0u);
  EXPECT_EQ(plans(), before);
  db_->decrypted_cache()->WipeAll();
  EXPECT_EQ(plans(), before);

  a.reset();
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(Threads, AdaptiveQueryTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "x" + std::to_string(info.param);
                         });

// ----------------------------------------------------- catalog v2 round-trip

TEST(CatalogV2Test, SealedStatsSurviveSaveAndReopen) {
  const std::string path =
      ::testing::TempDir() + "/sdbenc_test_adaptive_catalog.sdb";
  const Bytes key(32, 0x31);
  {
    auto db = std::move(SecureDatabase::Open(key, 99).value());
    SecureTableOptions options;
    options.indexed_columns = {"id"};
    Schema schema({{"id", ValueType::kInt64, true},
                   {"grp", ValueType::kInt64, true}});
    ASSERT_TRUE(db->CreateTable("t", schema, options).ok());
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE(
          db->Insert("t", {Value::Int(i), Value::Int(i % 7)}).ok());
    }
    ASSERT_TRUE(db->SaveToFile(path).ok());
  }
  {
    auto reopened = SecureDatabase::OpenFromFile(key, path, 100);
    ASSERT_TRUE(reopened.ok());
    const auto* state = (*reopened)->GetTableState("t").value();
    EXPECT_EQ(state->stats.row_count(), 300u);
    // The sealed sketch came back, not just the row count: the distinct
    // estimates are meaningful for both columns.
    EXPECT_GT(state->stats.column(0).EstimateDistinct(), 100.0);
    EXPECT_LT(state->stats.column(1).EstimateDistinct(), 32.0);
    ASSERT_TRUE(state->stats.column(0).max().has_value());
    EXPECT_EQ(*state->stats.column(0).max(), Value::Int(299));
    // And queries still run against the reopened file.
    QueryEngine engine((*reopened).get());
    SelectStatement q;
    q.table = "t";
    q.where = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                            Expr::Literal(Value::Int(123)));
    auto r = engine.Execute(q);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r->rows.size(), 1u);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sdbenc
