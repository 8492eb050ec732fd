#include <gtest/gtest.h>

#include "core/secure_database.h"
#include "query/engine.h"
#include "query/expr.h"
#include "query/planner.h"
#include "query/sql_parser.h"
#include "storage/decrypted_cache.h"

namespace sdbenc {
namespace {

// ------------------------------------------------------------------- Expr

Schema TestSchema() {
  return Schema({{"id", ValueType::kInt64, true},
                 {"name", ValueType::kString, true},
                 {"salary", ValueType::kInt64, true}});
}

std::vector<Value> Row(int64_t id, const std::string& name, int64_t salary) {
  return {Value::Int(id), Value::Str(name), Value::Int(salary)};
}

TEST(ExprTest, ComparisonsAgainstColumns) {
  const Schema schema = TestSchema();
  const auto row = Row(7, "ada", 1000);
  const ExprPtr eq = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                                   Expr::Literal(Value::Int(7)));
  EXPECT_TRUE(*eq->Evaluate(schema, row));
  const ExprPtr lt = Expr::Compare(CompareOp::kLt, Expr::Column("salary"),
                                   Expr::Literal(Value::Int(500)));
  EXPECT_FALSE(*lt->Evaluate(schema, row));
  const ExprPtr flipped = Expr::Compare(
      CompareOp::kLt, Expr::Literal(Value::Int(500)), Expr::Column("salary"));
  EXPECT_TRUE(*flipped->Evaluate(schema, row));
}

TEST(ExprTest, BooleanConnectives) {
  const Schema schema = TestSchema();
  const auto row = Row(7, "ada", 1000);
  const ExprPtr t = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                                  Expr::Literal(Value::Int(7)));
  const ExprPtr f = Expr::Compare(CompareOp::kEq, Expr::Column("name"),
                                  Expr::Literal(Value::Str("bob")));
  EXPECT_FALSE(*Expr::And(t, f)->Evaluate(schema, row));
  EXPECT_TRUE(*Expr::Or(t, f)->Evaluate(schema, row));
  EXPECT_TRUE(*Expr::Not(f)->Evaluate(schema, row));
  EXPECT_FALSE(*Expr::Not(t)->Evaluate(schema, row));
}

TEST(ExprTest, NullComparesUnequalToEverything) {
  const Schema schema = TestSchema();
  const std::vector<Value> row = {Value::Null(), Value::Str("x"),
                                  Value::Int(0)};
  const ExprPtr eq_null = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                                        Expr::Literal(Value::Null()));
  EXPECT_FALSE(*eq_null->Evaluate(schema, row));
  const ExprPtr ne_null = Expr::Compare(CompareOp::kNe, Expr::Column("id"),
                                        Expr::Literal(Value::Int(1)));
  EXPECT_FALSE(*ne_null->Evaluate(schema, row));  // NULL != 1 is still false
}

TEST(ExprTest, ErrorsOnUnknownColumnAndBadShape) {
  const Schema schema = TestSchema();
  const auto row = Row(1, "a", 2);
  const ExprPtr bad_col = Expr::Compare(CompareOp::kEq, Expr::Column("nope"),
                                        Expr::Literal(Value::Int(1)));
  EXPECT_FALSE(bad_col->Evaluate(schema, row).ok());
  EXPECT_FALSE(bad_col->Validate(schema).ok());
  EXPECT_FALSE(Expr::Column("id")->Evaluate(schema, row).ok());  // bare col
}

TEST(ExprTest, ToStringRendersReadably) {
  const ExprPtr e = Expr::And(
      Expr::Compare(CompareOp::kGe, Expr::Column("salary"),
                    Expr::Literal(Value::Int(100))),
      Expr::Not(Expr::Compare(CompareOp::kEq, Expr::Column("name"),
                              Expr::Literal(Value::Str("bob")))));
  EXPECT_EQ(e->ToString(),
            "((salary >= 100) AND (NOT (name = 'bob')))");
}

// ---------------------------------------------------------------- Planner

bool AlwaysIndexed(const std::string&) { return true; }

TEST(PlannerTest, PointLookupFromEquality) {
  const ExprPtr where = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                                      Expr::Literal(Value::Int(5)));
  const AccessPlan plan = PlanAccess(where, AlwaysIndexed);
  ASSERT_EQ(plan.kind, AccessPlan::Kind::kIndexRange);
  EXPECT_TRUE(plan.range.is_point);
  EXPECT_EQ(*plan.range.lo, Value::Int(5));
  EXPECT_EQ(plan.residual, nullptr);  // fully served
}

TEST(PlannerTest, TwoSidedRangeFromConjunction) {
  const ExprPtr where =
      Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column("salary"),
                              Expr::Literal(Value::Int(100))),
                Expr::Compare(CompareOp::kLe, Expr::Column("salary"),
                              Expr::Literal(Value::Int(200))));
  const AccessPlan plan = PlanAccess(where, AlwaysIndexed);
  ASSERT_EQ(plan.kind, AccessPlan::Kind::kIndexRange);
  EXPECT_EQ(*plan.range.lo, Value::Int(100));
  EXPECT_EQ(*plan.range.hi, Value::Int(200));
  EXPECT_EQ(plan.residual, nullptr);
}

TEST(PlannerTest, StrictBoundsKeepResidual) {
  const ExprPtr where = Expr::Compare(CompareOp::kLt, Expr::Column("salary"),
                                      Expr::Literal(Value::Int(200)));
  const AccessPlan plan = PlanAccess(where, AlwaysIndexed);
  ASSERT_EQ(plan.kind, AccessPlan::Kind::kIndexRange);
  EXPECT_EQ(*plan.range.hi, Value::Int(200));  // inclusive superset
  ASSERT_NE(plan.residual, nullptr);           // < stays as filter
}

TEST(PlannerTest, PointBeatsRangeAcrossColumns) {
  const ExprPtr where =
      Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column("salary"),
                              Expr::Literal(Value::Int(100))),
                Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                              Expr::Literal(Value::Int(7))));
  const AccessPlan plan = PlanAccess(where, AlwaysIndexed);
  ASSERT_EQ(plan.kind, AccessPlan::Kind::kIndexRange);
  EXPECT_EQ(plan.range.column, "id");
  EXPECT_TRUE(plan.range.is_point);
  ASSERT_NE(plan.residual, nullptr);  // salary predicate still applies
}

TEST(PlannerTest, OrAndUnindexedFallBackToScan) {
  const ExprPtr disjunction =
      Expr::Or(Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                             Expr::Literal(Value::Int(1))),
               Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                             Expr::Literal(Value::Int(2))));
  EXPECT_EQ(PlanAccess(disjunction, AlwaysIndexed).kind,
            AccessPlan::Kind::kFullScan);

  const ExprPtr eq = Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                                   Expr::Literal(Value::Int(1)));
  EXPECT_EQ(PlanAccess(eq, [](const std::string&) { return false; }).kind,
            AccessPlan::Kind::kFullScan);
  EXPECT_EQ(PlanAccess(nullptr, AlwaysIndexed).kind,
            AccessPlan::Kind::kFullScan);
}

TEST(PlannerTest, NeIsNotSargable) {
  const ExprPtr where = Expr::Compare(CompareOp::kNe, Expr::Column("id"),
                                      Expr::Literal(Value::Int(1)));
  EXPECT_EQ(PlanAccess(where, AlwaysIndexed).kind,
            AccessPlan::Kind::kFullScan);
}

TEST(PlannerTest, ContradictoryEqualitiesYieldEmptyRange) {
  const ExprPtr where =
      Expr::And(Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                              Expr::Literal(Value::Int(1))),
                Expr::Compare(CompareOp::kEq, Expr::Column("id"),
                              Expr::Literal(Value::Int(2))));
  const AccessPlan plan = PlanAccess(where, AlwaysIndexed);
  ASSERT_EQ(plan.kind, AccessPlan::Kind::kIndexRange);
  // lo > hi: the index naturally returns nothing; residual still present.
  EXPECT_GT(Value::Compare(*plan.range.lo, *plan.range.hi), 0);
}

// ----------------------------------------------------------------- Parser

TEST(SqlParserTest, SelectStar) {
  auto statement = ParseSql("SELECT * FROM emp");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->kind, ParsedStatement::Kind::kSelect);
  EXPECT_EQ(statement->select.table, "emp");
  EXPECT_TRUE(statement->select.columns.empty());
  EXPECT_EQ(statement->select.where, nullptr);
}

TEST(SqlParserTest, SelectWithProjectionAndWhere) {
  auto statement = ParseSql(
      "select name, salary from emp where salary >= 100000 and "
      "(dept = 'eng' or dept = 'ops');");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->select.columns,
            (std::vector<std::string>{"name", "salary"}));
  ASSERT_NE(statement->select.where, nullptr);
  EXPECT_EQ(statement->select.where->ToString(),
            "((salary >= 100000) AND ((dept = 'eng') OR (dept = 'ops')))");
}

TEST(SqlParserTest, StringEscapesAndNegativeNumbers) {
  auto statement =
      ParseSql("SELECT * FROM t WHERE name = 'O''Brien' AND delta > -42");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->select.where->ToString(),
            "((name = 'O'Brien') AND (delta > -42))");
}

TEST(SqlParserTest, InsertUpdateDeleteExplain) {
  auto insert = ParseSql("INSERT INTO emp VALUES (1, 'ada', 120000, NULL)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->kind, ParsedStatement::Kind::kInsert);
  ASSERT_EQ(insert->insert.values.size(), 4u);
  EXPECT_EQ(insert->insert.values[1], Value::Str("ada"));
  EXPECT_TRUE(insert->insert.values[3].is_null());

  auto update = ParseSql("UPDATE emp SET salary = 1 WHERE id = 2");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->kind, ParsedStatement::Kind::kUpdate);
  EXPECT_EQ(update->update.column, "salary");

  auto del = ParseSql("DELETE FROM emp WHERE id != 3");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, ParsedStatement::Kind::kDelete);

  auto explain = ParseSql("EXPLAIN SELECT * FROM emp WHERE id = 1");
  ASSERT_TRUE(explain.ok());
  EXPECT_EQ(explain->kind, ParsedStatement::Kind::kExplain);
}

TEST(SqlParserTest, FloatLiterals) {
  auto statement =
      ParseSql("SELECT * FROM t WHERE price >= 9.99 AND delta < -0.5");
  ASSERT_TRUE(statement.ok());
  EXPECT_EQ(statement->select.where->ToString(),
            "((price >= 9.99) AND (delta < -0.5))");
  auto insert = ParseSql("INSERT INTO t VALUES (3.25)");
  ASSERT_TRUE(insert.ok());
  EXPECT_EQ(insert->insert.values[0].type(), ValueType::kFloat64);
  EXPECT_DOUBLE_EQ(insert->insert.values[0].AsDouble(), 3.25);
}

TEST(SqlParserTest, NotEqualsSpellings) {
  auto a = ParseSql("SELECT * FROM t WHERE x != 1");
  auto b = ParseSql("SELECT * FROM t WHERE x <> 1");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->select.where->ToString(), b->select.where->ToString());
}

TEST(SqlParserTest, AggregatesOrderByLimit) {
  auto statement = ParseSql(
      "SELECT COUNT(*), SUM(salary), AVG(salary), MIN(id), MAX(id) "
      "FROM emp WHERE dept = 'eng'");
  ASSERT_TRUE(statement.ok());
  ASSERT_EQ(statement->select.aggregates.size(), 5u);
  EXPECT_EQ(statement->select.aggregates[0].fn, Aggregate::Fn::kCountStar);
  EXPECT_EQ(statement->select.aggregates[1].column, "salary");
  EXPECT_TRUE(statement->select.columns.empty());

  auto ordered = ParseSql(
      "SELECT name FROM emp ORDER BY salary DESC LIMIT 3");
  ASSERT_TRUE(ordered.ok());
  EXPECT_EQ(ordered->select.order_by, "salary");
  EXPECT_TRUE(ordered->select.order_desc);
  ASSERT_TRUE(ordered->select.limit.has_value());
  EXPECT_EQ(*ordered->select.limit, 3u);

  // Columns named like aggregate functions still parse as columns when not
  // followed by '('.
  auto plain = ParseSql("SELECT count FROM emp");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->select.columns, (std::vector<std::string>{"count"}));

  EXPECT_FALSE(ParseSql("SELECT SUM( FROM emp").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp LIMIT -1").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp ORDER salary").ok());
}

TEST(SqlParserTest, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("DROP TABLE emp").ok());
  EXPECT_FALSE(ParseSql("SELECT FROM emp").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp WHERE").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp WHERE name = 'unterminated").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp extra").ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp WHERE id = "
                        "99999999999999999999999")
                   .ok());
  EXPECT_FALSE(ParseSql("SELECT * FROM emp WHERE id ! 1").ok());
}

// ----------------------------------------------------------------- Engine

// Every engine case runs at 1, 2, 4 and 8 threads: plans depend only on the
// table, never on the thread count, so each plan-shape assertion must hold
// unchanged at every width.
class QueryEngineTest : public ::testing::TestWithParam<size_t> {
 protected:
  QueryEngineTest() {
    db_ = std::move(SecureDatabase::Open(Bytes(32, 0x4e), 404).value());
    SecureTableOptions options;
    options.indexed_columns = {"id", "salary"};
    options.index_order = 4;
    Schema schema({{"id", ValueType::kInt64, true},
                   {"name", ValueType::kString, true},
                   {"salary", ValueType::kInt64, true},
                   {"dept", ValueType::kString, false}});
    EXPECT_TRUE(db_->CreateTable("emp", schema, options).ok());
    for (int i = 0; i < 60; ++i) {
      EXPECT_TRUE(db_->Insert("emp", {Value::Int(i),
                                      Value::Str("p" + std::to_string(i % 6)),
                                      Value::Int(1000 * (i % 10)),
                                      Value::Str(i % 2 ? "eng" : "ops")})
                      .ok());
    }
    engine_ = std::make_unique<QueryEngine>(
        db_.get(), Parallelism::Exactly(GetParam()));
  }

  StatusOr<QueryResult> Run(const std::string& sql) {
    SDBENC_ASSIGN_OR_RETURN(ParsedStatement statement, ParseSql(sql));
    switch (statement.kind) {
      case ParsedStatement::Kind::kSelect:
        return engine_->Execute(statement.select);
      case ParsedStatement::Kind::kInsert:
        return engine_->Execute(statement.insert);
      case ParsedStatement::Kind::kUpdate:
        return engine_->Execute(statement.update);
      case ParsedStatement::Kind::kDelete:
        return engine_->Execute(statement.del);
      case ParsedStatement::Kind::kExplain: {
        SDBENC_ASSIGN_OR_RETURN(std::string plan,
                                engine_->Explain(statement.select));
        QueryResult result;
        result.plan = std::move(plan);
        return result;
      }
    }
    return InternalError("bad kind");
  }

  std::unique_ptr<SecureDatabase> db_;
  std::unique_ptr<QueryEngine> engine_;
};

TEST_P(QueryEngineTest, PointQueryUsesIndex) {
  auto result = Run("SELECT name FROM emp WHERE id = 17");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Str("p5"));
  EXPECT_NE(result->plan.find("index-range(id"), std::string::npos)
      << result->plan;
}

TEST_P(QueryEngineTest, RangeWithResidualFilter) {
  auto result = Run(
      "SELECT id, salary FROM emp WHERE salary >= 3000 AND salary <= 5000 "
      "AND dept = 'eng'");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan.find("index-range(salary"), std::string::npos);
  EXPECT_NE(result->plan.find("filter"), std::string::npos);
  for (const auto& row : result->rows) {
    EXPECT_GE(row[1].AsInt(), 3000);
    EXPECT_LE(row[1].AsInt(), 5000);
    EXPECT_EQ(row[0].AsInt() % 2, 1);  // dept 'eng' is odd ids
  }
  // 60 rows, salary = 1000*(i%10): i%10 in {3,4,5}; 'eng' rows are odd i,
  // so i%10 in {3,5} qualify -> 12 rows.
  EXPECT_EQ(result->rows.size(), 12u);
}

TEST_P(QueryEngineTest, UnindexedPredicateScans) {
  auto result = Run("SELECT id FROM emp WHERE dept = 'ops'");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.rfind("scan", 0), 0u) << result->plan;
  EXPECT_EQ(result->rows.size(), 30u);
}

TEST_P(QueryEngineTest, StrictBoundCorrectness) {
  auto lt = Run("SELECT id FROM emp WHERE salary < 2000");
  ASSERT_TRUE(lt.ok());
  for (const auto& row : lt->rows) {
    EXPECT_LT(row[0].AsInt() % 10, 2);
  }
  EXPECT_EQ(lt->rows.size(), 12u);  // i%10 in {0,1}
}

TEST_P(QueryEngineTest, CrossColumnComparisonStaysResidual) {
  // Column-vs-column predicates have no literal bound, so neither side's
  // index may serve them; the whole predicate must run as a scan filter.
  auto result = Run("SELECT id FROM emp WHERE id = salary");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->plan.find("index-range"), std::string::npos)
      << result->plan;
  // id = 1000*(id%10) only at id 0; a wrongly-sargable plan would return
  // the id=<garbage> point instead.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0], Value::Int(0));
}

TEST_P(QueryEngineTest, NotEqualsNeverDropsRows) {
  // != is not sargable on its own ...
  auto alone = Run("SELECT id FROM emp WHERE id != 3");
  ASSERT_TRUE(alone.ok());
  EXPECT_EQ(alone->plan.find("index-range"), std::string::npos);
  EXPECT_EQ(alone->rows.size(), 59u);
  for (const auto& row : alone->rows) EXPECT_NE(row[0], Value::Int(3));

  // ... and stays a residual filter when ANDed with a sargable range.
  auto mixed = Run("SELECT id FROM emp WHERE id >= 50 AND id != 55");
  ASSERT_TRUE(mixed.ok());
  EXPECT_NE(mixed->plan.find("index-range(id"), std::string::npos);
  EXPECT_NE(mixed->plan.find("filter"), std::string::npos);
  EXPECT_EQ(mixed->rows.size(), 9u);
  for (const auto& row : mixed->rows) {
    EXPECT_GE(row[0].AsInt(), 50);
    EXPECT_NE(row[0], Value::Int(55));
  }
}

TEST_P(QueryEngineTest, OrUnderAndStaysResidualWithoutDroppingRows) {
  // The salary bound drives the index; the OR disjunct must survive as a
  // residual filter — pushing only one OR branch would drop rows.
  auto result = Run(
      "SELECT id FROM emp WHERE salary >= 3000 AND "
      "(dept = 'eng' OR id <= 10)");
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->plan.find("index-range(salary >= 3000"),
            std::string::npos)
      << result->plan;
  EXPECT_NE(result->plan.find("OR"), std::string::npos) << result->plan;
  // salary >= 3000 <=> i%10 >= 3 (42 rows); of those, odd ids are 'eng'
  // (24 rows) and the even survivors need id <= 10: ids 4, 6, 8.
  EXPECT_EQ(result->rows.size(), 27u);
  for (const auto& row : result->rows) {
    const int64_t id = row[0].AsInt();
    EXPECT_GE((id % 10 + 10) % 10, 3);
    EXPECT_TRUE(id % 2 == 1 || id <= 10) << id;
  }
}

TEST_P(QueryEngineTest, UpdateAndDeleteThroughSql) {
  auto update = Run("UPDATE emp SET salary = 99999 WHERE id = 5");
  ASSERT_TRUE(update.ok());
  EXPECT_EQ(update->affected, 1u);
  auto check = Run("SELECT salary FROM emp WHERE id = 5");
  EXPECT_EQ(check->rows[0][0], Value::Int(99999));
  // The salary index followed the update.
  auto by_salary = Run("SELECT id FROM emp WHERE salary = 99999");
  EXPECT_NE(by_salary->plan.find("index-range(salary"), std::string::npos);
  EXPECT_EQ(by_salary->rows.size(), 1u);

  auto del = Run("DELETE FROM emp WHERE id >= 50");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->affected, 10u);
  EXPECT_EQ(Run("SELECT * FROM emp")->rows.size(), 50u);
  EXPECT_TRUE(db_->VerifyIntegrity().ok());
}

TEST_P(QueryEngineTest, InsertThroughSql) {
  auto insert = Run("INSERT INTO emp VALUES (100, 'new', 1234, 'eng')");
  ASSERT_TRUE(insert.ok());
  auto check = Run("SELECT name FROM emp WHERE id = 100");
  ASSERT_EQ(check->rows.size(), 1u);
  EXPECT_EQ(check->rows[0][0], Value::Str("new"));
}

TEST_P(QueryEngineTest, ExplainShowsPlanWithoutExecuting) {
  auto explain = Run("EXPLAIN SELECT * FROM emp WHERE id = 1 AND dept = 'x'");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->plan.find("index-range(id = 1)"), std::string::npos)
      << explain->plan;
  EXPECT_TRUE(explain->rows.empty());
}

TEST_P(QueryEngineTest, AggregateQueries) {
  auto count = Run("SELECT COUNT(*) FROM emp WHERE dept = 'eng'");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count->rows[0][0], Value::Int(30));

  auto stats = Run(
      "SELECT COUNT(*), SUM(salary), MIN(salary), MAX(salary), AVG(id) "
      "FROM emp WHERE id >= 0 AND id <= 9");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->rows.size(), 1u);
  EXPECT_EQ(stats->rows[0][0], Value::Int(10));
  // salary = 1000*(i%10) for i in 0..9 -> sum 45000, min 0, max 9000.
  EXPECT_EQ(stats->rows[0][1], Value::Int(45000));
  EXPECT_EQ(stats->rows[0][2], Value::Int(0));
  EXPECT_EQ(stats->rows[0][3], Value::Int(9000));
  EXPECT_DOUBLE_EQ(stats->rows[0][4].AsDouble(), 4.5);
  EXPECT_EQ(stats->columns[1], "SUM(salary)");
  // Index still drives the plan underneath the aggregate.
  EXPECT_NE(stats->plan.find("index-range(id"), std::string::npos);

  // Mixing plain columns and aggregates is rejected.
  EXPECT_FALSE(Run("SELECT name, COUNT(*) FROM emp").ok());
  // SUM over a string column is rejected.
  EXPECT_FALSE(Run("SELECT SUM(name) FROM emp").ok());
}

TEST_P(QueryEngineTest, OrderByAndLimit) {
  auto top = Run("SELECT id, salary FROM emp WHERE id <= 20 "
                 "ORDER BY salary DESC LIMIT 5");
  ASSERT_TRUE(top.ok());
  ASSERT_EQ(top->rows.size(), 5u);
  for (size_t i = 1; i < top->rows.size(); ++i) {
    EXPECT_GE(top->rows[i - 1][1].AsInt(), top->rows[i][1].AsInt());
  }
  EXPECT_EQ(top->rows[0][1], Value::Int(9000));

  auto asc = Run("SELECT id FROM emp ORDER BY id LIMIT 3");
  ASSERT_TRUE(asc.ok());
  ASSERT_EQ(asc->rows.size(), 3u);
  EXPECT_EQ(asc->rows[0][0], Value::Int(0));
  EXPECT_EQ(asc->rows[2][0], Value::Int(2));
  // Unknown ORDER BY column fails cleanly.
  EXPECT_FALSE(Run("SELECT id FROM emp ORDER BY ghost").ok());
}

TEST_P(QueryEngineTest, ErrorsSurfaceCleanly) {
  EXPECT_FALSE(Run("SELECT * FROM missing").ok());
  EXPECT_FALSE(Run("SELECT ghost FROM emp").ok());
  EXPECT_FALSE(Run("SELECT * FROM emp WHERE ghost = 1").ok());
  EXPECT_FALSE(Run("INSERT INTO emp VALUES (1)").ok());  // arity
  // Tampering surfaces as an authentication failure mid-query.
  Table* raw = db_->storage().GetTable("emp").value();
  (*raw->mutable_cell(3, 1).value())[4] ^= 1;
  auto scan = Run("SELECT * FROM emp WHERE dept = 'ops'");
  EXPECT_FALSE(scan.ok());
  EXPECT_EQ(scan.status().code(), StatusCode::kAuthenticationFailed);
}

INSTANTIATE_TEST_SUITE_P(Threads, QueryEngineTest,
                         ::testing::Values(1, 2, 4, 8),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return "x" + std::to_string(info.param);
                         });

// ------------------------------------------------ cache traffic by threads

// Replays 60 range statements of 120 rows with a residual filter against a
// table twelve times larger than its decrypted-block cache and returns the
// cache's counters. The statements decrypt their rows across `threads`
// workers; each statement alone overflows the cache.
DecryptedBlockCache::Stats RangeCacheTraffic(size_t threads) {
  auto db = SecureDatabase::Open(Bytes(32, 0x5c), 77).value();
  SecureTableOptions options;
  options.indexed_columns = {"id"};
  const Schema schema({{"id", ValueType::kInt64, true},
                       {"grp", ValueType::kInt64, true},
                       {"payload", ValueType::kString, true}});
  EXPECT_TRUE(db->CreateTable("big", schema, options).ok());
  for (int i = 0; i < 800; ++i) {
    EXPECT_TRUE(db->Insert("big", {Value::Int(i), Value::Int(i % 10),
                                   Value::Str(std::string(1000, 'p'))})
                    .ok());
  }
  DecryptedBlockCache cache(64 << 10);  // about 64 of the 800 rows
  db->GetTableState("big").value()->encrypted_table->AttachBlockCache(&cache,
                                                                      1);
  const QueryEngine engine(db.get(), Parallelism::Exactly(threads));
  for (int i = 0; i < 60; ++i) {
    const int lo = (i * 137) % 680;
    const ParsedStatement statement =
        ParseSql("SELECT id, payload FROM big WHERE id >= " +
                 std::to_string(lo) + " AND id <= " +
                 std::to_string(lo + 119) + " AND grp < 4")
            .value();
    const StatusOr<QueryResult> result = engine.Execute(statement.select);
    EXPECT_TRUE(result.ok());
    EXPECT_EQ(result->rows.size(), 48u);
  }
  return cache.GetStats();
}

// The cache's LRU order must not depend on how a statement's rows were
// split across threads: on an overflowing cache, every hit, miss and
// eviction count is the same at 1 and 4 threads.
TEST(QueryCacheTrafficTest, SameAtEveryThreadCountOnOverflowingCache) {
  const DecryptedBlockCache::Stats one = RangeCacheTraffic(1);
  const DecryptedBlockCache::Stats four = RangeCacheTraffic(4);
  EXPECT_GT(one.evictions, 0u);
  EXPECT_GT(one.hits, 0u);
  EXPECT_EQ(one.hits, four.hits);
  EXPECT_EQ(one.misses, four.misses);
  EXPECT_EQ(one.insertions, four.insertions);
  EXPECT_EQ(one.evictions, four.evictions);
}

}  // namespace
}  // namespace sdbenc
