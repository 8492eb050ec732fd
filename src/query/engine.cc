#include "query/engine.h"

#include <algorithm>

#include <cmath>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdbenc {

std::string Aggregate::ToString() const {
  switch (fn) {
    case Fn::kCountStar:
      return "COUNT(*)";
    case Fn::kCount:
      return "COUNT(" + column + ")";
    case Fn::kSum:
      return "SUM(" + column + ")";
    case Fn::kAvg:
      return "AVG(" + column + ")";
    case Fn::kMin:
      return "MIN(" + column + ")";
    case Fn::kMax:
      return "MAX(" + column + ")";
  }
  return "?";
}

namespace {

/// Per-stage query instrumentation (DESIGN §8). Stage boundaries follow the
/// paper's query pipeline: encrypted index lookup, residual filter (cell
/// decrypt + predicate), row materialisation, then the whole statement.
struct QueryMetrics {
  obs::Counter* queries_total;
  obs::Histogram* plan_ns;
  obs::Histogram* index_lookup_ns;
  obs::Histogram* filter_ns;
  obs::Histogram* materialize_ns;
  obs::Histogram* execute_ns;
};

const QueryMetrics& Metrics() {
  static const QueryMetrics m = {
      obs::Registry().GetCounter("sdbenc_query_total"),
      obs::Registry().GetHistogram("sdbenc_query_plan_ns"),
      obs::Registry().GetHistogram("sdbenc_query_index_lookup_ns"),
      obs::Registry().GetHistogram("sdbenc_query_filter_ns"),
      obs::Registry().GetHistogram("sdbenc_query_materialize_ns"),
      obs::Registry().GetHistogram("sdbenc_query_execute_ns"),
  };
  return m;
}

/// Computes one aggregate over the matched rows. NULLs are skipped (SQL
/// semantics); SUM/AVG accept INT64 and FLOAT64 and return FLOAT64 when any
/// input is FLOAT64.
StatusOr<Value> ComputeAggregate(
    const Aggregate& agg, const Schema& schema,
    const std::vector<std::vector<Value>>& rows) {
  if (agg.fn == Aggregate::Fn::kCountStar) {
    return Value::Int(static_cast<int64_t>(rows.size()));
  }
  SDBENC_ASSIGN_OR_RETURN(size_t col, schema.FindColumn(agg.column));
  int64_t count = 0;
  int64_t int_sum = 0;
  double float_sum = 0;
  bool saw_float = false;
  std::optional<Value> best;
  for (const auto& row : rows) {
    const Value& v = row[col];
    if (v.is_null()) continue;
    ++count;
    switch (agg.fn) {
      case Aggregate::Fn::kSum:
      case Aggregate::Fn::kAvg:
        if (v.type() == ValueType::kInt64) {
          int_sum += v.AsInt();
        } else if (v.type() == ValueType::kFloat64) {
          saw_float = true;
          float_sum += v.AsDouble();
        } else {
          return InvalidArgumentError(agg.ToString() +
                                      " needs a numeric column");
        }
        break;
      case Aggregate::Fn::kMin:
        if (!best || Value::Compare(v, *best) < 0) best = v;
        break;
      case Aggregate::Fn::kMax:
        if (!best || Value::Compare(v, *best) > 0) best = v;
        break;
      case Aggregate::Fn::kCount:
      case Aggregate::Fn::kCountStar:
        break;
    }
  }
  switch (agg.fn) {
    case Aggregate::Fn::kCount:
      return Value::Int(count);
    case Aggregate::Fn::kSum:
      if (saw_float) {
        return Value::Real(float_sum + static_cast<double>(int_sum));
      }
      return Value::Int(int_sum);
    case Aggregate::Fn::kAvg:
      if (count == 0) return Value::Null();
      return Value::Real(
          (float_sum + static_cast<double>(int_sum)) /
          static_cast<double>(count));
    case Aggregate::Fn::kMin:
    case Aggregate::Fn::kMax:
      return best ? *best : Value::Null();
    case Aggregate::Fn::kCountStar:
      break;
  }
  return InternalError("bad aggregate");
}

}  // namespace

AccessPlan PlanForTable(const SecureDatabase::TableState& state,
                        const ExprPtr& where, PlannerMode mode) {
  const Schema& schema = state.encrypted_table->table().schema();
  const auto has_index = [&](const std::string& column) {
    const auto col = schema.FindColumn(column);
    if (!col.ok()) return false;
    for (const auto& index_state : state.indexes) {
      if (index_state.column == *col) return true;
    }
    return false;
  };
  PlannerContext ctx;
  ctx.stats = &state.stats;
  ctx.schema = &schema;
  ctx.index_order = state.index_order;
  ctx.aead = state.aead_alg;
  ctx.mode = mode;
  return PlanAccessCosted(where, has_index, ctx);
}

StatusOr<AccessPlan> QueryEngine::PlanFor(
    const SecureDatabase::TableState& state, const ExprPtr& where) const {
  const obs::StageTimer plan_timer(Metrics().plan_ns, "query.plan");
  if (where != nullptr) {
    SDBENC_RETURN_IF_ERROR(
        where->Validate(state.encrypted_table->table().schema()));
  }
  return PlanForTable(state, where, planner_mode_);
}

StatusOr<std::vector<uint64_t>> QueryEngine::MatchingRows(
    const SecureDatabase::TableState& state, const AccessPlan& plan) const {
  const Table& table = state.encrypted_table->table();
  const Schema& schema = table.schema();

  std::vector<uint64_t> candidates;
  if (plan.kind == AccessPlan::Kind::kIndexRange) {
    SDBENC_ASSIGN_OR_RETURN(size_t col,
                            schema.FindColumn(plan.range.column));
    const EncryptedIndex* index = nullptr;
    for (const auto& index_state : state.indexes) {
      if (index_state.column == col) index = index_state.index.get();
    }
    if (index == nullptr) {
      return InternalError("planner chose a non-existent index");
    }
    const Value* lo = plan.range.lo ? &*plan.range.lo : nullptr;
    const Value* hi = plan.range.hi ? &*plan.range.hi : nullptr;
    {
      const obs::StageTimer timer(Metrics().index_lookup_ns,
                                  "query.index_lookup");
      if (plan.range.is_point) {
        // The point path goes through Lookup, whose result list is
        // memoised in the decrypted-block cache — a repeated point query
        // skips the tree walk (and its per-node entry decrypts) entirely.
        SDBENC_ASSIGN_OR_RETURN(candidates, index->Lookup(*lo));
      } else {
        SDBENC_ASSIGN_OR_RETURN(candidates, index->RangeBounded(lo, hi));
      }
    }
  } else {
    candidates.reserve(table.num_rows());
    for (uint64_t row = 0; row < table.num_rows(); ++row) {
      candidates.push_back(row);
    }
  }

  // Residual filter: live candidates are decrypted in fixed-size batches
  // (GetRowsCached keeps the cache traffic in candidate order) and
  // evaluated in candidate order, so the row list and every cache count
  // match the serial filter at any thread count.
  const obs::StageTimer filter_timer(Metrics().filter_ns, "query.filter");
  std::vector<uint64_t> live;
  live.reserve(candidates.size());
  for (const uint64_t row : candidates) {
    if (!table.IsDeleted(row)) live.push_back(row);
  }
  if (plan.residual == nullptr) return live;
  constexpr size_t kFilterBatch = 1024;
  std::vector<uint64_t> rows;
  for (size_t begin = 0; begin < live.size(); begin += kFilterBatch) {
    const std::vector<uint64_t> batch(
        live.begin() + begin,
        live.begin() + std::min(live.size(), begin + kFilterBatch));
    SDBENC_ASSIGN_OR_RETURN(
        const std::vector<std::vector<Value>> values,
        state.encrypted_table->GetRowsCached(batch, parallelism_));
    for (size_t i = 0; i < batch.size(); ++i) {
      SDBENC_ASSIGN_OR_RETURN(const bool match,
                              plan.residual->Evaluate(schema, values[i]));
      if (match) rows.push_back(batch[i]);
    }
  }
  return rows;
}

StatusOr<QueryResult> QueryEngine::FinishStatement(
    obs::QueryTraceScope& trace, const std::string& table, const char* verb,
    StatusOr<QueryResult> result) const {
  if (result.ok()) {
    trace.Finish(result->plan);
    result->trace_id = trace.trace_id();
    result->leakage = trace.Leakage();
  } else if (result.status().code() == StatusCode::kAuthenticationFailed) {
    // A ciphertext failed to open mid-statement: either the store was
    // altered or the key is wrong. Worth a durable security event either
    // way; the statement still fails with the original status.
    db_->NoteSecurityEvent(AuditEventType::kAuthFailure,
                           std::string(verb) + " on '" + table +
                               "': " + result.status().message());
  }
  return result;
}

StatusOr<QueryResult> QueryEngine::Execute(
    const SelectStatement& statement) const {
  obs::QueryTraceScope trace("query.statement");
  return FinishStatement(trace, statement.table, "select",
                         ExecuteSelect(statement));
}

StatusOr<QueryResult> QueryEngine::Execute(
    const InsertStatement& statement) const {
  obs::QueryTraceScope trace("query.statement");
  return FinishStatement(trace, statement.table, "insert",
                         ExecuteInsert(statement));
}

StatusOr<QueryResult> QueryEngine::Execute(
    const UpdateStatement& statement) const {
  obs::QueryTraceScope trace("query.statement");
  return FinishStatement(trace, statement.table, "update",
                         ExecuteUpdate(statement));
}

StatusOr<QueryResult> QueryEngine::Execute(
    const DeleteStatement& statement) const {
  obs::QueryTraceScope trace("query.statement");
  return FinishStatement(trace, statement.table, "delete",
                         ExecuteDelete(statement));
}

StatusOr<QueryResult> QueryEngine::ExecuteSelect(
    const SelectStatement& statement) const {
  SDBENC_ASSIGN_OR_RETURN(const SecureDatabase::TableState* state,
                          db_->GetTableState(statement.table));
  const Schema& schema = state->encrypted_table->table().schema();

  if (!statement.aggregates.empty() && !statement.columns.empty()) {
    return InvalidArgumentError(
        "cannot mix plain columns and aggregates without GROUP BY");
  }

  Metrics().queries_total->Increment();
  const obs::StageTimer execute_timer(Metrics().execute_ns, "query.execute");
  SDBENC_ASSIGN_OR_RETURN(AccessPlan plan, PlanFor(*state, statement.where));
  QueryResult result;
  result.plan = plan.ToString();
  SDBENC_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                          MatchingRows(*state, plan));

  // Materialise the matched rows once, decrypting row-parallel.
  std::vector<std::vector<Value>> full_rows;
  {
    const obs::StageTimer timer(Metrics().materialize_ns,
                                "query.materialize");
    if (plan.residual != nullptr) {
      // The residual filter already decrypted these rows once; this second
      // pass fetches each survivor again (usually from the block cache).
      obs::CountLeak(obs::LeakKind::kResidualRefetches, rows.size());
    }
    SDBENC_ASSIGN_OR_RETURN(
        full_rows, state->encrypted_table->GetRowsCached(rows, parallelism_));
  }

  // Aggregate query: one result row.
  if (!statement.aggregates.empty()) {
    std::vector<Value> agg_row;
    for (const Aggregate& agg : statement.aggregates) {
      result.columns.push_back(agg.ToString());
      SDBENC_ASSIGN_OR_RETURN(Value v,
                              ComputeAggregate(agg, schema, full_rows));
      agg_row.push_back(std::move(v));
    }
    result.rows.push_back(std::move(agg_row));
    result.affected = 1;
    return result;
  }

  // ORDER BY.
  if (!statement.order_by.empty()) {
    SDBENC_ASSIGN_OR_RETURN(size_t order_col,
                            schema.FindColumn(statement.order_by));
    std::stable_sort(full_rows.begin(), full_rows.end(),
                     [&](const std::vector<Value>& a,
                         const std::vector<Value>& b) {
                       const int cmp = Value::Compare(a[order_col],
                                                      b[order_col]);
                       return statement.order_desc ? cmp > 0 : cmp < 0;
                     });
  }
  // LIMIT.
  if (statement.limit && full_rows.size() > *statement.limit) {
    full_rows.resize(*statement.limit);
  }

  // Projection.
  std::vector<size_t> projection;
  if (statement.columns.empty()) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      projection.push_back(c);
      result.columns.push_back(schema.column(c).name);
    }
  } else {
    for (const std::string& name : statement.columns) {
      SDBENC_ASSIGN_OR_RETURN(size_t col, schema.FindColumn(name));
      projection.push_back(col);
      result.columns.push_back(name);
    }
  }
  for (auto& values : full_rows) {
    std::vector<Value> projected;
    projected.reserve(projection.size());
    for (size_t c : projection) projected.push_back(values[c]);
    result.rows.push_back(std::move(projected));
  }
  result.affected = result.rows.size();
  return result;
}

StatusOr<QueryResult> QueryEngine::ExecuteInsert(
    const InsertStatement& statement) const {
  SDBENC_ASSIGN_OR_RETURN(uint64_t row,
                          db_->Insert(statement.table, statement.values));
  (void)row;
  QueryResult result;
  result.plan = "insert";
  result.affected = 1;
  return result;
}

StatusOr<QueryResult> QueryEngine::ExecuteUpdate(
    const UpdateStatement& statement) const {
  SDBENC_ASSIGN_OR_RETURN(const SecureDatabase::TableState* state,
                          db_->GetTableState(statement.table));
  SDBENC_ASSIGN_OR_RETURN(AccessPlan plan, PlanFor(*state, statement.where));
  SDBENC_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                          MatchingRows(*state, plan));
  for (uint64_t row : rows) {
    SDBENC_RETURN_IF_ERROR(
        db_->Update(statement.table, row, statement.column, statement.value));
  }
  QueryResult result;
  result.plan = plan.ToString();
  result.affected = rows.size();
  return result;
}

StatusOr<QueryResult> QueryEngine::ExecuteDelete(
    const DeleteStatement& statement) const {
  SDBENC_ASSIGN_OR_RETURN(const SecureDatabase::TableState* state,
                          db_->GetTableState(statement.table));
  SDBENC_ASSIGN_OR_RETURN(AccessPlan plan, PlanFor(*state, statement.where));
  SDBENC_ASSIGN_OR_RETURN(std::vector<uint64_t> rows,
                          MatchingRows(*state, plan));
  for (uint64_t row : rows) {
    SDBENC_RETURN_IF_ERROR(db_->Delete(statement.table, row));
  }
  QueryResult result;
  result.plan = plan.ToString();
  result.affected = rows.size();
  return result;
}

StatusOr<std::string> QueryEngine::Explain(
    const SelectStatement& statement) const {
  SDBENC_ASSIGN_OR_RETURN(const SecureDatabase::TableState* state,
                          db_->GetTableState(statement.table));
  SDBENC_ASSIGN_OR_RETURN(AccessPlan plan, PlanFor(*state, statement.where));
  return plan.ToString();
}

}  // namespace sdbenc
