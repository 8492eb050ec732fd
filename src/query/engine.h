#ifndef SDBENC_QUERY_ENGINE_H_
#define SDBENC_QUERY_ENGINE_H_

#include <optional>
#include <string>
#include <vector>

#include "core/secure_database.h"
#include "obs/trace.h"
#include "query/expr.h"
#include "query/planner.h"
#include "util/thread_pool.h"

namespace sdbenc {

/// Aggregate function over a column (or over rows, for COUNT(*)).
struct Aggregate {
  enum class Fn { kCountStar, kCount, kSum, kAvg, kMin, kMax };
  Fn fn = Fn::kCountStar;
  std::string column;  // empty for COUNT(*)

  std::string ToString() const;
};

/// A SELECT over one table: projection (plain columns OR aggregates — SQL
/// without GROUP BY forbids mixing), optional predicate, ordering, limit.
struct SelectStatement {
  std::string table;
  std::vector<std::string> columns;   // empty + no aggregates = all columns
  std::vector<Aggregate> aggregates;  // non-empty = aggregate query
  ExprPtr where;                      // null = no predicate
  std::string order_by;               // empty = unordered
  bool order_desc = false;
  std::optional<uint64_t> limit;
};

struct InsertStatement {
  std::string table;
  std::vector<Value> values;
};

struct UpdateStatement {
  std::string table;
  std::string column;
  Value value;
  ExprPtr where;  // null = every live row
};

struct DeleteStatement {
  std::string table;
  ExprPtr where;  // null = every live row
};

struct QueryResult {
  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;
  std::string plan;  // human-readable access path, for EXPLAIN-style output
  uint64_t affected = 0;  // rows touched by INSERT/UPDATE/DELETE
  /// Statement trace id (0 when per-query tracing is off — see
  /// obs::SetPerQueryTracing and the slow-query log).
  uint64_t trace_id = 0;
  /// What executing this statement revealed to the storage adversary;
  /// all-zero when tracing is off.
  obs::LeakageProfile leakage;
};

/// Plans `where` against one table exactly as QueryEngine does, from the
/// table's own state alone: its sealed statistics, schema, index set and
/// order, and AEAD codec. `where` must already validate against the schema.
AccessPlan PlanForTable(const SecureDatabase::TableState& state,
                        const ExprPtr& where, PlannerMode mode);

/// Executes typed statements against a SecureDatabase, planning predicates
/// onto the encrypted indexes where possible (see PlanAccess) and falling
/// back to decrypting scans otherwise. All decryption happens inside the
/// engine — results are plaintext Values, errors are Status (tampering
/// surfaces as kAuthenticationFailed mid-query).
class QueryEngine {
 public:
  /// `db` must outlive the engine. `par` sets the thread count for the
  /// decrypting phases — full-table residual scans and result-row
  /// materialisation — which run row-parallel over read-only state; results
  /// and plans are identical at every thread count (default: hardware
  /// concurrency).
  explicit QueryEngine(SecureDatabase* db,
                       const Parallelism& par = Parallelism())
      : db_(db), parallelism_(par) {}

  /// Access-path selection policy. kAdaptive (the default) prices the
  /// index path against a full scan from the table's statistics and codec;
  /// the forced modes pin one path for benches and tests.
  /// Results are identical in every mode — only the cost changes.
  void set_planner_mode(PlannerMode mode) { planner_mode_ = mode; }
  PlannerMode planner_mode() const { return planner_mode_; }

  StatusOr<QueryResult> Execute(const SelectStatement& statement) const;
  StatusOr<QueryResult> Execute(const InsertStatement& statement) const;
  StatusOr<QueryResult> Execute(const UpdateStatement& statement) const;
  StatusOr<QueryResult> Execute(const DeleteStatement& statement) const;

  /// Returns the plan that Execute would use, without running it.
  StatusOr<std::string> Explain(const SelectStatement& statement) const;

 private:
  StatusOr<QueryResult> ExecuteSelect(const SelectStatement& statement) const;
  StatusOr<QueryResult> ExecuteInsert(const InsertStatement& statement) const;
  StatusOr<QueryResult> ExecuteUpdate(const UpdateStatement& statement) const;
  StatusOr<QueryResult> ExecuteDelete(const DeleteStatement& statement) const;

  /// Statement epilogue shared by the public Execute overloads: closes the
  /// root span (feeding the slow-query log), attaches the trace id and
  /// leakage profile to a successful result, and turns an authentication
  /// failure into an audit event.
  StatusOr<QueryResult> FinishStatement(obs::QueryTraceScope& trace,
                                        const std::string& table,
                                        const char* verb,
                                        StatusOr<QueryResult> result) const;

  /// Row numbers of live rows matching the plan (index range or scan),
  /// with the residual predicate applied.
  StatusOr<std::vector<uint64_t>> MatchingRows(
      const SecureDatabase::TableState& state, const AccessPlan& plan) const;

  StatusOr<AccessPlan> PlanFor(const SecureDatabase::TableState& state,
                               const ExprPtr& where) const;

  SecureDatabase* db_;
  Parallelism parallelism_;
  PlannerMode planner_mode_ = PlannerMode::kAdaptive;
};

}  // namespace sdbenc

#endif  // SDBENC_QUERY_ENGINE_H_
