#ifndef SDBENC_QUERY_PLANNER_H_
#define SDBENC_QUERY_PLANNER_H_

#include <functional>
#include <optional>
#include <string>

#include "aead/factory.h"
#include "db/column_stats.h"
#include "db/table.h"
#include "query/expr.h"

namespace sdbenc {

/// One-sided or two-sided bound extracted from a predicate for a single
/// column: the sargable part the encrypted index can serve.
struct ColumnRange {
  std::string column;
  std::optional<Value> lo;  // inclusive
  std::optional<Value> hi;  // inclusive
  /// True when the range came from an equality (lo == hi).
  bool is_point = false;

  bool bounded() const { return lo.has_value() || hi.has_value(); }
};

/// The access path chosen for a statement.
struct AccessPlan {
  enum class Kind { kIndexRange, kFullScan };
  Kind kind = Kind::kFullScan;
  ColumnRange range;   // meaningful for kIndexRange
  ExprPtr residual;    // remaining predicate to apply per row (may be null)
  /// Filled by the cost-based path (PlanAccessCosted): the priced cost of
  /// the chosen plan in cipher blocks (block-cipher invocations plus fixed
  /// block-equivalent overheads, see planner.cc) and the estimated result
  /// rows. Not part of ToString() — the plan text is a stable test surface.
  double cost = 0.0;
  double est_rows = 0.0;
  std::string ToString() const;
};

/// How PlanAccessCosted chooses between the syntactic index plan and a full
/// scan. kAdaptive prices both; the forced modes exist for benches and for
/// regression-pinning a path.
enum class PlannerMode { kAdaptive, kForceIndex, kForceScan };

/// Everything the cost-based planner knows: the table's sealed statistics,
/// its schema, its index order and its AEAD codec — nothing from the live
/// system (no clock, thread count or cache state), so a statement plans the
/// same on every host, at every thread count and in every tenant. Pointers
/// are borrowed and may be null; null stats or schema fall back to textbook
/// selectivities.
struct PlannerContext {
  const TableStatistics* stats = nullptr;
  const Schema* schema = nullptr;
  size_t index_order = 8;
  AeadAlgorithm aead = AeadAlgorithm::kEax;
  PlannerMode mode = PlannerMode::kAdaptive;
};

/// Plans a predicate against the available indexes: walks the top-level AND
/// chain, extracts per-column comparisons `col op literal`, intersects
/// bounds per column, and picks an indexed column (points beat ranges,
/// earlier indexes break ties). Everything not consumed by the chosen range
/// stays in `residual`.
///
/// Conservative by construction: OR / NOT / cross-column comparisons are
/// never pushed into the index — they stay residual and force a scan unless
/// some AND-ed sibling is sargable. `!=` is treated as non-sargable.
AccessPlan PlanAccess(
    const ExprPtr& predicate,
    const std::function<bool(const std::string&)>& has_index);

/// Cost-based wrapper over PlanAccess: prices the syntactic index plan
/// against a full scan in cipher blocks (selectivity from the HLL sketch
/// and min/max interpolation, AEAD work from the codec's invocation count)
/// and keeps the cheaper path. Index plans are only demoted when the scan
/// prices below 0.95x the index (hysteresis: near-ties keep the index,
/// whose result-size behaviour is more predictable). Forced modes skip the
/// comparison. The returned plan carries its cost/est_rows either way.
/// Pure: equal inputs give an equal plan and an equal cost.
AccessPlan PlanAccessCosted(
    const ExprPtr& predicate,
    const std::function<bool(const std::string&)>& has_index,
    const PlannerContext& ctx);

/// Block-cipher invocations of one `alg` Open over `plaintext_bytes` of
/// ciphertext under `ad_bytes` (>= 1) of associated data — the paper's §4
/// accounting (EAX `2n+m+1`, OCB+PMAC `n+m+5`, EXPERIMENTS E8), with the
/// constants this implementation actually spends. The planner prices every
/// cell and index-entry open with it.
uint64_t AeadOpenBlocks(AeadAlgorithm alg, size_t plaintext_bytes,
                        size_t ad_bytes);

}  // namespace sdbenc

#endif  // SDBENC_QUERY_PLANNER_H_
