#include "query/planner.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <vector>

namespace sdbenc {

namespace {

/// A single `col op literal` comparison found in the AND chain.
struct Sarg {
  std::string column;
  CompareOp op;
  Value value;
};

/// Flattens the top-level AND chain into conjuncts.
void CollectConjuncts(const ExprPtr& e, std::vector<ExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind() == Expr::Kind::kAnd) {
    CollectConjuncts(e->left(), out);
    CollectConjuncts(e->right(), out);
    return;
  }
  out->push_back(e);
}

/// Recognises `col op literal` / `literal op col` (flipping the operator).
std::optional<Sarg> AsSarg(const ExprPtr& e) {
  if (e->kind() != Expr::Kind::kCompare) return std::nullopt;
  const ExprPtr& l = e->left();
  const ExprPtr& r = e->right();
  if (l->kind() == Expr::Kind::kColumn &&
      r->kind() == Expr::Kind::kLiteral) {
    return Sarg{l->column_name(), e->compare_op(), r->literal()};
  }
  if (l->kind() == Expr::Kind::kLiteral &&
      r->kind() == Expr::Kind::kColumn) {
    CompareOp flipped = e->compare_op();
    switch (e->compare_op()) {
      case CompareOp::kLt:
        flipped = CompareOp::kGt;
        break;
      case CompareOp::kLe:
        flipped = CompareOp::kGe;
        break;
      case CompareOp::kGt:
        flipped = CompareOp::kLt;
        break;
      case CompareOp::kGe:
        flipped = CompareOp::kLe;
        break;
      default:
        break;  // = and != are symmetric
    }
    return Sarg{r->column_name(), flipped, l->literal()};
  }
  return std::nullopt;
}

/// Intersects a new bound into the range. Returns false if the sarg is not
/// range-expressible (!=).
bool Tighten(ColumnRange& range, const Sarg& sarg) {
  switch (sarg.op) {
    case CompareOp::kEq:
      if (!range.lo || Value::Compare(sarg.value, *range.lo) > 0) {
        range.lo = sarg.value;
      }
      if (!range.hi || Value::Compare(sarg.value, *range.hi) < 0) {
        range.hi = sarg.value;
      }
      return true;
    case CompareOp::kLe:
    case CompareOp::kLt:
      // Inclusive index ranges: a strict bound keeps the value and leaves
      // the exact exclusion to the residual predicate.
      if (!range.hi || Value::Compare(sarg.value, *range.hi) < 0) {
        range.hi = sarg.value;
      }
      return true;
    case CompareOp::kGe:
    case CompareOp::kGt:
      if (!range.lo || Value::Compare(sarg.value, *range.lo) > 0) {
        range.lo = sarg.value;
      }
      return true;
    case CompareOp::kNe:
      return false;
  }
  return false;
}

/// True if this conjunct is fully served by the inclusive index range (so
/// it can be dropped from the residual): only non-strict single-column
/// comparisons on the chosen column qualify.
bool ServedByRange(const Sarg& sarg, const ColumnRange& range) {
  if (sarg.column != range.column) return false;
  switch (sarg.op) {
    case CompareOp::kEq:
      return range.is_point;
    case CompareOp::kLe:
    case CompareOp::kGe:
      return true;  // inclusive bounds match exactly
    default:
      return false;  // strict bounds / != stay residual
  }
}

}  // namespace

std::string AccessPlan::ToString() const {
  if (kind == Kind::kFullScan) {
    return residual ? "scan + filter " + residual->ToString() : "scan";
  }
  std::string out = "index-range(" + range.column;
  if (range.is_point) {
    out += " = " + range.lo->ToString();
  } else {
    if (range.lo) out += " >= " + range.lo->ToString();
    if (range.hi) out += std::string(range.lo ? "," : "") + " <= " +
                         range.hi->ToString();
  }
  out += ")";
  if (residual) out += " + filter " + residual->ToString();
  return out;
}

AccessPlan PlanAccess(
    const ExprPtr& predicate,
    const std::function<bool(const std::string&)>& has_index) {
  AccessPlan plan;
  plan.residual = predicate;
  if (predicate == nullptr) return plan;

  std::vector<ExprPtr> conjuncts;
  CollectConjuncts(predicate, &conjuncts);

  // Intersect bounds per indexed column.
  std::map<std::string, ColumnRange> ranges;
  for (const ExprPtr& conjunct : conjuncts) {
    const auto sarg = AsSarg(conjunct);
    if (!sarg || !has_index(sarg->column)) continue;
    auto [it, inserted] = ranges.try_emplace(sarg->column);
    if (inserted) it->second.column = sarg->column;
    if (!Tighten(it->second, *sarg)) continue;
  }

  // Pick the best: a point lookup beats any range; otherwise prefer a
  // two-sided range, then any bounded range.
  const ColumnRange* best = nullptr;
  int best_score = -1;
  for (auto& [column, range] : ranges) {
    if (!range.bounded()) continue;
    range.is_point = range.lo && range.hi &&
                     Value::Compare(*range.lo, *range.hi) == 0;
    const int score = range.is_point ? 3 : (range.lo && range.hi) ? 2 : 1;
    if (score > best_score) {
      best_score = score;
      best = &range;
    }
  }
  if (best == nullptr) return plan;  // full scan

  plan.kind = AccessPlan::Kind::kIndexRange;
  plan.range = *best;

  // Rebuild the residual from the conjuncts the range does not fully serve.
  ExprPtr residual;
  for (const ExprPtr& conjunct : conjuncts) {
    const auto sarg = AsSarg(conjunct);
    if (sarg && ServedByRange(*sarg, plan.range)) continue;
    residual = residual ? Expr::And(residual, conjunct) : conjunct;
  }
  plan.residual = residual;
  return plan;
}

namespace {

/// Fallback selectivities when no statistics exist: classic textbook
/// defaults (1% for equality, 1/3 per range bound).
constexpr double kDefaultEqFraction = 0.01;
constexpr double kDefaultRangeFraction = 1.0 / 3.0;

/// One AEAD open's block-cipher invocations per codec (paper §4, measured
/// fits in EXPERIMENTS E8): `msg` calls per plaintext chunk, `ad` calls per
/// header chunk, plus `fixed` calls per message, with `chunk` octets per
/// call. test_aead pins these against the instrumented cipher.
struct OpenFormula {
  uint64_t msg;
  uint64_t ad;
  uint64_t fixed;
  uint64_t chunk;
};

constexpr OpenFormula FormulaFor(AeadAlgorithm alg) {
  switch (alg) {
    case AeadAlgorithm::kEax:
      // CTR + OMAC over the ciphertext, OMAC over the header: the paper's
      // 2n+m+1, plus the one-block tweak each OMAC pass prepends here.
      return {2, 1, 4, 16};
    case AeadAlgorithm::kOcbPmac:
      return {1, 1, 2, 16};  // paper n+m+5; the offsets are per-key here
    case AeadAlgorithm::kCcfb:
      return {1, 1, 2, 12};  // 96 payload bits per call, header included
    case AeadAlgorithm::kEtm:
      return {1, 0, 0, 16};  // CTR only; HMAC-SHA-256 is no cipher call
    case AeadAlgorithm::kGcm:
      return {1, 0, 1, 16};  // CTR + tag mask; GHASH is no cipher call
    case AeadAlgorithm::kSiv:
      return {2, 1, 1, 16};  // S2V (CMAC) over header and message + CTR
  }
  return {2, 1, 4, 16};
}

/// Costs below are in cipher blocks. The AEAD work is counted exactly; the
/// rest of the engine's per-item work is priced as fixed block equivalents.
/// One open's fixed work (nonce/tag split, tag compare, buffers) costs as
/// much as 20 (GCM) to 34 (EAX) cipher calls on a 4-core AES-NI x86-64
/// host and 1-2 with portable AES; the constant sits between, since it
/// only has to rank the index against the scan.
constexpr double kOpenOverheadBlocks = 16.0;

/// Per candidate row either path visits: tombstone check, predicate
/// evaluation, compaction.
constexpr double kRowLoopBlocks = 2.0;

/// Re-reading one cell the statement just decrypted. A residual filter
/// leaves each candidate's plaintext in the decrypted-block cache, so the
/// materialise pass over the matches pays deserialisation only.
constexpr double kCachedCellBlocks = 4.0;

/// Fixed per-statement overhead keeps tiny tables from flapping between
/// paths.
constexpr double kStatementBlocks = 256.0;

/// The shapes opens are priced at. A cell's header is its 20-octet
/// CellAddress. Index entries are priced as leaf entries over an integer
/// key: be64(Ref_T) || 9-octet comparable key, under Ref_S (28 octets) ||
/// leaf marker || Ref_I (8 octets).
constexpr size_t kCellAdBytes = 20;
constexpr size_t kEntryPlaintextBytes = 17;
constexpr size_t kEntryAdBytes = 37;

/// Demotion hysteresis: prefer the index unless the priced scan undercuts
/// it by at least this factor (see the comment at the demotion site).
constexpr double kScanDemotionFactor = 0.95;

/// Per-table unit prices, all in cipher blocks.
struct TablePrices {
  double rows = 0.0;        // live rows
  double row_open = 0.0;    // opening every cell of one row
  double cached_row = 0.0;  // re-reading one row from the cache
  double entry_open = 0.0;  // opening one index entry
  double order = 2.0;
};

TablePrices PricesFor(const PlannerContext& ctx) {
  TablePrices p;
  const size_t columns =
      ctx.schema != nullptr ? std::max<size_t>(ctx.schema->num_columns(), 1)
                            : 4;
  const double row_bytes =
      ctx.stats != nullptr && ctx.stats->avg_row_bytes() > 0.0
          ? ctx.stats->avg_row_bytes()
          : 64.0;
  const auto cell_bytes = static_cast<size_t>(
      std::ceil(row_bytes / static_cast<double>(columns)));
  const auto open = [&](size_t plaintext, size_t ad) {
    return static_cast<double>(AeadOpenBlocks(ctx.aead, plaintext, ad)) +
           kOpenOverheadBlocks;
  };
  p.rows =
      ctx.stats != nullptr ? static_cast<double>(ctx.stats->row_count()) : 0.0;
  p.row_open = static_cast<double>(columns) * open(cell_bytes, kCellAdBytes);
  p.cached_row = static_cast<double>(columns) * kCachedCellBlocks;
  p.entry_open = open(kEntryPlaintextBytes, kEntryAdBytes);
  p.order = static_cast<double>(std::max<size_t>(ctx.index_order, 2));
  return p;
}

double EstimatedFraction(const AccessPlan& plan, const PlannerContext& ctx) {
  if (ctx.stats == nullptr || ctx.schema == nullptr) {
    return plan.range.is_point ? kDefaultEqFraction : kDefaultRangeFraction;
  }
  const StatusOr<size_t> col = ctx.schema->FindColumn(plan.range.column);
  if (!col.ok()) {
    return plan.range.is_point ? kDefaultEqFraction : kDefaultRangeFraction;
  }
  if (plan.range.is_point) {
    return ctx.stats->EstimateEqualityFraction(*col, kDefaultEqFraction);
  }
  return ctx.stats->EstimateRangeFraction(
      *col, plan.range.lo ? &*plan.range.lo : nullptr,
      plan.range.hi ? &*plan.range.hi : nullptr, kDefaultRangeFraction);
}

/// A full scan with a predicate is two passes over the rows: the filter
/// pass opens and evaluates every live row, then materialisation re-reads
/// the `est_out` matches from the cache. Without a predicate there is no
/// filter pass and materialisation does the real opens.
double ScanCost(const TablePrices& p, double est_out, bool has_residual) {
  return p.rows * (p.row_open + kRowLoopBlocks) +
         (has_residual ? est_out * p.cached_row : 0.0) + kStatementBlocks;
}

/// The walk opens `order` entries per level of a log_order(n)-high tree,
/// then one leaf entry per produced row; each candidate row is opened once
/// and, under a residual, re-read from the cache for materialisation.
double IndexCost(const TablePrices& p, double est_rows, bool has_residual) {
  const double height = std::max(
      1.0, std::ceil(std::log(std::max(p.rows, 2.0)) / std::log(p.order)));
  return (height * p.order + est_rows) * p.entry_open +
         est_rows * (p.row_open + kRowLoopBlocks) +
         (has_residual ? est_rows * p.cached_row : 0.0) + kStatementBlocks;
}

}  // namespace

uint64_t AeadOpenBlocks(AeadAlgorithm alg, size_t plaintext_bytes,
                        size_t ad_bytes) {
  const OpenFormula f = FormulaFor(alg);
  const auto chunks = [&f](size_t bytes) {
    return (static_cast<uint64_t>(bytes) + f.chunk - 1) / f.chunk;
  };
  return f.msg * chunks(plaintext_bytes) + f.ad * chunks(ad_bytes) + f.fixed;
}

AccessPlan PlanAccessCosted(
    const ExprPtr& predicate,
    const std::function<bool(const std::string&)>& has_index,
    const PlannerContext& ctx) {
  AccessPlan indexed = PlanAccess(predicate, has_index);
  const TablePrices prices = PricesFor(ctx);
  const double n = prices.rows;

  // Nothing sargable (or forced): the full scan is the only path.
  if (indexed.kind == AccessPlan::Kind::kFullScan ||
      ctx.mode == PlannerMode::kForceScan) {
    AccessPlan plan;
    plan.residual = predicate;
    plan.cost = ScanCost(prices, n, predicate != nullptr);
    plan.est_rows = n;
    return plan;
  }

  const double fraction = EstimatedFraction(indexed, ctx);
  const double est_rows = std::min(n, std::max(fraction * n, 1.0));
  // The competing scan would keep the whole predicate as its residual and
  // emit the same est_rows matches.
  const double scan_cost = ScanCost(prices, est_rows, predicate != nullptr);
  const double index_cost =
      IndexCost(prices, est_rows, indexed.residual != nullptr);
  indexed.cost = index_cost;
  indexed.est_rows = est_rows;
  if (ctx.mode == PlannerMode::kForceIndex) return indexed;

  // Hysteresis: only demote to a scan when it is clearly cheaper, keeping
  // the paper-faithful index path on ties and near-ties. The margin must
  // stay mild: even a range covering the whole table prices the index at
  // only the scan plus one entry open per row (both open every candidate
  // row), so a large factor could never fire. Wide ranges over most of the
  // table qualify; selective predicates never do.
  if (scan_cost < kScanDemotionFactor * index_cost) {
    AccessPlan plan;
    plan.residual = predicate;
    plan.cost = scan_cost;
    plan.est_rows = est_rows;
    return plan;
  }
  return indexed;
}

}  // namespace sdbenc
