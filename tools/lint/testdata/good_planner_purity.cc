// SDB009 must-pass fixture: a planner cost that reads only the table's own
// sealed statistics and codec. Comments and strings may still name the
// banned inputs — obs::Registry, NowNs, steady_clock, Parallelism — since
// the scan ignores them. Never compiled; scanned by test_lint.py.

#include "aead/factory.h"
#include "db/column_stats.h"

namespace sdbenc {

double PureCost(const TableStatistics& stats, AeadAlgorithm alg) {
  const char* note = "no hardware_concurrency here";
  (void)note;
  const double blocks = alg == AeadAlgorithm::kEax ? 2.0 : 1.0;
  return static_cast<double>(stats.row_count()) * blocks;
}

}  // namespace sdbenc
