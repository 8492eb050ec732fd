// SDB009 must-fail fixture: live-system reads in the cost-based planner.
// Scanned by test_lint.py after being copied to src/query/planner.cc in a
// scratch tree (the rule is scoped to that path). Never compiled.

#include <chrono>
#include <thread>

#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace sdbenc {

double LiveCost(const Parallelism& par) {  // finding 1: Parallelism
  const double hits = static_cast<double>(
      obs::Registry().GetCounter("pool_hits")->Value());  // finding 2
  const uint64_t t0 = obs::NowNs();                       // finding 3
  const auto t1 = std::chrono::steady_clock::now();       // finding 4
  const unsigned cores = std::thread::hardware_concurrency();  // finding 5
  return hits + static_cast<double>(t0) + cores +
         static_cast<double>(t1.time_since_epoch().count());
}

}  // namespace sdbenc
