#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

/// What one run of a workload found: its metrics and its answer checks.
struct Outcome {
  Report report;
  uint64_t attempted = 0;  // checked ops: counted phase + every window
  uint64_t failed = 0;     // errors and wrong answers among them
  /// Set when a check outside the op loop failed (set-up, reopen, AEAD).
  bool setup_failed = false;
  std::vector<std::string> errors;  // first few failure descriptions
  double steal_frac = 0;

  void Fail(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
  }
  bool correct() const { return failed == 0 && !setup_failed; }
};

Outcome RunPointHot(const Args& args);
Outcome RunMixedCold(const Args& args);
Outcome RunDurableIngest(const Args& args);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
