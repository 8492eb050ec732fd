// Repository benchmark for sdbenc. One run = one workload:
//
//   perfbench --workload point_hot|mixed_cold|durable_ingest --seed N
//             --seconds S --trace 0|1 [--workdir DIR]
//
// --trace 0 prints the end-to-end metrics (set-up time, throughput,
// latency, CPU per op, and the exact crypto/storage counts of a fixed-size
// counted phase); --trace 1 runs an untraced and a traced window and prints
// the per-layer metrics. Output is JSON lines: host facts, one line per
// metric, then a result line with every metric by name. Exit code 0 when
// every answer checked out, 1 on a wrong answer or failed op, 2 on usage.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "point_hot|mixed_cold|durable_ingest --seed N --seconds S "
               "--trace 0|1 [--workdir DIR]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--workdir") {
      args.workdir = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("flags take one value each");
  if (args.seconds <= 0) return Usage("--seconds must be positive");

  Outcome out;
  if (args.workload == "point_hot") {
    out = RunPointHot(args);
  } else if (args.workload == "mixed_cold") {
    out = RunMixedCold(args);
  } else if (args.workload == "durable_ingest") {
    out = RunDurableIngest(args);
  } else {
    return Usage("unknown workload");
  }

  std::printf("%s\n", HostFactsJson(out.steal_frac).c_str());
  std::string all;
  for (const Metric& m : out.report.metrics()) {
    std::printf("{\"metric\":%s,\"value\":%s,\"unit\":%s,\"kind\":%s%s%s}\n",
                JsonString(m.name).c_str(), Num(m.value).c_str(),
                JsonString(m.unit).c_str(), JsonString(m.kind).c_str(),
                m.note.empty() ? "" : ",", m.note.c_str());
    if (!all.empty()) all += ",";
    all += JsonString(m.name) + ":{\"value\":" + Num(m.value) +
           ",\"unit\":" + JsonString(m.unit) + "}";
  }
  for (const std::string& e : out.errors) {
    std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                 e.c_str());
  }
  std::printf(
      "{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,\"metrics\":{%s}}\n",
      out.correct() ? "true" : "false",
      static_cast<unsigned long long>(out.attempted),
      static_cast<unsigned long long>(out.failed), all.c_str());
  std::fflush(stdout);
  return out.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
