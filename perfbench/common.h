#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the repository benchmark: run arguments, the metric
// report, latency summaries, registry deltas, process and host readings,
// and the in-memory span log of the traced run.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/metrics.h"
#include "obs/trace_context.h"
#include "util/status.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for page files, WAL copies and span dumps.
  std::string workdir = ".bench_work";
};

/// One named number with its unit. `kind` is timed, counted, memory or
/// layer; only the final result line is read by tools, the rest is for
/// people.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string kind;
  std::string note;  // extra JSON members, already encoded, or empty
};

class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           const std::string& kind, const std::string& note = "");
  const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// Number formatted with every significant digit (%.17g), or 0 for
/// non-finite values.
std::string Num(double v);
std::string JsonString(const std::string& s);

/// Client-observed latency: the median and the highest percentile up to
/// p99 that still has at least ten samples beyond it.
struct LatencySummary {
  double p50_us = 0;
  double tail_us = 0;
  double tail_percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;
};
LatencySummary Summarize(std::vector<double> latencies_us);

using sdbenc::bench::Median;

/// How many times set-up is repeated in an untraced run; setup_s is the
/// median. The last set-up is the one the run goes on with.
inline constexpr int kSetupRepeats = 5;

/// Every set-up of a run: the CPU seconds it cost the process (user+sys of
/// all its threads) and its wall seconds.
struct SetupTimes {
  std::vector<double> cpu_s;
  std::vector<double> wall_s;
};

/// Runs `reset` then a timed `setup`, kSetupRepeats times in an untraced
/// run and once in a traced one; stops at the first error. `reset` (tearing
/// down the previous set-up) is not timed.
sdbenc::Status TimeSetups(const Args& args, const std::function<void()>& reset,
                          const std::function<sdbenc::Status()>& setup,
                          SetupTimes* times);

/// Adds setup_s: the median over the run's set-ups of one set-up's CPU
/// seconds, with every CPU and wall time beside it. CPU time, because the
/// kernel leaves time stolen by the hypervisor out of it: wall time of the
/// same set-up follows the host's steal, which swings from 0 to 0.2 on
/// a shared host within minutes.
void AddSetupMetric(const SetupTimes& times, Report* report);

/// Records the counted phase's exact counts: cipher blocks per op (the
/// paper's §4 cost unit) and bytes at rest per plaintext value byte (paper
/// E7). Untraced runs report them under their own names, traced runs as
/// per-layer metrics under counted.*.
void AddCountedMetrics(const Args& args, double blocks_per_op,
                       double stored_per_user_byte, const std::string& note,
                       Report* report);

/// A timed window is cut into kSlices equal wall-clock slices, and each
/// timed metric is the median of its per-slice values: a burst of host
/// noise (CPU steal, a neighbour's I/O) that hits a few slices does not
/// move it.
inline constexpr int kSlices = 10;

/// One completed op: when it completed and how long it took.
struct OpSample {
  uint64_t end_ns = 0;
  double lat_us = 0;
};

/// A slice boundary and the CPU seconds charged to the system under test
/// up to it (cumulative).
struct SliceMark {
  uint64_t t_ns = 0;
  double cpu_s = 0;
};

struct WindowSummary {
  double ops_per_s = 0;      // median over slices
  double p50_us = 0;         // median over slices of the slice median
  double cpu_us_per_op = 0;  // median over slices
  LatencySummary pooled;     // every op of the window (the tail percentile)
};

/// Summarises a window from its ops and its slice marks (marks[0] is the
/// window start). Ops completing after the last mark count only in
/// `pooled`.
WindowSummary SummarizeWindow(std::vector<OpSample> ops,
                              const std::vector<SliceMark>& marks);

/// Difference of two registry snapshots, read by metric name.
class RegistryDelta {
 public:
  RegistryDelta(sdbenc::obs::MetricsSnapshot before,
                sdbenc::obs::MetricsSnapshot after)
      : before_(std::move(before)), after_(std::move(after)) {}

  double Counter(const std::string& name) const;
  double HistSum(const std::string& name) const;
  double HistCount(const std::string& name) const;
  /// Sum/count of the histogram's window delta, 0 when nothing recorded.
  double HistMean(const std::string& name) const;

 private:
  sdbenc::obs::MetricsSnapshot before_;
  sdbenc::obs::MetricsSnapshot after_;
};

/// n / d, or 0 when d is 0 (a ratio with no base is reported as 0).
double Ratio(double n, double d);

double ProcessCpuSeconds();  // user + sys of the whole process
double PeakRssMb();          // VmHWM
uint64_t FileBytes(const std::string& path);  // 0 when missing

/// /proc/stat aggregate CPU jiffies, for the steal fraction of a window.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuJiffies ReadCpuJiffies();
double StealFraction(const CpuJiffies& a, const CpuJiffies& b);

/// Host facts printed with every run.
std::string HostFactsJson(double steal_fraction);

/// Benchmark-timed EncryptBlocks on a fixed buffer through the dispatched
/// AES backend: the run's host-speed reference, in ns per block.
double AesNsPerBlock();

/// 64-bit mix for seed-derived data (splitmix64 finaliser).
uint64_t Mix(uint64_t x);
/// "v" / "u" followed by 16 hex digits of Mix(seed, id): a value the
/// answer checks can recompute.
std::string Token(char prefix, uint64_t seed, uint64_t id);
/// `bytes` lower-case letters derived from (seed, id): a row payload.
std::string Payload(uint64_t seed, uint64_t id, size_t bytes);

// ------------------------------------------------------------- spans

/// Per-thread span log of the traced run, kept in memory for the whole
/// window: the benchmark's own records of the calls it makes into each
/// layer. Spans of one op share `trace_id`; `parent_span_id` is the span
/// that caused it (0 for a root).
using SpanLog = std::vector<sdbenc::obs::TraceEvent>;

/// Scoped span: opened on construction, appended to the log when it
/// closes. With a null log (an untraced window) it records nothing and its
/// id is 0.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t trace, uint64_t parent)
      : log_(log) {
    if (log_ == nullptr) return;
    event_.name = name;
    event_.trace_id = trace;
    event_.span_id = sdbenc::obs::NextGlobalSpanId();
    event_.parent_span_id = parent;
    event_.start_ns = sdbenc::obs::NowNs();
  }
  ~ScopedSpan() {
    if (log_ == nullptr) return;
    event_.duration_ns = sdbenc::obs::NowNs() - event_.start_ns;
    log_->push_back(event_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return event_.span_id; }

 private:
  SpanLog* log_;
  sdbenc::obs::TraceEvent event_;
};

/// Per span name: count, mean duration and mean self time (duration minus
/// the part of its interval that its children cover).
struct SpanStats {
  std::string name;
  size_t count = 0;
  double mean_us = 0;
  double self_mean_us = 0;
};
std::vector<SpanStats> SummarizeSpans(const std::vector<const SpanLog*>& logs);
/// Mean duration of spans named `name`, 0 when there are none.
double SpanMeanUs(const std::vector<SpanStats>& stats, const std::string& name);
double SpanSelfMeanUs(const std::vector<SpanStats>& stats,
                      const std::string& name);
/// Writes spans as one Chrome trace_event document (obs::ExportChromeTrace),
/// one track per log and at most kMaxWrittenSpans of each (the first to
/// close); returns false on I/O failure.
inline constexpr size_t kMaxWrittenSpans = 200000;
bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs);

// ------------------------------------------------------ per-layer metrics

/// The traced window's bases for the per-layer ratios.
struct LayerInputs {
  double ops = 0;                 // statements, or rows for ingest
  double rows_returned = 0;       // result rows the clients received
  double user_bytes_written = 0;  // plaintext value bytes inserted
  double commits = 0;             // CommitDurable calls
  double plan_index[3] = {};      // per op class: answers planned on an index
  double plan_total[3] = {};      // per op class: answers
  double untraced_ops_per_s = 0;
  double traced_ops_per_s = 0;
  double aes_ns_per_block = 0;
  double open_fails = 0;          // AEAD open failures over the whole run
};

/// Adds every per-layer metric, from the registry delta of the traced
/// window and the benchmark's own spans. Every workload reports the full
/// set; a ratio whose base the workload never exercises reads 0.
void AddLayerMetrics(Report* report, const RegistryDelta& d,
                     const std::vector<SpanStats>& spans,
                     const LayerInputs& in);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
