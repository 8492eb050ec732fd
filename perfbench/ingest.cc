// durable_ingest: one in-process writer inserting rows into a file-backed
// SecureDatabase with the shipped StorageOptions::File defaults (WAL on,
// no group-commit linger). CommitDurable() after every batch of
// kBatchRows rows and a Flush() checkpoint every kBatchesPerCheckpoint
// batches. It calls SecureDatabase directly because net::Server never calls
// Flush or CommitDurable on a tenant: DML acknowledged over the wire is not
// durable.

#include <algorithm>
#include <filesystem>
#include <memory>

#include "common.h"
#include "core/secure_database.h"
#include "obs/metrics.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sdbenc::Bytes;
using sdbenc::Schema;
using sdbenc::SecureDatabase;
using sdbenc::SecureTableOptions;
using sdbenc::Status;
using sdbenc::StorageOptions;
using sdbenc::Value;
using sdbenc::ValueType;
namespace obs = sdbenc::obs;
namespace fs = std::filesystem;

constexpr const char* kTable = "events";
constexpr size_t kBatchRows = 32;
constexpr size_t kBatchesPerCheckpoint = 16;
constexpr size_t kPayloadBytes = 200;
constexpr double kRowUserBytes = 8 + 17 + kPayloadBytes;
constexpr size_t kPreloadRows = 5000;
// The counted phase: 8 checkpoint cycles, ending on a checkpoint.
constexpr uint64_t kCountedBatches = kBatchesPerCheckpoint * 8;

struct Phase {
  std::vector<OpSample> samples;  // one per durable row
  std::vector<SliceMark> marks;   // timed phases only
  uint64_t rows = 0;     // rows made durable
  uint64_t commits = 0;
  double wall_s = 0;
  CpuJiffies j0, j1;
};

class IngestBench {
 public:
  explicit IngestBench(const Args& args)
      : args_(args),
        key_(32, 0xd5),
        data_seed_(Mix(args.seed * 131 + 99)) {
    fs::create_directories(args_.workdir);
    path_ = args_.workdir + "/durable_ingest.sdb";
  }

  Outcome Run() {
    SetupTimes setup_times;
    const Status set_up = TimeSetups(
        args_,
        [this] {
          db_.reset();
          RemoveFiles(path_);
        },
        [this] { return Setup(); }, &setup_times);
    if (!set_up.ok()) {
      out_.setup_failed = true;
      out_.Fail("set-up: " + set_up.ToString());
      return std::move(out_);
    }

    const obs::MetricsSnapshot c0 = obs::Registry().Snapshot();
    const Phase counted = RunBatches(kCountedBatches, 0, nullptr);
    const obs::MetricsSnapshot c1 = obs::Registry().Snapshot();
    const RegistryDelta cd(c0, c1);
    const double blocks = cd.Counter("sdbenc_cipher_encrypt_blocks_total") +
                          cd.Counter("sdbenc_cipher_decrypt_blocks_total");
    // The counted phase ends on a checkpoint, so the WAL holds no tail.
    const double stored = static_cast<double>(FileBytes(path_) +
                                              FileBytes(path_ + ".wal"));
    const double live_bytes =
        static_cast<double>(kPreloadRows + counted.rows) * kRowUserBytes;

    if (!args_.trace) {
      const Phase w = RunBatches(0, args_.seconds, nullptr);
      out_.steal_frac = StealFraction(w.j0, w.j1);
      const WindowSummary ws = SummarizeWindow(w.samples, w.marks);
      Report& r = out_.report;
      AddSetupMetric(setup_times, &r);
      r.Add("ops_per_s", ws.ops_per_s, "op/s", "timed",
            "\"writers\":1,\"batch_rows\":" + std::to_string(kBatchRows) +
                ",\"loop\":\"closed\",\"window_rows\":" +
                std::to_string(w.rows));
      r.Add("p50_us", ws.p50_us, "us", "timed",
            "\"samples\":" + std::to_string(ws.pooled.samples));
      r.Add("p99_us", ws.pooled.tail_us, "us", "timed",
            "\"percentile\":" + Num(ws.pooled.tail_percentile) +
                ",\"samples\":" + std::to_string(ws.pooled.samples) +
                ",\"samples_beyond\":" + std::to_string(ws.pooled.beyond));
      r.Add("cpu_us_per_op", ws.cpu_us_per_op, "us", "timed");
      r.Add("peak_rss_mb", PeakRssMb(), "MiB", "memory");
    } else {
      RunTraced();
    }
    AddCountedMetrics(args_, Ratio(blocks, static_cast<double>(counted.rows)),
                      Ratio(stored, live_bytes),
                      "\"ops\":" + std::to_string(counted.rows) +
                          ",\"stored_bytes\":" + Num(stored) +
                          ",\"user_bytes\":" + Num(live_bytes),
                      &out_.report);
    VerifyReopen();
    db_.reset();
    RemoveFiles(path_);
    if (obs::Registry().Snapshot().CounterValue(
            "sdbenc_aead_open_fail_total") != 0) {
      out_.setup_failed = true;
      out_.Fail("AEAD open failures during the run");
    }
    return std::move(out_);
  }

 private:
  struct Committed {
    int64_t id;
    uint64_t row;
  };

  std::vector<Value> RowValues(int64_t id) const {
    return {Value::Int(id), Value::Str(Token('v', data_seed_, id)),
            Value::Str(Payload(data_seed_, id, kPayloadBytes))};
  }

  static void RemoveFiles(const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".wal", ec);
  }

  Status Setup() {
    SDBENC_ASSIGN_OR_RETURN(
        db_, SecureDatabase::Open(key_, StorageOptions::File(path_),
                                  data_seed_));
    SecureTableOptions options;
    options.indexed_columns = {"id"};
    options.index_order = 16;
    Schema schema({{"id", ValueType::kInt64, true},
                   {"val", ValueType::kString, true},
                   {"pay", ValueType::kString, true}});
    SDBENC_RETURN_IF_ERROR(db_->CreateTable(kTable, schema, options));
    std::vector<std::vector<Value>> rows;
    rows.reserve(kPreloadRows);
    for (size_t i = 0; i < kPreloadRows; ++i) {
      rows.push_back(RowValues(static_cast<int64_t>(i)));
    }
    SDBENC_RETURN_IF_ERROR(db_->BulkInsert(kTable, rows));
    SDBENC_RETURN_IF_ERROR(db_->Flush());
    next_id_ = static_cast<int64_t>(kPreloadRows);
    batches_ = 0;
    committed_.clear();
    return sdbenc::OkStatus();
  }

  /// Inserts batches of kBatchRows rows: `batches` of them, or, when that
  /// is 0, until `seconds` pass (finishing the batch in progress). A row's
  /// latency runs from its Insert to the return of the CommitDurable that
  /// covers it. With `log`, each batch is one root span over its Insert,
  /// CommitDurable and Flush spans.
  Phase RunBatches(uint64_t batches, double seconds, SpanLog* log) {
    Phase p;
    p.samples.reserve(batches > 0 ? batches * kBatchRows : 1 << 20);
    p.j0 = ReadCpuJiffies();
    const double cpu0 = ProcessCpuSeconds();
    const uint64_t start = obs::NowNs();
    const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9);
    const uint64_t deadline = start + window_ns;
    // Slice marks fall on the first batch end past each boundary.
    int next_slice = 1;
    if (batches == 0) p.marks.push_back({start, cpu0});
    uint64_t done = 0;
    while (batches > 0 ? done < batches : obs::NowNs() < deadline) {
      const uint64_t trace = ++trace_counter_;
      const Status batch = RunBatch(log, trace, &p);
      if (!batch.ok()) {
        out_.setup_failed = true;
        out_.Fail(batch.ToString());
        break;
      }
      ++done;
      if (batches == 0 && next_slice <= kSlices &&
          obs::NowNs() >= start + window_ns * next_slice / kSlices) {
        p.marks.push_back({obs::NowNs(), ProcessCpuSeconds()});
        ++next_slice;
      }
    }
    p.wall_s = static_cast<double>(obs::NowNs() - start) / 1e9;
    p.j1 = ReadCpuJiffies();
    return p;
  }

  /// One batch: kBatchRows Inserts, the CommitDurable that makes them
  /// durable and, every kBatchesPerCheckpoint batches, a Flush checkpoint.
  /// Rows count as committed only once CommitDurable returned OK.
  Status RunBatch(SpanLog* log, uint64_t trace, Phase* p) {
    ScopedSpan root(log, "op", trace, 0);
    uint64_t started[kBatchRows];
    std::vector<Committed> pending;
    for (size_t i = 0; i < kBatchRows; ++i) {
      const int64_t id = next_id_++;
      started[i] = obs::NowNs();
      sdbenc::StatusOr<uint64_t> row = sdbenc::InternalError("unset");
      {
        ScopedSpan s(log, "core.insert", trace, root.id());
        row = db_->Insert(kTable, RowValues(id));
      }
      out_.attempted += 1;
      if (!row.ok()) {
        out_.failed += 1 + pending.size();
        return Status(row.status().code(), "insert " + std::to_string(id) +
                                               ": " + row.status().message());
      }
      pending.push_back({id, *row});
    }
    Status commit = sdbenc::OkStatus();
    {
      ScopedSpan s(log, "core.commit_durable", trace, root.id());
      commit = db_->CommitDurable();
    }
    const uint64_t committed_at = obs::NowNs();
    if (!commit.ok()) {
      out_.failed += pending.size();
      return Status(commit.code(), "commit: " + commit.message());
    }
    for (size_t i = 0; i < kBatchRows; ++i) {
      p->samples.push_back(
          {committed_at,
           static_cast<double>(committed_at - started[i]) / 1000.0});
    }
    committed_.insert(committed_.end(), pending.begin(), pending.end());
    p->rows += kBatchRows;
    p->commits += 1;
    if (++batches_ % kBatchesPerCheckpoint == 0) {
      ScopedSpan s(log, "core.flush", trace, root.id());
      const Status flush = db_->Flush();
      if (!flush.ok()) return Status(flush.code(), "flush: " + flush.message());
    }
    return sdbenc::OkStatus();
  }

  void RunTraced() {
    // Half-length untraced windows before and after the traced one are
    // the base of trace.overhead_frac: ingest slows as the table grows,
    // and the two halves bracket the traced window's table size.
    const Phase before = RunBatches(0, args_.seconds / 2, nullptr);
    SpanLog log;
    const obs::MetricsSnapshot s0 = obs::Registry().Snapshot();
    const Phase traced = RunBatches(0, args_.seconds, &log);
    const obs::MetricsSnapshot s1 = obs::Registry().Snapshot();
    out_.steal_frac = StealFraction(traced.j0, traced.j1);
    const Phase after = RunBatches(0, args_.seconds / 2, nullptr);
    const std::vector<const SpanLog*> logs = {&log};
    if (!WriteSpans(args_.workdir + "/spans-" + args_.workload + ".json",
                    logs)) {
      out_.Fail("could not write spans");
    }
    LayerInputs in;
    in.ops = static_cast<double>(traced.rows);
    in.user_bytes_written = in.ops * kRowUserBytes;
    in.commits = static_cast<double>(traced.commits);
    in.untraced_ops_per_s = Ratio(static_cast<double>(before.rows + after.rows),
                                  before.wall_s + after.wall_s);
    in.traced_ops_per_s = Ratio(in.ops, traced.wall_s);
    in.aes_ns_per_block = AesNsPerBlock();
    in.open_fails = static_cast<double>(
        obs::Registry().Snapshot().CounterValue("sdbenc_aead_open_fail_total"));
    AddLayerMetrics(&out_.report, RegistryDelta(s0, s1), SummarizeSpans(logs),
                    in);
  }

  /// Copies the page file and WAL as they stand after the last
  /// CommitDurable returned (the writer still open, as after a crash of
  /// the process), reopens the copy, and checks that every committed row
  /// is there with its values.
  void VerifyReopen() {
    const std::string copy = args_.workdir + "/durable_ingest-reopen.sdb";
    std::error_code ec;
    fs::copy_file(path_, copy, fs::copy_options::overwrite_existing, ec);
    if (!ec && fs::exists(path_ + ".wal")) {
      fs::copy_file(path_ + ".wal", copy + ".wal",
                    fs::copy_options::overwrite_existing, ec);
    } else {
      fs::remove(copy + ".wal", ec);
    }
    if (ec) {
      out_.setup_failed = true;
      out_.Fail("copy for reopen: " + ec.message());
      return;
    }
    auto reopened = SecureDatabase::Open(key_, StorageOptions::File(copy),
                                         data_seed_ + 1);
    if (!reopened.ok()) {
      out_.setup_failed = true;
      out_.Fail("reopen: " + reopened.status().ToString());
      return;
    }
    uint64_t missing = 0;
    for (const Committed& c : committed_) {
      auto row = (*reopened)->GetRow(kTable, c.row);
      if (!row.ok() || *row != RowValues(c.id)) {
        if (++missing <= 3) {
          out_.Fail("committed row " + std::to_string(c.id) +
                    " lost or wrong after reopen");
        }
      }
    }
    out_.failed += missing;
    out_.report.Add("reopen_rows_checked",
                    static_cast<double>(committed_.size()), "count", "check");
    reopened->reset();
    RemoveFiles(copy);
  }

  const Args& args_;
  const Bytes key_;
  const uint64_t data_seed_;
  std::string path_;
  std::unique_ptr<SecureDatabase> db_;
  int64_t next_id_ = 0;
  uint64_t batches_ = 0;
  uint64_t trace_counter_ = 0;
  std::vector<Committed> committed_;
  Outcome out_;
};

}  // namespace

Outcome RunDurableIngest(const Args& args) { return IngestBench(args).Run(); }

}  // namespace perfbench
