// The two served workloads: SQL from net::Client to an in-process
// net::Server, one closed-loop connection per tenant at depth 1.
//
//   point_hot   two memory tenants whose tables fit the decrypted-block
//               cache, every row read once before the window; point SELECTs.
//   mixed_cold  one file tenant reopened fresh each set-up, decrypted rows
//               over twice the cache; 80% point SELECT, 15% 32-id range
//               SELECT with a residual on an unindexed column, 5% UPDATE.

#include <pthread.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <thread>

#include "common.h"
#include "core/secure_database.h"
#include "net/client/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "obs/metrics.h"
#include "query/engine.h"
#include "query/sql_parser.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sdbenc::Bytes;
using sdbenc::DeterministicRng;
using sdbenc::ParsedStatement;
using sdbenc::QueryEngine;
using sdbenc::Schema;
using sdbenc::SecureDatabase;
using sdbenc::SecureTableOptions;
using sdbenc::Status;
using sdbenc::StatusOr;
using sdbenc::StorageOptions;
using sdbenc::Value;
using sdbenc::ValueType;
namespace net = sdbenc::net;
namespace obs = sdbenc::obs;
namespace fs = std::filesystem;

enum OpClass { kPoint = 0, kRange = 1, kUpdate = 2, kNumClasses = 3 };

struct Op {
  OpClass cls = kPoint;
  std::string sql;
  uint64_t id = 0;      // point/update key, range start
  std::string new_val;  // update
};

/// Order-independent digest of result rows; the replay's answer must
/// match the served one.
uint64_t RowsDigest(const std::vector<std::vector<Value>>& rows) {
  uint64_t d = rows.size();
  for (const auto& row : rows) {
    uint64_t h = 0xcbf29ce484222325ULL;
    for (const Value& v : row) {
      for (const char c : v.ToString()) {
        h = (h ^ static_cast<uint8_t>(c)) * 0x100000001b3ULL;
      }
      h = Mix(h);
    }
    d += Mix(h);
  }
  return d;
}

/// One client's op sequence and the model its answers are checked against.
class OpStream {
 public:
  virtual ~OpStream() = default;
  virtual Op Next() = 0;
  virtual Op PointOp(uint64_t id) const = 0;
  /// Checks an answer; a successful UPDATE moves the model.
  virtual bool Check(const Op& op, const net::WireResult& r,
                     std::string* why) = 0;
};

// ------------------------------------------------------------ point_hot

constexpr const char* kKvTable = "kv";

class PointStream : public OpStream {
 public:
  PointStream(uint64_t data_seed, uint64_t op_seed, uint64_t rows)
      : data_seed_(data_seed), rows_(rows), rng_(op_seed) {}

  Op Next() override { return PointOp(rng_.UniformUint64(rows_)); }

  Op PointOp(uint64_t id) const override {
    Op op;
    op.id = id;
    op.sql = "SELECT val FROM kv WHERE id = " + std::to_string(id);
    return op;
  }

  bool Check(const Op& op, const net::WireResult& r,
             std::string* why) override {
    if (r.rows.size() == 1 && r.rows[0].size() == 1 &&
        r.rows[0][0] == Value::Str(Token('v', data_seed_, op.id))) {
      return true;
    }
    *why = "wrong point answer for id " + std::to_string(op.id);
    return false;
  }

 private:
  uint64_t data_seed_;
  uint64_t rows_;
  DeterministicRng rng_;
};

Status PopulateKv(SecureDatabase* db, uint64_t data_seed, size_t rows) {
  SecureTableOptions options;
  options.indexed_columns = {"id"};
  options.index_order = 16;
  Schema schema({{"id", ValueType::kInt64, true},
                 {"val", ValueType::kString, true}});
  SDBENC_RETURN_IF_ERROR(db->CreateTable(kKvTable, schema, options));
  std::vector<std::vector<Value>> batch;
  batch.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    batch.push_back({Value::Int(static_cast<int64_t>(i)),
                     Value::Str(Token('v', data_seed, i))});
  }
  return db->BulkInsert(kKvTable, batch);
}

// ----------------------------------------------------------- mixed_cold

constexpr const char* kDocsTable = "docs";
constexpr uint64_t kRangeWidth = 32;
constexpr uint64_t kGroups = 8;
constexpr uint64_t kResidualBelow = 4;  // grp < 4 keeps about half

uint64_t Grp(uint64_t data_seed, uint64_t id) {
  return Mix(data_seed ^ (id * 0x9e3779b97f4a7c15ULL) ^ 0x6772) % kGroups;
}

class MixedStream : public OpStream {
 public:
  MixedStream(uint64_t data_seed, uint64_t op_seed, uint64_t rows)
      : data_seed_(data_seed), op_seed_(op_seed), rows_(rows), rng_(op_seed) {
    vals_.reserve(rows);
    for (uint64_t id = 0; id < rows; ++id) {
      vals_.push_back(Token('v', data_seed, id));
    }
  }

  Op Next() override {
    // The mix is exact per block of 20 ops (16 point, 3 range, 1 update,
    // in seeded order), so every seed runs the same class counts.
    if (block_pos_ == kBlock.size()) {
      block_ = kBlock;
      for (size_t i = block_.size() - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.UniformUint64(i + 1)]);
      }
      block_pos_ = 0;
    }
    const OpClass cls = block_[block_pos_++];
    if (cls == kPoint) return PointOp(rng_.UniformUint64(rows_));
    Op op;
    if (cls == kRange) {
      op.cls = kRange;
      op.id = rng_.UniformUint64(rows_ - kRangeWidth + 1);
      op.sql = "SELECT id, val FROM docs WHERE id >= " +
               std::to_string(op.id) + " AND id < " +
               std::to_string(op.id + kRangeWidth) + " AND grp < " +
               std::to_string(kResidualBelow);
      return op;
    }
    op.cls = kUpdate;
    op.id = rng_.UniformUint64(rows_);
    op.new_val = Token('u', op_seed_ + (++updates_), op.id);
    op.sql = "UPDATE docs SET val = '" + op.new_val + "' WHERE id = " +
             std::to_string(op.id);
    return op;
  }

  Op PointOp(uint64_t id) const override {
    Op op;
    op.id = id;
    op.sql = "SELECT val FROM docs WHERE id = " + std::to_string(id);
    return op;
  }

  bool Check(const Op& op, const net::WireResult& r,
             std::string* why) override {
    switch (op.cls) {
      case kPoint:
        if (r.rows.size() == 1 && r.rows[0].size() == 1 &&
            r.rows[0][0] == Value::Str(vals_[op.id])) {
          return true;
        }
        *why = "wrong point answer for id " + std::to_string(op.id);
        return false;
      case kRange: {
        std::vector<std::pair<int64_t, std::string>> got;
        for (const auto& row : r.rows) {
          if (row.size() != 2 || row[0].type() != ValueType::kInt64 ||
              row[1].type() != ValueType::kString) {
            *why = "malformed range row";
            return false;
          }
          got.emplace_back(row[0].AsInt(), row[1].AsString());
        }
        std::sort(got.begin(), got.end());
        std::vector<std::pair<int64_t, std::string>> want;
        for (uint64_t id = op.id; id < op.id + kRangeWidth; ++id) {
          if (Grp(data_seed_, id) < kResidualBelow) {
            want.emplace_back(static_cast<int64_t>(id), vals_[id]);
          }
        }
        if (got == want) return true;
        *why = "wrong range answer from id " + std::to_string(op.id);
        return false;
      }
      case kUpdate:
        if (r.affected == 1) {
          vals_[op.id] = op.new_val;
          return true;
        }
        *why = "update of id " + std::to_string(op.id) + " touched " +
               std::to_string(r.affected) + " rows";
        return false;
      default:
        *why = "unknown op class";
        return false;
    }
  }

 private:
  uint64_t data_seed_;
  uint64_t op_seed_;
  uint64_t rows_;
  DeterministicRng rng_;
  uint64_t updates_ = 0;
  std::vector<std::string> vals_;
  static constexpr std::array<OpClass, 20> kBlock = {
      kPoint, kPoint, kPoint, kPoint, kPoint, kPoint, kPoint,
      kPoint, kPoint, kPoint, kPoint, kPoint, kPoint, kPoint,
      kPoint, kPoint, kRange, kRange, kRange, kUpdate};
  std::array<OpClass, 20> block_ = kBlock;
  size_t block_pos_ = kBlock.size();
};

Status PopulateDocs(SecureDatabase* db, uint64_t data_seed, size_t rows,
                    size_t payload_bytes) {
  SecureTableOptions options;
  options.indexed_columns = {"id"};
  options.index_order = 16;
  Schema schema({{"id", ValueType::kInt64, true},
                 {"grp", ValueType::kInt64, true},
                 {"val", ValueType::kString, true},
                 {"pay", ValueType::kString, true}});
  SDBENC_RETURN_IF_ERROR(db->CreateTable(kDocsTable, schema, options));
  std::vector<std::vector<Value>> batch;
  batch.reserve(rows);
  for (size_t i = 0; i < rows; ++i) {
    batch.push_back({Value::Int(static_cast<int64_t>(i)),
                     Value::Int(static_cast<int64_t>(Grp(data_seed, i))),
                     Value::Str(Token('v', data_seed, i)),
                     Value::Str(Payload(data_seed, i, payload_bytes))});
  }
  return db->BulkInsert(kDocsTable, batch);
}

// ------------------------------------------------------ shared machinery

/// What differs between the two served workloads.
struct ServedSpec {
  size_t tenants = 1;
  size_t rows = 0;           // per tenant
  bool file_backed = false;
  size_t counted_ops = 0;    // per client, fixed: the counted metrics' base
  double user_bytes = 0;     // plaintext value bytes of live rows, total
  std::function<Status(SecureDatabase*, uint64_t)> populate;
  std::function<std::unique_ptr<OpStream>(uint64_t, uint64_t)> make_stream;
};

/// Traced ops per client that the in-process replay re-executes (the
/// first ones of the traced window).
constexpr size_t kReplayOps = 20000;

struct TracedOp {
  std::string sql;
  uint64_t trace = 0;
  uint64_t root_id = 0;
  uint64_t digest = 0;
};

/// One client's tallies for one phase.
struct ClientStats {
  std::vector<OpSample> samples;
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t rows_returned = 0;
  uint64_t end_ns = 0;
  uint64_t plan_index[kNumClasses] = {};
  uint64_t plan_total[kNumClasses] = {};
  std::vector<std::string> errors;
  std::vector<TracedOp> traced;
};

struct Client {
  std::string tenant;
  Bytes key;
  uint64_t data_seed = 0;
  std::unique_ptr<net::Client> conn;
  std::unique_ptr<OpStream> stream;
  /// UPDATE statements sent before the traced window; the replay copy
  /// applies them first so it holds the same rows the server does.
  std::vector<std::string> updates_before_trace;
  SpanLog spans;
};

struct Phase {
  std::vector<ClientStats> per_client;
  /// Slice boundaries of a timed phase; the CPU charged is the process's
  /// minus the client threads', i.e. the server's.
  std::vector<SliceMark> marks;
  double wall_s = 0;
  CpuJiffies j0, j1;

  uint64_t Ops() const {
    uint64_t n = 0;
    for (const auto& c : per_client) n += c.ops;
    return n;
  }
  std::vector<OpSample> Samples() const {
    std::vector<OpSample> all;
    for (const auto& c : per_client) {
      all.insert(all.end(), c.samples.begin(), c.samples.end());
    }
    return all;
  }
};

Bytes TenantKey(size_t index) {
  return Bytes(32, static_cast<uint8_t>(0xa0 + index));
}

void RunOp(Client& c, ClientStats& st, bool traced, bool record_updates,
           uint64_t trace_no) {
  const Op op = c.stream->Next();
  std::string why;
  StatusOr<net::WireResult> result = sdbenc::InternalError("no answer");
  const uint64_t t0 = obs::NowNs();
  if (!traced) {
    result = c.conn->Query(op.sql);
  } else {
    ScopedSpan root(&c.spans, "op", trace_no, 0);
    StatusOr<uint32_t> id = sdbenc::InternalError("not sent");
    {
      ScopedSpan s(&c.spans, "client.send", trace_no, root.id());
      id = c.conn->SendQuery(op.sql);
    }
    if (id.ok()) {
      ScopedSpan s(&c.spans, "client.response", trace_no, root.id());
      StatusOr<net::Response> resp = c.conn->ReadResponse();
      if (!resp.ok()) {
        result = resp.status();
      } else if (resp->request_id != *id || !resp->ok()) {
        result = sdbenc::InternalError("error response: " +
                                       resp->error.message);
      } else {
        result = std::move(resp->result);
      }
    } else {
      result = id.status();
    }
    if (result.ok() && st.traced.size() < kReplayOps) {
      st.traced.push_back(
          {op.sql, trace_no, root.id(), RowsDigest(result->rows)});
    }
  }
  const uint64_t t1 = obs::NowNs();
  st.samples.push_back({t1, static_cast<double>(t1 - t0) / 1000.0});
  ++st.ops;
  if (record_updates && op.cls == kUpdate) {
    c.updates_before_trace.push_back(op.sql);
  }
  if (!result.ok()) {
    why = op.sql + ": " + result.status().ToString();
  } else if (c.stream->Check(op, *result, &why)) {
    st.rows_returned += result->rows.size();
    ++st.plan_total[op.cls];
    if (result->plan.rfind("index", 0) == 0) ++st.plan_index[op.cls];
    return;
  }
  ++st.failed;
  if (st.errors.size() < 4) st.errors.push_back(why);
}

/// Runs every client in its own thread, closed loop at depth 1, for
/// `ops_each` ops per client or, when that is 0, until `seconds` pass; a
/// timed phase records kSlices slice marks.
Phase RunPhase(std::vector<Client>& clients, uint64_t ops_each,
               double seconds, bool traced, bool record_updates,
               uint64_t* trace_counter) {
  Phase phase;
  phase.per_client.resize(clients.size());
  std::vector<clockid_t> clocks(clients.size());
  std::atomic<size_t> ready{0};
  std::atomic<bool> go{false};
  // Client threads stay alive until the last mark has read their CPU
  // clocks.
  std::atomic<bool> release{false};
  std::atomic<uint64_t> deadline_ns{0};
  std::vector<std::thread> threads;
  for (size_t i = 0; i < clients.size(); ++i) {
    threads.emplace_back([&, i] {
      Client& c = clients[i];
      ClientStats& st = phase.per_client[i];
      st.samples.reserve(ops_each > 0 ? ops_each : 1 << 20);
      pthread_getcpuclockid(pthread_self(), &clocks[i]);
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const uint64_t deadline = deadline_ns.load();
      uint64_t trace_no = (*trace_counter) + (uint64_t{i} << 32);
      while (ops_each > 0 ? st.ops < ops_each : obs::NowNs() < deadline) {
        RunOp(c, st, traced, record_updates, ++trace_no);
      }
      st.end_ns = obs::NowNs();
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  while (ready.load() < clients.size()) std::this_thread::yield();
  auto server_cpu = [&] {
    double cpu = ProcessCpuSeconds();
    for (const clockid_t id : clocks) {
      timespec ts{};
      clock_gettime(id, &ts);
      cpu -= static_cast<double>(ts.tv_sec) +
             static_cast<double>(ts.tv_nsec) / 1e9;
    }
    return cpu;
  };
  phase.j0 = ReadCpuJiffies();
  const uint64_t start = obs::NowNs();
  const uint64_t window_ns = static_cast<uint64_t>(seconds * 1e9);
  deadline_ns.store(start + window_ns);
  if (ops_each == 0) phase.marks.push_back({start, server_cpu()});
  go.store(true, std::memory_order_release);
  if (ops_each == 0) {
    for (int k = 1; k <= kSlices; ++k) {
      const uint64_t target = start + window_ns * k / kSlices;
      const uint64_t now = obs::NowNs();
      if (target > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
      }
      phase.marks.push_back({obs::NowNs(), server_cpu()});
    }
  }
  release.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  phase.j1 = ReadCpuJiffies();
  uint64_t end = start;
  for (const ClientStats& st : phase.per_client) end = std::max(end, st.end_ns);
  phase.wall_s = static_cast<double>(end - start) / 1e9;
  *trace_counter += 1u << 24;
  return phase;
}

void Absorb(const Phase& phase, Outcome* out) {
  for (const ClientStats& st : phase.per_client) {
    out->attempted += st.ops;
    out->failed += st.failed;
    for (const std::string& e : st.errors) out->Fail(e);
  }
}

/// Parse, plan, execute and encode one statement in-process, each call
/// under its own span (the traced run's replay).
StatusOr<net::WireResult> ExecuteLocal(const QueryEngine& engine,
                                       const std::string& sql, SpanLog* log,
                                       uint64_t trace, uint64_t parent) {
  StatusOr<ParsedStatement> parsed = sdbenc::InternalError("unparsed");
  {
    ScopedSpan s(log, "query.parse", trace, parent);
    parsed = sdbenc::ParseSql(sql);
  }
  if (!parsed.ok()) return parsed.status();
  StatusOr<sdbenc::QueryResult> r = sdbenc::InternalError("unsupported");
  if (parsed->kind == ParsedStatement::Kind::kSelect) {
    {
      ScopedSpan s(log, "query.explain", trace, parent);
      StatusOr<std::string> plan = engine.Explain(parsed->select);
      if (!plan.ok()) return plan.status();
    }
    ScopedSpan s(log, "query.execute", trace, parent);
    r = engine.Execute(parsed->select);
  } else if (parsed->kind == ParsedStatement::Kind::kUpdate) {
    ScopedSpan s(log, "query.execute", trace, parent);
    r = engine.Execute(parsed->update);
  }
  if (!r.ok()) return r.status();
  net::WireResult wire{std::move(r->columns), std::move(r->rows),
                       std::move(r->plan), r->affected};
  Bytes encoded;
  {
    ScopedSpan s(log, "net.encode_result", trace, parent);
    encoded = net::EncodeResult(wire);
  }
  ScopedSpan s(log, "net.decode_result", trace, parent);
  return net::DecodeResult(encoded);
}

/// Untimed local execution (bringing the replay copy up to date).
Status ApplyLocal(const QueryEngine& engine, const std::string& sql) {
  SDBENC_ASSIGN_OR_RETURN(ParsedStatement parsed, sdbenc::ParseSql(sql));
  if (parsed.kind == ParsedStatement::Kind::kUpdate) {
    return engine.Execute(parsed.update).status();
  }
  return engine.Execute(parsed.select).status();
}

class ServedBench {
 public:
  ServedBench(const Args& args, ServedSpec spec)
      : args_(args), spec_(std::move(spec)) {
    fs::create_directories(args_.workdir);
    path_ = args_.workdir + "/" + args_.workload + ".sdb";
  }

  Outcome Run() {
    Outcome out;
    SetupTimes setup_times;
    const Status set_up = TimeSetups(
        args_, [this] { Teardown(); }, [this] { return Setup(); },
        &setup_times);
    if (!set_up.ok()) {
      out.setup_failed = true;
      out.Fail("set-up: " + set_up.ToString());
      Teardown();
      return out;
    }

    // Counted phase: a fixed number of ops per client, so the counted
    // metrics have the same base on every run.
    const obs::MetricsSnapshot c0 = obs::Registry().Snapshot();
    const Phase counted = RunPhase(clients_, spec_.counted_ops, 0, false,
                                   args_.trace, &trace_counter_);
    const obs::MetricsSnapshot c1 = obs::Registry().Snapshot();
    Absorb(counted, &out);
    const RegistryDelta cd(c0, c1);
    const double counted_ops = static_cast<double>(counted.Ops());
    const double blocks =
        cd.Counter("sdbenc_cipher_encrypt_blocks_total") +
        cd.Counter("sdbenc_cipher_decrypt_blocks_total");
    const double stored = StoredBytes();

    if (!args_.trace) {
      const Phase w = RunPhase(clients_, 0, args_.seconds, false, false,
                               &trace_counter_);
      Absorb(w, &out);
      out.steal_frac = StealFraction(w.j0, w.j1);
      const WindowSummary ws = SummarizeWindow(w.Samples(), w.marks);
      Report& r = out.report;
      AddSetupMetric(setup_times, &r);
      r.Add("ops_per_s", ws.ops_per_s, "op/s", "timed",
            "\"clients\":" + std::to_string(clients_.size()) +
                ",\"depth\":1,\"loop\":\"closed\",\"window_ops\":" +
                std::to_string(w.Ops()));
      r.Add("p50_us", ws.p50_us, "us", "timed",
            "\"samples\":" + std::to_string(ws.pooled.samples));
      r.Add("p99_us", ws.pooled.tail_us, "us", "timed",
            "\"percentile\":" + Num(ws.pooled.tail_percentile) +
                ",\"samples\":" + std::to_string(ws.pooled.samples) +
                ",\"samples_beyond\":" + std::to_string(ws.pooled.beyond));
      r.Add("cpu_us_per_op", ws.cpu_us_per_op, "us", "timed");
      r.Add("peak_rss_mb", PeakRssMb(), "MiB", "memory");
    } else {
      RunTraced(&out);
    }
    AddCountedMetrics(args_, Ratio(blocks, counted_ops),
                      Ratio(stored, spec_.user_bytes),
                      "\"ops\":" + Num(counted_ops) + ",\"stored_bytes\":" +
                          Num(stored) + ",\"user_bytes\":" +
                          Num(spec_.user_bytes),
                      &out.report);
    const obs::MetricsSnapshot end = obs::Registry().Snapshot();
    if (end.CounterValue("sdbenc_aead_open_fail_total") != 0) {
      out.setup_failed = true;
      out.Fail("AEAD open failures during the run");
    }
    Teardown();
    return out;
  }

 private:
  struct TenantHandle {
    std::atomic<SecureDatabase*> db{nullptr};
  };

  Status Setup() {
    net::ServerOptions options;
    handles_ = std::vector<TenantHandle>(spec_.tenants);
    for (size_t t = 0; t < spec_.tenants; ++t) {
      const uint64_t data_seed = Mix(args_.seed * 131 + t + 1);
      net::TenantConfig tenant;
      tenant.name = "t" + std::to_string(t);
      tenant.master_key = TenantKey(t);
      tenant.rng_seed = data_seed;
      TenantHandle* handle = &handles_[t];
      if (spec_.file_backed) {
        SDBENC_RETURN_IF_ERROR(BuildFile(path_, tenant.master_key, data_seed));
        if (args_.trace) {
          std::error_code ec;
          fs::copy_file(path_, path_ + ".replay",
                        fs::copy_options::overwrite_existing, ec);
          if (ec) return sdbenc::InternalError("replay copy: " + ec.message());
        }
        tenant.storage = StorageOptions::File(path_);
        tenant.bootstrap = [handle](SecureDatabase* db) {
          handle->db.store(db);
          return sdbenc::OkStatus();
        };
      } else {
        const ServedSpec* spec = &spec_;
        // Flush puts the rows into the memory engine's pages: the bytes
        // at rest that stored_bytes_per_user_byte counts.
        tenant.bootstrap = [handle, spec, data_seed](SecureDatabase* db) {
          handle->db.store(db);
          SDBENC_RETURN_IF_ERROR(spec->populate(db, data_seed));
          return db->Flush();
        };
      }
      options.tenants.push_back(std::move(tenant));
    }
    SDBENC_ASSIGN_OR_RETURN(server_, net::Server::Start(std::move(options)));
    for (size_t t = 0; t < spec_.tenants; ++t) {
      Client c;
      c.tenant = "t" + std::to_string(t);
      c.key = TenantKey(t);
      c.data_seed = Mix(args_.seed * 131 + t + 1);
      c.stream = spec_.make_stream(c.data_seed, Mix(args_.seed * 7919 + t));
      SDBENC_ASSIGN_OR_RETURN(c.conn,
                              net::Client::Connect("127.0.0.1",
                                                   server_->port()));
      SDBENC_RETURN_IF_ERROR(c.conn->Hello(c.tenant, c.key));
      clients_.push_back(std::move(c));
    }
    // Warm-up: point_hot reads every row once so the window runs on a
    // warm cache; mixed_cold sends one read, which opens the file.
    for (Client& c : clients_) {
      const uint64_t warm_rows = spec_.file_backed ? 1 : spec_.rows;
      std::vector<Op> ops;
      std::vector<std::string> sqls;
      for (uint64_t id = 0; id < warm_rows; ++id) {
        ops.push_back(c.stream->PointOp(id));
        sqls.push_back(ops.back().sql);
        if (sqls.size() == 512 || id + 1 == warm_rows) {
          SDBENC_ASSIGN_OR_RETURN(std::vector<net::BatchItem> items,
                                  c.conn->Batch(sqls));
          if (items.size() != ops.size()) {
            return sdbenc::InternalError("warm-up: short batch answer");
          }
          for (size_t i = 0; i < items.size(); ++i) {
            std::string why;
            if (!items[i].ok || !c.stream->Check(ops[i], items[i].result,
                                                 &why)) {
              return sdbenc::InternalError("warm-up: " + why +
                                           items[i].error.message);
            }
          }
          ops.clear();
          sqls.clear();
        }
      }
    }
    return sdbenc::OkStatus();
  }

  Status BuildFile(const std::string& path, const Bytes& key,
                   uint64_t data_seed) {
    RemoveFiles(path);
    SDBENC_ASSIGN_OR_RETURN(
        std::unique_ptr<SecureDatabase> db,
        SecureDatabase::Open(key, StorageOptions::File(path), data_seed));
    SDBENC_RETURN_IF_ERROR(spec_.populate(db.get(), data_seed));
    return db->Flush();
  }

  static void RemoveFiles(const std::string& path) {
    std::error_code ec;
    fs::remove(path, ec);
    fs::remove(path + ".wal", ec);
  }

  void Teardown() {
    for (Client& c : clients_) (void)c.conn->Bye();
    clients_.clear();
    if (server_) server_->Stop();
    server_.reset();
    if (spec_.file_backed) {
      RemoveFiles(path_);
      RemoveFiles(path_ + ".replay");
    }
  }

  /// Bytes at rest: the page file plus its WAL, or the memory engines'
  /// pages.
  double StoredBytes() const {
    if (spec_.file_backed) {
      return static_cast<double>(FileBytes(path_) + FileBytes(path_ + ".wal"));
    }
    double total = 0;
    for (const TenantHandle& h : handles_) {
      SecureDatabase* db = h.db.load();
      if (db == nullptr) continue;
      total += static_cast<double>(db->storage_engine()->num_pages()) *
               static_cast<double>(db->storage_engine()->page_size());
    }
    return total;
  }

  /// Opens the replay copy of every tenant: the same rows, built or copied
  /// the same way, brought up to the state the traced window started from.
  Status OpenReplayCopies(
      std::vector<std::unique_ptr<SecureDatabase>>* dbs,
      std::vector<std::unique_ptr<QueryEngine>>* engines) {
    for (Client& c : clients_) {
      std::unique_ptr<SecureDatabase> db;
      if (spec_.file_backed) {
        SDBENC_ASSIGN_OR_RETURN(
            db, SecureDatabase::Open(c.key,
                                     StorageOptions::File(path_ + ".replay"),
                                     c.data_seed));
      } else {
        SDBENC_ASSIGN_OR_RETURN(db, SecureDatabase::Open(c.key, c.data_seed));
        SDBENC_RETURN_IF_ERROR(spec_.populate(db.get(), c.data_seed));
      }
      auto engine = std::make_unique<QueryEngine>(db.get());
      if (!spec_.file_backed) {
        for (uint64_t id = 0; id < spec_.rows; ++id) {
          SDBENC_RETURN_IF_ERROR(ApplyLocal(*engine, c.stream->PointOp(id).sql));
        }
      }
      for (const std::string& sql : c.updates_before_trace) {
        SDBENC_RETURN_IF_ERROR(ApplyLocal(*engine, sql));
      }
      dbs->push_back(std::move(db));
      engines->push_back(std::move(engine));
    }
    return sdbenc::OkStatus();
  }

  void RunTraced(Outcome* out) {
    // Half-length untraced windows before and after the traced one are
    // the base of trace.overhead_frac, so drift over the run cancels.
    const Phase before = RunPhase(clients_, 0, args_.seconds / 2, false, true,
                                  &trace_counter_);
    Absorb(before, out);
    const obs::MetricsSnapshot s0 = obs::Registry().Snapshot();
    const Phase traced = RunPhase(clients_, 0, args_.seconds, true, false,
                                  &trace_counter_);
    const obs::MetricsSnapshot s1 = obs::Registry().Snapshot();
    Absorb(traced, out);
    out->steal_frac = StealFraction(traced.j0, traced.j1);
    const Phase after = RunPhase(clients_, 0, args_.seconds / 2, false, false,
                                 &trace_counter_);
    Absorb(after, out);

    // Replay outside the measured registry window, so the in-process
    // copy's work does not land in the server's layer deltas.
    std::vector<std::unique_ptr<SecureDatabase>> dbs;
    std::vector<std::unique_ptr<QueryEngine>> engines;
    const Status opened = OpenReplayCopies(&dbs, &engines);
    if (!opened.ok()) {
      out->setup_failed = true;
      out->Fail("replay copy: " + opened.ToString());
    } else {
      const uint64_t budget_end =
          obs::NowNs() + static_cast<uint64_t>(args_.seconds / 2 * 1e9);
      for (size_t i = 0; i < clients_.size(); ++i) {
        Client& c = clients_[i];
        for (const TracedOp& op : traced.per_client[i].traced) {
          if (obs::NowNs() >= budget_end) break;
          ScopedSpan rep(&c.spans, "replay", op.trace, op.root_id);
          StatusOr<net::WireResult> r =
              ExecuteLocal(*engines[i], op.sql, &c.spans, op.trace, rep.id());
          ++out->attempted;
          if (!r.ok() || RowsDigest(r->rows) != op.digest) {
            ++out->failed;
            out->Fail("replay differs from served answer: " + op.sql);
          }
        }
      }
    }

    std::vector<const SpanLog*> logs;
    for (const Client& c : clients_) logs.push_back(&c.spans);
    const std::vector<SpanStats> spans = SummarizeSpans(logs);
    if (!WriteSpans(args_.workdir + "/spans-" + args_.workload + ".json",
                    logs)) {
      out->Fail("could not write spans");
    }

    LayerInputs in;
    in.ops = static_cast<double>(traced.Ops());
    for (const ClientStats& st : traced.per_client) {
      in.rows_returned += static_cast<double>(st.rows_returned);
      for (int k = 0; k < kNumClasses; ++k) {
        in.plan_index[k] += static_cast<double>(st.plan_index[k]);
        in.plan_total[k] += static_cast<double>(st.plan_total[k]);
      }
    }
    in.untraced_ops_per_s =
        Ratio(static_cast<double>(before.Ops() + after.Ops()),
              before.wall_s + after.wall_s);
    in.traced_ops_per_s = Ratio(in.ops, traced.wall_s);
    in.aes_ns_per_block = AesNsPerBlock();
    in.open_fails = static_cast<double>(
        obs::Registry().Snapshot().CounterValue("sdbenc_aead_open_fail_total"));
    AddLayerMetrics(&out->report, RegistryDelta(s0, s1), spans, in);
  }

  const Args& args_;
  ServedSpec spec_;
  std::string path_;
  std::vector<TenantHandle> handles_;
  std::unique_ptr<net::Server> server_;
  std::vector<Client> clients_;
  uint64_t trace_counter_ = 0;
};

}  // namespace

Outcome RunPointHot(const Args& args) {
  ServedSpec spec;
  spec.tenants = 2;
  spec.rows = 8192;
  spec.counted_ops = 20000;
  spec.user_bytes = static_cast<double>(spec.tenants * spec.rows * (8 + 17));
  const size_t rows = spec.rows;
  spec.populate = [rows](SecureDatabase* db, uint64_t data_seed) {
    return PopulateKv(db, data_seed, rows);
  };
  spec.make_stream = [rows](uint64_t data_seed, uint64_t op_seed) {
    return std::make_unique<PointStream>(data_seed, op_seed, rows);
  };
  return ServedBench(args, std::move(spec)).Run();
}

Outcome RunMixedCold(const Args& args) {
  ServedSpec spec;
  spec.tenants = 1;
  spec.file_backed = true;
  spec.rows = 9000;
  spec.counted_ops = 4000;
  // Rows just under two pages each keep the page file close to the
  // plaintext size, and so keep set-up short.
  const size_t payload = 7900;
  spec.user_bytes = static_cast<double>(spec.rows) *
                    static_cast<double>(8 + 8 + 17 + payload);
  const size_t rows = spec.rows;
  spec.populate = [rows, payload](SecureDatabase* db, uint64_t data_seed) {
    return PopulateDocs(db, data_seed, rows, payload);
  };
  spec.make_stream = [rows](uint64_t data_seed, uint64_t op_seed) {
    return std::make_unique<MixedStream>(data_seed, op_seed, rows);
  };
  return ServedBench(args, std::move(spec)).Run();
}

}  // namespace perfbench
