#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <thread>
#include <unordered_map>

#include "crypto/cipher_factory.h"
#include "obs/trace.h"
#include "util/bytes.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit, const std::string& kind,
                 const std::string& note) {
  metrics_.push_back({name, value, unit, kind, note});
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

LatencySummary Summarize(std::vector<double> latencies_us) {
  LatencySummary s;
  s.samples = latencies_us.size();
  if (latencies_us.empty()) return s;
  std::sort(latencies_us.begin(), latencies_us.end());
  const size_t n = latencies_us.size();
  s.p50_us = latencies_us[(n - 1) / 2];
  // p99 when at least ten samples lie beyond it; otherwise the sample with
  // exactly ten beyond (or the maximum for runs under eleven samples).
  size_t index = static_cast<size_t>(std::ceil(0.99 * n)) - 1;
  if (n - 1 - index < 10) index = n >= 11 ? n - 11 : n - 1;
  s.tail_us = latencies_us[index];
  s.beyond = n - 1 - index;
  s.tail_percentile = 100.0 * static_cast<double>(index + 1) / n;
  return s;
}

sdbenc::Status TimeSetups(const Args& args, const std::function<void()>& reset,
                          const std::function<sdbenc::Status()>& setup,
                          SetupTimes* times) {
  const int repeats = args.trace ? 1 : kSetupRepeats;
  for (int k = 0; k < repeats; ++k) {
    reset();
    const uint64_t t0 = sdbenc::obs::NowNs();
    const double cpu0 = ProcessCpuSeconds();
    SDBENC_RETURN_IF_ERROR(setup());
    times->cpu_s.push_back(ProcessCpuSeconds() - cpu0);
    times->wall_s.push_back(static_cast<double>(sdbenc::obs::NowNs() - t0) /
                            1e9);
  }
  return sdbenc::OkStatus();
}

void AddSetupMetric(const SetupTimes& times, Report* report) {
  auto list = [](const std::vector<double>& v) {
    std::string all;
    for (const double x : v) all += (all.empty() ? "" : ",") + Num(x);
    return "[" + all + "]";
  };
  report->Add("setup_s", Median(times.cpu_s), "s", "timed",
              "\"clock\":\"process_cpu\",\"cpu_s\":" + list(times.cpu_s) +
                  ",\"wall_s\":" + list(times.wall_s) +
                  ",\"wall_median_s\":" + Num(Median(times.wall_s)));
}

void AddCountedMetrics(const Args& args, double blocks_per_op,
                       double stored_per_user_byte, const std::string& note,
                       Report* report) {
  const std::string prefix = args.trace ? "counted." : "";
  const std::string kind = args.trace ? "layer" : "counted";
  report->Add(prefix + "cipher_blocks_per_op", blocks_per_op, "blocks", kind,
              note);
  report->Add(prefix + "stored_bytes_per_user_byte", stored_per_user_byte,
              "ratio", kind, note);
}

WindowSummary SummarizeWindow(std::vector<OpSample> ops,
                              const std::vector<SliceMark>& marks) {
  WindowSummary w;
  std::sort(ops.begin(), ops.end(), [](const OpSample& a, const OpSample& b) {
    return a.end_ns < b.end_ns;
  });
  std::vector<double> all;
  all.reserve(ops.size());
  for (const OpSample& op : ops) all.push_back(op.lat_us);
  w.pooled = Summarize(std::move(all));
  std::vector<double> rate, p50, cpu;
  size_t i = 0;
  while (i < ops.size() && !marks.empty() && ops[i].end_ns < marks[0].t_ns) ++i;
  for (size_t k = 0; k + 1 < marks.size(); ++k) {
    std::vector<double> lat;
    for (; i < ops.size() && ops[i].end_ns < marks[k + 1].t_ns; ++i) {
      lat.push_back(ops[i].lat_us);
    }
    if (lat.empty()) continue;
    const double n = static_cast<double>(lat.size());
    rate.push_back(n * 1e9 /
                   static_cast<double>(marks[k + 1].t_ns - marks[k].t_ns));
    cpu.push_back((marks[k + 1].cpu_s - marks[k].cpu_s) * 1e6 / n);
    p50.push_back(Median(std::move(lat)));
  }
  w.ops_per_s = Median(rate);
  w.p50_us = Median(p50);
  w.cpu_us_per_op = Median(cpu);
  return w;
}

double RegistryDelta::Counter(const std::string& name) const {
  return static_cast<double>(after_.CounterValue(name)) -
         static_cast<double>(before_.CounterValue(name));
}

double RegistryDelta::HistSum(const std::string& name) const {
  const auto* a = after_.Find(name);
  const auto* b = before_.Find(name);
  return (a ? static_cast<double>(a->hist_sum) : 0.0) -
         (b ? static_cast<double>(b->hist_sum) : 0.0);
}

double RegistryDelta::HistCount(const std::string& name) const {
  const auto* a = after_.Find(name);
  const auto* b = before_.Find(name);
  return (a ? static_cast<double>(a->hist_count) : 0.0) -
         (b ? static_cast<double>(b->hist_count) : 0.0);
}

double RegistryDelta::HistMean(const std::string& name) const {
  return Ratio(HistSum(name), HistCount(name));
}

double Ratio(double n, double d) { return d == 0 ? 0.0 : n / d; }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0;
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

CpuJiffies ReadCpuJiffies() {
  CpuJiffies j;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return j;
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(in >> v)) break;
    j.total += v;
    if (field == 7) j.steal = v;
  }
  return j;
}

double StealFraction(const CpuJiffies& a, const CpuJiffies& b) {
  return Ratio(static_cast<double>(b.steal - a.steal),
               static_cast<double>(b.total - a.total));
}

std::string HostFactsJson(double steal_fraction) {
  const std::string backend =
      sdbenc::CryptoBackendName(sdbenc::ActiveCryptoBackend());
  return "{\"host\":{\"nproc\":" +
         std::to_string(std::thread::hardware_concurrency()) +
         ",\"crypto_backend\":" + JsonString(backend) +
         ",\"sdbenc_crypto_backend\":" +
         std::to_string(sdbenc::obs::Registry()
                            .GetGauge("sdbenc_crypto_backend")
                            ->Value()) +
         ",\"build_type\":" + JsonString(PERFBENCH_BUILD_TYPE) +
         ",\"metrics_compiled_in\":" +
         (sdbenc::obs::kMetricsEnabled ? "true" : "false") +
         ",\"steal_frac\":" + Num(steal_fraction) + "}}";
}

double AesNsPerBlock() {
  const sdbenc::Bytes key(16, 0x42);
  auto cipher = sdbenc::CreateAesCipher(key);
  if (!cipher.ok()) return 0;
  constexpr size_t kBlocks = 4096;  // 64 KiB, stays in L2
  std::vector<uint8_t> buf(kBlocks * 16, 0x5a);
  std::vector<double> ns_per_block;
  for (int rep = 0; rep < 9; ++rep) {
    const uint64_t t0 = sdbenc::obs::NowNs();
    for (int i = 0; i < 16; ++i) {
      (*cipher)->EncryptBlocks(buf.data(), buf.data(), kBlocks);
    }
    const uint64_t t1 = sdbenc::obs::NowNs();
    ns_per_block.push_back(static_cast<double>(t1 - t0) / (16.0 * kBlocks));
  }
  return Median(ns_per_block);
}

uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string Token(char prefix, uint64_t seed, uint64_t id) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%c%016llx", prefix,
                static_cast<unsigned long long>(Mix(seed * 0x100000001b3ULL ^
                                                    Mix(id))));
  return buf;
}

std::string Payload(uint64_t seed, uint64_t id, size_t bytes) {
  std::string out(bytes, 'a');
  uint64_t x = Mix(seed + id);
  for (size_t i = 0; i < bytes; ++i) {
    if (i % 8 == 0) x = Mix(x);
    out[i] = static_cast<char>('a' + ((x >> (8 * (i % 8))) & 0xff) % 26);
  }
  return out;
}

// ------------------------------------------------------------- spans

std::vector<SpanStats> SummarizeSpans(
    const std::vector<const SpanLog*>& logs) {
  // Children never overlap each other (every layer call is synchronous),
  // so the covered part of a parent is the sum of its children's
  // intervals clipped to the parent's. A replay span, recorded after the
  // op that caused it, covers none of that op's interval.
  using sdbenc::obs::TraceEvent;
  std::unordered_map<uint64_t, const TraceEvent*> by_id;
  for (const SpanLog* log : logs) {
    for (const TraceEvent& s : *log) by_id[s.span_id] = &s;
  }
  std::unordered_map<uint64_t, double> covered_ns;
  for (const auto& [id, s] : by_id) {
    if (s->parent_span_id == 0) continue;
    auto it = by_id.find(s->parent_span_id);
    if (it == by_id.end()) continue;
    const TraceEvent& p = *it->second;
    const uint64_t lo = std::max(p.start_ns, s->start_ns);
    const uint64_t hi = std::min(p.start_ns + p.duration_ns,
                                 s->start_ns + s->duration_ns);
    if (hi > lo) covered_ns[p.span_id] += static_cast<double>(hi - lo);
  }
  std::map<std::string, SpanStats> agg;
  for (const auto& [id, s] : by_id) {
    SpanStats& st = agg[s->name];
    st.name = s->name;
    const double dur = static_cast<double>(s->duration_ns);
    st.count += 1;
    st.mean_us += dur / 1000.0;
    st.self_mean_us += (dur - covered_ns[id]) / 1000.0;
  }
  std::vector<SpanStats> out;
  for (auto& [name, st] : agg) {
    st.mean_us /= static_cast<double>(st.count);
    st.self_mean_us /= static_cast<double>(st.count);
    out.push_back(st);
  }
  return out;
}

double SpanMeanUs(const std::vector<SpanStats>& stats,
                  const std::string& name) {
  for (const SpanStats& s : stats) {
    if (s.name == name) return s.mean_us;
  }
  return 0;
}

double SpanSelfMeanUs(const std::vector<SpanStats>& stats,
                      const std::string& name) {
  for (const SpanStats& s : stats) {
    if (s.name == name) return s.self_mean_us;
  }
  return 0;
}

bool WriteSpans(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  SpanLog written;
  for (size_t track = 0; track < logs.size(); ++track) {
    const SpanLog& log = *logs[track];
    for (size_t i = 0; i < std::min(log.size(), kMaxWrittenSpans); ++i) {
      written.push_back(log[i]);
      written.back().thread_index = static_cast<uint32_t>(track);
    }
  }
  const std::string doc = sdbenc::obs::ExportChromeTrace(written);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && wrote;
}

// ------------------------------------------------------ per-layer metrics

void AddLayerMetrics(Report* r, const RegistryDelta& d,
                     const std::vector<SpanStats>& spans,
                     const LayerInputs& in) {
  const double n = in.ops;
  auto per_op = [&](const char* counter) {
    return Ratio(d.Counter(counter), n);
  };
  auto us_per_op = [&](const char* hist) {
    return Ratio(d.HistSum(hist) / 1000.0, n);
  };
  auto span_us = [&](const char* name) { return SpanMeanUs(spans, name); };
  auto add = [&](const char* name, double v, const char* unit) {
    r->Add(name, v, unit, "layer");
  };

  // net
  add("net.server_exec_us_per_op", us_per_op("sdbenc_server_query_ns"), "us");
  const double server_mean_us = d.HistMean("sdbenc_server_query_ns") / 1000.0;
  add("net.outside_exec_us_per_op",
      server_mean_us > 0 ? span_us("op") - server_mean_us : 0, "us");
  add("net.rx_bytes_per_op", per_op("sdbenc_server_rx_bytes_total"), "B");
  add("net.tx_bytes_per_op", per_op("sdbenc_server_tx_bytes_total"), "B");
  add("net.encode_result_us", span_us("net.encode_result"), "us");
  add("net.decode_result_us", span_us("net.decode_result"), "us");
  add("net.client_send_us", span_us("client.send"), "us");
  add("net.client_response_us", span_us("client.response"), "us");

  // util
  add("pool.task_wait_us_per_op", us_per_op("sdbenc_pool_task_wait_ns"), "us");
  add("pool.tasks_per_op", per_op("sdbenc_pool_tasks_total"), "count");
  add("lock.wait_us_per_op", us_per_op("sdbenc_lock_wait_ns"), "us");

  // query
  add("query.parse_us", span_us("query.parse"), "us");
  add("query.explain_us", span_us("query.explain"), "us");
  add("query.execute_us", span_us("query.execute"), "us");
  add("query.plan_us_per_op", us_per_op("sdbenc_query_plan_ns"), "us");
  add("query.index_lookup_us_per_op",
      us_per_op("sdbenc_query_index_lookup_ns"), "us");
  add("query.filter_us_per_op", us_per_op("sdbenc_query_filter_ns"), "us");
  add("query.materialize_us_per_op", us_per_op("sdbenc_query_materialize_ns"),
      "us");
  add("query.cells_decrypted_per_row_returned",
      Ratio(d.Counter("sdbenc_leak_cells_decrypted_total"), in.rows_returned),
      "count");
  add("query.residual_refetches_per_op",
      per_op("sdbenc_leak_residual_refetches_total"), "count");
  static const char* const kPlanFrac[3] = {"query.index_plan_frac.point",
                                           "query.index_plan_frac.range",
                                           "query.index_plan_frac.update"};
  for (int k = 0; k < 3; ++k) {
    add(kPlanFrac[k], Ratio(in.plan_index[k], in.plan_total[k]), "frac");
  }

  // btree
  add("btree.nodes_touched_per_op",
      per_op("sdbenc_leak_index_nodes_touched_total"), "count");
  add("btree.node_faults_per_op", per_op("sdbenc_btree_node_faults_total"),
      "count");
  add("btree.splits_per_row", per_op("sdbenc_btree_node_splits_total"),
      "count");
  add("btree.entry_encodes_per_row", per_op("sdbenc_btree_entry_encodes_total"),
      "count");

  // aead
  const double opens = d.Counter("sdbenc_aead_open_total");
  const double seals = d.Counter("sdbenc_aead_seal_total");
  const double blocks = d.Counter("sdbenc_cipher_encrypt_blocks_total") +
                        d.Counter("sdbenc_cipher_decrypt_blocks_total");
  add("aead.opens_per_op", Ratio(opens, n), "count");
  add("aead.seals_per_op", Ratio(seals, n), "count");
  add("aead.blocks_per_call", Ratio(blocks, opens + seals), "blocks");
  add("aead.msg_bytes_per_call",
      Ratio(d.Counter("sdbenc_aead_open_bytes_total") +
                d.Counter("sdbenc_aead_seal_bytes_total"),
            opens + seals),
      "B");
  add("aead.open_fails", in.open_fails, "count");

  // crypto
  add("crypto.aes_ns_per_block", in.aes_ns_per_block, "ns");

  // storage
  const double dc_hits = d.Counter("sdbenc_dcache_hits_total");
  const double dc_misses = d.Counter("sdbenc_dcache_misses_total");
  add("dcache.hit_ratio", Ratio(dc_hits, dc_hits + dc_misses), "frac");
  add("dcache.evictions_per_op", per_op("sdbenc_dcache_evictions_total"),
      "count");
  const double bp_hits = d.Counter("sdbenc_storage_pool_hits_total");
  const double bp_misses = d.Counter("sdbenc_storage_pool_misses_total");
  add("bufpool.hit_ratio", Ratio(bp_hits, bp_hits + bp_misses), "frac");
  add("bufpool.page_reads_per_op", per_op("sdbenc_storage_page_reads_total"),
      "count");
  add("bufpool.fault_mean_us", d.HistMean("sdbenc_storage_fault_ns") / 1000.0,
      "us");
  add("storage.write_bytes_per_user_byte",
      Ratio(d.Counter("sdbenc_storage_write_bytes_total"),
            in.user_bytes_written),
      "ratio");
  add("storage.page_writes_per_commit",
      Ratio(d.Counter("sdbenc_storage_page_writes_total"), in.commits),
      "count");
  add("wal.fsyncs_per_commit",
      Ratio(d.Counter("sdbenc_wal_fsyncs_total"), in.commits), "count");
  add("wal.fsync_mean_us", d.HistMean("sdbenc_wal_fsync_ns") / 1000.0, "us");
  add("wal.bytes_per_row", per_op("sdbenc_wal_bytes_total"), "B");
  add("wal.records_per_commit",
      Ratio(d.Counter("sdbenc_wal_records_total"), in.commits), "count");

  // core
  add("core.insert_us", span_us("core.insert"), "us");
  add("core.commit_durable_us", span_us("core.commit_durable"), "us");
  add("core.flush_us", span_us("core.flush"), "us");

  // obs: the root span's self time and the cost of tracing itself
  add("span.op_self_us", SpanSelfMeanUs(spans, "op"), "us");
  add("trace.overhead_frac",
      in.untraced_ops_per_s > 0
          ? 1.0 - in.traced_ops_per_s / in.untraced_ops_per_s
          : 0,
      "frac");
}

}  // namespace perfbench
