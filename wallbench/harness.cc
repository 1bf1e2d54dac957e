#include "harness.h"

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>

#include "api/session.h"
#include "server/server.h"

namespace wallbench {

using skinner::Database;
using skinner::QueryResult;

int Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t TraceBuffer::Begin(const char* name, uint64_t request) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.request = request;
  const auto index = static_cast<int32_t>(spans_.size());
  spans_.push_back(s);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void TraceBuffer::End(int32_t index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  open_.pop_back();
}

std::map<std::string, LayerTime> Summarize(
    const std::vector<const TraceBuffer*>& buffers) {
  std::map<std::string, LayerTime> out;
  for (const TraceBuffer* buf : buffers) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<int64_t> child_ns(spans.size(), 0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const int64_t dur = spans[i].end_ns - spans[i].start_ns;
      LayerTime& t = out[spans[i].name];
      ++t.count;
      t.total_s += static_cast<double>(dur) * 1e-9;
      t.self_s += static_cast<double>(dur - child_ns[i]) * 1e-9;
    }
  }
  return out;
}

bool DumpSpans(const std::string& path,
               const std::vector<const TraceBuffer*>& buffers) {
  std::ofstream out(path);
  if (!out) return false;
  out << "thread\tindex\tparent\trequest\tname\tstart_ns\tend_ns\n";
  for (size_t t = 0; t < buffers.size(); ++t) {
    const std::vector<Span>& spans = buffers[t]->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      out << t << '\t' << i << '\t' << s.parent << '\t' << s.request << '\t'
          << s.name << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

namespace {

uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  uint64_t size_pages = 0;
  uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
}

}  // namespace

void RssSampler::Start() {
  stop_ = false;
  const uint64_t rss = CurrentRssBytes();
  if (rss > peak_bytes_.load()) peak_bytes_ = rss;
  thread_ = std::thread([this] {
    while (!stop_.load()) {
      const uint64_t rss = CurrentRssBytes();
      if (rss > peak_bytes_.load()) peak_bytes_ = rss;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });
}

void RssSampler::Stop() {
  if (!thread_.joinable()) return;
  stop_ = true;
  thread_.join();
  const uint64_t rss = CurrentRssBytes();
  if (rss > peak_bytes_.load()) peak_bytes_ = rss;
}

void PrintReport(const Report& report) {
  for (const std::string& note : report.notes) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", note.c_str());
  }
  std::fprintf(stderr, "attempted=%llu failed=%llu correct=%s\n",
               static_cast<unsigned long long>(report.attempted),
               static_cast<unsigned long long>(report.failed),
               report.correct ? "true" : "false");
  std::ostringstream json;
  json.precision(12);
  json << "{\"correct\": " << (report.correct ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : report.metrics) {
    const double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::fprintf(stderr, "  %-32s %14.6g %s\n", name.c_str(), v,
                 vu.second.c_str());
    json << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << v
         << ", \"unit\": \"" << vu.second << "\"}";
    first = false;
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  std::fflush(stdout);
}

void AddEndToEndMetrics(Report* report, const EndToEnd& e) {
  report->Add("setup_s", e.setup_s, "s");
  report->Add("throughput_qps", e.throughput_qps, "1/s");
  report->Add("read_p50_ms", e.read_p50_ms, "ms");
  report->Add("read_p90_ms", e.read_p90_ms, "ms");
  report->Add("read_p99_ms", e.read_p99_ms, "ms");
  report->Add("write_p50_ms", e.write_p50_ms, "ms");
  report->Add("write_p90_ms", e.write_p90_ms, "ms");
  report->Add("peak_rss_mb", e.peak_rss_mb, "MB");
  std::fprintf(stderr, "failed_share=%.6f\n",
               Ratio(static_cast<double>(report->failed),
                     static_cast<double>(report->attempted)));
}

void EngineCounters::Add(const skinner::ExecutionStats& s) {
  preprocess_units += s.preprocess_cost;
  join_units += s.total_cost - s.preprocess_cost;
  slices += s.slices;
  uct_nodes += s.uct_nodes;
  progress_nodes += s.progress_nodes;
  result_tuples += s.join_result_tuples;
  intermediate_tuples += s.intermediate_tuples;
  auto it = s.order_selections.find(s.join_order);
  if (it != s.order_selections.end()) final_order_slices += it->second;
  chunk_splits += s.chunk_splits;
}

void EngineCounters::Merge(const EngineCounters& o) {
  preprocess_units += o.preprocess_units;
  join_units += o.join_units;
  slices += o.slices;
  uct_nodes += o.uct_nodes;
  progress_nodes += o.progress_nodes;
  result_tuples += o.result_tuples;
  intermediate_tuples += o.intermediate_tuples;
  final_order_slices += o.final_order_slices;
  chunk_splits += o.chunk_splits;
}

CounterWindow::CounterWindow(Database* db)
    : db_(db),
      sched_(db->scheduler()->stats()),
      cache_(db->prepared_cache()->stats()),
      wal_(db->wal_stats()) {}

void CounterWindow::AddTo(LayerInputs* in) const {
  const skinner::Scheduler::Stats s = db_->scheduler()->stats();
  const skinner::PreparedCache::Stats c = db_->prepared_cache()->stats();
  const Database::WalStats w = db_->wal_stats();
  in->pf_inline += s.pf_inline - sched_.pf_inline;
  in->pf_dispatched += s.pf_dispatched - sched_.pf_dispatched;
  in->lease_capped += s.lease_capped - sched_.lease_capped;
  in->shed += (s.shed_overload + s.shed_quota + s.shed_draining) -
              (sched_.shed_overload + sched_.shed_quota + sched_.shed_draining);
  in->peak_queue_depth = std::max<uint64_t>(in->peak_queue_depth,
                                            s.peak_queue_depth);
  in->bundle_hits += c.hits - cache_.hits;
  in->bundle_misses += c.misses - cache_.misses;
  in->table_hits += c.table_hits - cache_.table_hits;
  in->table_misses += c.table_misses - cache_.table_misses;
  in->invalidations += (c.invalidations + c.table_invalidations) -
                       (cache_.invalidations + cache_.table_invalidations);
  in->size_evictions += c.size_evictions - cache_.size_evictions;
  in->inflight_waits += c.inflight_waits - cache_.inflight_waits;
  in->cache_bytes_used = c.bytes_used;
  in->wal_appends += w.wal_appends - wal_.wal_appends;
  in->wal_bytes += w.wal_bytes - wal_.wal_bytes;
  in->checkpoints += w.checkpoints - wal_.checkpoints;
}

void AddPerLayerMetrics(Report* report, const LayerInputs& in) {
  const std::map<std::string, LayerTime> t = Summarize(in.buffers);
  auto self_s = [&](const char* layer) {
    auto it = t.find(layer);
    return it == t.end() ? 0.0 : it->second.self_s;
  };
  auto layer_time = [&](const char* layer) {
    const double busy = self_s(layer);
    report->Add(std::string(layer) + "_s", busy, "s");
    report->Add(std::string(layer) + "_share", Ratio(busy, in.capacity_s),
                "ratio");
  };
  const EngineCounters& e = in.engine;

  layer_time("sql.parse");
  layer_time("sql.bind");

  layer_time("exec.prepare");
  report->Add("exec.preprocess_units", e.preprocess_units, "units");
  report->Add("exec.ns_per_unit",
              Ratio(self_s("exec.prepare") * 1e9, e.preprocess_units),
              "ns/unit");
  report->Add("exec.parallel_wall_speedup", in.parallel_wall_speedup,
              "ratio");

  layer_time("skinner.execute");
  report->Add("skinner.join_units", e.join_units, "units");
  report->Add("skinner.ns_per_unit",
              Ratio(self_s("skinner.execute") * 1e9, e.join_units),
              "ns/unit");
  report->Add("skinner.slices", e.slices, "count");
  report->Add("uct.nodes", e.uct_nodes, "count");
  report->Add("skinner.progress_nodes", e.progress_nodes, "count");
  report->Add("skinner.useful_ratio",
              Ratio(e.result_tuples, e.intermediate_tuples), "ratio");
  report->Add("skinner.final_order_share", in.final_order_share, "ratio");
  report->Add("skinner.chunk_splits", e.chunk_splits, "count");

  report->Add("scheduler.pf_dispatched_share",
              Ratio(in.pf_dispatched, in.pf_dispatched + in.pf_inline),
              "ratio");
  report->Add("scheduler.lease_capped", in.lease_capped, "count");
  report->Add("scheduler.peak_queue_depth", in.peak_queue_depth, "count");
  report->Add("scheduler.shed", in.shed, "count");

  layer_time("post.postprocess");
  report->Add("post.input_tuples", e.result_tuples, "count");

  report->Add("cache.bundle_hit_rate",
              Ratio(in.bundle_hits, in.bundle_hits + in.bundle_misses),
              "ratio");
  report->Add("cache.table_hit_rate",
              Ratio(in.table_hits, in.table_hits + in.table_misses), "ratio");
  report->Add("cache.invalidations", in.invalidations, "count");
  report->Add("cache.size_evictions", in.size_evictions, "count");
  report->Add("cache.inflight_waits", in.inflight_waits, "count");
  report->Add("cache.bytes_used", in.cache_bytes_used, "bytes");
  report->Add("cache.publish_throttled", in.cache_publish_throttled, "count");

  report->Add("server.errors", in.server_errors, "count");
  layer_time("server.exec");
  layer_time("server.query");
  layer_time("server.write");

  layer_time("txn.update");
  report->Add("txn.wal_appends", in.wal_appends, "count");
  report->Add("txn.wal_bytes_per_write", Ratio(in.wal_bytes, in.writes),
              "bytes");
  layer_time("txn.checkpoint");
  report->Add("txn.checkpoints", in.checkpoints, "count");
  report->Add("txn.snapshot_bytes", in.snapshot_bytes, "bytes");
  report->Add("txn.open_s", self_s("txn.open"), "s");

  auto query = t.find("query");
  const double query_s = query == t.end() ? 0.0 : query->second.total_s;
  const double unattributed = query == t.end() ? 0.0 : query->second.self_s;
  report->Add("trace.unattributed_share", Ratio(unattributed, query_s),
              "ratio");
  report->Add("trace.overhead_share", in.overhead_share, "ratio");
  uint64_t spans = 0;
  for (const auto& [name, lt] : t) spans += lt.count;
  report->Add("trace.spans", spans, "count");
}

std::string CanonicalRowLines(const QueryResult& result) {
  std::vector<std::string> lines;
  lines.reserve(result.rows.size());
  for (const auto& row : result.rows) {
    std::string line = "ROW";
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(i == 0 ? ' ' : '\t');
      line += skinner::EscapeField(row[i].ToString());
    }
    lines.push_back(std::move(line));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& l : lines) {
    out += l;
    out += '\n';
  }
  return out;
}

bool ResponseRowLines(const std::string& response, std::string* rows) {
  std::vector<std::string> lines;
  size_t start = 0;
  bool ok = false;
  while (start < response.size()) {
    size_t nl = response.find('\n', start);
    if (nl == std::string::npos) nl = response.size();
    std::string line = response.substr(start, nl - start);
    start = nl + 1;
    if (line.rfind("ROW", 0) == 0) {
      lines.push_back(std::move(line));
    } else {
      ok = line.rfind("OK", 0) == 0;
      break;
    }
  }
  std::sort(lines.begin(), lines.end());
  rows->clear();
  for (const std::string& l : lines) {
    *rows += l;
    *rows += '\n';
  }
  return ok;
}

skinner::Result<skinner::QueryOutput> Reference(Database* db,
                                                const std::string& sql) {
  skinner::ExecOptions opts;
  opts.engine = skinner::EngineKind::kVolcano;
  return db->Query(sql, opts);
}

std::vector<std::string> ReferenceRows(Database* db,
                                       const std::vector<std::string>& sqls) {
  std::vector<std::string> rows(sqls.size());
  std::atomic<size_t> next{0};
  auto work = [&] {
    std::unique_ptr<skinner::Session> session = db->CreateSession();
    skinner::ExecOptions opts;
    opts.engine = skinner::EngineKind::kVolcano;
    for (size_t i = next++; i < sqls.size(); i = next++) {
      auto out = session->Query(sqls[i], opts);
      if (out.ok()) {
        rows[i] = CanonicalRowLines(out.value().result);
      } else {
        std::fprintf(stderr, "reference failed: %s\n",
                     out.status().ToString().c_str());
        rows[i] = "reference error";
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < Nproc(); ++t) threads.emplace_back(work);
  work();
  for (std::thread& t : threads) t.join();
  return rows;
}

namespace {

int ColumnOf(Database* db, const std::string& table, const std::string& col,
             const skinner::Table** out) {
  const skinner::Table* t = db->catalog()->FindTable(table);
  *out = t;
  return t == nullptr ? -1 : t->schema().FindColumn(col);
}

}  // namespace

int64_t CheckWrites(Database* db, const std::string& table,
                    const std::string& key_col, const std::string& val_col,
                    const std::map<int64_t, ExpectedWrite>& expected) {
  const skinner::Table* t = nullptr;
  const int k = ColumnOf(db, table, key_col, &t);
  const int v = ColumnOf(db, table, val_col, &t);
  if (t == nullptr || k < 0 || v < 0) {
    return static_cast<int64_t>(expected.size());
  }
  std::map<int64_t, int64_t> matched;
  std::map<int64_t, bool> wrong;
  const skinner::Column& keys = t->column(k);
  const skinner::Column& vals = t->column(v);
  for (int64_t row = 0; row < t->num_rows(); ++row) {
    if (!t->IsRowValid(row) || keys.IsNull(row)) continue;
    auto it = expected.find(keys.GetInt(row));
    if (it == expected.end()) continue;
    ++matched[it->first];
    if (vals.IsNull(row) || vals.GetInt(row) != it->second.value) {
      wrong[it->first] = true;
    }
  }
  int64_t bad = 0;
  for (const auto& [key, want] : expected) {
    if (wrong.count(key) > 0 || matched[key] != want.rows) ++bad;
  }
  return bad;
}

std::map<int64_t, ExpectedWrite> CurrentRows(Database* db,
                                             const std::string& table,
                                             const std::string& key_col,
                                             const std::string& val_col) {
  std::map<int64_t, ExpectedWrite> rows;
  const skinner::Table* t = nullptr;
  const int k = ColumnOf(db, table, key_col, &t);
  const int v = ColumnOf(db, table, val_col, &t);
  if (t == nullptr || k < 0 || v < 0) return rows;
  const skinner::Column& keys = t->column(k);
  const skinner::Column& vals = t->column(v);
  for (int64_t row = 0; row < t->num_rows(); ++row) {
    if (!t->IsRowValid(row) || keys.IsNull(row)) continue;
    ExpectedWrite& e = rows[keys.GetInt(row)];
    ++e.rows;
    e.value = vals.IsNull(row) ? 0 : vals.GetInt(row);
  }
  return rows;
}

}  // namespace wallbench
