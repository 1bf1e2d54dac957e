// Shared pieces of the wall-clock benchmark: the command line, spans kept
// in memory, latency statistics, result checks and the JSON result line.
//
// Every number here is taken from outside the engine: a span wraps one call
// into a public function of the layer it names, and counters come from the
// stats structs the program already exposes.

#ifndef WALLBENCH_HARNESS_H_
#define WALLBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "api/database.h"
#include "common/scheduler.h"

namespace wallbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (durable databases, span dumps).
  std::string work_dir = ".bench_build/work";
};

/// Worker threads of the scheduler and the cap on client threads.
int Nproc();

int64_t NowNs();

// ---------------------------------------------------------------------------
// Tracing: spans in per-thread buffers, written out when the run ends.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index into the same buffer, -1 for a root
  uint64_t request = 0;
};

/// One thread's spans. Disabled buffers record nothing, so the untraced
/// run pays one branch per span site.
class TraceBuffer {
 public:
  explicit TraceBuffer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 16);
  }
  bool enabled() const { return enabled_; }
  int32_t Begin(const char* name, uint64_t request);
  void End(int32_t index);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(TraceBuffer* buf, const char* name, uint64_t request)
      : buf_(buf), index_(buf->enabled() ? buf->Begin(name, request) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) buf_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceBuffer* buf_;
  int32_t index_;
};

struct LayerTime {
  uint64_t count = 0;
  double total_s = 0;  // sum of span durations
  double self_s = 0;   // minus the time covered by child spans
};

/// Per-name totals over all buffers. A span's self time is its duration
/// minus the durations of its direct children (children never overlap:
/// they are nested calls on the same thread).
std::map<std::string, LayerTime> Summarize(
    const std::vector<const TraceBuffer*>& buffers);

/// Writes every span as one tab-separated line:
/// thread, index, parent, request, name, start_ns, end_ns.
bool DumpSpans(const std::string& path,
               const std::vector<const TraceBuffer*>& buffers);

// ---------------------------------------------------------------------------
// Statistics and the result line.
// ---------------------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of unsorted samples; 0 when
/// there are none.
double Percentile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);
double Ratio(double num, double den);

/// Samples the resident set size every few milliseconds between Start()
/// and Stop() and keeps the maximum over every such window.
class RssSampler {
 public:
  RssSampler() = default;
  ~RssSampler() { Stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;
  void Start();
  void Stop();
  double peak_mb() const { return peak_bytes_.load() / (1024.0 * 1024.0); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<uint64_t> peak_bytes_{0};
  std::thread thread_;
};

struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;  // why `correct` is false, for stderr
  void Add(const std::string& name, double value, const char* unit) {
    metrics.emplace_back(name, std::make_pair(value, std::string(unit)));
  }
  void Fail(const std::string& why) {
    correct = false;
    notes.push_back(why);
  }
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
};

/// Prints a readable summary to stderr and the JSON result as the last
/// line of stdout.
void PrintReport(const Report& report);

/// Engine counters summed over the reads of a phase (from ExecutionStats;
/// the server path exposes only the session roll-up of virtual costs).
struct EngineCounters {
  uint64_t preprocess_units = 0;
  uint64_t join_units = 0;
  uint64_t slices = 0;
  uint64_t uct_nodes = 0;
  uint64_t progress_nodes = 0;
  uint64_t result_tuples = 0;
  uint64_t intermediate_tuples = 0;
  uint64_t final_order_slices = 0;  // needs ExecOptions::collect_trace
  uint64_t chunk_splits = 0;
  void Add(const skinner::ExecutionStats& s);
  void Merge(const EngineCounters& o);
};

/// Everything the traced run reports. Every workload prints the same list;
/// a layer a workload does not exercise reads 0. Counters are deltas summed
/// over the traced phases.
struct LayerInputs {
  std::vector<const TraceBuffer*> buffers;
  /// Traced wall time times the threads issuing requests: the denominator
  /// of every `_share`.
  double capacity_s = 0;
  /// Untraced requests per second over traced requests per second, minus 1.
  double overhead_share = 0;
  EngineCounters engine;
  /// Serial over parallel wall time of the same queries.
  double parallel_wall_speedup = 0;
  /// Slices spent on the final join order over all slices, from an untimed
  /// pass with collect_trace (job only).
  double final_order_share = 0;
  uint64_t pf_inline = 0, pf_dispatched = 0, lease_capped = 0, shed = 0;
  uint64_t peak_queue_depth = 0;  // the largest seen
  uint64_t bundle_hits = 0, bundle_misses = 0;
  uint64_t table_hits = 0, table_misses = 0;
  uint64_t invalidations = 0, size_evictions = 0, inflight_waits = 0;
  uint64_t cache_bytes_used = 0;  // at the end of the last traced phase
  uint64_t server_errors = 0;
  /// Server executions forced cache_read_only by a session's byte share.
  uint64_t cache_publish_throttled = 0;
  uint64_t wal_appends = 0, wal_bytes = 0, checkpoints = 0;
  uint64_t writes = 0;
  uint64_t snapshot_bytes = 0;  // last snapshot written
};

/// Snapshots a database's scheduler, cache and WAL counters; AddTo() adds
/// what changed since into `in`.
class CounterWindow {
 public:
  explicit CounterWindow(skinner::Database* db);
  void AddTo(LayerInputs* in) const;

 private:
  skinner::Database* db_;
  skinner::Scheduler::Stats sched_;
  skinner::PreparedCache::Stats cache_;
  skinner::Database::WalStats wal_;
};

void AddPerLayerMetrics(Report* report, const LayerInputs& in);

/// The end-to-end metrics of an untraced run.
struct EndToEnd {
  double setup_s = 0;
  double throughput_qps = 0;
  double read_p50_ms = 0, read_p90_ms = 0, read_p99_ms = 0;
  double write_p50_ms = 0, write_p90_ms = 0;
  double peak_rss_mb = 0;
};
void AddEndToEndMetrics(Report* report, const EndToEnd& e);

// ---------------------------------------------------------------------------
// Checking results.
// ---------------------------------------------------------------------------

/// Result rows in the server's wire form (`ROW a\tb` lines), sorted: equal
/// strings mean equal row multisets.
std::string CanonicalRowLines(const skinner::QueryResult& result);
/// The ROW lines of a server response, sorted; false when the response
/// does not end in OK.
bool ResponseRowLines(const std::string& response, std::string* rows);

/// The reference answer: the same SQL on the Volcano engine.
skinner::Result<skinner::QueryOutput> Reference(skinner::Database* db,
                                                const std::string& sql);

/// Reference() of every query in CanonicalRowLines form, computed on Nproc()
/// threads with a Session each; a failed query's entry matches no result.
std::vector<std::string> ReferenceRows(skinner::Database* db,
                                       const std::vector<std::string>& sqls);

/// A point write: every valid row of `table` whose `key_col` equals `key`
/// must hold `value` in `val_col`, and there must be `rows` of them.
struct ExpectedWrite {
  int64_t value = 0;
  int64_t rows = 0;
};
/// Counts the keys whose rows do not match. Reads the table directly, so
/// it sees exactly what an acknowledged UPDATE left behind.
int64_t CheckWrites(skinner::Database* db, const std::string& table,
                    const std::string& key_col, const std::string& val_col,
                    const std::map<int64_t, ExpectedWrite>& expected);

/// Per value of `key_col`: its row count (the rows_affected an UPDATE ...
/// WHERE key_col = k must report) and the `val_col` of its last row.
std::map<int64_t, ExpectedWrite> CurrentRows(skinner::Database* db,
                                             const std::string& table,
                                             const std::string& key_col,
                                             const std::string& val_col);

}  // namespace wallbench

#endif  // WALLBENCH_HARNESS_H_
