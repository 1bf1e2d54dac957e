// The `job` workload: one client runs the 33 JOB stand-in queries back to
// back through the five public QueryPipeline stages, in whole passes (each
// a seeded permutation of the set). After every pass it sends
// kWritesPerPass point UPDATEs with nothing else running; server-mix sends
// the same statement behind concurrent readers, so the two write_p50_ms
// differ by the wait for the exclusive DDL lock.
//
// Read metrics come from each query's median latency within a round,
// averaged over the rounds: a burst of host noise shorter than half a round
// moves no figure, every query weighs the same whatever the run length, and
// every round's dataset weighs the same however many passes fit in it.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>

#include "api/query_pipeline.h"
#include "benchgen/job.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "workloads.h"

namespace wallbench {

using skinner::Database;
using skinner::ExecOptions;
using skinner::QueryOutput;
using skinner::QueryPipeline;
using skinner::Result;

namespace {

/// A run is kRounds rounds, each on its own generated dataset with an equal
/// share of the run's seconds: wall time per query differs between datasets
/// of equal virtual cost, and averaging over rounds evens that out.
constexpr int kRounds = 12;
/// Loads per round, the last one kept: setup_s is a median over all of them.
constexpr int kSetupsPerRound = 3;
constexpr int kWritesPerPass = 30;
/// Passes of each configuration in the parallel probe.
constexpr int kProbePasses = 2;

/// The reads and the writes: UPDATE movie_companies SET company_type_id = v
/// WHERE movie_id = k, with fresh values v (no query reads the column).
struct JobWorkload {
  std::vector<std::string> sqls = skinner::bench::JobQueries().queries;
  ExecOptions opts;
  JobWorkload() {
    // Paper Table 1 settings: Skinner-C, one thread, cache off. The traced
    // run compares this with pre-processing and join at nproc in
    // ParallelProbe.
    opts.engine = skinner::EngineKind::kSkinnerC;
    opts.skinner_threads = 1;
    opts.use_prepared_cache = false;
  }
};

constexpr const char* kTable = "movie_companies";
constexpr const char* kKeyCol = "movie_id";
constexpr const char* kValCol = "company_type_id";

Result<std::unique_ptr<Database>> Load(uint64_t seed) {
  skinner::SchedulerOptions sched;
  sched.num_workers = Nproc();
  auto db = std::make_unique<Database>(sched);
  skinner::bench::JobSpec spec;
  spec.num_titles = 15000;
  spec.seed = seed;
  SKINNER_RETURN_IF_ERROR(skinner::bench::GenerateJob(db.get(), spec));
  return db;
}

/// One read through the five stages, each wrapped in its own span.
Result<QueryOutput> RunStages(const QueryPipeline& pipe,
                              const std::string& sql, const ExecOptions& opts,
                              TraceBuffer* tb, uint64_t request) {
  ScopedSpan root(tb, "query", request);
  Result<skinner::Statement> stmt = [&] {
    ScopedSpan s(tb, "sql.parse", request);
    return pipe.Parse(sql);
  }();
  if (!stmt.ok()) return stmt.status();
  Result<skinner::BoundStage> bound = [&] {
    ScopedSpan s(tb, "sql.bind", request);
    return pipe.Bind(stmt.MoveValue());
  }();
  if (!bound.ok()) return bound.status();
  Result<skinner::PreparedStage> prep = [&] {
    ScopedSpan s(tb, "exec.prepare", request);
    return pipe.Prepare(bound.MoveValue(), opts);
  }();
  if (!prep.ok()) return prep.status();
  Result<skinner::ExecutedStage> exec = [&] {
    ScopedSpan s(tb, "skinner.execute", request);
    return pipe.Execute(prep.value(), opts);
  }();
  if (!exec.ok()) return exec.status();
  ScopedSpan s(tb, "post.postprocess", request);
  return pipe.PostProcess(prep.value(), exec.MoveValue());
}

/// Point writes over distinct keys, drawn in a seeded order.
class WriteStream {
 public:
  WriteStream(Database* db, skinner::Rng* rng)
      : db_(db), current_(CurrentRows(db, kTable, kKeyCol, kValCol)) {
    for (const auto& [key, row] : current_) keys_.push_back(key);
    for (size_t i = keys_.size(); i > 1; --i) {
      std::swap(keys_[i - 1], keys_[rng->Uniform(i)]);
    }
  }

  /// Sends one UPDATE; false when it failed.
  bool Next(TraceBuffer* tb, uint64_t request, std::vector<double>* ms) {
    if (next_ >= keys_.size()) next_ = 0;  // reuse keys once all are used
    const int64_t key = keys_[next_++];
    ExpectedWrite want = current_.at(key);
    want.value = 1000 + static_cast<int64_t>(sent_++);
    const std::string sql = skinner::StrFormat(
        "UPDATE %s SET %s = %lld WHERE %s = %lld", kTable, kValCol,
        static_cast<long long>(want.value), kKeyCol,
        static_cast<long long>(key));
    skinner::Stopwatch one;
    skinner::Status st = [&] {
      ScopedSpan s(tb, "txn.update", request);
      return db_->Execute(sql);
    }();
    ms->push_back(one.ElapsedMillis());
    if (!st.ok()) {
      std::fprintf(stderr, "write failed: %s\n", st.ToString().c_str());
      return false;
    }
    expected_[key] = want;
    return true;
  }

  const std::map<int64_t, ExpectedWrite>& expected() const {
    return expected_;
  }

 private:
  Database* db_;
  std::map<int64_t, ExpectedWrite> current_;
  std::vector<int64_t> keys_;
  size_t next_ = 0;
  uint64_t sent_ = 0;
  std::map<int64_t, ExpectedWrite> expected_;
};

struct Phase {
  double elapsed_s = 0;
  /// Per read: query index, latency and rows (empty result on error).
  struct Read {
    size_t query;
    double ms;
    skinner::QueryResult rows;
  };
  std::vector<Read> reads;
  std::vector<double> write_ms;
  uint64_t write_errors = 0;
  EngineCounters engine;
};

/// Runs whole passes, each followed by kWritesPerPass writes, until
/// `seconds` have elapsed.
Phase RunPhase(const QueryPipeline& pipe, const JobWorkload& w,
               const ExecOptions& opts, double seconds, skinner::Rng* rng,
               WriteStream* writes, TraceBuffer* tb, uint64_t* request) {
  Phase p;
  std::vector<size_t> order(w.sqls.size());
  std::iota(order.begin(), order.end(), 0);
  skinner::Stopwatch phase;
  while (phase.ElapsedMillis() < seconds * 1000.0) {
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng->Uniform(i)]);
    }
    for (size_t q : order) {
      skinner::Stopwatch one;
      Result<QueryOutput> out = RunStages(pipe, w.sqls[q], opts, tb,
                                          ++*request);
      const double ms = one.ElapsedMillis();
      if (out.ok()) {
        p.engine.Add(out.value().stats);
        p.reads.push_back({q, ms, std::move(out.value().result)});
      } else {
        std::fprintf(stderr, "query %zu failed: %s\n", q,
                     out.status().ToString().c_str());
        p.reads.push_back({q, ms, skinner::QueryResult{}});
      }
    }
    for (int i = 0; i < kWritesPerPass; ++i) {
      if (!writes->Next(tb, ++*request, &p.write_ms)) ++p.write_errors;
    }
  }
  p.elapsed_s = phase.ElapsedMillis() / 1000.0;
  return p;
}

/// Compares every read with the Volcano answer; returns the mismatches
/// (errors included: an error's empty result has no column list).
uint64_t CheckReads(Database* db, const JobWorkload& w,
                    const std::vector<const Phase*>& phases) {
  const std::vector<std::string> ref = ReferenceRows(db, w.sqls);
  uint64_t bad = 0;
  for (const Phase* p : phases) {
    for (const Phase::Read& r : p->reads) {
      if (r.rows.column_names.empty() ||
          CanonicalRowLines(r.rows) != ref[r.query]) {
        ++bad;
      }
    }
  }
  return bad;
}

/// A round's figures: each query's median latency over the round's passes,
/// and the percentiles of the round's writes.
struct RoundFigures {
  std::vector<double> query_ms;
  double write_p50_ms = 0, write_p90_ms = 0;
};

RoundFigures SummarizeRound(const Phase& p, size_t num_queries) {
  std::vector<std::vector<double>> per_query(num_queries);
  for (const Phase::Read& r : p.reads) per_query[r.query].push_back(r.ms);
  RoundFigures f;
  for (const std::vector<double>& samples : per_query) {
    f.query_ms.push_back(Median(samples));
  }
  f.write_p50_ms = Percentile(p.write_ms, 0.50);
  f.write_p90_ms = Percentile(p.write_ms, 0.90);
  return f;
}

/// One untimed pass with ExecOptions::collect_trace on: the share of
/// Skinner-C's slices that went to the join order it settled on. Kept out
/// of the traced phase, whose spans must time the workload's own settings.
double FinalOrderShare(const QueryPipeline& pipe, const JobWorkload& w,
                       Phase* sink) {
  ExecOptions opts = w.opts;
  opts.collect_trace = true;
  TraceBuffer off(false);
  EngineCounters counters;
  for (size_t q = 0; q < w.sqls.size(); ++q) {
    Result<QueryOutput> out = RunStages(pipe, w.sqls[q], opts, &off, 0);
    if (out.ok()) counters.Add(out.value().stats);
    sink->reads.push_back({q, 0,
                           out.ok() ? std::move(out.value().result)
                                    : skinner::QueryResult{}});
  }
  return Ratio(counters.final_order_slices, counters.slices);
}

/// What the parallel probe measured.
struct ParallelFigures {
  double wall_speedup = 0;  // serial wall time over parallel wall time
  uint64_t chunk_splits = 0;
  skinner::Scheduler::Stats before, after;
};

/// Runs the query set serially (the workload's settings) and fully
/// parallel (pre-processing and join at nproc), alternating so drift hits
/// both sides alike. The reads land in `sink` to be checked with the rest.
ParallelFigures ParallelProbe(Database* db, const QueryPipeline& pipe,
                              const JobWorkload& w, Phase* sink) {
  ExecOptions parallel = w.opts;
  parallel.parallel_preprocess = true;
  parallel.num_threads = Nproc();
  parallel.skinner_threads = Nproc();
  const ExecOptions* configs[] = {&w.opts, &parallel};
  TraceBuffer off(false);
  uint64_t request = 0;
  double wall_ms[2] = {0, 0};
  ParallelFigures fig;
  fig.before = db->scheduler()->stats();
  for (int pass = 0; pass < kProbePasses; ++pass) {
    for (int c = 0; c < 2; ++c) {
      skinner::Stopwatch watch;
      for (size_t q = 0; q < w.sqls.size(); ++q) {
        Result<QueryOutput> out =
            RunStages(pipe, w.sqls[q], *configs[c], &off, ++request);
        if (out.ok()) fig.chunk_splits += out.value().stats.chunk_splits;
        sink->reads.push_back({q, 0,
                               out.ok() ? std::move(out.value().result)
                                        : skinner::QueryResult{}});
      }
      wall_ms[c] += watch.ElapsedMillis();
    }
  }
  fig.after = db->scheduler()->stats();
  fig.wall_speedup = Ratio(wall_ms[0], wall_ms[1]);
  return fig;
}

}  // namespace

int RunJob(const Args& args) {
  const JobWorkload w;
  const double round_s = args.seconds / kRounds;
  Report report;
  LayerInputs layers;
  TraceBuffer untraced(false);
  TraceBuffer traced(args.trace);
  RssSampler rss;
  std::vector<double> setup_s;
  std::vector<RoundFigures> rounds;
  double plain_s = 0, traced_s = 0;
  uint64_t plain_reads = 0, traced_reads = 0, request = 0;

  for (int round = 0; round < kRounds; ++round) {
    const uint64_t data_seed = args.seed * kRounds + round;
    std::unique_ptr<Database> db;
    for (int i = 0; i < kSetupsPerRound; ++i) {
      db.reset();
      skinner::Stopwatch watch;
      auto loaded = Load(data_seed);
      if (!loaded.ok()) {
        std::fprintf(stderr, "set-up failed: %s\n",
                     loaded.status().ToString().c_str());
        return 2;
      }
      db = loaded.MoveValue();
      setup_s.push_back(watch.ElapsedMillis() / 1000.0);
    }
    QueryPipeline pipe(db->catalog(), db->udfs(), db->stats_manager(),
                       db->prepared_cache(), db->scheduler());
    skinner::Rng rng(data_seed * 0x9E3779B97F4A7C15ull + 1);
    WriteStream writes(db.get(), &rng);

    // Peak RSS is sampled in the first round only: the reference checks'
    // threads leave their malloc arenas resident, which would add 20-35 MB
    // of the harness's own memory to every later round.
    if (round == 0) rss.Start();
    const Phase plain = RunPhase(pipe, w, w.opts, round_s, &rng, &writes,
                                 &untraced, &request);
    rss.Stop();
    plain_s += plain.elapsed_s;
    plain_reads += plain.reads.size();

    Phase traced_phase;
    Phase probe;  // reads of the last round's untimed probes
    if (args.trace) {
      CounterWindow window(db.get());
      traced_phase = RunPhase(pipe, w, w.opts, round_s, &rng, &writes,
                              &traced, &request);
      window.AddTo(&layers);
      layers.engine.Merge(traced_phase.engine);
      layers.writes += traced_phase.write_ms.size();
      traced_s += traced_phase.elapsed_s;
      traced_reads += traced_phase.reads.size();
      if (round == kRounds - 1) {
        const ParallelFigures fig = ParallelProbe(db.get(), pipe, w, &probe);
        layers.parallel_wall_speedup = fig.wall_speedup;
        layers.engine.chunk_splits += fig.chunk_splits;
        layers.pf_inline += fig.after.pf_inline - fig.before.pf_inline;
        layers.pf_dispatched +=
            fig.after.pf_dispatched - fig.before.pf_dispatched;
        layers.lease_capped += fig.after.lease_capped - fig.before.lease_capped;
        layers.final_order_share = FinalOrderShare(pipe, w, &probe);
      }
    }

    const uint64_t wrong =
        CheckReads(db.get(), w, {&plain, &traced_phase, &probe});
    const uint64_t write_errors =
        plain.write_errors + traced_phase.write_errors;
    const int64_t lost =
        CheckWrites(db.get(), kTable, kKeyCol, kValCol, writes.expected());
    report.attempted += plain.reads.size() + traced_phase.reads.size() +
                        probe.reads.size() + plain.write_ms.size() +
                        traced_phase.write_ms.size();
    report.failed += wrong + write_errors + static_cast<uint64_t>(lost);
    if (wrong > 0) {
      report.Fail(std::to_string(wrong) + " reads differ from Volcano");
    }
    if (write_errors + static_cast<uint64_t>(lost) > 0) {
      report.Fail(std::to_string(write_errors) + " writes failed, " +
                  std::to_string(lost) +
                  " keys do not hold their last write");
    }
    rounds.push_back(SummarizeRound(plain, w.sqls.size()));
  }
  if (report.failed > 0) report.correct = false;

  if (args.trace) {
    layers.buffers = {&traced};
    layers.capacity_s = traced_s;
    layers.overhead_share =
        Ratio(plain_reads / plain_s, traced_reads / traced_s) - 1.0;
    AddPerLayerMetrics(&report, layers);
    const std::string path = args.work_dir + "/job-seed" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (DumpSpans(path, layers.buffers)) {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  } else {
    // Each query's latency is the mean of its per-round medians, so every
    // round's dataset counts the same; throughput is the rate of a pass at
    // those latencies.
    std::vector<double> query_ms(w.sqls.size(), 0.0);
    EndToEnd e;
    for (const RoundFigures& r : rounds) {
      for (size_t q = 0; q < query_ms.size(); ++q) {
        query_ms[q] += r.query_ms[q] / kRounds;
      }
      e.write_p50_ms += r.write_p50_ms / kRounds;
      e.write_p90_ms += r.write_p90_ms / kRounds;
    }
    const double pass_ms = std::accumulate(query_ms.begin(), query_ms.end(),
                                           0.0);
    e.setup_s = Median(setup_s);
    e.throughput_qps = Ratio(query_ms.size() * 1000.0, pass_ms);
    e.read_p50_ms = Percentile(query_ms, 0.50);
    e.read_p90_ms = Percentile(query_ms, 0.90);
    e.read_p99_ms = Percentile(query_ms, 0.99);
    e.peak_rss_mb = rss.peak_mb();
    AddEndToEndMetrics(&report, e);
    std::fprintf(stderr, "reads=%llu\n",
                 static_cast<unsigned long long>(plain_reads));
  }
  PrintReport(report);
  return report.correct ? 0 : 1;
}

}  // namespace wallbench
