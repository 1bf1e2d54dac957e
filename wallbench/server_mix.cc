// The `server-mix` workload: closed-loop clients (one thread each, at most
// nproc) drive an in-process ServerCore through ServerConnection::HandleLine
// over a durable database, with skinner_serve's settings (FsyncPolicy::
// kNever, PreparedCache on). Each client waits for every reply before
// sending its next line, so the scheduler's admission queue bounds backlog.
//
// Mix per client line: 70% `E` of a `?`-template from the JOB families
// (small per-table artifacts, which fit the 64 MiB cache), 20% ad-hoc `Q`
// over all 33 JOB queries (whose bundles do not all fit), 10% `X UPDATE
// movie_companies SET company_type_id = v WHERE movie_id = k`, and a
// `CHECKPOINT` after every kWritesPerCheckpoint acknowledged writes. No
// query reads company_type_id, so writes invalidate cached artifacts and
// append to the WAL without changing any read's answer.

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <thread>

#include <unistd.h>

#include "api/session.h"
#include "benchgen/job.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "server/server.h"
#include "workloads.h"

namespace wallbench {

using skinner::Database;
using skinner::ServerConnection;
using skinner::ServerCore;

namespace {

/// A run is kRounds rounds, each a fresh server over its own generated
/// dataset and directory with a share of the run's seconds. Latencies pool
/// the rounds' samples.
constexpr int kRounds = 3;
/// Set-ups per round (each starts over in an emptied directory), the last
/// one kept: setup_s is a median over all of them.
constexpr int kSetupsPerRound = 5;
constexpr int kMaxClients = 4;
constexpr uint64_t kWritesPerCheckpoint = 15;
constexpr int64_t kJobTitles = 15000;

struct Template {
  const char* sql;
  std::vector<std::vector<std::string>> choices;  // per `?`, literal texts
};

/// `?`-templates of six JOB families (see benchgen/job.cc).
const std::vector<Template>& Templates() {
  static const std::vector<Template> t = {
      {"SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, "
       "kind_type kt WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND "
       "t.kind_id = kt.id AND k.keyword = ? AND t.production_year > ?",
       {{"'kw_1'", "'kw_2'", "'kw_3'", "'kw_5'", "'kw_9'", "'kw_17'"},
        {"1950", "1990", "2000"}}},
      {"SELECT COUNT(*) FROM title t, movie_companies mc, company_name cn, "
       "movie_keyword mk, keyword k WHERE t.id = mc.movie_id AND "
       "mc.company_id = cn.id AND t.id = mk.movie_id AND "
       "mk.keyword_id = k.id AND cn.country_code = ? AND "
       "t.production_year > ?",
       {{"'[us]'", "'[gb]'", "'[de]'", "'[fr]'", "'[in]'", "'[jp]'"},
        {"1990", "2000", "2005"}}},
      {"SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, "
       "movie_info mi, info_type it WHERE t.id = mk.movie_id AND "
       "mk.keyword_id = k.id AND t.id = mi.movie_id AND "
       "mi.info_type_id = it.id AND k.keyword = 'blockbuster' AND "
       "it.info = 'genre' AND mi.info = ? AND t.production_year > 2000",
       {{"'action'", "'drama'", "'comedy'", "'thriller'", "'sci-fi'",
         "'horror'", "'romance'", "'documentary'"}}},
      {"SELECT COUNT(*) FROM title t, movie_keyword mk, keyword k, "
       "movie_companies mc, company_name cn, kind_type kt WHERE "
       "t.id = mk.movie_id AND mk.keyword_id = k.id AND t.id = mc.movie_id "
       "AND mc.company_id = cn.id AND t.kind_id = kt.id AND "
       "k.keyword = 'blockbuster' AND cn.country_code = ? AND "
       "kt.kind = 'movie'",
       {{"'[us]'", "'[gb]'", "'[de]'", "'[fr]'", "'[in]'", "'[jp]'"}}},
      {"SELECT COUNT(*) FROM title t, movie_info mi, info_type it, "
       "movie_companies mc, company_name cn, kind_type kt WHERE "
       "t.id = mi.movie_id AND mi.info_type_id = it.id AND "
       "t.id = mc.movie_id AND mc.company_id = cn.id AND "
       "t.kind_id = kt.id AND it.info = 'budget' AND mi.info = ? AND "
       "cn.country_code = '[us]' AND t.production_year > ?",
       {{"'high'", "'low'"}, {"1990", "2010"}}},
      {"SELECT MIN(t.production_year), MAX(t.production_year) FROM title t, "
       "movie_keyword mk, keyword k, movie_companies mc, company_name cn "
       "WHERE t.id = mk.movie_id AND mk.keyword_id = k.id AND "
       "t.id = mc.movie_id AND mc.company_id = cn.id AND k.keyword = ? AND "
       "cn.country_code = ?",
       {{"'blockbuster'", "'kw_1'", "'kw_3'"}, {"'[us]'", "'[gb]'"}}},
  };
  return t;
}

/// One read the clients may send: its protocol line and the literal SQL
/// the reference engine runs.
struct ReadOp {
  std::string line;
  std::string sql;
};

struct Catalogue {
  std::vector<ReadOp> executes;  // every template instantiation
  std::vector<ReadOp> queries;   // the 33 JOB queries
};

Catalogue BuildCatalogue() {
  Catalogue c;
  const std::vector<Template>& ts = Templates();
  for (size_t t = 0; t < ts.size(); ++t) {
    std::vector<size_t> pick(ts[t].choices.size(), 0);
    while (true) {
      ReadOp op;
      op.line = "E t" + std::to_string(t);
      size_t param = 0;
      for (const char* p = ts[t].sql; *p != '\0'; ++p) {
        if (*p == '?') {
          const std::string& lit = ts[t].choices[param][pick[param]];
          op.sql += lit;
          op.line += ' ' + lit;
          ++param;
        } else {
          op.sql.push_back(*p);
        }
      }
      c.executes.push_back(std::move(op));
      size_t d = 0;
      while (d < pick.size() && ++pick[d] == ts[t].choices[d].size()) {
        pick[d++] = 0;
      }
      if (d == pick.size()) break;
    }
  }
  for (const std::string& sql : skinner::bench::JobQueries().queries) {
    c.queries.push_back(ReadOp{"Q " + sql, sql});
  }
  return c;
}

/// A running server over a durable directory.
struct Server {
  std::string dir;
  std::unique_ptr<Database> db;
  std::unique_ptr<ServerCore> core;
  std::vector<std::unique_ptr<ServerConnection>> conns;
  /// movie_companies rows per movie_id: what each UPDATE must affect.
  std::map<int64_t, ExpectedWrite> rows_per_movie;
  std::vector<int64_t> movies;
  void Close() {
    conns.clear();
    core.reset();
    db.reset();
  }
};

skinner::SchedulerOptions Sched() {
  skinner::SchedulerOptions sched;
  sched.num_workers = Nproc();
  return sched;
}

skinner::Status StartServer(const std::string& dir, uint64_t seed,
                            int clients, Server* s) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) return skinner::Status::IoError("cannot create " + dir);
  s->dir = dir;
  auto opened = Database::Open(dir, skinner::FsyncPolicy::kNever, Sched());
  if (!opened.ok()) return opened.status();
  s->db = opened.MoveValue();
  skinner::bench::JobSpec spec;
  spec.num_titles = kJobTitles;
  spec.seed = seed;
  SKINNER_RETURN_IF_ERROR(skinner::bench::GenerateJob(s->db.get(), spec));
  // The generator writes tables directly, bypassing the WAL: persist them.
  SKINNER_RETURN_IF_ERROR(s->db->Checkpoint());
  skinner::ServerOptions opts;
  opts.defaults.use_prepared_cache = true;  // as skinner_serve
  s->core = std::make_unique<ServerCore>(s->db.get(), opts);
  for (int c = 0; c < clients; ++c) {
    auto conn = s->core->Connect();
    if (!conn.ok()) return conn.status();
    const std::vector<Template>& ts = Templates();
    for (size_t t = 0; t < ts.size(); ++t) {
      skinner::ServerResponse r = conn.value()->HandleLine(
          "P t" + std::to_string(t) + " " + ts[t].sql);
      if (r.text.rfind("OK", 0) != 0) {
        return skinner::Status::Internal("prepare failed: " + r.text);
      }
    }
    s->conns.push_back(conn.MoveValue());
  }
  s->rows_per_movie = CurrentRows(s->db.get(), "movie_companies", "movie_id",
                                  "company_type_id");
  s->movies.clear();
  for (const auto& [movie, n] : s->rows_per_movie) s->movies.push_back(movie);
  return skinner::Status::OK();
}

struct Client {
  explicit Client(bool traced) : trace(traced) {}
  TraceBuffer trace;
  std::vector<double> read_ms;
  std::vector<double> write_ms;
  /// Per read: true for E (index into executes), false for Q; response
  /// rows; false when the reply was an error.
  struct Read {
    bool execute;
    size_t op;
    bool ok;
    std::string rows;
  };
  std::vector<Read> reads;
  std::map<int64_t, int64_t> last_value;  // movie_id -> acknowledged value
  uint64_t write_errors = 0;
  uint64_t checkpoints = 0;
  uint64_t checkpoint_errors = 0;
  uint64_t ops = 0;
};

struct Shared {
  const Catalogue* catalogue;
  Server* server;
  int clients;
  double seconds;
  uint64_t seed;
  uint64_t phase;
  std::atomic<uint64_t> writes{0};
  std::atomic<uint64_t> next_value{1};
};

/// Draws 0..n-1, one fresh seeded permutation after another, so every item
/// appears equally often: a run's mix does not depend on sampling luck.
class Deck {
 public:
  Deck(size_t n, skinner::Rng* rng) : rng_(rng), items_(n) {
    for (size_t i = 0; i < n; ++i) items_[i] = i;
    pos_ = n;
  }
  size_t Draw() {
    if (pos_ == items_.size()) {
      for (size_t i = items_.size(); i > 1; --i) {
        std::swap(items_[i - 1], items_[rng_->Uniform(i)]);
      }
      pos_ = 0;
    }
    return items_[pos_++];
  }

 private:
  skinner::Rng* rng_;
  std::vector<size_t> items_;
  size_t pos_;
};

void ClientLoop(Shared* sh, int id, Client* cl) {
  ServerConnection* conn = sh->server->conns[static_cast<size_t>(id)].get();
  skinner::Rng rng((sh->seed * 1315423911ull) ^ (sh->phase << 32) ^
                   static_cast<uint64_t>(id + 1));
  const std::vector<int64_t>& movies = sh->server->movies;
  const size_t stride = static_cast<size_t>(sh->clients);
  const size_t own = (movies.size() + stride - 1 - static_cast<size_t>(id)) /
                     stride;  // movies[id], movies[id + stride], ...
  // Every ten lines: 7 E, 2 Q, 1 X, shuffled.
  Deck kinds(10, &rng);
  Deck executes(sh->catalogue->executes.size(), &rng);
  Deck queries(sh->catalogue->queries.size(), &rng);
  uint64_t request = static_cast<uint64_t>(id) << 40;
  skinner::Stopwatch watch;
  while (watch.ElapsedMillis() < sh->seconds * 1000.0) {
    const size_t kind = kinds.Draw();
    ++request;
    if (kind < 9 || own == 0) {
      const bool execute = kind < 7;
      const std::vector<ReadOp>& ops =
          execute ? sh->catalogue->executes : sh->catalogue->queries;
      const size_t op = execute ? executes.Draw() : queries.Draw();
      skinner::Stopwatch one;
      skinner::ServerResponse r = [&] {
        ScopedSpan s(&cl->trace, execute ? "server.exec" : "server.query",
                     request);
        return conn->HandleLine(ops[op].line);
      }();
      cl->read_ms.push_back(one.ElapsedMillis());
      Client::Read rec{execute, op, false, {}};
      rec.ok = ResponseRowLines(r.text, &rec.rows);
      cl->reads.push_back(std::move(rec));
    } else {
      const int64_t movie =
          movies[static_cast<size_t>(id) + stride * rng.Uniform(own)];
      const auto value = static_cast<int64_t>(sh->next_value.fetch_add(1));
      const std::string line = skinner::StrFormat(
          "X UPDATE movie_companies SET company_type_id = %lld WHERE "
          "movie_id = %lld",
          static_cast<long long>(value), static_cast<long long>(movie));
      skinner::Stopwatch one;
      skinner::ServerResponse r = [&] {
        ScopedSpan s(&cl->trace, "server.write", request);
        return conn->HandleLine(line);
      }();
      cl->write_ms.push_back(one.ElapsedMillis());
      if (r.text.rfind("OK", 0) != 0) {
        ++cl->write_errors;
        continue;
      }
      cl->last_value[movie] = value;
      if ((sh->writes.fetch_add(1) + 1) % kWritesPerCheckpoint == 0) {
        ++cl->ops;
        skinner::ServerResponse c = [&] {
          ScopedSpan s(&cl->trace, "txn.checkpoint", ++request);
          return conn->HandleLine("CHECKPOINT");
        }();
        ++cl->checkpoints;
        if (c.text.rfind("OK checkpoints=", 0) != 0) ++cl->checkpoint_errors;
      }
    }
    ++cl->ops;
  }
}

struct PhaseResult {
  std::vector<std::unique_ptr<Client>> clients;
  double elapsed_s = 0;
  uint64_t ops = 0;
};

PhaseResult RunPhase(Shared* sh, bool traced) {
  PhaseResult pr;
  for (int c = 0; c < sh->clients; ++c) {
    pr.clients.push_back(std::make_unique<Client>(traced));
  }
  skinner::Stopwatch watch;
  std::vector<std::thread> threads;
  for (int c = 0; c < sh->clients; ++c) {
    threads.emplace_back(ClientLoop, sh, c,
                         pr.clients[static_cast<size_t>(c)].get());
  }
  for (std::thread& t : threads) t.join();
  pr.elapsed_s = watch.ElapsedMillis() / 1000.0;
  for (const auto& cl : pr.clients) pr.ops += cl->ops;
  ++sh->phase;
  return pr;
}

uint64_t SnapshotBytes(const std::string& dir) {
  std::error_code ec;
  const auto size =
      std::filesystem::file_size(dir + "/checkpoint.skdb", ec);
  return ec ? 0 : static_cast<uint64_t>(size);
}

/// What one round measured (untraced phase only).
struct RoundFigures {
  std::vector<double> setup_s;
  double elapsed_s = 0;
  uint64_t ops = 0;
  std::vector<double> read_ms, write_ms;
};

/// One round: start a server, run its phases, then check every reply, the
/// WAL and the snapshot. Traced clients move into `keep` so their spans
/// outlive the round.
int RunRound(const Args& args, int round, int clients,
             const Catalogue& catalogue, Report* report, LayerInputs* layers,
             RssSampler* rss, TraceBuffer* main_trace,
             std::vector<std::unique_ptr<Client>>* keep, RoundFigures* fig,
             double* untraced_rate, double* traced_rate) {
  const uint64_t data_seed = args.seed * kRounds + round;
  const std::string dir = args.work_dir + "/server-mix-" +
                          std::to_string(static_cast<long long>(getpid())) +
                          "-" + std::to_string(round);
  Server server;
  for (int i = 0; i < kSetupsPerRound; ++i) {
    server.Close();
    skinner::Stopwatch watch;
    skinner::Status st = StartServer(dir, data_seed, clients, &server);
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      return 2;
    }
    fig->setup_s.push_back(watch.ElapsedMillis() / 1000.0);
  }

  Shared sh;
  sh.catalogue = &catalogue;
  sh.server = &server;
  sh.clients = clients;
  sh.seconds = args.seconds / kRounds;
  sh.seed = data_seed;
  sh.phase = 0;

  rss->Start();
  PhaseResult untraced = RunPhase(&sh, false);
  rss->Stop();
  *untraced_rate += untraced.ops / untraced.elapsed_s;

  PhaseResult traced;
  if (args.trace) {
    // Virtual units come from the sessions' roll-ups: the server exposes
    // no per-execution stats.
    auto add_units = [&](int sign) {
      for (const auto& c : server.conns) {
        const skinner::SessionStats s = c->session()->stats();
        layers->engine.preprocess_units += sign * s.preprocess_cost;
        layers->engine.join_units += sign * (s.total_cost - s.preprocess_cost);
      }
    };
    const skinner::ServerStats before = server.core->stats();
    CounterWindow window(server.db.get());
    add_units(-1);
    traced = RunPhase(&sh, true);
    add_units(+1);
    window.AddTo(layers);
    const skinner::ServerStats after = server.core->stats();
    layers->server_errors += after.queries_error - before.queries_error;
    layers->cache_publish_throttled +=
        after.cache_publish_throttled - before.cache_publish_throttled;
    for (const auto& cl : traced.clients) layers->writes += cl->write_ms.size();
    layers->snapshot_bytes = SnapshotBytes(server.dir);
    layers->capacity_s += traced.elapsed_s * clients;
    *traced_rate += traced.ops / traced.elapsed_s;
  }
  // Clients write disjoint movie ids, so each id's last acknowledged value
  // is well defined.
  std::map<int64_t, ExpectedWrite> expected;
  uint64_t write_errors = 0;
  uint64_t checkpoint_errors = 0;
  for (const PhaseResult* pr : {&untraced, &traced}) {
    for (const auto& cl : pr->clients) {
      for (const auto& [movie, value] : cl->last_value) {
        expected[movie] =
            ExpectedWrite{value, server.rows_per_movie[movie].rows};
      }
      write_errors += cl->write_errors;
      checkpoint_errors += cl->checkpoint_errors;
      report->attempted +=
          cl->reads.size() + cl->write_ms.size() + cl->checkpoints;
    }
  }
  for (const auto& cl : untraced.clients) {
    fig->read_ms.insert(fig->read_ms.end(), cl->read_ms.begin(),
                        cl->read_ms.end());
    fig->write_ms.insert(fig->write_ms.end(), cl->write_ms.begin(),
                         cl->write_ms.end());
  }
  fig->elapsed_s = untraced.elapsed_s;
  fig->ops = untraced.ops;
  if (write_errors + checkpoint_errors > 0) {
    report->failed += write_errors + checkpoint_errors;
    report->Fail(std::to_string(write_errors) + " writes and " +
                 std::to_string(checkpoint_errors) + " checkpoints failed");
  }
  const int64_t live_wrong = CheckWrites(
      server.db.get(), "movie_companies", "movie_id", "company_type_id",
      expected);

  // Durability (untimed): close, reopen the directory, and look for every
  // acknowledged UPDATE.
  server.Close();
  auto reopened = [&] {
    ScopedSpan s(main_trace, "txn.open", 0);
    return Database::Open(server.dir, skinner::FsyncPolicy::kNever, Sched());
  }();
  if (!reopened.ok()) {
    std::fprintf(stderr, "reopen failed: %s\n",
                 reopened.status().ToString().c_str());
    return 2;
  }
  std::unique_ptr<Database> db = reopened.MoveValue();
  const int64_t lost = CheckWrites(db.get(), "movie_companies", "movie_id",
                                   "company_type_id", expected);
  report->failed += static_cast<uint64_t>(live_wrong + lost);
  if (live_wrong > 0) {
    report->Fail(std::to_string(live_wrong) +
                 " movies do not show their acknowledged UPDATE");
  }
  if (lost > 0) {
    report->Fail(std::to_string(lost) +
                 " acknowledged UPDATEs missing after reopen");
  }

  // Every read against the Volcano answer on the reopened database.
  std::map<std::pair<bool, size_t>, std::string> ref;
  uint64_t wrong_reads = 0;
  for (const PhaseResult* pr : {&untraced, &traced}) {
    for (const auto& cl : pr->clients) {
      for (const Client::Read& r : cl->reads) {
        const auto key = std::make_pair(r.execute, r.op);
        auto it = ref.find(key);
        if (it == ref.end()) {
          const ReadOp& op =
              (r.execute ? catalogue.executes : catalogue.queries)[r.op];
          auto out = Reference(db.get(), op.sql);
          it = ref.emplace(key, out.ok()
                                    ? CanonicalRowLines(out.value().result)
                                    : std::string("reference error"))
                   .first;
        }
        if (!r.ok || r.rows != it->second) ++wrong_reads;
      }
    }
  }
  if (wrong_reads > 0) {
    report->failed += wrong_reads;
    report->Fail(std::to_string(wrong_reads) + " reads differ from Volcano");
  }
  db.reset();
  std::error_code ec;
  std::filesystem::remove_all(server.dir, ec);
  for (auto& cl : traced.clients) keep->push_back(std::move(cl));
  return 0;
}

}  // namespace

int RunServerMix(const Args& args) {
  const int clients = std::min(kMaxClients, Nproc());
  const Catalogue catalogue = BuildCatalogue();
  Report report;
  LayerInputs layers;
  RssSampler rss;
  TraceBuffer main_trace(args.trace);
  std::vector<std::unique_ptr<Client>> traced_clients;
  std::vector<RoundFigures> rounds(kRounds);
  double untraced_rate = 0, traced_rate = 0;
  for (int r = 0; r < kRounds; ++r) {
    const int rc = RunRound(args, r, clients, catalogue, &report, &layers,
                            &rss, &main_trace, &traced_clients,
                            &rounds[static_cast<size_t>(r)], &untraced_rate,
                            &traced_rate);
    if (rc != 0) return rc;
  }
  if (report.failed > 0) report.correct = false;

  if (args.trace) {
    for (const auto& cl : traced_clients) layers.buffers.push_back(&cl->trace);
    layers.buffers.push_back(&main_trace);
    layers.overhead_share = Ratio(untraced_rate, traced_rate) - 1.0;
    AddPerLayerMetrics(&report, layers);
    const std::string path = args.work_dir + "/server-mix-seed" +
                             std::to_string(args.seed) + ".spans.tsv";
    if (DumpSpans(path, layers.buffers)) {
      std::fprintf(stderr, "spans written to %s\n", path.c_str());
    }
  } else {
    std::vector<double> setup_s, read_ms, write_ms;
    double elapsed_s = 0;
    uint64_t ops = 0;
    for (const RoundFigures& f : rounds) {
      setup_s.insert(setup_s.end(), f.setup_s.begin(), f.setup_s.end());
      read_ms.insert(read_ms.end(), f.read_ms.begin(), f.read_ms.end());
      write_ms.insert(write_ms.end(), f.write_ms.begin(), f.write_ms.end());
      elapsed_s += f.elapsed_s;
      ops += f.ops;
    }
    EndToEnd e;
    e.setup_s = Median(setup_s);
    e.throughput_qps = Ratio(static_cast<double>(ops), elapsed_s);
    e.read_p50_ms = Percentile(read_ms, 0.50);
    e.read_p90_ms = Percentile(read_ms, 0.90);
    e.read_p99_ms = Percentile(read_ms, 0.99);
    e.write_p50_ms = Percentile(write_ms, 0.50);
    e.write_p90_ms = Percentile(write_ms, 0.90);
    e.peak_rss_mb = rss.peak_mb();
    AddEndToEndMetrics(&report, e);
    std::fprintf(stderr, "reads=%zu writes=%zu\n", read_ms.size(),
                 write_ms.size());
  }
  PrintReport(report);
  return report.correct ? 0 : 1;
}

}  // namespace wallbench
