#include "api/prepared_statement.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <utility>

#include "api/query_pipeline.h"
#include "common/hash_util.h"
#include "common/scheduler.h"
#include "common/str_util.h"

namespace skinner {

namespace {

/// Replaces every `?` below `e` with its bound value as a literal — the
/// exact tree the binder would have produced for the literal-substituted
/// SQL text (string values are interned like bound string literals).
void SubstituteParams(Expr* e, const std::vector<Value>& params,
                      StringPool* pool) {
  for (auto& c : e->children) SubstituteParams(c.get(), params, pool);
  if (e->kind != ExprKind::kParam) return;
  const Value& v = params[static_cast<size_t>(e->param_idx)];
  e->kind = ExprKind::kLiteral;
  e->literal = v;
  e->param_idx = -1;
  if (!v.is_null()) {
    e->out_type = v.type();
    if (v.type() == DataType::kString) {
      e->literal_pool_id = pool->Intern(v.AsString());
    }
  }
}

}  // namespace

PreparedStatement::PreparedStatement(Session* session, std::string sql,
                                     std::unique_ptr<BoundQuery> template_query)
    : session_(session),
      db_(session->database()),
      sql_(std::move(sql)),
      template_(std::move(template_query)) {}

PreparedStatement::PreparedStatement(Session* session, std::string sql,
                                     std::unique_ptr<BoundMutation> mutation)
    : session_(session),
      db_(session->database()),
      sql_(std::move(sql)),
      mutation_(std::move(mutation)) {}

PreparedStatement::~PreparedStatement() = default;

int PreparedStatement::num_params() const {
  return mutation_ != nullptr ? mutation_->num_params : template_->num_params;
}

DataType PreparedStatement::param_type(int i) const {
  const auto& types =
      mutation_ != nullptr ? mutation_->param_types : template_->param_types;
  return types[static_cast<size_t>(i)];
}

bool PreparedStatement::param_type_known(int i) const {
  const auto& known =
      mutation_ != nullptr ? mutation_->param_known : template_->param_known;
  return known[static_cast<size_t>(i)];
}

Status PreparedStatement::Init() {
  if (mutation_ != nullptr) {
    // DML statements have no template signature or artifact keys — just
    // the target table's identity for staleness detection.
    table_names_.push_back(mutation_->table->name());
    table_ids_.push_back(mutation_->table->id());
    mutation_->table.reset();
    return Status::OK();
  }
  template_sig_ = ComputeQuerySignature(*template_);

  // Which parameters key which table's artifact: exactly the ordinals
  // appearing in that table's unary predicates. Parameters elsewhere
  // (constant predicates, join predicates, SELECT/GROUP BY/ORDER BY) are
  // evaluated per execution and never invalidate a table artifact.
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(*template_));
  const int m = template_->num_tables();
  table_params_.resize(static_cast<size_t>(m));
  for (int t = 0; t < m; ++t) {
    std::set<int> ids;
    for (const Expr* p : info.unary_preds(t)) p->CollectParams(&ids);
    table_params_[static_cast<size_t>(t)].assign(ids.begin(), ids.end());
  }
  for (BoundTable& bt : template_->tables) {
    table_names_.push_back(bt.table->name());
    table_ids_.push_back(bt.table->id());
    bt.table = nullptr;  // each execution binds the then-current version
  }
  template_->snapshot.reset();
  return Status::OK();
}

Status PreparedStatement::CheckParams(const std::vector<Value>& params) const {
  if (static_cast<int>(params.size()) != num_params()) {
    return Status::InvalidArgument(StrFormat(
        "statement expects %d parameters, got %zu", num_params(),
        params.size()));
  }
  for (size_t i = 0; i < params.size(); ++i) {
    const Value& v = params[i];
    const int idx = static_cast<int>(i);
    if (v.is_null() || !param_type_known(idx)) continue;  // NULL binds anywhere
    const bool want_str = param_type(idx) == DataType::kString;
    const bool got_str = v.type() == DataType::kString;
    if (want_str != got_str) {
      return Status::TypeError(StrFormat(
          "parameter %zu expects %s, got %s", i,
          DataTypeName(param_type(idx)), DataTypeName(v.type())));
    }
  }
  return Status::OK();
}

Status PreparedStatement::CheckFreshness(size_t i, const Table* now) const {
  if (now == nullptr || now->id() != table_ids_[i]) {
    return Status::InvalidArgument(
        "prepared statement is stale: table " + table_names_[i] +
        " was dropped or re-created since Prepare(); prepare it again");
  }
  return Status::OK();
}

Result<PreparedStage> PreparedStatement::PrepareStage(
    const std::vector<Value>& params, const ExecOptions& opts,
    const std::shared_ptr<TableSnapshot>& snapshot) const {
  SKINNER_RETURN_IF_ERROR(CheckParams(params));

  // Instantiate: clone the template, bind it to the snapshot's versions,
  // splice the values in as literals and re-run the binder's type pass so
  // a type-invalid combination errors exactly like the literal SQL text
  // would.
  std::unique_ptr<BoundQuery> query = template_->Clone();
  for (size_t i = 0; i < table_names_.size(); ++i) {
    const Table* now = snapshot->Resolve(table_names_[i]);
    SKINNER_RETURN_IF_ERROR(CheckFreshness(i, now));
    query->tables[i].table = now;
  }
  StringPool* pool = db_->catalog()->string_pool();
  if (query->where != nullptr) SubstituteParams(query->where.get(), params, pool);
  for (auto& s : query->select) SubstituteParams(s.expr.get(), params, pool);
  for (auto& g : query->group_by) SubstituteParams(g.get(), params, pool);
  for (auto& o : query->order_by) SubstituteParams(o.expr.get(), params, pool);
  query->num_params = 0;
  query->param_types.clear();
  query->param_known.clear();
  if (query->where != nullptr) {
    SKINNER_RETURN_IF_ERROR(RebindTypes(query->where.get()));
  }
  for (auto& s : query->select) SKINNER_RETURN_IF_ERROR(RebindTypes(s.expr.get()));
  for (auto& g : query->group_by) SKINNER_RETURN_IF_ERROR(RebindTypes(g.get()));
  for (auto& o : query->order_by) SKINNER_RETURN_IF_ERROR(RebindTypes(o.expr.get()));

  auto bundle = std::make_shared<PreparedBundle>();
  bundle->bound = std::move(query);
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(*bundle->bound));
  bundle->info = std::make_unique<QueryInfo>(std::move(info));

  // Per-table artifacts through the cache: each table's key folds in only
  // the values of the parameters reaching ITS unary filters, so a table
  // whose filters mention no `?` hits the same artifact for every
  // parameter set. Artifact construction follows the cache's claim-all
  // protocol: try-acquire every table's claim up front (never blocking),
  // build and publish every owned claim, and only then wait on other
  // executions' in-flight builds. Deadlock-free because no execution ever
  // blocks while holding an unpublished claim, and concurrent because an
  // m-table join's artifacts build m-wide instead of one at a time.
  PreparedCache* cache = db_->prepared_cache();
  const int m = bundle->bound->num_tables();
  const std::vector<const Table*> table_ptrs = bundle->bound->TablePtrs();
  std::vector<std::shared_ptr<const TableArtifact>> reuse(
      static_cast<size_t>(m));
  PreparedStage stage;
  stage.snapshot = snapshot;
  stage.clock = std::make_unique<VirtualClock>();
  uint64_t built_cost = 0;
  // A false constant predicate (possibly through a bound value: `? = 1`)
  // makes the whole query trivially empty; skip artifact building and let
  // PreparedQuery::Prepare take its data-free early exit — like Query()
  // on the literal text, which never scans a table for it either. The
  // probe's cost is not charged; Prepare re-evaluates and charges it.
  bool constant_empty = false;
  {
    VirtualClock probe_clock;
    std::vector<int64_t> binding(static_cast<size_t>(m), 0);
    EvalContext ctx;
    ctx.tables = &table_ptrs;
    ctx.pool = pool;
    ctx.rows = binding.data();
    ctx.clock = &probe_clock;
    for (const PredInfo& p : bundle->info->constant_preds()) {
      if (!EvalPredicate(*p.expr, ctx)) {
        constant_empty = true;
        break;
      }
    }
  }
  // Phase 1: try-acquire every table's claim (no blocking anywhere).
  struct TableWork {
    int t = 0;
    std::string key;
    TableStamp stamp;
    bool owned = false;             // we hold the builder claim
    std::shared_ptr<void> pending;  // another execution's in-flight token
  };
  std::vector<TableWork> work;
  for (int t = 0; t < m && !constant_empty; ++t) {
    const Table* table = bundle->bound->tables[static_cast<size_t>(t)].table;
    std::string values;
    for (int idx : table_params_[static_cast<size_t>(t)]) {
      AppendValueSignature(params[static_cast<size_t>(idx)], &values);
      values.push_back(';');
    }
    TableWork w;
    w.t = t;
    w.key = TableArtifactKey(template_sig_, t, opts.build_hash_indexes, values);
    w.stamp = TableStamp{table->id(), table->data_version()};
    if (opts.cache_read_only) {
      // Quota-throttled: serve hits, build misses privately, publish
      // nothing (no shared-budget bytes charged to this session).
      PreparedCache::TableArtifactPtr hit = cache->LookupTable(w.key, w.stamp);
      if (hit != nullptr) {
        reuse[static_cast<size_t>(t)] = std::move(hit);
        ++stage.tables_from_cache;
        continue;
      }
      w.owned = true;  // private build; never published
    } else {
      PreparedCache::TableTryClaim claim =
          cache->TryAcquireTable(w.key, w.stamp);
      if (claim.artifact != nullptr) {
        reuse[static_cast<size_t>(t)] = std::move(claim.artifact);
        ++stage.tables_from_cache;
        continue;
      }
      if (claim.builder) {
        w.owned = true;
      } else {
        w.pending = std::move(claim.pending);
      }
    }
    work.push_back(std::move(w));
  }

  // Phase 2: build + publish every owned claim. With parallel
  // pre-processing the owned tables build concurrently (each one
  // additionally morsel-parallel inside) on width leased from the
  // scheduler's engine budget, so concurrent sessions share the pool
  // fairly; the charged cost stays the deterministic list-scheduled
  // makespan at the CONFIGURED width, independent of the lease.
  std::vector<size_t> owned;
  for (size_t i = 0; i < work.size(); ++i) {
    if (work[i].owned) owned.push_back(i);
  }
  Scheduler* sched =
      opts.scheduler != nullptr ? opts.scheduler : db_->scheduler();
  if (opts.parallel_preprocess && !owned.empty()) {
    ThreadLease lease;
    int width = std::max(opts.num_threads, 1);
    if (sched != nullptr && opts.num_threads > 1) {
      lease = sched->LeaseThreads(opts.num_threads);
      width = std::max(1, lease.granted());
    }
    std::vector<std::shared_ptr<const TableArtifact>> builds(owned.size());
    SchedParallelFor(
        sched, owned.size(), width,
        [&](size_t i) {
          const TableWork& w = work[owned[i]];
          std::shared_ptr<const TableArtifact> artifact =
              BuildTableArtifactParallel(table_ptrs, pool, *bundle->info, w.t,
                                         opts.build_hash_indexes, sched, width);
          // Publish inside the loop body: co-claimants wake as soon as
          // THEIR table is ready, and every owned claim is published
          // before phase 3 waits on anyone (the claim-all contract).
          if (!opts.cache_read_only) {
            cache->PublishTable(w.key, w.stamp, artifact);
          }
          builds[i] = std::move(artifact);
        },
        /*min_grain=*/1);
    std::vector<uint64_t> owned_costs(owned.size(), 0);
    for (size_t i = 0; i < owned.size(); ++i) {
      const TableWork& w = work[owned[i]];
      owned_costs[i] = builds[i]->build_cost;
      if (!opts.cache_read_only) {
        stage.cache_bytes_published += builds[i]->bytes();
      }
      reuse[static_cast<size_t>(w.t)] = std::move(builds[i]);
      ++stage.tables_reprepared;
    }
    built_cost += ListScheduleMakespan(owned_costs, opts.num_threads);
  } else {
    for (size_t i : owned) {
      const TableWork& w = work[i];
      std::shared_ptr<const TableArtifact> artifact = BuildTableArtifact(
          table_ptrs, pool, *bundle->info, w.t, opts.build_hash_indexes);
      if (!opts.cache_read_only) {
        cache->PublishTable(w.key, w.stamp, artifact);
        stage.cache_bytes_published += artifact->bytes();
      }
      built_cost += artifact->build_cost;
      reuse[static_cast<size_t>(w.t)] = std::move(artifact);
      ++stage.tables_reprepared;
    }
  }

  // Phase 3: redeem the in-flight tokens. Safe to block now — all our
  // claims are published. A wait can still hand back builder=true (the
  // other execution abandoned, or republished under different stamps);
  // build-and-publish inline then.
  for (TableWork& w : work) {
    if (w.pending == nullptr) continue;
    PreparedCache::TableClaim claim =
        cache->WaitTable(w.key, w.stamp, w.pending);
    if (claim.artifact != nullptr) {
      reuse[static_cast<size_t>(w.t)] = std::move(claim.artifact);
      ++stage.tables_from_cache;
      continue;
    }
    std::shared_ptr<const TableArtifact> artifact = BuildTableArtifact(
        table_ptrs, pool, *bundle->info, w.t, opts.build_hash_indexes);
    cache->PublishTable(w.key, w.stamp, artifact);
    stage.cache_bytes_published += artifact->bytes();
    built_cost += artifact->build_cost;
    reuse[static_cast<size_t>(w.t)] = std::move(artifact);
    ++stage.tables_reprepared;
  }

  PrepareOptions popts;
  popts.build_hash_indexes = opts.build_hash_indexes;
  popts.reuse = &reuse;
  SKINNER_ASSIGN_OR_RETURN(
      stage.pq, PreparedQuery::Prepare(bundle->bound.get(), bundle->info.get(),
                                       pool, stage.clock.get(), popts));
  bundle->data = stage.pq->shared_data();
  stage.shared = std::move(bundle);
  // The clock so far carries the constant-predicate evaluation only (all
  // artifacts were passed in); charge this execution for the tables it
  // actually built.
  stage.clock->Tick(built_cost);
  stage.preprocess_cost = stage.clock->now();
  stage.cache_hit = stage.tables_from_cache == m;  // every artifact was cached
  stage.signature = template_sig_;
  std::vector<int> warm = cache->WarmOrder(template_sig_);
  stage.template_hit = !warm.empty();
  if (opts.warm_start) stage.warm_order = std::move(warm);
  return stage;
}

Result<QueryOutput> PreparedStatement::Execute(const std::vector<Value>& params) {
  return Execute(params, session_->defaults());
}

Result<QueryOutput> PreparedStatement::ExecuteMutation(
    const std::vector<Value>& params) {
  // DML is a write: it serializes with other writes (like
  // Database::Execute), never with queries.
  std::unique_lock<std::mutex> writer(db_->writer_mu_);
  auto run = [&]() -> Result<QueryOutput> {
    SKINNER_RETURN_IF_ERROR(CheckParams(params));
    std::shared_ptr<Table> now = db_->catalog()->Current(table_names_[0]);
    SKINNER_RETURN_IF_ERROR(CheckFreshness(0, now.get()));
    std::unique_ptr<BoundMutation> m = mutation_->Clone();
    m->table = std::move(now);
    StringPool* pool = db_->catalog()->string_pool();
    for (auto& sc : m->sets) SubstituteParams(sc.expr.get(), params, pool);
    if (m->where != nullptr) SubstituteParams(m->where.get(), params, pool);
    m->num_params = 0;
    m->param_types.clear();
    m->param_known.clear();
    for (auto& sc : m->sets) SKINNER_RETURN_IF_ERROR(RebindTypes(sc.expr.get()));
    if (m->where != nullptr) {
      SKINNER_RETURN_IF_ERROR(RebindTypes(m->where.get()));
    }
    return db_->ExecuteMutationLocked(*m);
  };
  Result<QueryOutput> out = run();
  writer.unlock();
  session_->Roll(out);
  return out;
}

Result<QueryOutput> PreparedStatement::Execute(const std::vector<Value>& params,
                                               const ExecOptions& opts) {
  if (mutation_ != nullptr) return ExecuteMutation(params);
  ExecOptions eopts = opts;
  eopts.seed = session_->DeriveSeed(opts.seed);
  // Statements always share prepared state — that is their point — and
  // use_prepared_cache additionally lets the execute stage record the
  // final join order under the template signature.
  eopts.use_prepared_cache = true;
  QueryPipeline pipeline(db_->catalog(), db_->udfs(), db_->stats_manager(),
                         db_->prepared_cache(), db_->scheduler());
  auto run = [&]() -> Result<QueryOutput> {
    SKINNER_ASSIGN_OR_RETURN(
        PreparedStage stage,
        PrepareStage(params, eopts,
                     std::make_shared<TableSnapshot>(db_->catalog())));
    SKINNER_ASSIGN_OR_RETURN(ExecutedStage exec, pipeline.Execute(stage, eopts));
    return pipeline.PostProcess(stage, std::move(exec));
  };
  Result<QueryOutput> out = run();
  session_->Roll(out);
  return out;
}

std::vector<Result<QueryOutput>> PreparedStatement::ExecuteMany(
    const std::vector<std::vector<Value>>& param_sets,
    const BatchOptions& bopts, const ExecOptions& base_opts) {
  const size_t n = param_sets.size();
  if (mutation_ != nullptr) {
    // Writes serialize on the writer mutex, so there is nothing to
    // parallelize: execute mutations one at a time via Execute().
    std::vector<Result<QueryOutput>> rejected;
    rejected.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      rejected.push_back(Status::InvalidArgument(
          "ExecuteBatch supports SELECT statements only; execute "
          "UPDATE/DELETE statements one at a time"));
    }
    return rejected;
  }
  Scheduler* sched =
      bopts.scheduler != nullptr ? bopts.scheduler : db_->scheduler();
  QueryPipeline pipeline(db_->catalog(), db_->udfs(), db_->stats_manager(),
                         db_->prepared_cache(), sched);

  // The warm-start hint is snapshotted once, before anything executes, so
  // which hint every item sees — and therefore every item's result and
  // cost — is a pure function of the batch, independent of worker count
  // and schedule (final orders recorded during the batch only benefit
  // later batches).
  const std::vector<int> warm_snapshot =
      db_->prepared_cache()->WarmOrder(template_sig_);
  // Every parameter set reads the same table versions.
  auto snapshot = std::make_shared<TableSnapshot>(db_->catalog());

  std::vector<std::optional<Result<QueryOutput>>> results(n);
  std::vector<std::optional<PreparedStage>> stages(n);
  std::vector<ExecOptions> eopts(n);

  // Stage A (sequential): bind values and build/fetch per-table artifacts.
  // String parameters intern into the shared pool here, and artifact
  // builds deduplicate through the cache (the first param set touching a
  // table key pays; repeats hit), so the expensive stage-B work below only
  // ever sees immutable shared state.
  for (size_t i = 0; i < n; ++i) {
    eopts[i] = base_opts;
    eopts[i].use_prepared_cache = true;
    eopts[i].seed = bopts.derive_item_seeds
                        ? HashMix64(bopts.seed + 0x9e3779b97f4a7c15ULL * (i + 1))
                        : session_->DeriveSeed(base_opts.seed);
    auto stage = PrepareStage(param_sets[i], eopts[i], snapshot);
    if (!stage.ok()) {
      results[i] = stage.status();
      continue;
    }
    stages[i] = stage.MoveValue();
    stages[i]->template_hit = !warm_snapshot.empty();
    if (eopts[i].warm_start) {
      stages[i]->warm_order = warm_snapshot;
    } else {
      stages[i]->warm_order.clear();
    }
  }

  // Stage B (parallel): execute + post-process every param set, on the
  // shared pool (participation slots, not per-call threads).
  const int workers = static_cast<int>(
      std::min<size_t>(static_cast<size_t>(std::max(bopts.num_workers, 1)),
                       std::max<size_t>(n, 1)));
  SchedParallelFor(sched, n, workers, [&](size_t i) {
    if (results[i].has_value()) return;  // prepare error
    auto exec = pipeline.Execute(*stages[i], eopts[i]);
    if (!exec.ok()) {
      results[i] = exec.status();
      return;
    }
    results[i] = pipeline.PostProcess(*stages[i], exec.MoveValue());
    stages[i].reset();  // release artifact handles promptly
  });

  std::vector<Result<QueryOutput>> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(results[i].has_value()
                      ? std::move(*results[i])
                      : Result<QueryOutput>(
                            Status::Internal("batch item not executed")));
  }
  return out;
}

}  // namespace skinner
