#include "api/database.h"

#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <optional>
#include <string>
#include <unordered_map>

#include "api/query_pipeline.h"
#include "api/session.h"
#include "common/clock.h"
#include "common/hash_util.h"
#include "common/scheduler.h"
#include "common/str_util.h"
#include "optimizer/dp_optimizer.h"
#include "txn/snapshot.h"

namespace skinner {

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSkinnerC: return "Skinner-C";
    case EngineKind::kSkinnerG: return "Skinner-G";
    case EngineKind::kSkinnerH: return "Skinner-H";
    case EngineKind::kVolcano: return "Volcano";
    case EngineKind::kBlock: return "Block";
    case EngineKind::kRandomOrder: return "Random";
    case EngineKind::kEddy: return "Eddy";
    case EngineKind::kReopt: return "Reopt";
  }
  return "?";
}

Database::Database() : Database(SchedulerOptions{}) {}

Database::Database(const SchedulerOptions& scheduler_opts)
    : scheduler_(new Scheduler(scheduler_opts)),
      default_session_(new Session(this, /*id=*/0, ExecOptions{})) {}

Database::~Database() = default;

std::unique_ptr<Session> Database::CreateSession(const ExecOptions& defaults) {
  return std::unique_ptr<Session>(
      new Session(this, next_session_id_.fetch_add(1), defaults));
}

Status Database::Execute(const std::string& sql) {
  // Writes serialize among themselves only: queries pin the versions they
  // read, so a write never waits for them (see Catalog::Write).
  std::lock_guard<std::mutex> writer(writer_mu_);
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, ParseSql(sql));
  switch (stmt.kind) {
    case Statement::Kind::kCreateTable: {
      // Keep the column list: a durable database logs it after the create
      // succeeds (write-ahead of nothing — DDL is its own redo record).
      std::vector<ColumnDef> defs = stmt.create->columns;
      auto res = catalog_.CreateTable(stmt.create->name,
                                      Schema(std::move(stmt.create->columns)));
      if (!res.ok()) return res.status();
      if (wal_ != nullptr) {
        WalRecord rec;
        rec.type = WalRecordType::kCreateTable;
        rec.table = stmt.create->name;
        rec.columns = std::move(defs);
        SKINNER_RETURN_IF_ERROR(LogRecord(&rec));
      }
      return Status::OK();
    }
    case Statement::Kind::kDropTable: {
      SKINNER_RETURN_IF_ERROR(catalog_.DropTable(stmt.drop->name));
      if (wal_ != nullptr) {
        WalRecord rec;
        rec.type = WalRecordType::kDropTable;
        rec.table = stmt.drop->name;
        SKINNER_RETURN_IF_ERROR(LogRecord(&rec));
      }
      return Status::OK();
    }
    case Statement::Kind::kInsert: {
      std::shared_ptr<Table> table = catalog_.Current(stmt.insert->table);
      if (table == nullptr) {
        return Status::NotFound("no such table: " + stmt.insert->table);
      }
      EvalContext ctx;  // literal expressions only: no tables needed
      std::vector<std::vector<Value>> rows;
      rows.reserve(stmt.insert->rows.size());
      for (auto& row_exprs : stmt.insert->rows) {
        std::vector<Value> row;
        row.reserve(row_exprs.size());
        for (auto& e : row_exprs) {
          std::set<int> tables;
          e->CollectTables(&tables);
          if (e->kind == ExprKind::kColumnRef || !tables.empty()) {
            return Status::InvalidArgument("INSERT values must be literals");
          }
          std::set<int> params;
          e->CollectParams(&params);
          if (!params.empty()) {
            return Status::InvalidArgument(
                "INSERT values cannot contain ? parameters");
          }
          row.push_back(EvalExpr(*e, ctx));
        }
        rows.push_back(std::move(row));
      }
      // Apply, then log exactly the appended prefix: a mid-statement type
      // error leaves the earlier rows in the table, so they must also be
      // in the log.
      size_t applied = 0;
      return catalog_.Write(
          table, table->AllColumns(), /*write_mask=*/true,
          [&](Table* t) -> Status {
            for (; applied < rows.size(); ++applied) {
              SKINNER_RETURN_IF_ERROR(t->AppendRow(rows[applied]));
            }
            return Status::OK();
          },
          [&]() -> Status {
            if (wal_ == nullptr) return Status::OK();
            WalRecord rec;
            rec.type = WalRecordType::kInsertRows;
            rec.table = table->name();
            rec.rows.assign(
                std::make_move_iterator(rows.begin()),
                std::make_move_iterator(rows.begin() +
                                        static_cast<long>(applied)));
            return LogRecord(&rec);
          });
    }
    case Statement::Kind::kUpdate: {
      SKINNER_ASSIGN_OR_RETURN(
          BoundMutation m, BindUpdate(stmt.update.get(), &catalog_, &udfs_));
      if (m.num_params > 0) {
        return Status::InvalidArgument(
            "UPDATE with ? parameters requires Session::Prepare");
      }
      auto out = ExecuteMutationLocked(m);
      if (!out.ok()) return out.status();
      return Status::OK();
    }
    case Statement::Kind::kDelete: {
      SKINNER_ASSIGN_OR_RETURN(
          BoundMutation m, BindDelete(stmt.del.get(), &catalog_, &udfs_));
      if (m.num_params > 0) {
        return Status::InvalidArgument(
            "DELETE with ? parameters requires Session::Prepare");
      }
      auto out = ExecuteMutationLocked(m);
      if (!out.ok()) return out.status();
      return Status::OK();
    }
    case Statement::Kind::kSelect:
      return Status::InvalidArgument("use Query() for SELECT statements");
  }
  return Status::Internal("unreachable");
}

Result<QueryOutput> Database::ExecuteMutationLocked(const BoundMutation& m) {
  Stopwatch watch;
  const uint64_t appends_before = wal_ != nullptr ? wal_->appends() : 0;
  const uint64_t bytes_before = wal_ != nullptr ? wal_->bytes() : 0;
  // Two-phase: the scan sees only pre-mutation state, and a SET type error
  // surfaces before anything is written. The scan reads the current
  // version without a lock: only writers change it, and they wait for us.
  SKINNER_ASSIGN_OR_RETURN(MutationPlan plan,
                           ComputeMutation(m, catalog_.string_pool()));
  // An UPDATE writes its SET columns; a DELETE only the delete mask.
  const bool update = m.kind == Statement::Kind::kUpdate;
  std::vector<int> write_cols;
  for (const auto& sc : m.sets) write_cols.push_back(sc.column_idx);
  SKINNER_RETURN_IF_ERROR(catalog_.Write(
      m.table, write_cols, /*write_mask=*/!update,
      [&](Table* t) { return ApplyMutation(t, plan); },
      [&]() -> Status {
        if (wal_ == nullptr) return Status::OK();
        WalRecord rec;
        rec.table = m.table->name();
        if (update) {
          rec.type = WalRecordType::kUpdateCells;
          rec.cells.reserve(plan.cell_changes.size());
          for (const auto& cc : plan.cell_changes) {
            rec.cells.push_back(WalRecord::Cell{cc.row, cc.col, cc.value});
          }
        } else {
          rec.type = WalRecordType::kDeleteRows;
          rec.deleted_rows = plan.deleted_rows;
        }
        return LogRecord(&rec);
      }));
  QueryOutput out;
  out.result.column_names = {"rows_affected"};
  out.result.rows.push_back({Value::Int(plan.rows_matched)});
  out.stats.total_cost = plan.cost;
  out.stats.wall_ms = watch.ElapsedMillis();
  out.stats.wal_appends =
      (wal_ != nullptr ? wal_->appends() : 0) - appends_before;
  out.stats.wal_bytes = (wal_ != nullptr ? wal_->bytes() : 0) - bytes_before;
  out.stats.recovery_replayed_records =
      recovery_replayed_.load(std::memory_order_relaxed);
  out.stats.checkpoints = checkpoints_.load(std::memory_order_relaxed);
  return out;
}

Status Database::LogRecord(WalRecord* record) {
  SKINNER_RETURN_IF_ERROR(wal_->Append(record));
  wal_appends_.store(wal_->appends(), std::memory_order_relaxed);
  wal_bytes_.store(wal_->bytes(), std::memory_order_relaxed);
  return Status::OK();
}

Status Database::ApplyWalRecord(const WalRecord& record) {
  switch (record.type) {
    case WalRecordType::kCreateTable: {
      auto res = catalog_.CreateTable(record.table, Schema(record.columns));
      if (!res.ok()) return res.status();
      return Status::OK();
    }
    case WalRecordType::kDropTable:
      return catalog_.DropTable(record.table);
    case WalRecordType::kInsertRows:
    case WalRecordType::kUpdateCells:
    case WalRecordType::kDeleteRows: {
      Table* table = catalog_.FindTable(record.table);
      if (table == nullptr) {
        return Status::IoError("wal record references unknown table: " +
                               record.table);
      }
      if (record.type == WalRecordType::kInsertRows) {
        for (const auto& row : record.rows) {
          SKINNER_RETURN_IF_ERROR(table->AppendRow(row));
        }
      } else if (record.type == WalRecordType::kUpdateCells) {
        for (const auto& c : record.cells) {
          if (c.row < 0 || c.row >= table->num_rows() || c.col < 0 ||
              c.col >= table->schema().num_columns()) {
            return Status::IoError("wal update cell out of range in " +
                                   record.table);
          }
          SKINNER_RETURN_IF_ERROR(table->UpdateCell(c.row, c.col, c.value));
        }
      } else {
        for (int64_t r : record.deleted_rows) {
          if (r < 0 || r >= table->num_rows()) {
            return Status::IoError("wal delete row out of range in " +
                                   record.table);
          }
          table->DeleteRow(r);
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unreachable");
}

Result<std::unique_ptr<Database>> Database::Open(
    const std::string& dir, FsyncPolicy fsync,
    const SchedulerOptions& scheduler_opts) {
  if (::mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError(
        StrFormat("mkdir %s: %s", dir.c_str(), std::strerror(errno)));
  }
  auto db = std::unique_ptr<Database>(new Database(scheduler_opts));
  db->storage_dir_ = dir;
  uint64_t snapshot_lsn = 0;
  SKINNER_RETURN_IF_ERROR(
      LoadSnapshot(dir + "/checkpoint.skdb", &db->catalog_, &snapshot_lsn));
  SKINNER_ASSIGN_OR_RETURN(WalReplay replay, ReplayWal(dir + "/wal.log"));
  // LSN fence: a crash between the snapshot rename and the WAL reset
  // leaves the compacted snapshot plus the whole pre-checkpoint log.
  // Records at or below the snapshot's fence are already inside it —
  // re-applying them would double-insert, and their row ids address the
  // pre-compaction numbering, so they must be skipped, not replayed.
  uint64_t applied = 0;
  for (const WalRecord& rec : replay.records) {
    if (rec.lsn <= snapshot_lsn) continue;
    SKINNER_RETURN_IF_ERROR(db->ApplyWalRecord(rec));
    ++applied;
  }
  db->recovery_replayed_.store(applied, std::memory_order_relaxed);
  // LSNs continue past both the fence and the log so they never repeat
  // across checkpoints.
  uint64_t next_lsn = snapshot_lsn + 1;
  if (!replay.records.empty() && replay.records.back().lsn >= next_lsn) {
    next_lsn = replay.records.back().lsn + 1;
  }
  SKINNER_ASSIGN_OR_RETURN(db->wal_,
                           WalWriter::Open(dir + "/wal.log", fsync, next_lsn));
  return db;
}

Status Database::Checkpoint() {
  std::lock_guard<std::mutex> writer(writer_mu_);
  // Compaction is a write like any other: a masked table is compacted in
  // place, or — when a query pins it — into a new version, so the query
  // keeps its row numbering. Either way data_version moves, and cached
  // artifacts over the old numbering die with it.
  for (const std::string& name : catalog_.TableNames()) {
    std::shared_ptr<Table> table = catalog_.Current(name);
    if (!table->has_deletes()) continue;
    SKINNER_RETURN_IF_ERROR(catalog_.Write(
        table, table->AllColumns(), /*write_mask=*/true,
        [](Table* t) {
          t->Compact();
          return Status::OK();
        },
        [] { return Status::OK(); }));
  }
  if (wal_ != nullptr) {
    // The snapshot commits with the current LSN fence before the log is
    // reset; a crash between the two replays nothing (every logged record
    // is <= the fence), so the window is idempotent.
    SKINNER_RETURN_IF_ERROR(WriteSnapshot(storage_dir_ + "/checkpoint.skdb",
                                          catalog_, wal_->last_lsn()));
    SKINNER_RETURN_IF_ERROR(wal_->Reset());
  }
  checkpoints_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

Result<std::unique_ptr<BoundQuery>> Database::Bind(const std::string& sql) {
  QueryPipeline pipeline(&catalog_, &udfs_, &stats_, &cache_,
                         scheduler_.get());
  SKINNER_ASSIGN_OR_RETURN(Statement stmt, pipeline.Parse(sql));
  SKINNER_ASSIGN_OR_RETURN(BoundStage bound, pipeline.Bind(std::move(stmt)));
  return std::move(bound.query);  // owns its pins until the caller drops it
}

Result<QueryOutput> Database::Query(const std::string& sql,
                                    const ExecOptions& opts) {
  return default_session_->Query(sql, opts);
}

Result<PlanResult> Database::OptimizerOrder(const BoundQuery& query) {
  SKINNER_ASSIGN_OR_RETURN(QueryInfo info, QueryInfo::Analyze(query));
  Estimator estimator(&stats_);
  return OptimizeWithEstimates(info, query, &estimator);
}

Result<QueryOutput> Database::RunSelect(const BoundQuery& query,
                                        const ExecOptions& opts) {
  QueryPipeline pipeline(&catalog_, &udfs_, &stats_, &cache_,
                         scheduler_.get());
  SKINNER_ASSIGN_OR_RETURN(PreparedStage prep,
                           pipeline.PrepareExternal(&query, opts));
  SKINNER_ASSIGN_OR_RETURN(ExecutedStage exec, pipeline.Execute(prep, opts));
  return pipeline.PostProcess(prep, std::move(exec));
}

std::vector<Result<QueryOutput>> Database::QueryBatch(
    const std::vector<BatchItem>& items, const BatchOptions& opts) {
  return default_session_->QueryBatch(items, opts);
}

std::vector<Result<QueryOutput>> Database::QueryBatchInternal(
    const std::vector<BatchItem>& items, const BatchOptions& bopts) {
  const size_t n = items.size();
  // Prepared-state sharing scope: the database's cross-query cache, or a
  // cache that lives exactly as long as this batch. (Capacity never gates
  // within-batch sharing either way: template-group members bind to the
  // owner's handle directly in stage C.)
  PreparedCache local_cache;
  PreparedCache* cache = bopts.use_prepared_cache ? &cache_ : &local_cache;
  Scheduler* sched =
      bopts.scheduler != nullptr ? bopts.scheduler : scheduler_.get();
  QueryPipeline pipeline(&catalog_, &udfs_, &stats_, cache, sched);
  // One version per table for the whole batch: every item binds against
  // this snapshot, and it outlives every stage below.
  auto snapshot = std::make_shared<TableSnapshot>(&catalog_);

  std::vector<std::optional<Result<QueryOutput>>> results(n);
  std::vector<std::optional<BoundStage>> bound(n);
  std::vector<ExecOptions> eopts(n);

  // One template group per distinct (signature, prepare variant): the
  // first item owns the group and pays the one pre-processing build;
  // every other member executes over the owner's shared artifact.
  struct Group {
    size_t owner;
    std::string signature;
    std::vector<int> warm_order;  // snapshot, pre-batch (deterministic)
    PreparedHandle handle;        // set by stage B
  };
  std::unordered_map<std::string, Group> groups;  // key -> group
  std::vector<std::string> item_key(n);
  std::vector<const std::string*> owner_keys;  // first-seen order

  // Stage A (sequential): parse + bind every item. Binding resolves tables
  // through the batch's snapshot, which is not thread-safe — and it is
  // orders of magnitude cheaper than prepare/execute, which do run
  // concurrently below. Grouping (and the
  // warm-start snapshot) happens here, before anything executes, so which
  // item pays the build and which UCT hint every item sees are fixed
  // deterministically — independent of worker count and schedule.
  for (size_t i = 0; i < n; ++i) {
    eopts[i] = items[i].opts;
    eopts[i].use_prepared_cache = true;  // within-batch sharing is the point
    if (bopts.derive_item_seeds) {
      eopts[i].seed = HashMix64(bopts.seed + 0x9e3779b97f4a7c15ULL * (i + 1));
    }
    auto stmt = pipeline.Parse(items[i].sql);
    if (!stmt.ok()) {
      results[i] = stmt.status();
      continue;
    }
    auto b = pipeline.Bind(stmt.MoveValue(), snapshot);
    if (!b.ok()) {
      results[i] = b.status();
      continue;
    }
    std::string signature = ComputeQuerySignature(*b.value().query);
    item_key[i] = PreparedCacheKey(signature, eopts[i].build_hash_indexes);
    auto [it, inserted] = groups.emplace(item_key[i], Group{});
    if (inserted) {
      it->second.owner = i;
      it->second.warm_order = cache->WarmOrder(signature);
      it->second.signature = std::move(signature);
      owner_keys.push_back(&it->first);
    }
    bound[i] = b.MoveValue();
  }

  const int workers =
      static_cast<int>(std::min<size_t>(std::max(bopts.num_workers, 1), n));

  // Stage B (parallel): one prepare per group, run by the owner. Groups
  // are distinct map entries, so concurrent writes to their fields are
  // race-free (the map's structure is frozen after stage A). Workers are
  // participation slots on the database's shared pool — nothing is spun up
  // per call, and concurrent batches share one set of threads.
  std::vector<std::optional<PreparedStage>> prepared(n);
  SchedParallelFor(sched, owner_keys.size(), workers, [&](size_t g) {
    Group& group = groups.find(*owner_keys[g])->second;
    const size_t i = group.owner;
    auto prep = pipeline.Prepare(std::move(*bound[i]), eopts[i]);
    if (!prep.ok()) {
      results[i] = prep.status();
      return;
    }
    group.handle = prep.value().shared;
    prepared[i] = prep.MoveValue();
  });

  // Stage C (parallel): execute + post-process every item. Members bind
  // directly to their owner's artifact handle — no cache round-trip, so
  // sharing cannot be broken by LRU eviction inside large batches.
  SchedParallelFor(sched, n, workers, [&](size_t i) {
    if (results[i].has_value()) return;  // parse/bind/prepare error
    if (!prepared[i].has_value()) {
      const Group& group = groups.find(item_key[i])->second;
      if (group.handle == nullptr) {
        // The owner's prepare failed; every member fails identically.
        results[i] = results[group.owner].has_value() &&
                             !results[group.owner]->ok()
                         ? Result<QueryOutput>(results[group.owner]->status())
                         : Result<QueryOutput>(
                               Status::Internal("group prepare failed"));
        return;
      }
      prepared[i] = pipeline.RebindStage(group.handle, group.signature);
    }
    if (eopts[i].warm_start) {
      prepared[i]->warm_order = groups.find(item_key[i])->second.warm_order;
    } else {
      prepared[i]->warm_order.clear();
    }
    auto exec = pipeline.Execute(*prepared[i], eopts[i]);
    if (!exec.ok()) {
      results[i] = exec.status();
      return;
    }
    results[i] = pipeline.PostProcess(*prepared[i], exec.MoveValue());
    prepared[i].reset();  // release the artifact handle promptly
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
