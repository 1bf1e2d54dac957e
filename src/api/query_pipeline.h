#ifndef SKINNER_API_QUERY_PIPELINE_H_
#define SKINNER_API_QUERY_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "common/clock.h"
#include "exec/prepared_cache.h"

namespace skinner {

/// Output of the bind stage: the fully resolved query, which pins the
/// table versions it bound (BoundQuery::snapshot). The cache identity
/// (normalized signature + per-table data-version stamps) is derived from
/// it on demand — by Prepare() when caching is on, and by QueryBatch for
/// grouping — so the default uncached path pays no serialization.
struct BoundStage {
  std::unique_ptr<BoundQuery> query;
};

/// Output of the prepare stage: the shared pre-processing artifact bundle
/// plus everything per-execution — the virtual clock this execution ticks,
/// the wall-clock stopwatch, and the warm-start hint. Movable; `pq` points
/// at `clock`, which lives on the heap exactly so moves keep it stable.
struct PreparedStage {
  /// Pins the table versions this stage reads (declared first, so it is
  /// released last). Held here, not in `shared`: a bundle may be cached,
  /// and no cache entry may keep a version alive.
  std::shared_ptr<TableSnapshot> snapshot;
  PreparedHandle shared;               // keeps bound/info/data alive
  std::unique_ptr<PreparedQuery> pq;   // per-execution view
  std::unique_ptr<VirtualClock> clock;
  Stopwatch watch;
  std::string signature;               // empty: not cacheable (external query)
  bool cache_hit = false;
  uint64_t preprocess_cost = 0;        // 0 on a cache hit
  std::vector<int> warm_order;         // UCT warm-start hint (may be empty)
  /// A warm-start order keyed by the template signature existed in the
  /// cache (reported even when opts.warm_start leaves it unused).
  bool template_hit = false;
  /// Per-table artifact provenance (filled by the PreparedStatement path;
  /// the bundle path reports all-or-nothing).
  int tables_from_cache = 0;
  int tables_reprepared = 0;
  /// Artifact bytes this prepare published into the cross-query cache
  /// (0 on hits and when ExecOptions::cache_read_only withheld publishes).
  uint64_t cache_bytes_published = 0;
};

/// Output of the execute stage: the join result in position space plus the
/// engine's counters. Post-processing turns it into the final rows.
struct ExecutedStage {
  std::unique_ptr<ResultSet> join_result;
  ExecutionStats stats;
};

/// The staged SELECT pipeline (paper Figure 2, plus parse/bind):
///
///   parse -> bind -> prepare -> execute -> post-process
///
/// Each stage consumes the previous stage's context object, so callers can
/// run the stages back to back (Run(), which is what Database::Query does)
/// or interleave the stages of many queries: Database::QueryBatch binds
/// all items sequentially against one TableSnapshot, then prepares one
/// artifact per distinct signature and executes all items concurrently
/// against the shared artifacts. No stage takes a database-wide lock: the
/// pins carried from bind to post-process keep every table version alive
/// and unchanged, whatever writers do meanwhile.
///
/// The pipeline object itself is stateless apart from the injected
/// components and is cheap to construct; Execute/PostProcess only touch
/// thread-safe or per-stage state, so any number of pipelines over the
/// same database may run prepare/execute/post-process stages in parallel.
class QueryPipeline {
 public:
  /// `scheduler` hosts the pipeline's parallel work (parallel
  /// pre-processing; Skinner-C worker-thread leases). Null runs all of it
  /// inline/unleased — correct but unarbitrated; Database always passes
  /// its own scheduler. Per-call ExecOptions::scheduler overrides it.
  QueryPipeline(Catalog* catalog, const UdfRegistry* udfs,
                StatsManager* stats, PreparedCache* cache,
                Scheduler* scheduler = nullptr);

  /// Stage 1: SQL text -> parsed statement (must be a SELECT).
  Result<Statement> Parse(const std::string& sql) const;

  /// Stage 2: parsed SELECT -> bound query. Tables resolve through
  /// `snapshot` (pinning on first use; not thread-safe, so serialize bind
  /// stages that share one), or through a fresh snapshot when null.
  /// Interns string literals into the catalog's pool.
  Result<BoundStage> Bind(Statement stmt,
                          std::shared_ptr<TableSnapshot> snapshot = nullptr) const;

  /// Stage 3: bound query -> prepared stage. With opts.use_prepared_cache,
  /// serves repeated signatures from the PreparedCache (preprocess_cost 0)
  /// and registers fresh artifacts for reuse; invalidation is by table
  /// data-version stamps. Concurrent Prepares of one signature coordinate
  /// through the cache's in-flight build registry: one caller builds, the
  /// rest block and share its artifact. Thread-safe. Parameterized
  /// templates (num_params > 0) are rejected — only
  /// PreparedStatement::Execute may run those.
  Result<PreparedStage> Prepare(BoundStage bound, const ExecOptions& opts) const;

  /// Stage 3 for an externally owned BoundQuery (Database::RunSelect):
  /// always prepares fresh, never caches (the cache must own its bundles).
  Result<PreparedStage> PrepareExternal(const BoundQuery* query,
                                        const ExecOptions& opts) const;

  /// Stage 3 from an already shared bundle: a hit-style stage (no
  /// filtering, preprocess_cost 0) over `handle`'s artifact. QueryBatch
  /// hands every template-group member its owner's bundle this way, so
  /// sharing inside a batch never depends on cache capacity or eviction
  /// order. The handle must own its query (it came from Prepare).
  PreparedStage RebindStage(PreparedHandle handle,
                            std::string signature) const;

  /// Stage 4: runs the chosen engine over the prepared artifact; fills the
  /// engine counters. Records Skinner-C's final order as the signature's
  /// warm-start hint. Thread-safe across distinct PreparedStages.
  Result<ExecutedStage> Execute(const PreparedStage& prep,
                                const ExecOptions& opts) const;

  /// Stage 5: post-processes the join result into final rows and closes
  /// the books (total cost, wall time, cache provenance).
  Result<QueryOutput> PostProcess(const PreparedStage& prep,
                                  ExecutedStage exec) const;

  /// All five stages back to back.
  Result<QueryOutput> Run(const std::string& sql,
                          const ExecOptions& opts) const;

 private:
  Result<PreparedStage> PrepareFresh(std::unique_ptr<BoundQuery> owned_query,
                                     const BoundQuery* query,
                                     const ExecOptions& opts) const;

  Scheduler* EffectiveScheduler(const ExecOptions& opts) const {
    return opts.scheduler != nullptr ? opts.scheduler : scheduler_;
  }

  Catalog* catalog_;
  const UdfRegistry* udfs_;
  StatsManager* stats_;
  PreparedCache* cache_;   // may be null: caching disabled
  Scheduler* scheduler_;   // may be null: inline parallel work
};

}  // namespace skinner

#endif  // SKINNER_API_QUERY_PIPELINE_H_
