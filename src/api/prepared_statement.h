#ifndef SKINNER_API_PREPARED_STATEMENT_H_
#define SKINNER_API_PREPARED_STATEMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "api/database.h"
#include "api/session.h"

namespace skinner {

struct PreparedStage;

/// A `?`-parameterized SELECT template, parsed and bound once by
/// Session::Prepare and executed many times with concrete values — the
/// driver-style surface that makes SkinnerDB's template-level learning an
/// API guarantee instead of an exact-SQL-string accident:
///
///  - Warm-started UCT: the template's signature abstracts parameters
///    into typed slots, so execution #2 with *different* constants still
///    seeds its UCT priors from execution #1's final join order (paper
///    4.2/4.5: learned order quality transfers across the template).
///  - Per-table artifact sharing: each execution keys every FROM table's
///    pre-processing artifact by exactly the parameter values reaching
///    that table's unary filters. Tables whose filters mention no `?`
///    share one filtered+indexed artifact across all parameter sets;
///    param-filtered tables re-prepare just themselves. The per-table
///    provenance is reported in ExecutionStats
///    (tables_prepared_from_cache / tables_reprepared).
///
/// Execution semantics are value-substitution: Execute({v0, v1, ...})
/// returns rows bit-identical to Query() on the SQL text with the values
/// spliced in as literals. NULL binds anywhere; a value whose type class
/// (string vs numeric) contradicts the slot's inferred type — or the
/// substituted expression tree's re-typecheck — yields an error Status.
///
/// A statement may also wrap a `?`-parameterized UPDATE or DELETE (the
/// only way to run parameterized DML — Database::Execute rejects `?`).
/// Mutation executions serialize on the database's writer mutex, apply
/// and WAL-log the change, and return one `rows_affected` row; none of
/// the SELECT-side caching machinery above applies.
///
/// A statement holds no table version between executions: each execution
/// resolves the current version of every table by name (a SELECT pins it
/// for the execution), and fails as stale if a table's id changed.
///
/// Thread-safety: like a driver statement handle, one execution at a
/// time per statement (string parameters intern into the shared pool);
/// use Session::ExecuteBatch for concurrency — it serializes binding and
/// parallelizes execution.
class PreparedStatement {
 public:
  PreparedStatement(const PreparedStatement&) = delete;
  PreparedStatement& operator=(const PreparedStatement&) = delete;
  ~PreparedStatement();

  const std::string& sql() const { return sql_; }
  /// The parameter-abstracted template signature (warm-start cache key).
  const std::string& template_signature() const { return template_sig_; }

  int num_params() const;
  /// The inferred type of parameter `i` (kInt64 when no context inferred
  /// one; see param_type_known).
  DataType param_type(int i) const;
  bool param_type_known(int i) const;

  /// Executes the template with `params` bound, under the session's
  /// default options.
  Result<QueryOutput> Execute(const std::vector<Value>& params = {});
  /// Executes under explicit options (the session id is still folded into
  /// the seed; prepared-artifact caching is always on for statements).
  Result<QueryOutput> Execute(const std::vector<Value>& params,
                              const ExecOptions& opts);

 private:
  friend class Session;

  PreparedStatement(Session* session, std::string sql,
                    std::unique_ptr<BoundQuery> template_query);
  PreparedStatement(Session* session, std::string sql,
                    std::unique_ptr<BoundMutation> mutation);

  /// Post-bind analysis: template signature, per-table parameter sets,
  /// table identities for staleness checks. Then drops the bound table
  /// versions, so the statement keeps no version alive.
  Status Init();

  /// Arity + inferred-type-class validation of one parameter set.
  Status CheckParams(const std::vector<Value>& params) const;

  /// `now`, the version re-resolved for template table `i`, must be the
  /// table Prepare() bound: a DROP or re-CREATE since gives it a new id.
  Status CheckFreshness(size_t i, const Table* now) const;

  /// Builds the per-execution stage: substitutes params into a clone of
  /// the template bound to `snapshot`'s table versions, acquires/builds
  /// per-table artifacts through the cache, and assembles a PreparedStage
  /// (holding the snapshot) for the pipeline's execute stage.
  Result<PreparedStage> PrepareStage(
      const std::vector<Value>& params, const ExecOptions& opts,
      const std::shared_ptr<TableSnapshot>& snapshot) const;

  /// Batch core used by Session::ExecuteBatch: sequential prepare (string
  /// interning + artifact builds), concurrent execute/post-process.
  std::vector<Result<QueryOutput>> ExecuteMany(
      const std::vector<std::vector<Value>>& param_sets,
      const BatchOptions& bopts, const ExecOptions& base_opts);

  /// The DML execution core (caller-agnostic parts shared by Execute and
  /// ExecuteMany's rejection path).
  Result<QueryOutput> ExecuteMutation(const std::vector<Value>& params);

  Session* const session_;
  Database* const db_;
  const std::string sql_;
  /// Exactly one of template_ (SELECT) / mutation_ (UPDATE/DELETE) is set.
  std::unique_ptr<BoundQuery> template_;
  std::unique_ptr<BoundMutation> mutation_;
  std::string template_sig_;
  /// Per FROM table: the sorted ordinals of parameters appearing in that
  /// table's unary predicates (the values that key its artifact).
  std::vector<std::vector<int>> table_params_;
  /// Table identities at prepare time, for staleness detection.
  std::vector<std::string> table_names_;
  std::vector<uint64_t> table_ids_;
};

}  // namespace skinner

#endif  // SKINNER_API_PREPARED_STATEMENT_H_
