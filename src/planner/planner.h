// Planner: binds a parsed SQL statement against the catalog and builds the
// distributed QueryPlan — the opgraph the engine disseminates — through the
// graph builders in query/plan.h.
//
// Responsibilities: name resolution (aliases, qualified columns), equi-join
// key extraction from WHERE / ON conjuncts, join-order selection for 3+
// relation FROM lists (left-deep join chains, with group-by pushed to the
// final join's rendezvous, which ship their partial groups to the origin),
// aggregate analysis (partial/final split, HAVING and ORDER BY rewritten
// over the aggregate layout), join/aggregation strategy selection, and
// validation (e.g. fetch-matches partitioning compatibility is re-checked
// by the engine). EXPLAIN statements plan but do not execute.

#ifndef PIER_PLANNER_PLANNER_H_
#define PIER_PLANNER_PLANNER_H_

#include "catalog/table_def.h"
#include "common/result.h"
#include "query/engine.h"
#include "query/plan.h"
#include "sql/ast.h"
#include "sql/parser.h"

namespace pier {
namespace planner {

struct PlannerOptions {
  query::JoinStrategy join_strategy = query::JoinStrategy::kSymmetricHash;
  /// How a scan-fed aggregate's partials combine: up the dissemination
  /// tree (kTree) or at the origin (kDirect). Join-fed partials always go
  /// straight to the origin, whose checks see only the frames it admits,
  /// so a multiway join plans the same graph under either strategy.
  query::AggStrategy agg_strategy = query::AggStrategy::kTree;
  /// When true, a join whose inner relation is already partitioned on the
  /// join key is downgraded from rehashing to fetch-matches automatically.
  bool prefer_fetch_matches = true;
  /// When true, a single-table query whose WHERE bounds an indexed
  /// attribute (<, <=, >, >=, =, BETWEEN against a literal) plans as a PHT
  /// IndexScan instead of a broadcast scan. The engine still degrades to
  /// the broadcast plan at runtime if the index proves cold or unreachable.
  bool use_index = true;
};

/// Binds `stmt` against `catalog`. Fails with InvalidArgument (bad names,
/// unsupported shapes) or NotFound (unknown tables).
Result<query::QueryPlan> PlanStatement(const sql::Statement& stmt,
                                       const catalog::Catalog& catalog,
                                       const PlannerOptions& options = {});

/// Convenience: parse + plan + execute in one call.
Result<uint64_t> ExecuteSql(query::QueryEngine* engine, const std::string& sql,
                            query::QueryEngine::ResultCallback cb,
                            const PlannerOptions& options = {});

}  // namespace planner
}  // namespace pier

#endif  // PIER_PLANNER_PLANNER_H_
