// QueryPlan: the distributed plan PIER disseminates to every node.
//
// The plan IS its opgraph (query/opgraph.h): a DAG of typed operator nodes
// wired by exchanges, interpreted by every node's QueryRuntime. Besides the
// graph a plan carries only what the graph does not say: the continuous
// period and window, the origin-local deadline and the resource budget.
// Every node rebuilds an identical plan from bytes.
//
// Plans are assembled through the builder helpers below, by the planner
// and by callers of the algebraic API alike: a source (scan, index scan,
// left-deep join chain, recursion over an edge scan), then the shared tail
// that filters, projects or aggregates, and collects at the origin.
//
// Column references inside expressions are bound to tuple layouts when the
// graph is built:
//   - filter / project      -> the layout of the node's input (the full
//                              concat for joins; (src, dst, hops) after
//                              recursion)
//   - final-agg `having`    -> the aggregate output layout
//                              [group values..., aggregate results...]
//   - collect `order_col`   -> the final output layout

#ifndef PIER_QUERY_PLAN_H_
#define PIER_QUERY_PLAN_H_

#include <optional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/serialize.h"
#include "common/time_util.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "query/opgraph.h"
#include "query/protocol.h"

namespace pier {
namespace query {

/// One distributed query. Plain data.
struct QueryPlan {
  /// The executable dataflow.
  OpGraph graph;

  // -- Continuous execution ---------------------------------------------------
  Duration every = 0;   ///< 0 = one-shot; else re-evaluate per period
  Duration window = 0;  ///< 0 = whole live snapshot; else items newer than
                        ///< `window` at scan time

  // -- Lifecycle --------------------------------------------------------------
  /// Per-query deadline, relative to issue time (0 = none). Origin-local
  /// only — the wire carries the resolved absolute deadline in
  /// PlanEnvelope::deadline, so this field is not serialized.
  Duration deadline = 0;

  /// Per-query resource budget (0-dimensions are unlimited). Travels with
  /// the plan so every member enforces the same caps.
  QueryBudget budget;

  void Serialize(Writer* w) const;
  /// Fails on a malformed graph (OpGraph::Deserialize validates it).
  static Status Deserialize(Reader* r, QueryPlan* out);
};

/// What actually travels in the dissemination broadcast.
struct PlanEnvelope {
  uint64_t query_id = 0;
  uint32_t origin = 0;       ///< host that issued the query
  TimePoint issued_at = 0;   ///< origin virtual time (epoch alignment)
  /// Absolute expiry (0 = none). Members self-expire shortly after this
  /// even if the origin's kCancel/kQueryEnd broadcast never reaches them.
  TimePoint deadline = 0;
  QueryPlan plan;

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, PlanEnvelope* out);
};

// ---------------------------------------------------------------------------
// Graph builders
// ---------------------------------------------------------------------------

/// Appends a scan of `table`; returns its id.
uint32_t AddScan(OpGraph* g, std::string table, catalog::Schema schema);

/// Appends a PHT range scan over column `col` of `table`: the closed range
/// [lo, hi], a null bound leaving that side open. Returns its id.
uint32_t AddIndexScan(OpGraph* g, std::string table, catalog::Schema schema,
                      int col, Value lo, Value hi);

/// Appends a scan of `right_table` and the equi-join of node `left` with
/// it; both inputs rehash to the join's rendezvous. Feed one join's id to
/// the next to build a left-deep chain. Returns the join's id.
uint32_t AddJoin(OpGraph* g, uint32_t left, std::string right_table,
                 catalog::Schema right_schema, JoinStrategy strategy,
                 std::vector<int> left_keys, std::vector<int> right_keys);

/// Appends the transitive closure over the edge relation the graph's last
/// node scans; `edge_where` (may be null) filters base and expansion edges.
/// The output layout is (src, dst, hops). Returns its id.
uint32_t AddRecurse(OpGraph* g, int src_col, int dst_col, int max_hops,
                    exec::ExprPtr edge_where);

/// Tail bodies: a projection (no exprs = identity) or an aggregation over
/// the tail's input layout.
OpNode ProjectNode(std::vector<exec::ExprPtr> exprs);
OpNode AggNode(std::vector<int> group_cols, std::vector<exec::AggSpec> aggs,
               exec::ExprPtr having = nullptr);

/// Appends the tail every plan shape ends in, fed by the graph's last node:
///   [filter(where)] -> [project] => to-origin -> collect
///   [filter(where)] -> partial-agg => tree|to-origin -> final-agg -> collect
///   [filter(where)] => to-origin -> final-agg -> collect
/// `body` comes from ProjectNode or AggNode. An aggregation combines
/// partials in the network per `in_network`; without it the origin
/// aggregates the raw rows (binary joins and index scans, whose rows meet
/// there anyway). `collect` carries the kCollect fields (distinct,
/// final_projection, order, limit); its type is set here.
void AppendTail(OpGraph* g, exec::ExprPtr where, OpNode body,
                OpNode collect = {},
                std::optional<AggStrategy> in_network = std::nullopt);

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_PLAN_H_
