// OpGraph: the serializable "boxes and arrows" distributed plan PIER ships
// to every node.
//
// A query is a DAG of typed operator nodes (scan, filter, project, join,
// partial/final aggregation, recursion, collect) whose edges are annotated
// with an ExchangeKind — how tuples travel from producer to consumer:
//
//   kLocal    same-node operator chain (a plain function call);
//   kRehash   dht::Put keyed on the consumer's key columns into a per-edge
//             temp namespace; the key's owner consumes arrivals (this is
//             how PIER partitions join and rendezvous state);
//   kToOrigin direct message to the query origin (results, or raw rows the
//             origin aggregates itself);
//   kTree     partial aggregates combining hop-by-hop up the dissemination
//             tree that delivered the plan.
//
// The graph is pure data: nodes carry bound expressions and column indices,
// never live operator state. Every node of the network rebuilds an
// identical graph from bytes and instantiates the runtime stages it is
// responsible for (src/query/ops/). The four legacy PlanKind shapes are
// degenerate opgraphs (see QueryPlan::CanonicalGraph in plan.h); composed
// graphs (multi-way joins, in-network aggregation over joins) are emitted
// by the planner.

#ifndef PIER_QUERY_OPGRAPH_H_
#define PIER_QUERY_OPGRAPH_H_

#include <string>
#include <vector>

#include "catalog/schema.h"
#include "common/serialize.h"
#include "common/status.h"
#include "exec/agg.h"
#include "exec/expr.h"

namespace pier {
namespace query {

/// Distributed join algorithms (the four from the PIER design papers).
enum class JoinStrategy : uint8_t {
  kSymmetricHash = 0,  ///< rehash both relations into a temp namespace
  kFetchMatches = 1,   ///< probe the already-partitioned inner by DHT get
  kSymmetricSemi = 2,  ///< rehash keys+ids only, fetch full tuples on match
  kBloom = 3,          ///< pre-filter both sides with exchanged Bloom filters
};

/// How partial aggregates reach the query origin.
enum class AggStrategy : uint8_t {
  kDirect = 0,  ///< every node sends partials straight to the origin
  kTree = 1,    ///< partials combine hop-by-hop up the dissemination tree
};

const char* JoinStrategyName(JoinStrategy s);
const char* AggStrategyName(AggStrategy s);

/// Operator node types.
enum class OpType : uint8_t {
  kScan = 0,        ///< local slice of a DHT namespace (one per relation)
  kFilter = 1,      ///< predicate over the input layout
  kProject = 2,     ///< expression list over the input layout
  kJoin = 3,        ///< binary equi-join; inputs = {left, right}
  kPartialAgg = 4,  ///< raw rows -> decomposable partial states
  kFinalAgg = 5,    ///< partials (or raw rows) -> final aggregates; origin
  kRecurse = 6,     ///< transitive closure over an edge relation
  kCollect = 7,     ///< origin sink: DISTINCT / ORDER BY / LIMIT / delivery
  kIndexScan = 8,   ///< PHT range scan over an indexed attribute (origin)
};

const char* OpTypeName(OpType t);

/// How a node's output travels to its (single) consumer.
enum class ExchangeKind : uint8_t {
  kLocal = 0,
  kRehash = 1,
  kToOrigin = 2,
  kTree = 3,
};

const char* ExchangeKindName(ExchangeKind k);

/// One typed operator box. Field groups are meaningful per `type`; unused
/// groups stay empty and serialize compactly.
struct OpNode {
  OpType type = OpType::kScan;
  /// Upstream node ids (indices into OpGraph::nodes; strictly smaller than
  /// this node's own id — the graph is stored in topological order).
  std::vector<uint32_t> inputs;
  /// How this node's output reaches its consumer.
  ExchangeKind out = ExchangeKind::kLocal;

  // -- kScan / kIndexScan ----------------------------------------------------
  std::string table;       ///< DHT namespace
  catalog::Schema schema;  ///< the relation's schema

  // -- kIndexScan ------------------------------------------------------------
  /// The indexed attribute and the closed value range the cursor reads.
  /// NULL bounds are open sides (scan from/to the end of the keyspace).
  /// The range is a SUPERSET of the predicate — an exact kFilter always
  /// follows, so encoding coarseness (string truncation, double bounds on
  /// int columns) can only cost traffic, never correctness.
  int index_col = 0;
  Value index_lo;
  Value index_hi;

  // -- kFilter (and kRecurse edge predicate) ---------------------------------
  exec::ExprPtr predicate;

  // -- kProject --------------------------------------------------------------
  std::vector<exec::ExprPtr> exprs;

  // -- kJoin -----------------------------------------------------------------
  JoinStrategy strategy = JoinStrategy::kSymmetricHash;
  std::vector<int> left_keys;   ///< indices into the left input layout
  std::vector<int> right_keys;  ///< indices into the right input layout

  // -- kPartialAgg / kFinalAgg -----------------------------------------------
  std::vector<int> group_cols;
  std::vector<exec::AggSpec> aggs;
  exec::ExprPtr having;  ///< kFinalAgg only, over [group..., agg results...]

  // -- kRecurse --------------------------------------------------------------
  int src_col = 0;
  int dst_col = 1;
  int max_hops = 16;

  // -- kCollect --------------------------------------------------------------
  bool distinct = false;
  /// Post-aggregation SELECT-order permutation (empty = identity).
  std::vector<int> final_projection;
  int order_col = -1;
  bool order_desc = false;
  int64_t limit = -1;

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, OpNode* out);
  /// One-line rendering ("join[symmetric-hash] keys=[0]x[0]").
  std::string ToString() const;
};

/// The distributed dataflow DAG. Nodes are stored in topological order;
/// the last node is the root (normally kCollect at the origin).
struct OpGraph {
  std::vector<OpNode> nodes;

  bool empty() const { return nodes.empty(); }
  size_t size() const { return nodes.size(); }

  /// Structural sanity: topological input edges, per-type arity, a single
  /// terminal collect, exchange kinds that the runtime can execute (a tree
  /// edge leaves a partial-agg, a rehash edge ends at a join). Deserialized graphs MUST be validated before execution.
  Status Validate() const;

  /// First node of `type`, or -1.
  int FindFirst(OpType type) const;
  /// Consumer of node `id`, or -1 for the root.
  int ConsumerOf(uint32_t id) const;
  /// True iff some node has `type`.
  bool Has(OpType type) const { return FindFirst(type) >= 0; }

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, OpGraph* out);

  /// Multi-line EXPLAIN rendering: one indexed line per node with its
  /// inputs and output exchange.
  std::string ToString() const;
};

namespace detail {
// Shared wire helpers (also used by plan.cc).
void PutOptionalExpr(Writer* w, const exec::ExprPtr& e);
Status GetOptionalExpr(Reader* r, exec::ExprPtr* out);
void PutIntVec(Writer* w, const std::vector<int>& v);
Status GetIntVec(Reader* r, std::vector<int>* out);
}  // namespace detail

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPGRAPH_H_
