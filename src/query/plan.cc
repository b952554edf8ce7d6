#include "query/plan.h"

namespace pier {
namespace query {

// ---------------------------------------------------------------------------
// Wire format
// ---------------------------------------------------------------------------

void QueryPlan::Serialize(Writer* w) const {
  graph.Serialize(w);
  w->PutVarint64(static_cast<uint64_t>(every));
  w->PutVarint64(static_cast<uint64_t>(window));
  w->PutVarint64(budget.max_result_bytes);
  w->PutVarint64(budget.max_rehash_puts);
  w->PutVarint64(budget.max_result_rows);
}

Status QueryPlan::Deserialize(Reader* r, QueryPlan* out) {
  PIER_RETURN_IF_ERROR(OpGraph::Deserialize(r, &out->graph));
  uint64_t every = 0, window = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64(&every));
  PIER_RETURN_IF_ERROR(r->GetVarint64(&window));
  out->every = static_cast<Duration>(every);
  out->window = static_cast<Duration>(window);
  PIER_RETURN_IF_ERROR(r->GetVarint64(&out->budget.max_result_bytes));
  PIER_RETURN_IF_ERROR(r->GetVarint64(&out->budget.max_rehash_puts));
  return r->GetVarint64(&out->budget.max_result_rows);
}

void PlanEnvelope::Serialize(Writer* w) const {
  w->PutVarint64(query_id);
  w->PutFixed32(origin);
  w->PutVarint64(static_cast<uint64_t>(issued_at));
  w->PutVarint64(static_cast<uint64_t>(deadline));
  plan.Serialize(w);
}

Status PlanEnvelope::Deserialize(Reader* r, PlanEnvelope* out) {
  PIER_RETURN_IF_ERROR(r->GetVarint64(&out->query_id));
  PIER_RETURN_IF_ERROR(r->GetFixed32(&out->origin));
  uint64_t issued = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64(&issued));
  out->issued_at = static_cast<TimePoint>(issued);
  uint64_t deadline = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64(&deadline));
  out->deadline = static_cast<TimePoint>(deadline);
  return QueryPlan::Deserialize(r, &out->plan);
}

// ---------------------------------------------------------------------------
// Graph builders
// ---------------------------------------------------------------------------

namespace {

uint32_t Append(OpGraph* g, OpNode node) {
  g->nodes.push_back(std::move(node));
  return static_cast<uint32_t>(g->nodes.size()) - 1;
}

/// Appends `node` fed by the graph's current last node.
uint32_t Chain(OpGraph* g, OpNode node) {
  node.inputs = {static_cast<uint32_t>(g->nodes.size()) - 1};
  return Append(g, std::move(node));
}

}  // namespace

uint32_t AddScan(OpGraph* g, std::string table, catalog::Schema schema) {
  OpNode n;
  n.type = OpType::kScan;
  n.table = std::move(table);
  n.schema = std::move(schema);
  return Append(g, std::move(n));
}

uint32_t AddIndexScan(OpGraph* g, std::string table, catalog::Schema schema,
                      int col, Value lo, Value hi) {
  OpNode n;
  n.type = OpType::kIndexScan;
  n.table = std::move(table);
  n.schema = std::move(schema);
  n.index_col = col;
  n.index_lo = std::move(lo);
  n.index_hi = std::move(hi);
  return Append(g, std::move(n));
}

uint32_t AddJoin(OpGraph* g, uint32_t left, std::string right_table,
                 catalog::Schema right_schema, JoinStrategy strategy,
                 std::vector<int> left_keys, std::vector<int> right_keys) {
  g->nodes[left].out = ExchangeKind::kRehash;
  uint32_t right =
      AddScan(g, std::move(right_table), std::move(right_schema));
  g->nodes[right].out = ExchangeKind::kRehash;
  OpNode j;
  j.type = OpType::kJoin;
  j.inputs = {left, right};
  j.strategy = strategy;
  j.left_keys = std::move(left_keys);
  j.right_keys = std::move(right_keys);
  return Append(g, std::move(j));
}

uint32_t AddRecurse(OpGraph* g, int src_col, int dst_col, int max_hops,
                    exec::ExprPtr edge_where) {
  OpNode n;
  n.type = OpType::kRecurse;
  n.src_col = src_col;
  n.dst_col = dst_col;
  n.max_hops = max_hops;
  n.predicate = std::move(edge_where);
  return Chain(g, std::move(n));
}

OpNode ProjectNode(std::vector<exec::ExprPtr> exprs) {
  OpNode n;
  n.type = OpType::kProject;
  n.exprs = std::move(exprs);
  return n;
}

OpNode AggNode(std::vector<int> group_cols, std::vector<exec::AggSpec> aggs,
               exec::ExprPtr having) {
  OpNode n;
  n.type = OpType::kFinalAgg;
  n.group_cols = std::move(group_cols);
  n.aggs = std::move(aggs);
  n.having = std::move(having);
  return n;
}

void AppendTail(OpGraph* g, exec::ExprPtr where, OpNode body, OpNode collect,
                std::optional<AggStrategy> in_network) {
  if (where != nullptr) {
    OpNode f;
    f.type = OpType::kFilter;
    f.predicate = std::move(where);
    Chain(g, std::move(f));
  }
  if (body.type == OpType::kFinalAgg) {
    if (in_network.has_value()) {
      OpNode partial;
      partial.type = OpType::kPartialAgg;
      partial.group_cols = body.group_cols;
      partial.aggs = body.aggs;
      partial.out = *in_network == AggStrategy::kTree
                        ? ExchangeKind::kTree
                        : ExchangeKind::kToOrigin;
      Chain(g, std::move(partial));
    } else {
      g->nodes.back().out = ExchangeKind::kToOrigin;
    }
    Chain(g, std::move(body));
  } else {
    if (!body.exprs.empty()) Chain(g, std::move(body));
    g->nodes.back().out = ExchangeKind::kToOrigin;
  }
  collect.type = OpType::kCollect;
  Chain(g, std::move(collect));
}

}  // namespace query
}  // namespace pier
