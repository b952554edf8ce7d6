#include "planner/planner.h"

#include <algorithm>
#include <functional>

#include "planner/join_cost.h"

namespace pier {
namespace planner {

namespace {

using catalog::Schema;
using exec::AggSpec;
using exec::Expr;
using exec::ExprPtr;
using query::OpNode;
using query::OpType;
using query::QueryPlan;
using sql::AstExpr;
using sql::AstExprPtr;
using sql::SelectStmt;

/// Qualifies a table's schema with its alias so "alias.col" resolves.
Schema AliasSchema(const catalog::TableDef& def, const std::string& alias) {
  return Schema(alias, def.schema.columns());
}

bool ContainsAgg(const AstExprPtr& e) {
  if (e == nullptr) return false;
  if (e->kind == AstExpr::Kind::kAggCall) return true;
  return ContainsAgg(e->left) || ContainsAgg(e->right);
}

/// Binds one leaf of an AST expression: a column or an aggregate call.
using LeafBinder = std::function<Status(const AstExpr& leaf, ExprPtr* out)>;

/// Binds `ast` node for node, handing its columns and aggregate calls to
/// `leaf`.
Status BindTree(const AstExprPtr& ast, const LeafBinder& leaf, ExprPtr* out) {
  if (ast == nullptr) return Status::InvalidArgument("null expression");
  ExprPtr l, r;
  switch (ast->kind) {
    case AstExpr::Kind::kLiteral:
      *out = Expr::Literal(ast->literal);
      return Status::OK();
    case AstExpr::Kind::kColumn:
    case AstExpr::Kind::kAggCall:
      return leaf(*ast, out);
    case AstExpr::Kind::kCompare:
      PIER_RETURN_IF_ERROR(BindTree(ast->left, leaf, &l));
      PIER_RETURN_IF_ERROR(BindTree(ast->right, leaf, &r));
      *out = Expr::Compare(ast->cmp, l, r);
      return Status::OK();
    case AstExpr::Kind::kArith:
      PIER_RETURN_IF_ERROR(BindTree(ast->left, leaf, &l));
      PIER_RETURN_IF_ERROR(BindTree(ast->right, leaf, &r));
      *out = Expr::Arith(ast->arith, l, r);
      return Status::OK();
    case AstExpr::Kind::kAnd:
    case AstExpr::Kind::kOr:
      PIER_RETURN_IF_ERROR(BindTree(ast->left, leaf, &l));
      PIER_RETURN_IF_ERROR(BindTree(ast->right, leaf, &r));
      *out = ast->kind == AstExpr::Kind::kAnd ? Expr::And(l, r)
                                              : Expr::Or(l, r);
      return Status::OK();
    case AstExpr::Kind::kNot:
      PIER_RETURN_IF_ERROR(BindTree(ast->left, leaf, &l));
      *out = Expr::Not(l);
      return Status::OK();
    case AstExpr::Kind::kNeg:
      PIER_RETURN_IF_ERROR(BindTree(ast->left, leaf, &l));
      *out = Expr::Negate(l);
      return Status::OK();
    case AstExpr::Kind::kIsNull:
    case AstExpr::Kind::kIsNotNull:
      PIER_RETURN_IF_ERROR(BindTree(ast->left, leaf, &l));
      *out = Expr::IsNull(l, ast->kind == AstExpr::Kind::kIsNotNull);
      return Status::OK();
  }
  return Status::Internal("unreachable expr kind");
}

/// Binds an AST expression over `schema`, rejecting aggregate calls.
Status BindScalar(const AstExprPtr& ast, const Schema& schema, ExprPtr* out) {
  auto column = [&schema](const AstExpr& leaf, ExprPtr* bound) {
    if (leaf.kind == AstExpr::Kind::kAggCall) {
      return Status::InvalidArgument(
          "aggregate not allowed in this context: " + leaf.ToString());
    }
    int index = -1;
    PIER_RETURN_IF_ERROR(schema.Resolve(leaf.column, &index));
    *bound = Expr::Column(index, leaf.column);
    return Status::OK();
  };
  return BindTree(ast, column, out);
}

/// Flattens an AND tree into conjuncts.
void Conjuncts(const AstExprPtr& e, std::vector<AstExprPtr>* out) {
  if (e == nullptr) return;
  if (e->kind == AstExpr::Kind::kAnd) {
    Conjuncts(e->left, out);
    Conjuncts(e->right, out);
    return;
  }
  out->push_back(e);
}

/// Rebuilds an AND tree from conjuncts (null when empty).
AstExprPtr AndAll(const std::vector<AstExprPtr>& cs) {
  AstExprPtr out;
  for (const AstExprPtr& c : cs) {
    if (out == nullptr) {
      out = c;
    } else {
      auto e = std::make_shared<AstExpr>();
      e->kind = AstExpr::Kind::kAnd;
      e->left = out;
      e->right = c;
      out = e;
    }
  }
  return out;
}

/// Is `e` a plain column of `schema`? Returns its index or -1.
int ColumnIndexIn(const AstExprPtr& e, const Schema& schema) {
  if (e == nullptr || e->kind != AstExpr::Kind::kColumn) return -1;
  int index = -1;
  if (!schema.Resolve(e->column, &index).ok()) return -1;
  return index;
}

/// Finds (or appends) an aggregate spec matching fn over column `col` in
/// the kFinalAgg node `agg`.
int FindOrAddAgg(OpNode* agg, exec::AggFunc fn, int col,
                 const std::string& name) {
  for (size_t i = 0; i < agg->aggs.size(); ++i) {
    if (agg->aggs[i].fn == fn && agg->aggs[i].col == col) {
      return static_cast<int>(i);
    }
  }
  agg->aggs.push_back(AggSpec{fn, col, name});
  return static_cast<int>(agg->aggs.size()) - 1;
}

/// Rewrites an expression over the aggregate output layout
/// [group values..., aggregate results...]: group columns become column refs
/// into the prefix; aggregate calls become refs past the prefix.
Status BindOverAggLayout(const AstExprPtr& ast, const Schema& input,
                         OpNode* agg, ExprPtr* out) {
  auto group_or_agg = [&input, agg](const AstExpr& leaf, ExprPtr* bound) {
    if (leaf.kind == AstExpr::Kind::kAggCall) {
      int col = -1;
      if (leaf.left != nullptr) {
        col = ColumnIndexIn(leaf.left, input);
        if (col < 0) {
          return Status::InvalidArgument(
              "aggregate argument must be a column: " + leaf.ToString());
        }
      }
      int agg_index = FindOrAddAgg(agg, leaf.agg, col, leaf.ToString());
      *bound = Expr::Column(
          static_cast<int>(agg->group_cols.size()) + agg_index,
          leaf.ToString());
      return Status::OK();
    }
    int input_index = -1;
    PIER_RETURN_IF_ERROR(input.Resolve(leaf.column, &input_index));
    for (size_t g = 0; g < agg->group_cols.size(); ++g) {
      if (agg->group_cols[g] == input_index) {
        *bound = Expr::Column(static_cast<int>(g), leaf.column);
        return Status::OK();
      }
    }
    return Status::InvalidArgument("column " + leaf.column +
                                   " is neither grouped nor aggregated");
  };
  return BindTree(ast, group_or_agg, out);
}

/// Binds GROUP BY / aggregate SELECT items / HAVING into the kFinalAgg node
/// `agg`, and the SELECT-order permutation and ORDER BY into `collect`.
Status PlanAggregation(const SelectStmt& stmt, const Schema& input,
                       OpNode* agg, OpNode* collect) {
  agg->type = OpType::kFinalAgg;
  for (const std::string& g : stmt.group_by) {
    int index = -1;
    PIER_RETURN_IF_ERROR(input.Resolve(g, &index));
    agg->group_cols.push_back(index);
  }
  // Each SELECT item must reduce to a group column or an aggregate.
  for (const sql::SelectItem& item : stmt.items) {
    if (item.expr->kind == AstExpr::Kind::kAggCall) {
      int col = -1;
      if (item.expr->left != nullptr) {
        col = ColumnIndexIn(item.expr->left, input);
        if (col < 0) {
          return Status::InvalidArgument(
              "aggregate argument must be a column: " +
              item.expr->ToString());
        }
      }
      std::string name =
          item.alias.empty() ? item.expr->ToString() : item.alias;
      int agg_index = FindOrAddAgg(agg, item.expr->agg, col, name);
      collect->final_projection.push_back(
          static_cast<int>(agg->group_cols.size()) + agg_index);
      continue;
    }
    if (item.expr->kind == AstExpr::Kind::kColumn) {
      int input_index = -1;
      PIER_RETURN_IF_ERROR(input.Resolve(item.expr->column, &input_index));
      auto g = std::find(agg->group_cols.begin(), agg->group_cols.end(),
                         input_index);
      if (g == agg->group_cols.end()) {
        return Status::InvalidArgument("column " + item.expr->column +
                                       " must appear in GROUP BY");
      }
      collect->final_projection.push_back(
          static_cast<int>(g - agg->group_cols.begin()));
      continue;
    }
    return Status::NotSupported(
        "aggregate SELECT items must be columns or aggregate calls: " +
        item.expr->ToString());
  }
  if (stmt.having != nullptr) {
    PIER_RETURN_IF_ERROR(
        BindOverAggLayout(stmt.having, input, agg, &agg->having));
  }
  // ORDER BY: an alias of a select item, a group column, or an agg call.
  if (stmt.order_by != nullptr) {
    int order = -1;
    if (stmt.order_by->kind == AstExpr::Kind::kColumn) {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!stmt.items[i].alias.empty() &&
            stmt.items[i].alias == stmt.order_by->column) {
          order = static_cast<int>(i);
          break;
        }
      }
    }
    if (order < 0) {
      // Match by structural print against select items.
      std::string want = stmt.order_by->ToString();
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].expr->ToString() == want) {
          order = static_cast<int>(i);
          break;
        }
      }
    }
    if (order < 0) {
      return Status::NotSupported(
          "ORDER BY must reference a SELECT item in aggregate queries");
    }
    collect->order_col = order;
    collect->order_desc = stmt.order_desc;
  }
  return Status::OK();
}

/// Binds the SELECT list into the kProject node `project` (SELECT * = no
/// exprs) and ORDER BY into `collect`.
Status PlanSelectItems(const SelectStmt& stmt, const Schema& schema,
                       OpNode* project, OpNode* collect) {
  project->type = OpType::kProject;
  if (!stmt.select_star) {
    for (const sql::SelectItem& item : stmt.items) {
      ExprPtr bound;
      PIER_RETURN_IF_ERROR(BindScalar(item.expr, schema, &bound));
      project->exprs.push_back(bound);
    }
  }
  if (stmt.order_by != nullptr) {
    // Resolve against the output: alias, structural match, or (for SELECT *)
    // a schema column.
    int order = -1;
    if (stmt.order_by->kind == AstExpr::Kind::kColumn) {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (!stmt.items[i].alias.empty() &&
            stmt.items[i].alias == stmt.order_by->column) {
          order = static_cast<int>(i);
        }
      }
      if (order < 0 && stmt.select_star) {
        int index = -1;
        PIER_RETURN_IF_ERROR(schema.Resolve(stmt.order_by->column, &index));
        order = index;
      }
    }
    if (order < 0) {
      std::string want = stmt.order_by->ToString();
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        if (stmt.items[i].expr->ToString() == want) {
          order = static_cast<int>(i);
        }
      }
    }
    if (order < 0) {
      return Status::NotSupported("cannot resolve ORDER BY expression");
    }
    collect->order_col = order;
    collect->order_desc = stmt.order_desc;
  }
  return Status::OK();
}

bool HasAgg(const SelectStmt& stmt) {
  bool has_agg = !stmt.group_by.empty();
  for (const sql::SelectItem& item : stmt.items) {
    has_agg = has_agg || ContainsAgg(item.expr);
  }
  return has_agg;
}

/// Binds everything a SELECT does after its FROM/WHERE over `layout`: the
/// tail's body (AggNode or ProjectNode) and its collect node.
Status PlanOutput(const SelectStmt& stmt, const Schema& layout, OpNode* body,
                  OpNode* collect) {
  collect->limit = stmt.limit;
  collect->distinct = stmt.distinct;
  if (HasAgg(stmt)) return PlanAggregation(stmt, layout, body, collect);
  return PlanSelectItems(stmt, layout, body, collect);
}

/// Plans FROM lists of three or more relations as a left-deep chain of
/// binary symmetric-hash joins, emitted directly as a composed opgraph:
/// scans rehash into the first join, each join's output rehashes into the
/// next on the following join key, and — when aggregating — a partial-agg
/// stage runs at the final join's rendezvous nodes so aggregation happens
/// in-network. Each rendezvous ships its partial groups straight to the
/// origin whatever the AggStrategy: the origin accounts for every frame it
/// admits against the join's books.
Result<QueryPlan> PlanMultiwayJoin(const SelectStmt& stmt,
                                   const catalog::Catalog& catalog,
                                   const PlannerOptions& options) {
  const size_t n = stmt.from.size();
  // n scans + (n-1) joins + filter/agg/collect tail must fit the opgraph
  // wire cap (64 nodes); reject well-formed-but-oversized SQL here with a
  // planner error instead of a corruption status at Execute.
  if (n > 30) {
    return Status::InvalidArgument(
        "FROM lists a maximum of 30 relations");
  }
  std::vector<const catalog::TableDef*> defs(n);
  std::vector<Schema> schemas(n);
  for (size_t i = 0; i < n; ++i) {
    defs[i] = catalog.Find(stmt.from[i].table);
    if (defs[i] == nullptr) {
      return Status::NotFound("unknown table: " + stmt.from[i].table);
    }
    schemas[i] = AliasSchema(*defs[i], stmt.from[i].alias);
  }

  std::vector<AstExprPtr> conjuncts;
  Conjuncts(stmt.join_on, &conjuncts);
  Conjuncts(stmt.where, &conjuncts);
  std::vector<bool> used(conjuncts.size(), false);

  // Greedy left-deep join order: start from the first relation, repeatedly
  // attach a relation connected to the current layout by >= 1 equality
  // conjunct, consuming every key conjunct that links the two sides.
  struct JoinStep {
    size_t table;
    std::vector<int> left_keys;   // into the accumulated layout
    std::vector<int> right_keys;  // into the attached relation's schema
  };
  std::vector<bool> joined(n, false);
  joined[0] = true;
  Schema layout = schemas[0];
  std::vector<JoinStep> steps;
  for (size_t step = 1; step < n; ++step) {
    bool attached = false;
    for (size_t t = 0; t < n && !attached; ++t) {
      if (joined[t]) continue;
      Schema concat = Schema::Concat(layout, schemas[t]);
      size_t left_width = layout.num_columns();
      JoinStep js;
      js.table = t;
      std::vector<size_t> consumed;
      for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
        if (used[ci]) continue;
        const AstExprPtr& c = conjuncts[ci];
        if (c->kind != AstExpr::Kind::kCompare ||
            c->cmp != exec::CompareOp::kEq) {
          continue;
        }
        int a = ColumnIndexIn(c->left, concat);
        int b = ColumnIndexIn(c->right, concat);
        if (a < 0 || b < 0) continue;
        bool a_left = static_cast<size_t>(a) < left_width;
        bool b_left = static_cast<size_t>(b) < left_width;
        if (a_left == b_left) continue;
        int l = a_left ? a : b;
        int r = a_left ? b : a;
        js.left_keys.push_back(l);
        js.right_keys.push_back(r - static_cast<int>(left_width));
        consumed.push_back(ci);
      }
      if (js.left_keys.empty()) continue;
      for (size_t ci : consumed) used[ci] = true;
      joined[t] = true;
      layout = std::move(concat);
      steps.push_back(std::move(js));
      attached = true;
    }
    if (!attached) {
      return Status::NotSupported(
          "every FROM relation must connect to the join via an equality "
          "predicate (cross products are not distributed)");
    }
  }

  // Residual predicate over the full concat layout.
  std::vector<AstExprPtr> residual;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    if (!used[ci]) residual.push_back(conjuncts[ci]);
  }
  ExprPtr where;
  AstExprPtr residual_ast = AndAll(residual);
  if (residual_ast != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(residual_ast, layout, &where));
  }
  OpNode body, collect;
  PIER_RETURN_IF_ERROR(PlanOutput(stmt, layout, &body, &collect));

  QueryPlan plan;
  plan.every = Seconds(stmt.every_seconds);
  plan.window = Seconds(stmt.window_seconds);
  uint32_t upstream = query::AddScan(&plan.graph, defs[0]->name, schemas[0]);
  for (size_t k = 0; k < steps.size(); ++k) {
    // Per-edge strategy selection. Only the first edge joins two base-table
    // scans; later edges consume a prior join's rehash output, whose
    // tuples exist nowhere until that join runs — semi/Bloom pre-filtering
    // has no scan to suppress, so those edges stay symmetric hash.
    query::JoinStrategy strategy = query::JoinStrategy::kSymmetricHash;
    if (k == 0 && options.join_strategy ==
                      query::JoinStrategy::kSymmetricHash) {
      JoinCostInputs ci;
      ci.left = &defs[0]->stats;
      ci.right = &defs[steps[k].table]->stats;
      ci.left_key_cols = steps[k].left_keys;
      ci.right_key_cols = steps[k].right_keys;
      strategy = ChooseJoinStrategy(ci).strategy;
    }
    upstream = query::AddJoin(&plan.graph, upstream, defs[steps[k].table]->name,
                              schemas[steps[k].table], strategy,
                              steps[k].left_keys, steps[k].right_keys);
  }
  // In-network aggregation over the join output: partial-aggregate at the
  // final join's rendezvous nodes, which ship their groups to the origin to
  // combine and finalize.
  query::AppendTail(&plan.graph, where, std::move(body), std::move(collect),
                    query::AggStrategy::kDirect);
  return plan;
}

// ---------------------------------------------------------------------------
// Index-scan access-path selection
// ---------------------------------------------------------------------------

/// The range a WHERE clause pins onto one indexed attribute. Bounds are the
/// CLOSED superset the cursor walks (strict bounds keep the literal; the
/// trailing exact filter re-checks), Null = open side.
struct IndexChoice {
  int col = -1;
  Value lo;
  Value hi;
  int bound_count = 0;
};

bool LiteralFitsColumn(const Value& lit, ValueType col_type) {
  switch (col_type) {
    case ValueType::kInt64:
      return lit.type() == ValueType::kInt64 ||
             lit.type() == ValueType::kDouble;
    case ValueType::kString:
      return lit.type() == ValueType::kString;
    default:
      return false;
  }
}

/// Picks the indexed attribute the WHERE conjuncts constrain best (two-sided
/// ranges beat one-sided ones). Only `col op literal` / `literal op col`
/// conjuncts count; everything else stays in the filter.
IndexChoice ChooseIndex(const sql::SelectStmt& stmt,
                        const catalog::TableDef& def, const Schema& schema) {
  std::vector<AstExprPtr> conjuncts;
  Conjuncts(stmt.where, &conjuncts);

  IndexChoice best;
  for (const catalog::IndexDef& idx : def.indexes) {
    IndexChoice choice;
    choice.col = idx.col;
    ValueType col_type =
        def.schema.column(static_cast<size_t>(idx.col)).type;
    bool has_lo = false, has_hi = false;
    for (const AstExprPtr& c : conjuncts) {
      if (c == nullptr || c->kind != AstExpr::Kind::kCompare) continue;
      // Normalize to column-on-the-left.
      AstExprPtr col_side = c->left, lit_side = c->right;
      exec::CompareOp op = c->cmp;
      if (col_side != nullptr && col_side->kind == AstExpr::Kind::kLiteral) {
        std::swap(col_side, lit_side);
        switch (op) {  // 5 < x  ==  x > 5
          case exec::CompareOp::kLt: op = exec::CompareOp::kGt; break;
          case exec::CompareOp::kLe: op = exec::CompareOp::kGe; break;
          case exec::CompareOp::kGt: op = exec::CompareOp::kLt; break;
          case exec::CompareOp::kGe: op = exec::CompareOp::kLe; break;
          default: break;
        }
      }
      if (lit_side == nullptr || lit_side->kind != AstExpr::Kind::kLiteral) {
        continue;
      }
      if (ColumnIndexIn(col_side, schema) != idx.col) continue;
      const Value& lit = lit_side->literal;
      if (lit.is_null() || !LiteralFitsColumn(lit, col_type)) continue;
      switch (op) {
        case exec::CompareOp::kGt:
        case exec::CompareOp::kGe:
          if (!has_lo || choice.lo.Compare(lit) < 0) choice.lo = lit;
          has_lo = true;
          break;
        case exec::CompareOp::kLt:
        case exec::CompareOp::kLe:
          if (!has_hi || lit.Compare(choice.hi) < 0) choice.hi = lit;
          has_hi = true;
          break;
        case exec::CompareOp::kEq:
          if (!has_lo || choice.lo.Compare(lit) < 0) choice.lo = lit;
          if (!has_hi || lit.Compare(choice.hi) < 0) choice.hi = lit;
          has_lo = has_hi = true;
          break;
        default:
          break;
      }
    }
    choice.bound_count = (has_lo ? 1 : 0) + (has_hi ? 1 : 0);
    if (choice.bound_count > best.bound_count) best = choice;
  }
  return best;
}

Result<QueryPlan> PlanSelect(const SelectStmt& stmt,
                             const catalog::Catalog& catalog,
                             const PlannerOptions& options) {
  if (stmt.from.empty()) {
    return Status::InvalidArgument("FROM must name at least one relation");
  }
  if (stmt.from.size() > 2) {
    return PlanMultiwayJoin(stmt, catalog, options);
  }
  const catalog::TableDef* left_def = catalog.Find(stmt.from[0].table);
  if (left_def == nullptr) {
    return Status::NotFound("unknown table: " + stmt.from[0].table);
  }
  Schema left_schema = AliasSchema(*left_def, stmt.from[0].alias);

  QueryPlan plan;
  plan.every = Seconds(stmt.every_seconds);
  plan.window = Seconds(stmt.window_seconds);
  ExprPtr where;
  OpNode body, collect;

  if (stmt.from.size() == 1) {
    if (stmt.where != nullptr) {
      PIER_RETURN_IF_ERROR(BindScalar(stmt.where, left_schema, &where));
    }
    PIER_RETURN_IF_ERROR(PlanOutput(stmt, left_schema, &body, &collect));
    // Access-path selection: a WHERE that pins an indexed attribute to a
    // range turns the broadcast scan into a PHT index scan. Windowed
    // continuous queries keep scanning — index entries carry their own
    // arrival times, not the base copies', so window semantics differ.
    IndexChoice choice;
    if (options.use_index && where != nullptr && plan.window == 0) {
      choice = ChooseIndex(stmt, *left_def, left_schema);
    }
    if (choice.bound_count == 0) {
      query::AddScan(&plan.graph, left_def->name, left_schema);
      query::AppendTail(&plan.graph, where, std::move(body),
                        std::move(collect), options.agg_strategy);
      return plan;
    }
    // The index-scan graph executes entirely at the origin (plus the trie
    // owners the cursor contacts). The full predicate re-applies after the
    // cursor: the encoded range is a superset (string truncation, double
    // bounds), and WHERE may carry conjuncts the index never saw. Raw
    // in-range rows aggregate completely at the origin (the cursor already
    // gathered them; a partial-agg layer would add nothing).
    query::AddIndexScan(&plan.graph, left_def->name, left_schema, choice.col,
                        choice.lo, choice.hi);
    query::AppendTail(&plan.graph, where, std::move(body), std::move(collect));
    return plan;
  }

  // -- join ------------------------------------------------------------------
  const catalog::TableDef* right_def = catalog.Find(stmt.from[1].table);
  if (right_def == nullptr) {
    return Status::NotFound("unknown table: " + stmt.from[1].table);
  }
  Schema right_schema = AliasSchema(*right_def, stmt.from[1].alias);
  Schema concat = Schema::Concat(left_schema, right_schema);

  // Collect conjuncts from ON and WHERE; extract equi-join keys.
  std::vector<AstExprPtr> conjuncts;
  Conjuncts(stmt.join_on, &conjuncts);
  Conjuncts(stmt.where, &conjuncts);
  std::vector<AstExprPtr> residual;
  std::vector<int> left_keys, right_keys;
  size_t left_width = left_schema.num_columns();
  for (const AstExprPtr& c : conjuncts) {
    bool is_key = false;
    if (c->kind == AstExpr::Kind::kCompare &&
        c->cmp == exec::CompareOp::kEq) {
      int a = ColumnIndexIn(c->left, concat);
      int b = ColumnIndexIn(c->right, concat);
      if (a >= 0 && b >= 0) {
        bool a_left = static_cast<size_t>(a) < left_width;
        bool b_left = static_cast<size_t>(b) < left_width;
        if (a_left != b_left) {
          int l = a_left ? a : b;
          int r = a_left ? b : a;
          left_keys.push_back(l);
          right_keys.push_back(r - static_cast<int>(left_width));
          is_key = true;
        }
      }
    }
    if (!is_key) residual.push_back(c);
  }
  if (left_keys.empty()) {
    return Status::NotSupported(
        "joins require at least one equality predicate between the two "
        "relations");
  }
  AstExprPtr residual_ast = AndAll(residual);
  if (residual_ast != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(residual_ast, concat, &where));
  }

  query::JoinStrategy strategy = options.join_strategy;
  if (options.prefer_fetch_matches &&
      right_def->partition_cols == right_keys) {
    // Partitioning alignment beats any cardinality argument: fetch-matches
    // ships zero tuples for the inner relation.
    strategy = query::JoinStrategy::kFetchMatches;
  } else if (options.join_strategy == query::JoinStrategy::kSymmetricHash) {
    // The caller left the strategy at its default, so the planner owns the
    // choice: consult table statistics and pick the cheapest shipping
    // strategy for this edge. Without stats this is a no-op (hash).
    JoinCostInputs ci;
    ci.left = &left_def->stats;
    ci.right = &right_def->stats;
    ci.left_key_cols = left_keys;
    ci.right_key_cols = right_keys;
    strategy = ChooseJoinStrategy(ci).strategy;
  }

  PIER_RETURN_IF_ERROR(PlanOutput(stmt, concat, &body, &collect));
  query::AddJoin(&plan.graph,
                 query::AddScan(&plan.graph, left_def->name, left_schema),
                 right_def->name, right_schema, strategy,
                 std::move(left_keys), std::move(right_keys));
  // Joined rows ship to the origin either way: projected, or raw for the
  // origin to aggregate.
  query::AppendTail(&plan.graph, where, std::move(body), std::move(collect));
  return plan;
}

Result<QueryPlan> PlanRecursive(const sql::RecursiveQuery& rq,
                                const catalog::Catalog& catalog) {
  if (rq.columns.size() != 2) {
    return Status::NotSupported(
        "recursive relations must declare exactly (src, dst)");
  }
  // Base: SELECT c1, c2 FROM edge [WHERE ...].
  if (rq.base.from.size() != 1 || rq.base.items.size() != 2) {
    return Status::NotSupported(
        "recursive base must be SELECT src, dst FROM <edges>");
  }
  const catalog::TableDef* edge_def = catalog.Find(rq.base.from[0].table);
  if (edge_def == nullptr) {
    return Status::NotFound("unknown edge table: " + rq.base.from[0].table);
  }
  Schema edge_schema = AliasSchema(*edge_def, rq.base.from[0].alias);
  int src_col = ColumnIndexIn(rq.base.items[0].expr, edge_schema);
  int dst_col = ColumnIndexIn(rq.base.items[1].expr, edge_schema);
  if (src_col < 0 || dst_col < 0) {
    return Status::NotSupported(
        "recursive base items must be edge-table columns");
  }
  // Step: must join the recursive relation with the same edge table (the
  // canonical transitive-closure shape); details are implied.
  bool step_uses_self = false, step_uses_edges = false;
  for (const sql::TableRef& ref : rq.step.from) {
    step_uses_self |= ref.table == rq.name;
    step_uses_edges |= ref.table == edge_def->name;
  }
  if (!step_uses_self || !step_uses_edges) {
    return Status::NotSupported(
        "recursive step must join " + rq.name + " with " + edge_def->name);
  }

  ExprPtr edge_where;
  if (rq.base.where != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(rq.base.where, edge_schema, &edge_where));
  }

  // Outer select runs over (src, dst, hops).
  Schema closure(rq.name, {{rq.columns[0], ValueType::kNull},
                           {rq.columns[1], ValueType::kNull},
                           {"hops", ValueType::kInt64}});
  if (rq.outer.from.size() != 1 || rq.outer.from[0].table != rq.name) {
    return Status::NotSupported("outer select must read FROM " + rq.name);
  }
  ExprPtr outer_where;
  if (rq.outer.where != nullptr) {
    PIER_RETURN_IF_ERROR(BindScalar(rq.outer.where, closure, &outer_where));
  }
  OpNode project = query::ProjectNode({});
  if (!rq.outer.select_star) {
    for (const sql::SelectItem& item : rq.outer.items) {
      ExprPtr bound;
      PIER_RETURN_IF_ERROR(BindScalar(item.expr, closure, &bound));
      project.exprs.push_back(bound);
    }
  }
  OpNode collect;
  collect.limit = rq.outer.limit;

  QueryPlan plan;
  query::AddScan(&plan.graph, edge_def->name, edge_schema);
  query::AddRecurse(&plan.graph, src_col, dst_col,
                    static_cast<int>(rq.max_hops), std::move(edge_where));
  query::AppendTail(&plan.graph, std::move(outer_where), std::move(project),
                    std::move(collect));
  return plan;
}

}  // namespace

Result<QueryPlan> PlanStatement(const sql::Statement& stmt,
                                const catalog::Catalog& catalog,
                                const PlannerOptions& options) {
  if (stmt.kind == sql::Statement::Kind::kRecursive) {
    return PlanRecursive(*stmt.recursive, catalog);
  }
  return PlanSelect(stmt.select, catalog, options);
}

Result<uint64_t> ExecuteSql(query::QueryEngine* engine, const std::string& sql,
                            query::QueryEngine::ResultCallback cb,
                            const PlannerOptions& options) {
  sql::Statement stmt;
  PIER_ASSIGN_OR_RETURN(stmt, sql::Parse(sql));
  query::QueryPlan plan;
  PIER_ASSIGN_OR_RETURN(plan, PlanStatement(stmt, *engine->catalog(),
                                            options));
  if (stmt.explain) {
    // EXPLAIN answers locally: the planned opgraph's rendering as a
    // one-row result. Nothing is disseminated; the id 0 marks "no query".
    query::ResultBatch batch;
    batch.rows.push_back({Value::String(plan.graph.ToString())});
    if (cb) cb(batch);
    return static_cast<uint64_t>(0);
  }
  return engine->Execute(std::move(plan), std::move(cb));
}

}  // namespace planner
}  // namespace pier
