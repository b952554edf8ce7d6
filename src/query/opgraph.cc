#include "query/opgraph.h"

namespace pier {
namespace query {

const char* JoinStrategyName(JoinStrategy s) {
  switch (s) {
    case JoinStrategy::kSymmetricHash:
      return "symmetric-hash";
    case JoinStrategy::kFetchMatches:
      return "fetch-matches";
    case JoinStrategy::kSymmetricSemi:
      return "symmetric-semi";
    case JoinStrategy::kBloom:
      return "bloom";
  }
  return "?";
}

const char* AggStrategyName(AggStrategy s) {
  switch (s) {
    case AggStrategy::kDirect:
      return "direct";
    case AggStrategy::kTree:
      return "tree";
  }
  return "?";
}

const char* OpTypeName(OpType t) {
  switch (t) {
    case OpType::kScan:
      return "scan";
    case OpType::kFilter:
      return "filter";
    case OpType::kProject:
      return "project";
    case OpType::kJoin:
      return "join";
    case OpType::kPartialAgg:
      return "partial-agg";
    case OpType::kFinalAgg:
      return "final-agg";
    case OpType::kRecurse:
      return "recurse";
    case OpType::kCollect:
      return "collect";
    case OpType::kIndexScan:
      return "index-scan";
  }
  return "?";
}

const char* ExchangeKindName(ExchangeKind k) {
  switch (k) {
    case ExchangeKind::kLocal:
      return "local";
    case ExchangeKind::kRehash:
      return "rehash";
    case ExchangeKind::kToOrigin:
      return "to-origin";
    case ExchangeKind::kTree:
      return "tree";
  }
  return "?";
}

namespace detail {

void PutOptionalExpr(Writer* w, const exec::ExprPtr& e) {
  w->PutBool(e != nullptr);
  if (e != nullptr) e->Serialize(w);
}

Status GetOptionalExpr(Reader* r, exec::ExprPtr* out) {
  bool present = false;
  PIER_RETURN_IF_ERROR(r->GetBool(&present));
  if (!present) {
    out->reset();
    return Status::OK();
  }
  return exec::Expr::Deserialize(r, out);
}

void PutIntVec(Writer* w, const std::vector<int>& v) {
  w->PutVarint32(static_cast<uint32_t>(v.size()));
  for (int x : v) w->PutVarint64Signed(x);
}

Status GetIntVec(Reader* r, std::vector<int>* out) {
  uint32_t n = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 100000) return Status::Corruption("int vector too long");
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    int64_t x = 0;
    PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&x));
    out->push_back(static_cast<int>(x));
  }
  return Status::OK();
}

}  // namespace detail

using detail::GetIntVec;
using detail::GetOptionalExpr;
using detail::PutIntVec;
using detail::PutOptionalExpr;

// Wire caps that bound allocation on corrupt input.
namespace {
constexpr uint32_t kMaxNodes = 64;
constexpr uint32_t kMaxInputs = 2;
constexpr uint32_t kMaxExprs = 1000;
constexpr uint32_t kMaxAggs = 1000;
}  // namespace

void OpNode::Serialize(Writer* w) const {
  w->PutU8(static_cast<uint8_t>(type));
  w->PutVarint32(static_cast<uint32_t>(inputs.size()));
  for (uint32_t in : inputs) w->PutVarint32(in);
  w->PutU8(static_cast<uint8_t>(out));
  w->PutString(table);
  schema.Serialize(w);
  PutOptionalExpr(w, predicate);
  w->PutVarint32(static_cast<uint32_t>(exprs.size()));
  for (const auto& e : exprs) e->Serialize(w);
  w->PutU8(static_cast<uint8_t>(strategy));
  PutIntVec(w, left_keys);
  PutIntVec(w, right_keys);
  PutIntVec(w, group_cols);
  w->PutVarint32(static_cast<uint32_t>(aggs.size()));
  for (const auto& a : aggs) a.Serialize(w);
  PutOptionalExpr(w, having);
  w->PutVarint64Signed(src_col);
  w->PutVarint64Signed(dst_col);
  w->PutVarint64Signed(max_hops);
  w->PutBool(distinct);
  PutIntVec(w, final_projection);
  w->PutVarint64Signed(order_col);
  w->PutBool(order_desc);
  w->PutVarint64Signed(limit);
  w->PutVarint64Signed(index_col);
  index_lo.Serialize(w);
  index_hi.Serialize(w);
}

Status OpNode::Deserialize(Reader* r, OpNode* out) {
  uint8_t type = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&type));
  if (type > static_cast<uint8_t>(OpType::kIndexScan)) {
    return Status::Corruption("bad op type");
  }
  out->type = static_cast<OpType>(type);
  uint32_t n = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > kMaxInputs) return Status::Corruption("too many op inputs");
  out->inputs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t in = 0;
    PIER_RETURN_IF_ERROR(r->GetVarint32(&in));
    out->inputs.push_back(in);
  }
  uint8_t exch = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&exch));
  if (exch > static_cast<uint8_t>(ExchangeKind::kTree)) {
    return Status::Corruption("bad exchange kind");
  }
  out->out = static_cast<ExchangeKind>(exch);
  PIER_RETURN_IF_ERROR(r->GetString(&out->table));
  PIER_RETURN_IF_ERROR(catalog::Schema::Deserialize(r, &out->schema));
  PIER_RETURN_IF_ERROR(GetOptionalExpr(r, &out->predicate));
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > kMaxExprs) return Status::Corruption("too many op exprs");
  out->exprs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    exec::ExprPtr e;
    PIER_RETURN_IF_ERROR(exec::Expr::Deserialize(r, &e));
    out->exprs.push_back(std::move(e));
  }
  uint8_t strategy = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&strategy));
  if (strategy > static_cast<uint8_t>(JoinStrategy::kBloom)) {
    return Status::Corruption("bad join strategy");
  }
  out->strategy = static_cast<JoinStrategy>(strategy);
  PIER_RETURN_IF_ERROR(GetIntVec(r, &out->left_keys));
  PIER_RETURN_IF_ERROR(GetIntVec(r, &out->right_keys));
  PIER_RETURN_IF_ERROR(GetIntVec(r, &out->group_cols));
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > kMaxAggs) return Status::Corruption("too many aggs");
  out->aggs.clear();
  for (uint32_t i = 0; i < n; ++i) {
    exec::AggSpec a;
    PIER_RETURN_IF_ERROR(exec::AggSpec::Deserialize(r, &a));
    out->aggs.push_back(std::move(a));
  }
  PIER_RETURN_IF_ERROR(GetOptionalExpr(r, &out->having));
  int64_t src_col = 0, dst_col = 0, max_hops = 0, order_col = 0, limit = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&src_col));
  PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&dst_col));
  PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&max_hops));
  out->src_col = static_cast<int>(src_col);
  out->dst_col = static_cast<int>(dst_col);
  out->max_hops = static_cast<int>(max_hops);
  PIER_RETURN_IF_ERROR(r->GetBool(&out->distinct));
  PIER_RETURN_IF_ERROR(GetIntVec(r, &out->final_projection));
  PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&order_col));
  out->order_col = static_cast<int>(order_col);
  PIER_RETURN_IF_ERROR(r->GetBool(&out->order_desc));
  PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&limit));
  out->limit = limit;
  int64_t index_col = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&index_col));
  out->index_col = static_cast<int>(index_col);
  PIER_RETURN_IF_ERROR(Value::Deserialize(r, &out->index_lo));
  return Value::Deserialize(r, &out->index_hi);
}

std::string OpNode::ToString() const {
  std::string s = OpTypeName(type);
  auto int_list = [](const std::vector<int>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(v[i]);
    }
    return out + "]";
  };
  switch (type) {
    case OpType::kScan:
      s += "(" + table + ")";
      break;
    case OpType::kIndexScan: {
      // The EXPLAIN-visible access path: which index, and what range the
      // PHT cursor will walk ("[" / "]" = closed side, "(" / ")" = open).
      std::string col = static_cast<size_t>(index_col) < schema.num_columns()
                            ? schema.column(index_col).name
                            : std::to_string(index_col);
      s += "(" + table + "." + col + " range=";
      s += index_lo.is_null() ? "(-inf" : "[" + index_lo.ToString();
      s += ", ";
      s += index_hi.is_null() ? "+inf)" : index_hi.ToString() + "]";
      s += ")";
      break;
    }
    case OpType::kFilter:
      if (predicate != nullptr) s += "(" + predicate->ToString() + ")";
      break;
    case OpType::kProject:
      s += "(" + std::to_string(exprs.size()) + " exprs)";
      break;
    case OpType::kJoin:
      s += "[" + std::string(JoinStrategyName(strategy)) + "] keys=" +
           int_list(left_keys) + "x" + int_list(right_keys);
      break;
    case OpType::kPartialAgg:
    case OpType::kFinalAgg: {
      s += "(group=" + int_list(group_cols) + " aggs=";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) s += ",";
        s += exec::AggFuncName(aggs[i].fn);
      }
      s += ")";
      if (having != nullptr) s += " having=" + having->ToString();
      break;
    }
    case OpType::kRecurse:
      s += "(src=" + std::to_string(src_col) +
           " dst=" + std::to_string(dst_col) +
           " maxhops=" + std::to_string(max_hops) + ")";
      if (predicate != nullptr) s += " edge-where=" + predicate->ToString();
      break;
    case OpType::kCollect: {
      std::string opts;
      if (distinct) opts += " distinct";
      if (!final_projection.empty()) {
        opts += " select=" + int_list(final_projection);
      }
      if (order_col >= 0) {
        opts += " order=" + std::to_string(order_col) +
                (order_desc ? " desc" : " asc");
      }
      if (limit >= 0) opts += " limit=" + std::to_string(limit);
      s += "(" + (opts.empty() ? std::string() : opts.substr(1)) + ")";
      break;
    }
  }
  return s;
}

Status OpGraph::Validate() const {
  if (nodes.empty()) return Status::InvalidArgument("empty opgraph");
  if (nodes.size() > kMaxNodes) return Status::Corruption("opgraph too large");
  std::vector<int> consumers(nodes.size(), 0);
  for (size_t i = 0; i < nodes.size(); ++i) {
    const OpNode& n = nodes[i];
    for (uint32_t in : n.inputs) {
      if (in >= i) return Status::Corruption("opgraph edge not topological");
      if (nodes[in].out == ExchangeKind::kRehash && n.type != OpType::kJoin) {
        return Status::Corruption("rehash exchange requires a join consumer");
      }
      ++consumers[in];
    }
    size_t want_inputs = 0;
    switch (n.type) {
      case OpType::kScan:
        want_inputs = 0;
        if (n.table.empty()) return Status::Corruption("scan without table");
        break;
      case OpType::kIndexScan:
        want_inputs = 0;
        if (n.table.empty()) {
          return Status::Corruption("index scan without table");
        }
        if (n.index_col < 0 ||
            static_cast<size_t>(n.index_col) >= n.schema.num_columns()) {
          return Status::Corruption("index scan column out of range");
        }
        if (n.out != ExchangeKind::kLocal &&
            n.out != ExchangeKind::kToOrigin) {
          return Status::Corruption(
              "index scan output must stay at the origin");
        }
        break;
      case OpType::kJoin:
        want_inputs = 2;
        if (n.left_keys.empty() || n.left_keys.size() != n.right_keys.size()) {
          return Status::Corruption("join key arity mismatch");
        }
        break;
      case OpType::kFilter:
        if (n.predicate == nullptr) {
          return Status::Corruption("filter without predicate");
        }
        want_inputs = 1;
        break;
      default:
        want_inputs = 1;
        break;
    }
    if (n.inputs.size() != want_inputs) {
      return Status::Corruption("bad input arity for " +
                                std::string(OpTypeName(n.type)));
    }
    if (n.out == ExchangeKind::kTree && n.type != OpType::kPartialAgg) {
      return Status::Corruption("tree exchange requires partial-agg producer");
    }
  }
  if (nodes.back().type != OpType::kCollect) {
    return Status::Corruption("opgraph root must be collect");
  }
  if (nodes.back().out == ExchangeKind::kRehash) {
    return Status::Corruption("rehash exchange requires a join consumer");
  }
  for (size_t i = 0; i + 1 < nodes.size(); ++i) {
    if (consumers[i] != 1) {
      return Status::Corruption("every interior node needs exactly one "
                                "consumer");
    }
  }
  if (consumers.back() != 0) {
    return Status::Corruption("collect cannot feed another node");
  }
  return Status::OK();
}

int OpGraph::FindFirst(OpType type) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (nodes[i].type == type) return static_cast<int>(i);
  }
  return -1;
}

int OpGraph::ConsumerOf(uint32_t id) const {
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (uint32_t in : nodes[i].inputs) {
      if (in == id) return static_cast<int>(i);
    }
  }
  return -1;
}

void OpGraph::Serialize(Writer* w) const {
  // Nodes serialize to a few dozen bytes each (kind, edges, columns); one
  // up-front reservation keeps plan encoding from growing through doubling.
  w->Reserve(8 + nodes.size() * 64);
  w->PutVarint32(static_cast<uint32_t>(nodes.size()));
  for (const OpNode& n : nodes) n.Serialize(w);
}

Status OpGraph::Deserialize(Reader* r, OpGraph* out) {
  uint32_t n = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > kMaxNodes) return Status::Corruption("opgraph too large");
  out->nodes.clear();
  out->nodes.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    OpNode node;
    PIER_RETURN_IF_ERROR(OpNode::Deserialize(r, &node));
    out->nodes.push_back(std::move(node));
  }
  return out->Validate();
}

std::string OpGraph::ToString() const {
  std::string s = "opgraph{\n";
  for (size_t i = 0; i < nodes.size(); ++i) {
    s += "  " + std::to_string(i) + ": " + nodes[i].ToString();
    if (!nodes[i].inputs.empty()) {
      s += " <- (";
      for (size_t k = 0; k < nodes[i].inputs.size(); ++k) {
        if (k > 0) s += ",";
        s += std::to_string(nodes[i].inputs[k]);
      }
      s += ")";
    }
    if (nodes[i].out != ExchangeKind::kLocal) {
      s += " => ";
      s += ExchangeKindName(nodes[i].out);
    }
    s += "\n";
  }
  s += "}";
  return s;
}

}  // namespace query
}  // namespace pier
