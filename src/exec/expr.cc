#include "exec/expr.h"

#include <algorithm>
#include <string>
#include <string_view>

namespace pier {
namespace exec {

namespace {

/// Operands a node of `kind` carries on the wire.
int Arity(Expr::Kind kind) {
  switch (kind) {
    case Expr::Kind::kLiteral:
    case Expr::Kind::kColumn:
      return 0;
    case Expr::Kind::kNot:
    case Expr::Kind::kNeg:
    case Expr::Kind::kIsNull:
    case Expr::Kind::kIsNotNull:
      return 1;
    case Expr::Kind::kCompare:
    case Expr::Kind::kArith:
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
      return 2;
  }
  return 0;
}

std::shared_ptr<Expr> Node(Expr::Kind kind, ExprPtr l = nullptr,
                           ExprPtr r = nullptr) {
  auto e = std::make_shared<Expr>();
  e->kind = kind;
  e->left = std::move(l);
  e->right = std::move(r);
  return e;
}

Status DeserializeAt(Reader* r, int depth, ExprPtr* out) {
  if (depth > kMaxExprDepth) return Status::Corruption("expr too deep");
  uint8_t tag = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&tag));
  if (tag < static_cast<uint8_t>(Expr::Kind::kLiteral) ||
      tag > static_cast<uint8_t>(Expr::Kind::kIsNotNull)) {
    return Status::Corruption("unknown expr tag");
  }
  std::shared_ptr<Expr> e = Node(static_cast<Expr::Kind>(tag));
  switch (e->kind) {
    case Expr::Kind::kLiteral:
      PIER_RETURN_IF_ERROR(Value::Deserialize(r, &e->literal));
      break;
    case Expr::Kind::kColumn: {
      uint32_t index = 0;
      std::string name;
      PIER_RETURN_IF_ERROR(r->GetVarint32(&index));
      PIER_RETURN_IF_ERROR(r->GetString(&name));
      e->column = static_cast<int>(index);
      if (!name.empty()) e->literal = Value::String(std::move(name));
      break;
    }
    case Expr::Kind::kCompare: {
      uint8_t op = 0;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      if (op > static_cast<uint8_t>(CompareOp::kGe)) {
        return Status::Corruption("bad compare op");
      }
      e->cmp = static_cast<CompareOp>(op);
      break;
    }
    case Expr::Kind::kArith: {
      uint8_t op = 0;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      if (op > static_cast<uint8_t>(ArithOp::kMod)) {
        return Status::Corruption("bad arith op");
      }
      e->arith = static_cast<ArithOp>(op);
      break;
    }
    default:
      break;
  }
  int arity = Arity(e->kind);
  if (arity >= 1) PIER_RETURN_IF_ERROR(DeserializeAt(r, depth + 1, &e->left));
  if (arity == 2) {
    PIER_RETURN_IF_ERROR(DeserializeAt(r, depth + 1, &e->right));
  }
  *out = std::move(e);
  return Status::OK();
}

}  // namespace

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

const char* ArithOpName(ArithOp op) {
  switch (op) {
    case ArithOp::kAdd:
      return "+";
    case ArithOp::kSub:
      return "-";
    case ArithOp::kMul:
      return "*";
    case ArithOp::kDiv:
      return "/";
    case ArithOp::kMod:
      return "%";
  }
  return "?";
}

bool CompareValues(CompareOp op, const Value& l, const Value& r) {
  if (l.is_null() || r.is_null()) return false;
  return CompareHolds(op, l.Compare(r));
}

Status ArithValues(ArithOp op, const Value& l, const Value& r, Value* out) {
  if (l.is_null() || r.is_null()) {
    *out = Value::Null();
    return Status::OK();
  }
  if (op == ArithOp::kAdd && l.type() == ValueType::kString &&
      r.type() == ValueType::kString) {
    *out = Value::String(l.string_value() + r.string_value());
    return Status::OK();
  }
  if (l.type() == ValueType::kInt64 && r.type() == ValueType::kInt64) {
    int64_t v = 0;
    *out = Int64Arith(op, l.int64_value(), r.int64_value(), &v)
               ? Value::Int64(v)
               : Value::Null();
    return Status::OK();
  }
  double a = 0, b = 0, v = 0;
  PIER_RETURN_IF_ERROR(l.AsDouble(&a));
  PIER_RETURN_IF_ERROR(r.AsDouble(&b));
  *out = DoubleArith(op, a, b, &v) ? Value::Double(v) : Value::Null();
  return Status::OK();
}

Status NegateValue(const Value& v, Value* out) {
  if (v.is_null()) {
    *out = Value::Null();
    return Status::OK();
  }
  if (v.type() == ValueType::kInt64) {
    int64_t n = 0;
    *out = Int64Arith(ArithOp::kSub, 0, v.int64_value(), &n) ? Value::Int64(n)
                                                             : Value::Null();
    return Status::OK();
  }
  double d = 0;
  PIER_RETURN_IF_ERROR(v.AsDouble(&d));
  *out = Value::Double(-d);
  return Status::OK();
}

Status Expr::Eval(const catalog::Tuple& t, Value* out) const {
  switch (kind) {
    case Kind::kLiteral:
      *out = literal;
      return Status::OK();
    case Kind::kColumn:
      if (column < 0 || static_cast<size_t>(column) >= t.size()) {
        return Status::InvalidArgument("column index " +
                                       std::to_string(column) +
                                       " out of range for tuple of " +
                                       std::to_string(t.size()));
      }
      *out = t[column];
      return Status::OK();
    case Kind::kCompare:
    case Kind::kArith: {
      Value l, r;
      PIER_RETURN_IF_ERROR(left->Eval(t, &l));
      PIER_RETURN_IF_ERROR(right->Eval(t, &r));
      if (kind == Kind::kArith) return ArithValues(arith, l, r, out);
      *out = Value::Bool(CompareValues(cmp, l, r));
      return Status::OK();
    }
    case Kind::kAnd:
    case Kind::kOr: {
      // Short circuit: the right operand runs, and can fail, only when the
      // left one does not decide.
      bool b = false;
      PIER_RETURN_IF_ERROR(EvalPredicate(*left, t, &b));
      if (b != (kind == Kind::kOr)) {
        PIER_RETURN_IF_ERROR(EvalPredicate(*right, t, &b));
      }
      *out = Value::Bool(b);
      return Status::OK();
    }
    case Kind::kNot: {
      bool b = false;
      PIER_RETURN_IF_ERROR(EvalPredicate(*left, t, &b));
      *out = Value::Bool(!b);
      return Status::OK();
    }
    case Kind::kNeg: {
      Value v;
      PIER_RETURN_IF_ERROR(left->Eval(t, &v));
      return NegateValue(v, out);
    }
    case Kind::kIsNull:
    case Kind::kIsNotNull: {
      Value v;
      PIER_RETURN_IF_ERROR(left->Eval(t, &v));
      *out = Value::Bool(v.is_null() == (kind == Kind::kIsNull));
      return Status::OK();
    }
  }
  return Status::Internal("unreachable expr kind");
}

void Expr::Serialize(Writer* w) const {
  w->PutU8(static_cast<uint8_t>(kind));
  switch (kind) {
    case Kind::kLiteral:
      literal.Serialize(w);
      break;
    case Kind::kColumn:
      w->PutVarint32(static_cast<uint32_t>(column));
      w->PutString(literal.is_null() ? std::string_view()
                                     : literal.string_value());
      break;
    case Kind::kCompare:
      w->PutU8(static_cast<uint8_t>(cmp));
      break;
    case Kind::kArith:
      w->PutU8(static_cast<uint8_t>(arith));
      break;
    default:
      break;
  }
  if (left != nullptr) left->Serialize(w);
  if (right != nullptr) right->Serialize(w);
}

Status Expr::Deserialize(Reader* r, ExprPtr* out) {
  return DeserializeAt(r, 0, out);
}

std::string Expr::ToString() const {
  auto infix = [this](const std::string& op) {
    return "(" + left->ToString() + " " + op + " " + right->ToString() + ")";
  };
  switch (kind) {
    case Kind::kLiteral:
      return literal.ToString();
    case Kind::kColumn:
      return literal.is_null() ? "$" + std::to_string(column)
                               : literal.string_value();
    case Kind::kCompare:
      return infix(CompareOpName(cmp));
    case Kind::kArith:
      return infix(ArithOpName(arith));
    case Kind::kAnd:
      return infix("AND");
    case Kind::kOr:
      return infix("OR");
    case Kind::kNot:
      return "(NOT " + left->ToString() + ")";
    case Kind::kNeg:
      return "(-" + left->ToString() + ")";
    case Kind::kIsNull:
      return "(" + left->ToString() + " IS NULL)";
    case Kind::kIsNotNull:
      return "(" + left->ToString() + " IS NOT NULL)";
  }
  return "?";
}

int Expr::Depth() const {
  int below = 0;
  if (left != nullptr) below = 1 + left->Depth();
  if (right != nullptr) below = std::max(below, 1 + right->Depth());
  return below;
}

ExprPtr Expr::Literal(Value v) {
  std::shared_ptr<Expr> e = Node(Kind::kLiteral);
  e->literal = std::move(v);
  return e;
}
ExprPtr Expr::Column(int index, std::string name) {
  std::shared_ptr<Expr> e = Node(Kind::kColumn);
  e->column = index;
  if (!name.empty()) e->literal = Value::String(std::move(name));
  return e;
}
ExprPtr Expr::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = Node(Kind::kCompare, std::move(l), std::move(r));
  e->cmp = op;
  return e;
}
ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  std::shared_ptr<Expr> e = Node(Kind::kArith, std::move(l), std::move(r));
  e->arith = op;
  return e;
}
ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  return Node(Kind::kAnd, std::move(l), std::move(r));
}
ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  return Node(Kind::kOr, std::move(l), std::move(r));
}
ExprPtr Expr::Not(ExprPtr e) { return Node(Kind::kNot, std::move(e)); }
ExprPtr Expr::Negate(ExprPtr e) { return Node(Kind::kNeg, std::move(e)); }
ExprPtr Expr::IsNull(ExprPtr e, bool negated) {
  return Node(negated ? Kind::kIsNotNull : Kind::kIsNull, std::move(e));
}

Status EvalPredicate(const Expr& e, const catalog::Tuple& t, bool* out) {
  Value v;
  PIER_RETURN_IF_ERROR(e.Eval(t, &v));
  *out = v.type() == ValueType::kBool && v.bool_value();
  return Status::OK();
}

}  // namespace exec
}  // namespace pier
