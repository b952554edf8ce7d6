#include "exec/expr.h"

#include <cmath>

namespace pier {
namespace exec {

namespace {

enum class ExprTag : uint8_t {
  kLiteral = 1,
  kColumn = 2,
  kCompare = 3,
  kArith = 4,
  kAnd = 5,
  kOr = 6,
  kNot = 7,
  kNeg = 8,
  kIsNull = 9,
  kIsNotNull = 10,
};

constexpr int kMaxExprDepth = 64;

Status DeserializeImpl(Reader* r, int depth, ExprPtr* out);

// ---------------------------------------------------------------------------

class LiteralExpr : public Expr {
 public:
  explicit LiteralExpr(Value v) : value_(std::move(v)) {}
  Status Eval(const catalog::Tuple&, Value* out) const override {
    *out = value_;
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(ExprTag::kLiteral));
    value_.Serialize(w);
  }
  std::string ToString() const override { return value_.ToString(); }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = ExprInfo::Kind::kLiteral;
    info.literal = value_;
    return info;
  }

 private:
  Value value_;
};

class ColumnExpr : public Expr {
 public:
  ColumnExpr(int index, std::string name)
      : index_(index), name_(std::move(name)) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    if (index_ < 0 || static_cast<size_t>(index_) >= t.size()) {
      return Status::InvalidArgument("column index " +
                                     std::to_string(index_) +
                                     " out of range for tuple of " +
                                     std::to_string(t.size()));
    }
    *out = t[index_];
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(ExprTag::kColumn));
    w->PutVarint32(static_cast<uint32_t>(index_));
    w->PutString(name_);
  }
  std::string ToString() const override {
    return name_.empty() ? "$" + std::to_string(index_) : name_;
  }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = ExprInfo::Kind::kColumn;
    info.column = index_;
    return info;
  }

 private:
  int index_;
  std::string name_;
};

class CompareExpr : public Expr {
 public:
  CompareExpr(CompareOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    Value lv, rv;
    PIER_RETURN_IF_ERROR(l_->Eval(t, &lv));
    PIER_RETURN_IF_ERROR(r_->Eval(t, &rv));
    if (lv.is_null() || rv.is_null()) {
      *out = Value::Bool(false);  // SQL: NULL comparisons are not true
      return Status::OK();
    }
    int c = lv.Compare(rv);
    bool result = false;
    switch (op_) {
      case CompareOp::kEq:
        result = c == 0;
        break;
      case CompareOp::kNe:
        result = c != 0;
        break;
      case CompareOp::kLt:
        result = c < 0;
        break;
      case CompareOp::kLe:
        result = c <= 0;
        break;
      case CompareOp::kGt:
        result = c > 0;
        break;
      case CompareOp::kGe:
        result = c >= 0;
        break;
    }
    *out = Value::Bool(result);
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(ExprTag::kCompare));
    w->PutU8(static_cast<uint8_t>(op_));
    l_->Serialize(w);
    r_->Serialize(w);
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + " " + CompareOpName(op_) + " " +
           r_->ToString() + ")";
  }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = ExprInfo::Kind::kCompare;
    info.cmp = op_;
    info.left = l_.get();
    info.right = r_.get();
    return info;
  }

 private:
  CompareOp op_;
  ExprPtr l_, r_;
};

class ArithExpr : public Expr {
 public:
  ArithExpr(ArithOp op, ExprPtr l, ExprPtr r)
      : op_(op), l_(std::move(l)), r_(std::move(r)) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    Value lv, rv;
    PIER_RETURN_IF_ERROR(l_->Eval(t, &lv));
    PIER_RETURN_IF_ERROR(r_->Eval(t, &rv));
    if (lv.is_null() || rv.is_null()) {
      *out = Value::Null();
      return Status::OK();
    }
    // String concatenation via '+'.
    if (op_ == ArithOp::kAdd && lv.type() == ValueType::kString &&
        rv.type() == ValueType::kString) {
      *out = Value::String(lv.string_value() + rv.string_value());
      return Status::OK();
    }
    bool both_int = lv.type() == ValueType::kInt64 &&
                    rv.type() == ValueType::kInt64;
    if (both_int) {
      *out = Int64ArithValue(op_, lv.int64_value(), rv.int64_value());
      return Status::OK();
    }
    double a = 0, b = 0;
    PIER_RETURN_IF_ERROR(lv.AsDouble(&a));
    PIER_RETURN_IF_ERROR(rv.AsDouble(&b));
    switch (op_) {
      case ArithOp::kAdd:
        *out = Value::Double(a + b);
        return Status::OK();
      case ArithOp::kSub:
        *out = Value::Double(a - b);
        return Status::OK();
      case ArithOp::kMul:
        *out = Value::Double(a * b);
        return Status::OK();
      case ArithOp::kDiv:
        if (b == 0) {
          *out = Value::Null();
          return Status::OK();
        }
        *out = Value::Double(a / b);
        return Status::OK();
      case ArithOp::kMod:
        if (b == 0) {
          *out = Value::Null();
          return Status::OK();
        }
        *out = Value::Double(std::fmod(a, b));
        return Status::OK();
    }
    return Status::Internal("unreachable arith op");
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(ExprTag::kArith));
    w->PutU8(static_cast<uint8_t>(op_));
    l_->Serialize(w);
    r_->Serialize(w);
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + " " + ArithOpName(op_) + " " +
           r_->ToString() + ")";
  }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = ExprInfo::Kind::kArith;
    info.arith = op_;
    info.left = l_.get();
    info.right = r_.get();
    return info;
  }

 private:
  ArithOp op_;
  ExprPtr l_, r_;
};

class LogicExpr : public Expr {
 public:
  LogicExpr(bool is_and, ExprPtr l, ExprPtr r)
      : is_and_(is_and), l_(std::move(l)), r_(std::move(r)) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    bool lb = false, rb = false;
    PIER_RETURN_IF_ERROR(EvalPredicate(*l_, t, &lb));
    // Short circuit.
    if (is_and_ && !lb) {
      *out = Value::Bool(false);
      return Status::OK();
    }
    if (!is_and_ && lb) {
      *out = Value::Bool(true);
      return Status::OK();
    }
    PIER_RETURN_IF_ERROR(EvalPredicate(*r_, t, &rb));
    *out = Value::Bool(rb);
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(is_and_ ? ExprTag::kAnd : ExprTag::kOr));
    l_->Serialize(w);
    r_->Serialize(w);
  }
  std::string ToString() const override {
    return "(" + l_->ToString() + (is_and_ ? " AND " : " OR ") +
           r_->ToString() + ")";
  }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = is_and_ ? ExprInfo::Kind::kAnd : ExprInfo::Kind::kOr;
    info.left = l_.get();
    info.right = r_.get();
    return info;
  }

 private:
  bool is_and_;
  ExprPtr l_, r_;
};

class NotExpr : public Expr {
 public:
  explicit NotExpr(ExprPtr e) : e_(std::move(e)) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    bool b = false;
    PIER_RETURN_IF_ERROR(EvalPredicate(*e_, t, &b));
    *out = Value::Bool(!b);
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(ExprTag::kNot));
    e_->Serialize(w);
  }
  std::string ToString() const override {
    return "(NOT " + e_->ToString() + ")";
  }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = ExprInfo::Kind::kNot;
    info.left = e_.get();
    return info;
  }

 private:
  ExprPtr e_;
};

class NegExpr : public Expr {
 public:
  explicit NegExpr(ExprPtr e) : e_(std::move(e)) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    Value v;
    PIER_RETURN_IF_ERROR(e_->Eval(t, &v));
    if (v.is_null()) {
      *out = Value::Null();
      return Status::OK();
    }
    if (v.type() == ValueType::kInt64) {
      *out = Int64ArithValue(ArithOp::kSub, 0, v.int64_value());
      return Status::OK();
    }
    double d = 0;
    PIER_RETURN_IF_ERROR(v.AsDouble(&d));
    *out = Value::Double(-d);
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(ExprTag::kNeg));
    e_->Serialize(w);
  }
  std::string ToString() const override { return "(-" + e_->ToString() + ")"; }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind = ExprInfo::Kind::kNeg;
    info.left = e_.get();
    return info;
  }

 private:
  ExprPtr e_;
};

class IsNullExpr : public Expr {
 public:
  IsNullExpr(ExprPtr e, bool negated) : e_(std::move(e)), negated_(negated) {}
  Status Eval(const catalog::Tuple& t, Value* out) const override {
    Value v;
    PIER_RETURN_IF_ERROR(e_->Eval(t, &v));
    *out = Value::Bool(negated_ ? !v.is_null() : v.is_null());
    return Status::OK();
  }
  void Serialize(Writer* w) const override {
    w->PutU8(static_cast<uint8_t>(negated_ ? ExprTag::kIsNotNull
                                           : ExprTag::kIsNull));
    e_->Serialize(w);
  }
  std::string ToString() const override {
    return "(" + e_->ToString() + (negated_ ? " IS NOT NULL" : " IS NULL") +
           ")";
  }
  ExprInfo Info() const override {
    ExprInfo info;
    info.kind =
        negated_ ? ExprInfo::Kind::kIsNotNull : ExprInfo::Kind::kIsNull;
    info.left = e_.get();
    return info;
  }

 private:
  ExprPtr e_;
  bool negated_;
};

Status DeserializeImpl(Reader* r, int depth, ExprPtr* out) {
  if (depth > kMaxExprDepth) return Status::Corruption("expr too deep");
  uint8_t tag = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&tag));
  switch (static_cast<ExprTag>(tag)) {
    case ExprTag::kLiteral: {
      Value v;
      PIER_RETURN_IF_ERROR(Value::Deserialize(r, &v));
      *out = Expr::Literal(std::move(v));
      return Status::OK();
    }
    case ExprTag::kColumn: {
      uint32_t index = 0;
      std::string name;
      PIER_RETURN_IF_ERROR(r->GetVarint32(&index));
      PIER_RETURN_IF_ERROR(r->GetString(&name));
      *out = Expr::Column(static_cast<int>(index), std::move(name));
      return Status::OK();
    }
    case ExprTag::kCompare: {
      uint8_t op = 0;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      if (op > static_cast<uint8_t>(CompareOp::kGe)) {
        return Status::Corruption("bad compare op");
      }
      ExprPtr l, rr;
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &l));
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &rr));
      *out = Expr::Compare(static_cast<CompareOp>(op), l, rr);
      return Status::OK();
    }
    case ExprTag::kArith: {
      uint8_t op = 0;
      PIER_RETURN_IF_ERROR(r->GetU8(&op));
      if (op > static_cast<uint8_t>(ArithOp::kMod)) {
        return Status::Corruption("bad arith op");
      }
      ExprPtr l, rr;
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &l));
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &rr));
      *out = Expr::Arith(static_cast<ArithOp>(op), l, rr);
      return Status::OK();
    }
    case ExprTag::kAnd:
    case ExprTag::kOr: {
      ExprPtr l, rr;
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &l));
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &rr));
      *out = static_cast<ExprTag>(tag) == ExprTag::kAnd ? Expr::And(l, rr)
                                                        : Expr::Or(l, rr);
      return Status::OK();
    }
    case ExprTag::kNot: {
      ExprPtr e;
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &e));
      *out = Expr::Not(e);
      return Status::OK();
    }
    case ExprTag::kNeg: {
      ExprPtr e;
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &e));
      *out = Expr::Negate(e);
      return Status::OK();
    }
    case ExprTag::kIsNull:
    case ExprTag::kIsNotNull: {
      ExprPtr e;
      PIER_RETURN_IF_ERROR(DeserializeImpl(r, depth + 1, &e));
      *out = Expr::IsNull(e, static_cast<ExprTag>(tag) == ExprTag::kIsNotNull);
      return Status::OK();
    }
  }
  return Status::Corruption("unknown expr tag");
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

ExprPtr Expr::Literal(Value v) {
  return std::make_shared<LiteralExpr>(std::move(v));
}
ExprPtr Expr::Column(int index, std::string name) {
  return std::make_shared<ColumnExpr>(index, std::move(name));
}
ExprPtr Expr::Compare(CompareOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<CompareExpr>(op, std::move(l), std::move(r));
}
ExprPtr Expr::Arith(ArithOp op, ExprPtr l, ExprPtr r) {
  return std::make_shared<ArithExpr>(op, std::move(l), std::move(r));
}
ExprPtr Expr::And(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicExpr>(true, std::move(l), std::move(r));
}
ExprPtr Expr::Or(ExprPtr l, ExprPtr r) {
  return std::make_shared<LogicExpr>(false, std::move(l), std::move(r));
}
ExprPtr Expr::Not(ExprPtr e) {
  return std::make_shared<NotExpr>(std::move(e));
}
ExprPtr Expr::Negate(ExprPtr e) {
  return std::make_shared<NegExpr>(std::move(e));
}
ExprPtr Expr::IsNull(ExprPtr e, bool negated) {
  return std::make_shared<IsNullExpr>(std::move(e), negated);
}

Status Expr::Deserialize(Reader* r, ExprPtr* out) {
  return DeserializeImpl(r, 0, out);
}

Status EvalPredicate(const Expr& e, const catalog::Tuple& t, bool* out) {
  Value v;
  PIER_RETURN_IF_ERROR(e.Eval(t, &v));
  *out = v.type() == ValueType::kBool && v.bool_value();
  return Status::OK();
}

}  // namespace exec
}  // namespace pier
