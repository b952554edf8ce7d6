// Scalar expressions over tuples.
//
// Expressions are built by the SQL planner (or directly via the factory
// functions — the algebraic API) with column references already bound to
// tuple indices, so evaluation needs no schema. They serialize, because
// query plans carrying predicates are shipped to every node.
//
// One node type serves both evaluation planes: Expr::Eval walks it a row at
// a time, and EvalSelection/EvalColumn (exec/kernels.h) walk the same node a
// batch at a time. Both take SQL's value semantics from CompareValues,
// ArithValues and NegateValue below.
//
// NULL semantics follow SQL: comparisons involving NULL are false,
// arithmetic involving NULL is NULL, and IS NULL tests explicitly.

#ifndef PIER_EXEC_EXPR_H_
#define PIER_EXEC_EXPR_H_

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "catalog/tuple.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/value.h"

namespace pier {
namespace exec {

class Expr;
using ExprPtr = std::shared_ptr<const Expr>;

enum class CompareOp : uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
enum class ArithOp : uint8_t { kAdd, kSub, kMul, kDiv, kMod };

const char* CompareOpName(CompareOp op);
const char* ArithOpName(ArithOp op);

/// Expr::Deserialize refuses trees nested deeper than this below their root,
/// and OpGraph::Validate refuses plans carrying one, so no member drops a
/// plan its origin accepted.
constexpr int kMaxExprDepth = 64;

/// Whether a three-way comparison result (<0, 0, >0) satisfies `op`.
inline bool CompareHolds(CompareOp op, int three_way) {
  switch (op) {
    case CompareOp::kEq:
      return three_way == 0;
    case CompareOp::kNe:
      return three_way != 0;
    case CompareOp::kLt:
      return three_way < 0;
    case CompareOp::kLe:
      return three_way <= 0;
    case CompareOp::kGt:
      return three_way > 0;
    case CompareOp::kGe:
      return three_way >= 0;
  }
  return false;
}

/// INT64 `a op b` into `*out`, the one definition both planes use. False
/// means the result is NULL: division or modulo by zero, or a result that
/// does not fit in int64 (overflowing + - *, INT64_MIN / -1). Negation is
/// 0 - a. INT64_MIN % -1 is 0.
inline bool Int64Arith(ArithOp op, int64_t a, int64_t b, int64_t* out) {
  switch (op) {
    case ArithOp::kAdd:
      return !__builtin_add_overflow(a, b, out);
    case ArithOp::kSub:
      return !__builtin_sub_overflow(a, b, out);
    case ArithOp::kMul:
      return !__builtin_mul_overflow(a, b, out);
    case ArithOp::kDiv:
      if (b == 0 || (b == -1 && a == INT64_MIN)) return false;
      *out = a / b;
      return true;
    case ArithOp::kMod:
      if (b == 0) return false;
      *out = b == -1 ? 0 : a % b;
      return true;
  }
  return false;
}

/// DOUBLE `a op b` into `*out`. False means the result is NULL: division or
/// modulo by zero.
inline bool DoubleArith(ArithOp op, double a, double b, double* out) {
  switch (op) {
    case ArithOp::kAdd:
      *out = a + b;
      return true;
    case ArithOp::kSub:
      *out = a - b;
      return true;
    case ArithOp::kMul:
      *out = a * b;
      return true;
    case ArithOp::kDiv:
      if (b == 0) return false;
      *out = a / b;
      return true;
    case ArithOp::kMod:
      if (b == 0) return false;
      *out = std::fmod(a, b);
      return true;
  }
  return false;
}

/// SQL `l op r`: false when either side is NULL, else Value::Compare's
/// order (INT64 and DOUBLE compare numerically).
bool CompareValues(CompareOp op, const Value& l, const Value& r);

/// SQL `l op r`: NULL when either side is NULL; STRING + STRING
/// concatenates; two INT64s go through Int64Arith, other numeric pairs
/// through DoubleArith. A non-numeric operand is InvalidArgument.
Status ArithValues(ArithOp op, const Value& l, const Value& r, Value* out);

/// SQL `-v`: NULL stays NULL, INT64 is 0 - v through Int64Arith, DOUBLE
/// flips its sign; any other type is InvalidArgument.
Status NegateValue(const Value& v, Value* out);

/// Immutable expression tree node. `kind` says which fields are meaningful.
/// Members hold the tree of every live plan, so the node stays small: the
/// leaves' payloads share one Value slot.
class Expr {
 public:
  /// The node kinds; each value is the node's tag on the wire.
  enum class Kind : uint8_t {
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

  Kind kind = Kind::kLiteral;
  CompareOp cmp = CompareOp::kEq;  ///< kCompare
  ArithOp arith = ArithOp::kAdd;   ///< kArith
  int column = -1;                 ///< kColumn: tuple index
  /// kLiteral: its value. kColumn: its cosmetic name for ToString, a
  /// STRING, or NULL when unnamed.
  Value literal;
  /// Operands. The unary kinds (NOT, negation, IS [NOT] NULL) use `left`.
  ExprPtr left, right;

  /// Evaluates against `t`. Type errors (e.g. 'a' + 1) return
  /// InvalidArgument; data-dependent hazards (division by zero) yield NULL.
  /// The batch kernels must agree with it row for row
  /// (tests/vectorized_test.cc checks this differentially).
  Status Eval(const catalog::Tuple& t, Value* out) const;

  /// Wire encoding: the kind tag, then the operator or leaf payload, then
  /// the operands.
  void Serialize(Writer* w) const;
  /// Rebuilds a tree from the wire (depth-limited against malicious input).
  static Status Deserialize(Reader* r, ExprPtr* out);

  /// Human-readable rendering for EXPLAIN-style output.
  std::string ToString() const;

  /// Levels of operands below this node (0 for a leaf).
  int Depth() const;

  // Factories (the algebraic expression-building API).
  static ExprPtr Literal(Value v);
  /// Reference to tuple column `index`; `name` is cosmetic (ToString).
  static ExprPtr Column(int index, std::string name = "");
  static ExprPtr Compare(CompareOp op, ExprPtr l, ExprPtr r);
  static ExprPtr Arith(ArithOp op, ExprPtr l, ExprPtr r);
  static ExprPtr And(ExprPtr l, ExprPtr r);
  static ExprPtr Or(ExprPtr l, ExprPtr r);
  static ExprPtr Not(ExprPtr e);
  static ExprPtr Negate(ExprPtr e);
  static ExprPtr IsNull(ExprPtr e, bool negated = false);
};

/// Evaluates `e` as a predicate: NULL and non-bool results are false.
Status EvalPredicate(const Expr& e, const catalog::Tuple& t, bool* out);

}  // namespace exec
}  // namespace pier

#endif  // PIER_EXEC_EXPR_H_
