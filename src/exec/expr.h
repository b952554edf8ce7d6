// Scalar expressions over tuples.
//
// Expressions are built by the SQL planner (or directly via the factory
// functions — the algebraic API) with column references already bound to
// tuple indices, so evaluation needs no schema. They serialize, because
// query plans carrying predicates are shipped to every node.
//
// NULL semantics follow SQL: comparisons involving NULL are false,
// arithmetic involving NULL is NULL, and IS NULL tests explicitly.

#ifndef PIER_EXEC_EXPR_H_
#define PIER_EXEC_EXPR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

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

/// Int64Arith boxed: the INT64 result, or NULL.
inline Value Int64ArithValue(ArithOp op, int64_t a, int64_t b) {
  int64_t r = 0;
  return Int64Arith(op, a, b, &r) ? Value::Int64(r) : Value::Null();
}

/// Structural description of one expression node, exposed through
/// Expr::Info() so the batch compiler (exec/kernels.h) can walk a bound
/// tree and emit vectorized kernels without widening the Expr interface
/// for every node type. Only the fields relevant to `kind` are meaningful.
struct ExprInfo {
  enum class Kind : uint8_t {
    kLiteral,
    kColumn,
    kCompare,
    kArith,
    kAnd,
    kOr,
    kNot,
    kNeg,
    kIsNull,
    kIsNotNull,
  };
  Kind kind = Kind::kLiteral;
  Value literal;                 ///< kLiteral
  int column = -1;               ///< kColumn
  CompareOp cmp = CompareOp::kEq;  ///< kCompare
  ArithOp arith = ArithOp::kAdd;   ///< kArith
  /// Children (borrowed; valid while the owning Expr lives). Unary nodes
  /// use `left` only.
  const Expr* left = nullptr;
  const Expr* right = nullptr;
};

/// Immutable expression tree node.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Evaluates against `t`. Type errors (e.g. 'a' + 1) return
  /// InvalidArgument; data-dependent hazards (division by zero) yield NULL.
  virtual Status Eval(const catalog::Tuple& t, Value* out) const = 0;

  /// Structural view of this node for the batch compiler. Scalar Eval()
  /// stays the semantic reference; compiled kernels must agree with it row
  /// for row (tests/vectorized_test.cc enforces this differentially).
  virtual ExprInfo Info() const = 0;

  /// Wire encoding (kind tag + operands).
  virtual void Serialize(Writer* w) const = 0;
  /// Rebuilds a tree from the wire (depth-limited against malicious input).
  static Status Deserialize(Reader* r, ExprPtr* out);

  /// Human-readable rendering for EXPLAIN-style output.
  virtual std::string ToString() const = 0;

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
