// The scalar relational operator library: plain row functions (filter,
// project, distinct, top-k) and two accumulators (a one-pass group-by,
// symmetric hash join). The query layer calls the row functions and the
// join directly — the origin tail, the join rendezvous — and the test
// oracle calls the same functions, so both evaluate a plan with one set of
// semantics. Group-by is the exception: the engine runs the batch
// exec::VectorGroupBy (exec/kernels.h) in every phase, and GroupBy here is
// the oracle's independent one-pass reference for it.

#ifndef PIER_EXEC_OPERATORS_H_
#define PIER_EXEC_OPERATORS_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "exec/agg.h"
#include "exec/expr.h"

namespace pier {
namespace exec {

/// The rows `predicate` keeps, in order. Evaluation errors drop the row
/// (bad data must not kill a long-running distributed query; mirrors
/// PIER's soft-failure philosophy).
std::vector<catalog::Tuple> Filter(const Expr& predicate,
                                   std::vector<catalog::Tuple> rows);

/// [e1(t), e2(t), ...] for each row; an expression that errors on a row
/// yields NULL in that column.
std::vector<catalog::Tuple> Project(const std::vector<ExprPtr>& exprs,
                                    const std::vector<catalog::Tuple>& rows);

/// The first occurrence of each distinct row (exact, by value), in order.
std::vector<catalog::Tuple> Distinct(std::vector<catalog::Tuple> rows);

/// ORDER BY <col> [DESC] LIMIT k: the best k rows, sorted. Ties on the
/// order column break on the whole row, a total order, so the answer is
/// the same whatever order the rows arrived in.
std::vector<catalog::Tuple> TopK(std::vector<catalog::Tuple> rows,
                                 int order_col, bool descending, size_t k);

/// The scalar GROUP BY reference: raw rows in, final aggregates out, in
/// one pass (AggInit and AggUpdate per row, AggFinalize at Drain). The
/// engine aggregates with exec::VectorGroupBy (exec/kernels.h); the test
/// oracle and the differential tests hold it to this.
class GroupBy {
 public:
  GroupBy(std::vector<int> group_cols, std::vector<AggSpec> aggs);

  /// Folds one raw row (a group column past its end reads as NULL).
  void Push(const catalog::Tuple& t);
  /// [group values..., one final value per agg] per group, in sorted key
  /// order; state is cleared (window boundary).
  std::vector<catalog::Tuple> Drain();

 private:
  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  // Group key -> accumulated partial states (2 values per agg).
  std::map<catalog::Tuple, std::vector<Value>> groups_;
};

/// Pipelined symmetric hash join: builds hash tables on both inputs and
/// probes the opposite side on every arrival, so results stream out as soon
/// as both matching rows exist — no blocking, which is what makes it
/// suitable for continuously arriving rehashed rows. Output rows are the
/// concatenation left ++ right. A NULL key, or a key column past a row's
/// end, never matches.
class SymmetricHashJoin {
 public:
  using MatchFn = std::function<void(const catalog::Tuple& joined)>;

  SymmetricHashJoin(std::vector<int> left_key_cols,
                    std::vector<int> right_key_cols);

  /// Inserts `row` on `side` (0 = left, 1 = right) and calls `on_match`
  /// once per row of the other side it joins with.
  void Insert(int side, const catalog::Tuple& row, const MatchFn& on_match);

 private:
  bool KeysEqual(const catalog::Tuple& l, const catalog::Tuple& r) const;

  std::vector<int> left_keys_, right_keys_;
  std::unordered_map<uint64_t, std::vector<catalog::Tuple>> left_table_;
  std::unordered_map<uint64_t, std::vector<catalog::Tuple>> right_table_;
};

}  // namespace exec
}  // namespace pier

#endif  // PIER_EXEC_OPERATORS_H_
