// Exec tests: expression evaluation and serialization, aggregate partial/
// merge/finalize algebra, and every scalar operator. The engine's
// group-by split (partial -> merge -> finalize) is checked against the
// scalar one-pass GroupBy in vectorized_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>

#include "common/rng.h"
#include "exec/agg.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/operators.h"

namespace pier {
namespace exec {
namespace {

using catalog::Tuple;

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

TEST(ExprTest, ArithmeticAndComparison) {
  // ($0 + 2) * 3 >= 15
  auto e = Expr::Compare(
      CompareOp::kGe,
      Expr::Arith(ArithOp::kMul,
                  Expr::Arith(ArithOp::kAdd, Expr::Column(0),
                              Expr::Literal(Value::Int64(2))),
                  Expr::Literal(Value::Int64(3))),
      Expr::Literal(Value::Int64(15)));
  Value out;
  ASSERT_TRUE(e->Eval(Tuple{Value::Int64(3)}, &out).ok());
  EXPECT_TRUE(out.bool_value());  // (3+2)*3 = 15 >= 15
  ASSERT_TRUE(e->Eval(Tuple{Value::Int64(2)}, &out).ok());
  EXPECT_FALSE(out.bool_value());  // 12 < 15
}

TEST(ExprTest, IntegerVsDoubleArithmetic) {
  auto add = Expr::Arith(ArithOp::kAdd, Expr::Column(0), Expr::Column(1));
  Value out;
  ASSERT_TRUE(add->Eval(Tuple{Value::Int64(1), Value::Int64(2)}, &out).ok());
  EXPECT_EQ(out.type(), ValueType::kInt64);
  ASSERT_TRUE(
      add->Eval(Tuple{Value::Int64(1), Value::Double(2.5)}, &out).ok());
  EXPECT_EQ(out.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(out.double_value(), 3.5);
}

TEST(ExprTest, StringConcatViaPlus) {
  auto e = Expr::Arith(ArithOp::kAdd, Expr::Literal(Value::String("foo")),
                       Expr::Literal(Value::String("bar")));
  Value out;
  ASSERT_TRUE(e->Eval({}, &out).ok());
  EXPECT_EQ(out.string_value(), "foobar");
}

TEST(ExprTest, DivisionByZeroYieldsNull) {
  auto e = Expr::Arith(ArithOp::kDiv, Expr::Literal(Value::Int64(5)),
                       Expr::Literal(Value::Int64(0)));
  Value out;
  ASSERT_TRUE(e->Eval({}, &out).ok());
  EXPECT_TRUE(out.is_null());
}

// An INT64 result that does not fit is NULL, like division by zero —
// never a trap (INT64_MIN / -1 raises SIGFPE on x86) or signed overflow.
TEST(ExprTest, Int64OverflowYieldsNull) {
  const int64_t kMin = INT64_MIN, kMax = INT64_MAX;
  auto eval = [](ArithOp op, int64_t a, int64_t b) {
    Value out;
    EXPECT_TRUE(Expr::Arith(op, Expr::Column(0), Expr::Column(1))
                    ->Eval(Tuple{Value::Int64(a), Value::Int64(b)}, &out)
                    .ok());
    return out;
  };
  EXPECT_TRUE(eval(ArithOp::kDiv, kMin, -1).is_null());
  EXPECT_EQ(eval(ArithOp::kMod, kMin, -1).int64_value(), 0);
  EXPECT_TRUE(eval(ArithOp::kAdd, kMax, 1).is_null());
  EXPECT_TRUE(eval(ArithOp::kSub, kMin, 1).is_null());
  EXPECT_TRUE(eval(ArithOp::kMul, kMax, 2).is_null());
  EXPECT_TRUE(eval(ArithOp::kMul, kMin, -1).is_null());
  // In range, every operator stays exact at the edges.
  EXPECT_EQ(eval(ArithOp::kDiv, kMin, 1).int64_value(), kMin);
  EXPECT_EQ(eval(ArithOp::kAdd, kMax, kMin).int64_value(), -1);
  EXPECT_EQ(eval(ArithOp::kSub, kMin, kMin).int64_value(), 0);
  EXPECT_EQ(eval(ArithOp::kMul, kMin, 1).int64_value(), kMin);
  EXPECT_EQ(eval(ArithOp::kMod, kMin, 3).int64_value(), kMin % 3);

  Value neg;
  ASSERT_TRUE(Expr::Negate(Expr::Column(0))
                  ->Eval(Tuple{Value::Int64(kMin)}, &neg)
                  .ok());
  EXPECT_TRUE(neg.is_null());
  ASSERT_TRUE(Expr::Negate(Expr::Column(0))
                  ->Eval(Tuple{Value::Int64(kMax)}, &neg)
                  .ok());
  EXPECT_EQ(neg.int64_value(), -kMax);
}

TEST(ExprTest, NullComparisonIsFalse) {
  auto e = Expr::Compare(CompareOp::kEq, Expr::Column(0),
                         Expr::Literal(Value::Int64(1)));
  bool pass = true;
  ASSERT_TRUE(EvalPredicate(*e, Tuple{Value::Null()}, &pass).ok());
  EXPECT_FALSE(pass);
}

TEST(ExprTest, IsNullOperators) {
  auto is_null = Expr::IsNull(Expr::Column(0));
  auto not_null = Expr::IsNull(Expr::Column(0), /*negated=*/true);
  Value out;
  ASSERT_TRUE(is_null->Eval(Tuple{Value::Null()}, &out).ok());
  EXPECT_TRUE(out.bool_value());
  ASSERT_TRUE(not_null->Eval(Tuple{Value::Int64(1)}, &out).ok());
  EXPECT_TRUE(out.bool_value());
}

TEST(ExprTest, ShortCircuitLogic) {
  // (FALSE AND <error>) must not evaluate the error side.
  auto bad = Expr::Arith(ArithOp::kAdd, Expr::Literal(Value::String("x")),
                         Expr::Literal(Value::Int64(1)));
  auto guarded = Expr::And(Expr::Literal(Value::Bool(false)), bad);
  bool pass = true;
  ASSERT_TRUE(EvalPredicate(*guarded, {}, &pass).ok());
  EXPECT_FALSE(pass);
}

TEST(ExprTest, ColumnOutOfRangeIsError) {
  auto e = Expr::Column(5);
  Value out;
  EXPECT_FALSE(e->Eval(Tuple{Value::Int64(1)}, &out).ok());
}

TEST(ExprTest, TypeMismatchIsError) {
  auto e = Expr::Arith(ArithOp::kMul, Expr::Literal(Value::String("x")),
                       Expr::Literal(Value::Int64(2)));
  Value out;
  EXPECT_FALSE(e->Eval({}, &out).ok());
}

TEST(ExprTest, SerializeRoundTripPreservesSemantics) {
  auto original = Expr::Or(
      Expr::And(Expr::Compare(CompareOp::kGt, Expr::Column(0, "hits"),
                              Expr::Literal(Value::Int64(10))),
                Expr::Not(Expr::IsNull(Expr::Column(1)))),
      Expr::Compare(CompareOp::kEq, Expr::Column(1),
                    Expr::Literal(Value::String("x"))));
  Writer w;
  original->Serialize(&w);
  Reader r(w.buffer());
  ExprPtr back;
  ASSERT_TRUE(Expr::Deserialize(&r, &back).ok());
  EXPECT_EQ(original->ToString(), back->ToString());
  // Same verdicts on sample tuples.
  for (int64_t hits : {5, 15}) {
    for (bool null_col : {true, false}) {
      Tuple t{Value::Int64(hits),
              null_col ? Value::Null() : Value::String("y")};
      bool a = false, b = false;
      ASSERT_TRUE(EvalPredicate(*original, t, &a).ok());
      ASSERT_TRUE(EvalPredicate(*back, t, &b).ok());
      EXPECT_EQ(a, b);
    }
  }
}

TEST(ExprTest, DeserializeRejectsGarbage) {
  Reader r("\x63garbage");
  ExprPtr out;
  EXPECT_FALSE(Expr::Deserialize(&r, &out).ok());
}

// OpGraph::Validate refuses plans by Depth(), so Depth() must draw the line
// exactly where the decoder does.
TEST(ExprTest, DepthMatchesTheDecoderLimit) {
  for (int depth : {kMaxExprDepth - 1, kMaxExprDepth, kMaxExprDepth + 1}) {
    ExprPtr e = Expr::Column(0);
    for (int i = 0; i < depth; ++i) e = Expr::Not(e);
    EXPECT_EQ(e->Depth(), depth);
    Writer w;
    e->Serialize(&w);
    Reader r(w.buffer());
    ExprPtr back;
    EXPECT_EQ(Expr::Deserialize(&r, &back).ok(), depth <= kMaxExprDepth)
        << "depth " << depth;
  }
}

// ---------------------------------------------------------------------------
// Aggregate algebra
// ---------------------------------------------------------------------------

TEST(AggTest, SumOfNothingIsNullCountIsZero) {
  AggSpec sum{AggFunc::kSum, 0, "s"};
  AggSpec count{AggFunc::kCount, -1, "c"};
  Value v1, v2;
  AggInit(sum, &v1, &v2);
  EXPECT_TRUE(AggFinalize(sum, v1, v2).is_null());
  AggInit(count, &v1, &v2);
  EXPECT_EQ(AggFinalize(count, v1, v2).int64_value(), 0);
}

TEST(AggTest, CountColumnSkipsNulls) {
  AggSpec c{AggFunc::kCount, 0, "c"};
  Value v1, v2;
  AggInit(c, &v1, &v2);
  AggUpdate(c, Tuple{Value::Int64(1)}, &v1, &v2);
  AggUpdate(c, Tuple{Value::Null()}, &v1, &v2);
  AggUpdate(c, Tuple{Value::Int64(3)}, &v1, &v2);
  EXPECT_EQ(AggFinalize(c, v1, v2).int64_value(), 2);
}

TEST(AggTest, AvgAcrossPartials) {
  AggSpec avg{AggFunc::kAvg, 0, "a"};
  // Partial 1: values 1, 2. Partial 2: value 6.
  Value a1, a2, b1, b2;
  AggInit(avg, &a1, &a2);
  AggUpdate(avg, Tuple{Value::Int64(1)}, &a1, &a2);
  AggUpdate(avg, Tuple{Value::Int64(2)}, &a1, &a2);
  AggInit(avg, &b1, &b2);
  AggUpdate(avg, Tuple{Value::Int64(6)}, &b1, &b2);
  AggMerge(avg, b1, b2, &a1, &a2);
  EXPECT_DOUBLE_EQ(AggFinalize(avg, a1, a2).double_value(), 3.0);
}

// An INT64 SUM that would overflow widens to DOUBLE, as a mixed
// INT64/DOUBLE sum does; so does AVG's running sum.
TEST(AggTest, OverflowingSumWidensToDouble) {
  const double kBig = static_cast<double>(INT64_MAX);
  AggSpec sum{AggFunc::kSum, 0, "s"};
  Value v1, v2;
  AggInit(sum, &v1, &v2);
  AggUpdate(sum, Tuple{Value::Int64(INT64_MAX)}, &v1, &v2);
  EXPECT_EQ(v1.type(), ValueType::kInt64);
  AggUpdate(sum, Tuple{Value::Int64(INT64_MAX)}, &v1, &v2);
  ASSERT_EQ(v1.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(v1.double_value(), 2 * kBig);

  // Merging two partials that each fit, across the tree.
  Value p1, p2, q1, q2;
  AggInit(sum, &p1, &p2);
  AggInit(sum, &q1, &q2);
  AggUpdate(sum, Tuple{Value::Int64(INT64_MIN)}, &p1, &p2);
  AggUpdate(sum, Tuple{Value::Int64(-1)}, &q1, &q2);
  AggMerge(sum, q1, q2, &p1, &p2);
  ASSERT_EQ(p1.type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(p1.double_value(), static_cast<double>(INT64_MIN) - 1);

  GroupBy gb({}, {sum, {AggFunc::kAvg, 0, "a"}});
  for (int i = 0; i < 4; ++i) gb.Push(Tuple{Value::Int64(INT64_MAX)});
  std::vector<Tuple> rows = gb.Drain();
  ASSERT_EQ(rows.size(), 1u);
  ASSERT_EQ(rows[0][0].type(), ValueType::kDouble);
  EXPECT_DOUBLE_EQ(rows[0][0].double_value(), 4 * kBig);
  EXPECT_DOUBLE_EQ(rows[0][1].double_value(), kBig);
}

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

std::vector<Tuple> Ints(std::initializer_list<int64_t> vs) {
  std::vector<Tuple> rows;
  for (int64_t v : vs) rows.push_back(Tuple{Value::Int64(v)});
  return rows;
}

TEST(OperatorTest, FilterKeepsMatchesInOrder) {
  std::vector<Tuple> kept =
      Filter(*Expr::Compare(CompareOp::kGt, Expr::Column(0),
                            Expr::Literal(Value::Int64(5))),
             Ints({3, 7, 5, 9}));
  EXPECT_EQ(kept, Ints({7, 9}));
}

TEST(OperatorTest, FilterEvalErrorDropsTupleNotQuery) {
  // Predicate multiplies a string — an error for bad rows only.
  std::vector<Tuple> kept =
      Filter(*Expr::Compare(CompareOp::kGt,
                            Expr::Arith(ArithOp::kMul, Expr::Column(0),
                                        Expr::Literal(Value::Int64(2))),
                            Expr::Literal(Value::Int64(0))),
             {Tuple{Value::String("bad")}, Tuple{Value::Int64(3)}});
  EXPECT_EQ(kept, Ints({3}));
}

TEST(OperatorTest, ProjectComputes) {
  // The second row's sum errors (string + int): it keeps its slot, with
  // NULL in the failed column.
  std::vector<Tuple> out =
      Project({Expr::Column(1), Expr::Arith(ArithOp::kAdd, Expr::Column(0),
                                            Expr::Literal(Value::Int64(100)))},
              {Tuple{Value::Int64(1), Value::String("x")},
               Tuple{Value::String("bad"), Value::String("y")}});
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0][0].string_value(), "x");
  EXPECT_EQ(out[0][1].int64_value(), 101);
  EXPECT_EQ(out[1][0].string_value(), "y");
  EXPECT_TRUE(out[1][1].is_null());
}

TEST(OperatorTest, DistinctSuppressesDuplicates) {
  EXPECT_EQ(Distinct(Ints({1, 1, 2, 1})), Ints({1, 2}));
}

TEST(OperatorTest, TopKOrdersAndBounds) {
  EXPECT_EQ(TopK(Ints({5, 1, 9, 3, 7, 2}), /*order_col=*/0,
                 /*descending=*/true, /*k=*/3),
            Ints({9, 7, 5}));
}

// Random rows with heavy ties on the order column: the top-k must equal a
// full sort-and-truncate under the same total order (the order column, then
// the whole row), for k below, at and above the row count, and k = 0.
TEST(OperatorTest, TopKMatchesSortAndTruncate) {
  Rng rng(2024);
  std::vector<Tuple> rows;
  for (int i = 0; i < 300; ++i) {
    rows.push_back(Tuple{Value::Int64(rng.UniformInt(0, 9)),
                         Value::Int64(rng.UniformInt(0, 49))});
  }
  for (bool desc : {false, true}) {
    std::vector<Tuple> sorted = rows;
    std::sort(sorted.begin(), sorted.end(),
              [desc](const Tuple& a, const Tuple& b) {
                int c = a[0].Compare(b[0]);
                if (c != 0) return desc ? c > 0 : c < 0;
                return catalog::CompareTuples(a, b) < 0;
              });
    for (size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{64},
                     rows.size(), rows.size() + 10}) {
      SCOPED_TRACE("desc=" + std::to_string(desc) +
                   " k=" + std::to_string(k));
      std::vector<Tuple> want(
          sorted.begin(), sorted.begin() + std::min(k, sorted.size()));
      EXPECT_EQ(TopK(rows, /*order_col=*/0, desc, k), want);
    }
  }
}

// LIMIT pushdown on the batch plane: a kToOrigin sink that hits its cap
// mid-batch truncates the live tail instead of delivering it, mirroring the
// tuple sink that stops accepting at row k.
TEST(BatchTest, TruncateLiveStopsMidBatch) {
  RowBatchBuilder builder(std::vector<ValueType>{ValueType::kInt64});
  for (int64_t v : {10, 11, 12, 13, 14, 15}) {
    builder.Append(Tuple{Value::Int64(v)});
  }
  RowBatch b = builder.Take();

  // No selection installed: truncation synthesizes one.
  b.TruncateLive(4);
  ASSERT_EQ(b.ActiveRows(), 4u);
  EXPECT_EQ(b.column(0).ValueAt(b.RowId(3)).int64_value(), 13);

  // Truncating an already-selected batch shrinks the selection in place,
  // preserving live order.
  b.SetSelection({1, 3, 5});
  b.TruncateLive(2);
  ASSERT_EQ(b.ActiveRows(), 2u);
  EXPECT_EQ(b.column(0).ValueAt(b.RowId(0)).int64_value(), 11);
  EXPECT_EQ(b.column(0).ValueAt(b.RowId(1)).int64_value(), 13);

  // A cap at or above the live count is a no-op.
  b.TruncateLive(10);
  EXPECT_EQ(b.ActiveRows(), 2u);
}

TEST(BatchTest, SliceLiveChunksInLiveOrder) {
  RowBatchBuilder builder(std::vector<ValueType>{ValueType::kInt64});
  for (int64_t v = 0; v < 7; ++v) builder.Append(Tuple{Value::Int64(v)});
  RowBatch b = builder.Take();
  b.SetSelection({0, 2, 4, 6});

  RowBatch mid = b.SliceLive(1, 2);
  ASSERT_EQ(mid.ActiveRows(), 2u);
  EXPECT_EQ(mid.column(0).ValueAt(0).int64_value(), 2);
  EXPECT_EQ(mid.column(0).ValueAt(1).int64_value(), 4);

  // Tail slices clamp instead of reading past the live set.
  EXPECT_EQ(b.SliceLive(3, 5).ActiveRows(), 1u);
  EXPECT_EQ(b.SliceLive(9, 2).ActiveRows(), 0u);
}

// Rehash resources and group tables hash cells unboxed; one differing bit
// would send equal keys to different rendezvous nodes.
TEST(BatchTest, CellHashEqualsValueHashOnEveryLane) {
  const double kNaN = std::nan("");
  const std::vector<std::pair<Column::Kind, std::vector<Value>>> lanes = {
      {Column::Kind::kInt64,
       {Value::Int64(0), Value::Int64(-7), Value::Int64(INT64_MIN),
        Value::Null()}},
      {Column::Kind::kDouble,
       {Value::Double(5.0), Value::Double(-0.0), Value::Double(2.5),
        Value::Double(1e19), Value::Double(kNaN), Value::Null()}},
      {Column::Kind::kString,
       {Value::String(""), Value::String("pier"), Value::Null()}},
      {Column::Kind::kBool, {Value::Bool(true), Value::Bool(false),
                             Value::Null()}},
      {Column::Kind::kMixed,
       {Value::Int64(3), Value::Double(3.0), Value::String("x"),
        Value::Bytes("x"), Value::Bool(true), Value::Null()}},
  };
  for (const auto& [kind, values] : lanes) {
    Column c(kind);
    for (const Value& v : values) c.AppendValue(v);
    ASSERT_EQ(c.kind(), kind);
    for (size_t row = 0; row < values.size(); ++row) {
      EXPECT_EQ(c.CellHash(row), c.ValueAt(row).Hash())
          << "kind=" << static_cast<int>(kind) << " row=" << row << " "
          << values[row].ToString();
    }
  }
}

/// Inserts `rows` on `side`, collecting what they join with.
void InsertAll(SymmetricHashJoin* join, int side,
               const std::vector<Tuple>& rows, std::vector<Tuple>* out) {
  for (const Tuple& t : rows) {
    join->Insert(side, t, [out](const Tuple& j) { out->push_back(j); });
  }
}

TEST(OperatorTest, SymmetricHashJoinStreamsMatches) {
  SymmetricHashJoin shj({0}, {0});
  std::vector<Tuple> out;
  InsertAll(&shj, 0, {Tuple{Value::Int64(1), Value::String("l1")}}, &out);
  EXPECT_TRUE(out.empty());
  InsertAll(&shj, 1, {Tuple{Value::Int64(1), Value::String("r1")}}, &out);
  ASSERT_EQ(out.size(), 1u);  // match now
  EXPECT_EQ(out[0], (Tuple{Value::Int64(1), Value::String("l1"),
                           Value::Int64(1), Value::String("r1")}));
  // Later left arrival still matches earlier right (symmetry); the output
  // stays left ++ right.
  InsertAll(&shj, 0, {Tuple{Value::Int64(1), Value::String("l2")}}, &out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[1][1].string_value(), "l2");
  // Non-matching key.
  InsertAll(&shj, 0, {Tuple{Value::Int64(9), Value::String("l3")}}, &out);
  EXPECT_EQ(out.size(), 2u);
}

TEST(OperatorTest, SymmetricHashJoinNullKeysNeverMatch) {
  SymmetricHashJoin shj({0}, {0});
  std::vector<Tuple> out;
  InsertAll(&shj, 0, {Tuple{Value::Null()}}, &out);
  InsertAll(&shj, 1, {Tuple{Value::Null()}}, &out);
  EXPECT_TRUE(out.empty());
}

TEST(OperatorTest, SymmetricHashJoinKeyPastTupleEndNeverMatches) {
  // Rehash arrivals narrower than the key index (a faulty peer's short key
  // projections) all hash to one bucket; comparing them must not read past
  // the tuples.
  SymmetricHashJoin shj({1}, {1});
  std::vector<Tuple> out;
  InsertAll(&shj, 0, Ints({1}), &out);
  InsertAll(&shj, 1, Ints({1}), &out);
  InsertAll(&shj, 0, Ints({2}), &out);
  EXPECT_TRUE(out.empty());
}

TEST(OperatorTest, GroupByReferenceMatchesHandComputation) {
  GroupBy gb({0}, {{AggFunc::kSum, 1, "s"}, {AggFunc::kMax, 1, "m"}});
  gb.Push(Tuple{Value::String("a"), Value::Int64(1)});
  gb.Push(Tuple{Value::String("b"), Value::Int64(5)});
  gb.Push(Tuple{Value::String("a"), Value::Int64(3)});
  std::vector<Tuple> rows = gb.Drain();
  ASSERT_EQ(rows.size(), 2u);
  // Ordered map keeps groups sorted: 'a' first.
  EXPECT_EQ(rows[0][1].int64_value(), 4);
  EXPECT_EQ(rows[0][2].int64_value(), 3);
  EXPECT_EQ(rows[1][1].int64_value(), 5);
}

TEST(OperatorTest, GroupByDrainResetsForWindows) {
  GroupBy gb({}, {{AggFunc::kCount, -1, "c"}});
  gb.Push(Tuple{Value::Int64(1)});
  gb.Push(Tuple{Value::Int64(2)});
  std::vector<Tuple> first = gb.Drain();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0][0].int64_value(), 2);
  // Window 2: state was reset.
  gb.Push(Tuple{Value::Int64(3)});
  std::vector<Tuple> second = gb.Drain();
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0][0].int64_value(), 1);
}

}  // namespace
}  // namespace exec
}  // namespace pier
