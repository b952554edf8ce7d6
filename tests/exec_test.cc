// Exec tests: expression evaluation and serialization, aggregate partial/
// merge/finalize algebra, and every local dataflow operator — including a
// property-style check that partial+combine+final equals single-site
// aggregation for random inputs, the invariant in-network aggregation
// depends on.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "common/rng.h"
#include "exec/agg.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "exec/operator.h"
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

// Property: for random data and any partition into k fragments,
// partial -> combine -> final equals single-site aggregation.
class AggDecomposabilityTest : public ::testing::TestWithParam<int> {};

TEST_P(AggDecomposabilityTest, PartialsComposeToSameAnswer) {
  const int kFragments = GetParam();
  Rng rng(1234 + kFragments);
  std::vector<AggSpec> specs = {{AggFunc::kCount, -1, "c"},
                                {AggFunc::kSum, 1, "s"},
                                {AggFunc::kAvg, 1, "a"},
                                {AggFunc::kMin, 1, "mn"},
                                {AggFunc::kMax, 1, "mx"}};
  // Random rows: (group, value).
  std::vector<Tuple> rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Tuple{Value::Int64(rng.UniformInt(0, 4)),
                         Value::Int64(rng.UniformInt(-50, 50))});
  }

  // Reference: single-site complete aggregation.
  GroupByOp reference({0}, specs, AggPhase::kComplete);
  CollectorSink ref_sink;
  reference.AddOutput(&ref_sink);
  for (const Tuple& t : rows) reference.Push(t, 0);
  reference.FlushAndReset();

  // Distributed: k partial fragments, one combine stage, then final.
  std::vector<Tuple> partials;
  for (int f = 0; f < kFragments; ++f) {
    GroupByOp partial({0}, specs, AggPhase::kPartial);
    FnSink sink([&partials](const Tuple& t) { partials.push_back(t); });
    partial.AddOutput(&sink);
    for (size_t i = f; i < rows.size(); i += kFragments) {
      partial.Push(rows[i], 0);
    }
    partial.FlushAndReset();
  }
  GroupByOp combine({0}, specs, AggPhase::kCombine);
  std::vector<Tuple> combined;
  FnSink csink([&combined](const Tuple& t) { combined.push_back(t); });
  combine.AddOutput(&csink);
  for (const Tuple& t : partials) combine.Push(t, 0);
  combine.FlushAndReset();
  GroupByOp final_gb({0}, specs, AggPhase::kFinal);
  CollectorSink final_sink;
  final_gb.AddOutput(&final_sink);
  for (const Tuple& t : combined) final_gb.Push(t, 0);
  final_gb.FlushAndReset();

  // Same groups, same values.
  auto key_fn = [](const std::vector<Tuple>& ts) {
    std::map<int64_t, Tuple> by_group;
    for (const Tuple& t : ts) by_group[t[0].int64_value()] = t;
    return by_group;
  };
  auto ref = key_fn(ref_sink.rows());
  auto got = key_fn(final_sink.rows());
  ASSERT_EQ(ref.size(), got.size());
  for (const auto& [group, expected] : ref) {
    ASSERT_TRUE(got.count(group));
    EXPECT_EQ(catalog::CompareTuples(expected, got[group]), 0)
        << "group " << group << ": " << catalog::TupleToString(expected)
        << " vs " << catalog::TupleToString(got[group]);
  }
}

INSTANTIATE_TEST_SUITE_P(Fragments, AggDecomposabilityTest,
                         ::testing::Values(1, 2, 3, 7, 16));

// ---------------------------------------------------------------------------
// Operators
// ---------------------------------------------------------------------------

TEST(OperatorTest, FilterDropsAndCounts) {
  FilterOp filter(Expr::Compare(CompareOp::kGt, Expr::Column(0),
                                Expr::Literal(Value::Int64(5))));
  CollectorSink sink;
  filter.AddOutput(&sink);
  for (int64_t v : {3, 7, 5, 9}) filter.Push(Tuple{Value::Int64(v)}, 0);
  filter.PushEos(0);
  EXPECT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(filter.dropped(), 2u);
  EXPECT_TRUE(sink.eos());
}

TEST(OperatorTest, FilterEvalErrorDropsTupleNotQuery) {
  // Predicate multiplies a string — an error for bad rows only.
  FilterOp filter(Expr::Compare(CompareOp::kGt,
                                Expr::Arith(ArithOp::kMul, Expr::Column(0),
                                            Expr::Literal(Value::Int64(2))),
                                Expr::Literal(Value::Int64(0))));
  CollectorSink sink;
  filter.AddOutput(&sink);
  filter.Push(Tuple{Value::String("bad")}, 0);
  filter.Push(Tuple{Value::Int64(3)}, 0);
  EXPECT_EQ(sink.rows().size(), 1u);
}

TEST(OperatorTest, ProjectComputes) {
  ProjectOp project({Expr::Column(1),
                     Expr::Arith(ArithOp::kAdd, Expr::Column(0),
                                 Expr::Literal(Value::Int64(100)))});
  CollectorSink sink;
  project.AddOutput(&sink);
  project.Push(Tuple{Value::Int64(1), Value::String("x")}, 0);
  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_EQ(sink.rows()[0][0].string_value(), "x");
  EXPECT_EQ(sink.rows()[0][1].int64_value(), 101);
}

TEST(OperatorTest, DistinctSuppressesDuplicates) {
  DistinctOp distinct;
  CollectorSink sink;
  distinct.AddOutput(&sink);
  distinct.Push(Tuple{Value::Int64(1)}, 0);
  distinct.Push(Tuple{Value::Int64(1)}, 0);
  distinct.Push(Tuple{Value::Int64(2)}, 0);
  distinct.Push(Tuple{Value::Int64(1)}, 0);
  EXPECT_EQ(sink.rows().size(), 2u);
  EXPECT_EQ(distinct.unique_count(), 2u);
}

TEST(OperatorTest, TopKOrdersAndBounds) {
  TopKOp topk(/*order_col=*/0, /*descending=*/true, /*k=*/3);
  CollectorSink sink;
  topk.AddOutput(&sink);
  for (int64_t v : {5, 1, 9, 3, 7, 2}) topk.Push(Tuple{Value::Int64(v)}, 0);
  topk.PushEos(0);
  ASSERT_EQ(sink.rows().size(), 3u);
  EXPECT_EQ(sink.rows()[0][0].int64_value(), 9);
  EXPECT_EQ(sink.rows()[1][0].int64_value(), 7);
  EXPECT_EQ(sink.rows()[2][0].int64_value(), 5);
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
      TopKOp topk(/*order_col=*/0, desc, k);
      CollectorSink sink;
      topk.AddOutput(&sink);
      for (const Tuple& t : rows) topk.Push(t, 0);
      topk.FlushAndReset();
      EXPECT_EQ(sink.rows(), want);
    }
  }
}

TEST(OperatorTest, LimitPassesFirstK) {
  LimitOp limit(2);
  CollectorSink sink;
  limit.AddOutput(&sink);
  for (int64_t v : {1, 2, 3, 4}) limit.Push(Tuple{Value::Int64(v)}, 0);
  EXPECT_EQ(sink.rows().size(), 2u);
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

TEST(OperatorTest, UnionMergesAndCountsEos) {
  UnionOp u;
  u.SetNumInputs(3);
  CollectorSink sink;
  u.AddOutput(&sink);
  u.Push(Tuple{Value::Int64(1)}, 0);
  u.Push(Tuple{Value::Int64(2)}, 1);
  u.PushEos(0);
  u.PushEos(1);
  EXPECT_FALSE(sink.eos());  // third input still open
  u.PushEos(2);
  EXPECT_TRUE(sink.eos());
  EXPECT_EQ(sink.rows().size(), 2u);
}

TEST(OperatorTest, SymmetricHashJoinStreamsMatches) {
  SymmetricHashJoinOp shj({0}, {0}, nullptr);
  CollectorSink sink;
  shj.AddOutput(&sink);
  shj.Push(Tuple{Value::Int64(1), Value::String("l1")}, 0);
  EXPECT_TRUE(sink.rows().empty());
  shj.Push(Tuple{Value::Int64(1), Value::String("r1")}, 1);  // match now
  ASSERT_EQ(sink.rows().size(), 1u);
  EXPECT_EQ(sink.rows()[0].size(), 4u);
  // Later left arrival still matches earlier right (symmetry).
  shj.Push(Tuple{Value::Int64(1), Value::String("l2")}, 0);
  EXPECT_EQ(sink.rows().size(), 2u);
  // Non-matching key.
  shj.Push(Tuple{Value::Int64(9), Value::String("l3")}, 0);
  EXPECT_EQ(sink.rows().size(), 2u);
}

TEST(OperatorTest, SymmetricHashJoinNullKeysNeverMatch) {
  SymmetricHashJoinOp shj({0}, {0}, nullptr);
  CollectorSink sink;
  shj.AddOutput(&sink);
  shj.Push(Tuple{Value::Null()}, 0);
  shj.Push(Tuple{Value::Null()}, 1);
  EXPECT_TRUE(sink.rows().empty());
}

TEST(OperatorTest, SymmetricHashJoinKeyPastTupleEndNeverMatches) {
  // Rehash arrivals narrower than the key index (a faulty peer's short key
  // projections) all hash to one bucket; comparing them must not read past
  // the tuples.
  SymmetricHashJoinOp shj({1}, {1}, nullptr);
  CollectorSink sink;
  shj.AddOutput(&sink);
  shj.Push(Tuple{Value::Int64(1)}, 0);
  shj.Push(Tuple{Value::Int64(1)}, 1);
  shj.Push(Tuple{Value::Int64(2)}, 0);
  EXPECT_TRUE(sink.rows().empty());
}

TEST(OperatorTest, SymmetricHashJoinResidualPredicate) {
  // Residual over concat: left payload < right payload.
  auto residual =
      Expr::Compare(CompareOp::kLt, Expr::Column(1), Expr::Column(3));
  SymmetricHashJoinOp shj({0}, {0}, residual);
  CollectorSink sink;
  shj.AddOutput(&sink);
  shj.Push(Tuple{Value::Int64(1), Value::Int64(10)}, 0);
  shj.Push(Tuple{Value::Int64(1), Value::Int64(5)}, 1);   // 10 < 5: no
  shj.Push(Tuple{Value::Int64(1), Value::Int64(20)}, 1);  // 10 < 20: yes
  EXPECT_EQ(sink.rows().size(), 1u);
}

TEST(OperatorTest, GroupByReferenceMatchesHandComputation) {
  GroupByOp gb({0}, {{AggFunc::kSum, 1, "s"}, {AggFunc::kMax, 1, "m"}},
               AggPhase::kComplete);
  CollectorSink sink;
  gb.AddOutput(&sink);
  gb.Push(Tuple{Value::String("a"), Value::Int64(1)}, 0);
  gb.Push(Tuple{Value::String("b"), Value::Int64(5)}, 0);
  gb.Push(Tuple{Value::String("a"), Value::Int64(3)}, 0);
  gb.PushEos(0);
  ASSERT_EQ(sink.rows().size(), 2u);
  // Ordered map keeps groups sorted: 'a' first.
  EXPECT_EQ(sink.rows()[0][1].int64_value(), 4);
  EXPECT_EQ(sink.rows()[0][2].int64_value(), 3);
  EXPECT_EQ(sink.rows()[1][1].int64_value(), 5);
}

TEST(OperatorTest, GroupByFlushAndResetForWindows) {
  GroupByOp gb({}, {{AggFunc::kCount, -1, "c"}}, AggPhase::kComplete);
  std::vector<Tuple> flushed;
  FnSink sink([&flushed](const Tuple& t) { flushed.push_back(t); });
  gb.AddOutput(&sink);
  gb.Push(Tuple{Value::Int64(1)}, 0);
  gb.Push(Tuple{Value::Int64(2)}, 0);
  gb.FlushAndReset();
  ASSERT_EQ(flushed.size(), 1u);
  EXPECT_EQ(flushed[0][0].int64_value(), 2);
  // Window 2: state was reset.
  gb.Push(Tuple{Value::Int64(3)}, 0);
  gb.FlushAndReset();
  ASSERT_EQ(flushed.size(), 2u);
  EXPECT_EQ(flushed[1][0].int64_value(), 1);
}

TEST(OperatorTest, DataflowOwnsAndConnects) {
  Dataflow flow;
  auto* filter = flow.Add<FilterOp>(Expr::Compare(
      CompareOp::kGt, Expr::Column(0), Expr::Literal(Value::Int64(0))));
  auto* project = flow.Add<ProjectOp>(std::vector<ExprPtr>{Expr::Column(0)});
  auto* sink = flow.Add<CollectorSink>();
  flow.Connect(filter, project);
  flow.Connect(project, sink);
  filter->Push(Tuple{Value::Int64(5), Value::String("x")}, 0);
  filter->Push(Tuple{Value::Int64(-5), Value::String("y")}, 0);
  EXPECT_EQ(sink->rows().size(), 1u);
  EXPECT_EQ(flow.size(), 3u);
}

TEST(OperatorTest, DagFanOut) {
  // One source feeding two sinks (DAG support).
  ProjectOp identity({Expr::Column(0)});
  CollectorSink a, b;
  identity.AddOutput(&a);
  identity.AddOutput(&b);
  identity.Push(Tuple{Value::Int64(1)}, 0);
  EXPECT_EQ(a.rows().size(), 1u);
  EXPECT_EQ(b.rows().size(), 1u);
}

}  // namespace
}  // namespace exec
}  // namespace pier
