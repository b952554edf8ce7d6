// Differential tests for the vectorized data plane: batch expression kernels
// must agree with scalar Expr::Eval row for row (including SQL NULL
// semantics, division-by-zero-to-NULL, type-error rows, and short-circuit
// error behavior), the RowBatch wire codec must round-trip, VectorGroupBy's
// partial states must match a row-by-row AggInit/AggUpdate fold, and its
// raw -> partial -> merge -> finalize must equal the scalar one-pass
// GroupBy for any split of the rows. Expressions come
// from a hand-built corpus covering every node kind plus WHERE clauses and
// projections planned from the SQL corpus the sql/fuzz tests exercise.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/table_def.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/kernels.h"
#include "exec/operators.h"
#include "planner/planner.h"
#include "sql/parser.h"

namespace pier {
namespace exec {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;

// Column layout every random batch uses:
//   $0 ints (with NULLs)   $1 doubles (with NULLs, often integral)
//   $2 strings             $3 small ints (zeros common, for / and %)
//   $4 bools               $5 declared INT64 but sometimes strings
//                              (forces kMixed promotion)
Schema TestSchema() {
  return Schema("t", {{"a", ValueType::kInt64},
                      {"d", ValueType::kDouble},
                      {"s", ValueType::kString},
                      {"z", ValueType::kInt64},
                      {"b", ValueType::kBool},
                      {"m", ValueType::kInt64}});
}

Tuple RandomRow(Rng* rng) {
  Tuple t;
  // Bounded so column-by-column products stay exact; the INT64 extremes
  // come from the corpus's literal operands.
  t.push_back(rng->Chance(0.15)
                  ? Value::Null()
                  : Value::Int64(rng->UniformInt(-(1ll << 31), 1ll << 31)));
  if (rng->Chance(0.15)) {
    t.push_back(Value::Null());
  } else if (rng->Chance(0.5)) {
    t.push_back(Value::Double(static_cast<double>(rng->UniformInt(-100, 100))));
  } else {
    t.push_back(Value::Double(rng->UniformDouble(-1e6, 1e6)));
  }
  t.push_back(rng->Chance(0.15)
                  ? Value::Null()
                  : Value::String(std::string("s") +
                                  std::to_string(rng->UniformInt(0, 30))));
  t.push_back(rng->Chance(0.1) ? Value::Null()
                               : Value::Int64(rng->UniformInt(-3, 3)));
  t.push_back(rng->Chance(0.15) ? Value::Null()
                                : Value::Bool(rng->Chance(0.5)));
  if (rng->Chance(0.2)) {
    t.push_back(Value::String("mixed" + std::to_string(rng->UniformInt(0, 5))));
  } else if (rng->Chance(0.15)) {
    t.push_back(Value::Null());
  } else {
    t.push_back(Value::Int64(rng->UniformInt(-50, 50)));
  }
  return t;
}

struct TestBatch {
  RowBatch batch;
  std::vector<Tuple> rows;
};

TestBatch MakeBatch(Rng* rng, size_t n) {
  TestBatch tb;
  RowBatchBuilder builder(TestSchema());
  for (size_t i = 0; i < n; ++i) {
    Tuple t = RandomRow(rng);
    // Exercise both builder entry points: boxed append and the serialized
    // fast path the scan uses.
    if (rng->Chance(0.5)) {
      builder.Append(t);
    } else {
      EXPECT_TRUE(builder.AppendSerialized(catalog::TupleToBytes(t)))
          << "seed=" << rng->seed();
    }
    tb.rows.push_back(std::move(t));
  }
  tb.batch = builder.Take();
  return tb;
}

void ExpectValuesIdentical(const Value& scalar, const Value& vec,
                           const std::string& ctx) {
  EXPECT_EQ(scalar.type(), vec.type()) << ctx << " scalar=" << scalar.ToString()
                                       << " vec=" << vec.ToString();
  EXPECT_EQ(scalar.Compare(vec), 0) << ctx << " scalar=" << scalar.ToString()
                                    << " vec=" << vec.ToString();
}

/// The differential oracle: evaluates `e` both ways over every row.
void CheckExpr(const ExprPtr& e, const TestBatch& tb, uint64_t seed) {
  std::string ctx = "expr=" + e->ToString() + " seed=" + std::to_string(seed);

  Column out;
  Bitmap err;
  EvalColumn(*e, tb.batch, &out, &err);
  Bitmap sel;
  EvalSelection(*e, tb.batch, &sel);

  for (size_t i = 0; i < tb.rows.size(); ++i) {
    std::string rctx = ctx + " row=" + std::to_string(i) + " " +
                       catalog::TupleToString(tb.rows[i]);
    Value sv;
    Status ss = e->Eval(tb.rows[i], &sv);
    EXPECT_EQ(!ss.ok(), err.Get(i)) << rctx << " status=" << ss.ToString();
    if (ss.ok() && !err.Get(i)) {
      ExpectValuesIdentical(sv, out.ValueAt(i), rctx);
    }
    bool pred = false;
    Status ps = EvalPredicate(*e, tb.rows[i], &pred);
    bool scalar_keeps = ps.ok() && pred;
    EXPECT_EQ(scalar_keeps, sel.Get(i)) << rctx;
  }
}

ExprPtr Col(int i) { return Expr::Column(i); }
ExprPtr I(int64_t v) { return Expr::Literal(Value::Int64(v)); }
ExprPtr D(double v) { return Expr::Literal(Value::Double(v)); }
ExprPtr S(const std::string& v) { return Expr::Literal(Value::String(v)); }

std::vector<ExprPtr> HandCorpus() {
  std::vector<ExprPtr> c;
  // Every compare op, int column vs literal (the hot planner shape).
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    c.push_back(Expr::Compare(op, Col(0), I(100)));
    c.push_back(Expr::Compare(op, Col(1), D(3.5)));
    c.push_back(Expr::Compare(op, Col(2), S("s7")));
    c.push_back(Expr::Compare(op, Col(0), Col(3)));
    c.push_back(Expr::Compare(op, Col(0), Col(1)));  // int vs double
  }
  // Cross-type and mixed-lane comparisons.
  c.push_back(Expr::Compare(CompareOp::kEq, Col(0), S("nope")));
  c.push_back(Expr::Compare(CompareOp::kLt, Col(5), I(0)));
  c.push_back(Expr::Compare(CompareOp::kEq, Col(5), S("mixed3")));
  c.push_back(Expr::Compare(CompareOp::kGt, Col(4), Col(4)));
  // Arithmetic: every op, int/int, int/double, div and mod by zero (both
  // via the zero-heavy column and via literal zero).
  for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                     ArithOp::kDiv, ArithOp::kMod}) {
    c.push_back(Expr::Arith(op, Col(0), Col(3)));
    c.push_back(Expr::Arith(op, Col(1), Col(3)));
    c.push_back(Expr::Arith(op, Col(0), I(7)));
    c.push_back(Expr::Arith(op, Col(1), D(2.5)));
  }
  c.push_back(Expr::Arith(ArithOp::kDiv, Col(0), I(0)));
  c.push_back(Expr::Arith(ArithOp::kMod, Col(1), I(0)));
  c.push_back(Expr::Arith(ArithOp::kDiv, I(10), Col(3)));
  // INT64 extremes: results that do not fit are NULL on both planes
  // (INT64_MIN / -1 and % -1 via the zero-heavy column, which holds -1;
  // overflowing + - * against any nonzero row; negation of INT64_MIN).
  for (ArithOp op : {ArithOp::kAdd, ArithOp::kSub, ArithOp::kMul,
                     ArithOp::kDiv, ArithOp::kMod}) {
    c.push_back(Expr::Arith(op, I(INT64_MIN), Col(3)));
    c.push_back(Expr::Arith(op, I(INT64_MAX), Col(3)));
    c.push_back(Expr::Arith(op, Col(0), I(INT64_MIN)));
    c.push_back(Expr::Arith(op, Col(0), I(INT64_MAX)));
    c.push_back(Expr::Arith(op, I(INT64_MIN), I(-1)));
  }
  c.push_back(Expr::Negate(I(INT64_MIN)));
  c.push_back(Expr::Negate(Expr::Arith(ArithOp::kAdd, I(INT64_MIN), Col(3))));
  // String concat, and type-error arithmetic ('a' + 1, bool math).
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(2), S("-suffix")));
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(2), Col(2)));
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(2), I(1)));
  c.push_back(Expr::Arith(ArithOp::kMul, Col(4), I(2)));
  c.push_back(Expr::Arith(ArithOp::kAdd, Col(5), I(1)));  // mixed lane
  // Logic: short circuits hiding the error side, nested and/or/not.
  ExprPtr err_expr = Expr::Arith(ArithOp::kAdd, Col(2), I(1));
  ExprPtr erry_pred = Expr::Compare(CompareOp::kGt, err_expr, I(0));
  c.push_back(Expr::And(Expr::Compare(CompareOp::kGt, Col(0), I(0)),
                        Expr::Compare(CompareOp::kLt, Col(3), I(2))));
  c.push_back(Expr::Or(Expr::Compare(CompareOp::kGt, Col(0), I(0)),
                       Expr::Compare(CompareOp::kLt, Col(3), I(2))));
  c.push_back(Expr::And(Expr::Compare(CompareOp::kGt, Col(0), I(1) ), erry_pred));
  c.push_back(Expr::Or(Expr::Compare(CompareOp::kGt, Col(0), I(1)), erry_pred));
  c.push_back(Expr::Not(Expr::Compare(CompareOp::kEq, Col(0), Col(3))));
  c.push_back(Expr::Not(Col(4)));
  c.push_back(Expr::And(Col(4), Expr::Not(Col(4))));
  c.push_back(
      Expr::Or(Expr::And(Expr::Compare(CompareOp::kGe, Col(0), I(0)),
                         Expr::Compare(CompareOp::kLe, Col(3), I(0))),
               Expr::Not(Expr::Compare(CompareOp::kEq, Col(2), S("s1")))));
  // IS NULL family over every lane, including never-null boolean results.
  for (int col : {0, 1, 2, 3, 4, 5}) {
    c.push_back(Expr::IsNull(Col(col)));
    c.push_back(Expr::IsNull(Col(col), /*negated=*/true));
  }
  c.push_back(Expr::IsNull(Expr::Compare(CompareOp::kEq, Col(0), I(1))));
  c.push_back(Expr::IsNull(Expr::Arith(ArithOp::kDiv, Col(0), Col(3))));
  // Negate over every lane (string/bool negation errors).
  for (int col : {0, 1, 2, 4, 5}) c.push_back(Expr::Negate(Col(col)));
  c.push_back(Expr::Negate(Expr::Arith(ArithOp::kAdd, Col(0), Col(3))));
  // Literals alone, predicates over non-bool values, out-of-range columns.
  c.push_back(I(42));
  c.push_back(S("lit"));
  c.push_back(Expr::Literal(Value::Null()));
  c.push_back(Expr::Literal(Value::Bool(true)));
  c.push_back(Col(0));   // bare int column as a predicate -> all false
  c.push_back(Col(4));   // bare bool column as a predicate
  c.push_back(Col(98));  // out of range: every row errors
  c.push_back(Expr::Compare(CompareOp::kEq, Col(98), I(1)));
  c.push_back(Expr::And(Expr::Compare(CompareOp::kLt, Col(0), I(0)),
                        Expr::Compare(CompareOp::kEq, Col(98), I(1))));
  // Deep arithmetic-in-compare nesting (the planner's usual output shape).
  c.push_back(Expr::Compare(
      CompareOp::kGe,
      Expr::Arith(ArithOp::kMul,
                  Expr::Arith(ArithOp::kAdd, Col(0), I(2)), I(3)),
      Expr::Arith(ArithOp::kSub, Col(3), Expr::Negate(Col(0)))));
  return c;
}

TEST(VectorizedDifferentialTest, HandCorpusMatchesScalarPlane) {
  for (uint64_t seed : {1ull, 7ull, 20040613ull}) {
    Rng rng(seed);
    TestBatch tb = MakeBatch(&rng, 257);  // odd size: exercises bitmap tails
    for (const ExprPtr& e : HandCorpus()) CheckExpr(e, tb, seed);
  }
}

// Scalar producers (join output, recursion, fetched rows) enter the batch
// chain as RowBatch::OfRow batches, whose column kinds follow each row's
// values — NULL and BYTES cells ride the boxed lane.
TEST(VectorizedDifferentialTest, OneRowBatchesMatchScalarPlane) {
  Rng rng(4242);
  for (int i = 0; i < 48; ++i) {
    TestBatch tb;
    tb.rows.push_back(RandomRow(&rng));
    tb.batch = RowBatch::OfRow(tb.rows[0]);
    for (const ExprPtr& e : HandCorpus()) CheckExpr(e, tb, 4242);
  }
}

TEST(VectorizedDifferentialTest, SerializedExprsRoundTripThroughKernels) {
  // Expressions that traveled the wire (as real plans do) compile the same.
  Rng rng(99);
  TestBatch tb = MakeBatch(&rng, 64);
  for (const ExprPtr& e : HandCorpus()) {
    Writer w;
    e->Serialize(&w);
    Reader r(w.buffer());
    ExprPtr back;
    ASSERT_TRUE(Expr::Deserialize(&r, &back).ok());
    CheckExpr(back, tb, 99);
  }
}

// ---------------------------------------------------------------------------
// SQL corpus: WHERE clauses and projections planned from real query text
// (the same shapes sql_test and the e2e SQL suite run).
// ---------------------------------------------------------------------------

catalog::Catalog SqlCatalog() {
  catalog::Catalog cat;
  TableDef t;
  t.name = "t";
  t.schema = TestSchema();
  t.partition_cols = {0};
  EXPECT_TRUE(cat.Register(t).ok());
  return cat;
}

TEST(VectorizedDifferentialTest, SqlCorpusWhereAndProjectionsMatch) {
  const char* kQueries[] = {
      "SELECT a FROM t WHERE a > 100",
      "SELECT a FROM t WHERE a >= 10 AND z < 2",
      "SELECT a FROM t WHERE a + 1 * 2 = 3 AND z < 4 OR a = 5",
      "SELECT a FROM t WHERE a IS NOT NULL AND NOT z = 2",
      "SELECT a FROM t WHERE a BETWEEN 5 AND 1000",
      "SELECT a FROM t WHERE a BETWEEN 1 + 1 AND 10 AND z = 3",
      "SELECT a FROM t WHERE d >= 10.5",
      "SELECT a FROM t WHERE s = 's3' OR s = 's4'",
      "SELECT a FROM t WHERE a % 10 = 0",
      "SELECT a FROM t WHERE a / z > 3",
      "SELECT a FROM t WHERE -a < 50 AND d * 2.0 <= 100.0",
      "SELECT a FROM t WHERE s IS NULL",
      "SELECT a, a * 2, a + z, d / 2.0, s FROM t WHERE a > 0",
      "SELECT a - z, -d FROM t WHERE NOT (a < 0 OR z = 0)",
  };
  catalog::Catalog cat = SqlCatalog();
  Rng rng(424242);
  TestBatch tb = MakeBatch(&rng, 200);
  size_t exprs_checked = 0;
  for (const char* q : kQueries) {
    auto stmt = sql::Parse(q);
    ASSERT_TRUE(stmt.ok()) << q << ": " << stmt.status().ToString();
    auto plan = planner::PlanStatement(stmt.value(), cat);
    ASSERT_TRUE(plan.ok()) << q << ": " << plan.status().ToString();
    for (const query::OpNode& n : plan.value().graph.nodes) {
      if (n.type == query::OpType::kFilter) {
        CheckExpr(n.predicate, tb, 424242);
        ++exprs_checked;
      }
      for (const ExprPtr& p : n.exprs) {
        CheckExpr(p, tb, 424242);
        ++exprs_checked;
      }
    }
  }
  EXPECT_GT(exprs_checked, 20u);
}

// ---------------------------------------------------------------------------
// Codec round-trip
// ---------------------------------------------------------------------------

TEST(RowBatchCodecTest, RoundTripsRandomBatches) {
  for (uint64_t seed : {3ull, 11ull, 12345ull}) {
    Rng rng(seed);
    for (size_t n : {0ull, 1ull, 63ull, 64ull, 65ull, 300ull}) {
      TestBatch tb = MakeBatch(&rng, n);
      std::string bytes = tb.batch.EncodeToBytes();
      RowBatch back;
      ASSERT_TRUE(RowBatch::FromBytes(bytes, &back).ok())
          << "seed=" << seed << " n=" << n;
      ASSERT_EQ(back.num_rows(), n);
      ASSERT_EQ(back.num_columns(), tb.batch.num_columns());
      for (size_t i = 0; i < n; ++i) {
        Tuple t;
        back.ToTuple(i, &t);
        ASSERT_EQ(t.size(), tb.rows[i].size());
        for (size_t c = 0; c < t.size(); ++c) {
          ExpectValuesIdentical(tb.rows[i][c], t[c],
                                "codec seed=" + std::to_string(seed));
        }
      }
    }
  }
}

TEST(RowBatchCodecTest, EncodeCompactsSelection) {
  Rng rng(5);
  TestBatch tb = MakeBatch(&rng, 100);
  tb.batch.SetSelection({3, 17, 42, 99});
  RowBatch back;
  ASSERT_TRUE(RowBatch::FromBytes(tb.batch.EncodeToBytes(), &back).ok());
  ASSERT_EQ(back.num_rows(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    Tuple got, want;
    back.ToTuple(i, &got);
    size_t src = tb.batch.selection()[i];
    EXPECT_EQ(catalog::CompareTuples(got, tb.rows[src]), 0);
  }
}

// One live row of fewer than 128 columns is the tuple encoding, byte for
// byte — whether the batch holds one row or a selection narrowed to one.
TEST(RowBatchCodecTest, OneLiveRowEncodesAsTuple) {
  Rng rng(6);
  for (int i = 0; i < 20; ++i) {
    TestBatch one = MakeBatch(&rng, 1);
    EXPECT_EQ(one.batch.EncodeToBytes(), catalog::TupleToBytes(one.rows[0]));
    EXPECT_EQ(RowBatch::OfRow(one.rows[0]).EncodeToBytes(),
              catalog::TupleToBytes(one.rows[0]));
  }
  TestBatch tb = MakeBatch(&rng, 50);
  tb.batch.SetSelection({37});
  EXPECT_EQ(tb.batch.EncodeToBytes(), catalog::TupleToBytes(tb.rows[37]));
  tb.batch.SetSelection({4, 9});
  tb.batch.TruncateLive(1);
  EXPECT_EQ(tb.batch.EncodeToBytes(), catalog::TupleToBytes(tb.rows[4]));
}

// A producer refills one batch per row: whatever the chain left behind (a
// narrowed selection, a move, other column kinds), AssignRow yields OfRow.
TEST(RowBatchCodecTest, AssignRowEqualsOfRowFromAnyState) {
  Rng rng(7);
  RowBatch b = MakeBatch(&rng, 10).batch;
  b.SetSelection({3, 8});
  for (int i = 0; i < 40; ++i) {
    Tuple row = RandomRow(&rng);
    if (i % 7 == 3) row.push_back(Value::Bytes("extra"));  // width changes
    b.AssignRow(row);
    ASSERT_EQ(b.ActiveRows(), 1u);
    ASSERT_FALSE(b.has_selection());
    EXPECT_EQ(b.EncodeToBytes(), RowBatch::OfRow(row).EncodeToBytes());
    Tuple back;
    b.ToTuple(0, &back);
    ASSERT_EQ(back.size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      ExpectValuesIdentical(row[c], back[c],
                            "AssignRow i=" + std::to_string(i));
      EXPECT_EQ(b.column(c).kind(), Column::KindForType(row[c].type()));
    }
    if (i % 5 == 0) b.SetSelection({});
    if (i % 5 == 1) RowBatch moved = std::move(b);
  }
}

TEST(RowBatchCodecTest, WideRowAndEmptyBatchAreColumnar) {
  Tuple wide;
  for (int c = 0; c < 128; ++c) wide.push_back(Value::Int64(c));
  std::string bytes = RowBatch::OfRow(wide).EncodeToBytes();
  ASSERT_FALSE(bytes.empty());
  EXPECT_EQ(static_cast<uint8_t>(bytes[0]), 0x81);
  RowBatch back;
  ASSERT_TRUE(RowBatch::FromBytes(bytes, &back).ok());
  ASSERT_EQ(back.num_rows(), 1u);
  Tuple t;
  back.ToTuple(0, &t);
  EXPECT_EQ(catalog::CompareTuples(t, wide), 0);

  std::string empty = RowBatch(TestSchema()).EncodeToBytes();
  ASSERT_FALSE(empty.empty());
  EXPECT_EQ(static_cast<uint8_t>(empty[0]), 0x81);
  ASSERT_TRUE(RowBatch::FromBytes(empty, &back).ok());
  EXPECT_EQ(back.num_rows(), 0u);
  EXPECT_EQ(back.num_columns(), TestSchema().num_columns());
}

// Decode (into a batch) and DecodeRows (into tuples) agree on both forms.
TEST(RowBatchCodecTest, DecodeAndDecodeRowsReadBothForms) {
  Rng rng(8);
  for (size_t n : {1ull, 2ull, 5ull, 70ull}) {
    TestBatch tb = MakeBatch(&rng, n);
    std::string bytes = tb.batch.EncodeToBytes();
    RowBatch batch;
    Reader r1(bytes);
    ASSERT_TRUE(RowBatch::Decode(&r1, &batch).ok()) << "n=" << n;
    EXPECT_TRUE(r1.AtEnd());
    std::vector<Tuple> rows{Tuple{Value::Int64(-1)}};  // replaced, not appended
    Reader r2(bytes);
    ASSERT_TRUE(RowBatch::DecodeRows(&r2, &rows).ok()) << "n=" << n;
    EXPECT_TRUE(r2.AtEnd());
    ASSERT_EQ(batch.num_rows(), n);
    ASSERT_EQ(rows.size(), n);
    for (size_t i = 0; i < n; ++i) {
      Tuple t;
      batch.ToTuple(i, &t);
      ASSERT_EQ(t.size(), tb.rows[i].size());
      ASSERT_EQ(rows[i].size(), tb.rows[i].size());
      for (size_t c = 0; c < t.size(); ++c) {
        ExpectValuesIdentical(tb.rows[i][c], t[c], "Decode n=" +
                                                       std::to_string(n));
        ExpectValuesIdentical(tb.rows[i][c], rows[i][c],
                              "DecodeRows n=" + std::to_string(n));
      }
    }
    // Strict inverse: re-encoding what was decoded gives the same bytes.
    EXPECT_EQ(batch.EncodeToBytes(), bytes) << "n=" << n;
  }
}

// OfRows is how drained group-by rows become a kPartial frame: it must
// encode byte for byte as the builder it replaced (column types from the
// first row, later rows appended through AppendValue), including a state
// column that widens from INT64 to DOUBLE partway down and a first row
// whose NULL boxes its column.
TEST(RowBatchCodecTest, OfRowsEncodesLikeFirstRowTypedBuilder) {
  auto builder_bytes = [](const std::vector<Tuple>& rows) {
    std::vector<ValueType> types;
    for (const Value& v : rows[0]) types.push_back(v.type());
    RowBatchBuilder builder(types);
    builder.Reserve(rows.size());
    for (const Tuple& t : rows) builder.Append(t);
    return builder.Take().EncodeToBytes();
  };
  const std::vector<std::vector<Tuple>> cases = {
      {Tuple{Value::Int64(1), Value::Int64(7), Value::Null()},
       Tuple{Value::Int64(2), Value::Double(9.5e18), Value::Int64(3)},
       Tuple{Value::Int64(3), Value::Int64(-4), Value::Int64(0)}},
      {Tuple{Value::String("a"), Value::Null(), Value::Int64(2)},
       Tuple{Value::String("b"), Value::Int64(5), Value::Double(2.5)}},
      {Tuple{Value::Int64(1), Value::Int64(1), Value::Int64(1)}},
  };
  for (const std::vector<Tuple>& rows : cases) {
    RowBatch batch = RowBatch::OfRows(rows);
    EXPECT_EQ(batch.EncodeToBytes(), builder_bytes(rows))
        << rows.size() << " rows";
    ASSERT_EQ(batch.num_rows(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i) {
      Tuple t;
      batch.ToTuple(i, &t);
      for (size_t c = 0; c < t.size(); ++c) {
        ExpectValuesIdentical(rows[i][c], t[c], "OfRows");
      }
    }
  }
  // The widened column went to the boxed lane; no rows, no columns.
  EXPECT_EQ(RowBatch::OfRows(cases[0]).column(1).kind(), Column::Kind::kMixed);
  EXPECT_EQ(RowBatch::OfRows({}).EncodeToBytes(), RowBatch().EncodeToBytes());
}

TEST(RowBatchCodecTest, UnknownLeadByteIsCorruption) {
  Rng rng(9);
  std::string columnar = MakeBatch(&rng, 3).batch.EncodeToBytes();
  for (int lead = 0x80; lead <= 0xff; ++lead) {
    if (lead == 0x81) continue;
    std::string bytes = columnar;
    bytes[0] = static_cast<char>(lead);
    RowBatch batch;
    EXPECT_TRUE(RowBatch::FromBytes(bytes, &batch).IsCorruption())
        << "lead=" << lead;
    Reader r(bytes);
    std::vector<Tuple> rows;
    EXPECT_TRUE(RowBatch::DecodeRows(&r, &rows).IsCorruption())
        << "lead=" << lead;
  }
}

// Index cursors decode PHT entries from the network through
// AppendSerialized: a row cut off after a BOOL tag is rejected without
// reading past the buffer (exact-size heap storage, so the sanitizer lane
// sees any overread).
TEST(RowBatchCodecTest, AppendSerializedRejectsTruncatedBool) {
  std::vector<char> bytes = {1, static_cast<char>(ValueType::kBool)};
  RowBatchBuilder builder(std::vector<ValueType>{ValueType::kBool});
  EXPECT_FALSE(
      builder.AppendSerialized(std::string_view(bytes.data(), bytes.size())));
  EXPECT_TRUE(builder.Empty());
}

// ---------------------------------------------------------------------------
// VectorGroupBy against a row-by-row fold and the one-pass GroupBy
// ---------------------------------------------------------------------------

std::vector<AggSpec> AllAggs() {
  return {
      {AggFunc::kCount, -1, "cnt"},  {AggFunc::kCount, 0, "cnt_a"},
      {AggFunc::kSum, 0, "sum_a"},   {AggFunc::kSum, 1, "sum_d"},
      {AggFunc::kAvg, 0, "avg_a"},   {AggFunc::kAvg, 1, "avg_d"},
      {AggFunc::kMin, 0, "min_a"},   {AggFunc::kMax, 2, "max_s"},
      {AggFunc::kMin, 5, "min_m"},
  };
}

/// The partial states a row-by-row AggInit/AggUpdate fold leaves per
/// group, in sorted key order: [group values..., v1, v2 per agg]. These
/// are the bytes a kPartial frame carries, so VectorGroupBy::Drain(false)
/// must match them value for value and type for type.
std::vector<Tuple> FoldRowByRow(const std::vector<Tuple>& rows,
                                const std::vector<int>& group_cols,
                                const std::vector<AggSpec>& aggs) {
  std::map<Tuple, std::vector<Value>> groups;
  for (const Tuple& t : rows) {
    Tuple key;
    for (int c : group_cols) {
      key.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                        ? t[c]
                        : Value::Null());
    }
    auto [it, fresh] = groups.try_emplace(std::move(key));
    std::vector<Value>& st = it->second;
    if (fresh) {
      st.resize(aggs.size() * kPartialWidth);
      for (size_t a = 0; a < aggs.size(); ++a) {
        AggInit(aggs[a], &st[a * kPartialWidth], &st[a * kPartialWidth + 1]);
      }
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      AggUpdate(aggs[a], t, &st[a * kPartialWidth],
                &st[a * kPartialWidth + 1]);
    }
  }
  std::vector<Tuple> out;
  for (auto& [key, st] : groups) {
    Tuple row = key;
    row.insert(row.end(), st.begin(), st.end());
    out.push_back(std::move(row));
  }
  return out;
}

std::vector<Tuple> OnePass(const std::vector<Tuple>& rows,
                           const std::vector<int>& group_cols,
                           const std::vector<AggSpec>& aggs) {
  GroupBy gb(group_cols, aggs);
  for (const Tuple& t : rows) gb.Push(t);
  return gb.Drain();
}

void ExpectRowsIdentical(const std::vector<Tuple>& want,
                         const std::vector<Tuple>& got,
                         const std::string& ctx) {
  ASSERT_EQ(got.size(), want.size()) << ctx;
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].size(), want[i].size()) << ctx;
    for (size_t c = 0; c < got[i].size(); ++c) {
      ExpectValuesIdentical(want[i][c], got[i][c],
                            ctx + " group=" + std::to_string(i) +
                                " col=" + std::to_string(c));
    }
  }
}

void CheckGroupBy(const std::vector<int>& group_cols, uint64_t seed) {
  Rng rng(seed);
  TestBatch tb = MakeBatch(&rng, 400);
  const std::string ctx = "seed=" + std::to_string(seed);

  VectorGroupBy partial(group_cols, AllAggs());
  partial.PushBatch(tb.batch);
  ExpectRowsIdentical(FoldRowByRow(tb.rows, group_cols, AllAggs()),
                      partial.Drain(/*finalize=*/false), ctx + " partial");

  VectorGroupBy final_gb(group_cols, AllAggs());
  final_gb.PushBatch(tb.batch);
  ExpectRowsIdentical(OnePass(tb.rows, group_cols, AllAggs()),
                      final_gb.Drain(/*finalize=*/true), ctx + " final");
}

TEST(VectorGroupByTest, MatchesRowByRowFoldAndOnePass) {
  CheckGroupBy({3}, 17);
  CheckGroupBy({3, 2}, 18);
  CheckGroupBy({}, 19);    // global aggregate
  CheckGroupBy({42}, 20);  // out-of-range group col
  CheckGroupBy({5}, 21);   // mixed-lane group key
}

// Join-fed aggregation: joined rows reach the accumulator one-row batch at
// a time, each batch's column kinds taken from that row's values.
TEST(VectorGroupByTest, OneRowBatchesMatchRowByRowFold) {
  for (const std::vector<int>& group_cols :
       {std::vector<int>{3}, std::vector<int>{3, 2}, std::vector<int>{},
        std::vector<int>{5}}) {
    Rng rng(41);
    std::vector<Tuple> rows;
    for (int i = 0; i < 300; ++i) rows.push_back(RandomRow(&rng));

    VectorGroupBy vgb(group_cols, AllAggs());
    for (const Tuple& t : rows) vgb.PushBatch(RowBatch::OfRow(t));
    ExpectRowsIdentical(FoldRowByRow(rows, group_cols, AllAggs()),
                        vgb.Drain(/*finalize=*/false),
                        "cols=" + std::to_string(group_cols.size()));
  }
}

TEST(VectorGroupByTest, SelectionRestrictsAccumulation) {
  Rng rng(31);
  TestBatch tb = MakeBatch(&rng, 100);
  tb.batch.SetSelection({2, 40, 41, 97});
  std::vector<Tuple> live;
  for (uint32_t r : tb.batch.selection()) live.push_back(tb.rows[r]);

  VectorGroupBy vgb({3}, AllAggs());
  vgb.PushBatch(tb.batch);
  ExpectRowsIdentical(FoldRowByRow(live, {3}, AllAggs()),
                      vgb.Drain(/*finalize=*/false), "selection");
}

// An INT64 SUM/AVG that would overflow widens to DOUBLE on the typed lanes
// exactly as the scalar fold does — including a group that overflows in
// one batch and keeps accumulating in the next.
TEST(VectorGroupByTest, OverflowingSumWidensLikeScalarFold) {
  const std::vector<AggSpec> aggs = {{AggFunc::kSum, 1, "s"},
                                     {AggFunc::kAvg, 1, "a"},
                                     {AggFunc::kCount, 1, "c"},
                                     {AggFunc::kSum, 2, "d"}};
  auto row = [](int64_t k, int64_t v) {
    return Tuple{Value::Int64(k), Value::Int64(v), Value::Double(0.5)};
  };
  const std::vector<std::vector<Tuple>> batches = {
      {row(1, INT64_MAX), row(2, INT64_MIN), row(1, INT64_MAX), row(2, -1),
       row(3, INT64_MAX)},
      {row(1, 5), row(3, INT64_MIN), row(3, 7)},
  };
  VectorGroupBy vgb({0}, aggs);
  std::vector<Tuple> all;
  for (const std::vector<Tuple>& rows : batches) {
    RowBatchBuilder builder(std::vector<ValueType>{
        ValueType::kInt64, ValueType::kInt64, ValueType::kDouble});
    for (const Tuple& t : rows) builder.Append(t);
    vgb.PushBatch(builder.Take());
    all.insert(all.end(), rows.begin(), rows.end());
  }
  std::vector<Tuple> got = vgb.Drain(/*finalize=*/false);
  ExpectRowsIdentical(FoldRowByRow(all, {0}, aggs), got, "overflow");
  ASSERT_EQ(got.size(), 3u);
  // Group 1 overflowed in the first batch and kept accumulating as
  // DOUBLE in the second; group 2 overflowed below INT64_MIN; group 3
  // nets back into range without ever overflowing and stays INT64.
  EXPECT_EQ(got[0][1].type(), ValueType::kDouble);
  EXPECT_EQ(got[1][1].type(), ValueType::kDouble);
  EXPECT_EQ(got[2][1].type(), ValueType::kInt64);
}

// ---------------------------------------------------------------------------
// raw -> partial -> MergeBatch -> finalize equals the one-pass GroupBy
// ---------------------------------------------------------------------------

/// Random rows whose DOUBLE sums are exact in any order (quarters well
/// inside the mantissa), so a split may regroup the additions freely.
std::vector<Tuple> SplittableRows(Rng* rng, size_t n) {
  std::vector<Tuple> rows;
  for (size_t i = 0; i < n; ++i) {
    Tuple t = RandomRow(rng);
    if (t[1].type() == ValueType::kDouble) {
      t[1] = Value::Double(std::round(t[1].double_value() * 4) / 4);
    }
    rows.push_back(std::move(t));
  }
  return rows;
}

/// What the origin answers when row i goes to fragment i % `fragments`:
/// each fragment's accumulator drains its partials into one kPartial frame
/// (through the wire codec), and one combiner merges the frames and
/// finalizes. `one_row`: rows and partials travel as one-row batches, the
/// join-fed and relay shapes.
std::vector<Tuple> MergedSplit(const std::vector<Tuple>& rows,
                               const std::vector<int>& group_cols,
                               size_t fragments, bool one_row) {
  std::vector<VectorGroupBy> parts(fragments,
                                   VectorGroupBy(group_cols, AllAggs()));
  if (one_row) {
    for (size_t i = 0; i < rows.size(); ++i) {
      parts[i % fragments].PushBatch(RowBatch::OfRow(rows[i]));
    }
  } else {
    for (size_t f = 0; f < fragments; ++f) {
      RowBatchBuilder builder(TestSchema());
      for (size_t i = f; i < rows.size(); i += fragments) {
        builder.Append(rows[i]);
      }
      parts[f].PushBatch(builder.Take());
    }
  }
  VectorGroupBy combine(group_cols, AllAggs());
  for (VectorGroupBy& part : parts) {
    std::vector<Tuple> partials = part.Drain(/*finalize=*/false);
    if (one_row) {
      for (const Tuple& p : partials) combine.MergeBatch(RowBatch::OfRow(p));
      continue;
    }
    RowBatch frame;
    EXPECT_TRUE(
        RowBatch::FromBytes(RowBatch::OfRows(partials).EncodeToBytes(), &frame)
            .ok());
    combine.MergeBatch(frame);
  }
  return combine.Drain(/*finalize=*/true);
}

// The invariant in-network aggregation depends on: for any partition of
// the rows into k fragments, raw -> partial -> merge -> finalize equals
// single-site aggregation, value for value and type for type.
class AggDecomposabilityTest : public ::testing::TestWithParam<size_t> {};

TEST_P(AggDecomposabilityTest, PartialsComposeToSameAnswer) {
  const size_t fragments = GetParam();
  for (const std::vector<int>& group_cols :
       {std::vector<int>{3}, std::vector<int>{3, 2}, std::vector<int>{},
        std::vector<int>{5}, std::vector<int>{42}}) {
    Rng rng(500 + fragments);
    std::vector<Tuple> rows = SplittableRows(&rng, 300);
    std::vector<Tuple> want = OnePass(rows, group_cols, AllAggs());
    const std::string ctx = "fragments=" + std::to_string(fragments) +
                            " cols=" + std::to_string(group_cols.size());
    ExpectRowsIdentical(want, MergedSplit(rows, group_cols, fragments, false),
                        ctx);
    ExpectRowsIdentical(want, MergedSplit(rows, group_cols, fragments, true),
                        ctx + " one-row");
  }
}

INSTANTIATE_TEST_SUITE_P(Fragments, AggDecomposabilityTest,
                         ::testing::Values(1, 2, 3, 7, 16));

// A partial arrives from another node, so its AVG count slot may hold any
// type. A count that is not numeric, is zero or is missing finalizes to
// NULL instead of aborting the node that merges it.
TEST(AggTest, AvgWithMalformedPartialCountIsNull) {
  std::vector<AggSpec> specs = {{AggFunc::kAvg, 1, "a"}};
  VectorGroupBy merge({0}, specs);
  // One frame: its count column boxes (STRING, INT64, DOUBLE cells).
  merge.MergeBatch(RowBatch::OfRows(
      {Tuple{Value::Int64(1), Value::Int64(10), Value::String("x")},
       Tuple{Value::Int64(2), Value::Int64(10), Value::Int64(0)},
       Tuple{Value::Int64(3), Value::Int64(10), Value::Double(4)}}));
  // A frame cut short: its count column is missing, so it reads as NULL.
  merge.MergeBatch(
      RowBatch::OfRows({Tuple{Value::Int64(4), Value::Int64(10)}}));
  std::vector<Tuple> rows = merge.Drain(/*finalize=*/true);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_TRUE(rows[0][1].is_null());
  EXPECT_TRUE(rows[1][1].is_null());
  EXPECT_DOUBLE_EQ(rows[2][1].double_value(), 2.5);
  EXPECT_TRUE(rows[3][1].is_null());
}

// Partials that each fit INT64 overflow once merged, and widen to DOUBLE
// exactly where the one-pass fold does; a partial that already widened
// keeps the merged state DOUBLE.
TEST(VectorGroupByTest, OverflowWidensAcrossAMerge) {
  const std::vector<AggSpec> aggs = {{AggFunc::kSum, 1, "s"},
                                     {AggFunc::kAvg, 1, "a"}};
  constexpr int64_t kQuarter = int64_t{1} << 62;
  auto row = [](int64_t k, int64_t v) {
    return Tuple{Value::Int64(k), Value::Int64(v)};
  };
  // Group 1 fits in each fragment and overflows at the merge; group 2 has
  // widened in fragment A before meeting fragment B's INT64 partial; group
  // 3 reaches INT64_MIN exactly in fragment A and overflows below it at the
  // merge.
  const std::vector<std::vector<Tuple>> fragments = {
      {row(1, kQuarter), row(2, kQuarter), row(2, kQuarter),
       row(3, -kQuarter), row(3, -kQuarter)},
      {row(1, kQuarter), row(2, 5), row(3, -kQuarter)},
  };
  std::vector<Tuple> all;
  VectorGroupBy combine({0}, aggs);
  for (const std::vector<Tuple>& rows : fragments) {
    VectorGroupBy part({0}, aggs);
    part.PushBatch(RowBatch::OfRows(rows));
    combine.MergeBatch(RowBatch::OfRows(part.Drain(/*finalize=*/false)));
    all.insert(all.end(), rows.begin(), rows.end());
  }
  std::vector<Tuple> got = combine.Drain(/*finalize=*/true);
  // Fragment order is row order here, so the one pass adds in the same
  // order the merge does.
  ExpectRowsIdentical(OnePass(all, {0}, aggs), got, "overflow merge");
  ASSERT_EQ(got.size(), 3u);
  for (const Tuple& g : got) EXPECT_EQ(g[1].type(), ValueType::kDouble);
}

}  // namespace
}  // namespace exec
}  // namespace pier
