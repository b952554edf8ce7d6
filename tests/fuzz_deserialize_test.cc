// Corruption-robustness property tests: every deserializer in the system
// must survive arbitrary byte garbage, truncation, and single-byte
// mutations of valid messages — returning Corruption/InvalidArgument, never
// crashing or reading out of bounds. On a public network, a PIER node's
// parsers ARE its attack surface.

#include <gtest/gtest.h>

#include "catalog/schema.h"
#include "catalog/table_def.h"
#include "catalog/tuple.h"
#include "common/bloom.h"
#include "common/rng.h"
#include "exec/batch.h"
#include "exec/expr.h"
#include "golden_plans.h"
#include "index/pht.h"
#include "query/bloom_wire.h"
#include "query/exchange.h"
#include "query/plan.h"
#include "sql/parser.h"

namespace pier {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t n = rng->NextBelow(max_len + 1);
  std::string out(n, '\0');
  for (char& c : out) c = static_cast<char>(rng->NextBelow(256));
  return out;
}

// A representative valid encoding of each wire structure.
std::string ValidTupleBytes() {
  return catalog::TupleToBytes(
      {Value::Int64(1322), Value::String("BAD-TRAFFIC"), Value::Double(1.5),
       Value::Null(), Value::Bool(true)});
}

/// Plans one golden shape through the planner.
query::QueryPlan GoldenPlan(const golden::Shape& shape) {
  auto stmt = sql::Parse(shape.sql);
  EXPECT_TRUE(stmt.ok()) << shape.name;
  auto plan =
      planner::PlanStatement(stmt.value(), golden::Catalog(), shape.options);
  EXPECT_TRUE(plan.ok()) << shape.name << ": " << plan.status().ToString();
  return plan.value();
}

/// A planner-built continuous aggregate (filter, partial/final agg with
/// HAVING, permuted ordered collect) with every field of the plan set.
query::QueryPlan ValidPlan() {
  query::QueryPlan plan =
      GoldenPlan({"aggregate_tree", golden::kAggregateSql,
                  golden::Options(query::AggStrategy::kTree), ""});
  plan.every = Seconds(10);
  plan.window = Seconds(20);
  plan.budget.max_result_bytes = 1 << 20;
  plan.budget.max_rehash_puts = 5000;
  plan.budget.max_result_rows = 100;
  return plan;
}

std::string ValidPlanBytes() {
  Writer w;
  ValidPlan().Serialize(&w);
  return w.Release();
}

/// The serialized graph of every golden planner shape: together they use
/// every node type, and so every branch of the per-type node encoding.
std::vector<std::string> GoldenGraphBytes() {
  std::vector<std::string> out;
  for (const golden::Shape& shape : golden::Shapes()) {
    Writer w;
    GoldenPlan(shape).graph.Serialize(&w);
    out.push_back(w.Release());
  }
  return out;
}

template <typename Fn>
void NoCrashOnGarbage(Fn parse, int iterations, size_t max_len,
                      uint64_t seed) {
  // Any crash/sanitizer report in here names the replay seed via the trace.
  SCOPED_TRACE("NoCrashOnGarbage seed " + std::to_string(seed));
  Rng rng(seed);
  for (int i = 0; i < iterations; ++i) {
    std::string bytes = RandomBytes(&rng, max_len);
    parse(bytes);  // must return, never crash
  }
}

template <typename Fn>
void NoCrashOnMutation(Fn parse, const std::string& valid, uint64_t seed) {
  SCOPED_TRACE("NoCrashOnMutation seed " + std::to_string(seed));
  Rng rng(seed);
  // Every truncation point.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    parse(valid.substr(0, cut));
  }
  // Many single-byte mutations.
  for (int i = 0; i < 500; ++i) {
    std::string mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextBelow(256));
    parse(mutated);
  }
}

TEST(FuzzDeserialize, TupleGarbage) {
  auto parse = [](const std::string& b) {
    catalog::Tuple t;
    (void)catalog::TupleFromBytes(b, &t);
  };
  NoCrashOnGarbage(parse, 3000, 64, 1);
  NoCrashOnMutation(parse, ValidTupleBytes(), 2);
}

TEST(FuzzDeserialize, ValueGarbage) {
  NoCrashOnGarbage(
      [](const std::string& b) {
        Reader r(b);
        Value v;
        (void)Value::Deserialize(&r, &v);
      },
      3000, 32, 3);
}

TEST(FuzzDeserialize, SchemaGarbage) {
  catalog::Schema valid_schema(
      "alerts", {{"rule_id", ValueType::kInt64}, {"d", ValueType::kString}});
  Writer w;
  valid_schema.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    catalog::Schema s;
    (void)catalog::Schema::Deserialize(&r, &s);
  };
  NoCrashOnGarbage(parse, 2000, 64, 4);
  NoCrashOnMutation(parse, w.buffer(), 5);
}

/// One expression of every node kind with its exact wire bytes (hex) and
/// its rendering. Plans carry these bytes to every member, so a member
/// built from another revision must decode them unchanged.
struct GoldenExpr {
  const char* name;
  exec::ExprPtr expr;
  std::string hex;
  std::string text;
};

std::vector<GoldenExpr> GoldenExprs() {
  using exec::ArithOp;
  using exec::CompareOp;
  using exec::Expr;
  auto lit = [](Value v) { return Expr::Literal(std::move(v)); };
  return {
      {"negative literal", lit(Value::Int64(-3)), "010205", "-3"},
      {"string literal", lit(Value::String("ab")), "0104026162", "'ab'"},
      {"named column", Expr::Column(2, "hits"), "02020468697473", "hits"},
      {"compare",
       Expr::Compare(CompareOp::kGe, Expr::Column(0), lit(Value::Int64(5))),
       "030502000001020a", "($0 >= 5)"},
      {"arith",
       Expr::Arith(ArithOp::kMod, Expr::Column(1), lit(Value::Double(2.5))),
       "040402010001030000000000000440", "($1 % 2.5)"},
      {"and over or",
       Expr::And(Expr::Or(lit(Value::Bool(true)), lit(Value::Null())),
                 lit(Value::Bool(false))),
       "05060101010100010100", "((TRUE OR NULL) AND FALSE)"},
      {"not over negate",
       Expr::Not(Expr::Compare(CompareOp::kLt, Expr::Negate(Expr::Column(0)),
                               lit(Value::Int64(0)))),
       "07030208020000010200", "(NOT ((-$0) < 0))"},
      {"is null", Expr::IsNull(Expr::Column(1)), "09020100", "($1 IS NULL)"},
      {"is not null", Expr::IsNull(Expr::Column(1), /*negated=*/true),
       "0a020100", "($1 IS NOT NULL)"},
  };
}

std::string Hex(const std::string& bytes) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (unsigned char b : bytes) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xf]);
  }
  return out;
}

TEST(ExprWireTest, GoldenBytesRoundTrip) {
  for (const GoldenExpr& g : GoldenExprs()) {
    Writer w;
    g.expr->Serialize(&w);
    EXPECT_EQ(Hex(w.buffer()), g.hex) << g.name;
    EXPECT_EQ(g.expr->ToString(), g.text) << g.name;
    Reader r(w.buffer());
    exec::ExprPtr back;
    ASSERT_TRUE(exec::Expr::Deserialize(&r, &back).ok()) << g.name;
    EXPECT_TRUE(r.AtEnd()) << g.name;
    Writer again;
    back->Serialize(&again);
    EXPECT_EQ(again.buffer(), w.buffer()) << g.name;
    EXPECT_EQ(back->ToString(), g.text) << g.name;
  }
}

TEST(FuzzDeserialize, ExprGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    exec::ExprPtr e;
    (void)exec::Expr::Deserialize(&r, &e);
  };
  NoCrashOnGarbage(parse, 3000, 48, 6);
  uint64_t seed = 7;
  for (const GoldenExpr& g : GoldenExprs()) {
    Writer w;
    g.expr->Serialize(&w);
    NoCrashOnMutation(parse, w.buffer(), seed++);
  }
}

TEST(FuzzDeserialize, ExprDepthBombRejected) {
  // 1000 nested NOTs: must hit the depth limit, not the stack limit.
  std::string bytes(1000, '\x07');  // kNot tag repeated
  Reader r(bytes);
  exec::ExprPtr e;
  EXPECT_FALSE(exec::Expr::Deserialize(&r, &e).ok());
}

TEST(FuzzDeserialize, QueryPlanGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::QueryPlan p;
    (void)query::QueryPlan::Deserialize(&r, &p);
  };
  NoCrashOnGarbage(parse, 2000, 200, 8);
  std::string valid = ValidPlanBytes();
  NoCrashOnMutation(parse, valid, 9);
  // The valid plan itself round-trips: graph and plan fields alike.
  Reader r(valid);
  query::QueryPlan back;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.every, Seconds(10));
  EXPECT_EQ(back.window, Seconds(20));
  EXPECT_EQ(back.budget.max_rehash_puts, 5000u);
  EXPECT_EQ(back.budget.max_result_rows, 100u);
  Writer w;
  back.Serialize(&w);
  EXPECT_EQ(w.buffer(), valid);
}

std::string ValidOpGraphBytes() {
  Writer w;
  ValidPlan().graph.Serialize(&w);
  return w.Release();
}

TEST(FuzzDeserialize, OpGraphGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::OpGraph g;
    (void)query::OpGraph::Deserialize(&r, &g);
  };
  NoCrashOnGarbage(parse, 2000, 256, 16);
  NoCrashOnMutation(parse, ValidOpGraphBytes(), 17);
}

TEST(FuzzDeserialize, OpGraphTruncationsAllRejected) {
  // Graph bytes end exactly at the last node, so every strict prefix must
  // fail with a Status — never crash, never "succeed" on partial input.
  for (const std::string& valid : GoldenGraphBytes()) {
    for (size_t cut = 0; cut < valid.size(); ++cut) {
      std::string truncated = valid.substr(0, cut);
      Reader r(truncated);
      query::OpGraph g;
      EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok())
          << "cut=" << cut;
    }
  }
}

TEST(FuzzDeserialize, OpGraphRoundTripsByteIdentical) {
  std::vector<golden::Shape> shapes = golden::Shapes();
  std::vector<std::string> graphs = GoldenGraphBytes();
  for (size_t i = 0; i < graphs.size(); ++i) {
    SCOPED_TRACE(shapes[i].name);
    Reader r(graphs[i]);
    query::OpGraph g;
    ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
    ASSERT_TRUE(g.Validate().ok());
    EXPECT_EQ(g.nodes.back().type, query::OpType::kCollect);
    // Only each node's own field group travels, and it is all EXPLAIN (and
    // the runtime) reads: the rendering survives the trip unchanged.
    EXPECT_EQ(g.ToString(), shapes[i].explain);
    Writer w;
    g.Serialize(&w);
    EXPECT_EQ(w.buffer(), graphs[i]);
  }
}

TEST(FuzzDeserialize, MalformedOpGraphStructureRejected) {
  // Structurally corrupt graphs must be rejected by Validate, which
  // deserialization applies: a forward edge...
  query::OpGraph fwd;
  fwd.nodes.resize(2);
  fwd.nodes[0].type = query::OpType::kScan;
  fwd.nodes[0].table = "t";
  fwd.nodes[0].inputs = {};
  fwd.nodes[1].type = query::OpType::kCollect;
  fwd.nodes[1].inputs = {1};  // self/forward reference
  Writer w1;
  fwd.Serialize(&w1);
  {
    Reader r(w1.buffer());
    query::OpGraph g;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok());
  }
  // ...a graph whose root is not a collect...
  query::OpGraph noroot;
  noroot.nodes.resize(1);
  noroot.nodes[0].type = query::OpType::kScan;
  noroot.nodes[0].table = "t";
  Writer w2;
  noroot.Serialize(&w2);
  {
    Reader r(w2.buffer());
    query::OpGraph g;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok());
  }
  // ...and a rehash edge with no join behind it: the scan's rows would
  // have nowhere to go.
  query::OpGraph rehash;
  rehash.nodes.resize(2);
  rehash.nodes[0].type = query::OpType::kScan;
  rehash.nodes[0].table = "t";
  rehash.nodes[0].out = query::ExchangeKind::kRehash;
  rehash.nodes[1].type = query::OpType::kCollect;
  rehash.nodes[1].inputs = {0};
  Writer w3;
  rehash.Serialize(&w3);
  {
    Reader r(w3.buffer());
    query::OpGraph g;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok());
  }
  // ...and join keys outside their input layouts: every rendezvous would
  // read past its tuples. Three one-column scans joined left-deep; the
  // chained join's left input is two columns wide.
  auto chain = [](int first_left_key, int second_left_key) {
    query::OpGraph join;
    join.nodes.resize(6);
    for (uint32_t scan : {0u, 1u, 3u}) {
      join.nodes[scan].type = query::OpType::kScan;
      join.nodes[scan].table = "t";
      join.nodes[scan].schema =
          catalog::Schema("t", {{"k", ValueType::kInt64}});
      join.nodes[scan].out = query::ExchangeKind::kRehash;
    }
    for (uint32_t id : {2u, 4u}) {
      join.nodes[id].type = query::OpType::kJoin;
      join.nodes[id].inputs = {id - 2, id - 1};
      join.nodes[id].left_keys = {id == 2 ? first_left_key : second_left_key};
      join.nodes[id].right_keys = {0};
    }
    join.nodes[2].out = query::ExchangeKind::kRehash;
    join.nodes[4].out = query::ExchangeKind::kToOrigin;
    join.nodes[5].type = query::OpType::kCollect;
    join.nodes[5].inputs = {4};
    Writer w;
    join.Serialize(&w);
    Reader r(w.buffer());
    query::OpGraph g;
    return query::OpGraph::Deserialize(&r, &g);
  };
  EXPECT_TRUE(chain(0, 1).ok());   // column 1 of the 2-wide join output
  EXPECT_FALSE(chain(1, 1).ok());  // past the 1-column scan
  EXPECT_FALSE(chain(0, 2).ok());  // past the 2-column join output
  EXPECT_FALSE(chain(-1, 0).ok());
}

std::string ValidIndexGraphBytes() {
  // The planner's index-scan shape: index-scan -> filter -> collect.
  query::OpGraph g;
  query::OpNode scan;
  scan.type = query::OpType::kIndexScan;
  scan.table = "metrics";
  scan.schema = catalog::Schema(
      "metrics", {{"host", ValueType::kString}, {"v", ValueType::kInt64}});
  scan.index_col = 1;
  scan.index_lo = Value::Int64(10);
  scan.index_hi = Value::Int64(99);
  g.nodes.push_back(std::move(scan));
  query::OpNode f;
  f.type = query::OpType::kFilter;
  f.predicate = exec::Expr::Compare(exec::CompareOp::kGe,
                                    exec::Expr::Column(1),
                                    exec::Expr::Literal(Value::Int64(10)));
  f.inputs = {0};
  f.out = query::ExchangeKind::kToOrigin;
  g.nodes.push_back(std::move(f));
  query::OpNode collect;
  collect.type = query::OpType::kCollect;
  collect.inputs = {1};
  g.nodes.push_back(std::move(collect));
  EXPECT_TRUE(g.Validate().ok());
  Writer w;
  g.Serialize(&w);
  return w.Release();
}

TEST(FuzzDeserialize, IndexScanGraphGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::OpGraph g;
    (void)query::OpGraph::Deserialize(&r, &g);
  };
  NoCrashOnGarbage(parse, 2000, 256, 18);
  NoCrashOnMutation(parse, ValidIndexGraphBytes(), 19);
}

TEST(FuzzDeserialize, IndexScanGraphRoundTripsByteIdentical) {
  std::string valid = ValidIndexGraphBytes();
  Reader r(valid);
  query::OpGraph g;
  ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.nodes[0].type, query::OpType::kIndexScan);
  EXPECT_EQ(g.nodes[0].index_lo, Value::Int64(10));
  EXPECT_EQ(g.nodes[0].index_hi, Value::Int64(99));
  Writer w;
  g.Serialize(&w);
  EXPECT_EQ(w.buffer(), valid);
  // Every strict prefix must fail, never crash or accept partial input.
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    std::string truncated = valid.substr(0, cut);
    Reader rt(truncated);
    query::OpGraph gt;
    EXPECT_FALSE(query::OpGraph::Deserialize(&rt, &gt).ok()) << "cut=" << cut;
  }
}

TEST(FuzzDeserialize, MalformedIndexScanGraphRejected) {
  // Index column outside the schema...
  query::OpGraph g;
  std::string valid = ValidIndexGraphBytes();
  {
    Reader r(valid);
    ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
  }
  g.nodes[0].index_col = 7;
  Writer w;
  g.Serialize(&w);
  {
    Reader r(w.buffer());
    query::OpGraph bad;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &bad).ok());
  }
  // ...and an index scan emitting into a rehash exchange (it must stay at
  // the origin) are both structurally rejected.
  g.nodes[0].index_col = 1;
  g.nodes[0].out = query::ExchangeKind::kRehash;
  Writer w2;
  g.Serialize(&w2);
  {
    Reader r(w2.buffer());
    query::OpGraph bad;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &bad).ok());
  }
}

TEST(FuzzDeserialize, PhtEntryGarbage) {
  index::PhtEntry valid;
  valid.key = 0x8000000000001234ull;
  valid.tuple_bytes = ValidTupleBytes();
  Writer w;
  valid.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    index::PhtEntry e;
    (void)index::PhtEntry::Deserialize(&r, &e);
  };
  NoCrashOnGarbage(parse, 3000, 96, 20);
  NoCrashOnMutation(parse, w.buffer(), 21);
  // Round trip.
  Reader r(w.buffer());
  index::PhtEntry back;
  ASSERT_TRUE(index::PhtEntry::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.key, valid.key);
  EXPECT_EQ(back.tuple_bytes, valid.tuple_bytes);
}

TEST(FuzzDeserialize, PhtMarkerGarbage) {
  Writer w;
  index::PhtNodeRecord rec;
  rec.internal = true;
  rec.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    index::PhtNodeRecord m;
    (void)index::PhtNodeRecord::Deserialize(&r, &m);
  };
  NoCrashOnGarbage(parse, 2000, 16, 22);
  NoCrashOnMutation(parse, w.buffer(), 23);
  Reader r(w.buffer());
  index::PhtNodeRecord back;
  ASSERT_TRUE(index::PhtNodeRecord::Deserialize(&r, &back).ok());
  EXPECT_TRUE(back.internal);
  // Unknown marker tags are Corruption, not a third state.
  std::string bad_tag(1, '\x09');
  Reader bad(bad_tag);
  EXPECT_FALSE(index::PhtNodeRecord::Deserialize(&bad, &back).ok());
}

TEST(FuzzDeserialize, BloomGarbage) {
  BloomFilter valid(512, 5);
  valid.Add(42);
  Writer w;
  valid.Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    BloomFilter f(64, 1);
    (void)BloomFilter::Deserialize(&r, &f);
  };
  NoCrashOnGarbage(parse, 2000, 128, 10);
  NoCrashOnMutation(parse, w.buffer(), 11);

  // The largest size the decoder admits (2^24 words, 128 MiB) with no words
  // behind it: five bytes that must be refused before anything is
  // allocated for them.
  Writer huge;
  huge.PutVarint32(1u << 24);
  huge.PutU8(5);
  ASSERT_EQ(huge.size(), 5u);
  Reader r(huge.buffer());
  BloomFilter f(64, 1);
  EXPECT_TRUE(BloomFilter::Deserialize(&r, &f).IsCorruption());
  EXPECT_EQ(f.bit_count(), 64u);
}

TEST(FuzzDeserialize, TableDefGarbage) {
  catalog::TableDef def;
  def.name = "t";
  def.schema = catalog::Schema("t", {{"a", ValueType::kInt64}});
  def.partition_cols = {0};
  def.indexes = {catalog::IndexDef{0, 8}};
  Writer w;
  def.Serialize(&w);
  {
    Reader r(w.buffer());
    catalog::TableDef back;
    ASSERT_TRUE(catalog::TableDef::Deserialize(&r, &back).ok());
    ASSERT_EQ(back.indexes.size(), 1u);
    EXPECT_EQ(back.indexes[0], (catalog::IndexDef{0, 8}));
  }
  auto parse = [](const std::string& b) {
    Reader r(b);
    catalog::TableDef d;
    (void)catalog::TableDef::Deserialize(&r, &d);
  };
  NoCrashOnGarbage(parse, 2000, 64, 12);
  NoCrashOnMutation(parse, w.buffer(), 13);
}

// A representative column-major RowBatch frame: every column kind, plus
// nulls in each lane.
std::string ValidRowBatchBytes() {
  exec::RowBatchBuilder builder(std::vector<ValueType>{
      ValueType::kInt64, ValueType::kString, ValueType::kDouble,
      ValueType::kBool});
  builder.Append({Value::Int64(1322), Value::String("BAD-TRAFFIC"),
                  Value::Double(1.5), Value::Bool(true)});
  builder.Append(
      {Value::Null(), Value::String(""), Value::Null(), Value::Bool(false)});
  builder.Append({Value::Int64(-7), Value::String("scan"), Value::Double(0.0),
                  Value::Null()});
  return builder.Take().EncodeToBytes();
}

// A one-row batch: the tuple-encoded form RowBatch::Encode picks for a
// single live row.
std::string ValidOneRowBatchBytes() {
  return exec::RowBatch::OfRow({Value::Int64(1322), Value::String("scan"),
                                Value::Null(), Value::Double(2.5),
                                Value::Bool(true)})
      .EncodeToBytes();
}

TEST(FuzzDeserialize, RowBatchGarbage) {
  auto parse = [](const std::string& b) {
    exec::RowBatch batch;
    (void)exec::RowBatch::FromBytes(b, &batch);
    Reader r(b);
    std::vector<catalog::Tuple> rows;
    (void)exec::RowBatch::DecodeRows(&r, &rows);
  };
  NoCrashOnGarbage(parse, 3000, 128, 30);
  NoCrashOnMutation(parse, ValidRowBatchBytes(), 31);
  NoCrashOnMutation(parse, ValidOneRowBatchBytes(), 34);
}

TEST(FuzzDeserialize, RowBatchRoundTripsByteIdentical) {
  std::string bytes = ValidRowBatchBytes();
  exec::RowBatch back;
  ASSERT_TRUE(exec::RowBatch::FromBytes(bytes, &back).ok());
  ASSERT_EQ(back.num_rows(), 3u);
  ASSERT_EQ(back.num_columns(), 4u);
  catalog::Tuple t;
  back.ToTuple(0, &t);
  EXPECT_EQ(t[0].int64_value(), 1322);
  EXPECT_EQ(t[1].string_value(), "BAD-TRAFFIC");
  back.ToTuple(1, &t);
  EXPECT_TRUE(t[0].is_null());
  EXPECT_TRUE(t[2].is_null());
  EXPECT_EQ(bytes, back.EncodeToBytes());
}

// The rehash exchange's frame is [side][RowBatch], in either of RowBatch's
// forms: one decoder must survive both and arbitrary corruption.
TEST(FuzzDeserialize, ExchangeBatchFrameGarbage) {
  std::string columnar = "\x01" + ValidRowBatchBytes();
  std::string one_row = std::string(1, '\0') + ValidOneRowBatchBytes();
  auto parse = [](const std::string& b) {
    dht::StoredItem item;
    item.value = b;
    int side = 0;
    std::vector<catalog::Tuple> rows;
    (void)query::RehashExchange::DecodeArrival(item, &side, &rows);
  };
  NoCrashOnGarbage(parse, 3000, 128, 32);
  NoCrashOnMutation(parse, columnar, 33);
  NoCrashOnMutation(parse, one_row, 35);
  // The valid frames themselves decode.
  dht::StoredItem item;
  item.value = columnar;
  int side = -1;
  std::vector<catalog::Tuple> rows;
  ASSERT_TRUE(query::RehashExchange::DecodeArrival(item, &side, &rows).ok());
  EXPECT_EQ(side, 1);
  EXPECT_EQ(rows.size(), 3u);
  item.value = one_row;
  ASSERT_TRUE(query::RehashExchange::DecodeArrival(item, &side, &rows).ok());
  EXPECT_EQ(side, 0);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].size(), 5u);
  EXPECT_EQ(rows[0][1].string_value(), "scan");
}

// The Bloom filter wave's two frame bodies (kBloomPart member->origin,
// kBloomDist origin->members). These arrive from arbitrary peers on the
// open network, and the dist frame's verdict decides whether nodes may
// SUPPRESS rows — a hostile frame must never parse into an authorization
// the sender did not earn.
std::string ValidBloomPartBytes() {
  query::BloomPartFrame f;
  f.qid = 77;
  f.join_node = 2;
  f.left = BloomFilter(512, 3);
  f.right = BloomFilter(512, 3);
  f.left.Add(42);
  f.right.Add(1322);
  Writer w;
  f.Serialize(&w);
  return w.Release();
}

std::string ValidBloomDistBytes(bool complete) {
  query::BloomDistFrame f;
  f.qid = 77;
  f.join_node = 2;
  f.parts_expected = 8;
  f.parts_reported = complete ? 8 : 5;
  f.complete = complete;
  f.left = BloomFilter(512, 3);
  f.right = BloomFilter(512, 3);
  f.left.Add(42);
  Writer w;
  f.Serialize(&w);
  return w.Release();
}

TEST(FuzzDeserialize, BloomPartFrameGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::BloomPartFrame f;
    (void)query::BloomPartFrame::Deserialize(&r, &f);
  };
  NoCrashOnGarbage(parse, 3000, 160, 34);
  NoCrashOnMutation(parse, ValidBloomPartBytes(), 35);
  // The valid frame itself decodes with its filters intact.
  std::string valid = ValidBloomPartBytes();
  Reader r(valid);
  query::BloomPartFrame back;
  ASSERT_TRUE(query::BloomPartFrame::Deserialize(&r, &back).ok());
  EXPECT_EQ(back.qid, 77u);
  EXPECT_EQ(back.join_node, 2u);
  EXPECT_TRUE(back.left.MayContain(42));
  EXPECT_TRUE(back.right.MayContain(1322));
}

TEST(FuzzDeserialize, BloomDistFrameGarbage) {
  auto parse = [](const std::string& b) {
    Reader r(b);
    query::BloomDistFrame f;
    (void)query::BloomDistFrame::Deserialize(&r, &f);
  };
  NoCrashOnGarbage(parse, 3000, 160, 36);
  NoCrashOnMutation(parse, ValidBloomDistBytes(true), 37);
  NoCrashOnMutation(parse, ValidBloomDistBytes(false), 38);
  std::string valid = ValidBloomDistBytes(true);
  Reader r(valid);
  query::BloomDistFrame back;
  ASSERT_TRUE(query::BloomDistFrame::Deserialize(&r, &back).ok());
  EXPECT_TRUE(back.complete);
  EXPECT_EQ(back.parts_expected, 8u);
  EXPECT_TRUE(back.left.MayContain(42));
}

TEST(FuzzDeserialize, BloomDistUnderReportedCompletenessRejected) {
  // A frame claiming complete=true while admitting fewer parts than
  // expected is self-contradictory: parsing must refuse it outright so a
  // forged verdict can never authorize suppression downstream.
  query::BloomDistFrame f;
  f.qid = 77;
  f.join_node = 2;
  f.parts_expected = 8;
  f.parts_reported = 5;
  f.complete = true;
  Writer w;
  f.Serialize(&w);
  Reader r(w.buffer());
  query::BloomDistFrame back;
  EXPECT_FALSE(query::BloomDistFrame::Deserialize(&r, &back).ok());
}

TEST(FuzzSql, ParserSurvivesGarbageText) {
  Rng rng(14);
  const std::string alphabet =
      "SELECT FROM WHERE GROUP BY ORDER LIMIT ()*,.;'0123456789abc<>=+- ";
  for (int i = 0; i < 2000; ++i) {
    size_t n = rng.NextBelow(80);
    std::string text;
    for (size_t k = 0; k < n; ++k) {
      text.push_back(alphabet[rng.NextBelow(alphabet.size())]);
    }
    (void)sql::Parse(text);  // any Status is fine; crashing is not
  }
}

TEST(FuzzSql, ParserSurvivesMutatedValidQuery) {
  const std::string valid =
      "SELECT rule_id, SUM(hits) AS total FROM alerts WHERE hits > 0 "
      "GROUP BY rule_id ORDER BY total DESC LIMIT 10";
  Rng rng(15);
  for (int i = 0; i < 1000; ++i) {
    std::string mutated = valid;
    size_t pos = rng.NextBelow(mutated.size());
    mutated[pos] = static_cast<char>(' ' + rng.NextBelow(95));
    (void)sql::Parse(mutated);
  }
}

}  // namespace
}  // namespace pier
