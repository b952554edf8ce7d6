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

std::string ValidPlanBytes() {
  query::QueryPlan plan;
  plan.kind = query::PlanKind::kAggregate;
  plan.table = "snort_alerts";
  plan.scan_schema = catalog::Schema(
      "snort_alerts",
      {{"rule_id", ValueType::kInt64}, {"hits", ValueType::kInt64}});
  plan.where = exec::Expr::Compare(exec::CompareOp::kGt,
                                   exec::Expr::Column(1),
                                   exec::Expr::Literal(Value::Int64(0)));
  plan.group_cols = {0};
  plan.aggs = {{exec::AggFunc::kSum, 1, "total"}};
  plan.order_col = 1;
  plan.limit = 10;
  Writer w;
  plan.Serialize(&w);
  return w.Release();
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

TEST(FuzzDeserialize, ExprGarbage) {
  auto original = exec::Expr::And(
      exec::Expr::Compare(exec::CompareOp::kGt, exec::Expr::Column(0),
                          exec::Expr::Literal(Value::Int64(5))),
      exec::Expr::IsNull(exec::Expr::Column(1)));
  Writer w;
  original->Serialize(&w);
  auto parse = [](const std::string& b) {
    Reader r(b);
    exec::ExprPtr e;
    (void)exec::Expr::Deserialize(&r, &e);
  };
  NoCrashOnGarbage(parse, 3000, 48, 6);
  NoCrashOnMutation(parse, w.buffer(), 7);
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
  NoCrashOnMutation(parse, ValidPlanBytes(), 9);
}

std::string ValidOpGraphBytes() {
  // The canonical graph of the aggregate plan above, plus a composed
  // multi-join flavor is covered by the planner tests; here the wire form.
  std::string plan_bytes = ValidPlanBytes();
  Reader r(plan_bytes);
  query::QueryPlan plan;
  EXPECT_TRUE(query::QueryPlan::Deserialize(&r, &plan).ok());
  query::OpGraph g = plan.CanonicalGraph();
  EXPECT_TRUE(g.Validate().ok());
  Writer w;
  g.Serialize(&w);
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
  std::string valid = ValidOpGraphBytes();
  for (size_t cut = 0; cut < valid.size(); ++cut) {
    std::string truncated = valid.substr(0, cut);
    Reader r(truncated);
    query::OpGraph g;
    EXPECT_FALSE(query::OpGraph::Deserialize(&r, &g).ok()) << "cut=" << cut;
  }
}

TEST(FuzzDeserialize, OpGraphRoundTripsByteIdentical) {
  std::string valid = ValidOpGraphBytes();
  Reader r(valid);
  query::OpGraph g;
  ASSERT_TRUE(query::OpGraph::Deserialize(&r, &g).ok());
  ASSERT_TRUE(g.Validate().ok());
  EXPECT_EQ(g.nodes.back().type, query::OpType::kCollect);
  Writer w;
  g.Serialize(&w);
  EXPECT_EQ(w.buffer(), valid);
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
}

TEST(FuzzDeserialize, PlanWithGraphRoundTrips) {
  std::string plan_bytes = ValidPlanBytes();
  Reader r0(plan_bytes);
  query::QueryPlan plan;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r0, &plan).ok());
  // Planner-composed graphs travel on the wire (derived canonical graphs
  // do not — members rebuild those from the classic fields).
  plan.graph = plan.CanonicalGraph();
  Writer w;
  plan.Serialize(&w);
  Reader r(w.buffer());
  query::QueryPlan back;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r, &back).ok());
  ASSERT_FALSE(back.graph.empty());
  EXPECT_TRUE(back.graph.Validate().ok());
  EXPECT_EQ(back.graph.size(), plan.graph.size());
}

TEST(FuzzDeserialize, DerivedGraphNotShippedButRederivable) {
  std::string plan_bytes = ValidPlanBytes();
  Reader r0(plan_bytes);
  query::QueryPlan plan;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r0, &plan).ok());
  plan.EnsureGraph();
  ASSERT_TRUE(plan.graph_is_derived);
  Writer w;
  plan.Serialize(&w);
  Reader r(w.buffer());
  query::QueryPlan back;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r, &back).ok());
  EXPECT_TRUE(back.graph.empty());  // not on the wire...
  back.EnsureGraph();               // ...but identical when re-derived
  Writer wa, wb;
  plan.graph.Serialize(&wa);
  back.graph.Serialize(&wb);
  EXPECT_EQ(wa.buffer(), wb.buffer());
}

TEST(FuzzDeserialize, PlanRoundTripSurvivesAndMatches) {
  // Sanity inside the fuzz suite: the *valid* plan still round-trips.
  std::string bytes = ValidPlanBytes();
  Reader r(bytes);
  query::QueryPlan p;
  ASSERT_TRUE(query::QueryPlan::Deserialize(&r, &p).ok());
  EXPECT_EQ(p.kind, query::PlanKind::kAggregate);
  EXPECT_EQ(p.table, "snort_alerts");
  EXPECT_EQ(p.aggs.size(), 1u);
  EXPECT_EQ(p.limit, 10);
  EXPECT_NE(p.where, nullptr);
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

TEST(FuzzDeserialize, RowBatchGarbage) {
  auto parse = [](const std::string& b) {
    exec::RowBatch batch;
    (void)exec::RowBatch::FromBytes(b, &batch);
  };
  NoCrashOnGarbage(parse, 3000, 128, 30);
  NoCrashOnMutation(parse, ValidRowBatchBytes(), 31);
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

// The rehash exchange's batch frame ([marker][side][RowBatch]) rides the
// same DHT arrivals as legacy row frames; both decoders must survive each
// other's frames and arbitrary corruption.
TEST(FuzzDeserialize, ExchangeBatchFrameGarbage) {
  std::string frame = "\x42";
  frame.push_back('\x01');
  frame += ValidRowBatchBytes();
  auto parse = [](const std::string& b) {
    dht::StoredItem item;
    item.value = b;
    int side = 0;
    if (query::RehashExchange::IsBatchFrame(item)) {
      exec::RowBatch batch;
      (void)query::RehashExchange::DecodeBatchArrival(item, &side, &batch);
    }
    catalog::Tuple t;
    (void)query::RehashExchange::DecodeArrival(item, &side, &t);
  };
  NoCrashOnGarbage(parse, 3000, 128, 32);
  NoCrashOnMutation(parse, frame, 33);
  // The valid frame itself decodes.
  dht::StoredItem item;
  item.value = frame;
  ASSERT_TRUE(query::RehashExchange::IsBatchFrame(item));
  int side = -1;
  exec::RowBatch batch;
  ASSERT_TRUE(
      query::RehashExchange::DecodeBatchArrival(item, &side, &batch).ok());
  EXPECT_EQ(side, 1);
  EXPECT_EQ(batch.num_rows(), 3u);
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
