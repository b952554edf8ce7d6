// End-to-end acceptance for the PHT range-query path (ISSUE 5):
//
// A range SQL query over a 64-node Chord overlay must return the EXACT
// answer the central oracle computes, while doing data-plane work on a
// measured, asserted subset of the overlay (< 25% of nodes at ~1%
// selectivity — the broadcast-scan baseline touches 100%). Also covers the
// runtime fallback: a cold index must degrade to the broadcast plan and
// still return the exact answer.
//
// The IndexHintTest cases cover the walk's leaf-depth hint: a scan from a
// node whose hint is right spends about one probe per leaf, a hint that is
// too shallow or too deep costs probes but never rows or a fallback, and
// the probe count covers every get, including those of walks dropped by a
// fallback.

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/network.h"
#include "index/index_manager.h"
#include "index/key_codec.h"
#include "index/pht.h"
#include "planner/planner.h"
#include "testkit/oracle.h"

namespace pier {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;

constexpr size_t kNodes = 64;
constexpr int kRows = 1000;

TableDef ReadingsTable(bool indexed) {
  TableDef def;
  def.name = "readings";
  def.schema = Schema("readings", {{"sensor", ValueType::kInt64},
                                   {"v", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  if (indexed) def.indexes = {catalog::IndexDef{1, 8}};
  return def;
}

struct WorkSnapshot {
  std::vector<uint64_t> serve_requests;
  std::vector<uint64_t> scans_run;
};

WorkSnapshot Snapshot(PierNetwork& net) {
  WorkSnapshot snap;
  for (size_t i = 0; i < net.size(); ++i) {
    snap.serve_requests.push_back(net.node(i)->dht()->stats().serve_requests);
    snap.scans_run.push_back(
        net.node(i)->query_engine()->stats().scans_run);
  }
  return snap;
}

/// Nodes that did query-side data-plane work since `before`: served a DHT
/// get (trie probes / leaf reads) or ran a relation scan. Routing hops and
/// dissemination forwarding are deliberately excluded — the index's claim
/// is about which nodes' DATA gets touched.
size_t NodesContacted(PierNetwork& net, const WorkSnapshot& before) {
  size_t contacted = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    bool served = net.node(i)->dht()->stats().serve_requests >
                  before.serve_requests[i];
    bool scanned = net.node(i)->query_engine()->stats().scans_run >
                   before.scans_run[i];
    if (served || scanned) ++contacted;
  }
  return contacted;
}

TEST(IndexE2eTest, RangeQueryOn64NodeChordIsExactAndSparse) {
  PierNetworkOptions opts;
  opts.seed = 64001;
  opts.node.router_kind = RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(15);
  opts.join_stagger = Millis(150);
  PierNetwork net(kNodes, opts);
  ASSERT_EQ(net.Boot(Seconds(60)), kNodes);

  TableDef def = ReadingsTable(/*indexed=*/true);
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(def).ok());
  }
  // Values 0, 10, ..., 9990: the BETWEEN 0 AND 99 range below selects 10
  // rows — 1% selectivity.
  for (int i = 0; i < kRows; ++i) {
    ASSERT_TRUE(net.node(i % kNodes)
                    ->query_engine()
                    ->Publish("readings",
                              Tuple{Value::Int64(i % 17),
                                    Value::Int64(i * 10)})
                    .ok());
  }
  net.RunFor(Seconds(40));  // let puts, forwards, and splits settle

  const std::string sql =
      "SELECT sensor, v FROM readings WHERE v BETWEEN 0 AND 99";
  // Oracle ground truth from the plan the origin will actually run.
  auto stmt = sql::Parse(sql);
  ASSERT_TRUE(stmt.ok());
  auto plan = planner::PlanStatement(stmt.value(), *net.node(0)->catalog());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_TRUE(plan.value().graph.Has(query::OpType::kIndexScan))
      << plan.value().graph.ToString();
  auto oracle = testkit::OracleEvaluate(net, plan.value());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle.value().size(), 10u);

  WorkSnapshot before = Snapshot(net);
  TimePoint t0 = net.sim()->now();
  TimePoint t_done = 0;
  std::vector<query::ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan.value(), [&](const query::ResultBatch& b) {
        batches.push_back(b);
        t_done = net.sim()->now();
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(20));

  // Exactness: the distributed answer IS the oracle answer (multiset).
  ASSERT_EQ(batches.size(), 1u);
  testkit::OracleScore score =
      testkit::ScoreAnswer(oracle.value(), batches[0].rows);
  EXPECT_DOUBLE_EQ(score.recall, 1.0) << score.ToString();
  EXPECT_DOUBLE_EQ(score.precision, 1.0) << score.ToString();

  // Sparseness: data-plane work confined to < 25% of the overlay. A
  // broadcast scan sweeps its slice on every single node.
  size_t contacted = NodesContacted(net, before);
  EXPECT_LT(contacted, kNodes / 4)
      << "index scan touched " << contacted << "/" << kNodes << " nodes";
  EXPECT_GT(contacted, 0u);

  // The access path really was the index: the origin ran a cursor, nobody
  // ran a broadcast scan, and no fallback fired.
  const query::EngineStats& stats = net.node(0)->query_engine()->stats();
  EXPECT_GE(stats.index_scans_run, 1u);
  EXPECT_GT(stats.index_probes, 0u);
  EXPECT_EQ(stats.index_fallbacks, 0u);
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->query_engine()->stats().scans_run,
              before.scans_run[i])
        << "node " << i << " ran a broadcast scan";
  }
  // The cursor closes the answer as soon as the range is read — well
  // before the result_wait deadline a broadcast scan would sit out.
  EXPECT_GE(stats.index_early_finalizes, 1u);
  EXPECT_LT(t_done - t0, Seconds(15));
}

TEST(IndexE2eTest, ColdIndexFallsBackToBroadcastScanExactly) {
  PierNetworkOptions opts;
  opts.seed = 64003;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(10);
  PierNetwork net(12, opts);
  ASSERT_EQ(net.Boot(Seconds(8)), 12u);

  // Publishers registered the PLAIN definition, so no index entries exist;
  // the origin's catalog declares the index, so the planner picks the
  // index path — the cursor must find a cold trie and fall back.
  TableDef plain = ReadingsTable(/*indexed=*/false);
  for (size_t i = 1; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(plain).ok());
  }
  TableDef indexed = ReadingsTable(/*indexed=*/true);
  ASSERT_TRUE(net.node(0)->catalog()->Register(indexed).ok());

  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(net.node(1 + (i % (net.size() - 1)))
                    ->query_engine()
                    ->Publish("readings",
                              Tuple{Value::Int64(i % 7),
                                    Value::Int64(i)})
                    .ok());
  }
  net.RunFor(Seconds(10));

  auto stmt = sql::Parse(
      "SELECT sensor, v FROM readings WHERE v >= 20 AND v < 40");
  ASSERT_TRUE(stmt.ok());
  auto plan = planner::PlanStatement(stmt.value(), *net.node(0)->catalog());
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(plan.value().graph.Has(query::OpType::kIndexScan));
  auto oracle = testkit::OracleEvaluate(net, plan.value());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle.value().size(), 20u);

  std::vector<query::ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan.value(),
      [&](const query::ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(20));

  ASSERT_EQ(batches.size(), 1u);
  testkit::OracleScore score =
      testkit::ScoreAnswer(oracle.value(), batches[0].rows);
  EXPECT_DOUBLE_EQ(score.recall, 1.0) << score.ToString();
  EXPECT_DOUBLE_EQ(score.precision, 1.0) << score.ToString();
  EXPECT_EQ(net.node(0)->query_engine()->stats().index_fallbacks, 1u);
}

// ---------------------------------------------------------------------------
// The leaf-depth hint
// ---------------------------------------------------------------------------

/// 16 one-hop nodes holding `readings` rows v = 50 * i (i < 400) under
/// IndexDef{1, 8}, pierbench storm's layout: every leaf of [0, 19999] sits
/// at depth 56 (a 256-key span holds at most 6 rows, a 512-key span 11).
class IndexHintTest : public ::testing::Test {
 protected:
  static constexpr size_t kHintNodes = 16;

  void SetUp() override {
    PierNetworkOptions opts;
    opts.seed = 64011;
    opts.node.router_kind = RouterKind::kOneHop;
    opts.node.engine.result_wait = Seconds(10);
    net_ = std::make_unique<PierNetwork>(kHintNodes, opts);
    ASSERT_EQ(net_->Boot(Seconds(5)), kHintNodes);
    TableDef def = ReadingsTable(/*indexed=*/true);
    for (size_t i = 0; i < net_->size(); ++i) {
      ASSERT_TRUE(net_->node(i)->catalog()->Register(def).ok());
    }
    for (int i = 0; i < 400; ++i) Publish(i, 50 * i);
    net_->RunFor(Seconds(40));  // forwards and splits settle
  }

  void Publish(int i, int64_t v) {
    ASSERT_TRUE(net_->node(static_cast<size_t>(i) % kHintNodes)
                    ->query_engine()
                    ->Publish("readings",
                              Tuple{Value::Int64(i % 17), Value::Int64(v)})
                    .ok());
  }

  /// Runs `v BETWEEN lo AND hi` from node 0 through the index and expects
  /// the oracle's exact multiset in one answer.
  void ExpectExactRange(int64_t lo, int64_t hi) {
    auto stmt = sql::Parse("SELECT sensor, v FROM readings WHERE v BETWEEN " +
                           std::to_string(lo) + " AND " + std::to_string(hi));
    ASSERT_TRUE(stmt.ok());
    auto plan =
        planner::PlanStatement(stmt.value(), *net_->node(0)->catalog());
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ASSERT_TRUE(plan.value().graph.Has(query::OpType::kIndexScan));
    auto oracle = testkit::OracleEvaluate(*net_, plan.value());
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    ASSERT_FALSE(oracle.value().empty());
    std::vector<query::ResultBatch> batches;
    auto r = net_->node(0)->query_engine()->Execute(
        plan.value(),
        [&](const query::ResultBatch& b) { batches.push_back(b); });
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    net_->RunFor(Seconds(15));
    ASSERT_EQ(batches.size(), 1u);
    testkit::OracleScore score =
        testkit::ScoreAnswer(oracle.value(), batches[0].rows);
    EXPECT_DOUBLE_EQ(score.recall, 1.0) << score.ToString();
    EXPECT_DOUBLE_EQ(score.precision, 1.0) << score.ToString();
  }

  index::PhtIndex* Origin() {
    return net_->node(0)->index_manager()->Find("readings", 1);
  }
  const query::EngineStats& Stats() {
    return net_->node(0)->query_engine()->stats();
  }

  std::unique_ptr<PierNetwork> net_;
};

TEST_F(IndexHintTest, HintedScanSpendsAtMostOneProbeBeyondItsLeaves) {
  // The first scan leaves the trie's leaf depth in node 0's hint.
  ExpectExactRange(1000, 1999);
  const uint64_t probes_before = Stats().index_probes;
  const uint64_t leaves_before = Stats().index_leaves;
  ExpectExactRange(10000, 10999);  // 20 rows over four depth-56 leaves
  const uint64_t probes = Stats().index_probes - probes_before;
  const uint64_t leaves = Stats().index_leaves - leaves_before;
  EXPECT_GE(leaves, 4u);
  EXPECT_LE(probes, leaves + 1)
      << probes << " probes for " << leaves << " leaves";
  EXPECT_EQ(Stats().index_fallbacks, 0u);
}

TEST_F(IndexHintTest, StaleShallowHintStillReadsSplitLeavesExactly) {
  ExpectExactRange(10000, 10999);
  ASSERT_EQ(Origin()->leaf_depth_hint(), 56);
  // 80 rows five keys apart split the range's first two leaves (the
  // scout's and a block's) below depth 56.
  for (int i = 0; i < 80; ++i) Publish(i, 10001 + 5 * i);
  net_->RunFor(Seconds(30));
  // Node 0 may own one of the split leaves, whose writes move its hint:
  // hold it at the depth the scan left.
  Origin()->set_leaf_depth_hint(56);
  const uint64_t fallbacks = Stats().index_fallbacks;
  const uint64_t leaves_before = Stats().index_leaves;
  ExpectExactRange(10000, 10999);
  EXPECT_EQ(Stats().index_fallbacks, fallbacks);
  EXPECT_GT(Stats().index_leaves - leaves_before, 4u);  // the split leaves
}

TEST_F(IndexHintTest, HintDeeperThanTheRangeStillReadsItExactly) {
  // A dense region, 64 rows one key apart, splits to leaves of 8 keys.
  for (int i = 0; i < 64; ++i) Publish(i, 100000 + i);
  net_->RunFor(Seconds(30));
  ExpectExactRange(100000, 100063);
  ASSERT_GT(Origin()->leaf_depth_hint(), 56);
  const uint64_t fallbacks = Stats().index_fallbacks;
  ExpectExactRange(10000, 10999);
  EXPECT_EQ(Stats().index_fallbacks, fallbacks);
  EXPECT_EQ(Origin()->leaf_depth_hint(), 56);
}

TEST_F(IndexHintTest, ProbesCountEveryGetOfAWalkThatFallsBack) {
  ExpectExactRange(1000, 1999);
  // Erase the ninth leaf of the range below everywhere: the cursor that
  // reaches it, a few leaves into its block, finds nothing under an
  // internal node and reports the damage, and the engine falls back to the
  // broadcast scan while sibling walks with more leaves are in flight.
  const std::string ns = index::PhtIndex::NamespaceFor("readings", 1);
  const std::string leaf = index::Prefix(index::EncodeInt64(2100), 56);
  for (size_t i = 0; i < net_->size(); ++i) {
    std::vector<uint64_t> instances;
    net_->node(i)->dht()->ForEachLocal(ns, [&](const dht::StoredItem& item) {
      if (item.key.resource == leaf) instances.push_back(item.key.instance);
      return true;
    });
    for (uint64_t instance : instances) {
      net_->node(i)->dht()->local_store()->Erase(ns, leaf, instance);
    }
  }
  const dht::DhtStats& dht = net_->node(0)->dht()->stats();
  const uint64_t gets_before = dht.gets_sent - dht.get_retries;
  const uint64_t probes_before = Stats().index_probes;
  const uint64_t fallbacks = Stats().index_fallbacks;
  ExpectExactRange(0, 19999);  // answered by the fallback scan
  EXPECT_EQ(Stats().index_fallbacks, fallbacks + 1);
  EXPECT_EQ(Stats().index_probes - probes_before,
            dht.gets_sent - dht.get_retries - gets_before);
}

}  // namespace
}  // namespace pier
