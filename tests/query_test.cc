// Integration tests for the distributed query engine: dissemination, scans,
// select/project, in-network aggregation (direct + tree), all four join
// strategies, recursion, continuous queries, and origin post-processing.
// Functional checks run on the one-hop router (deterministic, fast); the
// Chord variants validate the same answers over multi-hop routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/network.h"
#include "query/engine.h"
#include "query/exchange.h"
#include "query/plan.h"
#include "sim/fault_plane.h"
#include "workload/workloads.h"

namespace pier {
namespace query {
namespace {

using catalog::Column;
using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;
using exec::AggFunc;
using exec::AggSpec;
using exec::CompareOp;
using exec::Expr;

PierNetworkOptions OneHopOpts(uint64_t seed = 11) {
  PierNetworkOptions o;
  o.seed = seed;
  o.node.router_kind = RouterKind::kOneHop;
  o.node.engine.result_wait = Seconds(5);
  o.node.engine.agg_hold_base = Millis(400);
  return o;
}

PierNetworkOptions ChordOpts(uint64_t seed = 11) {
  PierNetworkOptions o;
  o.seed = seed;
  o.node.router_kind = RouterKind::kChord;
  o.node.engine.result_wait = Seconds(8);
  return o;
}

TableDef AlertsTable() {
  TableDef def;
  def.name = "alerts";
  def.schema = Schema("alerts", {{"rule_id", ValueType::kInt64},
                                 {"descr", ValueType::kString},
                                 {"hits", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

TableDef RulesTable() {
  TableDef def;
  def.name = "rules";
  def.schema = Schema("rules", {{"rule_id", ValueType::kInt64},
                                {"severity", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

TableDef LinksTable() {
  TableDef def;
  def.name = "links";
  def.schema = Schema("links", {{"src", ValueType::kString},
                                {"dst", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

// Hand-built plans (the algebraic API): a source, then the shared tail.
QueryPlan AlertsPlan(exec::ExprPtr where, OpNode body, OpNode collect = {},
                     std::optional<AggStrategy> in_network = std::nullopt) {
  QueryPlan plan;
  AddScan(&plan.graph, "alerts", AlertsTable().schema);
  AppendTail(&plan.graph, std::move(where), std::move(body),
             std::move(collect), in_network);
  return plan;
}

/// alerts JOIN rules ON rule_id; rows (or the aggregate) ship to the origin.
QueryPlan AlertsRulesJoinPlan(JoinStrategy strategy, exec::ExprPtr where,
                              OpNode body,
                              const Schema& rules = RulesTable().schema) {
  QueryPlan plan;
  AddJoin(&plan.graph, AddScan(&plan.graph, "alerts", AlertsTable().schema),
          "rules", rules, strategy, {0}, {0});
  AppendTail(&plan.graph, std::move(where), std::move(body));
  return plan;
}

/// Transitive closure over links(src, dst); `outer_where` filters the
/// (src, dst, hops) output.
QueryPlan ClosurePlan(int max_hops, exec::ExprPtr outer_where = nullptr) {
  QueryPlan plan;
  AddScan(&plan.graph, "links", LinksTable().schema);
  AddRecurse(&plan.graph, 0, 1, max_hops, nullptr);
  AppendTail(&plan.graph, std::move(outer_where), ProjectNode({}));
  return plan;
}

void RegisterEverywhere(PierNetwork& net, const TableDef& def) {
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(def).ok());
  }
}

// Publishes alerts spread across publishers: (rule_id, descr, hits).
void PublishAlerts(PierNetwork& net,
                   const std::vector<std::tuple<int, std::string, int>>& rows) {
  for (size_t i = 0; i < rows.size(); ++i) {
    auto& [rule, descr, hits] = rows[i];
    Tuple t{Value::Int64(rule), Value::String(descr), Value::Int64(hits)};
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }
  net.RunFor(Seconds(5));  // let puts land
}

// ---------------------------------------------------------------------------
// Select / project
// ---------------------------------------------------------------------------

TEST(QuerySelectTest, SelectStarCollectsAllRows) {
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}, {4, "d", 40}});

  QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}));

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 4u);
  std::set<int64_t> rules;
  for (const Tuple& t : batches[0].rows) rules.insert(t[0].int64_value());
  EXPECT_EQ(rules, (std::set<int64_t>{1, 2, 3, 4}));
}

TEST(QuerySelectTest, WhereFiltersAndProjectionComputes) {
  PierNetwork net(6, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}, {4, "d", 40}});

  // WHERE hits >= 25  SELECT rule_id, hits * 2
  QueryPlan plan = AlertsPlan(
      Expr::Compare(CompareOp::kGe, Expr::Column(2),
                    Expr::Literal(Value::Int64(25))),
      ProjectNode({Expr::Column(0),
                   Expr::Arith(exec::ArithOp::kMul, Expr::Column(2),
                               Expr::Literal(Value::Int64(2)))}));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(1)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 2u);
  std::map<int64_t, int64_t> got;
  for (const Tuple& t : batches[0].rows) {
    got[t[0].int64_value()] = t[1].int64_value();
  }
  EXPECT_EQ(got, (std::map<int64_t, int64_t>{{3, 60}, {4, 80}}));
}

TEST(QuerySelectTest, OrderByAndLimitAtOrigin) {
  PierNetwork net(6, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 40}, {2, "b", 10}, {3, "c", 30}, {4, "d", 20}});

  OpNode collect;
  collect.order_col = 2;
  collect.order_desc = true;
  collect.limit = 2;
  QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}), collect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 2u);
  EXPECT_EQ(batches[0].rows[0][2].int64_value(), 40);
  EXPECT_EQ(batches[0].rows[1][2].int64_value(), 30);
}

// LIMIT without ORDER BY / DISTINCT / aggregation pushes first-k into the
// member scans. The batch plane stops mid-batch: the answer has exactly k
// rows, and members stop reading the store long before exhausting it.
TEST(QuerySelectTest, LimitPushdownStopsBatchScanEarly) {
  PierNetwork net(2, OneHopOpts(53));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  // About three of the scheduler's 1024-row sweep batches per member.
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 6 * 1024; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  OpNode collect;
  collect.limit = 3;
  QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}), collect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 3u);

  uint64_t scanned = 0, batch_scans = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    scanned += net.node(i)->query_engine()->stats().tuples_scanned;
    batch_scans += net.node(i)->query_engine()->stats().batches_scanned;
  }
  // Each member serves one batch — nowhere near the 6,144 published rows.
  EXPECT_LE(scanned, 2u * 1024u);
  EXPECT_GT(batch_scans, 0u);
}

TEST(QuerySelectTest, DistinctAtOrigin) {
  PierNetwork net(5, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net,
                {{1, "x", 5}, {1, "x", 5}, {2, "y", 6}, {2, "y", 6}});

  OpNode collect;
  collect.distinct = true;
  QueryPlan plan = AlertsPlan(
      nullptr, ProjectNode({Expr::Column(0), Expr::Column(1)}), collect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 2u);
}

// ---------------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------------

class QueryAggTest : public ::testing::TestWithParam<AggStrategy> {};

TEST_P(QueryAggTest, GroupBySumMatchesReference) {
  PierNetwork net(10, OneHopOpts(17));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  std::map<int64_t, int64_t> expected_sum;
  std::map<int64_t, int64_t> expected_count;
  for (int i = 0; i < 60; ++i) {
    int rule = 1 + (i % 5);
    int hits = 10 + i;
    rows.push_back({rule, "r" + std::to_string(rule), hits});
    expected_sum[rule] += hits;
    expected_count[rule] += 1;
  }
  PublishAlerts(net, rows);

  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({0}, {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}),
      {}, GetParam());

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(12));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 5u);
  for (const Tuple& t : batches[0].rows) {
    int64_t rule = t[0].int64_value();
    EXPECT_EQ(t[1].int64_value(), expected_sum[rule]) << "rule " << rule;
    EXPECT_EQ(t[2].int64_value(), expected_count[rule]) << "rule " << rule;
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, QueryAggTest,
                         ::testing::Values(AggStrategy::kDirect,
                                           AggStrategy::kTree));

TEST(QueryAggregateTest, AllFiveAggregateFunctions) {
  PierNetwork net(6, OneHopOpts(23));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {1, "b", 20}, {1, "c", 60}});

  QueryPlan plan = AlertsPlan(nullptr,
                              AggNode({0}, {{AggFunc::kSum, 2, "sum"},
                                            {AggFunc::kCount, -1, "cnt"},
                                            {AggFunc::kAvg, 2, "avg"},
                                            {AggFunc::kMin, 2, "min"},
                                            {AggFunc::kMax, 2, "max"}}),
                              {}, AggStrategy::kTree);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(2)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(12));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  const Tuple& t = batches[0].rows[0];
  EXPECT_EQ(t[1].int64_value(), 90);
  EXPECT_EQ(t[2].int64_value(), 3);
  EXPECT_DOUBLE_EQ(t[3].double_value(), 30.0);
  EXPECT_EQ(t[4].int64_value(), 10);
  EXPECT_EQ(t[5].int64_value(), 60);
}

TEST(QueryAggregateTest, HavingTopKAndFinalProjection) {
  // The Table-1 shape: GROUP BY rule, SUM(hits), ORDER BY total DESC LIMIT n,
  // with a HAVING floor and SELECT-order permutation.
  PierNetwork net(8, OneHopOpts(29));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int rule = 1; rule <= 6; ++rule) {
    for (int k = 0; k < rule; ++k) {
      rows.push_back({rule, "r" + std::to_string(rule), 100 * rule});
    }
  }
  // Totals: rule r -> r * 100r = 100 r^2 (100, 400, 900, 1600, 2500, 3600).
  PublishAlerts(net, rows);

  // SELECT total, rule_id (permuted).
  OpNode collect;
  collect.final_projection = {1, 0};
  collect.order_col = 0;  // total, post-permutation
  collect.order_desc = true;
  collect.limit = 3;
  // HAVING SUM(hits) >= 900 over layout [rule_id, total].
  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({0}, {{AggFunc::kSum, 2, "total"}},
              Expr::Compare(CompareOp::kGe, Expr::Column(1),
                            Expr::Literal(Value::Int64(900)))),
      collect, AggStrategy::kTree);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(12));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 3u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 3600);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 6);
  EXPECT_EQ(batches[0].rows[1][0].int64_value(), 2500);
  EXPECT_EQ(batches[0].rows[2][0].int64_value(), 1600);
}

TEST(QueryAggregateTest, TreeAggregationOnChordMatchesReference) {
  PierNetwork net(16, ChordOpts(31));
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  int64_t expected = 0;
  for (int i = 0; i < 48; ++i) {
    rows.push_back({7, "seven", i});
    expected += i;
  }
  PublishAlerts(net, rows);
  net.RunFor(Seconds(5));

  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({0}, {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}),
      {}, AggStrategy::kTree);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(20));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), expected);
  EXPECT_EQ(batches[0].rows[0][2].int64_value(), 48);
}

// An answer held back only by the overlay's stability window certifies when
// the window runs out, though nothing arrives then to re-check it. The
// origin's ring view last changed during boot; the aggregate goes out 25 s
// later with a 12 s result window, so its counts are in well before the
// 30 s window ends, 7 s before the result window would close it degraded.
TEST(QueryAggregateTest, TreeAggregateCertifiesWhenTheStabilityWindowEnds) {
  PierNetworkOptions opts = ChordOpts(31);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(16, opts);
  net.Boot(Seconds(20));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 48; ++i) rows.push_back({i % 4, "r", i});
  PublishAlerts(net, rows);
  const TimePoint topo = net.node(0)->chord()->last_topology_change();
  ASSERT_GT(topo, 0);
  ASSERT_LT(net.sim()->now(), topo + Seconds(25));
  net.RunFor(topo + Seconds(25) - net.sim()->now());
  ASSERT_EQ(net.node(0)->chord()->last_topology_change(), topo)
      << "the ring was still settling";

  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({0}, {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}),
      {}, AggStrategy::kTree);
  std::vector<ResultBatch> batches;
  TimePoint answered_at = 0;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) {
                              batches.push_back(b);
                              answered_at = net.sim()->now();
                            })
                  .ok());
  net.RunFor(Seconds(20));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 4u);
  EXPECT_TRUE(batches[0].completeness.exact)
      << batches[0].completeness.ToString();
  EXPECT_EQ(answered_at, topo + Seconds(30));
}

// ---------------------------------------------------------------------------
// Continuous queries
// ---------------------------------------------------------------------------

TEST(QueryContinuousTest, EpochsTrackChangingData) {
  PierNetworkOptions opts = OneHopOpts(37);
  opts.node.engine.result_wait = Seconds(4);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());

  // Each node publishes one row and republishes with growing hit counts.
  auto publish_round = [&](int round) {
    for (size_t i = 0; i < net.size(); ++i) {
      Tuple t{Value::Int64(static_cast<int64_t>(i)), Value::String("n"),
              Value::Int64(100 * round)};
      ASSERT_TRUE(net.node(i)->query_engine()->Publish("alerts", t).ok());
    }
  };
  publish_round(1);
  net.RunFor(Seconds(3));

  QueryPlan plan = AlertsPlan(nullptr,
                              AggNode({}, {{AggFunc::kSum, 2, "total"},
                                           {AggFunc::kCount, -1, "rows"}}),
                              {}, AggStrategy::kDirect);
  plan.every = Seconds(10);
  plan.window = Seconds(10);  // only rows published this epoch

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  uint64_t qid = r.value();

  // Publish a fresh round mid-window of each later epoch.
  for (int round = 2; round <= 4; ++round) {
    net.RunFor(Seconds(5));
    publish_round(round);
    net.RunFor(Seconds(5));
  }
  net.RunFor(Seconds(10));
  net.node(0)->query_engine()->Cancel(qid);
  net.RunFor(Seconds(5));

  ASSERT_GE(batches.size(), 3u);
  // Every completed epoch sees the 6 freshest rows (6 publishers), and the
  // sums grow across rounds.
  for (size_t e = 0; e < 3; ++e) {
    ASSERT_EQ(batches[e].rows.size(), 1u) << "epoch " << e;
    EXPECT_EQ(batches[e].rows[0][1].int64_value(), 6) << "epoch " << e;
  }
  int64_t sum_first = batches[0].rows[0][0].int64_value();
  int64_t sum_later = batches[2].rows[0][0].int64_value();
  EXPECT_GT(sum_later, sum_first);
}

// A continuous tree aggregate whose result window (7 s) outlasts its period
// (4 s). Each epoch's plan refresh carries its own cover wave, so every
// tree node knows its subtree's size per epoch and flushes on the count;
// the root of the combine tree then holds exactly every member, and the
// origin certifies each epoch about a second after it opens instead of
// holding it 7 s into the next one. Epochs 0..6 all close inside 28 s, each
// with every row, every member counted, and nothing late.
TEST(QueryContinuousTest, TreeEpochsCloseByCountAndCertify) {
  PierNetworkOptions opts = ChordOpts(53);
  opts.node.engine.result_wait = Seconds(7);
  PierNetwork net(24, opts);
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 96; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({}, {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}),
      {}, AggStrategy::kTree);
  plan.every = Seconds(4);
  std::vector<ResultBatch> batches;
  std::vector<TimePoint> closed_at;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) {
        batches.push_back(b);
        closed_at.push_back(net.sim()->now());
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TimePoint issued = net.sim()->now();
  net.RunFor(Seconds(28));  // epochs 0..6 open at 0, 4, ..., 24 s
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(5));

  ASSERT_EQ(batches.size(), 7u);
  for (size_t e = 0; e < batches.size(); ++e) {
    const ResultBatch& b = batches[e];
    SCOPED_TRACE("epoch " + std::to_string(b.epoch));
    EXPECT_EQ(b.epoch, e);
    ASSERT_EQ(b.rows.size(), 1u);
    EXPECT_EQ(b.rows[0][0].int64_value(), 4560);  // 0 + 1 + ... + 95
    EXPECT_EQ(b.rows[0][1].int64_value(), 96);
    EXPECT_TRUE(b.completeness.exact) << b.completeness.ToString();
    EXPECT_EQ(b.completeness.members_expected, 24u);
    EXPECT_EQ(b.completeness.members_reported, 24u);
    // Interior nodes combined: the root heard from a few children, not 24.
    EXPECT_EQ(b.reporting_nodes, 11u);
    EXPECT_LT(closed_at[e] - issued, Seconds(4) * static_cast<int64_t>(e) +
                                         Seconds(2));
  }
  EXPECT_EQ(net.node(0)->query_engine()->stats().late_partials, 0u);
}

// The same aggregate with every cover wave forced incomplete (a 1 ms cover
// timeout): no interior node learns its subtree's size and the origin never
// certifies, so the counts fall back to the hold and each epoch closes on
// its 7 s result window, 3 s into the next 4 s period. Opening epoch E+1
// flushes each interior node's E combiner, so E's partials reach the
// origin after E+1 has opened and the root of the combine tree collects
// two epochs at once. Every epoch must still see every row, none of them
// late.
TEST(QueryContinuousTest, OverlappingEpochsCombineAtTheTreeRoot) {
  PierNetworkOptions opts = ChordOpts(53);
  opts.node.engine.result_wait = Seconds(7);
  opts.node.broadcast.cover_timeout = Millis(1);
  PierNetwork net(24, opts);
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 96; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({}, {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}),
      {}, AggStrategy::kTree);
  plan.every = Seconds(4);
  std::vector<ResultBatch> batches;
  std::vector<TimePoint> closed_at;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) {
        batches.push_back(b);
        closed_at.push_back(net.sim()->now());
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const TimePoint issued = net.sim()->now();
  net.RunFor(Seconds(28));  // epochs 0..5 close at 7, 11, ..., 27 s
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(5));

  ASSERT_EQ(batches.size(), 6u);
  for (size_t e = 0; e < batches.size(); ++e) {
    const ResultBatch& b = batches[e];
    SCOPED_TRACE("epoch " + std::to_string(b.epoch));
    EXPECT_EQ(b.epoch, e);
    ASSERT_EQ(b.rows.size(), 1u);
    EXPECT_EQ(b.rows[0][0].int64_value(), 4560);  // 0 + 1 + ... + 95
    EXPECT_EQ(b.rows[0][1].int64_value(), 96);
    EXPECT_FALSE(b.completeness.coverage_complete);
    EXPECT_FALSE(b.completeness.exact);
    EXPECT_EQ(b.completeness.members_reported, 24u);
    EXPECT_EQ(b.reporting_nodes, 11u);
    EXPECT_EQ(closed_at[e] - issued,
              Seconds(4) * static_cast<int64_t>(e) + Seconds(7));
  }
  EXPECT_EQ(net.node(0)->query_engine()->stats().late_partials, 0u);
}

// A continuous tree aggregate whose epoch-0 count completes only after
// epoch 1's: everything member 3 sends in the first 3.5 s arrives 4.5 s
// late, its epoch-0 cover and partial included, while epoch 1's traffic
// runs on time. Epochs close in order, so epoch 1 waits for epoch 0, which
// the origin certifies as soon as member 3's partial lands (a retransmit
// sent after the delay window) instead of waiting out its 7 s result
// window; epoch 1 follows at once.
TEST(QueryContinuousTest, EpochCertifiesWhenItsCountClosesInTheNextEpoch) {
  PierNetworkOptions opts = OneHopOpts(67);
  opts.node.engine.result_wait = Seconds(7);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 32; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  QueryPlan plan = AlertsPlan(
      nullptr,
      AggNode({}, {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}}),
      {}, AggStrategy::kTree);
  plan.every = Seconds(4);
  const TimePoint issued = net.sim()->now();
  sim::FaultPlane plane(net.sim()->rng().Fork(0x6c617465ull));  // "late"
  sim::FaultRule late;  // one direction only: member 3 still hears the plan
  late.from = issued;
  late.until = issued + Millis(3500);
  late.src = {net.node(3)->host()};
  late.extra_delay = Millis(4500);
  plane.AddRule(late);
  net.net()->SetFaultPlane(&plane);
  std::vector<ResultBatch> batches;
  std::vector<TimePoint> closed_at;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) {
        batches.push_back(b);
        closed_at.push_back(net.sim()->now());
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(10));  // epochs 0, 1 and 2 open at 0, 4 and 8 s
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(5));
  net.net()->SetFaultPlane(nullptr);

  ASSERT_EQ(batches.size(), 3u);
  for (size_t e = 0; e < batches.size(); ++e) {
    const ResultBatch& b = batches[e];
    SCOPED_TRACE("epoch " + std::to_string(b.epoch));
    EXPECT_EQ(b.epoch, e);
    ASSERT_EQ(b.rows.size(), 1u);
    EXPECT_EQ(b.rows[0][0].int64_value(), 496);  // 0 + 1 + ... + 31
    EXPECT_EQ(b.rows[0][1].int64_value(), 32);
    EXPECT_TRUE(b.completeness.exact) << b.completeness.ToString();
    EXPECT_EQ(b.completeness.members_reported, 8u);
  }
  // Epoch 0 closed on its count, inside epoch 1 and long before 7 s.
  EXPECT_GT(closed_at[0] - issued, Seconds(4));
  EXPECT_LT(closed_at[0] - issued, Seconds(5));
  EXPECT_LT(closed_at[1] - issued, Seconds(5));
  EXPECT_EQ(net.node(0)->query_engine()->stats().late_partials, 0u);
}

TEST(QueryContinuousTest, CancelStopsEpochs) {
  PierNetwork net(4, OneHopOpts(41));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "x", 1}});

  QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}));
  plan.every = Seconds(8);

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(20));
  size_t before = batches.size();
  EXPECT_GE(before, 2u);
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(30));
  EXPECT_EQ(batches.size(), before);
}

// The client cancels its continuous query from inside the result callback
// of epoch 1, and keeps using what the callback captured after Cancel
// returns. Cancel frees the query at the origin at once; the engine must
// not touch it (or the callback it is running) afterwards, no later epoch
// may be delivered, and every node must drop the query.
TEST(QueryContinuousTest, CancelFromInsideTheResultCallback) {
  PierNetwork net(6, OneHopOpts(43));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "x", 10}, {2, "y", 20}});

  QueryPlan plan =
      AlertsPlan(nullptr, AggNode({}, {{AggFunc::kSum, 2, "total"}}), {},
                 AggStrategy::kTree);
  plan.every = Seconds(4);
  QueryEngine* origin = net.node(0)->query_engine();
  uint64_t qid = 0;
  std::vector<uint64_t> epochs;
  std::string last_row;
  auto r = origin->Execute(plan, [&, origin](const ResultBatch& b) {
    epochs.push_back(b.epoch);
    if (b.epoch == 1) origin->Cancel(qid);
    last_row = b.rows.empty() ? "" : b.rows[0][0].ToString();
  });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  qid = r.value();
  net.RunFor(Seconds(20));

  EXPECT_EQ(epochs, (std::vector<uint64_t>{0, 1}));
  EXPECT_EQ(last_row, "30");
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->query_engine()->active_queries(), 0u)
        << "node " << i;
  }
  EXPECT_EQ(origin->stats().queries_cancelled, 1u);
}

// A closed-loop client: each one-shot answer's callback issues the next
// query, three rounds from the same origin, while the engine is still
// inside the finalize of the query that answered.
TEST(QuerySelectTest, ResultCallbackIssuesTheNextQuery) {
  PierNetwork net(6, OneHopOpts(47));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "x", 1}, {2, "y", 2}, {3, "z", 3}});

  QueryEngine* origin = net.node(0)->query_engine();
  const QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}));
  std::vector<size_t> answers;
  std::function<void(const ResultBatch&)> next =
      [&](const ResultBatch& b) {
        answers.push_back(b.rows.size());
        if (answers.size() < 3) {
          ASSERT_TRUE(origin->Execute(plan, next).ok());
        }
      };
  ASSERT_TRUE(origin->Execute(plan, next).ok());
  net.RunFor(Seconds(30));

  EXPECT_EQ(answers, (std::vector<size_t>{3, 3, 3}));
  EXPECT_EQ(origin->stats().queries_issued, 3u);
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->query_engine()->active_queries(), 0u)
        << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Joins — all four strategies against a nested-loop reference
// ---------------------------------------------------------------------------

struct JoinFixture {
  std::vector<std::tuple<int, std::string, int>> alerts;
  std::vector<std::pair<int, int>> rules;  // (rule_id, severity)

  // Reference: alerts ⋈ rules on rule_id, WHERE severity >= 2,
  // SELECT rule_id, hits, severity.
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> Expected() const {
    std::multiset<std::tuple<int64_t, int64_t, int64_t>> out;
    for (const auto& [rule, descr, hits] : alerts) {
      for (const auto& [rrule, sev] : rules) {
        if (rule == rrule && sev >= 2) out.insert({rule, hits, sev});
      }
    }
    return out;
  }
};

class QueryJoinTest : public ::testing::TestWithParam<JoinStrategy> {};

TEST_P(QueryJoinTest, EquiJoinMatchesReference) {
  PierNetworkOptions opts = OneHopOpts(43);
  opts.node.engine.result_wait = Seconds(12);
  opts.node.engine.bloom_wait = Seconds(3);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());

  JoinFixture fx;
  fx.alerts = {{1, "a", 10}, {2, "b", 20}, {2, "c", 25},
               {3, "d", 30}, {4, "e", 40}, {5, "f", 50}};
  fx.rules = {{1, 1}, {2, 2}, {3, 3}, {4, 2}, {9, 5}};
  PublishAlerts(net, fx.alerts);
  for (size_t i = 0; i < fx.rules.size(); ++i) {
    Tuple t{Value::Int64(fx.rules[i].first),
            Value::Int64(fx.rules[i].second)};
    ASSERT_TRUE(net.node((i + 3) % net.size())
                    ->query_engine()
                    ->Publish("rules", t)
                    .ok());
  }
  net.RunFor(Seconds(5));

  // Concat layout: [rule_id, descr, hits, rules.rule_id, severity].
  QueryPlan plan = AlertsRulesJoinPlan(
      GetParam(),
      Expr::Compare(CompareOp::kGe, Expr::Column(4),
                    Expr::Literal(Value::Int64(2))),
      ProjectNode({Expr::Column(0), Expr::Column(2), Expr::Column(4)}));

  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(25));

  ASSERT_EQ(batches.size(), 1u);
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].int64_value(), t[1].int64_value(), t[2].int64_value()});
  }
  EXPECT_EQ(got, fx.Expected())
      << "strategy " << JoinStrategyName(GetParam());
  // Clean network: no filter wave may degrade, so every suppressing
  // strategy matches the symmetric-hash answer above at full recall.
  EXPECT_EQ(batches[0].completeness.filter_waves_degraded, 0u);
  if (GetParam() == JoinStrategy::kBloom) {
    uint64_t complete = 0, degraded = 0, parts = 0, saved = 0, cut = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      const auto& st = net.node(i)->query_engine()->stats();
      complete += st.bloom_waves_complete;
      degraded += st.bloom_waves_degraded;
      parts += st.bloom_parts_received;
      saved += st.bloom_bytes_saved;
      cut += st.bloom_suppressed;
    }
    EXPECT_EQ(complete, 1u);
    EXPECT_EQ(degraded, 0u);
    EXPECT_EQ(parts, net.size() - 1);  // every member reported its part
    // alerts key 5 and rules key 9 have no partner: the complete filter
    // union suppressed them before rehash, and the byte ledger saw it.
    EXPECT_GT(cut, 0u);
    EXPECT_GT(saved, 0u);
  }
  if (GetParam() == JoinStrategy::kSymmetricSemi) {
    uint64_t saved = 0;
    for (size_t i = 0; i < net.size(); ++i) {
      saved += net.node(i)->query_engine()->stats().semijoin_bytes_saved;
    }
    EXPECT_GT(saved, 0u);  // key projections narrower than full tuples
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, QueryJoinTest,
                         ::testing::Values(JoinStrategy::kSymmetricHash,
                                           JoinStrategy::kFetchMatches,
                                           JoinStrategy::kSymmetricSemi,
                                           JoinStrategy::kBloom));

TEST(QueryJoinTest2, JoinWithOriginAggregation) {
  // SELECT severity, COUNT(*) FROM alerts JOIN rules GROUP BY severity.
  PierNetwork net(6, OneHopOpts(47));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}});
  for (auto [rule, sev] : std::vector<std::pair<int, int>>{{1, 1}, {2, 1},
                                                           {3, 2}}) {
    ASSERT_TRUE(net.node(0)
                    ->query_engine()
                    ->Publish("rules", Tuple{Value::Int64(rule),
                                             Value::Int64(sev)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  // Group on severity (concat column 4); the origin aggregates.
  QueryPlan plan = AlertsRulesJoinPlan(
      JoinStrategy::kSymmetricHash, nullptr,
      AggNode({4}, {{AggFunc::kCount, -1, "n"}}));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(1)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(15));
  ASSERT_EQ(batches.size(), 1u);
  std::map<int64_t, int64_t> got;
  for (const Tuple& t : batches[0].rows) {
    got[t[0].int64_value()] = t[1].int64_value();
  }
  EXPECT_EQ(got, (std::map<int64_t, int64_t>{{1, 2}, {2, 1}}));
}

TEST(QueryJoinTest2, SymmetricHashJoinOnChord) {
  PierNetworkOptions opts = ChordOpts(53);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(12, opts);
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}});
  for (auto [rule, sev] : std::vector<std::pair<int, int>>{{2, 9}, {3, 9}}) {
    ASSERT_TRUE(net.node(4)
                    ->query_engine()
                    ->Publish("rules",
                              Tuple{Value::Int64(rule), Value::Int64(sev)})
                    .ok());
  }
  net.RunFor(Seconds(8));

  QueryPlan plan = AlertsRulesJoinPlan(
      JoinStrategy::kSymmetricHash, nullptr,
      ProjectNode({Expr::Column(0), Expr::Column(4)}));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(25));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 2u);
}

// A rehash frame can reach its rendezvous before the plan does. The runtime
// replays it when the join installs; a later re-delivery of the same put
// (a DHT put retry whose ack was lost) must not join it a second time.
TEST(QueryJoinTest2, EarlyArrivalReplayedOnceDespiteRedelivery) {
  PierNetwork net(6, OneHopOpts(83));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  ASSERT_TRUE(net.node(2)
                  ->query_engine()
                  ->Publish("rules", Tuple{Value::Int64(7), Value::Int64(3)})
                  .ok());
  net.RunFor(Seconds(5));

  // The id of node 0's next query; in its plan the scans are graph nodes 0
  // and 1, so the join consumes exchange namespace q<qid>.x2.
  const uint64_t qid = ((static_cast<uint64_t>(net.node(0)->host()) + 1)
                        << 32) |
                       1;
  const Tuple early{Value::Int64(7), Value::String("early"),
                    Value::Int64(70)};
  Writer frame;
  frame.PutU8(0);  // left side: alerts
  catalog::SerializeTuple(early, &frame);
  const dht::DhtKey key{RehashExchange::NamespaceFor(qid, 2),
                        catalog::ResourceForCols(early, {0}),
                        /*instance=*/777};
  auto put = [&] {
    net.node(4)->dht()->Put(key, frame.buffer(), Seconds(60),
                            [](Status) {});
  };
  put();
  net.RunFor(Seconds(1));

  QueryPlan plan = AlertsRulesJoinPlan(
      JoinStrategy::kSymmetricHash, nullptr,
      ProjectNode({Expr::Column(0), Expr::Column(2), Expr::Column(4)}));
  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value(), qid);
  net.RunFor(Seconds(1));
  put();
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 7);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 70);
  EXPECT_EQ(batches[0].rows[0][2].int64_value(), 3);
}

TEST(QueryJoinTest2, FetchMatchesRequiresCompatiblePartitioning) {
  PierNetwork net(4, OneHopOpts(59));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  TableDef rules = RulesTable();
  rules.partition_cols = {1};  // partitioned on severity, not rule_id
  RegisterEverywhere(net, rules);

  QueryPlan plan = AlertsRulesJoinPlan(JoinStrategy::kFetchMatches, nullptr,
                                       ProjectNode({}), rules.schema);

  auto r = net.node(0)->query_engine()->Execute(plan,
                                                [](const ResultBatch&) {});
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// One scan path: every local scan is a QueryScheduler sweep
// ---------------------------------------------------------------------------

/// Registers alerts and rules (partitioned on rule_id) on every node and
/// publishes `fx`, as EquiJoinMatchesReference does.
void PublishJoinFixture(PierNetwork& net, const JoinFixture& fx) {
  RegisterEverywhere(net, AlertsTable());
  RegisterEverywhere(net, RulesTable());
  PublishAlerts(net, fx.alerts);
  for (size_t i = 0; i < fx.rules.size(); ++i) {
    Tuple t{Value::Int64(fx.rules[i].first),
            Value::Int64(fx.rules[i].second)};
    ASSERT_TRUE(net.node((i + 3) % net.size())
                    ->query_engine()
                    ->Publish("rules", t)
                    .ok());
  }
  net.RunFor(Seconds(5));
}

JoinFixture ScanPathFixture() {
  JoinFixture fx;
  fx.alerts = {{1, "a", 10}, {2, "b", 20}, {2, "c", 25},
               {3, "d", 30}, {4, "e", 40}, {5, "f", 50}};
  fx.rules = {{1, 1}, {2, 2}, {3, 3}, {4, 2}, {9, 5}};
  return fx;
}

/// The fixture's join under `strategy`, checked against its reference.
QueryPlan FixtureJoinPlan(JoinStrategy strategy) {
  return AlertsRulesJoinPlan(
      strategy,
      Expr::Compare(CompareOp::kGe, Expr::Column(4),
                    Expr::Literal(Value::Int64(2))),
      ProjectNode({Expr::Column(0), Expr::Column(2), Expr::Column(4)}));
}

std::multiset<std::tuple<int64_t, int64_t, int64_t>> JoinedRows(
    const ResultBatch& b) {
  std::multiset<std::tuple<int64_t, int64_t, int64_t>> got;
  for (const Tuple& t : b.rows) {
    got.insert({t[0].int64_value(), t[1].int64_value(), t[2].int64_value()});
  }
  return got;
}

// Fetch-matches probes its inner relation by DHT get: every node sweeps its
// outer slice once and never scans the inner one.
TEST(QueryScanPathTest, FetchMatchesScansOnlyItsOuterRelation) {
  PierNetworkOptions opts = OneHopOpts(89);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  const JoinFixture fx = ScanPathFixture();
  PublishJoinFixture(net, fx);

  std::vector<uint64_t> before;
  for (size_t i = 0; i < net.size(); ++i) {
    before.push_back(net.node(i)->query_engine()->stats().scans_run);
  }
  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(FixtureJoinPlan(JoinStrategy::kFetchMatches),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(20));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(JoinedRows(batches[0]), fx.Expected());
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->query_engine()->stats().scans_run - before[i], 1u)
        << "node " << i;
  }
}

// A join's input scan is an ordinary scheduler sweep: a plain scan of the
// same table and schema issued within the scheduler's shared window
// attaches to it instead of walking the store again.
TEST(QueryScanPathTest, JoinAndScanOfOneTableShareASweep) {
  PierNetworkOptions opts = OneHopOpts(97);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  const JoinFixture fx = ScanPathFixture();
  PublishJoinFixture(net, fx);

  std::vector<ResultBatch> joined, scanned;
  QueryEngine* origin = net.node(0)->query_engine();
  ASSERT_TRUE(origin
                  ->Execute(FixtureJoinPlan(JoinStrategy::kSymmetricHash),
                            [&](const ResultBatch& b) { joined.push_back(b); })
                  .ok());
  ASSERT_TRUE(origin
                  ->Execute(AlertsPlan(nullptr, ProjectNode({})),
                            [&](const ResultBatch& b) { scanned.push_back(b); })
                  .ok());
  net.RunFor(Seconds(20));
  ASSERT_EQ(joined.size(), 1u);
  ASSERT_EQ(scanned.size(), 1u);
  EXPECT_EQ(JoinedRows(joined[0]), fx.Expected());
  EXPECT_EQ(scanned[0].rows.size(), fx.alerts.size());
  uint64_t shared = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    shared += net.node(i)->query_engine()->stats().shared_scan_hits;
  }
  EXPECT_GT(shared, 0u);
}

// Bloom join, semi-join, recursion and a plain scan side by side: every
// scan any node ran was a store sweep or attached to one, and none was a
// row-at-a-time pass.
TEST(QueryScanPathTest, EveryScanIsASchedulerSweep) {
  PierNetworkOptions opts = OneHopOpts(101);
  opts.node.engine.result_wait = Seconds(12);
  opts.node.engine.bloom_wait = Seconds(3);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  const JoinFixture fx = ScanPathFixture();
  PublishJoinFixture(net, fx);
  RegisterEverywhere(net, LinksTable());
  for (auto [src, dst] : std::vector<std::pair<const char*, const char*>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}}) {
    ASSERT_TRUE(net.node(1)
                    ->query_engine()
                    ->Publish("links",
                              Tuple{Value::String(src), Value::String(dst)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  std::vector<std::vector<ResultBatch>> answers(4);
  auto collect = [&answers](size_t i) {
    return [&answers, i](const ResultBatch& b) { answers[i].push_back(b); };
  };
  QueryEngine* origin = net.node(0)->query_engine();
  ASSERT_TRUE(
      origin->Execute(FixtureJoinPlan(JoinStrategy::kBloom), collect(0)).ok());
  ASSERT_TRUE(
      origin->Execute(FixtureJoinPlan(JoinStrategy::kSymmetricSemi), collect(1))
          .ok());
  ASSERT_TRUE(origin->Execute(ClosurePlan(8), collect(2)).ok());
  ASSERT_TRUE(
      origin->Execute(AlertsPlan(nullptr, ProjectNode({})), collect(3)).ok());
  net.RunFor(Seconds(40));

  for (const std::vector<ResultBatch>& a : answers) ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(JoinedRows(answers[0][0]), fx.Expected());
  EXPECT_EQ(JoinedRows(answers[1][0]), fx.Expected());
  EXPECT_EQ(answers[2][0].rows.size(), 6u);  // the closure of a -> b -> c -> d
  EXPECT_EQ(answers[3][0].rows.size(), fx.alerts.size());
  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& st = net.node(i)->query_engine()->stats();
    SCOPED_TRACE("node " + std::to_string(i));
    EXPECT_GT(st.scans_run, 0u);
    EXPECT_EQ(st.store_sweeps + st.shared_scan_hits, st.scans_run);
    EXPECT_EQ(st.vectorized_fallbacks, 0u);
  }
}

// ---------------------------------------------------------------------------
// Joins close by count: members report their rehash books, and an answer
// whose books balance is certified exact before result_wait
// ---------------------------------------------------------------------------

class QueryJoinCertifyTest : public ::testing::TestWithParam<JoinStrategy> {};

// On a clean, settled Chord ring every strategy returns its exact rows,
// certified, in a fraction of result_wait; a Bloom join's filter wave goes
// out once every member's part is in, well before bloom_wait.
TEST_P(QueryJoinCertifyTest, CleanRingCertifiesBeforeResultWait) {
  PierNetworkOptions opts = ChordOpts(131);
  opts.node.engine.result_wait = Seconds(20);
  opts.node.engine.bloom_wait = Seconds(5);
  PierNetwork net(16, opts);
  net.Boot(Seconds(60));
  const JoinFixture fx = ScanPathFixture();
  PublishJoinFixture(net, fx);
  net.RunFor(Seconds(30));  // past the certify stability window

  std::vector<ResultBatch> batches;
  TimePoint answered = 0;
  const TimePoint issued = net.sim()->now();
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(FixtureJoinPlan(GetParam()),
                            [&](const ResultBatch& b) {
                              batches.push_back(b);
                              answered = net.sim()->now();
                            })
                  .ok());
  net.RunFor(Seconds(30));

  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(JoinedRows(batches[0]), fx.Expected());
  const Completeness& c = batches[0].completeness;
  EXPECT_TRUE(c.exact) << c.ToString();
  EXPECT_EQ(c.members_reported, net.size()) << c.ToString();
  EXPECT_LT(answered - issued, opts.node.engine.result_wait / 4);
  if (GetParam() == JoinStrategy::kBloom) {
    EXPECT_LT(answered - issued, opts.node.engine.bloom_wait);
    EXPECT_EQ(net.node(0)->query_engine()->stats().bloom_waves_complete, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, QueryJoinCertifyTest,
                         ::testing::Values(JoinStrategy::kSymmetricHash,
                                           JoinStrategy::kFetchMatches,
                                           JoinStrategy::kSymmetricSemi,
                                           JoinStrategy::kBloom));

/// Index of the node whose host owns `key` on a one-hop ring.
size_t OwnerIndex(PierNetwork& net, const dht::DhtKey& key) {
  const sim::HostId host = net.directory()->Owner(key.RoutingKey()).host;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->host() == host) return i;
  }
  return net.size();
}

/// The fixture's join on 8 one-hop nodes, issued from node 0 while
/// `fault` (given the query id the issue will get) is in force. Returns
/// the one answer and how long it took.
struct FaultedJoin {
  ResultBatch batch;
  Duration took = 0;
  uint64_t rehash_put_failures = 0;  ///< summed over the nodes
};

FaultedJoin RunFaultedJoin(
    JoinStrategy strategy,
    const std::function<void(PierNetwork&, sim::FaultPlane&, uint64_t)>&
        fault) {
  PierNetworkOptions opts = OneHopOpts(137);
  opts.node.engine.result_wait = Seconds(12);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  PublishJoinFixture(net, ScanPathFixture());
  // Long enough up that every owner vouches for its get answers.
  net.RunFor(Seconds(30));
  sim::FaultPlane plane(net.sim()->rng().Fork(0x626f6f6bull));  // "book"
  net.net()->SetFaultPlane(&plane);
  // Node 0's first query: in its plan the join is graph node 2.
  const uint64_t qid =
      ((static_cast<uint64_t>(net.node(0)->host()) + 1) << 32) | 1;
  fault(net, plane, qid);

  FaultedJoin out;
  std::vector<ResultBatch> batches;
  const TimePoint issued = net.sim()->now();
  auto r = net.node(0)->query_engine()->Execute(
      FixtureJoinPlan(strategy), [&](const ResultBatch& b) {
        batches.push_back(b);
        out.took = net.sim()->now() - issued;
      });
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), qid);
  net.RunFor(Seconds(30));
  net.net()->SetFaultPlane(nullptr);
  for (size_t i = 0; i < net.size(); ++i) {
    out.rehash_put_failures +=
        net.node(i)->query_engine()->stats().rehash_put_failures;
  }
  EXPECT_EQ(batches.size(), 1u);
  if (!batches.empty()) out.batch = batches[0];
  return out;
}

/// The fixture's expected rows without those of rule `rule`.
std::multiset<std::tuple<int64_t, int64_t, int64_t>> ExpectedWithout(
    int rule) {
  auto rows = ScanPathFixture().Expected();
  for (auto it = rows.begin(); it != rows.end();) {
    it = std::get<0>(*it) == rule ? rows.erase(it) : std::next(it);
  }
  return rows;
}

/// A fixture rule whose alerts rows (partitioned on rule_id) live on
/// another node than the owner of `target(rule)`, with both node indexes:
/// a one-way cut `from` -> `to` breaks that rule's traffic.
struct CutEdge {
  int rule = 0;
  size_t from = 0, to = 0;
};

CutEdge FindCutEdge(PierNetwork& net,
                    const std::function<dht::DhtKey(int)>& target) {
  for (int rule : {2, 3, 4}) {
    const Tuple probe{Value::Int64(rule)};
    const size_t from = OwnerIndex(
        net, dht::DhtKey{"alerts", catalog::ResourceForCols(probe, {0}), 0});
    const size_t to = OwnerIndex(net, target(rule));
    if (from != to) return {rule, from, to};
  }
  return {};
}

// A rehash put that runs out of DHT retries is missing from both sides of
// the books, so they would balance without it: its loss must count.
TEST(QueryJoinCertifyFaultTest, FailedRehashPutBarsCertification) {
  CutEdge cut;
  FaultedJoin j = RunFaultedJoin(
      JoinStrategy::kSymmetricHash,
      [&cut](PierNetwork& net, sim::FaultPlane& plane, uint64_t qid) {
        cut = FindCutEdge(net, [qid](int rule) {
          return dht::DhtKey{RehashExchange::NamespaceFor(qid, 2),
                             catalog::ResourceForCols(
                                 Tuple{Value::Int64(rule)}, {0}),
                             0};
        });
        // One producer can no longer reach one rendezvous.
        plane.Partition({net.node(cut.from)->host()},
                        {net.node(cut.to)->host()}, net.sim()->now(),
                        net.sim()->now() + Seconds(20),
                        /*bidirectional=*/false);
      });
  ASSERT_NE(cut.rule, 0) << "every rule's producer is its rendezvous";
  EXPECT_EQ(JoinedRows(j.batch), ExpectedWithout(cut.rule));
  const Completeness& c = j.batch.completeness;
  EXPECT_TRUE(c.coverage_complete) << c.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_GE(c.frames_lost, 1u) << c.ToString();
  EXPECT_GE(j.rehash_put_failures, 1u);
  EXPECT_EQ(j.took, Seconds(12));
}

// A semi-join match waits for both full tuples; one fetch response that
// never arrives leaves its rendezvous unsettled, so nothing certifies.
TEST(QueryJoinCertifyFaultTest, SwallowedSemiJoinFetchBarsCertification) {
  // Drops the first kFetchResp any node receives, then steps aside.
  class SwallowFirstFetchResp : public sim::MessageHandler {
   public:
    SwallowFirstFetchResp(core::PierNode* node, int* budget)
        : node_(node), budget_(budget) {}
    void OnMessage(sim::HostId from, const sim::Packet& packet) override {
      Reader r(packet.head.view());
      uint8_t proto = 0, type = 0;
      if (*budget_ > 0 && r.GetU8(&proto).ok() &&
          proto == static_cast<uint8_t>(overlay::Proto::kQuery) &&
          r.GetU8(&type).ok() &&
          type == static_cast<uint8_t>(MsgType::kFetchResp)) {
        --*budget_;
        return;
      }
      node_->OnMessage(from, packet);
    }

   private:
    core::PierNode* node_;
    int* budget_;
  };
  int budget = 1;
  std::vector<std::unique_ptr<SwallowFirstFetchResp>> hooks;
  FaultedJoin j = RunFaultedJoin(
      JoinStrategy::kSymmetricSemi,
      [&](PierNetwork& net, sim::FaultPlane&, uint64_t) {
        for (size_t i = 0; i < net.size(); ++i) {
          hooks.push_back(
              std::make_unique<SwallowFirstFetchResp>(net.node(i), &budget));
          net.net()->SetHandler(net.node(i)->host(), hooks.back().get());
        }
      });
  EXPECT_EQ(budget, 0) << "no fetch response was swallowed";
  // The lost match may be one the residual filter drops anyway.
  const auto expected = ScanPathFixture().Expected();
  const auto got = JoinedRows(j.batch);
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()));
  const Completeness& c = j.batch.completeness;
  EXPECT_TRUE(c.coverage_complete) << c.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_EQ(j.took, Seconds(12));
}

// A fetch-matches get that runs out of retries loses its probe's matches.
TEST(QueryJoinCertifyFaultTest, FailedFetchMatchesGetBarsCertification) {
  CutEdge cut;
  FaultedJoin j = RunFaultedJoin(
      JoinStrategy::kFetchMatches,
      [&cut](PierNetwork& net, sim::FaultPlane& plane, uint64_t) {
        cut = FindCutEdge(net, [](int rule) {
          return dht::DhtKey{
              "rules",
              catalog::ResourceForCols(Tuple{Value::Int64(rule)}, {0}), 0};
        });
        // The prober's gets can no longer reach the inner relation's owner.
        plane.Partition({net.node(cut.from)->host()},
                        {net.node(cut.to)->host()}, net.sim()->now(),
                        net.sim()->now() + Seconds(20),
                        /*bidirectional=*/false);
      });
  ASSERT_NE(cut.rule, 0) << "every rule's prober owns its rules row";
  EXPECT_EQ(JoinedRows(j.batch), ExpectedWithout(cut.rule));
  const Completeness& c = j.batch.completeness;
  EXPECT_TRUE(c.coverage_complete) << c.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_GE(c.frames_lost, 1u) << c.ToString();
  EXPECT_EQ(j.took, Seconds(12));
}

// A rehash frame its rendezvous cannot decode was still acked to its
// shipper: the rendezvous must count it lost, not consumed, or the books
// balance without its rows.
TEST(QueryJoinCertifyFaultTest, UndecodableArrivalBarsCertification) {
  // Overwrites the side byte of the first rehash frame into `ns` that
  // crosses the network (a routed one-hop put: the DHT framing stays
  // valid), then steps aside.
  class CorruptFirstFrame : public sim::MessageHandler {
   public:
    CorruptFirstFrame(core::PierNode* node, std::string ns, int* budget)
        : node_(node), ns_(std::move(ns)), budget_(budget) {}
    void OnMessage(sim::HostId from, const sim::Packet& packet) override {
      Reader head(packet.head.view());
      uint8_t proto = 0, tag = 0;
      Id160 key;
      std::string body(packet.body.view());
      Reader r(body);
      dht::DhtKey put;
      uint64_t len = 0;
      if (*budget_ > 0 && head.GetU8(&proto).ok() &&
          proto == static_cast<uint8_t>(overlay::Proto::kOverlay) &&
          Id160::Deserialize(&head, &key).ok() && head.GetU8(&tag).ok() &&
          tag == dht::kPutTag && dht::DhtKey::Deserialize(&r, &put).ok() &&
          put.ns == ns_ && r.GetVarint64(&len).ok() && len > 0) {
        --*budget_;
        body[body.size() - r.remaining()] = 0x7f;  // no such side
        node_->OnMessage(from,
                         sim::Packet(packet.head, sim::Payload(std::move(body))));
        return;
      }
      node_->OnMessage(from, packet);
    }

   private:
    core::PierNode* node_;
    std::string ns_;
    int* budget_;
  };
  int budget = 1;
  std::vector<std::unique_ptr<CorruptFirstFrame>> hooks;
  FaultedJoin j = RunFaultedJoin(
      JoinStrategy::kSymmetricHash,
      [&](PierNetwork& net, sim::FaultPlane&, uint64_t qid) {
        for (size_t i = 0; i < net.size(); ++i) {
          hooks.push_back(std::make_unique<CorruptFirstFrame>(
              net.node(i), RehashExchange::NamespaceFor(qid, 2), &budget));
          net.net()->SetHandler(net.node(i)->host(), hooks.back().get());
        }
      });
  EXPECT_EQ(budget, 0) << "no rehash frame was corrupted";
  const auto expected = ScanPathFixture().Expected();
  const auto got = JoinedRows(j.batch);
  EXPECT_TRUE(std::includes(expected.begin(), expected.end(), got.begin(),
                            got.end()));
  const Completeness& c = j.batch.completeness;
  EXPECT_TRUE(c.coverage_complete) << c.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_GE(c.frames_lost, 1u) << c.ToString();
  EXPECT_EQ(j.rehash_put_failures, 0u);
  EXPECT_EQ(j.took, Seconds(12));
}

// ---------------------------------------------------------------------------
// Join-fed aggregation closes on the join's books: each rendezvous of the
// final join ships its partial groups to the origin once it has settled,
// ahead of the report that counts the frame
// ---------------------------------------------------------------------------

TableDef SevsTable() {
  TableDef def;
  def.name = "sevs";
  def.schema = Schema("sevs", {{"severity", ValueType::kInt64},
                               {"label", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

/// alerts ⋈ rules ⋈ sevs with SUM(hits), COUNT(*) GROUP BY label: rules
/// 1..12, four alerts each, two rules per severity 1..6.
struct ChainFixture {
  static int Severity(int rule) { return (rule + 1) / 2; }
  static std::string Label(int sev) { return "sev" + std::to_string(sev); }
  static int Hits(int rule, int k) { return 10 * rule + k; }

  /// label -> (SUM(hits), COUNT(*)).
  static std::map<std::string, std::pair<int64_t, int64_t>> Expected() {
    std::map<std::string, std::pair<int64_t, int64_t>> out;
    for (int rule = 1; rule <= 12; ++rule) {
      for (int k = 0; k < 4; ++k) {
        auto& [sum, n] = out[Label(Severity(rule))];
        sum += Hits(rule, k);
        ++n;
      }
    }
    return out;
  }

  static void Publish(PierNetwork& net) {
    RegisterEverywhere(net, AlertsTable());
    RegisterEverywhere(net, RulesTable());
    RegisterEverywhere(net, SevsTable());
    std::vector<std::tuple<int, std::string, int>> alerts;
    for (int rule = 1; rule <= 12; ++rule) {
      for (int k = 0; k < 4; ++k) {
        alerts.push_back({rule, "a" + std::to_string(rule), Hits(rule, k)});
      }
    }
    PublishAlerts(net, alerts);
    for (int rule = 1; rule <= 12; ++rule) {
      ASSERT_TRUE(net.node(static_cast<size_t>(rule) % net.size())
                      ->query_engine()
                      ->Publish("rules", Tuple{Value::Int64(rule),
                                               Value::Int64(Severity(rule))})
                      .ok());
    }
    for (int sev = 1; sev <= 6; ++sev) {
      ASSERT_TRUE(net.node(static_cast<size_t>(sev + 3) % net.size())
                      ->query_engine()
                      ->Publish("sevs", Tuple{Value::Int64(sev),
                                              Value::String(Label(sev))})
                      .ok());
    }
    net.RunFor(Seconds(5));
  }

  /// Chained symmetric-hash joins: the first is graph node 2, the second
  /// (keyed on rules.severity, column 4) node 4; partial-agg runs at the
  /// second's rendezvous and ships to the origin.
  static QueryPlan Plan() {
    QueryPlan plan;
    const uint32_t first = AddJoin(
        &plan.graph, AddScan(&plan.graph, "alerts", AlertsTable().schema),
        "rules", RulesTable().schema, JoinStrategy::kSymmetricHash, {0}, {0});
    AddJoin(&plan.graph, first, "sevs", SevsTable().schema,
            JoinStrategy::kSymmetricHash, {4}, {0});
    AppendTail(&plan.graph, nullptr,
               AggNode({6}, {{AggFunc::kSum, 2, "total"},
                             {AggFunc::kCount, -1, "n"}}),
               {}, AggStrategy::kDirect);
    return plan;
  }

  static std::map<std::string, std::pair<int64_t, int64_t>> Got(
      const ResultBatch& b) {
    std::map<std::string, std::pair<int64_t, int64_t>> got;
    for (const Tuple& t : b.rows) {
      got[t[0].string_value()] = {t[1].int64_value(), t[2].int64_value()};
    }
    return got;
  }
};

/// The id of node `i`'s first query.
uint64_t FirstQueryId(PierNetwork& net, size_t i) {
  return ((static_cast<uint64_t>(net.node(i)->host()) + 1) << 32) | 1;
}

/// The key severity `sev` rehashes to in join node `join` of query `qid`.
dht::DhtKey ChainKey(uint64_t qid, uint32_t join, int64_t key) {
  return dht::DhtKey{RehashExchange::NamespaceFor(qid, join),
                     catalog::ResourceForCols(Tuple{Value::Int64(key)}, {0}),
                     0};
}

/// The chain fixture's aggregate on 8 one-hop nodes, issued from node
/// `origin` once `fault` (given the query id) is in force.
struct ChainRun {
  ResultBatch batch;
  Duration took = 0;
  uint64_t rehash_put_failures = 0;  ///< summed over the nodes
  size_t answers = 0;
  /// kPartial frames each host sent.
  std::map<sim::HostId, uint64_t> partials_sent;
};

ChainRun RunChainedJoinSum(
    PierNetworkOptions opts, size_t origin,
    const std::function<void(PierNetwork&, sim::FaultPlane&, uint64_t)>&
        fault) {
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ChainFixture::Publish(net);
  net.RunFor(Seconds(30));
  sim::FaultPlane plane(net.sim()->rng().Fork(0x636861696eull));  // "chain"
  net.net()->SetFaultPlane(&plane);
  const uint64_t qid = FirstQueryId(net, origin);
  fault(net, plane, qid);

  ChainRun out;
  std::vector<ResultBatch> batches;
  const TimePoint issued = net.sim()->now();
  auto r = net.node(origin)->query_engine()->Execute(
      ChainFixture::Plan(), [&](const ResultBatch& b) {
        batches.push_back(b);
        out.took = net.sim()->now() - issued;
      });
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), qid);
  net.RunFor(Seconds(30));
  net.net()->SetFaultPlane(nullptr);
  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& stats = net.node(i)->query_engine()->stats();
    out.rehash_put_failures += stats.rehash_put_failures;
    out.partials_sent[net.node(i)->host()] = stats.partial_msgs_sent;
  }
  out.answers = batches.size();
  if (!batches.empty()) out.batch = batches[0];
  return out;
}

// One rehash frame into the final join reaches its rendezvous only after
// that node settled, shipped its partial groups and reported. The arrival
// joins into a fresh accumulator, and the node flushes and reports again:
// the origin certifies only on the second report, whose frame count covers
// the second partial, and the answer holds the late rows.
TEST(QueryJoinAggregateTest, LateArrivalIsFlushedBeforeTheReportCountingIt) {
  // Holds the first join-output frame into `ns` bound for a member, then
  // delivers it `delay` later and steps aside.
  struct Held {
    int budget = 1;
    sim::HostId to = sim::kInvalidHost;
    TimePoint landed = 0;
  };
  class DelayFirstFrame : public sim::MessageHandler {
   public:
    DelayFirstFrame(PierNetwork* net, core::PierNode* node, std::string ns,
                    Held* held)
        : net_(net), node_(node), ns_(std::move(ns)), held_(held) {}
    void OnMessage(sim::HostId from, const sim::Packet& packet) override {
      Reader head(packet.head.view());
      Reader r(packet.body.view());
      uint8_t proto = 0, tag = 0, side = 1;
      Id160 key;
      dht::DhtKey put;
      uint64_t len = 0;
      if (held_->budget > 0 && head.GetU8(&proto).ok() &&
          proto == static_cast<uint8_t>(overlay::Proto::kOverlay) &&
          Id160::Deserialize(&head, &key).ok() && head.GetU8(&tag).ok() &&
          tag == dht::kPutTag && dht::DhtKey::Deserialize(&r, &put).ok() &&
          put.ns == ns_ && r.GetVarint64(&len).ok() && r.GetU8(&side).ok() &&
          side == 0) {
        --held_->budget;
        held_->to = node_->host();
        net_->sim()->ScheduleAfter(
            Seconds(1), [net = net_, node = node_, held = held_, from,
                         packet] {
              held->landed = net->sim()->now();
              node->OnMessage(from, packet);
            });
        return;
      }
      node_->OnMessage(from, packet);
    }

   private:
    PierNetwork* net_;
    core::PierNode* node_;
    std::string ns_;
    Held* held_;
  };

  PierNetworkOptions opts = OneHopOpts(137);
  opts.node.engine.result_wait = Seconds(12);
  // The hold fallback (7 agg_hold_base on a member) must not flush first.
  opts.node.engine.agg_hold_base = Seconds(5);
  Held held;
  std::vector<std::unique_ptr<DelayFirstFrame>> hooks;
  TimePoint issued = 0;
  ChainRun run = RunChainedJoinSum(
      opts, /*origin=*/0,
      [&](PierNetwork& net, sim::FaultPlane&, uint64_t qid) {
        issued = net.sim()->now();
        for (size_t i = 1; i < net.size(); ++i) {
          hooks.push_back(std::make_unique<DelayFirstFrame>(
              &net, net.node(i), RehashExchange::NamespaceFor(qid, 4),
              &held));
          net.net()->SetHandler(net.node(i)->host(), hooks.back().get());
        }
      });
  ASSERT_EQ(held.budget, 0) << "no join-output frame reached a member";
  ASSERT_EQ(run.answers, 1u);
  EXPECT_EQ(ChainFixture::Got(run.batch), ChainFixture::Expected());
  const Completeness& c = run.batch.completeness;
  EXPECT_TRUE(c.exact) << c.ToString();
  EXPECT_GT(issued + run.took, held.landed);
  EXPECT_LT(run.took, opts.node.engine.result_wait / 4);
  // The late arrival's rendezvous flushed once before it and once after.
  EXPECT_GE(run.partials_sent[held.to], 2u);
}

// A chained put into the final join's namespace that runs out of DHT
// retries is on neither side of that edge's books: its loss must keep the
// aggregate from certifying.
TEST(QueryJoinAggregateTest, FailedChainedRehashPutBarsCertification) {
  // A rule whose first-join rendezvous is neither the origin nor the
  // rendezvous of its severity in the second join, which is not the origin
  // either: a one-way cut between the two breaks that rule's chained puts.
  PierNetworkOptions opts = OneHopOpts(137);
  opts.node.engine.result_wait = Seconds(12);  // past the put's retries
  CutEdge cut;
  ChainRun run = RunChainedJoinSum(
      opts, /*origin=*/0,
      [&cut](PierNetwork& net, sim::FaultPlane& plane, uint64_t qid) {
        for (int rule = 1; rule <= 12 && cut.rule == 0; ++rule) {
          const size_t from = OwnerIndex(net, ChainKey(qid, 2, rule));
          const size_t to = OwnerIndex(
              net, ChainKey(qid, 4, ChainFixture::Severity(rule)));
          if (from != to && from != 0 && to != 0) cut = {rule, from, to};
        }
        if (cut.rule == 0) return;
        plane.Partition({net.node(cut.from)->host()},
                        {net.node(cut.to)->host()}, net.sim()->now(),
                        net.sim()->now() + Seconds(20),
                        /*bidirectional=*/false);
      });
  ASSERT_NE(cut.rule, 0) << "no rule's chained puts cross between members";
  ASSERT_EQ(run.answers, 1u);
  const Completeness& c = run.batch.completeness;
  EXPECT_TRUE(c.coverage_complete) << c.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_GE(c.frames_lost, 1u) << c.ToString();
  EXPECT_GE(run.rehash_put_failures, 1u);
  EXPECT_EQ(run.took, opts.node.engine.result_wait);
  // Every group the answer holds is at most its oracle value, and the cut
  // rule's group is short.
  const auto expected = ChainFixture::Expected();
  const auto got = ChainFixture::Got(run.batch);
  for (const auto& [label, agg] : got) {
    ASSERT_EQ(expected.count(label), 1u) << label;
    EXPECT_LE(agg.second, expected.at(label).second) << label;
  }
  const std::string short_label =
      ChainFixture::Label(ChainFixture::Severity(cut.rule));
  EXPECT_LT(got.count(short_label) == 0 ? 0 : got.at(short_label).second,
            expected.at(short_label).second);
}

// The origin is a rendezvous of the final join too, and its own partial
// groups fold into the root when it closes the answer. Here result_wait
// ends before any hold timer could flush them and the answer cannot
// certify (every cover wave reports incomplete): it still holds every
// group, the origin's own included.
TEST(QueryJoinAggregateTest, OriginsOwnGroupsSurviveAResultWaitBeforeTheHold) {
  PierNetworkOptions opts = OneHopOpts(139);
  opts.node.engine.result_wait = Seconds(3);
  opts.node.engine.agg_hold_base = Seconds(1);  // holds of 7-8 s
  opts.node.broadcast.cover_timeout = Millis(1);
  // An origin that owns some severity in the second join's namespace.
  size_t origin = 0;
  std::set<int> own;
  {
    PierNetwork probe(8, opts);
    probe.Boot(Seconds(5));
    for (size_t i = 0; i < probe.size() && own.empty(); ++i) {
      for (int sev = 1; sev <= 6; ++sev) {
        if (OwnerIndex(probe, ChainKey(FirstQueryId(probe, i), 4, sev)) ==
            i) {
          origin = i;
          own.insert(sev);
        }
      }
    }
  }
  ASSERT_FALSE(own.empty()) << "no node owns a group it could issue for";
  ChainRun run = RunChainedJoinSum(opts, origin,
                                   [](PierNetwork&, sim::FaultPlane&,
                                      uint64_t) {});
  ASSERT_EQ(run.answers, 1u);
  const Completeness& c = run.batch.completeness;
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_EQ(run.took, opts.node.engine.result_wait);
  EXPECT_EQ(ChainFixture::Got(run.batch), ChainFixture::Expected());
}

// The consumer-range guard: the origin certifies no join, or join-fed
// aggregate, over two rendezvous that reported overlapping key ranges.
TEST(RangesOverlapTest, FlagsEveryOverlapOnTheRing) {
  const Id160 a = Id160::FromUint64(100), b = Id160::FromUint64(200),
              c = Id160::FromUint64(300), d = Id160::FromUint64(400);
  // Adjacent ranges share only their boundary, which the first one owns.
  EXPECT_FALSE(RangesOverlap({{a, b}, {b, c}}));
  EXPECT_FALSE(RangesOverlap({{b, c}, {a, b}, {c, a}}));
  // One range inside another.
  EXPECT_TRUE(RangesOverlap({{a, d}, {b, c}}));
  // (c, a] runs through zero and meets (b, d] over (c, d]: sorted by end,
  // only the comparison that wraps from the last range to the first sees
  // it.
  EXPECT_TRUE(RangesOverlap({{c, a}, {b, d}}));
  // A node that is its own predecessor claims the whole ring.
  EXPECT_TRUE(RangesOverlap({{b, b}, {c, d}}));
  EXPECT_TRUE(RangesOverlap({{a, b}, {d, d}}));
  // One range alone overlaps nothing, the whole ring included.
  EXPECT_FALSE(RangesOverlap({{a, b}}));
  EXPECT_FALSE(RangesOverlap({{c, c}}));
  EXPECT_FALSE(RangesOverlap({}));
}

// ---------------------------------------------------------------------------
// Recursion
// ---------------------------------------------------------------------------

TEST(QueryRecursiveTest, TransitiveClosureOfChain) {
  PierNetworkOptions opts = OneHopOpts(61);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, LinksTable());

  // Chain a -> b -> c -> d: closure has 3+2+1 = 6 pairs.
  std::vector<std::pair<std::string, std::string>> edges = {
      {"a", "b"}, {"b", "c"}, {"c", "d"}};
  for (size_t i = 0; i < edges.size(); ++i) {
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("links",
                              Tuple{Value::String(edges[i].first),
                                    Value::String(edges[i].second)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan = ClosurePlan(8);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(40));

  ASSERT_EQ(batches.size(), 1u);
  std::set<std::pair<std::string, std::string>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].string_value(), t[1].string_value()});
  }
  std::set<std::pair<std::string, std::string>> expected = {
      {"a", "b"}, {"b", "c"}, {"c", "d"},
      {"a", "c"}, {"b", "d"}, {"a", "d"}};
  EXPECT_EQ(got, expected);
}

// On a multi-hop ring the seed reach tuples of fast nodes reach their
// (src, dst) owners before the plan broadcast does. Those early pairs wait
// in the reach namespace and must still be reported and expanded: the
// closure is exact.
TEST(QueryRecursiveTest, EarlyReachPairsAreNotLostOnChord) {
  PierNetworkOptions opts;
  opts.seed = 908;
  opts.node.router_kind = RouterKind::kChord;
  opts.node.engine.quiesce_window = Seconds(8);
  opts.node.engine.recursion_deadline = Seconds(240);
  opts.join_stagger = Millis(100);
  PierNetwork net(32, opts);
  net.Boot(Seconds(60));
  workload::TopologyOptions topo;
  topo.num_vertices = 8;
  topo.out_degree = 2;
  const auto edges = workload::PublishTopology(&net, topo, /*seed=*/17);
  net.RunFor(Seconds(10));

  const int kMaxHops = 12;
  std::set<std::pair<std::string, std::string>> expected;
  std::set<std::string> vertices;
  for (const auto& [src, dst] : edges) {
    vertices.insert(src);
    vertices.insert(dst);
  }
  for (const std::string& src : vertices) {
    std::set<std::string> reached;
    std::vector<std::string> frontier{src};
    for (int hop = 0; hop < kMaxHops && !frontier.empty(); ++hop) {
      std::vector<std::string> next;
      for (const std::string& v : frontier) {
        for (const auto& [from, to] : edges) {
          if (from == v && reached.insert(to).second) next.push_back(to);
        }
      }
      frontier = std::move(next);
    }
    for (const std::string& dst : reached) {
      if (dst != src) expected.insert({src, dst});
    }
  }
  ASSERT_EQ(expected.size(), 56u);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(ClosurePlan(kMaxHops),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(280));

  ASSERT_EQ(batches.size(), 1u);
  std::set<std::pair<std::string, std::string>> got;
  for (const Tuple& t : batches[0].rows) {
    if (t[0].Compare(t[1]) != 0) {
      got.insert({t[0].string_value(), t[1].string_value()});
    }
  }
  EXPECT_EQ(got, expected);
}

TEST(QueryRecursiveTest, CycleTerminatesViaDedup) {
  PierNetworkOptions opts = OneHopOpts(67);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(4, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, LinksTable());
  for (auto& e : std::vector<std::pair<std::string, std::string>>{
           {"x", "y"}, {"y", "z"}, {"z", "x"}}) {
    ASSERT_TRUE(net.node(0)
                    ->query_engine()
                    ->Publish("links", Tuple{Value::String(e.first),
                                             Value::String(e.second)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  QueryPlan plan = ClosurePlan(10);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(60));
  ASSERT_EQ(batches.size(), 1u);
  // 3-cycle closure: every ordered pair including self-loops = 9.
  EXPECT_EQ(batches[0].rows.size(), 9u);
}

TEST(QueryRecursiveTest, OuterWhereAndMaxHops) {
  PierNetworkOptions opts = OneHopOpts(71);
  opts.node.engine.quiesce_window = Seconds(5);
  PierNetwork net(4, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, LinksTable());
  for (auto& e : std::vector<std::pair<std::string, std::string>>{
           {"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"}}) {
    ASSERT_TRUE(net.node(1)
                    ->query_engine()
                    ->Publish("links", Tuple{Value::String(e.first),
                                             Value::String(e.second)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  // Only paths of length <= 2, and only pairs starting at 'a': layout
  // (src, dst, hops).
  QueryPlan plan = ClosurePlan(
      2, Expr::Compare(CompareOp::kEq, Expr::Column(0),
                       Expr::Literal(Value::String("a"))));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(40));
  ASSERT_EQ(batches.size(), 1u);
  std::set<std::string> dsts;
  for (const Tuple& t : batches[0].rows) {
    EXPECT_EQ(t[0].string_value(), "a");
    dsts.insert(t[1].string_value());
  }
  EXPECT_EQ(dsts, (std::set<std::string>{"b", "c"}));
}

// ---------------------------------------------------------------------------
// Robustness
// ---------------------------------------------------------------------------

TEST(QueryRobustnessTest, AggregationSurvivesNodeCrashMidQuery) {
  PierNetworkOptions opts = ChordOpts(73);
  opts.node.engine.result_wait = Seconds(10);
  PierNetwork net(12, opts);
  net.Boot(Seconds(60));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 36; ++i) rows.push_back({1, "x", 1});
  PublishAlerts(net, rows);

  QueryPlan plan =
      AlertsPlan(nullptr, AggNode({0}, {{AggFunc::kCount, -1, "n"}}), {},
                 AggStrategy::kDirect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(1));
  net.Crash(7);  // mid-query failure
  net.RunFor(Seconds(20));

  ASSERT_EQ(batches.size(), 1u);
  // Best-effort semantics: we lose at most the crashed node's slice.
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_GE(batches[0].rows[0][1].int64_value(), 30);
  EXPECT_LE(batches[0].rows[0][1].int64_value(), 36);
}

TEST(QueryRobustnessTest, LatePartialsCountedAfterFinalize) {
  // A deliberately impossible result window: the origin finalizes epoch 0
  // before any remote partial can cross the network (min one-way latency is
  // 5ms), so every reporting node becomes a straggler. Those partials used
  // to vanish silently; now they are counted. A node crashing mid-query
  // (churn) must not disturb the accounting — its partials simply never
  // arrive.
  PierNetworkOptions opts = OneHopOpts(83);
  opts.node.engine.result_wait = Millis(1);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  // Enough distinct keys that (under this seed) every node's ring arc owns
  // a slice and therefore has a partial to report.
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 240; ++i) {
    rows.push_back({i, "r" + std::to_string(i), i});
  }
  PublishAlerts(net, rows);

  QueryPlan plan =
      AlertsPlan(nullptr, AggNode({}, {{AggFunc::kCount, -1, "n"}}), {},
                 AggStrategy::kDirect);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.Crash(4);  // churn: one reporter dies while its partial is in flight
  net.RunFor(Seconds(10));

  // The epoch still reported (best-effort: the origin's own slice).
  ASSERT_EQ(batches.size(), 1u);
  // Every surviving non-origin node's partial arrived after the finalize
  // and was counted as late instead of dropped silently.
  const EngineStats& st = net.node(0)->query_engine()->stats();
  EXPECT_GE(st.late_partials, 3u);
  EXPECT_LE(st.late_partials, 4u);  // 4 surviving non-origin reporters
}

// Late result rows count once per frame, as late partials do: with a result
// window no frame can meet, every member's rows reach the origin after the
// answer (and the query's end) in frames of up to four, and each frame is
// one straggler, not one per row.
TEST(QueryRobustnessTest, LateResultFramesCountOncePerFrame) {
  PierNetworkOptions opts = OneHopOpts(89);
  opts.node.engine.result_wait = Millis(1);
  PierNetwork net(6, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 60; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(AlertsPlan(nullptr, ProjectNode({})),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  uint64_t frames = 0;
  uint64_t rows_sent = 0;
  for (size_t i = 1; i < net.size(); ++i) {
    const EngineStats& st = net.node(i)->query_engine()->stats();
    frames += st.result_msgs_sent;
    rows_sent += st.tuples_scanned;
  }
  ASSERT_GT(frames, 0u);
  ASSERT_LT(frames, rows_sent);  // some frame carried several rows
  EXPECT_EQ(net.node(0)->query_engine()->stats().late_partials, frames);
}

// Every node that ended a query, the origin included, keeps only its id, as
// a tombstone, for the cleanup delay. A plan copy disseminated again after
// the end (a straggling refresh, a replay) must install nothing anywhere,
// the origin included: no live query, no scan, no partial sent.
TEST(QueryRobustnessTest, PlanReplayedAfterEndInstallsNothing) {
  PierNetwork net(8, OneHopOpts(61));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 10}, {2, "b", 20}, {3, "c", 30}});
  PlanEnvelope env;
  env.plan = AlertsPlan(nullptr, AggNode({0}, {{AggFunc::kSum, 2, "total"}}),
                        {}, AggStrategy::kTree);
  std::vector<ResultBatch> batches;
  env.issued_at = net.sim()->now();
  auto r = net.node(0)->query_engine()->Execute(
      env.plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(8));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(net.node(0)->query_engine()->active_queries(), 0u)
      << "the origin keeps only a tombstone of the ended query";

  auto totals = [&net] {
    EngineStats t;
    for (size_t i = 0; i < net.size(); ++i) {
      const EngineStats& s = net.node(i)->query_engine()->stats();
      t.plans_received += s.plans_received;
      t.tuples_scanned += s.tuples_scanned;
      t.partial_msgs_sent += s.partial_msgs_sent;
    }
    return t;
  };
  const EngineStats before = totals();
  env.query_id = r.value();
  env.origin = net.node(0)->host();
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
  env.Serialize(&w);
  ASSERT_NE(net.node(0)->broadcast()->Broadcast(sim::Payload(w.Release())),
            0u);
  net.RunFor(Seconds(5));

  const EngineStats after = totals();
  EXPECT_EQ(after.plans_received, before.plans_received);
  EXPECT_EQ(after.tuples_scanned, before.tuples_scanned);
  EXPECT_EQ(after.partial_msgs_sent, before.partial_msgs_sent);
  // The origin delivers its own broadcast too: it must not take the replay
  // for a plan it has never seen and install the query as a member.
  EXPECT_EQ(net.node(0)->query_engine()->stats().plans_received, 0u);
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_FALSE(net.node(i)->query_engine()->HasLiveQuery(r.value()))
        << "node " << i;
    EXPECT_EQ(net.node(i)->query_engine()->active_queries(), 0u)
        << "node " << i;
  }
  EXPECT_EQ(batches.size(), 1u);
}

// The per-query result-row budget: the origin keeps the first rows up to the
// cap, drops the rest, and says so — a bounded prefix declared degraded,
// never a silent truncation.
TEST(QueryRobustnessTest, ResultRowCapKeepsAPrefixAndFlagsTheTrip) {
  PierNetwork net(6, OneHopOpts(19));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 20; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}));
  plan.budget.max_result_rows = 5;
  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 5u);
  EXPECT_EQ(batches[0].completeness.budget_trips, 1u);
  EXPECT_FALSE(batches[0].completeness.exact);
  EXPECT_EQ(net.node(0)->query_engine()->stats().budget_rows_dropped, 15u);
}

TEST(QueryRobustnessTest, EngineStatsAccumulate) {
  PierNetwork net(4, OneHopOpts(79));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 1}});

  QueryPlan plan = AlertsPlan(nullptr, ProjectNode({}));
  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  EXPECT_EQ(net.node(0)->query_engine()->stats().queries_issued, 1u);
  uint64_t plans = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    plans += net.node(i)->query_engine()->stats().plans_received;
  }
  EXPECT_GE(plans, 3u);  // every non-origin node saw the plan
}

// ---------------------------------------------------------------------------
// PHT index scans through the engine
// ---------------------------------------------------------------------------

TableDef IndexedAlertsTable() {
  TableDef def = AlertsTable();
  def.indexes = {catalog::IndexDef{2, 8}};  // hits
  return def;
}

/// The index-scan graph the planner would emit for
/// SELECT rule_id, hits FROM alerts WHERE hits >= lo AND hits <= hi.
QueryPlan IndexRangePlan(int64_t lo, int64_t hi, int64_t limit = -1) {
  QueryPlan plan;
  AddIndexScan(&plan.graph, "alerts", IndexedAlertsTable().schema, 2,
               Value::Int64(lo), Value::Int64(hi));
  OpNode collect;
  collect.limit = limit;
  AppendTail(&plan.graph,
             Expr::And(Expr::Compare(CompareOp::kGe, Expr::Column(2),
                                     Expr::Literal(Value::Int64(lo))),
                       Expr::Compare(CompareOp::kLe, Expr::Column(2),
                                     Expr::Literal(Value::Int64(hi)))),
             ProjectNode({}), collect);
  return plan;
}

TEST(QueryIndexScanTest, RangeQueryNeverBroadcastsAndIsExact) {
  PierNetwork net(8, OneHopOpts(91));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, IndexedAlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 64; ++i) rows.push_back({i % 4, "d", i});
  PublishAlerts(net, rows);
  net.RunFor(Seconds(10));  // index settles

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(IndexRangePlan(10, 19),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  std::multiset<int64_t> got;
  for (const Tuple& t : batches[0].rows) got.insert(t[2].int64_value());
  std::multiset<int64_t> want;
  for (int64_t v = 10; v <= 19; ++v) want.insert(v);
  EXPECT_EQ(got, want);

  // Origin-local execution: the plan was never disseminated and no member
  // ran a broadcast scan.
  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& st = net.node(i)->query_engine()->stats();
    EXPECT_EQ(st.scans_run, 0u) << "node " << i;
    if (i != 0) {
      EXPECT_EQ(st.plans_received, 0u) << "node " << i;
    }
  }
  EXPECT_GE(net.node(0)->query_engine()->stats().index_scans_run, 1u);
}

TEST(QueryIndexScanTest, LimitStopsTheCursorEarly) {
  PierNetwork net(6, OneHopOpts(92));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, IndexedAlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 48; ++i) rows.push_back({i % 3, "d", i});
  PublishAlerts(net, rows);
  net.RunFor(Seconds(10));

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(IndexRangePlan(0, 47, /*limit=*/5),
                            [&](const ResultBatch& b) { batches.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), 5u);
  // LIMIT pushdown: the cursor stopped within (at most a leaf past) the
  // cap instead of materializing the whole range.
  EXPECT_LT(net.node(0)->query_engine()->stats().index_rows, 48u);
}

TEST(QueryIndexScanTest, ContinuousIndexQueryTracksNewRows) {
  PierNetwork net(6, OneHopOpts(93));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, IndexedAlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 10; ++i) rows.push_back({i, "d", 100 + i});
  PublishAlerts(net, rows);
  net.RunFor(Seconds(8));

  QueryPlan plan = IndexRangePlan(100, 199);
  plan.every = Seconds(10);
  std::vector<size_t> epoch_sizes;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { epoch_sizes.push_back(b.rows.size()); });
  ASSERT_TRUE(r.ok());
  net.RunFor(Seconds(12));  // epoch 0 delivered
  // New in-range rows arrive between epochs; later epochs must see them.
  for (int i = 0; i < 5; ++i) {
    Tuple t{Value::Int64(90 + i), Value::String("d"),
            Value::Int64(150 + i)};
    ASSERT_TRUE(net.node(1)->query_engine()->Publish("alerts", t).ok());
  }
  net.RunFor(Seconds(25));
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(3));

  ASSERT_GE(epoch_sizes.size(), 2u);
  EXPECT_EQ(epoch_sizes.front(), 10u);
  EXPECT_EQ(epoch_sizes.back(), 15u);
}

}  // namespace
}  // namespace query
}  // namespace pier
