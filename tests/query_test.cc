// Integration tests for the distributed query engine: dissemination, scans,
// select/project, in-network aggregation (direct + tree), all four join
// strategies, recursion, continuous queries, and origin post-processing.
// Functional checks run on the one-hop router (deterministic, fast); the
// Chord variants validate the same answers over multi-hop routing.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/network.h"
#include "query/engine.h"
#include "query/plan.h"

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

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;

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

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  // WHERE hits >= 25  SELECT rule_id, hits * 2
  plan.where = Expr::Compare(CompareOp::kGe, Expr::Column(2),
                             Expr::Literal(Value::Int64(25)));
  plan.projections = {Expr::Column(0),
                      Expr::Arith(exec::ArithOp::kMul, Expr::Column(2),
                                  Expr::Literal(Value::Int64(2)))};
  plan.output_names = {"rule_id", "hits2"};

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

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.order_col = 2;
  plan.order_desc = true;
  plan.limit = 2;

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
  PierNetworkOptions opts = OneHopOpts(53);
  opts.node.engine.batch_size = 4;
  PierNetwork net(2, opts);
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 64; ++i) rows.push_back({i, "r", i});
  PublishAlerts(net, rows);

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.limit = 3;

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
  // Each member serves one 4-row batch — nowhere near the 64 published
  // rows.
  EXPECT_LE(scanned, 16u);
  EXPECT_GT(batch_scans, 0u);
}

TEST(QuerySelectTest, DistinctAtOrigin) {
  PierNetwork net(5, OneHopOpts());
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net,
                {{1, "x", 5}, {1, "x", 5}, {2, "y", 6}, {2, "y", 6}});

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.projections = {Expr::Column(0), Expr::Column(1)};
  plan.distinct = true;

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {0};
  plan.aggs = {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}};
  plan.agg_strategy = GetParam();

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {0};
  plan.aggs = {{AggFunc::kSum, 2, "sum"},
               {AggFunc::kCount, -1, "cnt"},
               {AggFunc::kAvg, 2, "avg"},
               {AggFunc::kMin, 2, "min"},
               {AggFunc::kMax, 2, "max"}};

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {0};
  plan.aggs = {{AggFunc::kSum, 2, "total"}};
  // HAVING SUM(hits) >= 900 over layout [rule_id, total].
  plan.having = Expr::Compare(CompareOp::kGe, Expr::Column(1),
                              Expr::Literal(Value::Int64(900)));
  // SELECT total, rule_id (permuted).
  plan.final_projection = {1, 0};
  plan.order_col = 0;  // total, post-permutation
  plan.order_desc = true;
  plan.limit = 3;

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {0};
  plan.aggs = {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "n"}};
  plan.agg_strategy = AggStrategy::kTree;

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {};
  plan.aggs = {{AggFunc::kSum, 2, "total"}, {AggFunc::kCount, -1, "rows"}};
  plan.agg_strategy = AggStrategy::kDirect;
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

TEST(QueryContinuousTest, CancelStopsEpochs) {
  PierNetwork net(4, OneHopOpts(41));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "x", 1}});

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
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

  QueryPlan plan;
  plan.kind = PlanKind::kJoin;
  plan.join_strategy = GetParam();
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.right_table = "rules";
  plan.right_schema = RulesTable().schema;
  plan.left_key_cols = {0};
  plan.right_key_cols = {0};
  // Concat layout: [rule_id, descr, hits, rules.rule_id, severity].
  plan.where = Expr::Compare(CompareOp::kGe, Expr::Column(4),
                             Expr::Literal(Value::Int64(2)));
  plan.projections = {Expr::Column(0), Expr::Column(2), Expr::Column(4)};

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

  QueryPlan plan;
  plan.kind = PlanKind::kJoin;
  plan.join_strategy = JoinStrategy::kSymmetricHash;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.right_table = "rules";
  plan.right_schema = RulesTable().schema;
  plan.left_key_cols = {0};
  plan.right_key_cols = {0};
  plan.group_cols = {4};  // severity in concat layout
  plan.aggs = {{AggFunc::kCount, -1, "n"}};

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

  QueryPlan plan;
  plan.kind = PlanKind::kJoin;
  plan.join_strategy = JoinStrategy::kSymmetricHash;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.right_table = "rules";
  plan.right_schema = RulesTable().schema;
  plan.left_key_cols = {0};
  plan.right_key_cols = {0};
  plan.projections = {Expr::Column(0), Expr::Column(4)};

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

TEST(QueryJoinTest2, FetchMatchesRequiresCompatiblePartitioning) {
  PierNetwork net(4, OneHopOpts(59));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  TableDef rules = RulesTable();
  rules.partition_cols = {1};  // partitioned on severity, not rule_id
  RegisterEverywhere(net, rules);

  QueryPlan plan;
  plan.kind = PlanKind::kJoin;
  plan.join_strategy = JoinStrategy::kFetchMatches;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.right_table = "rules";
  plan.right_schema = rules.schema;
  plan.left_key_cols = {0};
  plan.right_key_cols = {0};

  auto r = net.node(0)->query_engine()->Execute(plan,
                                                [](const ResultBatch&) {});
  EXPECT_FALSE(r.ok());
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

  QueryPlan plan;
  plan.kind = PlanKind::kRecursive;
  plan.table = "links";
  plan.scan_schema = LinksTable().schema;
  plan.src_col = 0;
  plan.dst_col = 1;
  plan.max_hops = 8;

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

  QueryPlan plan;
  plan.kind = PlanKind::kRecursive;
  plan.table = "links";
  plan.scan_schema = LinksTable().schema;
  plan.max_hops = 10;

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

  QueryPlan plan;
  plan.kind = PlanKind::kRecursive;
  plan.table = "links";
  plan.scan_schema = LinksTable().schema;
  plan.max_hops = 2;  // only paths of length <= 2
  // Only pairs starting at 'a': layout (src, dst, hops).
  plan.outer_where = Expr::Compare(CompareOp::kEq, Expr::Column(0),
                                   Expr::Literal(Value::String("a")));

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {0};
  plan.aggs = {{AggFunc::kCount, -1, "n"}};
  plan.agg_strategy = AggStrategy::kDirect;

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

  QueryPlan plan;
  plan.kind = PlanKind::kAggregate;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
  plan.group_cols = {};
  plan.aggs = {{AggFunc::kCount, -1, "n"}};
  plan.agg_strategy = AggStrategy::kDirect;

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

TEST(QueryRobustnessTest, EngineStatsAccumulate) {
  PierNetwork net(4, OneHopOpts(79));
  net.Boot(Seconds(5));
  RegisterEverywhere(net, AlertsTable());
  PublishAlerts(net, {{1, "a", 1}});

  QueryPlan plan;
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = AlertsTable().schema;
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
  plan.kind = PlanKind::kSelectProject;
  plan.table = "alerts";
  plan.scan_schema = IndexedAlertsTable().schema;
  plan.limit = limit;
  OpGraph g;
  OpNode scan;
  scan.type = OpType::kIndexScan;
  scan.table = "alerts";
  scan.schema = plan.scan_schema;
  scan.index_col = 2;
  scan.index_lo = Value::Int64(lo);
  scan.index_hi = Value::Int64(hi);
  g.nodes.push_back(std::move(scan));
  OpNode f;
  f.type = OpType::kFilter;
  f.predicate = Expr::And(
      Expr::Compare(CompareOp::kGe, Expr::Column(2),
                    Expr::Literal(Value::Int64(lo))),
      Expr::Compare(CompareOp::kLe, Expr::Column(2),
                    Expr::Literal(Value::Int64(hi))));
  f.inputs = {0};
  f.out = ExchangeKind::kToOrigin;
  g.nodes.push_back(std::move(f));
  OpNode collect;
  collect.type = OpType::kCollect;
  collect.limit = limit;
  collect.inputs = {1};
  g.nodes.push_back(std::move(collect));
  plan.graph = std::move(g);
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
