// End-to-end smoke test: SQL text in, distributed answers out.
//
// Boots a multi-node simulated PIER network, registers a relation on every
// node, publishes rows from many publishers, disseminates a parsed SQL query
// via planner::ExecuteSql, and asserts on the collected results. This is the
// gate every scale/speed PR runs against: if this passes, the whole stack —
// lexer, parser, planner, query engine, DHT, overlay routing, broadcast tree,
// and the simulated network — composed correctly at least once.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "core/network.h"
#include "planner/planner.h"

namespace pier {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;
using query::ResultBatch;

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

TableDef SeveritiesTable() {
  TableDef def;
  def.name = "sevs";
  def.schema = Schema("sevs", {{"severity", ValueType::kInt64},
                               {"label", ValueType::kString}});
  def.partition_cols = {0};
  def.ttl = Seconds(600);
  return def;
}

void RegisterEverywhere(PierNetwork& net, const TableDef& def) {
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(def).ok());
  }
}

// Publishes (rule_id, descr, hits) rows round-robin across all nodes, so
// every node contributes a slice to distributed scans.
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

// The headline case: a SQL GROUP BY aggregate disseminated over an 8-node
// network, with every node publishing data and contributing partials.
TEST(E2eSqlTest, DistributedAggregateOverEightNodes) {
  PierNetworkOptions opts;
  opts.seed = 101;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(5);
  // Tree aggregation holds partials for agg_hold_base * depth; keep the
  // deepest hold inside the result window on this shallow topology.
  opts.node.engine.agg_hold_base = Millis(400);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));

  std::vector<std::tuple<int, std::string, int>> rows;
  std::map<int64_t, int64_t> expected_sum;
  std::map<int64_t, int64_t> expected_count;
  for (int i = 0; i < 64; ++i) {
    int rule = 1 + (i % 4);
    int hits = 10 + i;
    rows.push_back({rule, "r" + std::to_string(rule), hits});
    expected_sum[rule] += hits;
    expected_count[rule] += 1;
  }
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(net, rows));

  std::vector<ResultBatch> batches;
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "SELECT rule_id, SUM(hits) AS total, COUNT(*) AS n FROM alerts "
      "GROUP BY rule_id",
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(12));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 4u);
  for (const Tuple& t : batches[0].rows) {
    int64_t rule = t[0].int64_value();
    EXPECT_EQ(t[1].int64_value(), expected_sum[rule]) << "rule " << rule;
    EXPECT_EQ(t[2].int64_value(), expected_count[rule]) << "rule " << rule;
  }
}

// A tree GROUP BY closes by count on a settled Chord ring. Every kPartial
// carries how many members it folds in; each interior node flushes once
// its subtree's count (from the plan's cover wave) is in, and the origin
// certifies the answer exact the moment the root's total equals the
// members the wave reached — well before result_wait. Three rule ids put
// all rows on a few DHT owners, so most members scan nothing: they must
// still be counted, or the total never closes.
TEST(E2eSqlTest, TreeGroupByClosesByCountAndCertifies) {
  PierNetworkOptions opts;
  opts.seed = 151;
  opts.node.router_kind = RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(8);
  PierNetwork net(24, opts);
  net.Boot(Seconds(60));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  std::vector<std::tuple<int, std::string, int>> rows;
  std::map<int64_t, int64_t> expected_sum;
  for (int i = 0; i < 36; ++i) {
    int rule = 1 + (i % 3);
    rows.push_back({rule, "r" + std::to_string(rule), 10 + i});
    expected_sum[rule] += 10 + i;
  }
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(net, rows));
  // Settled: no overlay neighbourhood changed inside the certify window.
  net.RunFor(Seconds(40));

  std::vector<ResultBatch> batches;
  TimePoint answered = 0;
  const TimePoint issued = net.sim()->now();
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "SELECT rule_id, SUM(hits) AS total FROM alerts GROUP BY rule_id",
      [&](const ResultBatch& b) {
        batches.push_back(b);
        answered = net.sim()->now();
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(12));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 3u);
  for (const Tuple& t : batches[0].rows) {
    EXPECT_EQ(t[1].int64_value(), expected_sum[t[0].int64_value()]);
  }
  const query::Completeness& c = batches[0].completeness;
  EXPECT_TRUE(c.exact) << c.ToString();
  EXPECT_EQ(c.members_expected, net.size());
  EXPECT_EQ(c.members_reported, c.members_expected);
  EXPECT_LT(answered - issued, opts.node.engine.result_wait / 4);
  size_t empty_members = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->query_engine()->stats().tuples_scanned == 0) {
      ++empty_members;
    }
  }
  EXPECT_GT(empty_members, net.size() / 2)
      << "most members must hold no rows for the test to bite";
}

// The same aggregate answered over multi-hop Chord routing on 16 nodes: the
// plan travels the real dissemination tree and partials combine hop-by-hop.
TEST(E2eSqlTest, AggregateOnChordOverlay) {
  PierNetworkOptions opts;
  opts.seed = 103;
  opts.node.router_kind = RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(8);
  PierNetwork net(16, opts);
  net.Boot(Seconds(60));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));

  std::vector<std::tuple<int, std::string, int>> rows;
  int64_t expected = 0;
  for (int i = 0; i < 48; ++i) {
    rows.push_back({7, "seven", i});
    expected += i;
  }
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(net, rows));

  std::vector<ResultBatch> batches;
  auto r = planner::ExecuteSql(
      net.node(5)->query_engine(),
      "SELECT rule_id, SUM(hits) AS total FROM alerts GROUP BY rule_id",
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(20));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 7);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), expected);
}

// Filter + projection through the full SQL path, with ORDER BY / LIMIT
// applied at the origin.
TEST(E2eSqlTest, SelectWhereOrderByLimit) {
  PierNetworkOptions opts;
  opts.seed = 107;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(5);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  ASSERT_NO_FATAL_FAILURE(
      PublishAlerts(net, {{1, "a", 40}, {2, "b", 10}, {3, "c", 30},
                          {4, "d", 20}, {5, "e", 50}, {6, "f", 5}}));

  std::vector<ResultBatch> batches;
  auto r = planner::ExecuteSql(
      net.node(2)->query_engine(),
      "SELECT rule_id, hits FROM alerts WHERE hits >= 20 "
      "ORDER BY hits DESC LIMIT 3",
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 3u);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 50);
  EXPECT_EQ(batches[0].rows[1][1].int64_value(), 40);
  EXPECT_EQ(batches[0].rows[2][1].int64_value(), 30);
}

// A distributed equi-join expressed in SQL, grouped at the origin: exercises
// the planner's join-key extraction and the engine's rehash path together.
TEST(E2eSqlTest, SqlJoinWithAggregation) {
  PierNetworkOptions opts;
  opts.seed = 109;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(10);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, RulesTable()));
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(
      net, {{1, "a", 10}, {2, "b", 20}, {2, "c", 25}, {3, "d", 30}}));
  for (auto [rule, sev] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 1}, {3, 2}}) {
    ASSERT_TRUE(net.node(rule % net.size())
                    ->query_engine()
                    ->Publish("rules",
                              Tuple{Value::Int64(rule), Value::Int64(sev)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  std::vector<ResultBatch> batches;
  auto r = planner::ExecuteSql(
      net.node(1)->query_engine(),
      "SELECT r.severity, COUNT(*) AS n FROM alerts a, rules r "
      "WHERE a.rule_id = r.rule_id GROUP BY r.severity",
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(20));

  ASSERT_EQ(batches.size(), 1u);
  std::map<int64_t, int64_t> got;
  for (const Tuple& t : batches[0].rows) {
    got[t[0].int64_value()] = t[1].int64_value();
  }
  // severity 1 matches alerts {1, 2, 2}; severity 2 matches alert {3}.
  EXPECT_EQ(got, (std::map<int64_t, int64_t>{{1, 3}, {2, 1}}));
}

// The opgraph acceptance case: a three-table join with GROUP BY, from SQL
// text, over multi-hop Chord routing — the shape the fixed-plan engine
// could not express. The planner chains two symmetric-hash joins and pushes
// partial aggregation to the final join's rendezvous nodes, so the
// aggregation runs in-network rather than over raw rows at the origin; each
// rendezvous ships its partial groups straight to the origin once its join
// settles (AggStrategy::kTree plans the same graph), and the answer closes
// on the join's books.
TEST(E2eSqlTest, ThreeTableJoinWithGroupByOnChord) {
  PierNetworkOptions opts;
  opts.seed = 131;
  opts.node.router_kind = RouterKind::kChord;
  opts.node.engine.result_wait = Seconds(25);
  opts.node.engine.agg_hold_base = Millis(250);
  // Enough nodes that rehash puts route over several Chord hops.
  PierNetwork net(24, opts);
  net.Boot(Seconds(60));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, RulesTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, SeveritiesTable()));

  // alerts x rules x sevs: every row published from a different node.
  std::vector<std::tuple<int, std::string, int>> alerts;
  for (int i = 0; i < 24; ++i) {
    alerts.push_back({1 + (i % 6), "a" + std::to_string(i), 10 + i});
  }
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(net, alerts));
  std::map<int, int> rule_to_sev = {{1, 1}, {2, 1}, {3, 2}, {4, 2},
                                    {5, 3}, {6, 3}};
  size_t p = 0;
  for (auto [rule, sev] : rule_to_sev) {
    ASSERT_TRUE(net.node(p++ % net.size())
                    ->query_engine()
                    ->Publish("rules",
                              Tuple{Value::Int64(rule), Value::Int64(sev)})
                    .ok());
  }
  std::map<int, std::string> sev_label = {
      {1, "low"}, {2, "medium"}, {3, "high"}};
  for (auto& [sev, label] : sev_label) {
    ASSERT_TRUE(net.node(p++ % net.size())
                    ->query_engine()
                    ->Publish("sevs", Tuple{Value::Int64(sev),
                                            Value::String(label)})
                    .ok());
  }
  net.RunFor(Seconds(8));

  // Reference: label -> (sum of hits, row count) over the 3-way join.
  std::map<std::string, std::pair<int64_t, int64_t>> expected;
  for (auto& [rule, descr, hits] : alerts) {
    const std::string& label = sev_label[rule_to_sev[rule]];
    expected[label].first += hits;
    expected[label].second += 1;
  }

  planner::PlannerOptions popts;
  popts.agg_strategy = query::AggStrategy::kTree;
  std::vector<ResultBatch> batches;
  TimePoint answered = 0;
  const TimePoint issued = net.sim()->now();
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "SELECT s.label, SUM(a.hits) AS total, COUNT(*) AS n "
      "FROM alerts a, rules r, sevs s "
      "WHERE a.rule_id = r.rule_id AND r.severity = s.severity "
      "GROUP BY s.label",
      [&](const ResultBatch& b) {
        batches.push_back(b);
        answered = net.sim()->now();
      },
      popts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(40));

  ASSERT_EQ(batches.size(), 1u);
  std::map<std::string, std::pair<int64_t, int64_t>> got;
  for (const Tuple& t : batches[0].rows) {
    got[t[0].string_value()] = {t[1].int64_value(), t[2].int64_value()};
  }
  EXPECT_EQ(got, expected);
  // Every edge's books balance and every partial frame is admitted:
  // certified, long before result_wait.
  EXPECT_TRUE(batches[0].completeness.exact)
      << batches[0].completeness.ToString();
  EXPECT_LT(answered - issued, opts.node.engine.result_wait / 4);

  // In-network aggregation: the rendezvous ship partial groups to the
  // origin, and no member ships a raw joined row.
  EXPECT_GT(net.node(0)->query_engine()->stats().partial_msgs_received, 0u);
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(net.node(i)->query_engine()->stats().result_msgs_sent, 0u)
        << "node " << i;
  }
}

// The multiway path without aggregation, written with chained JOIN ... ON
// syntax: the final join's rendezvous nodes project and ship result rows
// straight to the origin (no partial-agg stage in the graph).
TEST(E2eSqlTest, ThreeTableJoinProjectionNoAggregate) {
  PierNetworkOptions opts;
  opts.seed = 139;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(15);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, RulesTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, SeveritiesTable()));

  std::vector<std::tuple<int, std::string, int>> alerts = {
      {1, "a1", 10}, {2, "a2", 20}, {2, "a3", 25}, {3, "a4", 30}};
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(net, alerts));
  std::map<int, int> rule_to_sev = {{1, 1}, {2, 2}, {3, 3}};
  std::map<int, std::string> sev_label = {
      {1, "low"}, {2, "medium"}, {3, "high"}};
  size_t p = 0;
  for (auto [rule, sev] : rule_to_sev) {
    ASSERT_TRUE(net.node(p++ % net.size())
                    ->query_engine()
                    ->Publish("rules",
                              Tuple{Value::Int64(rule), Value::Int64(sev)})
                    .ok());
  }
  for (auto& [sev, label] : sev_label) {
    ASSERT_TRUE(net.node(p++ % net.size())
                    ->query_engine()
                    ->Publish("sevs", Tuple{Value::Int64(sev),
                                            Value::String(label)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  std::vector<ResultBatch> batches;
  TimePoint answered = 0;
  const TimePoint issued = net.sim()->now();
  auto r = planner::ExecuteSql(
      net.node(2)->query_engine(),
      "SELECT a.descr, s.label FROM alerts a "
      "JOIN rules r ON a.rule_id = r.rule_id "
      "JOIN sevs s ON r.severity = s.severity "
      "WHERE s.severity >= 2",
      [&](const ResultBatch& b) {
        batches.push_back(b);
        answered = net.sim()->now();
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(25));

  ASSERT_EQ(batches.size(), 1u);
  std::multiset<std::pair<std::string, std::string>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].string_value(), t[1].string_value()});
  }
  // severity >= 2 keeps rules 2 (medium) and 3 (high).
  std::multiset<std::pair<std::string, std::string>> expected = {
      {"a2", "medium"}, {"a3", "medium"}, {"a4", "high"}};
  EXPECT_EQ(got, expected);
  // Both edges' books balance (the first join's rendezvous ship its output
  // into the second's namespace): certified, long before result_wait.
  EXPECT_TRUE(batches[0].completeness.exact)
      << batches[0].completeness.ToString();
  EXPECT_LT(answered - issued, opts.node.engine.result_wait / 4);
}

// EXPLAIN returns the planned opgraph rendering as a one-row result and
// disseminates nothing.
TEST(E2eSqlTest, ExplainRendersOpgraph) {
  PierNetworkOptions opts;
  opts.seed = 137;
  opts.node.router_kind = RouterKind::kOneHop;
  PierNetwork net(4, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, RulesTable()));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, SeveritiesTable()));

  std::vector<ResultBatch> batches;
  auto r = planner::ExecuteSql(
      net.node(0)->query_engine(),
      "EXPLAIN SELECT s.label, SUM(a.hits) AS total "
      "FROM alerts a, rules r, sevs s "
      "WHERE a.rule_id = r.rule_id AND r.severity = s.severity "
      "GROUP BY s.label",
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value(), 0u);  // nothing executed
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  std::string rendering = batches[0].rows[0][0].string_value();
  // Two chained joins, partial aggregation shipped straight to the origin.
  EXPECT_NE(rendering.find("scan(alerts)"), std::string::npos) << rendering;
  EXPECT_NE(rendering.find("join[symmetric-hash]"), std::string::npos);
  EXPECT_NE(rendering.find("partial-agg"), std::string::npos);
  EXPECT_NE(rendering.find("=> to-origin"), std::string::npos);
  EXPECT_EQ(net.node(0)->query_engine()->stats().queries_issued, 0u);
}

// Every member, the origin included, installs a plan by decoding it, and
// the decoder refuses expressions nested past exec::kMaxExprDepth. A plan
// it would refuse must fail at Execute, before anything is broadcast,
// instead of returning an empty, degraded answer.
TEST(E2eSqlTest, WhereDeeperThanThePlanDecoderIsRefused) {
  PierNetworkOptions opts;
  opts.seed = 139;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(5);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  std::vector<std::tuple<int, std::string, int>> rows;
  for (int i = 0; i < 32; ++i) rows.push_back({i, "r", 100 + i});
  ASSERT_NO_FATAL_FAILURE(PublishAlerts(net, rows));

  // A left-deep AND of n conjuncts that every row satisfies.
  auto where = [](int n) {
    std::string sql = "SELECT rule_id FROM alerts WHERE hits <> 0";
    for (int i = 1; i < n; ++i) sql += " AND hits <> " + std::to_string(i);
    return sql;
  };
  std::vector<ResultBatch> batches;
  auto deep = planner::ExecuteSql(
      net.node(0)->query_engine(), where(70),
      [&](const ResultBatch& b) { batches.push_back(b); });
  EXPECT_FALSE(deep.ok());
  net.RunFor(Seconds(8));
  EXPECT_TRUE(batches.empty());
  for (size_t i = 0; i < net.size(); ++i) {
    const query::EngineStats& s = net.node(i)->query_engine()->stats();
    EXPECT_EQ(s.queries_issued, 0u) << "node " << i;
    EXPECT_EQ(s.plans_received, 0u) << "node " << i;
  }

  auto ok = planner::ExecuteSql(
      net.node(0)->query_engine(), where(40),
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  net.RunFor(Seconds(8));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_EQ(batches[0].rows.size(), rows.size());
}

// HAVING binds IS [NOT] NULL over an aggregate like WHERE does over a
// column: MAX over a group whose every input is NULL is NULL.
TEST(E2eSqlTest, HavingIsNullOverAnAggregate) {
  PierNetworkOptions opts;
  opts.seed = 149;
  opts.node.router_kind = RouterKind::kOneHop;
  opts.node.engine.result_wait = Seconds(5);
  opts.node.engine.agg_hold_base = Millis(400);
  PierNetwork net(8, opts);
  net.Boot(Seconds(5));
  ASSERT_NO_FATAL_FAILURE(RegisterEverywhere(net, AlertsTable()));
  // Rules 1 and 2 carry descriptions; every row of rules 3 and 4 has none.
  for (int i = 0; i < 24; ++i) {
    int64_t rule = 1 + i % 4;
    Value descr = rule <= 2 ? Value::String("d" + std::to_string(i))
                            : Value::Null();
    ASSERT_TRUE(net.node(i % net.size())
                    ->query_engine()
                    ->Publish("alerts", Tuple{Value::Int64(rule), descr,
                                              Value::Int64(i)})
                    .ok());
  }
  net.RunFor(Seconds(5));

  auto rules_having = [&](const std::string& having) {
    std::vector<ResultBatch> batches;
    auto r = planner::ExecuteSql(
        net.node(3)->query_engine(),
        "SELECT rule_id, MAX(descr) AS d FROM alerts GROUP BY rule_id "
        "HAVING " + having,
        [&](const ResultBatch& b) { batches.push_back(b); });
    EXPECT_TRUE(r.ok()) << having << ": " << r.status().ToString();
    net.RunFor(Seconds(10));
    std::set<int64_t> rules;
    EXPECT_EQ(batches.size(), 1u) << having;
    for (const ResultBatch& b : batches) {
      for (const Tuple& t : b.rows) rules.insert(t[0].int64_value());
    }
    return rules;
  };
  EXPECT_EQ(rules_having("MAX(descr) IS NOT NULL"),
            (std::set<int64_t>{1, 2}));
  EXPECT_EQ(rules_having("MAX(descr) IS NULL"), (std::set<int64_t>{3, 4}));
}

}  // namespace
}  // namespace pier
