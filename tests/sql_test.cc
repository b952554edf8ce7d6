// SQL front-end tests: lexer, parser (including the continuous-query and
// WITH RECURSIVE forms), planner binding/validation, and end-to-end
// ExecuteSql runs over a simulated PIER network — including the two queries
// the paper demonstrates (Figure 1 and Table 1 shapes).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/network.h"
#include "golden_plans.h"
#include "planner/join_cost.h"
#include "planner/planner.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace pier {
namespace {

using catalog::Column;
using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;
using query::OpNode;
using query::OpType;
using query::QueryPlan;
using query::ResultBatch;

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(LexerTest, TokenizesBasicQuery) {
  auto r = sql::Tokenize("SELECT a, b FROM t WHERE x >= 10.5");
  ASSERT_TRUE(r.ok());
  const auto& toks = r.value();
  ASSERT_GE(toks.size(), 10u);
  EXPECT_EQ(toks[0].upper, "SELECT");
  EXPECT_EQ(toks[1].text, "a");
  EXPECT_EQ(toks[2].text, ",");
  EXPECT_EQ(toks.back().type, sql::TokenType::kEnd);
}

TEST(LexerTest, StringsWithEscapes) {
  auto r = sql::Tokenize("SELECT 'it''s'");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[1].type, sql::TokenType::kString);
  EXPECT_EQ(r.value()[1].text, "it's");
}

TEST(LexerTest, UnterminatedStringFails) {
  EXPECT_FALSE(sql::Tokenize("SELECT 'oops").ok());
}

TEST(LexerTest, TwoCharOperators) {
  auto r = sql::Tokenize("a <= b >= c <> d != e");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[1].text, "<=");
  EXPECT_EQ(r.value()[3].text, ">=");
  EXPECT_EQ(r.value()[5].text, "<>");
  EXPECT_EQ(r.value()[7].text, "<>");  // != normalizes
}

TEST(LexerTest, CommentsSkipped) {
  auto r = sql::Tokenize("SELECT a -- trailing comment\nFROM t");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[2].upper, "FROM");
}

TEST(LexerTest, StrayCharacterFails) {
  EXPECT_FALSE(sql::Tokenize("SELECT @a FROM t").ok());
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, SelectStar) {
  auto r = sql::Parse("SELECT * FROM alerts");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const sql::SelectStmt& s = r.value().select;
  EXPECT_TRUE(s.select_star);
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "alerts");
}

TEST(ParserTest, FullClauses) {
  auto r = sql::Parse(
      "SELECT rule_id, SUM(hits) AS total FROM alerts "
      "WHERE hits > 0 GROUP BY rule_id HAVING SUM(hits) >= 10 "
      "ORDER BY total DESC LIMIT 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const sql::SelectStmt& s = r.value().select;
  EXPECT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[1].alias, "total");
  EXPECT_EQ(s.group_by, std::vector<std::string>{"rule_id"});
  EXPECT_NE(s.having, nullptr);
  EXPECT_TRUE(s.order_desc);
  EXPECT_EQ(s.limit, 10);
}

TEST(ParserTest, ContinuousClauses) {
  auto r = sql::Parse(
      "SELECT SUM(out_kbps) FROM node_stats EVERY 10 SECONDS "
      "WINDOW 30 SECONDS");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().select.every_seconds, 10);
  EXPECT_EQ(r.value().select.window_seconds, 30);
}

TEST(ParserTest, JoinForms) {
  auto r1 = sql::Parse(
      "SELECT a.x FROM alerts a, rules r WHERE a.rule_id = r.rule_id");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().select.from.size(), 2u);
  EXPECT_EQ(r1.value().select.from[0].alias, "a");

  auto r2 = sql::Parse(
      "SELECT a.x FROM alerts a JOIN rules r ON a.rule_id = r.rule_id "
      "WHERE r.sev > 1");
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r2.value().select.join_on, nullptr);
  EXPECT_NE(r2.value().select.where, nullptr);
}

TEST(ParserTest, MultiTableFromForms) {
  // Comma list of three relations.
  auto r1 = sql::Parse(
      "SELECT s.label FROM alerts a, rules r, sevs s "
      "WHERE a.rule_id = r.rule_id AND r.severity = s.severity");
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(r1.value().select.from.size(), 3u);

  // Chained JOIN ... ON: the ON conditions AND together.
  auto r2 = sql::Parse(
      "SELECT s.label FROM alerts a JOIN rules r ON a.rule_id = r.rule_id "
      "JOIN sevs s ON r.severity = s.severity");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value().select.from.size(), 3u);
  ASSERT_NE(r2.value().select.join_on, nullptr);
  EXPECT_EQ(r2.value().select.join_on->kind, sql::AstExpr::Kind::kAnd);
}

TEST(ParserTest, ExplainPrefix) {
  auto r = sql::Parse("EXPLAIN SELECT rule_id FROM alerts");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().explain);
  EXPECT_EQ(r.value().kind, sql::Statement::Kind::kSelect);

  auto plain = sql::Parse("SELECT rule_id FROM alerts");
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain.value().explain);
}

TEST(ParserTest, ExpressionPrecedence) {
  auto r = sql::Parse("SELECT a FROM t WHERE x + 1 * 2 = 3 AND y < 4 OR z = 5");
  ASSERT_TRUE(r.ok());
  // OR at the root.
  EXPECT_EQ(r.value().select.where->kind, sql::AstExpr::Kind::kOr);
  // x + (1*2), not (x+1)*2; AND binds tighter than OR.
  EXPECT_EQ(r.value().select.where->ToString(),
            "((((x + (1 * 2)) = 3) AND (y < 4)) OR (z = 5))");
}

TEST(ParserTest, IsNullAndNot) {
  auto r = sql::Parse("SELECT a FROM t WHERE a IS NOT NULL AND NOT b = 2");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value().select.where, nullptr);
}

TEST(ParserTest, CountStarAndAggs) {
  auto r = sql::Parse("SELECT COUNT(*), AVG(v), MIN(v), MAX(v) FROM t");
  ASSERT_TRUE(r.ok());
  const auto& items = r.value().select.items;
  ASSERT_EQ(items.size(), 4u);
  EXPECT_EQ(items[0].expr->kind, sql::AstExpr::Kind::kAggCall);
  EXPECT_EQ(items[0].expr->left, nullptr);  // COUNT(*)
  EXPECT_NE(items[1].expr->left, nullptr);
}

TEST(ParserTest, WithRecursive) {
  auto r = sql::Parse(
      "WITH RECURSIVE reach(src, dst) AS ("
      "  SELECT src, dst FROM links "
      "  UNION SELECT reach.src, l.dst FROM reach JOIN links l "
      "    ON reach.dst = l.src"
      ") SELECT * FROM reach WHERE src = 'a' MAXHOPS 4");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r.value().kind, sql::Statement::Kind::kRecursive);
  const sql::RecursiveQuery& rq = *r.value().recursive;
  EXPECT_EQ(rq.name, "reach");
  EXPECT_EQ(rq.columns, (std::vector<std::string>{"src", "dst"}));
  EXPECT_EQ(rq.max_hops, 4);
  EXPECT_TRUE(rq.outer.select_star);
}

TEST(ParserTest, BetweenDesugarsToClosedRange) {
  auto r = sql::Parse("SELECT a FROM t WHERE x BETWEEN 5 AND 10");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const sql::AstExprPtr& w = r.value().select.where;
  ASSERT_NE(w, nullptr);
  EXPECT_EQ(w->ToString(), "((x >= 5) AND (x <= 10))");
}

TEST(ParserTest, BetweenBindsTighterThanConjunction) {
  // The AND inside BETWEEN must not swallow the following conjunct.
  auto r = sql::Parse(
      "SELECT a FROM t WHERE x BETWEEN 1 + 1 AND 10 AND y = 3");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().select.where->ToString(),
            "(((x >= (1 + 1)) AND (x <= 10)) AND (y = 3))");
}

TEST(ParserTest, BetweenMissingAndFails) {
  EXPECT_FALSE(sql::Parse("SELECT a FROM t WHERE x BETWEEN 5 10").ok());
}

TEST(ParserTest, ErrorsCarryPosition) {
  auto r = sql::Parse("SELECT FROM t");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position"), std::string::npos);
}

TEST(ParserTest, TrailingGarbageRejected) {
  EXPECT_FALSE(sql::Parse("SELECT a FROM t extra garbage !").ok());
}

// ---------------------------------------------------------------------------
// Planner
// ---------------------------------------------------------------------------

QueryPlan MustPlan(const std::string& text) {
  auto stmt = sql::Parse(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  catalog::Catalog cat = golden::Catalog();
  auto plan = planner::PlanStatement(stmt.value(), cat);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.value();
}

/// The first node of `type` in `p`'s graph (fails the test if absent).
const OpNode& NodeOf(const QueryPlan& p, OpType type) {
  int id = p.graph.FindFirst(type);
  EXPECT_GE(id, 0) << query::OpTypeName(type) << " missing from "
                   << p.graph.ToString();
  return p.graph.nodes[static_cast<size_t>(std::max(id, 0))];
}

TEST(PlannerTest, SimpleSelectBindsColumns) {
  QueryPlan p = MustPlan("SELECT rule_id, hits * 2 FROM alerts WHERE hits > 5");
  ASSERT_EQ(p.graph.size(), 4u) << p.graph.ToString();
  EXPECT_EQ(p.graph.nodes[0].type, OpType::kScan);
  EXPECT_EQ(p.graph.nodes[0].table, "alerts");
  EXPECT_NE(NodeOf(p, OpType::kFilter).predicate, nullptr);
  EXPECT_EQ(NodeOf(p, OpType::kProject).exprs.size(), 2u);
  EXPECT_TRUE(p.graph.Validate().ok());
}

TEST(PlannerTest, AggregateAnalysis) {
  QueryPlan p = MustPlan(
      "SELECT SUM(hits) AS total, rule_id FROM alerts GROUP BY rule_id "
      "HAVING COUNT(*) > 1 ORDER BY total DESC LIMIT 3");
  const OpNode& partial = NodeOf(p, OpType::kPartialAgg);
  EXPECT_EQ(partial.out, query::ExchangeKind::kTree);
  const OpNode& agg = NodeOf(p, OpType::kFinalAgg);
  EXPECT_EQ(agg.group_cols, std::vector<int>{0});
  EXPECT_EQ(partial.group_cols, agg.group_cols);
  // SUM for the item, COUNT added by HAVING.
  ASSERT_EQ(agg.aggs.size(), 2u);
  EXPECT_EQ(agg.aggs[0].fn, exec::AggFunc::kSum);
  EXPECT_EQ(agg.aggs[1].fn, exec::AggFunc::kCount);
  EXPECT_EQ(partial.aggs.size(), 2u);
  EXPECT_NE(agg.having, nullptr);
  // SELECT order: total (agg 0 at layout pos 1), rule_id (group 0 at pos 0).
  const OpNode& collect = p.graph.nodes.back();
  EXPECT_EQ(collect.final_projection, (std::vector<int>{1, 0}));
  EXPECT_EQ(collect.order_col, 0);
  EXPECT_TRUE(collect.order_desc);
  EXPECT_EQ(collect.limit, 3);
}

TEST(PlannerTest, NonGroupedColumnRejected) {
  auto stmt = sql::Parse("SELECT descr, SUM(hits) FROM alerts GROUP BY rule_id");
  ASSERT_TRUE(stmt.ok());
  catalog::Catalog cat = golden::Catalog();
  auto plan = planner::PlanStatement(stmt.value(), cat);
  EXPECT_FALSE(plan.ok());
}

TEST(PlannerTest, UnknownTableAndColumn) {
  catalog::Catalog cat = golden::Catalog();
  auto s1 = sql::Parse("SELECT x FROM nope");
  ASSERT_TRUE(s1.ok());
  EXPECT_TRUE(planner::PlanStatement(s1.value(), cat).status().IsNotFound());
  auto s2 = sql::Parse("SELECT nope FROM alerts");
  ASSERT_TRUE(s2.ok());
  EXPECT_FALSE(planner::PlanStatement(s2.value(), cat).ok());
}

TEST(PlannerTest, JoinKeyExtraction) {
  QueryPlan p = MustPlan(
      "SELECT a.rule_id, r.severity FROM alerts a, rules r "
      "WHERE a.rule_id = r.rule_id AND r.severity > 1");
  const OpNode& join = NodeOf(p, OpType::kJoin);
  EXPECT_EQ(join.left_keys, std::vector<int>{0});
  EXPECT_EQ(join.right_keys, std::vector<int>{0});
  EXPECT_NE(NodeOf(p, OpType::kFilter).predicate,
            nullptr);  // residual severity > 1
  // rules is partitioned on rule_id, so the planner picks fetch-matches.
  EXPECT_EQ(join.strategy, query::JoinStrategy::kFetchMatches);
}

TEST(PlannerTest, MultiwayJoinComposesOpgraph) {
  QueryPlan p = MustPlan(
      "SELECT s.label, SUM(a.hits) AS total FROM alerts a, rules r, sevs s "
      "WHERE a.rule_id = r.rule_id AND r.severity = s.severity "
      "GROUP BY s.label");
  ASSERT_FALSE(p.graph.empty());
  EXPECT_TRUE(p.graph.Validate().ok()) << p.graph.Validate().ToString();
  // Three scans chained through two binary symmetric-hash joins, with the
  // group-by pushed below the origin: partial-agg runs at the final join's
  // rendezvous, ships straight to the origin (under the default kTree
  // strategy too) and finalizes there.
  int scans = 0, joins = 0, partial = 0, final_agg = 0;
  for (const query::OpNode& n : p.graph.nodes) {
    scans += n.type == query::OpType::kScan;
    joins += n.type == query::OpType::kJoin;
    partial += n.type == query::OpType::kPartialAgg;
    final_agg += n.type == query::OpType::kFinalAgg;
    if (n.type == query::OpType::kJoin) {
      EXPECT_EQ(n.strategy, query::JoinStrategy::kSymmetricHash);
      EXPECT_EQ(n.left_keys.size(), n.right_keys.size());
    }
    if (n.type == query::OpType::kPartialAgg) {
      EXPECT_EQ(n.out, query::ExchangeKind::kToOrigin);
    }
  }
  EXPECT_EQ(scans, 3);
  EXPECT_EQ(joins, 2);
  EXPECT_EQ(partial, 1);
  EXPECT_EQ(final_agg, 1);
  EXPECT_EQ(p.graph.nodes.back().type, query::OpType::kCollect);
}

// Catalog whose tables carry statistics, for the cost-based strategy
// tests. `wide`/`narrow` are a semi-join-friendly pair (fat tuples, huge
// key domain => few matches); `biga`/`bigb` are a Bloom-friendly pair
// (many rows, skewed key domains => suppression pays, but per-match
// fetches would not).
catalog::Catalog StatsCatalog() {
  catalog::Catalog cat;
  auto add = [&](const std::string& name, uint64_t rows, uint32_t width,
                 uint64_t key_distinct) {
    TableDef def;
    def.name = name;
    def.schema = Schema(name, {{"k", ValueType::kInt64},
                               {"payload", ValueType::kString}});
    def.partition_cols = {0};
    def.stats.row_count = rows;
    def.stats.avg_tuple_bytes = width;
    def.stats.distinct_per_col = {key_distinct, 1};
    EXPECT_TRUE(cat.Register(def).ok());
  };
  add("wide", 400, 528, 20000);
  add("narrow", 400, 528, 20000);
  add("biga", 100000, 200, 100000);
  add("bigb", 100000, 200, 10000);
  add("nostats", 0, 0, 0);
  return cat;
}

QueryPlan MustPlanStats(const std::string& text,
                        const planner::PlannerOptions& options) {
  auto stmt = sql::Parse(text);
  EXPECT_TRUE(stmt.ok()) << stmt.status().ToString();
  catalog::Catalog cat = StatsCatalog();
  auto plan = planner::PlanStatement(stmt.value(), cat, options);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  return plan.value();
}

TEST(PlannerTest, CostModelPicksByEstimatedBytes) {
  catalog::Catalog cat = StatsCatalog();
  planner::JoinCostInputs in;
  in.left_key_cols = {0};
  in.right_key_cols = {0};

  // Fat tuples, huge key domain: semi-join's key-only rehash wins.
  in.left = &cat.Find("wide")->stats;
  in.right = &cat.Find("narrow")->stats;
  planner::JoinChoice c = planner::ChooseJoinStrategy(in);
  EXPECT_EQ(c.strategy, query::JoinStrategy::kSymmetricSemi);
  EXPECT_LT(c.est_semi_bytes, c.est_hash_bytes);

  // Large relations, skewed domains: enough matches to make per-match
  // fetches expensive, enough suppression to amortize the filter wave.
  in.left = &cat.Find("biga")->stats;
  in.right = &cat.Find("bigb")->stats;
  c = planner::ChooseJoinStrategy(in);
  EXPECT_EQ(c.strategy, query::JoinStrategy::kBloom);
  EXPECT_LT(c.est_bloom_bytes, c.est_hash_bytes);
  EXPECT_LT(c.est_bloom_bytes, c.est_semi_bytes);

  // A side without statistics can never authorize a suppressing strategy.
  in.right = &cat.Find("nostats")->stats;
  EXPECT_EQ(planner::ChooseJoinStrategy(in).strategy,
            query::JoinStrategy::kSymmetricHash);
}

TEST(PlannerTest, StatsDriveBinaryJoinStrategy) {
  planner::PlannerOptions opts;
  opts.prefer_fetch_matches = false;  // isolate the statistics path
  QueryPlan semi = MustPlanStats(
      "SELECT w.k FROM wide w, narrow n WHERE w.k = n.k", opts);
  EXPECT_EQ(NodeOf(semi, OpType::kJoin).strategy,
            query::JoinStrategy::kSymmetricSemi);

  QueryPlan bloom = MustPlanStats(
      "SELECT a.k FROM biga a, bigb b WHERE a.k = b.k", opts);
  EXPECT_EQ(NodeOf(bloom, OpType::kJoin).strategy,
            query::JoinStrategy::kBloom);

  // EXPLAIN surfaces the planner's choice per edge.
  EXPECT_NE(bloom.graph.ToString().find("join[bloom]"), std::string::npos)
      << bloom.graph.ToString();

  // No stats on one side: conservative symmetric hash.
  QueryPlan hash = MustPlanStats(
      "SELECT w.k FROM wide w, nostats x WHERE w.k = x.k", opts);
  EXPECT_EQ(NodeOf(hash, OpType::kJoin).strategy,
            query::JoinStrategy::kSymmetricHash);

  // An explicit caller strategy is a directive, not a hint: the cost
  // model must not override it.
  opts.join_strategy = query::JoinStrategy::kBloom;
  QueryPlan forced = MustPlanStats(
      "SELECT w.k FROM wide w, narrow n WHERE w.k = n.k", opts);
  EXPECT_EQ(NodeOf(forced, OpType::kJoin).strategy,
            query::JoinStrategy::kBloom);
}

TEST(PlannerTest, StatsDriveMultiwayFirstEdgeOnly) {
  planner::PlannerOptions opts;
  opts.prefer_fetch_matches = false;
  QueryPlan p = MustPlanStats(
      "SELECT a.k FROM biga a, bigb b, nostats x "
      "WHERE a.k = b.k AND b.k = x.k",
      opts);
  ASSERT_FALSE(p.graph.empty());
  // Edge 0 joins two base-table scans and may use the cost-model choice;
  // later edges consume a prior join's rehash output (nothing scanned to
  // suppress), so they stay symmetric hash regardless of statistics.
  std::vector<query::JoinStrategy> strategies;
  for (const query::OpNode& n : p.graph.nodes) {
    if (n.type == query::OpType::kJoin) strategies.push_back(n.strategy);
  }
  ASSERT_EQ(strategies.size(), 2u);
  EXPECT_EQ(strategies[0], query::JoinStrategy::kBloom);
  EXPECT_EQ(strategies[1], query::JoinStrategy::kSymmetricHash);
  EXPECT_NE(p.graph.ToString().find("join[bloom]"), std::string::npos);
  EXPECT_NE(p.graph.ToString().find("join[symmetric-hash]"),
            std::string::npos);
}

TEST(PlannerTest, DisconnectedMultiwayJoinRejected) {
  auto stmt = sql::Parse(
      "SELECT a.rule_id FROM alerts a, rules r, sevs s "
      "WHERE a.rule_id = r.rule_id");  // sevs connects to nothing
  ASSERT_TRUE(stmt.ok());
  catalog::Catalog cat = golden::Catalog();
  EXPECT_FALSE(planner::PlanStatement(stmt.value(), cat).ok());
}

TEST(PlannerTest, JoinWithoutEquiPredicateRejected) {
  auto stmt = sql::Parse(
      "SELECT a.rule_id FROM alerts a, rules r WHERE a.hits > r.severity");
  ASSERT_TRUE(stmt.ok());
  catalog::Catalog cat = golden::Catalog();
  EXPECT_FALSE(planner::PlanStatement(stmt.value(), cat).ok());
}

TEST(PlannerTest, RecursivePlan) {
  QueryPlan p = MustPlan(
      "WITH RECURSIVE reach(src, dst) AS ("
      "  SELECT src, dst FROM links "
      "  UNION SELECT reach.src, l.dst FROM reach JOIN links l "
      "    ON reach.dst = l.src"
      ") SELECT * FROM reach WHERE hops <= 3 MAXHOPS 5");
  EXPECT_EQ(p.graph.nodes[0].type, OpType::kScan);
  EXPECT_EQ(p.graph.nodes[0].table, "links");
  const OpNode& rec = NodeOf(p, OpType::kRecurse);
  EXPECT_EQ(rec.src_col, 0);
  EXPECT_EQ(rec.dst_col, 1);
  EXPECT_EQ(rec.max_hops, 5);
  // The outer WHERE filters the closure output, after the recursion.
  EXPECT_GT(p.graph.FindFirst(OpType::kFilter),
            p.graph.FindFirst(OpType::kRecurse));
}

TEST(PlannerTest, ContinuousClausesCarryThrough) {
  QueryPlan p = MustPlan(
      "SELECT SUM(hits) FROM alerts EVERY 10 SECONDS WINDOW 20 SECONDS");
  EXPECT_EQ(p.every, Seconds(10));
  EXPECT_EQ(p.window, Seconds(20));
}

// ---------------------------------------------------------------------------
// Index-scan access-path selection
// ---------------------------------------------------------------------------

bool HasIndexScan(const QueryPlan& p) {
  return p.graph.Has(query::OpType::kIndexScan);
}

TEST(PlannerIndexTest, RangeOnIndexedColumnSelectsIndexScan) {
  QueryPlan p = MustPlan("SELECT host, value FROM metrics WHERE value < 50");
  ASSERT_TRUE(HasIndexScan(p)) << p.graph.ToString();
  const query::OpNode& scan = p.graph.nodes[0];
  EXPECT_EQ(scan.type, query::OpType::kIndexScan);
  EXPECT_EQ(scan.table, "metrics");
  EXPECT_EQ(scan.index_col, 1);
  EXPECT_TRUE(scan.index_lo.is_null());  // open below
  EXPECT_EQ(scan.index_hi, Value::Int64(50));
  // The exact predicate always follows the (superset) range.
  EXPECT_EQ(p.graph.nodes[1].type, query::OpType::kFilter);
}

TEST(PlannerIndexTest, BetweenTightensBothBounds) {
  QueryPlan p = MustPlan(
      "SELECT value FROM metrics WHERE value BETWEEN 10 AND 90 "
      "AND value >= 20 AND note = 'x'");
  ASSERT_TRUE(HasIndexScan(p)) << p.graph.ToString();
  const query::OpNode& scan = p.graph.nodes[0];
  EXPECT_EQ(scan.index_lo, Value::Int64(20));  // max of lower bounds
  EXPECT_EQ(scan.index_hi, Value::Int64(90));
}

TEST(PlannerIndexTest, TwoSidedRangeBeatsOneSidedOnOtherIndex) {
  // Both host and value are indexed; value has both bounds, host only one.
  QueryPlan p = MustPlan(
      "SELECT value FROM metrics "
      "WHERE host >= 'a' AND value >= 10 AND value <= 20");
  ASSERT_TRUE(HasIndexScan(p)) << p.graph.ToString();
  EXPECT_EQ(p.graph.nodes[0].index_col, 1);
}

TEST(PlannerIndexTest, EqualityPinsBothBounds) {
  QueryPlan p = MustPlan("SELECT note FROM metrics WHERE value = 42");
  ASSERT_TRUE(HasIndexScan(p)) << p.graph.ToString();
  EXPECT_EQ(p.graph.nodes[0].index_lo, Value::Int64(42));
  EXPECT_EQ(p.graph.nodes[0].index_hi, Value::Int64(42));
}

TEST(PlannerIndexTest, StringIndexedColumnUsesIndex) {
  QueryPlan p = MustPlan(
      "SELECT host FROM metrics WHERE host >= 'h-10' AND host <= 'h-20'");
  ASSERT_TRUE(HasIndexScan(p)) << p.graph.ToString();
  EXPECT_EQ(p.graph.nodes[0].index_col, 0);
}

TEST(PlannerIndexTest, NonIndexedOrUnusableShapesKeepBroadcastScan) {
  // Range on a non-indexed attribute.
  EXPECT_FALSE(HasIndexScan(
      MustPlan("SELECT rule_id FROM alerts WHERE hits < 50")));
  // Indexed attribute but no literal bound.
  EXPECT_FALSE(HasIndexScan(
      MustPlan("SELECT value FROM metrics WHERE value < value + 1")));
  // Disqualifying literal type (string bound on INT64 column).
  EXPECT_FALSE(HasIndexScan(
      MustPlan("SELECT value FROM metrics WHERE value < 'fifty'")));
  // Windowed continuous queries keep scanning (window semantics).
  EXPECT_FALSE(HasIndexScan(MustPlan(
      "SELECT value FROM metrics WHERE value < 50 "
      "EVERY 10 SECONDS WINDOW 20 SECONDS")));
  // Planner knob off.
  {
    auto stmt = sql::Parse("SELECT value FROM metrics WHERE value < 50");
    ASSERT_TRUE(stmt.ok());
    catalog::Catalog cat = golden::Catalog();
    planner::PlannerOptions no_index;
    no_index.use_index = false;
    auto plan = planner::PlanStatement(stmt.value(), cat, no_index);
    ASSERT_TRUE(plan.ok());
    EXPECT_FALSE(HasIndexScan(plan.value()));
  }
}

TEST(PlannerIndexTest, AggregateOverRangeComposesFinalAggAtOrigin) {
  QueryPlan p = MustPlan(
      "SELECT host, SUM(value) AS total FROM metrics "
      "WHERE value BETWEEN 0 AND 100 GROUP BY host ORDER BY total DESC");
  ASSERT_TRUE(HasIndexScan(p)) << p.graph.ToString();
  EXPECT_TRUE(p.graph.Has(query::OpType::kFinalAgg));
  // No partial-agg layer: the cursor already centralizes the in-range rows.
  EXPECT_FALSE(p.graph.Has(query::OpType::kPartialAgg));
  EXPECT_TRUE(p.graph.Validate().ok()) << p.graph.ToString();
}

TEST(PlannerIndexTest, IndexGraphSerializesAndValidates) {
  QueryPlan p = MustPlan(
      "SELECT host, value FROM metrics WHERE value BETWEEN 10 AND 20");
  Writer w;
  p.Serialize(&w);
  Reader r(w.buffer());
  QueryPlan back;
  ASSERT_TRUE(QueryPlan::Deserialize(&r, &back).ok());
  ASSERT_FALSE(back.graph.empty());  // the graph travels
  EXPECT_TRUE(back.graph.Has(query::OpType::kIndexScan));
  EXPECT_TRUE(back.graph.Validate().ok());
}

// ---------------------------------------------------------------------------
// End-to-end SQL over a simulated deployment
// ---------------------------------------------------------------------------

class SqlEndToEnd : public ::testing::Test {
 protected:
  void Boot(size_t n = 8) {
    PierNetworkOptions opts;
    opts.seed = 97;
    opts.node.router_kind = RouterKind::kOneHop;
    opts.node.engine.result_wait = Seconds(5);
    opts.node.engine.agg_hold_base = Millis(400);
    opts.node.engine.quiesce_window = Seconds(5);
    net_ = std::make_unique<PierNetwork>(n, opts);
    net_->Boot(Seconds(5));
    catalog::Catalog cat = golden::Catalog();
    for (const std::string& name : cat.TableNames()) {
      for (size_t i = 0; i < net_->size(); ++i) {
        ASSERT_TRUE(net_->node(i)->catalog()->Register(*cat.Find(name)).ok());
      }
    }
  }

  void PublishAlert(int rule, const std::string& descr, int hits) {
    Tuple t{Value::Int64(rule), Value::String(descr), Value::Int64(hits)};
    ASSERT_TRUE(net_->node(pub_++ % net_->size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }

  std::vector<ResultBatch> Run(const std::string& sql_text,
                               Duration wait = Seconds(12)) {
    std::vector<ResultBatch> batches;
    auto r = planner::ExecuteSql(
        net_->node(0)->query_engine(), sql_text,
        [&](const ResultBatch& b) { batches.push_back(b); });
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    net_->RunFor(wait);
    return batches;
  }

  std::unique_ptr<PierNetwork> net_;
  size_t pub_ = 0;
};

TEST_F(SqlEndToEnd, Table1ShapeTopTenIntrusions) {
  Boot();
  // Three rules with distinct totals.
  for (int i = 0; i < 5; ++i) PublishAlert(1322, "BAD-TRAFFIC bad frag bits", 100);
  for (int i = 0; i < 3; ++i) PublishAlert(2189, "BAD TRAFFIC ip proto 103", 50);
  PublishAlert(1923, "RPC portmap proxy", 10);
  net_->RunFor(Seconds(5));

  auto batches = Run(
      "SELECT rule_id, SUM(hits) AS total FROM alerts "
      "GROUP BY rule_id ORDER BY total DESC LIMIT 10");
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 3u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 1322);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 500);
  EXPECT_EQ(batches[0].rows[1][0].int64_value(), 2189);
  EXPECT_EQ(batches[0].rows[1][1].int64_value(), 150);
  EXPECT_EQ(batches[0].rows[2][0].int64_value(), 1923);
  EXPECT_EQ(batches[0].rows[2][1].int64_value(), 10);
}

TEST_F(SqlEndToEnd, Figure1ShapeContinuousSum) {
  Boot(6);
  for (size_t i = 0; i < net_->size(); ++i) {
    Tuple t{Value::Int64(static_cast<int64_t>(i)), Value::String("n"),
            Value::Int64(100)};
    ASSERT_TRUE(net_->node(i)->query_engine()->Publish("alerts", t).ok());
  }
  net_->RunFor(Seconds(3));

  std::vector<ResultBatch> batches;
  auto r = planner::ExecuteSql(
      net_->node(0)->query_engine(),
      "SELECT SUM(hits) AS rate, COUNT(*) AS nodes FROM alerts "
      "EVERY 10 SECONDS",
      [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net_->RunFor(Seconds(35));
  net_->node(0)->query_engine()->Cancel(r.value());
  net_->RunFor(Seconds(5));

  ASSERT_GE(batches.size(), 3u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 600);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 6);
}

TEST_F(SqlEndToEnd, JoinQuery) {
  Boot();
  PublishAlert(1, "one", 10);
  PublishAlert(2, "two", 20);
  for (auto [rule, sev] : std::vector<std::pair<int, int>>{{1, 5}, {2, 1}}) {
    ASSERT_TRUE(net_->node(0)
                    ->query_engine()
                    ->Publish("rules", Tuple{Value::Int64(rule),
                                             Value::Int64(sev)})
                    .ok());
  }
  net_->RunFor(Seconds(5));

  auto batches = Run(
      "SELECT a.rule_id, r.severity FROM alerts a JOIN rules r "
      "ON a.rule_id = r.rule_id WHERE r.severity >= 5");
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 1);
  EXPECT_EQ(batches[0].rows[0][1].int64_value(), 5);
}

TEST_F(SqlEndToEnd, JoinGroupByWithoutAggregateCallsGroups) {
  Boot();
  PublishAlert(1, "one", 10);
  PublishAlert(2, "two", 20);
  for (auto [rule, sev] : std::vector<std::pair<int, int>>{{1, 5}, {2, 5}}) {
    ASSERT_TRUE(net_->node(0)
                    ->query_engine()
                    ->Publish("rules", Tuple{Value::Int64(rule),
                                             Value::Int64(sev)})
                    .ok());
  }
  net_->RunFor(Seconds(5));

  auto batches = Run(
      "SELECT r.severity FROM alerts a JOIN rules r "
      "ON a.rule_id = r.rule_id GROUP BY r.severity");
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  ASSERT_EQ(batches[0].rows[0].size(), 1u);
  EXPECT_EQ(batches[0].rows[0][0].int64_value(), 5);
}

TEST_F(SqlEndToEnd, RecursiveSqlQuery) {
  Boot(5);
  for (auto& e : std::vector<std::pair<std::string, std::string>>{
           {"a", "b"}, {"b", "c"}}) {
    ASSERT_TRUE(net_->node(0)
                    ->query_engine()
                    ->Publish("links", Tuple{Value::String(e.first),
                                             Value::String(e.second)})
                    .ok());
  }
  net_->RunFor(Seconds(5));

  auto batches = Run(
      "WITH RECURSIVE reach(src, dst) AS ("
      "  SELECT src, dst FROM links "
      "  UNION SELECT reach.src, l.dst FROM reach JOIN links l "
      "    ON reach.dst = l.src"
      ") SELECT * FROM reach MAXHOPS 4",
      Seconds(40));
  ASSERT_EQ(batches.size(), 1u);
  std::set<std::pair<std::string, std::string>> got;
  for (const Tuple& t : batches[0].rows) {
    got.insert({t[0].string_value(), t[1].string_value()});
  }
  EXPECT_EQ(got, (std::set<std::pair<std::string, std::string>>{
                     {"a", "b"}, {"b", "c"}, {"a", "c"}}));
}

TEST_F(SqlEndToEnd, ParseErrorSurfacesToCaller) {
  Boot(3);
  auto r = planner::ExecuteSql(net_->node(0)->query_engine(),
                               "SELEKT * FROM alerts",
                               [](const ResultBatch&) {});
  EXPECT_FALSE(r.ok());
}

TEST_F(SqlEndToEnd, ExplainReturnsOpgraphAsOneRowResult) {
  Boot(3);
  auto batches = Run(
      "EXPLAIN SELECT rule_id, SUM(hits) AS total FROM alerts "
      "WHERE hits > 0 GROUP BY rule_id ORDER BY total DESC LIMIT 10",
      /*wait=*/Seconds(1));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  ASSERT_EQ(batches[0].rows[0].size(), 1u);
  std::string rendering = batches[0].rows[0][0].string_value();
  EXPECT_NE(rendering.find("opgraph{"), std::string::npos) << rendering;
  EXPECT_NE(rendering.find("scan(alerts)"), std::string::npos);
  EXPECT_NE(rendering.find("partial-agg"), std::string::npos);
  EXPECT_NE(rendering.find("final-agg"), std::string::npos);
  EXPECT_NE(rendering.find("collect"), std::string::npos);
  // EXPLAIN plans without executing: no query was disseminated.
  EXPECT_EQ(net_->node(0)->query_engine()->stats().queries_issued, 0u);
}

TEST_F(SqlEndToEnd, ExplainNamesTheAccessPath) {
  Boot(3);
  // Indexed range predicate: EXPLAIN must show the index-scan access path
  // with the chosen attribute and range.
  auto batches = Run(
      "EXPLAIN SELECT host, value FROM metrics WHERE value BETWEEN 10 AND 99",
      /*wait=*/Seconds(1));
  ASSERT_EQ(batches.size(), 1u);
  ASSERT_EQ(batches[0].rows.size(), 1u);
  std::string rendering = batches[0].rows[0][0].string_value();
  EXPECT_NE(rendering.find("index-scan(metrics.value range=[10, 99])"),
            std::string::npos)
      << rendering;
  EXPECT_EQ(rendering.find("scan(metrics)"), std::string::npos) << rendering;

  // The same query on a non-indexed attribute names the broadcast scan.
  auto scan_batches = Run(
      "EXPLAIN SELECT rule_id FROM alerts WHERE hits BETWEEN 10 AND 99",
      /*wait=*/Seconds(1));
  ASSERT_EQ(scan_batches.size(), 1u);
  std::string scan_rendering = scan_batches[0].rows[0][0].string_value();
  EXPECT_NE(scan_rendering.find("scan(alerts)"), std::string::npos)
      << scan_rendering;
  EXPECT_EQ(scan_rendering.find("index-scan"), std::string::npos);
}

// Golden EXPLAIN for every shape the planner emits. The rendering is
// what a member would run: a change to any shape's dataflow shows up here.
TEST_F(SqlEndToEnd, ExplainGoldenForEveryPlannerShape) {
  Boot(3);
  for (const golden::Shape& shape : golden::Shapes()) {
    SCOPED_TRACE(shape.name);
    std::vector<ResultBatch> batches;
    auto r = planner::ExecuteSql(
        net_->node(0)->query_engine(), std::string("EXPLAIN ") + shape.sql,
        [&](const ResultBatch& b) { batches.push_back(b); }, shape.options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_EQ(batches.size(), 1u);
    ASSERT_EQ(batches[0].rows.size(), 1u);
    EXPECT_EQ(batches[0].rows[0][0].string_value(), shape.explain);
  }
  EXPECT_EQ(net_->node(0)->query_engine()->stats().queries_issued, 0u);
}

// The roles the runtime derives for each planner shape, observed on the
// running network: an origin-local plan never leaves the origin (no member
// receives it), and only the members of an accountable plan report their
// epochs — the reports the origin certifies an exact answer from.
TEST_F(SqlEndToEnd, GoldenShapesRunInTheirPinnedRoles) {
  Boot();
  // Index rows, so the index shapes answer from the index instead of
  // falling back to a broadcast scan.
  for (int i = 0; i < 40; ++i) {
    Tuple t{Value::String("h-" + std::to_string(i % 5)), Value::Int64(i),
            Value::String("n")};
    ASSERT_TRUE(net_->node(i % net_->size())
                    ->query_engine()
                    ->Publish("metrics", t)
                    .ok());
  }
  PublishAlert(1, "one", 10);
  PublishAlert(2, "two", 20);
  net_->RunFor(Seconds(15));  // index forwards/splits settle

  auto member_totals = [&](uint64_t* plans, uint64_t* reports) {
    *plans = 0;
    *reports = 0;
    for (size_t i = 1; i < net_->size(); ++i) {
      const query::EngineStats& s = net_->node(i)->query_engine()->stats();
      *plans += s.plans_received;
      *reports += s.epoch_reports_sent;
    }
  };
  for (const golden::Shape& shape : golden::Shapes()) {
    SCOPED_TRACE(shape.name);
    uint64_t plans_before = 0, reports_before = 0;
    member_totals(&plans_before, &reports_before);
    std::vector<ResultBatch> batches;
    auto r = planner::ExecuteSql(
        net_->node(0)->query_engine(), shape.sql,
        [&](const ResultBatch& b) { batches.push_back(b); }, shape.options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    net_->RunFor(Seconds(12));
    net_->node(0)->query_engine()->Cancel(r.value());  // continuous shapes
    net_->RunFor(Seconds(2));
    EXPECT_FALSE(batches.empty());
    uint64_t plans_after = 0, reports_after = 0;
    member_totals(&plans_after, &reports_after);
    EXPECT_EQ(plans_after == plans_before, shape.origin_local);
    EXPECT_EQ(reports_after > reports_before, shape.accountable);
  }
}

// DISTINCT applies to the SELECT list after aggregation too: two rules with
// two alerts each and one with a single alert give two distinct counts.
TEST_F(SqlEndToEnd, DistinctOverAggregateDeduplicates) {
  Boot();
  for (int rule : {1, 1, 2, 2, 3}) PublishAlert(rule, "a", 1);
  net_->RunFor(Seconds(5));

  auto batches =
      Run("SELECT DISTINCT COUNT(*) AS n FROM alerts GROUP BY rule_id");
  ASSERT_EQ(batches.size(), 1u);
  std::multiset<int64_t> got;
  for (const Tuple& t : batches[0].rows) got.insert(t[0].int64_value());
  EXPECT_EQ(got, (std::multiset<int64_t>{1, 2}));
}

TEST_F(SqlEndToEnd, IndexedRangeQueryMatchesFilteredBaseline) {
  Boot(8);
  // metrics rows across all nodes; values 0..79.
  for (int i = 0; i < 80; ++i) {
    Tuple t{Value::String("h-" + std::to_string(i % 5)), Value::Int64(i),
            Value::String("n")};
    ASSERT_TRUE(net_->node(i % net_->size())
                    ->query_engine()
                    ->Publish("metrics", t)
                    .ok());
  }
  net_->RunFor(Seconds(15));  // index forwards/splits settle

  auto batches =
      Run("SELECT value FROM metrics WHERE value BETWEEN 25 AND 34");
  ASSERT_EQ(batches.size(), 1u);
  std::multiset<int64_t> got;
  for (const Tuple& t : batches[0].rows) got.insert(t[0].int64_value());
  std::multiset<int64_t> want;
  for (int64_t v = 25; v <= 34; ++v) want.insert(v);
  EXPECT_EQ(got, want);
  // The answer came through the cursor, not a broadcast scan.
  EXPECT_GE(net_->node(0)->query_engine()->stats().index_scans_run, 1u);
  EXPECT_EQ(net_->node(0)->query_engine()->stats().index_fallbacks, 0u);
}

}  // namespace
}  // namespace pier
