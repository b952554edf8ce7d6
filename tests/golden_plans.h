// Golden planner shapes shared by the SQL and wire-format suites: one
// catalog and one SQL statement per shape the planner emits, each with the
// EXPLAIN rendering of its opgraph and the roles the runtime derives for
// it. sql_test checks the renderings and runs each shape to check its
// roles; fuzz_deserialize_test feeds the planned graphs to its truncation
// and round-trip properties so every branch of the node encoding is
// exercised.

#ifndef PIER_TESTS_GOLDEN_PLANS_H_
#define PIER_TESTS_GOLDEN_PLANS_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "catalog/table_def.h"
#include "planner/planner.h"

namespace pier {
namespace golden {

/// alerts/rules/sevs (joinable on rule_id and severity; rules and sevs are
/// partitioned on their join key), links (an edge table) and metrics
/// (PHT-indexed on value and host).
inline catalog::Catalog Catalog() {
  using catalog::Schema;
  catalog::Catalog cat;
  catalog::TableDef alerts;
  alerts.name = "alerts";
  alerts.schema = Schema("alerts", {{"rule_id", ValueType::kInt64},
                                    {"descr", ValueType::kString},
                                    {"hits", ValueType::kInt64}});
  alerts.partition_cols = {0};
  EXPECT_TRUE(cat.Register(alerts).ok());
  catalog::TableDef rules;
  rules.name = "rules";
  rules.schema = Schema("rules", {{"rule_id", ValueType::kInt64},
                                  {"severity", ValueType::kInt64}});
  rules.partition_cols = {0};
  EXPECT_TRUE(cat.Register(rules).ok());
  catalog::TableDef links;
  links.name = "links";
  links.schema = Schema("links", {{"src", ValueType::kString},
                                  {"dst", ValueType::kString}});
  links.partition_cols = {0};
  EXPECT_TRUE(cat.Register(links).ok());
  catalog::TableDef sevs;
  sevs.name = "sevs";
  sevs.schema = Schema("sevs", {{"severity", ValueType::kInt64},
                                {"label", ValueType::kString}});
  sevs.partition_cols = {0};
  EXPECT_TRUE(cat.Register(sevs).ok());
  catalog::TableDef metrics;
  metrics.name = "metrics";
  metrics.schema = Schema("metrics", {{"host", ValueType::kString},
                                      {"value", ValueType::kInt64},
                                      {"note", ValueType::kString}});
  metrics.partition_cols = {0};
  metrics.indexes = {catalog::IndexDef{1, 8}, catalog::IndexDef{0, 8}};
  EXPECT_TRUE(cat.Register(metrics).ok());
  return cat;
}

struct Shape {
  const char* name;
  const char* sql;
  planner::PlannerOptions options;
  const char* explain;
  /// The plan runs at the origin alone and is never disseminated.
  bool origin_local = false;
  /// Members report each epoch (a join's members once they have settled,
  /// with their join books), so the origin can certify the answer exact.
  bool accountable = false;
};

inline planner::PlannerOptions Options(query::AggStrategy agg) {
  planner::PlannerOptions o;
  o.agg_strategy = agg;
  return o;
}

/// A caller-forced join strategy (the partitioning shortcut to
/// fetch-matches is off, so the directive stands).
inline planner::PlannerOptions Options(query::JoinStrategy join) {
  planner::PlannerOptions o;
  o.join_strategy = join;
  o.prefer_fetch_matches = false;
  return o;
}

constexpr const char* kAggregateSql =
    "SELECT SUM(hits) AS total, rule_id FROM alerts WHERE hits > 0 "
    "GROUP BY rule_id HAVING COUNT(*) > 1 ORDER BY total DESC LIMIT 3";

constexpr const char* kJoinSql =
    "SELECT a.rule_id, r.severity FROM alerts a, rules r "
    "WHERE a.rule_id = r.rule_id AND r.severity > 1";

inline std::vector<Shape> Shapes() {
  using query::AggStrategy;
  using query::JoinStrategy;
  return {
      {"select_where_project",
       "SELECT rule_id, hits * 2 AS h2 FROM alerts WHERE hits > 5",
       {},
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: filter((hits > 5)) <- (0)\n"
       "  2: project(2 exprs) <- (1) => to-origin\n"
       "  3: collect() <- (2)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"select_order_limit",
       "SELECT rule_id, hits FROM alerts ORDER BY hits DESC LIMIT 3",
       {},
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: project(2 exprs) <- (0) => to-origin\n"
       "  2: collect(order=1 desc limit=3) <- (1)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"select_distinct",
       "SELECT DISTINCT descr FROM alerts",
       {},
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: project(1 exprs) <- (0) => to-origin\n"
       "  2: collect(distinct) <- (1)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"aggregate_tree",
       kAggregateSql,
       Options(AggStrategy::kTree),
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: filter((hits > 0)) <- (0)\n"
       "  2: partial-agg(group=[0] aggs=SUM,COUNT) <- (1) => tree\n"
       "  3: final-agg(group=[0] aggs=SUM,COUNT) having=(COUNT(*) > 1)"
       " <- (2)\n"
       "  4: collect(select=[1,0] order=0 desc limit=3) <- (3)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/false},
      {"aggregate_direct",
       kAggregateSql,
       Options(AggStrategy::kDirect),
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: filter((hits > 0)) <- (0)\n"
       "  2: partial-agg(group=[0] aggs=SUM,COUNT) <- (1) => to-origin\n"
       "  3: final-agg(group=[0] aggs=SUM,COUNT) having=(COUNT(*) > 1)"
       " <- (2)\n"
       "  4: collect(select=[1,0] order=0 desc limit=3) <- (3)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/false},
      {"aggregate_distinct",
       "SELECT DISTINCT COUNT(*) AS n FROM alerts GROUP BY rule_id",
       {},
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: partial-agg(group=[0] aggs=COUNT) <- (0) => tree\n"
       "  2: final-agg(group=[0] aggs=COUNT) <- (1)\n"
       "  3: collect(distinct select=[1]) <- (2)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/false},
      {"join_symmetric_hash",
       kJoinSql,
       Options(JoinStrategy::kSymmetricHash),
       "opgraph{\n"
       "  0: scan(alerts) => rehash\n"
       "  1: scan(rules) => rehash\n"
       "  2: join[symmetric-hash] keys=[0]x[0] <- (0,1)\n"
       "  3: filter((r.severity > 1)) <- (2)\n"
       "  4: project(2 exprs) <- (3) => to-origin\n"
       "  5: collect() <- (4)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"join_fetch_matches",
       kJoinSql,
       {},
       "opgraph{\n"
       "  0: scan(alerts) => rehash\n"
       "  1: scan(rules) => rehash\n"
       "  2: join[fetch-matches] keys=[0]x[0] <- (0,1)\n"
       "  3: filter((r.severity > 1)) <- (2)\n"
       "  4: project(2 exprs) <- (3) => to-origin\n"
       "  5: collect() <- (4)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"join_symmetric_semi",
       kJoinSql,
       Options(JoinStrategy::kSymmetricSemi),
       "opgraph{\n"
       "  0: scan(alerts) => rehash\n"
       "  1: scan(rules) => rehash\n"
       "  2: join[symmetric-semi] keys=[0]x[0] <- (0,1)\n"
       "  3: filter((r.severity > 1)) <- (2)\n"
       "  4: project(2 exprs) <- (3) => to-origin\n"
       "  5: collect() <- (4)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"join_bloom",
       kJoinSql,
       Options(JoinStrategy::kBloom),
       "opgraph{\n"
       "  0: scan(alerts) => rehash\n"
       "  1: scan(rules) => rehash\n"
       "  2: join[bloom] keys=[0]x[0] <- (0,1)\n"
       "  3: filter((r.severity > 1)) <- (2)\n"
       "  4: project(2 exprs) <- (3) => to-origin\n"
       "  5: collect() <- (4)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"join_group_by",
       "SELECT r.severity, COUNT(*) AS n FROM alerts a JOIN rules r "
       "ON a.rule_id = r.rule_id GROUP BY r.severity",
       {},
       "opgraph{\n"
       "  0: scan(alerts) => rehash\n"
       "  1: scan(rules) => rehash\n"
       "  2: join[fetch-matches] keys=[0]x[0] <- (0,1) => to-origin\n"
       "  3: final-agg(group=[4] aggs=COUNT) <- (2)\n"
       "  4: collect(select=[0,1]) <- (3)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"three_way_join_group_by",
       "SELECT s.label, SUM(a.hits) AS total FROM alerts a, rules r, sevs s "
       "WHERE a.rule_id = r.rule_id AND r.severity = s.severity "
       "AND a.hits > 0 GROUP BY s.label",
       {},
       "opgraph{\n"
       "  0: scan(alerts) => rehash\n"
       "  1: scan(rules) => rehash\n"
       "  2: join[symmetric-hash] keys=[0]x[0] <- (0,1) => rehash\n"
       "  3: scan(sevs) => rehash\n"
       "  4: join[symmetric-hash] keys=[4]x[0] <- (2,3)\n"
       "  5: filter((a.hits > 0)) <- (4)\n"
       "  6: partial-agg(group=[6] aggs=SUM) <- (5) => to-origin\n"
       "  7: final-agg(group=[6] aggs=SUM) <- (6)\n"
       "  8: collect(select=[0,1]) <- (7)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/true},
      {"index_select",
       "SELECT host, value FROM metrics WHERE value BETWEEN 10 AND 20",
       {},
       "opgraph{\n"
       "  0: index-scan(metrics.value range=[10, 20])\n"
       "  1: filter(((value >= 10) AND (value <= 20))) <- (0)\n"
       "  2: project(2 exprs) <- (1) => to-origin\n"
       "  3: collect() <- (2)\n"
       "}",
       /*origin_local=*/true, /*accountable=*/false},
      {"index_aggregate",
       "SELECT host, SUM(value) AS total FROM metrics "
       "WHERE value BETWEEN 0 AND 100 GROUP BY host ORDER BY total DESC",
       {},
       "opgraph{\n"
       "  0: index-scan(metrics.value range=[0, 100])\n"
       "  1: filter(((value >= 0) AND (value <= 100))) <- (0) => to-origin\n"
       "  2: final-agg(group=[0] aggs=SUM) <- (1)\n"
       "  3: collect(select=[0,1] order=1 desc) <- (2)\n"
       "}",
       /*origin_local=*/true, /*accountable=*/false},
      {"recursion",
       "WITH RECURSIVE reach(src, dst) AS ("
       "  SELECT src, dst FROM links WHERE src <> 'z' "
       "  UNION SELECT reach.src, l.dst FROM reach JOIN links l "
       "    ON reach.dst = l.src"
       ") SELECT src, hops FROM reach WHERE hops <= 3 LIMIT 20 MAXHOPS 5",
       {},
       "opgraph{\n"
       "  0: scan(links)\n"
       "  1: recurse(src=0 dst=1 maxhops=5) edge-where=(src <> 'z') <- (0)\n"
       "  2: filter((hops <= 3)) <- (1)\n"
       "  3: project(2 exprs) <- (2) => to-origin\n"
       "  4: collect(limit=20) <- (3)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/false},
      {"every_window",
       "SELECT SUM(hits) AS rate, COUNT(*) AS n FROM alerts "
       "EVERY 10 SECONDS WINDOW 20 SECONDS",
       {},
       "opgraph{\n"
       "  0: scan(alerts)\n"
       "  1: partial-agg(group=[] aggs=SUM,COUNT) <- (0) => tree\n"
       "  2: final-agg(group=[] aggs=SUM,COUNT) <- (1)\n"
       "  3: collect(select=[0,1]) <- (2)\n"
       "}",
       /*origin_local=*/false, /*accountable=*/false},
  };
}

}  // namespace golden
}  // namespace pier

#endif  // PIER_TESTS_GOLDEN_PLANS_H_
