// Tests for the multi-tenant query scheduler (PR 9): round-robin quantum
// rotation across concurrent scans, shared-sweep batching (answers
// byte-identical to a solo scan, fewer LocalStore walks than scans), and
// per-query resource budgets surfacing in Completeness instead of silently
// truncating answers — plus the shed-vs-certification interleaving scenario
// and a 32-query storm through a partition-and-heal.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "core/network.h"
#include "query/engine.h"
#include "query/plan.h"
#include "query/scheduler.h"
#include "testkit/scenario.h"

namespace pier {
namespace query {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;

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

void PublishAlerts(PierNetwork& net, int n) {
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(AlertsTable()).ok());
  }
  for (int r = 0; r < n; ++r) {
    Tuple t{Value::Int64(r), Value::String("descr-" + std::to_string(r)),
            Value::Int64(r * 10)};
    ASSERT_TRUE(net.node(static_cast<size_t>(r) % net.size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }
  net.RunFor(Seconds(5));
}

QueryPlan ScanPlan() {
  QueryPlan plan;
  AddScan(&plan.graph, "alerts", AlertsTable().schema);
  AppendTail(&plan.graph, nullptr, ProjectNode({}));
  return plan;
}

std::multiset<int64_t> RuleIds(const std::vector<ResultBatch>& batches) {
  std::multiset<int64_t> out;
  for (const ResultBatch& b : batches) {
    for (const Tuple& t : b.rows) out.insert(t[0].int64_value());
  }
  return out;
}

EngineStats SumStats(PierNetwork& net) {
  EngineStats sum{};
  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& s = net.node(i)->query_engine()->stats();
    sum.scans_run += s.scans_run;
    sum.store_sweeps += s.store_sweeps;
    sum.shared_scan_hits += s.shared_scan_hits;
    sum.sched_rounds += s.sched_rounds;
    sum.budget_trips += s.budget_trips;
    sum.budget_frames_dropped += s.budget_frames_dropped;
    sum.plans_shed += s.plans_shed;
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Shared scans: A/B against a solo run
// ---------------------------------------------------------------------------

TEST(SchedulerTest, SharedScanAnswersIdenticalToSoloScan) {
  auto build = [] {
    PierNetworkOptions o;
    o.seed = 91;
    o.node.router_kind = RouterKind::kOneHop;
    o.node.engine.result_wait = Seconds(5);
    return o;
  };

  // A: one query alone — the baseline answer.
  std::multiset<int64_t> solo;
  {
    PierNetwork net(6, build());
    net.Boot(Seconds(5));
    PublishAlerts(net, 60);
    std::vector<ResultBatch> batches;
    ASSERT_TRUE(net.node(0)
                    ->query_engine()
                    ->Execute(ScanPlan(),
                              [&](const ResultBatch& b) {
                                batches.push_back(b);
                              })
                    .ok());
    net.RunFor(Seconds(10));
    solo = RuleIds(batches);
    ASSERT_EQ(solo.size(), 60u);
  }

  // B: two simultaneous queries over the same table. Members receive both
  // plans inside the shared-scan window, so the second scan must attach to
  // the first's materialized sweep — and both answers must still be
  // byte-identical to the solo baseline.
  PierNetwork net(6, build());
  net.Boot(Seconds(5));
  PublishAlerts(net, 60);
  std::vector<ResultBatch> b1, b2;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(ScanPlan(),
                            [&](const ResultBatch& b) { b1.push_back(b); })
                  .ok());
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(ScanPlan(),
                            [&](const ResultBatch& b) { b2.push_back(b); })
                  .ok());
  net.RunFor(Seconds(10));

  EXPECT_EQ(RuleIds(b1), solo);
  EXPECT_EQ(RuleIds(b2), solo);
  EngineStats sum = SumStats(net);
  EXPECT_GT(sum.shared_scan_hits, 0u);
  // Strictly fewer store walks than scans served — the point of sharing.
  EXPECT_LT(sum.store_sweeps, sum.scans_run);
  EXPECT_EQ(sum.store_sweeps + sum.shared_scan_hits, sum.scans_run);
}

// ---------------------------------------------------------------------------
// Quantum rotation (QueryScheduler driven directly)
// ---------------------------------------------------------------------------

TEST(SchedulerTest, QuantumRotationInterleavesConcurrentScans) {
  PierNetworkOptions o;
  o.seed = 92;
  o.node.router_kind = RouterKind::kOneHop;
  PierNetwork net(1, o);
  net.Boot(Seconds(2));
  PublishAlerts(net, 100);

  // A private scheduler over the node's store: quantum of 10 rows, batches
  // of 10, so a 100-row sweep takes 10 rounds per consumer.
  EngineStats stats;
  QueryScheduler::Options opts;
  opts.quantum_rows = 10;
  opts.batch_rows = 10;
  opts.round_interval = Millis(5);
  sim::Simulation* sim = net.sim();
  QueryScheduler sched(
      sim, net.node(0)->dht(), &stats,
      [sim](Duration delay, std::function<void()> fn) {
        return sim->ScheduleAfter(delay, std::move(fn));
      },
      opts);

  struct Trace {
    std::vector<TimePoint> feeds;
    TimePoint done_at = 0;
  };
  Trace a, b;
  auto work = [&](uint64_t qid, Trace* t) {
    ScanWork w;
    w.qid = qid;
    w.epoch = 0;
    w.table = "alerts";
    w.schema = AlertsTable().schema;
    w.feed = [&, t](exec::RowBatch&) {
      t->feeds.push_back(sim->now());
      return true;
    };
    w.done = [&, t](bool complete) {
      EXPECT_TRUE(complete);
      t->done_at = sim->now();
    };
    return w;
  };
  sched.Submit(work(1, &a));
  sched.Submit(work(2, &b));
  net.RunFor(Seconds(2));

  ASSERT_EQ(a.feeds.size(), 10u);
  ASSERT_EQ(b.feeds.size(), 10u);
  // Round-robin, not FIFO: the second tenant's first quantum is served long
  // before the first tenant's scan completes, and both finish in the same
  // round rather than back-to-back.
  EXPECT_LT(b.feeds.front(), a.feeds.back());
  EXPECT_EQ(a.done_at, b.done_at);
  EXPECT_GE(stats.sched_rounds, 10u);
  // The second scan attached to the first's sweep: one store walk total.
  EXPECT_EQ(stats.store_sweeps, 1u);
  EXPECT_EQ(stats.shared_scan_hits, 1u);
}

// ---------------------------------------------------------------------------
// Budgets surface in Completeness
// ---------------------------------------------------------------------------

TEST(SchedulerTest, BudgetTripSurfacesInCompleteness) {
  PierNetworkOptions o;
  o.seed = 93;
  o.node.router_kind = RouterKind::kOneHop;
  o.node.engine.result_wait = Seconds(5);
  PierNetwork net(6, o);
  net.Boot(Seconds(5));
  PublishAlerts(net, 60);

  QueryPlan plan = ScanPlan();
  // Far below one member's result volume: members trip while shipping and
  // must say so instead of silently sending a prefix.
  plan.budget.max_result_bytes = 64;

  std::vector<ResultBatch> batches;
  ASSERT_TRUE(net.node(0)
                  ->query_engine()
                  ->Execute(plan,
                            [&](const ResultBatch& b) {
                              batches.push_back(b);
                            })
                  .ok());
  net.RunFor(Seconds(10));

  // The answer still arrives (degrade loudly, never wedge) ...
  ASSERT_EQ(batches.size(), 1u);
  const Completeness& c = batches[0].completeness;
  // ... flagged: trips counted, exactness barred.
  EXPECT_GT(c.budget_trips, 0u);
  EXPECT_FALSE(c.exact);
  EngineStats sum = SumStats(net);
  EXPECT_GT(sum.budget_trips, 0u);
  EXPECT_GT(sum.budget_frames_dropped, 0u);
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

// Satellite bugfix check: a member shedding (kAdmissionReject) must bar the
// exact certification even when the reject races the certification path —
// delay spikes on the member->origin direction push rejects after the cover
// wave and epoch reports. CompletenessChecker fails the run if any batch
// claims exact while the oracle sees missing rows.
TEST(SchedulerScenarioTest, ShedAfterCoverWaveBarsExactness) {
  testkit::Scenario s(/*seed=*/9301);
  testkit::FaultScript script;
  testkit::FaultDirective spike;
  spike.kind = testkit::FaultDirective::Kind::kDelaySpike;
  spike.from = Seconds(20);
  spike.until = Seconds(120);
  spike.group_a = {3, 4, 5};
  spike.group_b = {0};
  spike.magnitude = Millis(400);
  script.directives.push_back(spike);

  s.WithNodes(6)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(AlertsTable())
      .PublishRows("alerts",
                   [] {
                     std::vector<Tuple> rows;
                     for (int i = 0; i < 48; ++i) {
                       rows.push_back(Tuple{Value::Int64(i),
                                            Value::String("d"),
                                            Value::Int64(i)});
                     }
                     return rows;
                   }())
      .WithFaults(script)
      .WithDefaultCheckers()
      .WithChecker(std::make_unique<testkit::ExchangeHygieneChecker>());
  // Tiny per-node admission budget: concurrent queries force members to
  // shed some of them mid-flight.
  s.options().node.engine.max_live_queries = 2;
  // All four issue at the same virtual instant from DIFFERENT origins:
  // each origin admits its own query before any rival plan arrives, then
  // every node receives four plans against a budget of two and must shed.
  for (int q = 0; q < 4; ++q) {
    s.AddQuery({.sql = "SELECT rule_id, hits FROM alerts",
                .issue_at = Seconds(40),
                .origin = static_cast<size_t>(q),
                .wait = Seconds(20)});
  }

  testkit::ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.queries.size(), 4u);
  uint64_t shed_total = 0;
  for (const testkit::QueryOutcome& q : report.queries) {
    ASSERT_TRUE(q.completed) << q.sql;
    shed_total += q.batch.completeness.members_shed;
    if (q.batch.completeness.members_shed > 0) {
      EXPECT_FALSE(q.batch.completeness.exact)
          << "exact certified despite shed members: "
          << q.batch.completeness.ToString();
    }
  }
  EXPECT_GT(shed_total, 0u) << "admission pressure never caused a shed";
}

// The storm scenario: 32 concurrent mixed queries ride through a partition
// and heal, every answer meeting its oracle floor, with the reliable-plane
// accounting audit (Rule 0 of ExchangeHygieneChecker) run at teardown.
TEST(SchedulerScenarioTest, ConcurrentStormThroughPartitionAndHeal) {
  testkit::Scenario s(/*seed=*/9302);
  testkit::FaultScript script;
  testkit::FaultDirective part;
  part.kind = testkit::FaultDirective::Kind::kPartition;
  part.from = Seconds(75);
  part.until = Seconds(135);
  part.group_a = {1, 2, 3};
  part.group_b = {0, 4, 5, 6, 7, 8, 9};
  script.directives.push_back(part);

  s.WithNodes(10)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .PublishRows("alerts",
                   [] {
                     std::vector<Tuple> rows;
                     for (int i = 0; i < 80; ++i) {
                       rows.push_back(Tuple{Value::Int64(i),
                                            Value::String("d"),
                                            Value::Int64(i % 7)});
                     }
                     return rows;
                   }())
      .WithFaults(script)
      .WithHealSettle(Seconds(45))
      .WithDefaultCheckers()
      .WithChecker(std::make_unique<testkit::ExchangeHygieneChecker>());
  // 16 queries issued mid-partition (low floor: the origin's side of the
  // cut may hold a minority of rows) + 16 after the heal (high floor).
  for (int q = 0; q < 16; ++q) {
    s.AddQuery({.sql = "SELECT rule_id, hits FROM alerts",
                .issue_at = Seconds(90) + Millis(q * 100),
                .origin = static_cast<size_t>(q % 10),
                .wait = Seconds(30),
                .min_recall = 0.1});
  }
  for (int q = 0; q < 16; ++q) {
    s.AddQuery({.sql = "SELECT rule_id, hits FROM alerts",
                .issue_at = Seconds(200) + Millis(q * 100),
                .origin = static_cast<size_t>(q % 10),
                .wait = Seconds(30),
                .min_recall = 0.9});
  }

  testkit::ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_faulted, 0u);
  ASSERT_EQ(report.queries.size(), 32u);
  for (const testkit::QueryOutcome& q : report.queries) {
    EXPECT_TRUE(q.completed) << q.sql;
  }
}

}  // namespace
}  // namespace query
}  // namespace pier
