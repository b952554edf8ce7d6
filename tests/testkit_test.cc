// Tests for the fault-injection testkit: the FaultPlane fault model, the
// answer oracle, and the scripted Scenario suite — including the
// heal-after-partition and asymmetric-link acceptance scenarios, each
// asserting the four core invariants (routing convergence, soft-state
// expiry, payload-leak freedom, oracle answer floors).
//
// Every scenario is seeded and prints its seed + fault script on failure,
// so any red run is replayable bit-for-bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <vector>

#include "sim/fault_plane.h"
#include "sim/network.h"
#include "testkit/scenario.h"

namespace pier {
namespace testkit {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::RouterKind;

// ---------------------------------------------------------------------------
// FaultPlane unit tests (raw sim::Network, no PIER stack)
// ---------------------------------------------------------------------------

class CountingHandler : public sim::MessageHandler {
 public:
  void OnMessage(sim::HostId, const sim::Packet&) override { ++received; }
  int received = 0;
};

TEST(FaultPlaneTest, PartitionDropsInsideWindowOnly) {
  sim::Simulation sim(7);
  sim::Network net(&sim, sim::NetworkOptions{});
  sim::FaultPlane plane(sim.rng().Fork(1));
  net.SetFaultPlane(&plane);
  CountingHandler a, b;
  sim::HostId ha = net.AddHost(&a);
  sim::HostId hb = net.AddHost(&b);
  plane.Partition({ha}, {hb}, Seconds(10), Seconds(20));

  ASSERT_TRUE(net.Send(ha, hb, "before").ok());  // t=0: clean
  sim.RunUntil(Seconds(15));
  ASSERT_TRUE(net.Send(ha, hb, "during").ok());  // t=15: partitioned
  ASSERT_TRUE(net.Send(hb, ha, "reverse").ok());  // bidirectional: dropped
  sim.RunUntil(Seconds(25));
  ASSERT_TRUE(net.Send(ha, hb, "after").ok());  // t=25: healed
  sim.RunAll();

  EXPECT_EQ(b.received, 2);  // "before" and "after"
  EXPECT_EQ(a.received, 0);
  EXPECT_EQ(net.stats().messages_faulted, 2u);
  EXPECT_EQ(plane.packets_dropped(), 2u);
}

TEST(FaultPlaneTest, AsymmetricPartitionIsOneWay) {
  sim::Simulation sim(8);
  sim::Network net(&sim, sim::NetworkOptions{});
  sim::FaultPlane plane(sim.rng().Fork(1));
  net.SetFaultPlane(&plane);
  CountingHandler a, b;
  sim::HostId ha = net.AddHost(&a);
  sim::HostId hb = net.AddHost(&b);
  plane.Partition({ha}, {hb}, 0, Seconds(100), /*bidirectional=*/false);

  ASSERT_TRUE(net.Send(ha, hb, "a-to-b").ok());  // blackholed
  ASSERT_TRUE(net.Send(hb, ha, "b-to-a").ok());  // flows
  sim.RunAll();
  EXPECT_EQ(b.received, 0);
  EXPECT_EQ(a.received, 1);
}

TEST(FaultPlaneTest, DuplicationDeliversExtraCopy) {
  sim::Simulation sim(9);
  sim::Network net(&sim, sim::NetworkOptions{});
  sim::FaultPlane plane(sim.rng().Fork(1));
  net.SetFaultPlane(&plane);
  CountingHandler a, b;
  sim::HostId ha = net.AddHost(&a);
  sim::HostId hb = net.AddHost(&b);
  plane.Duplicate({ha}, {hb}, /*p=*/1.0, 0, Seconds(100));
  ASSERT_TRUE(net.Send(ha, hb, "dup").ok());
  sim.RunAll();
  EXPECT_EQ(b.received, 2);
  EXPECT_EQ(net.stats().messages_duplicated, 1u);
}

TEST(FaultPlaneTest, DelaySpikeDefersDelivery) {
  sim::NetworkOptions nopts;
  nopts.jitter = 0;
  sim::Simulation sim(10);
  sim::Network net(&sim, nopts);
  sim::FaultPlane plane(sim.rng().Fork(1));
  net.SetFaultPlane(&plane);
  CountingHandler b;
  sim::HostId ha = net.AddHost(nullptr);
  sim::HostId hb = net.AddHost(&b);
  plane.DelaySpike({ha}, {hb}, Seconds(3), 0, Seconds(100));
  ASSERT_TRUE(net.Send(ha, hb, "slow").ok());
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(b.received, 0);  // base latency is <100ms; the spike holds it
  sim.RunAll();
  EXPECT_EQ(b.received, 1);
  EXPECT_GE(sim.now(), Seconds(3));
}

TEST(FaultPlaneTest, ReorderWindowCanInvertCloseSends) {
  // With a 500ms reorder window two back-to-back sends on one link can
  // arrive inverted; over many pairs, at least one inversion must occur
  // (and with the window off, none may).
  for (bool reorder : {false, true}) {
    sim::NetworkOptions nopts;
    nopts.jitter = 0;
    sim::Simulation sim(11);
    sim::Network net(&sim, nopts);
    sim::FaultPlane plane(sim.rng().Fork(1));
    net.SetFaultPlane(&plane);
    struct SeqHandler : sim::MessageHandler {
      std::vector<std::string> got;
      void OnMessage(sim::HostId, const sim::Packet& p) override {
        got.push_back(p.Flatten());
      }
    } b;
    sim::HostId ha = net.AddHost(nullptr);
    sim::HostId hb = net.AddHost(&b);
    if (reorder) plane.Reorder({ha}, {hb}, Millis(500), 0, Seconds(1000));
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(net.Send(ha, hb, "m" + std::to_string(2 * i)).ok());
      ASSERT_TRUE(net.Send(ha, hb, "m" + std::to_string(2 * i + 1)).ok());
      sim.RunFor(Seconds(2));  // separate the pairs
    }
    sim.RunAll();
    ASSERT_EQ(b.got.size(), 100u);
    int inversions = 0;
    for (int i = 0; i < 50; ++i) {
      if (b.got[2 * i] != "m" + std::to_string(2 * i)) ++inversions;
    }
    if (reorder) {
      EXPECT_GT(inversions, 0) << "reorder window never inverted a pair";
    } else {
      EXPECT_EQ(inversions, 0) << "same-link FIFO must hold without faults";
    }
  }
}

TEST(FaultPlaneTest, DroppedPacketsDoNotChargeDuplicateBudget) {
  // A loss rule and a duplication rule on the same link: packets eaten by
  // the loss draw yield no copies and must not drain the duplication
  // budget either, or scripted duplication silently dies mid-window.
  sim::Simulation sim(13);
  sim::FaultPlane plane(sim.rng().Fork(1));
  plane.Loss({1}, {2}, /*p=*/1.0, 0, Seconds(50));
  sim::FaultRule dup;
  dup.until = Seconds(100);
  dup.duplicate_prob = 1.0;
  dup.duplicate_budget = 3;
  plane.AddRule(dup);
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(plane.Judge(Seconds(1), 1, 2).drop);
  }
  EXPECT_EQ(plane.packets_duplicated(), 0u);
  // After the loss window the full budget is still available: exactly 3
  // more duplicates, then the rule runs dry.
  int dups = 0;
  for (int i = 0; i < 10; ++i) {
    dups += plane.Judge(Seconds(60), 1, 2).duplicates;
  }
  EXPECT_EQ(dups, 3);
  EXPECT_EQ(plane.packets_duplicated(), 3u);
}

TEST(FaultPlaneTest, RulesCombineAndRemove) {
  sim::Simulation sim(12);
  sim::FaultPlane plane(sim.rng().Fork(1));
  sim::FaultRuleId loss = plane.Loss({1}, {2}, 1.0, 0, Seconds(10));
  plane.DelaySpike({1}, {2}, Seconds(1), 0, Seconds(10));
  EXPECT_EQ(plane.rule_count(), 2u);
  EXPECT_TRUE(plane.Judge(Seconds(1), 1, 2).drop);
  plane.RemoveRule(loss);
  sim::FaultVerdict v = plane.Judge(Seconds(1), 1, 2);
  EXPECT_FALSE(v.drop);
  EXPECT_EQ(v.extra_delay, Seconds(1));
  EXPECT_FALSE(plane.QuietAfter(Seconds(5)));
  EXPECT_TRUE(plane.QuietAfter(Seconds(10)));
}

// ---------------------------------------------------------------------------
// Fault scripts
// ---------------------------------------------------------------------------

TEST(FaultScriptTest, SampleIsDeterministicAndPrintable) {
  Rng rng1(99), rng2(99);
  FaultScript a = FaultScript::Sample(&rng1, 10, Seconds(60), Seconds(200));
  FaultScript b = FaultScript::Sample(&rng2, 10, Seconds(60), Seconds(200));
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_FALSE(a.empty());
  EXPECT_LE(a.HealTime(), Seconds(200));
  // Host 0 is never inside the isolated minority group.
  for (const FaultDirective& d : a.directives) {
    for (sim::HostId h : d.group_a) EXPECT_NE(h, 0u);
  }
  // Minimization drops exactly one directive.
  if (a.size() > 1) {
    EXPECT_EQ(a.Without(0).size(), a.size() - 1);
  }
}

// ---------------------------------------------------------------------------
// Oracle scoring
// ---------------------------------------------------------------------------

TEST(OracleScoreTest, MultisetRecallPrecision) {
  auto row = [](int64_t v) { return Tuple{Value::Int64(v)}; };
  std::vector<Tuple> oracle = {row(1), row(2), row(2), row(3)};
  std::vector<Tuple> answer = {row(1), row(2), row(7)};
  OracleScore s = ScoreAnswer(oracle, answer);
  EXPECT_EQ(s.matched, 2u);
  EXPECT_DOUBLE_EQ(s.recall, 0.5);
  EXPECT_DOUBLE_EQ(s.precision, 2.0 / 3.0);

  EXPECT_DOUBLE_EQ(ScoreAnswer({}, {}).recall, 1.0);
  EXPECT_DOUBLE_EQ(ScoreAnswer({}, answer).precision, 0.0);
  EXPECT_DOUBLE_EQ(ScoreAnswer(oracle, {}).recall, 0.0);
  EXPECT_DOUBLE_EQ(ScoreAnswer(oracle, {}).precision, 1.0);
}

// An `exact` claim is a lie in either direction: a duplicated row leaves
// recall at 1, and only precision shows it.
TEST(CompletenessCheckerTest, RejectsExactClaimWithDuplicateRow) {
  auto row = [](int64_t v) { return Tuple{Value::Int64(v)}; };
  std::vector<QueryOutcome> queries(1);
  QueryOutcome& q = queries[0];
  q.sql = "SELECT v FROM t";
  q.completed = true;
  q.oracle_ok = true;
  q.oracle_rows = {row(1), row(2)};
  q.batch.rows = {row(1), row(2), row(2)};
  q.batch.completeness.exact = true;
  q.score = ScoreAnswer(q.oracle_rows, q.batch.rows);
  ASSERT_DOUBLE_EQ(q.score.recall, 1.0);
  CheckContext ctx;
  ctx.queries = &queries;
  CompletenessChecker checker;
  EXPECT_FALSE(checker.Check(ctx).ok());
  // The same answer declared degraded is honest.
  q.batch.completeness.exact = false;
  EXPECT_TRUE(checker.Check(ctx).ok());
}

// ---------------------------------------------------------------------------
// Scripted scenarios
// ---------------------------------------------------------------------------

TableDef AlertsTable(Duration ttl = Seconds(600)) {
  TableDef def;
  def.name = "alerts";
  def.schema = Schema("alerts", {{"rule_id", ValueType::kInt64},
                                 {"hits", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = ttl;
  return def;
}

std::vector<Tuple> AlertRows(int n) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Tuple{Value::Int64(1 + (i % 4)), Value::Int64(10 + i)});
  }
  return rows;
}

constexpr char kSumSql[] =
    "SELECT rule_id, SUM(hits) AS total, COUNT(*) AS n FROM alerts "
    "GROUP BY rule_id";
constexpr char kScanSql[] = "SELECT rule_id, hits FROM alerts";

// The headline acceptance scenario: a Chord ring suffers a full
// bidirectional partition, heals, and must (1) re-merge into one converged
// ring, (2) answer a post-heal query at high recall, (3) hold the
// soft-state and payload invariants throughout.
TEST(ScenarioTest, HealAfterPartitionConverges) {
  Scenario s(/*seed=*/4201);
  FaultScript script;
  FaultDirective part;
  part.kind = FaultDirective::Kind::kPartition;
  part.from = Seconds(75);
  part.until = Seconds(135);
  part.group_a = {1, 2, 3};
  part.group_b = {0, 4, 5, 6, 7, 8, 9};
  script.directives.push_back(part);

  s.WithNodes(10)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .PublishRows("alerts", AlertRows(40))
      .WithFaults(script)
      .AddQuery({.sql = kSumSql,
                 .issue_at = Seconds(190),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 0.9,
                 .min_precision = 0.9})
      .WithHealSettle(Seconds(45))
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.queries.size(), 1u);
  EXPECT_TRUE(report.queries[0].completed) << report.ToString();
  // The partition must have really cut traffic, and the heal must have gone
  // through the rejoin path (not "nothing ever happened").
  EXPECT_GT(report.messages_faulted, 0u);
  EXPECT_GT(report.rejoin_merges, 0u);
  // Result provenance: the batch names its reporters (sorted, deduped) —
  // what the oracle scoring keys off when attributing degraded answers.
  const query::ResultBatch& batch = report.queries[0].batch;
  EXPECT_EQ(batch.reporters.size(), batch.reporting_nodes);
  EXPECT_TRUE(std::is_sorted(batch.reporters.begin(), batch.reporters.end()));
  for (uint32_t host : batch.reporters) {
    EXPECT_LT(host, 10u) << "reporter outside the deployment";
  }
}

// Asymmetric-link acceptance scenario: one node can receive but not send
// through the cut (requests reach it, replies vanish) — the pathological
// case for failure detectors. The ring must still converge after the heal.
TEST(ScenarioTest, AsymmetricLinkHealsAndConverges) {
  Scenario s(/*seed=*/4203);
  FaultScript script;
  FaultDirective cut;
  cut.kind = FaultDirective::Kind::kAsymPartition;
  cut.from = Seconds(75);
  cut.until = Seconds(120);
  cut.group_a = {2};
  cut.group_b = {0, 1, 3, 4, 5, 6, 7};
  script.directives.push_back(cut);

  s.WithNodes(8)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .PublishRows("alerts", AlertRows(32))
      .WithFaults(script)
      .AddQuery({.sql = kSumSql,
                 .issue_at = Seconds(170),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 0.9,
                 .min_precision = 0.9})
      .WithHealSettle(Seconds(45))
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_faulted, 0u);
}

// An interior tree node dies with its subtree's partials on their way to
// it: after the plan reached it and its cover went up (so the origin
// expects its whole subtree), before it flushed. Its children's frames die
// with it, its parent's count never completes and falls back to the hold,
// and the root's contributor total comes up short. The answer must say so
// — members_reported < members_expected — and must not claim exact.
TEST(ScenarioTest, InteriorTreeNodeCrashBeforeFlushIsNotExact) {
  constexpr size_t kNodes = 16;
  constexpr TimePoint kIssue = Seconds(100);
  // Polled every millisecond from the issue on: the first non-origin node
  // that forwarded the plan, heard every child's cover (so it sent its
  // own) and has not sent a partial yet is the victim.
  struct Probe {
    std::vector<uint64_t> forwarded, covers, partials;
    int victim = -1;
    int polls = 0;
  } probe;
  std::function<void(core::PierNetwork&)> poll =
      [&probe, &poll](core::PierNetwork& net) {
        for (size_t i = 1; i < net.size() && probe.victim < 0; ++i) {
          core::PierNode* node = net.node(i);
          if (!node->alive()) continue;
          const dht::BroadcastStats& b = node->broadcast()->stats();
          uint64_t forwarded = b.forwarded - probe.forwarded[i];
          uint64_t covers = b.covers_received - probe.covers[i];
          uint64_t sent = node->query_engine()->stats().partial_msgs_sent -
                          probe.partials[i];
          if (forwarded > 0 && covers == forwarded && sent == 0) {
            probe.victim = static_cast<int>(i);
            node->Crash();
          }
        }
        if (probe.victim < 0 && ++probe.polls < 2000) {
          net.sim()->ScheduleAfter(Millis(1), [&net, &poll] { poll(net); });
        }
      };
  // Thousands of rows per node keep every scan busy for several scheduler
  // rounds, so a relay's cover goes up while its children's partials are
  // still being scanned.
  std::vector<Tuple> rows;
  for (int i = 0; i < 48000; ++i) {
    rows.push_back(Tuple{Value::Int64(i % 512), Value::Int64(i % 97)});
  }
  Scenario s(/*seed=*/4229);
  s.WithNodes(kNodes)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .PublishRows("alerts", std::move(rows))
      .AddQuery({.sql = kSumSql, .issue_at = kIssue, .origin = 0})
      // Runs just before the query goes out at the same instant.
      .At(kIssue,
          [&probe, &poll](core::PierNetwork& net) {
            for (size_t i = 0; i < net.size(); ++i) {
              core::PierNode* node = net.node(i);
              probe.forwarded.push_back(node->broadcast()->stats().forwarded);
              probe.covers.push_back(
                  node->broadcast()->stats().covers_received);
              probe.partials.push_back(
                  node->query_engine()->stats().partial_msgs_sent);
            }
            poll(net);
          })
      .WithHealSettle(Seconds(60))
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_GE(probe.victim, 1) << "no interior node was caught before its flush";
  ASSERT_EQ(report.queries.size(), 1u);
  ASSERT_TRUE(report.queries[0].completed) << report.ToString();
  const query::Completeness& c = report.queries[0].batch.completeness;
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_TRUE(c.coverage_complete) << c.ToString();
  EXPECT_EQ(c.members_expected, kNodes) << c.ToString();
  EXPECT_LT(c.members_reported, c.members_expected) << c.ToString();
}

// The alerts table keyed by `hits`, which is distinct per AlertRows row: the
// rows hash one per key around the ring, so every node owns some.
TableDef SpreadAlertsTable() {
  TableDef def = AlertsTable();
  def.partition_cols = {1};
  return def;
}

// Walks `hops` successor pointers from node `from`; returns the node index
// (PierNetwork host ids equal indices).
size_t RingWalk(core::PierNetwork& net, size_t from, int hops) {
  for (int i = 0; i < hops; ++i) {
    from = net.node(from)->chord()->successor().host;
  }
  return from;
}

// A one-way cut silences a node toward its ring predecessor, which suspects
// it and drops it from its neighbours. The predecessor is the only relay
// that could forward the plan to it, so the broadcast skips it: the cover
// wave comes back complete over every other node, and the root's
// contributor total matches that count although the skipped node's rows are
// missing. The relay knows it suspects a node in the gap it vouches for, so
// its cover goes up unvouched and the origin must not certify the answer.
TEST(ScenarioTest, NodeSkippedByASuspectingRelayIsNotCertified) {
  constexpr size_t kNodes = 32;
  constexpr TimePoint kIssue = Seconds(100);
  size_t relay = 0, skipped = 0;
  bool suspected = false;
  Scenario s(/*seed=*/4231);
  s.WithNodes(kNodes)
      .WithRouter(RouterKind::kChord)
      .WithTable(SpreadAlertsTable())
      .PublishRows("alerts", AlertRows(320))
      .AddQuery({.sql = kSumSql, .issue_at = kIssue, .origin = 0})
      .At(kIssue - Seconds(4),
          [&](core::PierNetwork& net) {
            // The first relay 8 or more hops past the origin (so the origin's
            // own neighbourhood stays settled) whose successor no node holds
            // as a finger: nothing but the relay would forward to it.
            for (int hop = 8; hop < 24 && relay == 0; ++hop) {
              const size_t r = RingWalk(net, 0, hop);
              const size_t n = RingWalk(net, r, 1);
              bool fingered = false;
              for (size_t i = 0; i < net.size(); ++i) {
                for (const overlay::NodeInfo& f :
                     net.node(i)->chord()->FingerEntries()) {
                  fingered = fingered || (i != r && f.host == n);
                }
              }
              if (!fingered) {
                relay = r;
                skipped = n;
              }
            }
            if (relay == 0) return;
            net.net()->fault_plane()->Partition(
                {sim::HostId(skipped)}, {sim::HostId(relay)},
                net.sim()->now(), kIssue + Seconds(12),
                /*bidirectional=*/false);
          })
      .At(kIssue,
          [&](core::PierNetwork& net) {
            suspected = relay != 0 &&
                        net.node(relay)->chord()->suspect_count() > 0;
          })
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  ASSERT_NE(relay, 0u) << "every candidate's successor is someone's finger";
  EXPECT_TRUE(suspected) << "the relay did not suspect its successor";
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_faulted, 0u);
  ASSERT_EQ(report.queries.size(), 1u);
  ASSERT_TRUE(report.queries[0].completed) << report.ToString();
  const query::Completeness& c = report.queries[0].batch.completeness;
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_FALSE(c.coverage_complete) << c.ToString();
  EXPECT_EQ(c.members_expected, kNodes - 1) << c.ToString();
}

// Scan-side failover must not certify. A one-way cut silences an owner
// toward its successor, which suspects it, unsets its predecessor and so
// claims the owner's keys: its scans read the owner's replicas, while the
// owner, alive and reached through another relay, scans the same rows. The
// plan reaches the successor straight from the origin (it is the origin's
// farthest finger), so the cover wave reaches every node and every node
// counts once, but the SUM counts the owner's rows twice, and a plain scan
// returns them twice. The successor's scans read replicas, so its covers go
// up unvouched: the origin's waves are incomplete and neither answer is
// exact.
TEST(ScenarioTest, FailedOverScanIsNotCertified) {
  constexpr size_t kNodes = 32;
  constexpr TimePoint kIssue = Seconds(100);
  size_t owner = 0, successor = 0;
  bool pred_unset = false;
  Scenario s(/*seed=*/4233);
  s.WithNodes(kNodes)
      .WithRouter(RouterKind::kChord)
      .WithTable(SpreadAlertsTable())
      .PublishRows("alerts", AlertRows(320))
      .AddQuery({.sql = kSumSql, .issue_at = kIssue, .origin = 0})
      .AddQuery({.sql = kScanSql, .issue_at = kIssue, .origin = 0})
      .At(kIssue - Seconds(6),
          [&](core::PierNetwork& net) {
            successor = net.node(0)->chord()->FingerEntries().back().host;
            for (size_t i = 1; i < net.size(); ++i) {
              if (RingWalk(net, i, 1) == successor) owner = i;
            }
            if (owner == 0) return;
            net.net()->fault_plane()->Partition(
                {sim::HostId(owner)}, {sim::HostId(successor)},
                net.sim()->now(), kIssue + Seconds(12),
                /*bidirectional=*/false);
          })
      .At(kIssue,
          [&](core::PierNetwork& net) {
            pred_unset = owner != 0 &&
                         !net.node(successor)->chord()->predecessor();
          })
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  ASSERT_NE(owner, 0u) << "the origin's farthest finger follows the origin";
  EXPECT_TRUE(pred_unset) << "the successor still had a predecessor";
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_faulted, 0u);
  ASSERT_EQ(report.queries.size(), 2u);
  const QueryOutcome& sum = report.queries[0];
  ASSERT_TRUE(sum.completed) << report.ToString();
  const query::Completeness& c = sum.batch.completeness;
  EXPECT_LT(sum.score.recall, 1.0) << "no row was read twice";
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_FALSE(c.coverage_complete) << c.ToString();
  EXPECT_EQ(c.members_expected, kNodes) << c.ToString();
  EXPECT_EQ(c.members_reported, kNodes) << c.ToString();
  // Extra rows leave recall at 1, so only the claim itself shows the scan.
  const QueryOutcome& scan = report.queries[1];
  ASSERT_TRUE(scan.completed) << report.ToString();
  EXPECT_LT(scan.score.precision, 1.0) << "no row was read twice";
  EXPECT_FALSE(scan.batch.completeness.exact)
      << scan.batch.completeness.ToString();
}

// Sustained random loss on every link. Before the reliable result plane
// this scenario asserted a 0.5 recall *floor*; with acked, retried frames
// and coverage-certified finalization the same adversity now demands the
// exact answer — and the origin must know it is exact (completeness
// certification), not merely get lucky.
TEST(ScenarioTest, LossyLinksStillMeetRecallFloor) {
  Scenario s(/*seed=*/4205);
  FaultScript script;
  FaultDirective loss;
  loss.kind = FaultDirective::Kind::kLoss;
  loss.from = 0;
  loss.until = Seconds(200);
  loss.probability = 0.2;
  script.directives.push_back(loss);  // empty groups = every link

  s.WithNodes(8)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(AlertsTable())
      .PublishRows("alerts", AlertRows(48))
      .WithFaults(script)
      .AddQuery({.sql = kScanSql,
                 .issue_at = Seconds(60),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 1.0,
                 .min_precision = 1.0})
      .WithHealSettle(Seconds(20))
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  // Loss must actually have been injected, or the floor proves nothing.
  EXPECT_GT(report.messages_faulted, 0u);
  ASSERT_EQ(report.queries.size(), 1u);
  // The answer is not just complete — the origin certified it so, which
  // means frames really were retried through the loss window.
  const QueryOutcome& q = report.queries[0];
  ASSERT_TRUE(q.completed);
  EXPECT_TRUE(q.batch.completeness.exact) << q.batch.completeness.ToString();
  EXPECT_TRUE(q.batch.completeness.coverage_complete);
  EXPECT_EQ(q.batch.completeness.frames_lost, 0u);
  EXPECT_GT(q.batch.completeness.frames_retried, 0u);
}

// Message duplication during the publish phase must not inflate the store:
// puts are idempotent by (namespace, resource, instance), so the post-dup
// answer must match the oracle exactly.
TEST(ScenarioTest, DuplicatedPutsDoNotInflateAnswers) {
  Scenario s(/*seed=*/4207);
  FaultScript script;
  FaultDirective dup;
  dup.kind = FaultDirective::Kind::kDuplicate;
  dup.from = 0;
  dup.until = Seconds(55);
  dup.probability = 0.6;
  script.directives.push_back(dup);

  s.WithNodes(6)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(AlertsTable())
      .PublishRows("alerts", AlertRows(30))
      .WithFaults(script)
      .AddQuery({.sql = kSumSql,
                 .issue_at = Seconds(70),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 1.0,
                 .min_precision = 1.0})
      .WithHealSettle(Seconds(15))
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_duplicated, 0u);
}

// A row whose projection errors reaches the answer with NULL in the failed
// column, in the oracle as on the engine. Publishing checks a row's width
// only, so a string can sit in an INT64 column; `v * 2` then errors on
// that row alone.
TEST(ScenarioTest, ProjectionErrorYieldsNullRowInOracleAndEngine) {
  TableDef t;
  t.name = "t";
  t.schema = Schema("t", {{"k", ValueType::kInt64}, {"v", ValueType::kInt64}});
  t.partition_cols = {0};
  std::vector<Tuple> rows;
  for (int64_t k : {1, 2, 3}) {
    rows.push_back(Tuple{Value::Int64(k), Value::Int64(10 * k)});
  }
  rows.push_back(Tuple{Value::Int64(4), Value::String("bad")});

  Scenario s(/*seed=*/4215);
  s.WithNodes(6)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(t)
      .PublishRows("t", rows)
      .AddQuery({.sql = "SELECT k, v * 2 FROM t",
                 .issue_at = Seconds(30),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 1.0,
                 .min_precision = 1.0})
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.queries.size(), 1u);
  const QueryOutcome& q = report.queries[0];
  ASSERT_TRUE(q.completed && q.oracle_ok) << report.ToString();
  EXPECT_EQ(q.batch.rows.size(), 4u);
  EXPECT_EQ(q.oracle_rows.size(), 4u);
  EXPECT_DOUBLE_EQ(q.score.precision, 1.0) << q.score.ToString();
  const Tuple want{Value::Int64(4), Value::Null()};
  auto has_null_row = [&want](const std::vector<Tuple>& got) {
    return std::any_of(got.begin(), got.end(), [&want](const Tuple& r) {
      return catalog::CompareTuples(r, want) == 0;
    });
  };
  EXPECT_TRUE(has_null_row(q.batch.rows));
  EXPECT_TRUE(has_null_row(q.oracle_rows));
}

// Delay spikes + reordering windows inside the fault window, query after
// the heal: answers must be unaffected once latencies normalize, and the
// Chord ring must never have destabilized (spikes stay under the RPC
// timeout).
TEST(ScenarioTest, DelaySpikesAndReorderHealClean) {
  Scenario s(/*seed=*/4209);
  FaultScript script;
  FaultDirective spike;
  spike.kind = FaultDirective::Kind::kDelaySpike;
  spike.from = Seconds(70);
  spike.until = Seconds(110);
  spike.magnitude = Millis(300);
  script.directives.push_back(spike);
  FaultDirective reorder;
  reorder.kind = FaultDirective::Kind::kReorder;
  reorder.from = Seconds(70);
  reorder.until = Seconds(110);
  reorder.magnitude = Millis(150);
  script.directives.push_back(reorder);

  s.WithNodes(8)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .PublishRows("alerts", AlertRows(32))
      .WithFaults(script)
      .AddQuery({.sql = kSumSql,
                 .issue_at = Seconds(120),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 0.95,
                 .min_precision = 0.95})
      .WithHealSettle(Seconds(30))
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
}

// Churn profile on a short-TTL table: crashed publishers stop renewing, so
// tuples must age out within TTL + sweep lag everywhere (the soft-state
// expiry invariant), and the run must stay leak-free.
TEST(ScenarioTest, ChurnHonorsSoftStateExpiry) {
  Scenario s(/*seed=*/4211);
  sim::ChurnOptions churn;
  churn.mean_session = Seconds(45);
  churn.mean_downtime = Seconds(15);
  churn.start_at = Seconds(40);
  churn.stop_at = Seconds(150);
  churn.stable_fraction = 0.3;

  s.WithNodes(10)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(AlertsTable(/*ttl=*/Seconds(60)))
      .PublishRows("alerts", AlertRows(40))
      .WithChurn(churn)
      .AddQuery({.sql = kScanSql,
                 .issue_at = Seconds(50),
                 .origin = 0,
                 .wait = 0,
                 .min_recall = 0.5,
                 .min_precision = 0.99})
      .WithHealSettle(Seconds(120))  // run well past every TTL
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.churn_transitions, 0u);
}

// Range queries through the PHT index under adversity. One asymmetric
// partition, two scored queries:
//   (a) DURING the cut: trie owners inside the minority are unreachable, so
//       the cursor fails and the engine falls back to a broadcast scan that
//       the minority cannot answer either — the answer must still meet a
//       recall floor against the oracle (which evaluates the range
//       predicate centrally over every alive node's readable slice);
//   (b) AFTER the heal: the re-issued range query must return the exact
//       oracle answer (recall = precision = 1.0).
TEST(ScenarioTest, RangeQuerySurvivesAsymmetricPartitionAndHealsExact) {
  Scenario s(/*seed=*/4215);
  FaultScript script;
  FaultDirective cut;
  cut.kind = FaultDirective::Kind::kAsymPartition;
  cut.from = Seconds(70);
  cut.until = Seconds(130);
  cut.group_a = {2, 5, 7};
  cut.group_b = {0, 1, 3, 4, 6, 8, 9};
  script.directives.push_back(cut);

  TableDef indexed = AlertsTable();
  indexed.indexes = {catalog::IndexDef{1, 4}};  // hits, small buckets

  s.WithNodes(10)
      .WithRouter(RouterKind::kChord)
      .WithTable(indexed)
      .PublishRows("alerts", AlertRows(40))
      .WithFaults(script)
      // (a) mid-partition: floors are modest — reachability bounds recall.
      .AddQuery({.sql = "SELECT rule_id, hits FROM alerts "
                        "WHERE hits BETWEEN 15 AND 35",
                 .issue_at = Seconds(85),
                 .origin = 0,
                 .wait = Seconds(35),
                 .min_recall = 0.4,
                 .min_precision = 0.9})
      // (b) post-heal: exact.
      .AddQuery({.sql = "SELECT rule_id, hits FROM alerts "
                        "WHERE hits BETWEEN 15 AND 35",
                 .issue_at = Seconds(185),
                 .origin = 0,
                 .wait = Seconds(30),
                 .min_recall = 1.0,
                 .min_precision = 1.0})
      .WithHealSettle(Seconds(45))
      .WithDefaultCheckers();
  s.options().node.engine.result_wait = Seconds(20);
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_faulted, 0u);
  ASSERT_EQ(report.queries.size(), 2u);
  EXPECT_TRUE(report.queries[0].completed) << report.ToString();
  EXPECT_TRUE(report.queries[1].completed) << report.ToString();
}

// The replay guarantee the whole testkit rests on: the same seed and script
// reproduce the exact same event trace and scores.
TEST(ScenarioTest, ReplayIsByteIdentical) {
  auto build = [] {
    Scenario s(/*seed=*/4213);
    FaultScript script;
    FaultDirective loss;
    loss.kind = FaultDirective::Kind::kLoss;
    loss.from = Seconds(10);
    loss.until = Seconds(60);
    loss.probability = 0.3;
    script.directives.push_back(loss);
    s.WithNodes(6)
        .WithRouter(RouterKind::kOneHop)
        .WithTable(AlertsTable())
        .PublishRows("alerts", AlertRows(24))
        .WithFaults(script)
        .AddQuery({.sql = kScanSql, .issue_at = Seconds(30), .origin = 0})
        .WithHealSettle(Seconds(10))
        .WithDefaultCheckers();
    return s.Run();
  };
  ScenarioReport first = build();
  ScenarioReport second = build();
  EXPECT_EQ(first.trace_digest, second.trace_digest)
      << "replay diverged:\n" << first.ToString() << second.ToString();
  ASSERT_EQ(first.queries.size(), second.queries.size());
  EXPECT_EQ(first.queries[0].score.matched, second.queries[0].score.matched);
  EXPECT_EQ(first.violations, second.violations);
}

// ---------------------------------------------------------------------------
// Query lifecycle: cancellation and origin death
// ---------------------------------------------------------------------------

TableDef RulesTable() {
  TableDef def;
  def.name = "rules";
  def.schema = Schema("rules", {{"rule_id", ValueType::kInt64},
                                {"severity", ValueType::kInt64}});
  // Partitioned on severity, NOT the join key: forces the planner onto the
  // symmetric-hash strategy, whose rehash exchanges are the per-query
  // namespaces these lifecycle scenarios must see torn down.
  def.partition_cols = {1};
  def.ttl = Seconds(600);
  return def;
}

std::vector<Tuple> RuleRows(int n) {
  std::vector<Tuple> rows;
  for (int i = 0; i < n; ++i) {
    rows.push_back(Tuple{Value::Int64(1 + i), Value::Int64(i % 3)});
  }
  return rows;
}

constexpr char kJoinSql[] =
    "SELECT a.hits, r.severity FROM alerts a, rules r "
    "WHERE a.rule_id = r.rule_id";

// Counts alive nodes currently holding live items under a query-scoped
// exchange namespace ("q<id>.x<edge>" / "q<id>.reach").
size_t NodesWithExchangeState(core::PierNetwork& net) {
  size_t holders = 0;
  TimePoint now = net.sim()->now();
  for (size_t i = 0; i < net.size(); ++i) {
    core::PierNode* node = net.node(i);
    if (!node->alive()) continue;
    const dht::LocalStore& store = *node->dht()->local_store();
    for (const std::string& ns : store.Namespaces()) {
      if (ns.size() > 1 && ns[0] == 'q' && ns.find(".x") != std::string::npos &&
          !store.Scan(ns, now).empty()) {
        ++holders;
        break;
      }
    }
  }
  return holders;
}

// A kCancel mid-join must tear the per-query exchange namespaces down on
// every member well before their soft-state TTL (90s) would have reclaimed
// them — and leak zero payload buffers doing it. The hygiene checker runs
// ~40s before the TTL could have fired, so a pass proves explicit teardown,
// not expiry.
TEST(ScenarioTest, CancelledQueryFreesExchangeStateBeforeTtl) {
  Scenario s(/*seed=*/4217);
  size_t mid_query_holders = 0;
  s.WithNodes(8)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(AlertsTable())
      .WithTable(RulesTable())
      .PublishRows("alerts", AlertRows(32))
      .PublishRows("rules", RuleRows(4))
      .AddQuery({.sql = kJoinSql,
                 .issue_at = Seconds(30),
                 .origin = 0,
                 .cancel_after = Millis(150)})
      // Snapshot while the join's rehash exchanges are in flight (before
      // the cancel at t=30.15s, and before the join, which closes by count,
      // could answer): the state we later require freed must exist.
      .At(Seconds(30) + Millis(120),
          [&mid_query_holders](core::PierNetwork& net) {
            mid_query_holders = NodesWithExchangeState(net);
          })
      .WithDefaultCheckers()
      .WithChecker(std::make_unique<ExchangeHygieneChecker>());
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(mid_query_holders, 0u)
      << "the join never built exchange state; the test proves nothing";
  // The origin never delivers a batch for a cancelled query.
  ASSERT_EQ(report.queries.size(), 1u);
  EXPECT_FALSE(report.queries[0].completed);
}

// A node rejoins the ring between a join's rendezvous and its predecessor
// while the join runs. Rehash frames for the keys it takes over may reach
// it (it never got the plan) or the rendezvous that no longer owns them,
// and the rendezvous's range moves under it: the answer may still claim
// exact, but only with the oracle's rows (the CompletenessChecker is the
// referee). Every node holds the rendezvous of a few of the 48 join keys.
TEST(ScenarioTest, NodeJoiningBesideARendezvousNeverCertifiesWrongRows) {
  constexpr size_t kJoiner = 9;
  constexpr TimePoint kIssue = Seconds(150);
  std::vector<Tuple> alerts, rules;
  for (int64_t k = 0; k < 48; ++k) {
    alerts.push_back(Tuple{Value::Int64(k), Value::Int64(100 + k)});
    rules.push_back(Tuple{Value::Int64(k), Value::Int64(k % 3)});
  }
  bool spliced = false;
  Scenario s(/*seed=*/4241);
  s.WithNodes(16)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .WithTable(RulesTable())
      .PublishRows("alerts", std::move(alerts))
      .PublishRows("rules", std::move(rules))
      // Down before any row is published, so it holds none when it rejoins.
      .At(Seconds(40), [](core::PierNetwork& net) { net.Crash(kJoiner); })
      .At(kIssue, [](core::PierNetwork& net) { net.Reboot(kJoiner); })
      .At(kIssue + Seconds(5),
          [&spliced](core::PierNetwork& net) {
            const auto pred =
                net.node(RingWalk(net, kJoiner, 1))->chord()->predecessor();
            spliced = pred.has_value() && pred->host == kJoiner;
          })
      .AddQuery({.sql = kJoinSql, .issue_at = kIssue, .origin = 0})
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(spliced) << "the joiner never became its successor's "
                          "predecessor while the join ran";
  ASSERT_EQ(report.queries.size(), 1u);
  ASSERT_TRUE(report.queries[0].completed) << report.ToString();
}

// Fetch-matches reads its inner relation by DHT get, which answers from
// whatever the key's owner holds: these scenarios move that ownership.
TableDef KeyedRulesTable() {
  TableDef def = RulesTable();
  def.partition_cols = {0};  // the join key: the planner picks fetch-matches
  return def;
}

/// 48 join keys, one alerts and one rules row each: every node of a
/// 16-node ring owns a few.
Scenario& WithKeyedJoinRows(Scenario& s) {
  std::vector<Tuple> alerts, rules;
  for (int64_t k = 0; k < 48; ++k) {
    alerts.push_back(Tuple{Value::Int64(k), Value::Int64(100 + k)});
    rules.push_back(Tuple{Value::Int64(k), Value::Int64(k % 3)});
  }
  return s.WithNodes(16)
      .WithRouter(RouterKind::kChord)
      .WithTable(AlertsTable())
      .WithTable(KeyedRulesTable())
      .PublishRows("alerts", std::move(alerts))
      .PublishRows("rules", std::move(rules));
}

/// Fetch-matches gets summed over every node.
uint64_t FetchGets(core::PierNetwork& net) {
  uint64_t gets = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    if (net.node(i)->alive()) {
      gets += net.node(i)->query_engine()->stats().fetch_gets;
    }
  }
  return gets;
}

/// A node crashes before any row is published, so its successor stores
/// the rows of its range as primaries, and rejoins at `rejoin_at`: the
/// DHT hands nothing back, so a probe for one of its keys finds nothing
/// there, while the successor still holds the row. Issued at `issue`.
ScenarioReport RunFetchMatchesBesideARejoin(TimePoint rejoin_at,
                                            TimePoint issue, bool* spliced,
                                            uint64_t* gets) {
  constexpr size_t kJoiner = 9;
  Scenario s(/*seed=*/4243);
  WithKeyedJoinRows(s)
      .At(Seconds(40), [](core::PierNetwork& net) { net.Crash(kJoiner); })
      .At(rejoin_at, [](core::PierNetwork& net) { net.Reboot(kJoiner); })
      .At(issue + Seconds(5),
          [spliced](core::PierNetwork& net) {
            const auto pred =
                net.node(RingWalk(net, kJoiner, 1))->chord()->predecessor();
            *spliced = pred.has_value() && pred->host == kJoiner;
          })
      .At(issue + Seconds(20),
          [gets](core::PierNetwork& net) { *gets = FetchGets(net); })
      .AddQuery({.sql = kJoinSql, .issue_at = issue, .origin = 0})
      .WithDefaultCheckers();
  return s.Run();
}

// The node rejoins moments before the join: the probes for its keys reach
// an owner that started seconds ago and does not vouch for its answers,
// so each counts as lost.
TEST(ScenarioTest, FetchMatchesBesideANodeRejoiningJustBeforeIsNotCertified) {
  bool spliced = false;
  uint64_t gets = 0;
  ScenarioReport report = RunFetchMatchesBesideARejoin(
      /*rejoin_at=*/Seconds(148), /*issue=*/Seconds(150), &spliced, &gets);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(spliced) << "the joiner never took its range back";
  EXPECT_GT(gets, 0u) << "the join did not run as fetch-matches";
  ASSERT_EQ(report.queries.size(), 1u);
  const QueryOutcome& q = report.queries[0];
  ASSERT_TRUE(q.completed) << report.ToString();
  EXPECT_LT(q.score.recall, 1.0) << "no probe missed a row";
  EXPECT_FALSE(q.batch.completeness.exact) << q.batch.completeness.ToString();
  EXPECT_GE(q.batch.completeness.frames_lost, 1u)
      << q.batch.completeness.ToString();
}

// The node rejoined well before the join, past the owners' settle window:
// its own answers are vouched, but its successor still holds primaries of
// the inner relation under keys it no longer owns, which every probe
// misses, and says so in its report.
TEST(ScenarioTest, FetchMatchesBesideALongRejoinedNodeIsNotCertified) {
  bool spliced = false;
  uint64_t gets = 0;
  ScenarioReport report = RunFetchMatchesBesideARejoin(
      /*rejoin_at=*/Seconds(105), /*issue=*/Seconds(150), &spliced, &gets);
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_TRUE(spliced) << "the joiner never took its range back";
  EXPECT_GT(gets, 0u) << "the join did not run as fetch-matches";
  ASSERT_EQ(report.queries.size(), 1u);
  const QueryOutcome& q = report.queries[0];
  ASSERT_TRUE(q.completed) << report.ToString();
  EXPECT_LT(q.score.recall, 1.0) << "no probe missed a row";
  EXPECT_FALSE(q.batch.completeness.exact) << q.batch.completeness.ToString();
}

// The owner of some of the inner relation's rows crashes shortly before
// the join: its successor answers those probes from replicas, which were
// pushed without an ack, so each counts as lost and no answer resting on
// them certifies.
TEST(ScenarioTest, FetchMatchesAfterItsInnerOwnerCrashedIsNotCertified) {
  constexpr TimePoint kIssue = Seconds(150);
  size_t crashed = 0;
  uint64_t gets = 0;
  Scenario s(/*seed=*/4247);
  WithKeyedJoinRows(s)
      .At(kIssue - Seconds(10),
          [&crashed](core::PierNetwork& net) {
            // Not the origin: the owner of rule 7's row.
            const Id160 key = KeyedRulesTable()
                                  .KeyFor(Tuple{Value::Int64(7),
                                                Value::Int64(1)},
                                          0)
                                  .RoutingKey();
            for (size_t i = 1; i < net.size(); ++i) {
              if (net.node(i)->router()->IsResponsibleFor(key)) crashed = i;
            }
            if (crashed != 0) net.Crash(crashed);
          })
      .At(kIssue + Seconds(20),
          [&gets](core::PierNetwork& net) { gets = FetchGets(net); })
      .AddQuery({.sql = kJoinSql, .issue_at = kIssue, .origin = 0})
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_NE(crashed, 0u) << "the origin owns rule 7";
  EXPECT_GT(gets, 0u) << "the join did not run as fetch-matches";
  ASSERT_EQ(report.queries.size(), 1u);
  const query::Completeness& c = report.queries[0].batch.completeness;
  ASSERT_TRUE(report.queries[0].completed) << report.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_GE(c.frames_lost, 1u) << c.ToString();
}

// Post-run probe for the origin-crash scenario: every surviving member must
// have reclaimed the orphaned query on its own (origin-liveness lease), and
// no member may still carry it in its active-query table.
class MemberReclaimChecker : public InvariantChecker {
 public:
  std::string name() const override { return "member-reclaim"; }
  Status Check(const CheckContext& ctx) override {
    uint64_t reclaimed = 0;
    for (size_t i = 0; i < ctx.net->size(); ++i) {
      core::PierNode* node = ctx.net->node(i);
      if (!node->alive()) continue;
      reclaimed += node->query_engine()->stats().leases_reclaimed;
      if (node->query_engine()->active_queries() != 0) {
        return Status::Internal(
            node->name() + " still tracks " +
            std::to_string(node->query_engine()->active_queries()) +
            " query(ies) though the origin died mid-epoch");
      }
    }
    if (reclaimed == 0) {
      return Status::Internal(
          "no member lease ever fired; orphan state was never reclaimed");
    }
    return Status::OK();
  }
};

// The origin crashes mid-query, before it could broadcast kQueryEnd. No
// member may wait on the dead origin forever: the origin-liveness lease
// (issue + result_wait + member_lease ~ +28s) reclaims stage state and
// exchange namespaces well before the 90s exchange TTL, with zero leaked
// payload buffers.
TEST(ScenarioTest, OriginCrashMidQueryReclaimsMemberState) {
  Scenario s(/*seed=*/4219);
  s.WithNodes(8)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(AlertsTable())
      .WithTable(RulesTable())
      .PublishRows("alerts", AlertRows(32))
      .PublishRows("rules", RuleRows(4))
      .AddQuery({.sql = kJoinSql, .issue_at = Seconds(30), .origin = 1})
      // Before the join, which closes by count, could answer.
      .At(Seconds(30) + Millis(150),
          [](core::PierNetwork& net) { net.node(1)->Crash(); })
      // Leases fire around t=58s and the reclaimed queries GC 30s later;
      // check only after both have clearly passed.
      .WithHealSettle(Seconds(60))
      .WithDefaultCheckers()
      .WithChecker(std::make_unique<ExchangeHygieneChecker>())
      .WithChecker(std::make_unique<MemberReclaimChecker>());
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.queries.size(), 1u);
  EXPECT_FALSE(report.queries[0].completed);
}

// Bloom-friendly statistics: large declared relations with skewed key
// domains make the planner's cost model pick kBloom for kJoinSql (rules
// stays partitioned on severity, so fetch-matches cannot preempt the
// choice). The declared numbers are planning inputs only — the actual
// published rows stay small.
TableDef BloomStatsAlerts() {
  TableDef def = AlertsTable();
  def.stats.row_count = 100000;
  def.stats.avg_tuple_bytes = 200;
  def.stats.distinct_per_col = {100000, 1};
  return def;
}

TableDef BloomStatsRules() {
  TableDef def = RulesTable();
  def.stats.row_count = 100000;
  def.stats.avg_tuple_bytes = 200;
  def.stats.distinct_per_col = {10000, 1};
  return def;
}

// The loss-proof filter wave under fire. A one-way partition lets members
// 5-7 receive the plan (and later the filter union) but blackholes their
// kBloomPart frames toward the origin: the origin's wave accounting comes
// up short, so the union broadcast carries complete=false and NO node is
// allowed to suppress. The join degrades to a full rehash — visible as
// filter_waves_degraded in the Completeness summary — and after the heal
// every matching pair is in the answer. Before this accounting existed,
// the origin unioned whatever arrived and members suppressed against a
// filter that silently lacked three nodes' keys: matching rows vanished
// with no trace in the answer's own completeness claim.
// Post-run probe: the wave must have been tried (this was really a Bloom
// join), counted as degraded at the origin, and no node may have
// suppressed a single row against the incomplete union.
class DegradedWaveChecker : public InvariantChecker {
 public:
  std::string name() const override { return "degraded-wave"; }
  Status Check(const CheckContext& ctx) override {
    uint64_t degraded = 0, complete = 0, suppressed = 0, parts = 0;
    for (size_t i = 0; i < ctx.net->size(); ++i) {
      const auto& st = ctx.net->node(i)->query_engine()->stats();
      degraded += st.bloom_waves_degraded;
      complete += st.bloom_waves_complete;
      suppressed += st.bloom_suppressed;
      parts += st.bloom_parts_received;
    }
    if (degraded != 1 || complete != 0) {
      return Status::Internal("expected exactly one degraded wave, saw " +
                              std::to_string(degraded) + " degraded / " +
                              std::to_string(complete) + " complete");
    }
    if (parts == 0) {
      return Status::Internal(
          "no Bloom part ever arrived; was this a Bloom join at all?");
    }
    if (suppressed != 0) {
      return Status::Internal(
          std::to_string(suppressed) +
          " rows suppressed against an incomplete filter union");
    }
    return Status::OK();
  }
};

TEST(ScenarioTest, LostBloomPartsDegradeToFullRehashNotRowLoss) {
  Scenario s(/*seed=*/4223);
  FaultScript script;
  FaultDirective d;
  d.kind = FaultDirective::Kind::kAsymPartition;
  // The blackhole swallows the one-shot kBloomPart frames (sent at ~30s on
  // plan receipt) and outlives the wave close (issue+bloom_wait = 34s), so
  // the origin must broadcast an incomplete wave. It heals inside the
  // retransmit horizons of both planes the degraded rehash rides — DHT puts
  // retry ~2s apart for ~6s, result frames for ~10s, both starting at the
  // ~34s degraded produce — so every retried frame still lands well before
  // the 55s finalization. Loss of the *filter* is permanent; loss of *rows*
  // is not.
  d.from = Seconds(29);
  d.until = Seconds(37);
  d.group_a = {5, 6, 7};
  d.group_b = {0, 1, 2, 3, 4};
  script.directives.push_back(d);
  s.WithNodes(8)
      .WithRouter(RouterKind::kOneHop)
      .WithTable(BloomStatsAlerts())
      .WithTable(BloomStatsRules())
      .PublishRows("alerts", AlertRows(32))
      .PublishRows("rules", RuleRows(4))
      .WithFaults(script)
      // Every alert matches a rule, so any suppressed row is a recall
      // miss: the 1.0 floors are the "no silent loss" oracle.
      .AddQuery({.sql = kJoinSql,
                 .issue_at = Seconds(30),
                 .min_recall = 1.0,
                 .min_precision = 1.0})
      .WithDefaultCheckers()
      .WithChecker(std::make_unique<DegradedWaveChecker>());
  // Finalization must land after the heal + retried rehash deliveries.
  s.options().node.engine.result_wait = Seconds(25);
  ScenarioReport report = s.Run();
  EXPECT_TRUE(report.ok()) << report.ToString();
  EXPECT_GT(report.messages_faulted, 0u)
      << "the partition never bit; the wave was not actually attacked";
  ASSERT_EQ(report.queries.size(), 1u);
  const QueryOutcome& q = report.queries[0];
  ASSERT_TRUE(q.completed);
  // The degradation is loud: the answer itself says its filter wave fell
  // back, and the engine counted the incomplete wave and the late parts.
  EXPECT_GE(q.batch.completeness.filter_waves_degraded, 1u);
  EXPECT_FALSE(q.batch.completeness.exact);
}

// FailedOverScanIsNotCertified's fault, under a Bloom join: the successor
// that lost its predecessor sweeps the owner's replicas as the join's
// input, so its cover of the join's plan wave goes up unvouched. The
// origin's coverage is then incomplete, so the answer says
// coverage-unknown and the filter wave degrades to the full rehash rather
// than suppress against filters built from those rows.
TEST(ScenarioTest, FailedOverJoinScanDegradesItsFilterWave) {
  constexpr TimePoint kIssue = Seconds(100);
  size_t owner = 0, successor = 0;
  TableDef alerts = SpreadAlertsTable();
  alerts.stats = BloomStatsAlerts().stats;
  Scenario s(/*seed=*/4233);
  s.WithNodes(32)
      .WithRouter(RouterKind::kChord)
      .WithTable(alerts)
      .WithTable(BloomStatsRules())
      .PublishRows("alerts", AlertRows(320))
      .PublishRows("rules", RuleRows(4))
      .AddQuery({.sql = kJoinSql, .issue_at = kIssue, .origin = 0})
      .At(kIssue - Seconds(6),
          [&](core::PierNetwork& net) {
            successor = net.node(0)->chord()->FingerEntries().back().host;
            for (size_t i = 1; i < net.size(); ++i) {
              if (RingWalk(net, i, 1) == successor) owner = i;
            }
            if (owner == 0) return;
            net.net()->fault_plane()->Partition(
                {sim::HostId(owner)}, {sim::HostId(successor)},
                net.sim()->now(), kIssue + Seconds(12),
                /*bidirectional=*/false);
          })
      .WithDefaultCheckers();
  ScenarioReport report = s.Run();
  ASSERT_NE(owner, 0u) << "the origin's farthest finger follows the origin";
  EXPECT_TRUE(report.ok()) << report.ToString();
  ASSERT_EQ(report.queries.size(), 1u);
  const QueryOutcome& q = report.queries[0];
  ASSERT_TRUE(q.completed) << report.ToString();
  const query::Completeness& c = q.batch.completeness;
  EXPECT_FALSE(c.coverage_complete) << c.ToString();
  EXPECT_EQ(c.filter_waves_degraded, 1u) << c.ToString();
  EXPECT_FALSE(c.exact) << c.ToString();
}

}  // namespace
}  // namespace testkit
}  // namespace pier
