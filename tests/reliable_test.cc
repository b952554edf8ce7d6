// Unit and end-to-end tests for the reliable result plane: receiver-side
// frame dedupe, the sender-side pending-frame outbox, the shared jittered
// backoff schedule, and — end to end — that answers carried in the acked
// kFrame envelope equal the testkit oracle, and that result rows arriving
// outside it are dropped.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/backoff.h"
#include "core/network.h"
#include "overlay/transport.h"
#include "query/engine.h"
#include "query/plan.h"
#include "query/reliable.h"
#include "sim/fault_plane.h"
#include "testkit/oracle.h"

namespace pier {
namespace query {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;

// ---------------------------------------------------------------------------
// FrameDedupe
// ---------------------------------------------------------------------------

TEST(FrameDedupeTest, AdmitsEachIdExactlyOnce) {
  FrameDedupe d;
  EXPECT_TRUE(d.Admit(1));
  EXPECT_TRUE(d.Admit(2));
  EXPECT_FALSE(d.Admit(1));  // retransmit of an acked-but-resent frame
  EXPECT_FALSE(d.Admit(2));
  EXPECT_TRUE(d.Admit(3));
  EXPECT_EQ(d.admitted(), 3u);
}

// A sender that restarts (a reboot, a re-install) numbers its frames from 1
// again under a later incarnation: the window restarts instead of taking
// them for retransmits, and the superseded incarnation's frames bounce.
TEST(FrameDedupeTest, NewerIncarnationRestartsTheWindow) {
  FrameDedupe d;
  EXPECT_TRUE(d.Admit(1, /*incarnation=*/5));
  EXPECT_TRUE(d.Admit(2, 5));
  EXPECT_FALSE(d.Admit(1, 5));
  EXPECT_TRUE(d.Admit(1, 9));   // restarted sender, not a retransmit
  EXPECT_FALSE(d.Admit(1, 9));
  EXPECT_FALSE(d.Admit(3, 5));  // the superseded incarnation
  EXPECT_TRUE(d.Admit(2, 9));
  EXPECT_EQ(d.incarnation(), 9u);
  EXPECT_EQ(d.admitted(), 4u);
}

TEST(FrameDedupeTest, RejectsMalformedZeroId) {
  FrameDedupe d;
  EXPECT_FALSE(d.Admit(0));
  EXPECT_EQ(d.admitted(), 0u);
}

TEST(FrameDedupeTest, OutOfOrderIdsCollapseIntoWatermark) {
  FrameDedupe d;
  // Arrivals reordered by the network: 3, 1, 4, 2.
  EXPECT_TRUE(d.Admit(3));
  EXPECT_TRUE(d.Admit(1));
  EXPECT_TRUE(d.Admit(4));
  EXPECT_FALSE(d.Admit(3));  // still remembered while sparse
  EXPECT_TRUE(d.Admit(2));   // closes the gap; watermark jumps to 4
  EXPECT_FALSE(d.Admit(1));
  EXPECT_FALSE(d.Admit(2));
  EXPECT_FALSE(d.Admit(4));
  EXPECT_TRUE(d.Admit(5));
  EXPECT_EQ(d.admitted(), 5u);
}

TEST(FrameDedupeTest, DuplicateAfterLateRetransmitStaysRejected) {
  FrameDedupe d;
  // A frame whose ack was lost is retransmitted long after delivery; every
  // copy past the first must bounce, no matter how stale.
  EXPECT_TRUE(d.Admit(1));
  EXPECT_TRUE(d.Admit(2));
  EXPECT_TRUE(d.Admit(7));  // sparse, far ahead
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(d.Admit(1));
    EXPECT_FALSE(d.Admit(7));
  }
  EXPECT_EQ(d.admitted(), 3u);
}

// ---------------------------------------------------------------------------
// ReliableOutbox
// ---------------------------------------------------------------------------

TEST(ReliableOutboxTest, IdsAreMonotoneFromOneAndBytesAreCharged) {
  ReliableOutbox ob;
  EXPECT_EQ(ob.Enqueue(3, "abcd", /*control=*/false), 1u);
  EXPECT_EQ(ob.Enqueue(3, "efghij", /*control=*/false), 2u);
  EXPECT_EQ(ob.pending_frames(), 2u);
  EXPECT_EQ(ob.pending_bytes(), 10u);
  EXPECT_FALSE(ob.data_drained());
  ASSERT_NE(ob.Get(1), nullptr);
  EXPECT_EQ(ob.Get(1)->bytes, "abcd");
  EXPECT_EQ(ob.Get(99), nullptr);
}

TEST(ReliableOutboxTest, AckRemovesAndDuplicateAckIsRejected) {
  ReliableOutbox ob;
  uint64_t id = ob.Enqueue(2, "xyz", /*control=*/false);
  EXPECT_TRUE(ob.Ack(id));
  EXPECT_FALSE(ob.Ack(id));  // dup ack after the frame was retired
  EXPECT_TRUE(ob.data_drained());
  EXPECT_EQ(ob.pending_bytes(), 0u);
}

TEST(ReliableOutboxTest, ControlFramesDoNotGateDataDrain) {
  ReliableOutbox ob;
  uint64_t report = ob.Enqueue(1, "report", /*control=*/true);
  EXPECT_TRUE(ob.data_drained());  // only control pending
  uint64_t data = ob.Enqueue(1, "rows", /*control=*/false);
  EXPECT_FALSE(ob.data_drained());
  EXPECT_TRUE(ob.Ack(data));
  EXPECT_TRUE(ob.data_drained());  // the unacked report does not gate
  EXPECT_EQ(ob.pending_frames(), 1u);
  EXPECT_TRUE(ob.Ack(report));
}

TEST(ReliableOutboxTest, MarkLostChargesDataFramesOnly) {
  ReliableOutbox ob;
  uint64_t data = ob.Enqueue(1, "rows", /*control=*/false);
  uint64_t ctrl = ob.Enqueue(1, "report", /*control=*/true);
  ob.MarkLost(data);
  ob.MarkLost(ctrl);
  ob.MarkLost(data);  // idempotent on an already-retired id
  EXPECT_EQ(ob.lost, 1u);
  EXPECT_TRUE(ob.data_drained());
  EXPECT_EQ(ob.pending_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// RetryDelay
// ---------------------------------------------------------------------------

TEST(RetryDelayTest, DeterministicForEqualInputs) {
  for (int attempt = 1; attempt <= 8; ++attempt) {
    Duration a = RetryDelay(Millis(300), Seconds(2), 0.25, 0xfeedull, attempt);
    Duration b = RetryDelay(Millis(300), Seconds(2), 0.25, 0xfeedull, attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
  }
}

TEST(RetryDelayTest, StaysInsideJitterEnvelopeAndGrows) {
  const Duration initial = Millis(300);
  const Duration max = Seconds(2);
  const double jitter = 0.25;
  Duration prev_nominal = 0;
  for (int attempt = 1; attempt <= 10; ++attempt) {
    // Nominal (jitter-free) schedule: initial * 2^(attempt-1), capped.
    Duration nominal = initial;
    for (int i = 1; i < attempt && nominal < max; ++i) nominal *= 2;
    nominal = std::min(nominal, max);
    EXPECT_GE(nominal, prev_nominal);
    prev_nominal = nominal;
    for (uint64_t salt : {0ull, 0x1234ull, ~0ull}) {
      Duration d = RetryDelay(initial, max, jitter, salt, attempt);
      EXPECT_GE(d, static_cast<Duration>(
                       static_cast<double>(nominal) * (1.0 - jitter)));
      EXPECT_LE(d, static_cast<Duration>(
                       static_cast<double>(nominal) * (1.0 + jitter)));
    }
  }
}

TEST(RetryDelayTest, SaltsDecorrelateSenders) {
  // Two senders retrying the same attempt must not fire in lockstep (that
  // is the retransmit-storm failure mode the jitter exists to break).
  std::set<Duration> delays;
  for (uint64_t salt = 1; salt <= 16; ++salt) {
    delays.insert(RetryDelay(Millis(300), Seconds(2), 0.25,
                             Mix64(salt), /*attempt=*/3));
  }
  EXPECT_GT(delays.size(), 8u);
}

// ---------------------------------------------------------------------------
// End to end: the acked envelope against the testkit oracle
// ---------------------------------------------------------------------------

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

PierNetworkOptions CleanOneHopOpts() {
  PierNetworkOptions o;
  o.seed = 71;
  o.node.router_kind = RouterKind::kOneHop;
  o.node.engine.result_wait = Seconds(5);
  return o;
}

/// Boots `net`, registers `alerts` everywhere and publishes 30 rows
/// (rule_id 0..29) spread across the publishers.
void SeedAlerts(PierNetwork& net) {
  net.Boot(Seconds(5));
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(AlertsTable()).ok());
  }
  for (int r = 0; r < 30; ++r) {
    Tuple t{Value::Int64(r), Value::String("d"), Value::Int64(r * 10)};
    ASSERT_TRUE(net.node(static_cast<size_t>(r) % net.size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }
  net.RunFor(Seconds(5));
}

QueryPlan AlertsScan() {
  QueryPlan plan;
  AddScan(&plan.graph, "alerts", AlertsTable().schema);
  AppendTail(&plan.graph, nullptr, ProjectNode({}));
  return plan;
}

/// The answer must be the oracle's row multiset, nothing more or less.
void ExpectOracleAnswer(PierNetwork& net, const QueryPlan& plan,
                        const ResultBatch& batch) {
  auto oracle = testkit::OracleEvaluate(net, plan);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(oracle.value().size(), 30u);
  testkit::OracleScore score = testkit::ScoreAnswer(oracle.value(), batch.rows);
  EXPECT_EQ(score.answer_rows, score.oracle_rows) << score.ToString();
  EXPECT_EQ(score.matched, score.oracle_rows) << score.ToString();
}

TEST(ReliablePlaneTest, CleanNetworkAnswerMatchesOracleAndCertifiesExact) {
  PierNetwork net(6, CleanOneHopOpts());
  SeedAlerts(net);
  QueryPlan plan = AlertsScan();
  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ExpectOracleAnswer(net, plan, batches[0]);
  EXPECT_TRUE(batches[0].completeness.exact)
      << batches[0].completeness.ToString();
  // Members are the frame senders; sum the plane counters network-wide.
  // The envelope was exercised and, on clean links, never retransmitted.
  EngineStats total;
  for (size_t i = 0; i < net.size(); ++i) {
    const EngineStats& s = net.node(i)->query_engine()->stats();
    total.frames_acked += s.frames_acked;
    total.frames_lost += s.frames_lost;
    total.frames_retransmitted += s.frames_retransmitted;
  }
  EXPECT_GT(total.frames_acked, 0u);
  EXPECT_EQ(total.frames_lost, 0u);
  EXPECT_EQ(total.frames_retransmitted, 0u);
}

// Result rows count toward an answer only through an admitted kFrame: a
// bare kResult from another node (a stale sender, or a spoofer) must never
// land in the answer, let alone in one certified exact.
TEST(ReliablePlaneTest, BareResultTupleInjectedMidQueryIsDropped) {
  PierNetwork net(6, CleanOneHopOpts());
  SeedAlerts(net);
  QueryPlan plan = AlertsScan();
  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kResult));
  w.PutVarint64(r.value());
  w.PutVarint64(/*epoch=*/0);
  catalog::SerializeTuple(
      Tuple{Value::Int64(999), Value::String("forged"), Value::Int64(1)}, &w);
  ASSERT_TRUE(net.node(3)
                  ->transport()
                  ->Send(net.node(0)->host(), overlay::Proto::kQuery, w)
                  .ok());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ExpectOracleAnswer(net, plan, batches[0]);
  EXPECT_TRUE(batches[0].completeness.exact)
      << batches[0].completeness.ToString();
}

// Every member builds the same graph, so a partial can only reach a member
// of an aggregate-free query in a malformed frame. The member admits the
// frame (acking it) and drops the partial; it must not relay it onward.
TEST(ReliablePlaneTest, FramedPartialForSelectQueryIsDroppedAtMember) {
  PierNetwork net(6, CleanOneHopOpts());
  SeedAlerts(net);
  QueryPlan plan = AlertsScan();
  plan.every = Seconds(10);  // keeps the query live at the member
  auto r = net.node(0)->query_engine()->Execute(plan,
                                                [](const ResultBatch&) {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  net.RunFor(Seconds(1));
  ASSERT_TRUE(net.node(2)->query_engine()->HasLiveQuery(r.value()));

  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFrame));
  w.PutVarint64(r.value());
  w.PutVarint64(/*incarnation=*/0);
  w.PutVarint64(/*frame_id=*/1);
  w.PutU8(static_cast<uint8_t>(MsgType::kPartial));
  w.PutVarint64(r.value());
  w.PutVarint64(/*epoch=*/0);
  w.PutVarint64(/*contributors=*/1);
  catalog::SerializeTuple(Tuple{Value::Int64(7)}, &w);
  const EngineStats& member = net.node(2)->query_engine()->stats();
  const EngineStats& origin = net.node(0)->query_engine()->stats();
  const uint64_t member_sent = member.partial_msgs_sent;
  const uint64_t origin_received = origin.partial_msgs_received;
  ASSERT_TRUE(net.node(3)
                  ->transport()
                  ->Send(net.node(2)->host(), overlay::Proto::kQuery, w)
                  .ok());
  net.RunFor(Seconds(2));

  EXPECT_EQ(member.partial_msgs_received, 1u);  // admitted, then dropped
  EXPECT_EQ(member.partial_msgs_sent, member_sent);
  EXPECT_EQ(origin.partial_msgs_received, origin_received);
  net.node(0)->query_engine()->Cancel(r.value());
  net.RunFor(Seconds(2));
}

// ---------------------------------------------------------------------------
// Contributor counts on kPartial frames
// ---------------------------------------------------------------------------

/// SELECT rule_id, SUM(hits) FROM alerts GROUP BY rule_id, combined up the
/// dissemination tree (one level deep on the one-hop overlay).
QueryPlan AlertsTreeSum() {
  QueryPlan plan;
  AddScan(&plan.graph, "alerts", AlertsTable().schema);
  AppendTail(&plan.graph, nullptr,
             AggNode({0}, {{exec::AggFunc::kSum, 2, "total"}}), {},
             AggStrategy::kTree);
  return plan;
}

/// Frames `inner` (a complete direct message) as frame `frame_id` of
/// query `qid` and sends it from `from` to the origin, node 0. Incarnation
/// 0 precedes the sender's own install, so its real frames still count.
void InjectFrame(PierNetwork& net, size_t from, uint64_t qid,
                 uint64_t frame_id, const std::string& inner) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kFrame));
  w.PutVarint64(qid);
  w.PutVarint64(/*incarnation=*/0);
  w.PutVarint64(frame_id);
  w.PutRaw(inner.data(), inner.size());
  ASSERT_TRUE(net.node(from)
                  ->transport()
                  ->Send(net.node(0)->host(), overlay::Proto::kQuery, w)
                  .ok());
}

/// [kPartial][qid][epoch 0], then `rest`.
std::string PartialHead(uint64_t qid) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kPartial));
  w.PutVarint64(qid);
  w.PutVarint64(/*epoch=*/0);
  return w.Release();
}

/// Every rule's SUM(hits) as SeedAlerts publishes them: rule r has r * 10.
void ExpectTreeSums(const ResultBatch& batch) {
  ASSERT_EQ(batch.rows.size(), 30u);
  for (const Tuple& t : batch.rows) {
    EXPECT_EQ(t[1].int64_value(), t[0].int64_value() * 10) << t[0].ToString();
  }
}

// A kPartial frame is taken whole or not at all. One frame ends before its
// contributor count, another in the middle of its batch: neither may add
// its count without its rows (or rows without their count), so the answer
// still certifies with exactly the members the cover wave reached.
TEST(ReliablePlaneTest, TruncatedPartialFrameIsDroppedWhole) {
  PierNetwork net(6, CleanOneHopOpts());
  SeedAlerts(net);
  std::vector<ResultBatch> batches;
  auto r = net.node(0)->query_engine()->Execute(
      AlertsTreeSum(), [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Frame ids far above node 3's own keep its real frames admissible.
  InjectFrame(net, 3, r.value(), 1000, PartialHead(r.value()));
  exec::RowBatchBuilder forged({ValueType::kInt64, ValueType::kInt64});
  forged.Append(Tuple{Value::Int64(1), Value::Int64(1000)});
  forged.Append(Tuple{Value::Int64(2), Value::Int64(1000)});
  Writer body;
  body.PutVarint64(/*contributors=*/1);
  forged.Take().Encode(&body);
  std::string cut = body.Release();
  cut.pop_back();
  InjectFrame(net, 3, r.value(), 1001, PartialHead(r.value()) + cut);
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ExpectTreeSums(batches[0]);
  const Completeness& c = batches[0].completeness;
  EXPECT_TRUE(c.exact) << c.ToString();
  EXPECT_EQ(c.members_expected, 6u);
  EXPECT_EQ(c.members_reported, 6u);
  // One kPartial per member; the two cut frames never decoded.
  EXPECT_EQ(net.node(0)->query_engine()->stats().partial_msgs_received, 5u);
}

// The root's contributor total must EQUAL the members its cover wave
// reached. A well-formed surplus partial (one contributor, no rows) pushes
// the total past it: the answer is still right, but nothing vouches for
// it, so it waits out result_wait and is not certified.
TEST(ReliablePlaneTest, SurplusContributorBarsCertification) {
  PierNetwork net(6, CleanOneHopOpts());
  SeedAlerts(net);
  std::vector<ResultBatch> batches;
  TimePoint answered = 0;
  const TimePoint issued = net.sim()->now();
  auto r = net.node(0)->query_engine()->Execute(
      AlertsTreeSum(), [&](const ResultBatch& b) {
        batches.push_back(b);
        answered = net.sim()->now();
      });
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  Writer body;
  body.PutVarint64(/*contributors=*/1);
  exec::RowBatch().Encode(&body);
  InjectFrame(net, 3, r.value(), 1000, PartialHead(r.value()) + body.Release());
  net.RunFor(Seconds(10));

  ASSERT_EQ(batches.size(), 1u);
  ExpectTreeSums(batches[0]);
  const Completeness& c = batches[0].completeness;
  EXPECT_FALSE(c.exact) << c.ToString();
  EXPECT_EQ(c.members_expected, 6u);
  EXPECT_EQ(c.members_reported, 7u);
  EXPECT_EQ(answered - issued, CleanOneHopOpts().node.engine.result_wait);
}

// ---------------------------------------------------------------------------
// Regression: messy teardowns must not wedge admission
// ---------------------------------------------------------------------------

// A storm of short overlapping queries under link loss, with some cancelled
// mid-flight and one member crashed outright, once leaked reliable-plane
// state on the survivors: outboxes were dropped without refunding their
// pending-byte charge and receiver dedupe maps outlived their queries, so
// the admission gate eventually reported Busy forever. After the storm
// drains, every alive node's accounting must balance and a fresh query must
// still admit and answer.
TEST(ReliableTeardownTest, StormWithCancelsAndCrashLeavesAdmissionOpen) {
  PierNetworkOptions o;
  o.seed = 77;
  o.node.router_kind = RouterKind::kOneHop;
  o.node.engine.result_wait = Seconds(2);
  PierNetwork net(6, o);
  net.Boot(Seconds(5));
  for (size_t i = 0; i < net.size(); ++i) {
    ASSERT_TRUE(net.node(i)->catalog()->Register(AlertsTable()).ok());
  }
  for (int r = 0; r < 30; ++r) {
    Tuple t{Value::Int64(r), Value::String("d"), Value::Int64(r * 10)};
    ASSERT_TRUE(net.node(static_cast<size_t>(r) % net.size())
                    ->query_engine()
                    ->Publish("alerts", t)
                    .ok());
  }
  net.RunFor(Seconds(5));

  // Lossy window covering the whole storm: every result frame, ack, epoch
  // report, and cancel broadcast has a 25% chance of vanishing.
  sim::FaultPlane plane(net.sim()->rng().Fork(0x746f726eull));
  std::vector<sim::HostId> all_hosts;
  for (size_t i = 0; i < net.size(); ++i) {
    all_hosts.push_back(net.node(i)->host());
  }
  plane.Loss(all_hosts, all_hosts, 0.25, net.sim()->now(),
             net.sim()->now() + Seconds(60));
  net.net()->SetFaultPlane(&plane);

  QueryPlan plan = AlertsScan();

  // Twelve overlapping short queries from rotating origins (node 5 is the
  // crash victim, so it only ever serves as a member). Every third query is
  // cancelled mid-flight.
  std::vector<std::pair<size_t, uint64_t>> live;  // (origin, qid)
  for (int q = 0; q < 12; ++q) {
    size_t origin = static_cast<size_t>(q) % 5;
    auto r = net.node(origin)->query_engine()->Execute(
        plan, [](const ResultBatch&) {});
    ASSERT_TRUE(r.ok()) << "query " << q << ": " << r.status().ToString();
    live.push_back({origin, r.value()});
    net.RunFor(Millis(150));
    if (q % 3 == 2) {
      net.node(origin)->query_engine()->Cancel(r.value());
    }
    if (q == 7) net.Crash(5);  // mid-storm member loss
  }

  // Drain: let retries toward the dead member exhaust their budget and the
  // result windows close, then lift the loss and settle.
  net.RunFor(Seconds(20));
  plane.Clear();
  net.RunFor(Seconds(10));

  for (size_t i = 0; i < net.size(); ++i) {
    if (!net.node(i)->alive()) continue;
    Status acct = net.node(i)->query_engine()->CheckReliableAccounting();
    EXPECT_TRUE(acct.ok()) << "node " << i << ": " << acct.ToString();
  }

  // Admission must have recovered: a fresh query admits and answers.
  std::vector<ResultBatch> batches;
  auto fresh = net.node(0)->query_engine()->Execute(
      plan, [&](const ResultBatch& b) { batches.push_back(b); });
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  net.RunFor(Seconds(10));
  ASSERT_EQ(batches.size(), 1u);
  EXPECT_GT(batches[0].rows.size(), 0u);
  net.net()->SetFaultPlane(nullptr);
}

}  // namespace
}  // namespace query
}  // namespace pier
