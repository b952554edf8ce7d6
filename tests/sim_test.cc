// Unit tests for the discrete-event simulator: clock/event ordering, timers,
// periodic tasks, network delivery semantics, loss, epochs (crash behavior),
// churn scheduling, and metrics.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/churn.h"
#include "sim/event_queue.h"
#include "sim/metrics.h"
#include "sim/network.h"

namespace pier {
namespace sim {
namespace {

TEST(SimulationTest, EventsRunInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(3), [&] { order.push_back(3); });
  sim.ScheduleAt(Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAt(Seconds(2), [&] { order.push_back(2); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Seconds(3));
}

TEST(SimulationTest, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.ScheduleAt(Seconds(1), [&] { order.push_back(1); });
  sim.ScheduleAt(Seconds(1), [&] { order.push_back(2); });
  sim.ScheduleAt(Seconds(1), [&] { order.push_back(3); });
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(SimulationTest, RunUntilStopsAtDeadline) {
  Simulation sim;
  int fired = 0;
  sim.ScheduleAt(Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(Seconds(10), [&] { ++fired; });
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), Seconds(5));  // clock advances to the deadline
  sim.RunUntil(Seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(SimulationTest, EventsScheduledDuringRunExecute) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.ScheduleAfter(Seconds(1), recurse);
  };
  sim.ScheduleAfter(Seconds(1), recurse);
  sim.RunAll();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now(), Seconds(5));
}

TEST(SimulationTest, CancelPreventsExecution) {
  Simulation sim;
  int fired = 0;
  TimerId id = sim.ScheduleAt(Seconds(1), [&] { ++fired; });
  sim.Cancel(id);
  sim.RunAll();
  EXPECT_EQ(fired, 0);
}

TEST(SimulationTest, CancelIsIdempotent) {
  Simulation sim;
  TimerId id = sim.ScheduleAt(Seconds(1), [] {});
  sim.Cancel(id);
  sim.Cancel(id);  // no crash
  sim.RunAll();
}

TEST(SimulationTest, PastScheduleClampsToNow) {
  Simulation sim;
  sim.RunUntil(Seconds(10));
  int fired = 0;
  sim.ScheduleAt(Seconds(1), [&] { ++fired; });  // "in the past"
  sim.RunUntil(Seconds(10));                     // same deadline
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, CancelInsideCallbackStopsSameTimestampEvent) {
  // An event may cancel another event scheduled for the very same instant
  // but later in FIFO order; the cancelled callback must not run.
  Simulation sim;
  int fired = 0;
  TimerId victim = 0;
  sim.ScheduleAt(Seconds(1), [&] { sim.Cancel(victim); });
  victim = sim.ScheduleAt(Seconds(1), [&] { ++fired; });
  sim.ScheduleAt(Seconds(1), [&] { ++fired; });  // after the victim: survives
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, CancelOwnIdInsideCallbackIsNoop) {
  Simulation sim;
  int fired = 0;
  TimerId self_id = 0;
  self_id = sim.ScheduleAt(Seconds(1), [&] {
    ++fired;
    sim.Cancel(self_id);  // already firing: must be a harmless no-op
  });
  sim.RunAll();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationTest, FiringNamesTheRunningEvent) {
  // Owners that track their pending timers drop a fired id from inside the
  // callback, so firing() must name exactly the event that is running.
  Simulation sim;
  std::vector<TimerId> seen;
  TimerId a = sim.ScheduleAt(Seconds(1), [&] { seen.push_back(sim.firing()); });
  TimerId b = sim.ScheduleAt(Seconds(2), [&] { seen.push_back(sim.firing()); });
  EXPECT_EQ(sim.firing(), 0u);
  sim.RunAll();
  EXPECT_EQ(seen, (std::vector<TimerId>{a, b}));
  EXPECT_EQ(sim.firing(), 0u);
}

TEST(SimulationTest, StaleTimerIdCannotCancelRecycledSlot) {
  // After an event fires, its pool slot is recycled for new events; the old
  // TimerId carries a dead generation and must not cancel the newcomer.
  Simulation sim;
  TimerId first = sim.ScheduleAt(Seconds(1), [] {});
  sim.RunAll();
  int fired = 0;
  TimerId second = sim.ScheduleAt(Seconds(2), [&] { ++fired; });
  EXPECT_NE(first, second);
  sim.Cancel(first);  // stale
  sim.RunAll();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationTest, PendingTracksScheduleCancelFire) {
  Simulation sim;
  TimerId a = sim.ScheduleAt(Seconds(1), [] {});
  sim.ScheduleAt(Seconds(2), [] {});
  sim.ScheduleAt(Seconds(3), [] {});
  EXPECT_EQ(sim.pending(), 3u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending(), 2u);
  sim.RunUntil(Seconds(2));
  EXPECT_EQ(sim.pending(), 1u);
  sim.RunAll();
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(SimulationTest, TiesStayFifoAroundCancellations) {
  // Interleaved cancels must not disturb the FIFO order of the survivors.
  Simulation sim;
  std::vector<int> order;
  std::vector<TimerId> ids;
  for (int i = 0; i < 10; ++i) {
    ids.push_back(sim.ScheduleAt(Seconds(5), [&order, i] {
      order.push_back(i);
    }));
  }
  for (int i = 0; i < 10; i += 2) sim.Cancel(ids[i]);
  sim.RunAll();
  EXPECT_EQ(order, (std::vector<int>{1, 3, 5, 7, 9}));
}

TEST(SimulationTest, OversizedCallbackFallsBackToHeap) {
  // Captures larger than the inline buffer still work (single allocation).
  Simulation sim;
  struct Big {
    char blob[256] = {0};
  };
  Big big;
  big.blob[0] = 42;
  int got = 0;
  sim.ScheduleAfter(Seconds(1), [big, &got] { got = big.blob[0]; });
  sim.RunAll();
  EXPECT_EQ(got, 42);
}

TEST(SimulationTest, SecondSimulationRestoresLoggerClock) {
  // Regression: constructing and destroying a second Simulation while the
  // first is alive used to leave the global logger pointing at the second's
  // (destroyed) clock.
  const TimePoint* outermost = Logger::Instance().clock_source();
  {
    Simulation a;
    const TimePoint* a_clock = Logger::Instance().clock_source();
    ASSERT_NE(a_clock, nullptr);
    {
      Simulation b;
      EXPECT_NE(Logger::Instance().clock_source(), a_clock);
    }
    EXPECT_EQ(Logger::Instance().clock_source(), a_clock);
    a.RunFor(Seconds(1));  // logging with A's clock is safe again
  }
  EXPECT_EQ(Logger::Instance().clock_source(), outermost);
}

TEST(SimulationTest, InterleavedSimulationLifetimesNeverDangleClock) {
  // Destruction in construction order (non-LIFO): the logger must track the
  // surviving simulation's clock, never a destroyed one.
  auto a = std::make_unique<Simulation>();
  auto b = std::make_unique<Simulation>();
  b->RunFor(Seconds(2));
  a.reset();  // destroy the OLDER simulation first
  ASSERT_NE(Logger::Instance().clock_source(), nullptr);
  EXPECT_EQ(*Logger::Instance().clock_source(), b->now());
  b.reset();
  EXPECT_EQ(Logger::Instance().clock_source(), nullptr);
}

TEST(PeriodicTaskTest, FiresRepeatedly) {
  Simulation sim;
  int count = 0;
  PeriodicTask task;
  task.Start(&sim, Seconds(1), Seconds(2), [&] { ++count; });
  sim.RunUntil(Seconds(10));
  // Fires at 1,3,5,7,9.
  EXPECT_EQ(count, 5);
}

TEST(PeriodicTaskTest, StopHalts) {
  Simulation sim;
  int count = 0;
  PeriodicTask task;
  task.Start(&sim, Seconds(1), Seconds(1), [&] {
    if (++count == 3) task.Stop();
  });
  sim.RunUntil(Seconds(100));
  EXPECT_EQ(count, 3);
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

class Recorder : public MessageHandler {
 public:
  void OnMessage(HostId from, const Packet& packet) override {
    received.push_back({from, packet.Flatten()});
  }
  std::vector<std::pair<HostId, std::string>> received;
};

TEST(NetworkTest, DeliversWithLatency) {
  Simulation sim(1);
  Network net(&sim, NetworkOptions{});
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  ASSERT_TRUE(net.Send(ha, hb, "hello").ok());
  EXPECT_TRUE(b.received.empty());  // not synchronous
  sim.RunAll();
  ASSERT_EQ(b.received.size(), 1u);
  EXPECT_EQ(b.received[0].first, ha);
  EXPECT_EQ(b.received[0].second, "hello");
  EXPECT_GE(sim.now(), net.options().min_latency);
}

TEST(NetworkTest, PairLatencyIsStable) {
  Simulation sim(7);
  Network net(&sim, NetworkOptions{});
  HostId a = net.AddHost(nullptr);
  HostId b = net.AddHost(nullptr);
  EXPECT_EQ(net.BaseLatency(a, b), net.BaseLatency(b, a));
  EXPECT_EQ(net.BaseLatency(a, b), net.BaseLatency(a, b));
  EXPECT_GE(net.BaseLatency(a, b), net.options().min_latency);
  EXPECT_LT(net.BaseLatency(a, b), net.options().max_latency);
}

TEST(NetworkTest, SelfSendIsFastAndReliable) {
  NetworkOptions opts;
  opts.loss_rate = 1.0;  // loss must not apply to loopback
  Simulation sim(2);
  Network net(&sim, opts);
  Recorder a;
  HostId ha = net.AddHost(&a);
  ASSERT_TRUE(net.Send(ha, ha, "self").ok());
  sim.RunAll();
  ASSERT_EQ(a.received.size(), 1u);
}

TEST(NetworkTest, LossDropsMessages) {
  NetworkOptions opts;
  opts.loss_rate = 1.0;
  Simulation sim(3);
  Network net(&sim, opts);
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(net.Send(ha, hb, "x").ok());
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_lost, 10u);
}

TEST(NetworkTest, SendToDownHostVanishesSilently) {
  Simulation sim(4);
  Network net(&sim, NetworkOptions{});
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  net.SetHostUp(hb, false);
  ASSERT_TRUE(net.Send(ha, hb, "x").ok());  // no synchronous error
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.stats().messages_to_down_host, 1u);
}

TEST(NetworkTest, SendFromDownHostFails) {
  Simulation sim(5);
  Network net(&sim, NetworkOptions{});
  HostId ha = net.AddHost(nullptr);
  HostId hb = net.AddHost(nullptr);
  net.SetHostUp(ha, false);
  EXPECT_TRUE(net.Send(ha, hb, "x").IsUnavailable());
}

TEST(NetworkTest, CrashDropsInFlightMessages) {
  // A message sent before the destination crashes must not be delivered
  // after it reboots (epoch check).
  Simulation sim(6);
  Network net(&sim, NetworkOptions{});
  Recorder a, b;
  HostId ha = net.AddHost(&a);
  HostId hb = net.AddHost(&b);
  ASSERT_TRUE(net.Send(ha, hb, "pre-crash").ok());
  net.SetHostUp(hb, false);
  net.SetHostUp(hb, true);  // reboot before delivery time
  sim.RunAll();
  EXPECT_TRUE(b.received.empty());
}

TEST(NetworkTest, BandwidthAddsSerializationDelay) {
  NetworkOptions fast;
  fast.jitter = 0;
  NetworkOptions slow = fast;
  slow.bandwidth_bytes_per_sec = 1000;  // 1 KB/s
  std::string big(5000, 'x');

  Simulation sim1(8);
  Network net1(&sim1, fast);
  Recorder r1;
  HostId a1 = net1.AddHost(nullptr);
  HostId b1 = net1.AddHost(&r1);
  ASSERT_TRUE(net1.Send(a1, b1, big).ok());
  sim1.RunAll();
  TimePoint t_fast = sim1.now();

  Simulation sim2(8);  // same seed -> same base latency
  Network net2(&sim2, slow);
  Recorder r2;
  HostId a2 = net2.AddHost(nullptr);
  HostId b2 = net2.AddHost(&r2);
  ASSERT_TRUE(net2.Send(a2, b2, big).ok());
  sim2.RunAll();
  TimePoint t_slow = sim2.now();

  EXPECT_GT(t_slow, t_fast + Seconds(4));  // ~5s serialization at 1KB/s
}

TEST(NetworkTest, PacketBodyBufferIsSharedEndToEnd) {
  // The data plane's zero-copy contract at the lowest layer: the body
  // payload handed to Send is the same buffer the receiver observes.
  Simulation sim(14);
  Network net(&sim, NetworkOptions{});
  struct BodyKeeper : MessageHandler {
    Payload last_body;
    void OnMessage(HostId, const Packet& p) override { last_body = p.body; }
  };
  BodyKeeper keeper;
  HostId a = net.AddHost(nullptr);
  HostId b = net.AddHost(&keeper);
  Payload body(std::string(4096, 'z'));
  uint64_t buffers_before = Payload::buffers_created();
  ASSERT_TRUE(
      net.Send(a, b, Packet(Payload(std::string("hdr")), body)).ok());
  sim.RunAll();
  EXPECT_TRUE(keeper.last_body.SharesBufferWith(body));
  EXPECT_EQ(keeper.last_body.view(), body.view());
  // Only the 3-byte header materialized a new buffer.
  EXPECT_EQ(Payload::buffers_created(), buffers_before + 1);
}

TEST(NetworkTest, StatsCountBytes) {
  Simulation sim(9);
  Network net(&sim, NetworkOptions{});
  HostId a = net.AddHost(nullptr);
  HostId b = net.AddHost(nullptr);
  ASSERT_TRUE(net.Send(a, b, std::string(100, 'x')).ok());
  EXPECT_EQ(net.stats().messages_sent, 1u);
  EXPECT_EQ(net.stats().bytes_sent,
            100 + net.options().per_message_overhead_bytes);
}

// ---------------------------------------------------------------------------
// Churn
// ---------------------------------------------------------------------------

TEST(ChurnTest, GeneratesTransitionsAndAlternates) {
  SCOPED_TRACE("sim seed 10");  // replay: Simulation sim(10)
  Simulation sim(10);
  ChurnOptions opts;
  opts.mean_session = Seconds(50);
  opts.mean_downtime = Seconds(10);
  opts.start_at = Seconds(0);
  std::vector<std::pair<HostId, bool>> transitions;
  ChurnScheduler churn(&sim, opts, [&](HostId h, bool up) {
    transitions.push_back({h, up});
  });
  for (HostId h = 0; h < 10; ++h) churn.Manage(h);
  sim.RunUntil(Seconds(600));
  EXPECT_GT(transitions.size(), 20u);
  // Per host: strictly alternating down/up starting with down.
  std::map<HostId, bool> up_state;
  for (auto& [h, up] : transitions) {
    auto it = up_state.find(h);
    bool was_up = (it == up_state.end()) ? true : it->second;
    EXPECT_NE(was_up, up) << "transition must flip state";
    up_state[h] = up;
  }
}

TEST(ChurnTest, StableFractionNeverChurns) {
  SCOPED_TRACE("sim seed 11");
  Simulation sim(11);
  ChurnOptions opts;
  opts.mean_session = Seconds(10);
  opts.mean_downtime = Seconds(5);
  opts.start_at = Seconds(0);
  opts.stable_fraction = 1.0;
  int transitions = 0;
  ChurnScheduler churn(&sim, opts, [&](HostId, bool) { ++transitions; });
  for (HostId h = 0; h < 20; ++h) churn.Manage(h);
  sim.RunUntil(Seconds(500));
  EXPECT_EQ(transitions, 0);
}

TEST(ChurnTest, StopAtHaltsDepartures) {
  SCOPED_TRACE("sim seed 12");
  Simulation sim(12);
  ChurnOptions opts;
  opts.mean_session = Seconds(20);
  opts.mean_downtime = Seconds(5);
  opts.start_at = Seconds(0);
  opts.stop_at = Seconds(100);
  std::vector<TimePoint> down_times;
  ChurnScheduler churn(&sim, opts, [&](HostId, bool up) {
    if (!up) down_times.push_back(sim.now());
  });
  for (HostId h = 0; h < 20; ++h) churn.Manage(h);
  sim.RunUntil(Seconds(1000));
  for (TimePoint t : down_times) EXPECT_LT(t, Seconds(100));
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

TEST(HistogramTest, BasicStats) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.Add(i);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.Mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.Min(), 1);
  EXPECT_DOUBLE_EQ(h.Max(), 100);
  EXPECT_NEAR(h.Percentile(50), 50.5, 1.0);
  EXPECT_NEAR(h.Percentile(95), 95, 1.5);
}

TEST(HistogramTest, EmptyIsSafe) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.Mean(), 0);
  EXPECT_EQ(h.Percentile(99), 0);
}

TEST(TimeSeriesTest, TsvFormat) {
  TimeSeries ts;
  ts.Record(Seconds(1), 10.0);
  ts.Record(Seconds(2), 20.5);
  std::string tsv = ts.ToTsv("test series");
  EXPECT_NE(tsv.find("# test series"), std::string::npos);
  EXPECT_NE(tsv.find("1.000\t10.000"), std::string::npos);
  EXPECT_NE(tsv.find("2.000\t20.500"), std::string::npos);
}

}  // namespace
}  // namespace sim
}  // namespace pier
