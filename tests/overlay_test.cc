// Overlay tests: Chord ring formation, lookup correctness, consistency with
// a reference successor computation, routing under churn, graceful leave,
// maintenance cost on a stable ring, and the one-hop baseline router.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "overlay/chord.h"
#include "overlay/one_hop.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"
#include "sim/network.h"

namespace pier {
namespace overlay {
namespace {

// Harness hosting N Chord nodes on one simulated network.
class ChordRing : public ::testing::Test {
 protected:
  struct Endpoint : public sim::MessageHandler {
    std::unique_ptr<Transport> transport;
    std::unique_ptr<ChordNode> chord;
    std::vector<RoutedMessage> delivered;
    /// Test hook: sees every inbound packet first; returning true swallows
    /// it (the test may hold it and Dispatch it later).
    std::function<bool(sim::HostId from, const sim::Packet&)> intercept;
    void OnMessage(sim::HostId from, const sim::Packet& packet) override {
      if (intercept && intercept(from, packet)) return;
      transport->Dispatch(from, packet);
    }
  };

  void Build(int n, uint64_t seed = 42, ChordOptions options = {}) {
    // Tear down any previous ring first (nodes before the sim they run on),
    // so one test can build several sizes in turn.
    endpoints_.clear();
    net_.reset();
    sim_ = std::make_unique<sim::Simulation>(seed);
    net_ = std::make_unique<sim::Network>(sim_.get(), sim::NetworkOptions{});
    for (int i = 0; i < n; ++i) {
      auto ep = std::make_unique<Endpoint>();
      sim::HostId host = net_->AddHost(ep.get());
      ep->transport = std::make_unique<Transport>(net_.get(), host);
      Id160 id = Id160::FromName("chord-node-" + std::to_string(i));
      ep->chord = std::make_unique<ChordNode>(ep->transport.get(), id, options);
      Endpoint* raw = ep.get();
      ep->chord->SetDeliverCallback([raw](const RoutedMessage& m) {
        raw->delivered.push_back(m);
      });
      endpoints_.push_back(std::move(ep));
    }
    // Node 0 creates; others join through node 0, staggered.
    endpoints_[0]->chord->Create();
    for (int i = 1; i < n; ++i) {
      sim_->ScheduleAt(Seconds(1) * i / 4, [this, i] {
        endpoints_[i]->chord->Join(0, [](Status) {});
      });
    }
  }

  void Stabilize(Duration how_long = Seconds(60)) { sim_->RunFor(how_long); }

  // Ground truth: the active node whose id is the successor of `key`.
  int ExpectedOwner(const Id160& key) const {
    std::map<Id160, int> ring;
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      if (endpoints_[i]->chord->active() && net_->IsUp(sim::HostId(i))) {
        ring[endpoints_[i]->chord->self().id] = static_cast<int>(i);
      }
    }
    if (ring.empty()) return -1;
    auto it = ring.lower_bound(key);
    if (it == ring.end()) it = ring.begin();
    return it->second;
  }

  uint64_t OverlayMessagesOut() const {
    uint64_t total = 0;
    for (const auto& ep : endpoints_) {
      total += ep->transport->traffic(Proto::kOverlay).messages_out;
    }
    return total;
  }

  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

TEST_F(ChordRing, SingletonOwnsEverything) {
  Build(1);
  Stabilize(Seconds(5));
  EXPECT_TRUE(endpoints_[0]->chord->active());
  EXPECT_TRUE(endpoints_[0]->chord->IsResponsibleFor(Id160::FromName("any")));
  EXPECT_EQ(endpoints_[0]->chord->successor().host, sim::HostId(0));
}

TEST_F(ChordRing, TwoNodesFormRing) {
  Build(2);
  Stabilize(Seconds(30));
  auto& a = endpoints_[0]->chord;
  auto& b = endpoints_[1]->chord;
  ASSERT_TRUE(a->active());
  ASSERT_TRUE(b->active());
  EXPECT_EQ(a->successor().host, sim::HostId(1));
  EXPECT_EQ(b->successor().host, sim::HostId(0));
  ASSERT_TRUE(a->predecessor().has_value());
  ASSERT_TRUE(b->predecessor().has_value());
  EXPECT_EQ(a->predecessor()->host, sim::HostId(1));
  EXPECT_EQ(b->predecessor()->host, sim::HostId(0));
}

TEST_F(ChordRing, RingIsConsistentAfterStabilization) {
  const int n = 32;
  Build(n);
  Stabilize(Seconds(90));
  // Every node's successor must be the true ring successor.
  std::map<Id160, int> ring;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(endpoints_[i]->chord->active()) << i;
    ring[endpoints_[i]->chord->self().id] = i;
  }
  for (auto it = ring.begin(); it != ring.end(); ++it) {
    auto next = std::next(it) == ring.end() ? ring.begin() : std::next(it);
    const auto& chord = endpoints_[it->second]->chord;
    EXPECT_EQ(chord->successor().host, sim::HostId(next->second))
        << "node " << it->second << " has wrong successor";
    ASSERT_TRUE(chord->predecessor().has_value());
    auto prev = it == ring.begin() ? std::prev(ring.end()) : std::prev(it);
    EXPECT_EQ(chord->predecessor()->host, sim::HostId(prev->second))
        << "node " << it->second << " has wrong predecessor";
  }
}

TEST_F(ChordRing, LookupsResolveToTrueOwner) {
  const int n = 24;
  Build(n);
  Stabilize(Seconds(90));
  int checked = 0, correct = 0;
  for (int k = 0; k < 50; ++k) {
    Id160 key = Id160::FromName("key-" + std::to_string(k));
    int expected = ExpectedOwner(key);
    int origin = k % n;
    endpoints_[origin]->chord->Lookup(
        key, [&, expected](Status s, const NodeInfo& owner, int /*hops*/) {
          ASSERT_TRUE(s.ok());
          ++checked;
          if (static_cast<int>(owner.host) == expected) ++correct;
        });
  }
  Stabilize(Seconds(10));
  EXPECT_EQ(checked, 50);
  EXPECT_EQ(correct, 50);
}

TEST_F(ChordRing, LookupHopsScaleLogarithmically) {
  const int n = 64;
  Build(n);
  Stabilize(Seconds(120));
  sim::Histogram hops;
  for (int k = 0; k < 200; ++k) {
    Id160 key = Id160::FromName("hopkey-" + std::to_string(k));
    endpoints_[k % n]->chord->Lookup(
        key, [&](Status s, const NodeInfo&, int h) {
          if (s.ok()) hops.Add(h);
        });
  }
  Stabilize(Seconds(15));
  ASSERT_GT(hops.count(), 190u);
  // log2(64) = 6; average should be around 0.5*log2(n) ~ 3, well under n/4.
  EXPECT_LT(hops.Mean(), 8.0);
  EXPECT_GT(hops.Mean(), 0.5);
}

TEST_F(ChordRing, RouteDeliversToResponsibleNode) {
  const int n = 16;
  Build(n);
  Stabilize(Seconds(60));
  Id160 key = Id160::FromName("routed-key");
  int expected = ExpectedOwner(key);
  endpoints_[3]->chord->Route(key, /*app_tag=*/7, sim::Payload("payload-bytes"));
  Stabilize(Seconds(10));
  ASSERT_EQ(endpoints_[expected]->delivered.size(), 1u);
  const RoutedMessage& m = endpoints_[expected]->delivered[0];
  EXPECT_EQ(m.key, key);
  EXPECT_EQ(m.app_tag, 7);
  EXPECT_EQ(m.origin, sim::HostId(3));
  EXPECT_EQ(m.payload.view(), "payload-bytes");
}

TEST_F(ChordRing, RingHealsAfterCrash) {
  const int n = 16;
  Build(n);
  Stabilize(Seconds(60));
  // Crash 3 nodes (not node 0, our query origin).
  for (int victim : {5, 9, 13}) {
    endpoints_[victim]->chord->Fail();
    net_->SetHostUp(sim::HostId(victim), false);
  }
  Stabilize(Seconds(60));  // allow failure detection + repair
  // All lookups from all surviving nodes must resolve to live true owners.
  int correct = 0, total = 0;
  for (int k = 0; k < 40; ++k) {
    Id160 key = Id160::FromName("heal-key-" + std::to_string(k));
    int expected = ExpectedOwner(key);
    endpoints_[0]->chord->Lookup(
        key, [&, expected](Status s, const NodeInfo& owner, int) {
          ++total;
          if (s.ok() && static_cast<int>(owner.host) == expected) ++correct;
        });
  }
  Stabilize(Seconds(15));
  EXPECT_EQ(total, 40);
  EXPECT_GE(correct, 38);  // soft state: allow a transient straggler
}

TEST_F(ChordRing, GracefulLeaveSplicesRing) {
  const int n = 8;
  Build(n);
  Stabilize(Seconds(60));
  endpoints_[4]->chord->Leave();
  net_->SetHostUp(sim::HostId(4), false);
  Stabilize(Seconds(30));
  for (int i = 0; i < n; ++i) {
    if (i == 4) continue;
    EXPECT_NE(endpoints_[i]->chord->successor().host, sim::HostId(4))
        << "node " << i << " still routes through departed node";
  }
}

TEST_F(ChordRing, JoinToDeadBootstrapFails) {
  Build(2);
  Stabilize(Seconds(30));
  // A third node tries to join via a host that is down.
  auto ep = std::make_unique<Endpoint>();
  sim::HostId host = net_->AddHost(ep.get());
  ep->transport = std::make_unique<Transport>(net_.get(), host);
  ChordOptions fast;
  fast.max_join_attempts = 2;
  fast.join_retry_interval = Millis(500);
  ep->chord =
      std::make_unique<ChordNode>(ep->transport.get(),
                                  Id160::FromName("late-joiner"), fast);
  net_->SetHostUp(sim::HostId(0), false);
  endpoints_[0]->chord->Fail();
  Status join_status = Status::OK();
  bool done = false;
  ep->chord->Join(0, [&](Status s) {
    join_status = s;
    done = true;
  });
  Stabilize(Seconds(30));
  EXPECT_TRUE(done);
  EXPECT_FALSE(join_status.ok());
  endpoints_.push_back(std::move(ep));
}

TEST_F(ChordRing, RoutingNeighborsAreLiveAndDistinct) {
  const int n = 24;
  Build(n);
  Stabilize(Seconds(90));
  auto neighbors = endpoints_[1]->chord->RoutingNeighbors();
  EXPECT_GT(neighbors.size(), 3u);
  std::set<sim::HostId> seen;
  for (const auto& nb : neighbors) {
    EXPECT_NE(nb.host, sim::HostId(1)) << "self in neighbor list";
    EXPECT_TRUE(seen.insert(nb.host).second) << "duplicate neighbor";
  }
}

TEST_F(ChordRing, StatsAreAccounted) {
  Build(8);
  Stabilize(Seconds(60));
  for (int k = 0; k < 10; ++k) {
    endpoints_[0]->chord->Lookup(Id160::FromName("s" + std::to_string(k)),
                                 [](Status, const NodeInfo&, int) {});
  }
  Stabilize(Seconds(10));
  const ChordStats& st = endpoints_[0]->chord->stats();
  EXPECT_GE(st.lookups_ok, 9u);
  EXPECT_GT(st.stabilize_rounds, 10u);
}

// Every finger slot i must hold the true owner of self + 2^i: the slots a
// node resolves from its own successor and the ones it looks up over the
// network alike. On a small ring nearly every slot falls before the
// successor; on a large one more of them route.
TEST_F(ChordRing, FingersMatchReferenceRing) {
  for (int n : {16, 64, 200}) {
    SCOPED_TRACE("ring size " + std::to_string(n));
    Build(n, /*seed=*/2000 + n);
    Stabilize(Seconds(60) + Seconds(1) * n / 2);
    int mismatched = 0;
    for (int i = 0; i < n; ++i) {
      const ChordNode& chord = *endpoints_[i]->chord;
      ASSERT_TRUE(chord.active()) << i;
      std::set<sim::HostId> expected;
      for (int bit = 0; bit < Id160::kBits; ++bit) {
        int owner = ExpectedOwner(chord.self().id.AddPowerOfTwo(bit));
        if (owner != i) expected.insert(sim::HostId(owner));
      }
      std::set<sim::HostId> actual;
      for (const NodeInfo& f : chord.FingerEntries()) actual.insert(f.host);
      if (actual != expected) ++mismatched;
    }
    EXPECT_EQ(mismatched, 0);
  }
}

// A settled ring's upkeep is stabilize (request, reply and notify), the
// predecessor ping and its reply, and lookups for the finger slots past the
// successor: about 8 + log2(n) / 10 * (lookup path + 1) messages per node
// per second. Slots the successor owns cost no messages.
TEST_F(ChordRing, StableRingMaintenanceRateIsBounded) {
  for (int n : {64, 300}) {
    SCOPED_TRACE("ring size " + std::to_string(n));
    Build(n);
    Stabilize(Seconds(120));
    uint64_t before = OverlayMessagesOut();
    const int kWindowS = 60;
    Stabilize(Seconds(kWindowS));
    double sent = static_cast<double>(OverlayMessagesOut() - before);
    double per_node_second = sent / (static_cast<double>(n) * kWindowS);
    EXPECT_LE(per_node_second, 15.0);
  }
}

// A stabilize reply describes the neighbourhood of the successor it was
// asked of. If that successor has left in the meantime, the reply must not
// resurrect it (nor read the head of an emptied successor list).
TEST_F(ChordRing, StaleStabilizeReplyAfterLeaveIsDropped) {
  // First byte is Proto::kOverlay, second ChordNode's GET_NEIGHBORS reply.
  constexpr uint8_t kGetNeighborsResp = 5;
  Build(2);
  Stabilize(Seconds(30));
  Endpoint& a = *endpoints_[0];
  ChordNode& b = *endpoints_[1]->chord;
  ASSERT_EQ(a.chord->successor().host, sim::HostId(1));

  std::optional<sim::Packet> held;
  a.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    std::string_view head = packet.head.view();
    if (held.has_value() || from != sim::HostId(1) || head.size() < 2 ||
        head[0] != static_cast<char>(Proto::kOverlay) ||
        head[1] != static_cast<char>(kGetNeighborsResp)) {
      return false;
    }
    held = packet;
    return true;
  };
  for (int step = 0; step < 40 && !held.has_value(); ++step) {
    sim_->RunFor(Millis(50));
  }
  ASSERT_TRUE(held.has_value());

  // B departs; its leave notice empties A's successor list.
  b.Leave();
  net_->SetHostUp(sim::HostId(1), false);
  sim_->RunFor(Millis(200));
  ASSERT_TRUE(a.chord->successor_list().empty());

  // The held reply now arrives, still inside its RPC timeout.
  a.intercept = nullptr;
  a.transport->Dispatch(sim::HostId(1), *held);
  for (const NodeInfo& s : a.chord->successor_list()) {
    EXPECT_NE(s.host, sim::HostId(1)) << "departed successor came back";
  }
  EXPECT_EQ(a.chord->successor().host, sim::HostId(0));
}

// Sweep ring sizes: lookups stay correct as n grows (property-style).
class ChordScaleTest : public ChordRing,
                       public ::testing::WithParamInterface<int> {};

TEST_P(ChordScaleTest, LookupCorrectAtScale) {
  const int n = GetParam();
  Build(n, /*seed=*/1000 + n);
  Stabilize(Seconds(60) + Seconds(2) * n / 4);
  int correct = 0, total = 0;
  for (int k = 0; k < 30; ++k) {
    Id160 key = Id160::FromName("scale-key-" + std::to_string(k));
    int expected = ExpectedOwner(key);
    endpoints_[k % n]->chord->Lookup(
        key, [&, expected](Status s, const NodeInfo& owner, int) {
          ++total;
          if (s.ok() && static_cast<int>(owner.host) == expected) ++correct;
        });
  }
  Stabilize(Seconds(15));
  EXPECT_EQ(total, 30);
  EXPECT_EQ(correct, 30) << "ring size " << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, ChordScaleTest,
                         ::testing::Values(2, 4, 8, 16, 48));

// ---------------------------------------------------------------------------
// One-hop baseline
// ---------------------------------------------------------------------------

class OneHopTest : public ::testing::Test {
 protected:
  struct Endpoint : public sim::MessageHandler {
    std::unique_ptr<Transport> transport;
    std::unique_ptr<OneHopRouter> router;
    std::vector<RoutedMessage> delivered;
    void OnMessage(sim::HostId from, const sim::Packet& packet) override {
      transport->Dispatch(from, packet);
    }
  };

  void Build(int n) {
    sim_ = std::make_unique<sim::Simulation>(99);
    net_ = std::make_unique<sim::Network>(sim_.get(), sim::NetworkOptions{});
    for (int i = 0; i < n; ++i) {
      auto ep = std::make_unique<Endpoint>();
      sim::HostId host = net_->AddHost(ep.get());
      ep->transport = std::make_unique<Transport>(net_.get(), host);
      ep->router = std::make_unique<OneHopRouter>(
          ep->transport.get(), Id160::FromName("onehop-" + std::to_string(i)),
          &directory_);
      Endpoint* raw = ep.get();
      ep->router->SetDeliverCallback([raw](const RoutedMessage& m) {
        raw->delivered.push_back(m);
      });
      ep->router->Activate();
      endpoints_.push_back(std::move(ep));
    }
  }

  Directory directory_;
  std::unique_ptr<sim::Simulation> sim_;
  std::unique_ptr<sim::Network> net_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
};

TEST_F(OneHopTest, RoutesToOwnerInOneHop) {
  Build(10);
  Id160 key = Id160::FromName("some-key");
  NodeInfo owner = directory_.Owner(key);
  endpoints_[0]->router->Route(key, 1, sim::Payload("data"));
  sim_->RunAll();
  auto& delivered = endpoints_[owner.host]->delivered;
  ASSERT_EQ(delivered.size(), 1u);
  EXPECT_LE(delivered[0].hops, 1);
}

TEST_F(OneHopTest, OwnershipMatchesSuccessorRule) {
  Build(10);
  for (int k = 0; k < 20; ++k) {
    Id160 key = Id160::FromName("ok-" + std::to_string(k));
    NodeInfo owner = directory_.Owner(key);
    int responsible_count = 0;
    for (auto& ep : endpoints_) {
      if (ep->router->IsResponsibleFor(key)) ++responsible_count;
    }
    EXPECT_EQ(responsible_count, 1);
    EXPECT_TRUE(endpoints_[owner.host]->router->IsResponsibleFor(key));
  }
}

TEST_F(OneHopTest, DeactivateRemovesFromRing) {
  Build(5);
  Id160 key = Id160::FromName("migrating-key");
  NodeInfo owner1 = directory_.Owner(key);
  endpoints_[owner1.host]->router->Deactivate();
  NodeInfo owner2 = directory_.Owner(key);
  EXPECT_NE(owner1.host, owner2.host);
  EXPECT_EQ(directory_.size(), 4u);
}

TEST_F(OneHopTest, LookupIsAsynchronous) {
  Build(4);
  bool fired = false;
  endpoints_[0]->router->Lookup(Id160::FromName("k"),
                                [&](Status s, const NodeInfo&, int) {
                                  EXPECT_TRUE(s.ok());
                                  fired = true;
                                });
  EXPECT_FALSE(fired);  // must not complete re-entrantly
  sim_->RunAll();
  EXPECT_TRUE(fired);
}

}  // namespace
}  // namespace overlay
}  // namespace pier
