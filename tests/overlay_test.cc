// Overlay tests: Chord ring formation, lookup correctness, consistency with
// a reference successor computation, routing under churn, graceful leave,
// maintenance cost on a stable ring, the stabilize exchange (changes past
// the neighbourhood digest, the heartbeat, malformed messages), finger
// refresh (asking the held finger, recovery from crashes and joins, an
// unanswered finger dropped but not suspected), suspicion on silence only (a
// lost stabilize exchange suspects no one; a crashed neighbour is evicted
// within a bound, lossy links or not), the routing loop guard, and the
// one-hop baseline router.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "overlay/chord.h"
#include "overlay/one_hop.h"
#include "overlay/transport.h"
#include "sim/event_queue.h"
#include "sim/fault_plane.h"
#include "sim/network.h"

namespace pier {
namespace overlay {
namespace {

// ChordNode's wire, after the Proto::kOverlay byte: a routed message, the
// FIND_SUCCESSOR request and reply, the stabilize request and reply, and the
// liveness ping. A stabilize reply's form byte follows its request id: the
// neighbourhood is unchanged, or follows.
constexpr uint8_t kRouteType = 1;
constexpr uint8_t kFindSuccReqType = 2;
constexpr uint8_t kFindSuccRespType = 3;
constexpr uint8_t kStabilizeReqType = 4;
constexpr uint8_t kStabilizeRespType = 5;
constexpr uint8_t kPingReqType = 7;
constexpr uint8_t kUnchangedForm = 0;
constexpr uint8_t kFollowsForm = 1;

// The message type of an overlay frame; 0 for any other frame.
uint8_t OverlayType(const sim::Packet& packet) {
  std::string_view head = packet.head.view();
  if (head.size() < 2 || head[0] != static_cast<char>(Proto::kOverlay)) {
    return 0;
  }
  return static_cast<uint8_t>(head[1]);
}

// Offset of a stabilize reply's form byte, just past [proto][type][req_id].
size_t ReplyFormOffset(std::string_view head) {
  size_t at = 2;
  while (at < head.size() && (static_cast<uint8_t>(head[at]) & 0x80) != 0) {
    ++at;
  }
  return at + 1;
}

// The form byte of a stabilize reply; nullopt for any other frame.
std::optional<uint8_t> ReplyForm(const sim::Packet& packet) {
  if (OverlayType(packet) != kStabilizeRespType) return std::nullopt;
  std::string_view head = packet.head.view();
  size_t at = ReplyFormOffset(head);
  if (at >= head.size()) return std::nullopt;
  return static_cast<uint8_t>(head[at]);
}

// The hop count a FIND_SUCCESSOR request carries; nullopt for any other
// frame. The request is [key][req_id][reply_to][hops].
std::optional<uint32_t> FindSuccHops(const sim::Packet& packet) {
  if (OverlayType(packet) != kFindSuccReqType) return std::nullopt;
  Reader r(packet.head.view().substr(2));
  uint8_t key[Id160::kBytes];
  uint64_t req_id = 0;
  uint32_t reply_to = 0, hops = 0;
  if (!r.GetRaw(key, sizeof(key)).ok() || !r.GetVarint64(&req_id).ok() ||
      !r.GetFixed32(&reply_to).ok() || !r.GetVarint32(&hops).ok()) {
    return std::nullopt;
  }
  return hops;
}

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

  void Build(int n, uint64_t seed = 42) {
    // Tear down any previous ring first (nodes before the sim they run on),
    // so one test can build several sizes in turn.
    endpoints_.clear();
    net_.reset();
    sim_ = std::make_unique<sim::Simulation>(seed);
    net_ = std::make_unique<sim::Network>(sim_.get(), sim::NetworkOptions{});
    for (int i = 0; i < n; ++i) {
      AddNode("chord-node-" + std::to_string(i));
    }
    // Node 0 creates; others join through node 0, staggered.
    endpoints_[0]->chord->Create();
    for (int i = 1; i < n; ++i) {
      sim_->ScheduleAt(Seconds(1) * i / 4, [this, i] {
        endpoints_[i]->chord->Join(0, [](Status) {});
      });
    }
  }

  // Adds a node (not yet joined) whose id hashes `name`; returns its index,
  // which is also its host id.
  int AddNode(const std::string& name) {
    auto ep = std::make_unique<Endpoint>();
    sim::HostId host = net_->AddHost(ep.get());
    ep->transport = std::make_unique<Transport>(net_.get(), host);
    ep->chord = std::make_unique<ChordNode>(ep->transport.get(),
                                            Id160::FromName(name));
    Endpoint* raw = ep.get();
    ep->chord->SetDeliverCallback([raw](const RoutedMessage& m) {
      raw->delivered.push_back(m);
    });
    endpoints_.push_back(std::move(ep));
    return static_cast<int>(host);
  }

  void Stabilize(Duration how_long = Seconds(60)) { sim_->RunFor(how_long); }

  // Runs until `done` holds, in `step`s, for at most `limit`; returns
  // whether it held.
  bool RunUntil(const std::function<bool()>& done, Duration limit,
                Duration step = Millis(10)) {
    TimePoint until = sim_->now() + limit;
    while (!done()) {
      if (sim_->now() >= until) return false;
      sim_->RunFor(step);
    }
    return true;
  }

  // The active nodes' indices by id: the reference ring.
  std::map<Id160, int> ReferenceRing() const {
    std::map<Id160, int> ring;
    for (size_t i = 0; i < endpoints_.size(); ++i) {
      if (endpoints_[i]->chord->active() && net_->IsUp(sim::HostId(i))) {
        ring[endpoints_[i]->chord->self().id] = static_cast<int>(i);
      }
    }
    return ring;
  }

  // The node of `ring` whose id is the successor of `key`; -1 if empty.
  static int OwnerIn(const std::map<Id160, int>& ring, const Id160& key) {
    if (ring.empty()) return -1;
    auto it = ring.lower_bound(key);
    if (it == ring.end()) it = ring.begin();
    return it->second;
  }

  // Indices of the active nodes, in ring (id) order.
  std::vector<int> RingOrder() const {
    std::vector<int> order;
    for (const auto& [id, i] : ReferenceRing()) order.push_back(i);
    return order;
  }

  // The active nodes just before and just after `id` on the ring.
  std::pair<int, int> Neighbours(const Id160& id) const {
    std::vector<int> order = RingOrder();
    size_t after = 0;
    while (after < order.size() &&
           endpoints_[order[after]]->chord->self().id < id) {
      ++after;
    }
    size_t before = (after + order.size() - 1) % order.size();
    return {order[before], order[after % order.size()]};
  }

  // Ground truth: the active node whose id is the successor of `key`.
  int ExpectedOwner(const Id160& key) const {
    return OwnerIn(ReferenceRing(), key);
  }

  // Active nodes whose distinct finger entries are not the true owners of
  // their self + 2^i targets (the FingersMatchReferenceRing check).
  int MismatchedFingerTables() const {
    const std::map<Id160, int> ring = ReferenceRing();
    int mismatched = 0;
    for (const auto& [id, i] : ring) {
      std::set<sim::HostId> expected;
      for (int bit = 0; bit < Id160::kBits; ++bit) {
        int owner = OwnerIn(ring, id.AddPowerOfTwo(bit));
        if (owner != i) expected.insert(sim::HostId(owner));
      }
      std::set<sim::HostId> actual;
      for (const NodeInfo& f : endpoints_[i]->chord->FingerEntries()) {
        actual.insert(f.host);
      }
      if (actual != expected) ++mismatched;
    }
    return mismatched;
  }

  uint64_t OverlayMessagesOut() const {
    uint64_t total = 0;
    for (const auto& ep : endpoints_) {
      total += ep->transport->traffic(Proto::kOverlay).messages_out;
    }
    return total;
  }

  uint64_t OverlayBytesOut() const {
    uint64_t total = 0;
    for (const auto& ep : endpoints_) {
      total += ep->transport->traffic(Proto::kOverlay).bytes_out;
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
  ep->chord = std::make_unique<ChordNode>(ep->transport.get(),
                                          Id160::FromName("late-joiner"));
  net_->SetHostUp(sim::HostId(0), false);
  endpoints_[0]->chord->Fail();
  Status join_status = Status::OK();
  bool done = false;
  ep->chord->Join(0, [&](Status s) {
    join_status = s;
    done = true;
  });
  Stabilize(Seconds(30));  // the 8 join attempts give up after about 20 s
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

// A settled ring's upkeep is one stabilize exchange every 500 ms and, every
// 10 s fix-fingers cycle, one request to the held finger and its reply for
// each of the ~log2(n) slots past the successor: about 4 + 2 * log2(n) / 10
// messages per node per second. The stabilize request (~37 B) carries the
// notify and is the predecessor's heartbeat, so no ping goes out; its reply
// is a few bytes while the successor's neighbourhood is unchanged. Slots the
// successor owns cost no messages. Measured: 5.25 messages and ~118 B at 64
// nodes, 5.71 and ~132 B at 300.
TEST_F(ChordRing, StableRingMaintenanceRateIsBounded) {
  for (int n : {64, 300}) {
    SCOPED_TRACE("ring size " + std::to_string(n));
    Build(n);
    Stabilize(Seconds(120));
    uint64_t msgs_before = OverlayMessagesOut();
    uint64_t bytes_before = OverlayBytesOut();
    const int kWindowS = 60;
    Stabilize(Seconds(kWindowS));
    const double node_seconds = static_cast<double>(n) * kWindowS;
    double msgs = static_cast<double>(OverlayMessagesOut() - msgs_before);
    double bytes = static_cast<double>(OverlayBytesOut() - bytes_before);
    EXPECT_LE(msgs / node_seconds, 6.0);
    EXPECT_LE(bytes / node_seconds, 160.0);
  }
}

// On a settled ring every finger a slot holds still owns the slot's target,
// so fix-fingers asks it and it answers: no FIND_SUCCESSOR request is ever
// forwarded (a routed lookup's request arrives with a hop count of 1 or
// more past its first hop).
TEST_F(ChordRing, FingerRefreshAsksTheHeldFinger) {
  const int n = 200;
  Build(n);
  Stabilize(Seconds(120));
  int direct = 0, forwarded = 0;
  for (auto& ep : endpoints_) {
    ep->intercept = [&](sim::HostId, const sim::Packet& packet) {
      std::optional<uint32_t> hops = FindSuccHops(packet);
      if (hops.has_value()) ++(*hops == 0 ? direct : forwarded);
      return false;
    };
  }
  Stabilize(Seconds(60));
  for (auto& ep : endpoints_) ep->intercept = nullptr;
  EXPECT_EQ(forwarded, 0);
  // Each node asks for each of its ~log2(n) slots past the successor once
  // per 10 s cycle.
  EXPECT_GT(direct, n * 6 * 5);
}

// A finger that stops answering is dropped from its slot and the slot is
// looked up the routed way, so crashed fingers leave every table, and joins
// through node 0, which held the four crashed nodes as fingers, get through.
// A joiner's ownership reaches the tables through the old owner, which
// forwards what it no longer owns. Both settle within a few fix-fingers
// cycles.
TEST_F(ChordRing, FingersRecoverFromCrashesAndJoins) {
  Build(200);
  Stabilize(Seconds(120));
  ASSERT_EQ(MismatchedFingerTables(), 0);
  std::vector<NodeInfo> fingers = endpoints_[0]->chord->FingerEntries();
  const sim::HostId succ = endpoints_[0]->chord->successor().host;
  fingers.erase(std::remove_if(fingers.begin(), fingers.end(),
                               [succ](const NodeInfo& f) {
                                 return f.host == succ;
                               }),
                fingers.end());
  ASSERT_GE(fingers.size(), 4u);
  // The farthest four: the slots a routed lookup reaches last.
  for (size_t k = fingers.size() - 4; k < fingers.size(); ++k) {
    endpoints_[fingers[k].host]->chord->Fail();
    net_->SetHostUp(fingers[k].host, false);
  }
  for (int j = 0; j < 10; ++j) {
    const int joiner = AddNode("finger-joiner-" + std::to_string(j));
    endpoints_[joiner]->chord->Join(0, [](Status) {});
  }
  EXPECT_TRUE(RunUntil([&] { return MismatchedFingerTables() == 0; },
                       Seconds(30), Seconds(1)))
      << MismatchedFingerTables() << " finger tables still differ";
  EXPECT_EQ(ReferenceRing().size(), 206u);
}

// A live finger whose replies are lost is dropped from its slots but not
// suspected, so it is not evicted for suspect_ttl: once its replies get
// through again, the routed lookups of the emptied slots find it.
TEST_F(ChordRing, UnansweredFingerIsDroppedNotSuspected) {
  Build(64);
  Stabilize(Seconds(90));
  Endpoint& a = *endpoints_[0];
  const NodeInfo far = a.chord->FingerEntries().back();
  ASSERT_NE(far.host, a.chord->successor().host);
  auto holds_far = [&] {
    for (const NodeInfo& f : a.chord->FingerEntries()) {
      if (f.host == far.host) return true;
    }
    return false;
  };
  const uint64_t suspects_before = a.chord->stats().suspects_marked;
  bool lose = true;
  a.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    return lose && from == far.host &&
           OverlayType(packet) == kFindSuccRespType;
  };
  // Each slot holding it is asked within one 10 s cycle and times out.
  ASSERT_TRUE(RunUntil([&] { return !holds_far(); }, Seconds(12)));
  lose = false;
  EXPECT_TRUE(RunUntil(holds_far, Seconds(12)));
  EXPECT_EQ(a.chord->stats().suspects_marked, suspects_before);
  a.intercept = nullptr;
}

// The loop guard reads the hop count as the unsigned number it is on the
// wire: a routed message or FIND_SUCCESSOR request at or past
// max_route_hops (64), however large, is dropped by a node that does not
// own its key (neither answered, nor forwarded, nor delivered), where a
// count past 2^31 used to turn negative or wrap to 0 and pass.
TEST_F(ChordRing, HopCountsAtOrPastTheGuardAreDropped) {
  const int n = 16;
  Build(n);
  Stabilize(Seconds(60));
  const Id160 key = Id160::FromName("guarded-key");
  const int owner = ExpectedOwner(key);
  const int at = (owner + 1) % n;
  const sim::HostId reply_to = sim::HostId((owner + 2) % n);
  constexpr uint64_t kReqId = 0x5eed5eedull;
  const std::string_view key_bytes(
      reinterpret_cast<const char*>(key.bytes().data()), Id160::kBytes);

  // Sees the message anywhere on the ring: forwarded (its key on the wire)
  // or answered (a reply under its request id).
  bool seen = false;
  for (auto& ep : endpoints_) {
    ep->intercept = [&](sim::HostId, const sim::Packet& packet) {
      uint8_t type = OverlayType(packet);
      std::string_view head = packet.head.view();
      if ((type == kRouteType || type == kFindSuccReqType) &&
          head.substr(2, Id160::kBytes) == key_bytes) {
        seen = true;
      }
      uint64_t req_id = 0;
      Reader r(head.substr(std::min<size_t>(2, head.size())));
      if (type == kFindSuccRespType && r.GetVarint64(&req_id).ok() &&
          req_id == kReqId) {
        seen = true;
      }
      return false;
    };
  }
  auto delivered = [&] {
    size_t total = 0;
    for (const auto& ep : endpoints_) total += ep->delivered.size();
    return total;
  };
  auto send = [&](uint8_t type, uint32_t hops) {
    Writer w;
    w.PutU8(static_cast<uint8_t>(Proto::kOverlay));
    w.PutU8(type);
    key.Serialize(&w);
    if (type == kRouteType) {
      w.PutU8(/*app_tag=*/7);
      w.PutFixed32(reply_to);  // origin
    } else {
      w.PutVarint64(kReqId);
      w.PutFixed32(reply_to);
    }
    w.PutVarint32(hops);
    endpoints_[at]->transport->Dispatch(
        reply_to,
        sim::Packet(sim::Payload(w.buffer()), sim::Payload("routed-body")));
  };

  for (uint8_t type : {kRouteType, kFindSuccReqType}) {
    for (uint32_t hops : {64u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFFu}) {
      SCOPED_TRACE("type " + std::to_string(type) + ", hops " +
                   std::to_string(hops));
      const size_t delivered_before = delivered();
      send(type, hops);
      Stabilize(Seconds(5));
      EXPECT_FALSE(seen);
      EXPECT_EQ(delivered(), delivered_before);
      seen = false;
    }
    // The same message with a low count goes through.
    SCOPED_TRACE("type " + std::to_string(type) + ", hops 0");
    send(type, 0);
    Stabilize(Seconds(5));
    EXPECT_TRUE(seen);
    seen = false;
  }
  for (auto& ep : endpoints_) ep->intercept = nullptr;
}

// A join changes its neighbours' neighbourhoods, so their digests change and
// the news passes back along the ring: within 10 s the joiner is in the
// successor lists of the 8 nodes before it.
TEST_F(ChordRing, JoinReachesPrecedingSuccessorLists) {
  Build(64);
  Stabilize(Seconds(60));
  const int joiner = AddNode("late-joiner");
  endpoints_[joiner]->chord->Join(0, [](Status) {});
  Stabilize(Seconds(10));
  ASSERT_TRUE(endpoints_[joiner]->chord->active());
  std::vector<int> ring = RingOrder();
  size_t at = std::find(ring.begin(), ring.end(), joiner) - ring.begin();
  ASSERT_LT(at, ring.size());
  for (size_t back = 1; back <= 8; ++back) {
    const ChordNode& node =
        *endpoints_[ring[(at + ring.size() - back) % ring.size()]]->chord;
    const std::vector<NodeInfo>& list = node.successor_list();
    EXPECT_TRUE(std::any_of(list.begin(), list.end(),
                            [&](const NodeInfo& e) {
                              return e.host == sim::HostId(joiner);
                            }))
        << "missing from the list of the node " << back << " before it";
  }
}

// The asker echoes the digest of the neighbourhood it holds, so a lost
// "changed" reply is no lost change: the next round's reply carries it
// again. Here the joiner's predecessor loses the first reply that names the
// joiner, and adopts the joiner one round later, well before that reply's
// RPC times out.
TEST_F(ChordRing, LostChangedReplyIsResent) {
  Build(64);
  Stabilize(Seconds(60));
  const int joiner = AddNode("late-joiner");
  auto [pred, succ] = Neighbours(endpoints_[joiner]->chord->self().id);
  Endpoint& p = *endpoints_[pred];
  ASSERT_EQ(p.chord->successor().host, sim::HostId(succ));
  TimePoint swallowed_at = -1;
  p.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    if (swallowed_at >= 0 || from != sim::HostId(succ) ||
        ReplyForm(packet) != kFollowsForm) {
      return false;
    }
    swallowed_at = sim_->now();
    return true;
  };
  endpoints_[joiner]->chord->Join(0, [](Status) {});
  ASSERT_TRUE(RunUntil([&] { return swallowed_at >= 0; }, Seconds(10)));
  EXPECT_NE(p.chord->successor().host, sim::HostId(joiner));
  ASSERT_TRUE(RunUntil(
      [&] { return p.chord->successor().host == sim::HostId(joiner); },
      Seconds(10)));
  EXPECT_LT(sim_->now() - swallowed_at, Seconds(1));
  p.intercept = nullptr;
}

// A predecessor's stabilize requests are its heartbeat: a settled ring with
// no loss sends no ping, and a crashed predecessor, silent from then on, is
// pinged and dropped within 5 s.
TEST_F(ChordRing, StabilizeRequestIsThePredecessorHeartbeat) {
  const int n = 32;
  Build(n);
  Stabilize(Seconds(60));
  int pings = 0;
  for (auto& ep : endpoints_) {
    ep->intercept = [&pings](sim::HostId, const sim::Packet& packet) {
      pings += OverlayType(packet) == kPingReqType ? 1 : 0;
      return false;
    };
  }
  Stabilize(Seconds(60));
  EXPECT_EQ(pings, 0);

  const int victim = 7;
  const ChordNode& succ =
      *endpoints_[endpoints_[victim]->chord->successor().host]->chord;
  ASSERT_TRUE(succ.predecessor().has_value());
  ASSERT_EQ(succ.predecessor()->host, sim::HostId(victim));
  const uint64_t suspects_before = succ.stats().suspects_marked;
  endpoints_[victim]->chord->Fail();
  net_->SetHostUp(sim::HostId(victim), false);
  EXPECT_TRUE(RunUntil(
      [&] {
        return !succ.predecessor().has_value() ||
               succ.predecessor()->host != sim::HostId(victim);
      },
      Seconds(5)));
  // The silence cost a ping, and its timeout the suspicion.
  EXPECT_GT(succ.stats().suspects_marked, suspects_before);
  for (auto& ep : endpoints_) ep->intercept = nullptr;
}

// A lost stabilize request or reply is not a crash. Each node in turn loses
// one stabilize reply from its successor, then its successor loses one of
// its requests: the timed-out request finds a later reply already in, so no
// node marks a suspect and every neighbourhood stays as it was.
TEST_F(ChordRing, OneLostStabilizeExchangeSuspectsNoOne) {
  const int n = 16;
  Build(n);
  Stabilize(Seconds(60));
  auto suspects = [&] {
    uint64_t total = 0;
    for (const auto& ep : endpoints_) {
      total += ep->chord->stats().suspects_marked;
    }
    return total;
  };
  std::vector<std::vector<NodeInfo>> lists;
  std::vector<std::optional<NodeInfo>> preds;
  for (const auto& ep : endpoints_) {
    lists.push_back(ep->chord->successor_list());
    preds.push_back(ep->chord->predecessor());
  }
  const uint64_t suspects_before = suspects();
  for (int i = 0; i < n; ++i) {
    const sim::HostId succ = endpoints_[i]->chord->successor().host;
    for (bool lose_reply : {true, false}) {
      SCOPED_TRACE("node " + std::to_string(i) +
                   (lose_reply ? " loses a reply" : " loses a request"));
      Endpoint& at = lose_reply ? *endpoints_[i] : *endpoints_[succ];
      const sim::HostId from = lose_reply ? succ : sim::HostId(i);
      const uint8_t type = lose_reply ? kStabilizeRespType : kStabilizeReqType;
      bool lost = false;
      at.intercept = [&](sim::HostId sender, const sim::Packet& packet) {
        if (lost || sender != from || OverlayType(packet) != type) {
          return false;
        }
        lost = true;
        return true;
      };
      ASSERT_TRUE(RunUntil([&] { return lost; }, Seconds(2)));
      at.intercept = nullptr;
      Stabilize(Seconds(3));  // past the lost request's timeout
      EXPECT_EQ(suspects(), suspects_before);
    }
  }
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(endpoints_[i]->chord->successor_list() == lists[i])
        << "node " << i << "'s successor list changed";
    EXPECT_TRUE(endpoints_[i]->chord->predecessor() == preds[i])
        << "node " << i << "'s predecessor changed";
  }
}

// A crash is silence, so it is still evicted fast, lossy links or not: the
// crashed node leaves the successor list of every node within 10 s, and its
// successor drops it as predecessor within 5 s, at 0% and at 10% loss on
// every link.
TEST_F(ChordRing, CrashedNeighbourIsEvictedWithinBound) {
  for (double loss : {0.0, 0.1}) {
    SCOPED_TRACE("loss " + std::to_string(loss));
    const int n = 32;
    Build(n);
    Stabilize(Seconds(60));
    sim::FaultPlane plane(sim_->rng().Fork(0x6c6f7373ull));  // "loss"
    net_->SetFaultPlane(&plane);
    plane.Loss({}, {}, loss, sim_->now(),
               std::numeric_limits<TimePoint>::max());
    Stabilize(Seconds(10));
    const int victim = 7;
    ChordNode& succ =
        *endpoints_[endpoints_[victim]->chord->successor().host]->chord;
    ASSERT_TRUE(succ.predecessor().has_value());
    ASSERT_EQ(succ.predecessor()->host, sim::HostId(victim));
    endpoints_[victim]->chord->Fail();
    net_->SetHostUp(sim::HostId(victim), false);
    const TimePoint crashed_at = sim_->now();
    auto listed = [&] {
      for (const auto& ep : endpoints_) {
        if (!ep->chord->active()) continue;
        for (const NodeInfo& s : ep->chord->successor_list()) {
          if (s.host == sim::HostId(victim)) return true;
        }
      }
      return false;
    };
    auto pred_dropped = [&] {
      return !succ.predecessor().has_value() ||
             succ.predecessor()->host != sim::HostId(victim);
    };
    EXPECT_TRUE(RunUntil(pred_dropped, Seconds(5)));
    EXPECT_TRUE(RunUntil([&] { return !listed(); },
                         crashed_at + Seconds(10) - sim_->now()));
    net_->SetFaultPlane(nullptr);
  }
}

// The cached neighbourhood is keyed by a digest of its content, not by a
// counter: a successor that restarts with no state, right after answering,
// gets the stale echo on its next request and answers with its new
// neighbourhood in full. The asker's list then holds what the restarted
// node sent (only itself) instead of the cached copy, and the ring heals.
TEST_F(ChordRing, RestartedSuccessorIsNotServedFromCache) {
  const int n = 16;
  Build(n);
  Stabilize(Seconds(60));
  Endpoint& a = *endpoints_[0];
  const sim::HostId s = a.chord->successor().host;
  const sim::HostId after_s = endpoints_[s]->chord->successor().host;
  ASSERT_EQ(a.chord->successor_list().size(), 8u);

  bool answered = false;
  a.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    answered = answered || (from == s && ReplyForm(packet).has_value());
    return false;
  };
  ASSERT_TRUE(RunUntil([&] { return answered; }, Seconds(5)));

  // Restart: a fresh instance on the same host and id, with no ring state.
  Endpoint& restarted = *endpoints_[s];
  Id160 id = restarted.chord->self().id;
  restarted.chord =
      std::make_unique<ChordNode>(restarted.transport.get(), id);
  restarted.chord->Create();

  std::optional<uint8_t> first_form;
  std::vector<NodeInfo> list_after;
  a.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    std::optional<uint8_t> form = ReplyForm(packet);
    if (first_form.has_value() || from != s || !form.has_value()) return false;
    first_form = form;
    a.transport->Dispatch(from, packet);
    list_after = a.chord->successor_list();
    return true;
  };
  ASSERT_TRUE(RunUntil([&] { return first_form.has_value(); }, Seconds(5)));
  a.intercept = nullptr;
  EXPECT_EQ(*first_form, kFollowsForm);
  ASSERT_EQ(list_after.size(), 1u);
  EXPECT_EQ(list_after[0].host, s);

  Stabilize(Seconds(60));
  EXPECT_EQ(a.chord->successor().host, s);
  EXPECT_EQ(restarted.chord->successor().host, after_s);
  EXPECT_EQ(a.chord->successor_list().size(), 8u);
}

// Stabilize messages are parsed strictly. Truncated and garbage requests
// dispatched into a live node, and truncated and garbage replies under a
// live request id, leave both ends' neighbourhoods as they were.
TEST_F(ChordRing, MalformedStabilizeMessagesChangeNothing) {
  Build(8);
  Stabilize(Seconds(60));
  Endpoint& a = *endpoints_[0];
  const sim::HostId s = a.chord->successor().host;
  Endpoint& b = *endpoints_[s];
  const auto a_pred = a.chord->predecessor();
  const auto a_list = a.chord->successor_list();
  const auto b_pred = b.chord->predecessor();
  const auto b_list = b.chord->successor_list();
  Rng rng(7);
  auto garbage = [&rng](size_t len) {
    std::string out;
    for (size_t i = 0; i < len; ++i) {
      out.push_back(static_cast<char>(rng.NextBelow(256)));
    }
    return out;
  };

  // Requests: every strict prefix of a real one, the real one with a
  // trailing byte or from a host it does not name, and random bodies.
  std::string request;
  b.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    if (request.empty() && from == sim::HostId(0) &&
        OverlayType(packet) == kStabilizeReqType) {
      request = std::string(packet.head.view());
    }
    return false;
  };
  ASSERT_TRUE(RunUntil([&] { return !request.empty(); }, Seconds(5)));
  b.intercept = nullptr;
  for (size_t len = 0; len < request.size(); ++len) {
    b.transport->Dispatch(0, sim::Packet(request.substr(0, len)));
  }
  b.transport->Dispatch(0, sim::Packet(request + "x"));
  b.transport->Dispatch(sim::HostId(3), sim::Packet(request));
  for (size_t len : {1, 10, 33, 35, 40, 200}) {
    b.transport->Dispatch(0, sim::Packet(request.substr(0, 2) + garbage(len)));
  }

  // Replies: a takes one forged reply per round in place of the real one,
  // under the real request id. The tails are every strict prefix of a
  // well-formed full neighbourhood, trailing bytes, unknown forms and
  // random neighbourhoods.
  Writer full;
  full.PutU8(kFollowsForm);
  full.PutBool(b_pred.has_value());
  if (b_pred.has_value()) b_pred->Serialize(&full);
  full.PutVarint32(static_cast<uint32_t>(b_list.size()));
  for (const NodeInfo& e : b_list) e.Serialize(&full);
  std::vector<std::string> tails;
  for (size_t len = 0; len < full.size(); ++len) {
    tails.push_back(full.buffer().substr(0, len));
  }
  tails.push_back(full.buffer() + "x");
  tails.push_back(std::string(1, static_cast<char>(kUnchangedForm)) + "x");
  for (int form = 2; form < 256; form += 37) {
    tails.push_back(std::string(1, static_cast<char>(form)));
  }
  for (size_t len : {1, 24, 100, 218, 400}) {
    tails.push_back(std::string(1, static_cast<char>(kFollowsForm)) +
                    garbage(len));
  }
  size_t forged = 0;
  a.intercept = [&](sim::HostId from, const sim::Packet& packet) {
    if (forged == tails.size() || from != s || !ReplyForm(packet)) {
      return false;
    }
    std::string head(packet.head.view());
    head.resize(ReplyFormOffset(head));
    a.transport->Dispatch(from, sim::Packet(head + tails[forged++]));
    return true;
  };
  ASSERT_TRUE(RunUntil([&] { return forged == tails.size(); }, Seconds(300),
                       Millis(100)));
  a.intercept = nullptr;

  EXPECT_TRUE(a.chord->predecessor() == a_pred);
  EXPECT_TRUE(a.chord->successor_list() == a_list);
  EXPECT_TRUE(b.chord->predecessor() == b_pred);
  EXPECT_TRUE(b.chord->successor_list() == b_list);
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
