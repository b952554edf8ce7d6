// DHT layer tests: the local soft-state store, Put/Get over both
// routers, TTL expiry, replication failover after owner crashes, namespace
// scans, forged and truncated get responses, renewing publishers, and
// dissemination trees and their cover waves.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/serialize.h"
#include "core/network.h"
#include "dht/broadcast.h"
#include "dht/key.h"
#include "dht/local_store.h"
#include "dht/storage.h"
#include "sim/fault_plane.h"
#include "sim/network.h"

namespace pier {
namespace dht {
namespace {

using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;

// ---------------------------------------------------------------------------
// DhtKey
// ---------------------------------------------------------------------------

TEST(DhtKeyTest, InstancesColocate) {
  DhtKey a{"traffic", "rule-1322", 1};
  DhtKey b{"traffic", "rule-1322", 2};
  DhtKey c{"traffic", "rule-1923", 1};
  EXPECT_EQ(a.RoutingKey(), b.RoutingKey());
  EXPECT_NE(a.RoutingKey(), c.RoutingKey());
}

TEST(DhtKeyTest, NamespaceSeparatesKeys) {
  DhtKey a{"ns1", "x", 0};
  DhtKey b{"ns2", "x", 0};
  EXPECT_NE(a.RoutingKey(), b.RoutingKey());
}

TEST(DhtKeyTest, NoAmbiguityFromConcatenation) {
  // ("ab","c") must not hash like ("a","bc"): length-prefixed encoding.
  DhtKey a{"ab", "c", 0};
  DhtKey b{"a", "bc", 0};
  EXPECT_NE(a.RoutingKey(), b.RoutingKey());
}

TEST(DhtKeyTest, SerializeRoundTrip) {
  DhtKey k{"namespace", "resource-bytes", 777};
  Writer w;
  k.Serialize(&w);
  Reader r(w.buffer());
  DhtKey back;
  ASSERT_TRUE(DhtKey::Deserialize(&r, &back).ok());
  EXPECT_EQ(k, back);
}

// ---------------------------------------------------------------------------
// LocalStore
// ---------------------------------------------------------------------------

StoredItem MakeItem(const std::string& ns, const std::string& res,
                    uint64_t inst, const std::string& val,
                    TimePoint expires) {
  StoredItem item;
  item.key = DhtKey{ns, res, inst};
  item.value = val;
  item.expires_at = expires;
  return item;
}

TEST(LocalStoreTest, PutGetRoundTrip) {
  LocalStore store;
  store.Put(MakeItem("t", "r", 1, "v1", Seconds(100)));
  auto got = store.Get("t", "r", Seconds(10));
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, "v1");
}

TEST(LocalStoreTest, MultipleInstancesUnderOneResource) {
  LocalStore store;
  store.Put(MakeItem("t", "r", 1, "a", Seconds(100)));
  store.Put(MakeItem("t", "r", 2, "b", Seconds(100)));
  store.Put(MakeItem("t", "other", 9, "c", Seconds(100)));
  EXPECT_EQ(store.Get("t", "r", 0).size(), 2u);
  EXPECT_EQ(store.Scan("t", 0).size(), 3u);
}

TEST(LocalStoreTest, UpsertReplacesValueKeepsLaterExpiry) {
  LocalStore store;
  store.Put(MakeItem("t", "r", 1, "old", Seconds(100)));
  store.Put(MakeItem("t", "r", 1, "new", Seconds(50)));  // earlier expiry
  auto got = store.Get("t", "r", 0);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].value, "new");
  EXPECT_EQ(got[0].expires_at, Seconds(100));  // extended lifetime retained
  EXPECT_EQ(store.size(), 1u);
}

TEST(LocalStoreTest, ExpiredItemsInvisible) {
  LocalStore store;
  store.Put(MakeItem("t", "r", 1, "v", Seconds(10)));
  EXPECT_EQ(store.Get("t", "r", Seconds(5)).size(), 1u);
  EXPECT_EQ(store.Get("t", "r", Seconds(10)).size(), 0u);  // expires_at <= now
  EXPECT_EQ(store.Scan("t", Seconds(11)).size(), 0u);
}

TEST(LocalStoreTest, SweepReclaims) {
  LocalStore store;
  for (int i = 0; i < 10; ++i) {
    store.Put(MakeItem("t", "r" + std::to_string(i), 0, "v",
                       i < 4 ? Seconds(10) : Seconds(100)));
  }
  EXPECT_EQ(store.size(), 10u);
  EXPECT_EQ(store.Sweep(Seconds(50)), 4u);
  EXPECT_EQ(store.size(), 6u);
}

TEST(LocalStoreTest, SweepSkipsIdleNamespaces) {
  LocalStore store;
  store.Put(MakeItem("soon", "r", 0, "v", Seconds(10)));
  store.Put(MakeItem("later", "r", 0, "v", Seconds(1000)));

  // Nothing can have expired: both namespaces skipped wholesale.
  EXPECT_EQ(store.Sweep(Seconds(5)), 0u);
  EXPECT_EQ(store.stats().sweep_namespaces_skipped, 2u);
  EXPECT_EQ(store.stats().sweep_namespaces_scanned, 0u);

  // "soon" crosses its watermark and is scanned; "later" is still skipped.
  EXPECT_EQ(store.Sweep(Seconds(11)), 1u);
  EXPECT_EQ(store.stats().sweep_namespaces_scanned, 1u);
  EXPECT_EQ(store.stats().sweep_namespaces_skipped, 3u);
  EXPECT_EQ(store.stats().sweep_runs, 2u);
}

TEST(LocalStoreTest, SweepWatermarkTightensAfterScan) {
  LocalStore store;
  store.Put(MakeItem("t", "a", 0, "v", Seconds(10)));
  store.Put(MakeItem("t", "b", 0, "v", Seconds(1000)));
  // First sweep reclaims "a" and re-tightens the watermark to 1000s, so the
  // next sweep skips the namespace entirely.
  EXPECT_EQ(store.Sweep(Seconds(20)), 1u);
  EXPECT_EQ(store.Sweep(Seconds(30)), 0u);
  EXPECT_EQ(store.stats().sweep_namespaces_skipped, 1u);
}

TEST(LocalStoreTest, VisitorIteratesInPlaceAndStopsEarly) {
  LocalStore store;
  for (int i = 0; i < 6; ++i) {
    store.Put(MakeItem("t", "r" + std::to_string(i), 0, "v", Seconds(100)));
  }
  int seen = 0;
  const std::string* first_value = nullptr;
  store.ForEach("t", 0, [&](const StoredItem& item) {
    if (first_value == nullptr) first_value = &item.value;
    return ++seen < 3;  // early stop
  });
  EXPECT_EQ(seen, 3);
  // The visitor saw the store's own item, not a copy.
  int hits = 0;
  store.ForEachAt("t", "r0", 0, [&](const StoredItem& item) {
    hits += (&item.value == first_value) ? 1 : 0;
    return true;
  });
  EXPECT_EQ(hits, 1);
}

TEST(LocalStoreTest, DropNamespace) {
  LocalStore store;
  store.Put(MakeItem("keep", "r", 0, "v", Seconds(100)));
  store.Put(MakeItem("drop", "r", 0, "v", Seconds(100)));
  store.Put(MakeItem("drop", "r", 1, "v", Seconds(100)));
  EXPECT_EQ(store.DropNamespace("drop"), 2u);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.Scan("keep", 0).size(), 1u);
}

TEST(LocalStoreTest, NamespaceListing) {
  LocalStore store;
  store.Put(MakeItem("a", "r", 0, "v", Seconds(100)));
  store.Put(MakeItem("b", "r", 0, "v", Seconds(100)));
  auto names = store.Namespaces();
  EXPECT_EQ(names.size(), 2u);
}

// ---------------------------------------------------------------------------
// Dht over PierNetwork
// ---------------------------------------------------------------------------

PierNetworkOptions OneHopOpts(uint64_t seed = 7) {
  PierNetworkOptions o;
  o.seed = seed;
  o.node.router_kind = RouterKind::kOneHop;
  return o;
}

PierNetworkOptions ChordOpts(uint64_t seed = 7) {
  PierNetworkOptions o;
  o.seed = seed;
  o.node.router_kind = RouterKind::kChord;
  return o;
}

TEST(DhtTest, PutGetRoundTripOneHop) {
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  Status put_status = Status::Internal("not called");
  net.node(0)->dht()->Put(DhtKey{"tbl", "key1", 1}, "hello-dht", Seconds(60),
                          [&](Status s) { put_status = s; });
  net.RunFor(Seconds(5));
  ASSERT_TRUE(put_status.ok()) << put_status.ToString();

  std::vector<DhtItem> items;
  Status get_status;
  net.node(3)->dht()->Get("tbl", "key1", [&](Status s, std::vector<DhtItem> v) {
    get_status = s;
    items = std::move(v);
  });
  net.RunFor(Seconds(5));
  ASSERT_TRUE(get_status.ok());
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, "hello-dht");
  EXPECT_EQ(items[0].key.instance, 1u);
}

TEST(DhtTest, PutGetRoundTripChord) {
  PierNetwork net(16, ChordOpts());
  net.Boot(Seconds(60));
  int acked = 0;
  for (int i = 0; i < 20; ++i) {
    net.node(i % 16)->dht()->Put(
        DhtKey{"tbl", "res-" + std::to_string(i), 0},
        "value-" + std::to_string(i), Seconds(120),
        [&](Status s) { acked += s.ok() ? 1 : 0; });
  }
  net.RunFor(Seconds(10));
  EXPECT_EQ(acked, 20);
  int found = 0;
  for (int i = 0; i < 20; ++i) {
    net.node((i + 5) % 16)
        ->dht()
        ->Get("tbl", "res-" + std::to_string(i),
              [&, i](Status s, std::vector<DhtItem> v) {
                if (s.ok() && v.size() == 1 &&
                    v[0].value == "value-" + std::to_string(i)) {
                  ++found;
                }
              });
  }
  net.RunFor(Seconds(10));
  EXPECT_EQ(found, 20);
}

TEST(DhtTest, GetOfMissingKeyReturnsEmpty) {
  PierNetwork net(4, OneHopOpts());
  net.Boot(Seconds(5));
  bool called = false;
  net.node(1)->dht()->Get("none", "missing",
                          [&](Status s, std::vector<DhtItem> v) {
                            called = true;
                            EXPECT_TRUE(s.ok());
                            EXPECT_TRUE(v.empty());
                          });
  net.RunFor(Seconds(5));
  EXPECT_TRUE(called);
}

TEST(DhtTest, MultipleInstancesReturnedTogether) {
  PierNetwork net(6, OneHopOpts());
  net.Boot(Seconds(5));
  for (uint64_t inst = 1; inst <= 5; ++inst) {
    net.node(inst % 6)->dht()->Put(DhtKey{"multi", "shared", inst},
                                   "v" + std::to_string(inst), Seconds(60),
                                   nullptr);
  }
  net.RunFor(Seconds(5));
  std::vector<DhtItem> items;
  net.node(0)->dht()->Get("multi", "shared",
                          [&](Status s, std::vector<DhtItem> v) {
                            ASSERT_TRUE(s.ok());
                            items = std::move(v);
                          });
  net.RunFor(Seconds(5));
  EXPECT_EQ(items.size(), 5u);
  std::set<uint64_t> instances;
  for (const auto& item : items) instances.insert(item.key.instance);
  EXPECT_EQ(instances.size(), 5u);
}

TEST(DhtTest, TtlExpiresWithoutRenewal) {
  PierNetwork net(4, OneHopOpts());
  net.Boot(Seconds(5));
  net.node(0)->dht()->Put(DhtKey{"soft", "state", 0}, "ephemeral",
                          Seconds(30), nullptr);
  net.RunFor(Seconds(5));
  size_t before = 0, after = 0;
  net.node(1)->dht()->Get("soft", "state",
                          [&](Status, std::vector<DhtItem> v) {
                            before = v.size();
                          });
  net.RunFor(Seconds(5));
  net.RunFor(Seconds(60));  // TTL passes
  net.node(1)->dht()->Get("soft", "state",
                          [&](Status, std::vector<DhtItem> v) {
                            after = v.size();
                          });
  net.RunFor(Seconds(5));
  EXPECT_EQ(before, 1u);
  EXPECT_EQ(after, 0u);
}

TEST(DhtTest, ReplicationSurvivesOwnerCrash) {
  PierNetwork net(12, ChordOpts(21));
  net.Boot(Seconds(60));

  net.node(0)->dht()->Put(DhtKey{"durable", "k", 0}, "replicated",
                          Seconds(600), nullptr);
  net.RunFor(Seconds(10));

  // Find the owner (node whose local non-replica store holds the item).
  int owner = -1;
  for (size_t i = 0; i < net.size(); ++i) {
    for (const auto& item : net.node(i)->dht()->LocalScan("durable")) {
      if (!item.replica) owner = static_cast<int>(i);
    }
  }
  ASSERT_NE(owner, -1);
  ASSERT_NE(owner, 0) << "test assumes node 0 is not the owner";
  net.Crash(static_cast<size_t>(owner));
  net.RunFor(Seconds(45));  // failure detection + ring repair

  size_t found = 0;
  net.node(0)->dht()->Get("durable", "k", [&](Status s, std::vector<DhtItem> v) {
    if (s.ok()) found = v.size();
  });
  net.RunFor(Seconds(10));
  EXPECT_EQ(found, 1u) << "replica did not take over after owner crash";
}

TEST(DhtTest, LocalScanSeesOnlyOwnSlice) {
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  const int kItems = 40;
  for (int i = 0; i < kItems; ++i) {
    net.node(0)->dht()->Put(DhtKey{"sliced", "res" + std::to_string(i), 0},
                            "v", Seconds(120), nullptr);
  }
  net.RunFor(Seconds(5));
  size_t total_primary = 0;
  size_t nodes_with_data = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    size_t primary = 0;
    for (const auto& item : net.node(i)->dht()->LocalScan("sliced")) {
      primary += item.replica ? 0 : 1;
    }
    total_primary += primary;
    nodes_with_data += primary > 0 ? 1 : 0;
  }
  EXPECT_EQ(total_primary, static_cast<size_t>(kItems));
  EXPECT_GT(nodes_with_data, 2u) << "hash partitioning should spread data";
}

TEST(DhtTest, StatsAccount) {
  PierNetwork net(4, OneHopOpts());
  net.Boot(Seconds(5));
  net.node(0)->dht()->Put(DhtKey{"s", "k", 0}, "v", Seconds(60),
                          [](Status) {});
  net.RunFor(Seconds(5));
  net.node(0)->dht()->Get("s", "k", [](Status, std::vector<DhtItem>) {});
  net.RunFor(Seconds(5));
  EXPECT_GE(net.node(0)->dht()->stats().puts_sent, 1u);
  EXPECT_GE(net.node(0)->dht()->stats().gets_ok, 1u);
}

// Hostile get responses. A node's host handler is swapped for this one,
// which passes every packet on to the node, except that while `rewrite` is
// set it replaces the next DHT get response ([Proto::kDht][kGetResp][req
// id][count][items]) with whatever `rewrite` makes of it, once.
class GetResponseTamper : public sim::MessageHandler {
 public:
  /// Dht's wire type byte of a get response.
  static constexpr char kGetResp = 2;

  explicit GetResponseTamper(core::PierNode* node) : node_(node) {}

  std::function<std::string(const std::string& genuine)> rewrite;

  void OnMessage(sim::HostId from, const sim::Packet& packet) override {
    std::string_view head = packet.head.view();
    if (rewrite && head.size() >= 2 &&
        head[0] == static_cast<char>(overlay::Proto::kDht) &&
        head[1] == kGetResp) {
      std::string forged = rewrite(std::string(head));
      rewrite = nullptr;
      node_->OnMessage(from, sim::Packet(std::move(forged)));
      return;
    }
    node_->OnMessage(from, packet);
  }

 private:
  core::PierNode* node_;
};

/// Bytes of `genuine` up to and including its request id.
size_t GetResponseHeaderBytes(const std::string& genuine) {
  Reader r(genuine);
  uint8_t proto = 0, type = 0;
  uint64_t req_id = 0;
  EXPECT_TRUE(r.GetU8(&proto).ok() && r.GetU8(&type).ok() &&
              r.GetVarint64(&req_id).ok());
  return genuine.size() - r.remaining();
}

/// A resource under `ns` that node `owner` of `net` owns.
std::string ResourceOwnedBy(PierNetwork& net, size_t owner,
                            const std::string& ns) {
  for (int i = 0;; ++i) {
    std::string res = "res" + std::to_string(i);
    if (net.node(owner)->router()->IsResponsibleFor(
            DhtKey{ns, res, 0}.RoutingKey())) {
      return res;
    }
  }
}

// A get response whose item count claims 2^32 - 1 items with none behind
// it fails that get once, with Corruption, counted in get_failures, and
// allocates nothing for the claimed items; the node then answers the next
// get normally.
TEST(DhtTest, ForgedGetResponseCountFailsOnlyThatGet) {
  PierNetwork net(2, OneHopOpts());
  net.Boot(Seconds(5));
  const std::string res = ResourceOwnedBy(net, 1, "forged");
  net.node(1)->dht()->Put(DhtKey{"forged", res, 1}, "genuine", Seconds(600),
                          nullptr);
  net.RunFor(Seconds(1));
  GetResponseTamper tamper(net.node(0));
  net.net()->SetHandler(0, &tamper);

  tamper.rewrite = [](const std::string& genuine) {
    std::string forged = genuine.substr(0, GetResponseHeaderBytes(genuine));
    Writer count;
    count.PutVarint32(0xFFFFFFFFu);
    return forged + count.buffer();
  };
  int calls = 0;
  Status status = Status::OK();
  net.node(0)->dht()->Get("forged", res,
                          [&](Status s, std::vector<DhtItem> items) {
                            ++calls;
                            status = s;
                            EXPECT_TRUE(items.empty());
                          });
  const DhtStats& stats = net.node(0)->dht()->stats();
  const uint64_t failures_before = stats.get_failures;
  net.RunFor(Seconds(10));  // past every retry the get could still make
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(status.IsCorruption()) << status.ToString();
  EXPECT_FALSE(tamper.rewrite) << "no get response was forged";
  EXPECT_EQ(stats.get_failures, failures_before + 1);

  std::vector<DhtItem> items;
  status = Status::Internal("not called");
  net.node(0)->dht()->Get("forged", res,
                          [&](Status s, std::vector<DhtItem> got) {
                            status = s;
                            items = std::move(got);
                          });
  net.RunFor(Seconds(5));
  EXPECT_TRUE(status.ok()) << status.ToString();
  ASSERT_EQ(items.size(), 1u);
  EXPECT_EQ(items[0].value, "genuine");
  net.net()->SetHandler(0, net.node(0));
}

// Every truncation of a genuine two-item get response: a cut that keeps
// the request id fails the get with Corruption, counted in get_failures; a
// shorter one cannot name the request, so it is dropped and the retry's
// genuine response answers. Either way the callback fires exactly once.
TEST(DhtTest, TruncatedGetResponsesFailCleanly) {
  PierNetwork net(2, OneHopOpts());
  net.Boot(Seconds(5));
  const std::string res = ResourceOwnedBy(net, 1, "cut");
  net.node(1)->dht()->Put(DhtKey{"cut", res, 1}, "first", Seconds(600),
                          nullptr);
  net.node(1)->dht()->Put(DhtKey{"cut", res, 2}, "second", Seconds(600),
                          nullptr);
  net.RunFor(Seconds(1));
  GetResponseTamper tamper(net.node(0));
  net.net()->SetHandler(0, &tamper);

  size_t genuine_size = 0;
  tamper.rewrite = [&](const std::string& genuine) {
    genuine_size = genuine.size();
    return genuine;
  };
  size_t items_seen = 0;
  net.node(0)->dht()->Get("cut", res, [&](Status s, std::vector<DhtItem> v) {
    EXPECT_TRUE(s.ok()) << s.ToString();
    items_seen = v.size();
  });
  net.RunFor(Seconds(1));
  ASSERT_EQ(items_seen, 2u);
  ASSERT_GT(genuine_size, 0u);

  for (size_t cut = 0; cut < genuine_size; ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    bool keeps_req_id = false;
    tamper.rewrite = [&](const std::string& genuine) {
      keeps_req_id = cut >= GetResponseHeaderBytes(genuine);
      return genuine.substr(0, cut);
    };
    int calls = 0;
    Status status = Status::OK();
    size_t items = 0;
    const uint64_t failures_before = net.node(0)->dht()->stats().get_failures;
    net.node(0)->dht()->Get("cut", res,
                            [&](Status s, std::vector<DhtItem> v) {
                              ++calls;
                              status = s;
                              items = v.size();
                            });
    net.RunFor(Seconds(5));  // one get timeout and its retry
    EXPECT_EQ(calls, 1);
    const uint64_t failures = net.node(0)->dht()->stats().get_failures;
    if (keeps_req_id) {
      EXPECT_TRUE(status.IsCorruption()) << status.ToString();
      EXPECT_EQ(failures, failures_before + 1);
    } else {
      EXPECT_TRUE(status.ok()) << status.ToString();
      EXPECT_EQ(items, 2u);
      EXPECT_EQ(failures, failures_before);
    }
  }
  net.net()->SetHandler(0, net.node(0));
}

// ---------------------------------------------------------------------------
// Broadcast
// ---------------------------------------------------------------------------

TEST(BroadcastTest, ReachesAllNodesExactlyOnceOneHop) {
  PierNetwork net(16, OneHopOpts());
  net.Boot(Seconds(5));
  std::vector<int> deliveries(net.size(), 0);
  for (size_t i = 0; i < net.size(); ++i) {
    net.node(i)->broadcast()->SetHandler(
        [&deliveries, i](sim::HostId, uint64_t, sim::HostId, int, const sim::Payload& p) {
          EXPECT_EQ(p.view(), "announcement");
          ++deliveries[i];
        });
  }
  net.node(5)->broadcast()->Broadcast(sim::Payload("announcement"));
  net.RunFor(Seconds(10));
  for (size_t i = 0; i < net.size(); ++i) {
    EXPECT_EQ(deliveries[i], 1) << "node " << i;
  }
}

TEST(BroadcastTest, ReachesAllNodesOnChordRing) {
  PierNetwork net(32, ChordOpts(33));
  net.Boot(Seconds(90));
  std::vector<int> deliveries(net.size(), 0);
  int max_depth = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    net.node(i)->broadcast()->SetHandler(
        [&, i](sim::HostId, uint64_t, sim::HostId, int depth, const sim::Payload&) {
          ++deliveries[i];
          max_depth = std::max(max_depth, depth);
        });
  }
  net.node(0)->broadcast()->Broadcast(sim::Payload("query-plan"));
  net.RunFor(Seconds(15));
  int reached = 0, duplicated = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    reached += deliveries[i] >= 1 ? 1 : 0;
    duplicated += deliveries[i] > 1 ? 1 : 0;
  }
  EXPECT_EQ(reached, 32);
  EXPECT_EQ(duplicated, 0) << "dedup cache failed";
  EXPECT_LE(max_depth, 10) << "tree depth should be O(log n)";
}

TEST(BroadcastTest, PayloadBufferSharedAcrossEveryHop) {
  // The zero-copy contract: a multi-hop dissemination serializes the payload
  // once, and every node's delivered payload views the origin's buffer —
  // per-hop relays rebuild only the small tree header.
  PierNetwork net(24, ChordOpts(21));
  net.Boot(Seconds(90));

  // Control window: how many bytes does 15s of background protocol chatter
  // (stabilize, fix-fingers, sweeps) materialize on its own?
  sim::Payload::ResetCounters();
  net.RunFor(Seconds(15));
  uint64_t control_bytes = sim::Payload::bytes_materialized();

  constexpr size_t kBodySize = 256 * 1024;  // dwarfs the chatter
  sim::Payload original(std::string(kBodySize, 'B'));
  std::vector<sim::Payload> delivered(net.size());
  for (size_t i = 0; i < net.size(); ++i) {
    net.node(i)->broadcast()->SetHandler(
        [&delivered, i](sim::HostId, uint64_t, sim::HostId, int,
                        const sim::Payload& p) { delivered[i] = p; });
  }
  uint64_t bytes_before = sim::Payload::bytes_materialized();
  net.node(0)->broadcast()->Broadcast(original);
  net.RunFor(Seconds(15));

  uint64_t forwards = 0;
  int max_depth = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    forwards += net.node(i)->broadcast()->stats().forwarded;
    max_depth = std::max(max_depth,
                         net.node(i)->broadcast()->stats().max_depth_seen);
  }
  ASSERT_GE(forwards, net.size() - 1) << "broadcast must have fanned out";
  ASSERT_GT(max_depth, 1) << "tree must be multi-hop for the test to bite";
  size_t reached = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    if (delivered[i].empty()) continue;
    ++reached;
    EXPECT_TRUE(delivered[i].SharesBufferWith(original))
        << "node " << i << " received a copied payload";
  }
  EXPECT_EQ(reached, net.size());
  // Byte bound: the broadcast window may materialize chatter (≈ the control
  // window) plus per-hop headers, but never per-hop copies of the body. A
  // copying relay would add ≥ (nodes-1) * kBodySize ≈ 5.9 MiB and blow
  // through this bound.
  uint64_t broadcast_bytes =
      sim::Payload::bytes_materialized() - bytes_before;
  EXPECT_LT(broadcast_bytes, 2 * control_bytes + 2 * kBodySize);
}

TEST(BroadcastTest, DistinctBroadcastsBothDelivered) {
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  std::vector<std::string> seen;
  net.node(3)->broadcast()->SetHandler(
      [&](sim::HostId, uint64_t, sim::HostId, int, const sim::Payload& p) {
        seen.push_back(p.ToString());
      });
  net.node(0)->broadcast()->Broadcast(sim::Payload("first"));
  net.node(1)->broadcast()->Broadcast(sim::Payload("second"));
  net.RunFor(Seconds(10));
  EXPECT_EQ(seen.size(), 2u);
}

TEST(BroadcastTest, MostNodesReachedDespiteCrashes) {
  PierNetwork net(24, ChordOpts(44));
  net.Boot(Seconds(90));
  // Crash a few nodes and let the ring repair.
  net.Crash(7);
  net.Crash(15);
  net.RunFor(Seconds(45));
  std::vector<int> deliveries(net.size(), 0);
  for (size_t i = 0; i < net.size(); ++i) {
    net.node(i)->broadcast()->SetHandler(
        [&deliveries, i](sim::HostId, uint64_t, sim::HostId, int, const sim::Payload&) {
          ++deliveries[i];
        });
  }
  net.node(0)->broadcast()->Broadcast(sim::Payload("resilient"));
  net.RunFor(Seconds(15));
  int reached = 0;
  for (size_t i = 0; i < net.size(); ++i) {
    if (i == 7 || i == 15) continue;
    reached += deliveries[i] >= 1 ? 1 : 0;
  }
  EXPECT_GE(reached, 20) << "broadcast should reach nearly all live nodes";
}

TEST(BroadcastTest, SeenCacheSuppressesReplayUntilTtlExpires) {
  // A node remembers a broadcast for the seen-cache TTL (120 s) from its
  // first delivery. A replayed data frame is a suppressed duplicate just
  // before that and a fresh delivery just after.
  constexpr Duration kSeenTtl = Seconds(120);
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  constexpr size_t kTarget = 3;
  BroadcastService* target = net.node(kTarget)->broadcast();
  int deliveries = 0;
  sim::HostId origin = 0, parent = 0;
  uint64_t seq = 0;
  TimePoint delivered_at = 0;
  target->SetHandler([&](sim::HostId o, uint64_t s, sim::HostId p, int,
                         const sim::Payload&) {
    if (++deliveries > 1) return;
    origin = o;
    seq = s;
    parent = p;
    delivered_at = net.sim()->now();
  });
  net.node(0)->broadcast()->Broadcast(sim::Payload("plan"));
  net.RunFor(Seconds(10));
  ASSERT_EQ(deliveries, 1);

  // Replay from a node that is neither the target nor its tree parent, so
  // the duplicate cannot pass for a parent retransmit.
  core::PierNode* replayer = nullptr;
  for (size_t i = 0; i < net.size() && replayer == nullptr; ++i) {
    if (i != kTarget && net.node(i)->host() != parent) replayer = net.node(i);
  }
  ASSERT_NE(replayer, nullptr);
  auto replay_at = [&](TimePoint when) {
    net.RunFor(when - net.sim()->now());
    Writer w;
    w.PutU8(1);  // kData
    w.PutFixed32(origin);
    w.PutVarint64(seq);
    net.node(kTarget)->id().Serialize(&w);  // limit: the whole ring
    w.PutVarint32(1);                       // depth
    replayer->transport()->SendWithBody(net.node(kTarget)->host(),
                                        overlay::Proto::kBroadcast, w,
                                        sim::Payload("plan"));
    net.RunFor(Seconds(1));  // one link delay is well under a second
  };

  uint64_t duplicates = target->stats().duplicates;
  replay_at(delivered_at + kSeenTtl - Seconds(1));
  EXPECT_EQ(deliveries, 1) << "replay inside the TTL must be suppressed";
  EXPECT_EQ(target->stats().duplicates, duplicates + 1);

  replay_at(delivered_at + kSeenTtl + Seconds(1));
  EXPECT_EQ(deliveries, 2) << "replay after the TTL must deliver again";
}

// The cover wave's count at every relay: each node the broadcast reached
// is told, once, how many nodes it reached through that node — itself plus
// what each child it forwarded to covered. Tree aggregation waits for
// exactly that many contributors, so the sums must close at every level.
TEST(BroadcastTest, EveryRelaysCoverCountIsOnePlusItsChildren) {
  PierNetwork net(32, ChordOpts(33));
  net.Boot(Seconds(90));
  const size_t n = net.size();
  std::map<sim::HostId, size_t> index;
  for (size_t i = 0; i < n; ++i) index[net.node(i)->host()] = i;
  std::vector<sim::HostId> parent(n, sim::kInvalidHost);
  std::vector<int> upcalls(n, 0);
  std::vector<uint64_t> members(n, 0);
  std::vector<bool> complete(n, false);
  int max_depth = 0;
  for (size_t i = 0; i < n; ++i) {
    BroadcastService* b = net.node(i)->broadcast();
    b->SetHandler([&, i](sim::HostId, uint64_t, sim::HostId p, int depth,
                         const sim::Payload&) {
      parent[i] = p;
      max_depth = std::max(max_depth, depth);
    });
    b->SetCoverageHandler(
        [&, i](sim::HostId, uint64_t, uint64_t m, bool c, bool) {
          ++upcalls[i];
          members[i] = m;
          complete[i] = c;
        });
  }
  net.node(0)->broadcast()->Broadcast(sim::Payload("plan"));
  net.RunFor(Seconds(15));

  ASSERT_GT(max_depth, 1) << "the tree must have interior relays";
  std::vector<uint64_t> below(n, 1);  // self
  for (size_t i = 1; i < n; ++i) {
    ASSERT_NE(parent[i], sim::kInvalidHost) << "node " << i << " unreached";
    below[index.at(parent[i])] += members[i];
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(upcalls[i], 1) << "node " << i;
    EXPECT_TRUE(complete[i]) << "node " << i;
    EXPECT_EQ(members[i], below[i]) << "node " << i;
  }
  EXPECT_EQ(members[0], n);
}

// A relay vouches that no node lies between itself and its first child. On
// a settled ring only a node's predecessor relays to it, so a predecessor
// that suspects it skips it. Here a one-way cut silences a relay's first
// child toward that relay, the relay suspects it, and the next wave leaves
// it out: every node still reports its own subtree's count, complete, so
// the combiners' counts are as before, but the skipping relay's cover and
// every cover above it go up unvouched, and the origin's wave with them.
TEST(BroadcastTest, SuspectInARelaysGapUnvouchesTheOriginsWave) {
  PierNetwork net(32, ChordOpts(33));
  net.Boot(Seconds(90));
  const size_t n = net.size();
  std::map<sim::HostId, size_t> index;
  for (size_t i = 0; i < n; ++i) index[net.node(i)->host()] = i;
  struct Wave {
    std::vector<sim::HostId> parent;
    std::vector<int> upcalls;
    std::vector<uint64_t> members;
    std::vector<bool> complete, vouched;
  };
  auto run_wave = [&] {
    Wave w{std::vector<sim::HostId>(n, sim::kInvalidHost),
           std::vector<int>(n, 0), std::vector<uint64_t>(n, 0),
           std::vector<bool>(n, false), std::vector<bool>(n, false)};
    for (size_t i = 0; i < n; ++i) {
      BroadcastService* b = net.node(i)->broadcast();
      b->SetHandler([&w, i](sim::HostId, uint64_t, sim::HostId p, int,
                            const sim::Payload&) { w.parent[i] = p; });
      b->SetCoverageHandler(
          [&w, i](sim::HostId, uint64_t, uint64_t m, bool c, bool v) {
            ++w.upcalls[i];
            w.members[i] = m;
            w.complete[i] = c;
            w.vouched[i] = v;
          });
    }
    net.node(0)->broadcast()->Broadcast(sim::Payload("plan"));
    net.RunFor(Seconds(5));
    return w;
  };

  // A relay other than the origin whose first child is its ring successor.
  const Wave clean = run_wave();
  ASSERT_TRUE(clean.complete[0] && clean.vouched[0]);
  ASSERT_EQ(clean.members[0], n);
  size_t relay = n, skipped = n;
  for (size_t i = 1; i < n && relay == n; ++i) {
    const size_t succ = index.at(net.node(i)->chord()->successor().host);
    if (succ != 0 && clean.parent[succ] == net.node(i)->host()) {
      relay = i;
      skipped = succ;
    }
  }
  ASSERT_LT(relay, n) << "no relay forwards to its own successor";

  sim::FaultPlane plane(net.sim()->rng().Fork(0x676170ull));  // "gap"
  net.net()->SetFaultPlane(&plane);
  plane.Partition({net.node(skipped)->host()}, {net.node(relay)->host()},
                  net.sim()->now(), std::numeric_limits<TimePoint>::max(),
                  /*bidirectional=*/false);
  net.RunFor(Seconds(3));  // a stabilize timeout, and silence since
  ASSERT_TRUE(net.node(relay)->router()->SuspectBetween(
      net.node(relay)->id(), net.node(skipped)->id().AddPowerOfTwo(0)));

  const Wave gap = run_wave();
  net.net()->SetFaultPlane(nullptr);
  EXPECT_EQ(gap.parent[skipped], sim::kInvalidHost) << "the node was reached";
  std::vector<uint64_t> below(n, 1);  // self
  std::vector<bool> above_relay(n, false);
  for (size_t i = 1; i < n; ++i) {
    if (gap.parent[i] != sim::kInvalidHost) {
      below[index.at(gap.parent[i])] += gap.members[i];
    }
  }
  for (size_t at = relay; at != 0; at = index.at(gap.parent[at])) {
    ASSERT_NE(gap.parent[at], sim::kInvalidHost);
    above_relay[at] = true;
  }
  for (size_t i = 0; i < n; ++i) {
    if (i == skipped) continue;
    EXPECT_EQ(gap.upcalls[i], 1) << "node " << i;
    EXPECT_TRUE(gap.complete[i]) << "node " << i;
    EXPECT_EQ(gap.members[i], below[i]) << "node " << i;
    EXPECT_EQ(gap.vouched[i], i != 0 && !above_relay[i]) << "node " << i;
  }
  EXPECT_EQ(gap.members[0], n - 1);
}

// A node already holding the broadcast covers any OTHER parent that
// forwards it again with zero, so it counts under one parent only. Here a
// forged first delivery from a peer makes the real parent a second one: its
// count then leaves the target out, and the target's own upcall fires only
// for its first delivery.
TEST(BroadcastTest, DuplicateDeliveryCoversItsExtraParentWithZero) {
  PierNetwork net(8, OneHopOpts());
  net.Boot(Seconds(5));
  constexpr size_t kOrigin = 0, kTarget = 3, kForger = 5;
  std::vector<int> upcalls(net.size(), 0);
  std::vector<uint64_t> members(net.size(), 0);
  std::vector<bool> complete(net.size(), false);
  for (size_t i = 0; i < net.size(); ++i) {
    net.node(i)->broadcast()->SetCoverageHandler(
        [&, i](sim::HostId, uint64_t, uint64_t m, bool c, bool) {
          ++upcalls[i];
          members[i] = m;
          complete[i] = c;
        });
  }
  // The target's ring successor bounds an interval holding no node, so the
  // forged delivery makes the target a leaf under the forger.
  std::vector<Id160> ids;
  for (size_t i = 0; i < net.size(); ++i) ids.push_back(net.node(i)->id());
  std::sort(ids.begin(), ids.end());
  const Id160 target_id = net.node(kTarget)->id();
  auto next = std::upper_bound(ids.begin(), ids.end(), target_id);
  const Id160 limit = next == ids.end() ? ids.front() : *next;
  Writer w;
  w.PutU8(1);  // kData
  w.PutFixed32(net.node(kOrigin)->host());
  w.PutVarint64(1);  // the origin's first broadcast
  limit.Serialize(&w);
  w.PutVarint32(1);  // depth
  net.node(kForger)->transport()->SendWithBody(
      net.node(kTarget)->host(), overlay::Proto::kBroadcast, w,
      sim::Payload("plan"));
  net.RunFor(Seconds(1));
  ASSERT_EQ(upcalls[kTarget], 1);
  EXPECT_EQ(members[kTarget], 1u);

  ASSERT_EQ(net.node(kOrigin)->broadcast()->Broadcast(sim::Payload("plan")),
            1u);
  net.RunFor(Seconds(10));
  EXPECT_EQ(net.node(kTarget)->broadcast()->stats().duplicates, 1u);
  EXPECT_EQ(upcalls[kTarget], 1) << "a duplicate must not raise the upcall";
  ASSERT_EQ(upcalls[kOrigin], 1);
  EXPECT_TRUE(complete[kOrigin]);
  EXPECT_EQ(members[kOrigin], net.size() - 1)
      << "the zero cover must add nothing to the origin's count";
}

// The origin's upcall is what it always was: its whole reach, complete,
// raised once — and never inside Broadcast() itself, even when a childless
// origin closes its wave synchronously there.
TEST(BroadcastTest, OriginUpcallIsDeferredPastBroadcast) {
  PierNetwork net(1, OneHopOpts());
  net.Boot(Seconds(5));
  int upcalls = 0;
  uint64_t members = 0, seq_seen = 0;
  bool complete = false;
  sim::HostId origin_seen = sim::kInvalidHost;
  BroadcastService* b = net.node(0)->broadcast();
  b->SetCoverageHandler(
      [&](sim::HostId o, uint64_t seq, uint64_t m, bool c, bool) {
        ++upcalls;
        origin_seen = o;
        seq_seen = seq;
        members = m;
        complete = c;
      });
  uint64_t seq = b->Broadcast(sim::Payload("plan"));
  EXPECT_EQ(upcalls, 0) << "raised before Broadcast returned its seq";
  net.RunFor(Millis(1));
  ASSERT_EQ(upcalls, 1);
  EXPECT_EQ(origin_seen, net.node(0)->host());
  EXPECT_EQ(seq_seen, seq);
  EXPECT_EQ(members, 1u);
  EXPECT_TRUE(complete);
}

}  // namespace
}  // namespace dht
}  // namespace pier
