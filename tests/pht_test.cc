// Property tests for the Prefix-Hash-Tree index subsystem (src/index/):
//
//   - the binary key encoding is order-preserving for signed ints and
//     strings (the property every range scan rests on);
//   - random insert workloads preserve the trie invariants after
//     quiescence: every key reachable through a full-range cursor walk,
//     leaf occupancy bounded by the split threshold, no key lost across
//     splits (including the adjacent-key cascade and the >B-duplicates
//     max-depth bucket);
//   - seed-replay determinism: the same seed rebuilds the same trie and
//     returns the same rows, logged via Rng::seed() SCOPED_TRACE like the
//     other fuzz suites;
//   - a cursor's depth hint aims its probes and nothing else: from any
//     starting depth it reads the same rows.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/network.h"
#include "index/index_manager.h"
#include "index/key_codec.h"
#include "index/pht.h"
#include "index/pht_cursor.h"

namespace pier {
namespace index {
namespace {

using catalog::Schema;
using catalog::TableDef;
using catalog::Tuple;
using core::PierNetwork;
using core::PierNetworkOptions;
using core::RouterKind;

// ---------------------------------------------------------------------------
// Key codec
// ---------------------------------------------------------------------------

TEST(KeyCodecTest, Int64EncodingIsOrderPreserving) {
  Rng rng(2026);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  std::vector<int64_t> probes = {std::numeric_limits<int64_t>::min(),
                                 std::numeric_limits<int64_t>::min() + 1,
                                 -1, 0, 1,
                                 std::numeric_limits<int64_t>::max() - 1,
                                 std::numeric_limits<int64_t>::max()};
  for (int i = 0; i < 2000; ++i) {
    probes.push_back(static_cast<int64_t>(rng.Next()));
  }
  for (size_t i = 0; i < probes.size(); ++i) {
    for (size_t j = 0; j < probes.size(); ++j) {
      ASSERT_EQ(probes[i] < probes[j],
                EncodeInt64(probes[i]) < EncodeInt64(probes[j]))
          << probes[i] << " vs " << probes[j];
    }
  }
}

TEST(KeyCodecTest, StringEncodingIsMonotone) {
  Rng rng(2027);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  std::vector<std::string> probes = {"", "a", "ab", "abc", "b",
                                     "longer-than-eight-bytes",
                                     "longer-than-eight-bytes-too",
                                     std::string(1, '\x01'),
                                     std::string(3, '\xff')};
  for (int i = 0; i < 500; ++i) {
    std::string s;
    size_t n = rng.NextBelow(12);
    for (size_t k = 0; k < n; ++k) {
      s.push_back(static_cast<char>('a' + rng.NextBelow(26)));
    }
    probes.push_back(std::move(s));
  }
  for (const std::string& a : probes) {
    for (const std::string& b : probes) {
      // Truncation to 8 bytes makes the encoding monotone but not strict:
      // a < b must imply Enc(a) <= Enc(b), and Enc(a) < Enc(b) must imply
      // a < b. (Strings sharing an 8-byte prefix may collide.)
      if (a < b) {
        ASSERT_LE(EncodeString(a), EncodeString(b)) << a << "|" << b;
      }
      if (EncodeString(a) < EncodeString(b)) {
        ASSERT_LT(a, b) << a << "|" << b;
      }
    }
  }
}

TEST(KeyCodecTest, DoubleBoundsWidenOnIntColumns) {
  uint64_t lo = 0, hi = 0;
  // lo 5.5 floors to 5, hi 7.2 ceils to 8: every int in [5.5, 7.2] — 6 and
  // 7 — lies inside the widened [5, 8].
  ASSERT_TRUE(EncodeValue(Value::Double(5.5), ValueType::kInt64,
                          BoundSide::kLower, &lo));
  ASSERT_TRUE(EncodeValue(Value::Double(7.2), ValueType::kInt64,
                          BoundSide::kUpper, &hi));
  EXPECT_EQ(lo, EncodeInt64(5));
  EXPECT_EQ(hi, EncodeInt64(8));
  // Type-incoherent bounds refuse to encode (index selection skips them).
  uint64_t junk = 0;
  EXPECT_FALSE(EncodeValue(Value::Bool(true), ValueType::kInt64,
                           BoundSide::kLower, &junk));
  EXPECT_FALSE(EncodeValue(Value::Int64(5), ValueType::kString,
                           BoundSide::kLower, &junk));
}

TEST(KeyCodecTest, PrefixAndSuccessorArithmetic) {
  uint64_t key = EncodeInt64(0);  // 0x8000...: "1000..."
  EXPECT_EQ(Prefix(key, 0), "");
  EXPECT_EQ(Prefix(key, 4), "1000");
  uint64_t next = 0;
  ASSERT_TRUE(NextKeyAfterPrefix("1000", &next));
  EXPECT_EQ(Prefix(next, 4), "1001");
  EXPECT_EQ(next & ((1ull << 60) - 1), 0ull);  // zero-padded below
  EXPECT_FALSE(NextKeyAfterPrefix("1111", &next));
  EXPECT_FALSE(NextKeyAfterPrefix("", &next));
}

// ---------------------------------------------------------------------------
// Trie invariants over a live deployment
// ---------------------------------------------------------------------------

TableDef PointsTable(int bucket = 8) {
  TableDef def;
  def.name = "points";
  def.schema = Schema("points", {{"v", ValueType::kInt64},
                                 {"tag", ValueType::kInt64}});
  def.partition_cols = {0};
  def.ttl = Seconds(3600);
  def.indexes = {catalog::IndexDef{0, bucket}};
  return def;
}

struct Deployment {
  std::unique_ptr<PierNetwork> net;
  TableDef def;

  explicit Deployment(size_t nodes, uint64_t seed, int bucket = 8) {
    PierNetworkOptions opts;
    opts.seed = seed;
    opts.node.router_kind = RouterKind::kOneHop;
    net = std::make_unique<PierNetwork>(nodes, opts);
    net->Boot(Seconds(5));
    def = PointsTable(bucket);
    for (size_t i = 0; i < net->size(); ++i) {
      EXPECT_TRUE(net->node(i)->catalog()->Register(def).ok());
    }
  }
};

/// Drives a PhtCursor straight over node 0's Dht (no query engine) and
/// collects every in-range tuple. Returns false on cursor failure.
bool CursorCollect(PierNetwork* net, const std::string& ns, uint64_t lo,
                   uint64_t hi, std::vector<Tuple>* rows,
                   PhtCursor::Outcome* outcome_out = nullptr) {
  dht::Dht* dht = net->node(0)->dht();
  PhtCursor cursor(
      [dht, ns](const std::string& resource, PhtCursor::GetCb cb) {
        dht->Get(ns, resource, std::move(cb));
      },
      lo, hi);
  bool done = false;
  PhtCursor::Outcome outcome = PhtCursor::Outcome::kError;
  cursor.Run(
      [&](const PhtEntry& entry, uint64_t) {
        Tuple t;
        if (catalog::TupleFromBytes(entry.tuple_bytes, &t).ok()) {
          rows->push_back(std::move(t));
        }
        return true;
      },
      [&](PhtCursor::Outcome o, Status) {
        outcome = o;
        done = true;
      });
  net->RunFor(Seconds(30));
  if (outcome_out != nullptr) *outcome_out = outcome;
  return done && outcome == PhtCursor::Outcome::kOk;
}

/// Checks the post-quiescence trie invariants across every node's primary
/// slice: leaf occupancy bounded (below max depth), and entries only at
/// leaves (no entry strands above an internal marker).
void CheckTrieInvariants(PierNetwork* net, const std::string& ns,
                         int bucket) {
  std::map<std::string, size_t> entries_per_prefix;
  std::set<std::string> internal_prefixes;
  for (size_t i = 0; i < net->size(); ++i) {
    if (!net->node(i)->alive()) continue;
    net->node(i)->dht()->ForEachLocal(ns, [&](const dht::StoredItem& item) {
      if (item.replica) return true;  // primaries define the trie
      if (item.key.instance == kMarkerInstance) {
        Reader r(item.value);
        PhtNodeRecord rec;
        if (PhtNodeRecord::Deserialize(&r, &rec).ok() && rec.internal) {
          internal_prefixes.insert(item.key.resource);
        }
      } else {
        ++entries_per_prefix[item.key.resource];
      }
      return true;
    });
  }
  for (const auto& [prefix, count] : entries_per_prefix) {
    EXPECT_EQ(internal_prefixes.count(prefix), 0u)
        << "entries stranded at internal node " << prefix;
    if (prefix.size() < static_cast<size_t>(kKeyBits)) {
      EXPECT_LE(count, static_cast<size_t>(bucket))
          << "leaf " << prefix << " over the split threshold";
    }
  }
}

std::multiset<int64_t> FirstCols(const std::vector<Tuple>& rows) {
  std::multiset<int64_t> out;
  for (const Tuple& t : rows) out.insert(t[0].int64_value());
  return out;
}

TEST(PhtTrieTest, RandomInsertsPreserveInvariantsAndReachability) {
  Rng rng(515151);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  Deployment d(6, rng.seed());

  std::multiset<int64_t> published;
  for (int i = 0; i < 150; ++i) {
    int64_t v = rng.UniformInt(-1000000, 1000000);
    published.insert(v);
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(v), Value::Int64(i)})
                    .ok());
    if (i % 25 == 24) d.net->RunFor(Seconds(2));  // interleave with splits
  }
  d.net->RunFor(Seconds(30));  // quiesce: all splits and forwards settle

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  CheckTrieInvariants(d.net.get(), ns, 8);

  // Every key reachable: a full-range walk finds the exact multiset.
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(FirstCols(rows), published);

  // Sub-range walk agrees with a local filter of the published multiset.
  std::vector<Tuple> sub;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, EncodeInt64(-5000),
                            EncodeInt64(250000), &sub));
  std::multiset<int64_t> expect;
  for (int64_t v : published) {
    if (v >= -5000 && v <= 250000) expect.insert(v);
  }
  EXPECT_EQ(FirstCols(sub), expect);
}

TEST(PhtTrieTest, AdjacentKeyCascadeLosesNothing) {
  // 0..39 share the top ~58 encoded bits: the first split cascades dozens
  // of levels before keys separate — the stress case for split re-puts.
  Rng rng(616161);
  SCOPED_TRACE("seed " + std::to_string(rng.seed()));
  Deployment d(4, rng.seed());
  std::multiset<int64_t> published;
  for (int i = 0; i < 40; ++i) {
    published.insert(i);
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(i), Value::Int64(i)})
                    .ok());
  }
  d.net->RunFor(Seconds(40));

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  CheckTrieInvariants(d.net.get(), ns, 8);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(FirstCols(rows), published);
}

TEST(PhtTrieTest, DuplicateKeysOverflowMaxDepthBucketSafely) {
  // More than bucket-size rows with the IDENTICAL key: no amount of
  // splitting separates them, so they must accumulate in the depth-64
  // bucket instead of split-cascading forever.
  Deployment d(4, 717171, /*bucket=*/4);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(77), Value::Int64(i)})
                    .ok());
  }
  d.net->RunFor(Seconds(40));

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  CheckTrieInvariants(d.net.get(), ns, 4);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, EncodeInt64(77),
                            EncodeInt64(77), &rows));
  EXPECT_EQ(rows.size(), 12u);
}

TEST(PhtTrieTest, RenewalsDoNotSplitFullLeaves) {
  // A leaf at exactly the bucket threshold is legal; soft-state renewals
  // (same publisher-scoped instance, replaced in place) must not count as
  // growth — else every full leaf splits on its next refresh cycle.
  Deployment d(4, 434343, /*bucket=*/8);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(d.net->node(0)
                      ->query_engine()
                      ->PublishVersioned(
                          "points",
                          Tuple{Value::Int64(i), Value::Int64(round)},
                          static_cast<uint64_t>(i))
                      .ok());
    }
    d.net->RunFor(Seconds(10));
  }
  uint64_t splits = 0;
  for (size_t i = 0; i < d.net->size(); ++i) {
    const PhtIndex* idx = d.net->node(i)->index_manager()->Find("points", 0);
    if (idx != nullptr) splits += idx->stats().splits;
  }
  EXPECT_EQ(splits, 0u);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(),
                            PhtIndex::NamespaceFor("points", 0), 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(rows.size(), 8u);  // renewed, not accumulated
}

TEST(PhtTrieTest, EmptyIndexReportsCold) {
  Deployment d(4, 818181);
  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  std::vector<Tuple> rows;
  PhtCursor::Outcome outcome;
  EXPECT_FALSE(CursorCollect(d.net.get(), ns, 0,
                             std::numeric_limits<uint64_t>::max(), &rows,
                             &outcome));
  EXPECT_EQ(outcome, PhtCursor::Outcome::kColdIndex);
  EXPECT_TRUE(rows.empty());
}

TEST(PhtTrieTest, SeedReplayIsDeterministic) {
  auto run = [](uint64_t seed) {
    Rng rng(seed);
    Deployment d(5, seed);
    std::vector<int64_t> keys;
    for (int i = 0; i < 60; ++i) {
      int64_t v = rng.UniformInt(0, 100000);
      keys.push_back(v);
      EXPECT_TRUE(d.net->node(i % d.net->size())
                      ->query_engine()
                      ->Publish("points",
                                Tuple{Value::Int64(v), Value::Int64(i)})
                      .ok());
    }
    d.net->RunFor(Seconds(25));
    std::vector<Tuple> rows;
    EXPECT_TRUE(CursorCollect(d.net.get(),
                              PhtIndex::NamespaceFor("points", 0), 0,
                              std::numeric_limits<uint64_t>::max(), &rows));
    // Splits/forwards observed by any node, for shape comparison.
    uint64_t splits = 0;
    for (size_t i = 0; i < d.net->size(); ++i) {
      const PhtIndex* idx =
          d.net->node(i)->index_manager()->Find("points", 0);
      if (idx != nullptr) splits += idx->stats().splits;
    }
    return std::make_pair(FirstCols(rows), splits);
  };
  const uint64_t seed = 919191;
  SCOPED_TRACE("seed " + std::to_string(seed));
  auto first = run(seed);
  auto second = run(seed);
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);
}

// A split deepens the owner's leaf-depth hint and never makes it
// shallower: the root splitting says nothing about how deep the rest of
// the trie's leaves sit.
TEST(PhtTrieTest, ShallowSplitKeepsADeeperHint) {
  Deployment d(16, 545454);
  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  auto owner = [&d, &ns](const std::string& prefix) {
    const sim::HostId host =
        d.net->directory()
            ->Owner(dht::DhtKey{ns, prefix, kMarkerInstance}.RoutingKey())
            .host;
    for (size_t i = 0; i < d.net->size(); ++i) {
      if (d.net->node(i)->host() == host) return i;
    }
    return d.net->size();
  };
  const size_t root = owner("");
  ASSERT_NE(root, owner("0")) << "the root's owner would store a child";
  ASSERT_NE(root, owner("1")) << "the root's owner would store a child";
  // Nine keys, four below zero (first bit 0), five above: the ninth splits
  // the root (bucket 8) into two children that hold theirs.
  auto publish = [&d](int64_t v) {
    ASSERT_TRUE(d.net->node(0)
                    ->query_engine()
                    ->Publish("points", Tuple{Value::Int64(v), Value::Int64(0)})
                    .ok());
    d.net->RunFor(Seconds(2));
  };
  for (int64_t v = -4; v < 4; ++v) publish(v);
  PhtIndex* idx = d.net->node(root)->index_manager()->Find("points", 0);
  ASSERT_NE(idx, nullptr);
  ASSERT_EQ(idx->stats().splits, 0u);
  idx->set_leaf_depth_hint(40);
  publish(4);
  EXPECT_EQ(idx->stats().splits, 1u);
  EXPECT_EQ(idx->leaf_depth_hint(), 40);
  std::vector<Tuple> rows;
  ASSERT_TRUE(CursorCollect(d.net.get(), ns, 0,
                            std::numeric_limits<uint64_t>::max(), &rows));
  EXPECT_EQ(rows.size(), 9u);
}

TEST(PhtCursorTest, AnyDepthHintReadsTheExactRange) {
  // Two regions whose leaves sit at different depths: 60 keys 50 apart
  // (leaves of 256 keys) and 60 keys one apart (leaves of 8 keys).
  Deployment d(4, 525252);
  std::multiset<int64_t> published;
  for (int i = 0; i < 120; ++i) {
    int64_t v = i < 60 ? 50 * i : 100000 + i;
    published.insert(v);
    ASSERT_TRUE(d.net->node(i % d.net->size())
                    ->query_engine()
                    ->Publish("points",
                              Tuple{Value::Int64(v), Value::Int64(i)})
                    .ok());
  }
  d.net->RunFor(Seconds(40));

  const std::string ns = PhtIndex::NamespaceFor("points", 0);
  dht::Dht* dht = d.net->node(0)->dht();
  for (int hint : {-1, 0, 1, 32, 55, 56, 57, 61, 63, 64}) {
    SCOPED_TRACE("hint " + std::to_string(hint));
    PhtCursor cursor(
        [dht, ns](const std::string& resource, PhtCursor::GetCb cb) {
          dht->Get(ns, resource, std::move(cb));
        },
        0, std::numeric_limits<uint64_t>::max(), /*max_leaves=*/0, hint);
    std::vector<Tuple> rows;
    PhtCursor::Outcome outcome = PhtCursor::Outcome::kError;
    cursor.Run(
        [&](const PhtEntry& entry, uint64_t) {
          Tuple t;
          if (catalog::TupleFromBytes(entry.tuple_bytes, &t).ok()) {
            rows.push_back(std::move(t));
          }
          return true;
        },
        [&](PhtCursor::Outcome o, Status) { outcome = o; });
    d.net->RunFor(Seconds(30));
    ASSERT_TRUE(cursor.finished());
    EXPECT_EQ(outcome, PhtCursor::Outcome::kOk);
    EXPECT_EQ(FirstCols(rows), published);
  }
}

}  // namespace
}  // namespace index
}  // namespace pier
