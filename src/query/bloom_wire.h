// Wire frames for the Bloom-join filter wave.
//
// The wave is a three-step choreography per kBloom join edge:
//   1. every member scans its slices once and sends a kBloomPart frame
//      (its two per-side key filters) to the query origin;
//   2. the origin unions the parts it received inside the bloom_wait
//      window and *accounts* them against the members the plan broadcast's
//      cover wave confirmed reached;
//   3. the origin broadcasts one kBloomDist frame carrying the unioned
//      filters plus the accounting verdict. Members suppress non-matching
//      tuples only when `complete` is true — an incomplete wave (lost or
//      late parts, unknown coverage) degrades that edge to the full rehash
//      so a missing filter can never silently drop rows.
//
// Both frames are parsed from hostile bytes (any node can send them), so
// deserialization is bounds-checked and fuzzed in fuzz_deserialize_test.cc.
// The MsgType / BcastKind tag byte is written by the engine, not here.

#ifndef PIER_QUERY_BLOOM_WIRE_H_
#define PIER_QUERY_BLOOM_WIRE_H_

#include <cstddef>
#include <cstdint>

#include "common/bloom.h"
#include "common/serialize.h"
#include "common/status.h"

namespace pier {
namespace query {

/// Geometry of every join filter: the members build their parts, and the
/// origin its union, at this size; the planner's cost model prices the
/// wave with it.
constexpr size_t kBloomBits = 1 << 14;
constexpr int kBloomHashes = 5;

/// Member -> origin: one node's contribution to a join edge's filter wave.
/// Payload of MsgType::kBloomPart (after the type byte).
struct BloomPartFrame {
  uint64_t qid = 0;
  /// Opgraph node id of the kBloom join this part belongs to — routing is
  /// per-edge, not per-query, so a multiway graph can carry a Bloom edge
  /// next to plain hash edges.
  uint32_t join_node = 0;
  BloomFilter left{64, 1};
  BloomFilter right{64, 1};

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, BloomPartFrame* out);
};

/// Origin -> everyone (dissemination tree): the unioned filters and the
/// wave's accounting verdict. Payload of BcastKind::kBloomDist (after the
/// kind byte).
struct BloomDistFrame {
  uint64_t qid = 0;
  uint32_t join_node = 0;
  /// Accounting snapshot at broadcast time: members the plan broadcast's
  /// cover wave confirmed (origin included) vs. distinct members whose
  /// parts were unioned (origin included).
  uint64_t parts_expected = 0;
  uint64_t parts_reported = 0;
  /// True only when coverage returned complete and every expected member's
  /// part made the union. False => receivers must NOT suppress.
  bool complete = false;
  BloomFilter left{64, 1};
  BloomFilter right{64, 1};

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, BloomDistFrame* out);
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_BLOOM_WIRE_H_
