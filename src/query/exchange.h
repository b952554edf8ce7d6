// The Exchange layer: how tuples cross node boundaries between opgraph
// stages. Each ExchangeKind (see opgraph.h) has a runtime half here:
//
//   kRehash   -> RehashExchange: ships tuples to the DHT owner of the
//                consumer's key columns under a per-edge temp namespace
//                ("q<qid>.x<edge>"); the owner consumes arrivals. This is
//                the traffic that used to be inlined in the engine as
//                RehashTuple/OnTempArrival.
//   kTree     -> no object here: AggStage (query/ops/agg_stage.h) keeps
//                one exec::VectorGroupBy per epoch that merges each child's
//                kPartial batch whole; interior nodes forward one merged
//                partial upward once its contributor count covers their
//                subtree, and the origin, the tree's root, drains its
//                groups finalized into its CollectStage.
//   kToOrigin -> no object needed: members send through
//                StageHost::DeliverResultBatch/DeliverPartialBatch; at
//                the origin the runtime feeds its own stages directly.
//
// Every edge ships RowBatch frames, and RowBatch's codec alone decides the
// bytes: a single row goes in the tuple encoding, more rows column-major.
//
// Exchanges are owned by the per-query runtime and die with it; in-flight
// DHT tuples carry their own TTL (soft state all the way down).

#ifndef PIER_QUERY_EXCHANGE_H_
#define PIER_QUERY_EXCHANGE_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "dht/local_store.h"
#include "exec/batch.h"
#include "query/ops/stage.h"
#include "query/opgraph.h"

namespace pier {
namespace query {

/// Send half of a kRehash edge. The edge id is the consuming graph node's
/// id, so every join input pair shares one namespace and tags tuples with
/// their input side.
class RehashExchange {
 public:
  RehashExchange(ops::StageHost* host, uint64_t qid, uint32_t edge_id);
  /// Custom-namespace variant (recursion's `q<id>.reach` reach relation).
  RehashExchange(ops::StageHost* host, uint64_t qid, std::string ns);

  static std::string NamespaceFor(uint64_t qid, uint32_t edge_id);
  const std::string& ns() const { return ns_; }

  /// Buckets the live rows of `b` by the owner resource of their key
  /// columns and ships ONE [side][RowBatch] frame per bucket, instead of
  /// one put per row.
  void PublishBatch(int side, const std::vector<int>& key_cols,
                    const exec::RowBatch& b);
  /// Ships pre-encoded bytes under `resource` with a fresh per-node
  /// instance id — the shared bottom half of every rehash put (untagged:
  /// consumers that use this decode the value themselves).
  void PublishValue(const std::string& resource, std::string value);

  /// Decodes one PublishBatch frame into its side and rows; Corruption on
  /// garbage.
  static Status DecodeArrival(const dht::StoredItem& item, int* side,
                              std::vector<catalog::Tuple>* rows);

  /// This exchange's puts as the DHT resolved them: the shipped side of a
  /// join's books, and what it still owes.
  struct Puts {
    uint64_t in_flight = 0;
    uint64_t acked = 0;
    uint64_t failed = 0;  ///< out of DHT retries: the frame is lost
  };
  const Puts& puts() const { return *puts_; }

 private:
  ops::StageHost* host_;
  uint64_t qid_;
  std::string ns_;
  uint64_t seq_ = 1;
  /// Shared with the put callbacks, which can outlive the exchange.
  std::shared_ptr<Puts> puts_ = std::make_shared<Puts>();
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_EXCHANGE_H_
