// RecursiveStage: semi-naive transitive closure over an edge relation (the
// kRecurse opgraph node).
//
// Reach tuples (src, dst, hops) live in a per-query DHT namespace keyed on
// the canonical (src, dst) pair, so the pair's owner deduplicates
// re-derivations in-network. The closure is seeded from the batches of the
// node's edge-table sweep, which the runtime submits to the node's
// QueryScheduler at install. A reach tuple that lands before the plan does
// waits in the namespace until the runtime replays it. Each new pair is
// reported downstream as a one-row batch (the runtime attaches the outer
// filter/projection chain) and expanded by probing the edge table — which
// must be partitioned on the source column — for edges leaving `dst`.

#ifndef PIER_QUERY_OPS_RECURSIVE_STAGE_H_
#define PIER_QUERY_OPS_RECURSIVE_STAGE_H_

#include <string>
#include <unordered_set>
#include <vector>

#include "query/exchange.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class RecursiveStage : public Stage {
 public:
  /// `node` is the kRecurse OpNode; `edge_scan` the kScan node feeding it.
  RecursiveStage(StageHost* host, uint64_t qid, uint32_t node_id,
                 const OpNode* node, const OpNode* edge_scan);

  /// Receives deduplicated (src, dst, hops) rows, one-row batches.
  void SetDownstream(BatchEmitFn fn) { downstream_ = std::move(fn); }

  const std::string& ns() const { return exchange_.ns(); }

  /// Seeds the closure from one swept batch of the edge table: every edge
  /// passing the edge predicate becomes a 1-hop path.
  void Seed(exec::RowBatch& edges);

  /// A reach tuple arriving at this node as the (src, dst) owner.
  void OnArrival(const dht::StoredItem& item);

 private:
  void PublishReach(const catalog::Tuple& reach, bool is_expansion);
  void ExpandFrom(const Value& src, const Value& via, int64_t hops,
                  const std::vector<dht::DhtItem>& edges);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  const OpNode* edge_scan_;
  /// Reach tuples travel like any rehash traffic, keyed on the canonical
  /// (src, dst) resource; only the namespace name is bespoke.
  RehashExchange exchange_;
  BatchEmitFn downstream_;
  std::unordered_set<std::string> reach_seen_;  // dedup by canonical resource
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_RECURSIVE_STAGE_H_
