// JoinStage: one kJoin opgraph node instantiated at every network node.
//
// Every node plays two roles at once:
//  - producer: consumes the RowBatches of its local slices of the join's
//    scan inputs — swept by the node's QueryScheduler, which the runtime
//    submits them to at install — and ships them through the join's
//    RehashExchange (or probes by DHT get for fetch-matches); chained joins
//    receive their upstream side from the previous join's output instead;
//  - rendezvous: consumes exchange arrivals for keys this node owns and
//    joins them incrementally with a pipelined symmetric hash join.
//
// Strategy-specific choreography (Bloom filter collection/redistribution,
// semi-join match-time tuple fetches) lives here too, driven by the
// engine's message routing.
//
// The Bloom filter wave is accounted, never fire-and-forget: the origin
// counts the parts it unioned against the members the plan broadcast's
// cover wave confirmed, and broadcasts the verdict with the filters.
// Members suppress only on a complete wave; an incomplete wave (lost or
// late parts, unknown coverage) degrades that edge to the full rehash —
// heavier, but no row a lost filter part would have vouched for is ever
// dropped. A member that never receives the distribution at all (lost
// broadcast, partition) produces the full rehash from a fallback timer.

#ifndef PIER_QUERY_OPS_JOIN_STAGE_H_
#define PIER_QUERY_OPS_JOIN_STAGE_H_

#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bloom.h"
#include "exec/operators.h"
#include "query/bloom_wire.h"
#include "query/exchange.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class JoinStage : public Stage {
 public:
  /// `left_scan`/`right_scan` are the kScan nodes feeding the join, or
  /// nullptr for a side fed by an upstream join. All OpNode pointers must
  /// outlive the stage. The rendezvous hash table exists from construction
  /// on, so exchange arrivals are joined whenever they land.
  JoinStage(StageHost* host, uint64_t qid, uint32_t node_id,
            const OpNode* node, const OpNode* left_scan,
            const OpNode* right_scan, bool is_origin, uint32_t origin_host);

  /// Receives full joined rows, one-row batches (the runtime attaches the
  /// residual filter / projection / aggregation chain here).
  void SetDownstream(BatchEmitFn fn) { downstream_ = std::move(fn); }

  /// Exchange namespace this stage consumes (empty for fetch-matches).
  const std::string& ns() const;

  /// Origin-only, called at Execute time: Bloom joins arm the
  /// filter-collection window before the plan broadcast goes out.
  void InitOrigin();

  /// At install, before the input scans are submitted: Bloom joins arm the
  /// fallback for a distribution that never arrives. Exchange arrivals that
  /// beat the plan here are the runtime's to replay first.
  void Setup();

  /// One batch of this node's input on `side`: a swept batch of a scan
  /// input, or an upstream join's output. Hash joins rehash it as it is,
  /// semi-joins its key projection, fetch-matches probes with its outer
  /// rows; Bloom joins fold its keys into this node's filter part and hold
  /// it for phase 2.
  void Consume(int side, exec::RowBatch& b);
  /// One of the join's scheduled input scans finished (`Consume` has seen
  /// all its batches). Once both have, a Bloom join's filter part is whole.
  void OnScanDone();

  /// A rehash frame for a key this node owns: its rows join incrementally.
  void OnArrival(const dht::StoredItem& item);
  void OnFetchReq(uint32_t from, Reader* r);
  void OnFetchResp(Reader* r);
  /// Origin-only: one member's filter-wave part. Parts after the wave
  /// closed are counted late, never unioned (the broadcast they missed is
  /// already out, flagged incomplete).
  void OnBloomPart(uint32_t from, const BloomPartFrame& frame);
  /// The origin's distributed union arrived. Suppress-and-produce on a
  /// complete wave; full unsuppressed rehash otherwise.
  void OnBloomDist(BloomDistFrame frame);
  void OnTimer(uint64_t token) override;

  JoinStrategy strategy() const { return node_->strategy; }

 private:
  const std::vector<int>& keys(int side) const {
    return side == 0 ? node_->left_keys : node_->right_keys;
  }
  void RehashKeyProjection(int side, exec::RowBatch& b);
  void ProbeMatches(const exec::RowBatch& b);
  /// Bloom phase 2: once the wave (or the fallback) decided and both scans
  /// are in, publishes the held batches, suppressed on a complete wave.
  void MaybeProduceBloomPhase2();
  void HandleJoinOutput(const catalog::Tuple& joined);
  void EmitJoined(const catalog::Tuple& joined);
  void ResolveFetchMatches(const catalog::Tuple& probe,
                           const std::vector<dht::DhtItem>& items);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  const OpNode* left_scan_;
  const OpNode* right_scan_;
  bool is_origin_;
  uint32_t origin_host_;
  BatchEmitFn downstream_;
  /// The one-row batch each joined row enters the chain in, refilled per
  /// row (RowBatch::AssignRow): join output is the hot producer.
  exec::RowBatch joined_;

  std::unique_ptr<RehashExchange> exchange_;  // null for fetch-matches
  /// Rendezvous: rehashed arrivals join incrementally (unused by
  /// fetch-matches, which joins as its fetches return).
  exec::SymmetricHashJoin join_;

  // Semi-join: the batches this node shipped key projections of, and
  // where each shipped row sits in them (row id - 1 -> batch, row): a
  // fetch boxes only a matched row. And matches awaiting both full tuples.
  std::vector<exec::RowBatch> shipped_;
  std::vector<std::pair<uint32_t, uint32_t>> shipped_rows_;
  struct PendingMatch {
    catalog::Tuple left, right;
    bool have_left = false, have_right = false;
  };
  std::unordered_map<uint64_t, PendingMatch> pending_matches_;
  uint64_t next_match_id_ = 1;

  // Bloom join: origin-side collectors, part accounting, and the
  // distributed union (absent => produce without suppression).
  std::unique_ptr<BloomFilter> collect_left_, collect_right_;
  std::unique_ptr<BloomFilter> dist_left_, dist_right_;
  std::set<uint32_t> part_senders_;  ///< origin: members unioned in-window
  bool wave_closed_ = false;         ///< origin: bloom_wait broadcast fired
  /// Phase 1 per side: this node's filter part, and the swept batches
  /// phase 2 publishes — one scan serves both, and pins the filter and the
  /// published snapshot to the same instant.
  std::unique_ptr<BloomFilter> part_[2];
  std::vector<exec::RowBatch> held_[2];
  /// The input scans still sweeping (both sides are scans on a Bloom join).
  int scans_pending_ = 2;
  /// The distribution arrived or its fallback timer fired, whichever was
  /// first: it decided whether phase 2 suppresses.
  bool wave_decided_ = false;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_JOIN_STAGE_H_
