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
// cover wave confirmed, and broadcasts the union with the verdict as soon
// as every covered member's part is in (bloom_wait is the fallback for a
// wave that never completes). Members suppress only on a complete wave;
// an incomplete wave (lost or late parts, unknown coverage) degrades that
// edge to the full rehash — heavier, but no row a lost filter part would
// have vouched for is ever dropped. A member that never receives the
// distribution at all (lost broadcast, partition) produces the full
// rehash from a fallback timer.
//
// Each stage keeps its join's books on this node — the rehash frames its
// exchange shipped that the DHT acked, and the arrivals it consumed — and
// knows what it still owes (unresolved puts, semi-join matches awaiting
// their tuples, fetch-matches gets in flight). The runtime reports them
// once the node has settled, and the origin certifies a join exact only
// when every edge's books balance network-wide.

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
  /// nullptr for a side fed by an upstream join; `swept_inputs` of them
  /// are swept on this node (OnScanDone reports each). All OpNode pointers
  /// must outlive the stage. The rendezvous hash table exists from
  /// construction on, so exchange arrivals are joined whenever they land.
  JoinStage(StageHost* host, uint64_t qid, uint32_t node_id,
            const OpNode* node, const OpNode* left_scan,
            const OpNode* right_scan, bool is_origin, uint32_t origin_host,
            int swept_inputs);

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
  /// One of the join's swept input scans finished (`Consume` has seen all
  /// its batches). Once both have, a Bloom join's filter part is whole.
  void OnScanDone();

  /// A rehash frame for a key this node owns: its rows join incrementally.
  void OnArrival(const dht::StoredItem& item);
  void OnFetchReq(uint32_t from, Reader* r);
  void OnFetchResp(Reader* r);
  /// Origin-only: one member's filter-wave part. Parts after the wave
  /// closed are counted late, never unioned (the broadcast they missed is
  /// already out, flagged incomplete).
  void OnBloomPart(uint32_t from, const BloomPartFrame& frame);
  /// Origin-only: the plan's cover wave came back, so the parts the filter
  /// wave waits for are known.
  void OnCoverageKnown() { CloseWave(/*deadline=*/false); }
  /// The origin's distributed union arrived. Suppress-and-produce on a
  /// complete wave; full unsuppressed rehash otherwise.
  void OnBloomDist(BloomDistFrame frame);
  void OnTimer(uint64_t token) override;

  JoinStrategy strategy() const { return node_->strategy; }

  /// Nothing this stage owes is outstanding: its input scans are done,
  /// every rehash put resolved, no semi-join match waits for its tuples,
  /// no fetch-matches get is in flight, and a Bloom join has produced
  /// phase 2.
  bool Settled() const;
  /// This join's books on this node (fetch-matches ships through no
  /// namespace and keeps none: zeros).
  JoinBooks books() const;
  /// Rehash frames and fetches this stage lost for good, and probes that
  /// may have come back short.
  uint64_t lost() const;
  /// Fetch-matches: this node holds primary copies of the inner relation
  /// under keys it no longer owns (its range shrank after they were
  /// stored), which every probe misses.
  bool InnerRowsOutOfReach() const;

 private:
  const std::vector<int>& keys(int side) const {
    return side == 0 ? node_->left_keys : node_->right_keys;
  }
  void RehashKeyProjection(int side, exec::RowBatch& b);
  void ProbeMatches(const exec::RowBatch& b);
  /// Bloom phase 2: once the wave (or the fallback) decided and both scans
  /// are in, publishes the held batches, suppressed on a complete wave.
  void MaybeProduceBloomPhase2();
  /// Origin: broadcasts the union with its verdict once every covered
  /// member's part (the origin's own included) is in, or at the
  /// `deadline` (bloom_wait) as it stands, flagged incomplete.
  void CloseWave(bool deadline);
  /// A fetch-matches get came back (`s` not ok: out of DHT retries;
  /// `vouched` false: its owner's range had recently moved, or it answered
  /// from replicas).
  void OnProbeDone(const Status& s, bool vouched, const catalog::Tuple& probe,
                   const std::vector<dht::DhtItem>& items);
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
  /// Fetch-matches: probes whose get has not come back.
  uint64_t pending_gets_ = 0;
  /// Arrivals handed to this join (after the runtime's instance dedupe)
  /// that decoded.
  uint64_t consumed_ = 0;
  /// Arrivals that failed to decode, semi-join fetches answered "no such
  /// row", and fetch-matches probes out of retries or answered by a node
  /// that could not vouch for its range: rows this node may no longer
  /// produce.
  uint64_t lost_ = 0;

  // Bloom join: origin-side collectors, part accounting, and the
  // distributed union (absent => produce without suppression).
  std::unique_ptr<BloomFilter> collect_left_, collect_right_;
  std::unique_ptr<BloomFilter> dist_left_, dist_right_;
  std::set<uint32_t> part_senders_;  ///< origin: members unioned in-window
  bool wave_closed_ = false;         ///< origin: the union went out
  /// Phase 1 per side: this node's filter part, and the swept batches
  /// phase 2 publishes — one scan serves both, and pins the filter and the
  /// published snapshot to the same instant.
  std::unique_ptr<BloomFilter> part_[2];
  std::vector<exec::RowBatch> held_[2];
  /// The input scans still sweeping (both sides on a Bloom join).
  int scans_pending_;
  /// The distribution arrived or its fallback timer fired, whichever was
  /// first: it decided whether phase 2 suppresses.
  bool wave_decided_ = false;
  /// Phase 2 went out (it goes out once).
  bool phase2_done_ = false;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_JOIN_STAGE_H_
