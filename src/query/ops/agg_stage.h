// AggStage: the member-side half of distributed aggregation — the
// kPartialAgg opgraph node plus the kTree exchange's combine duty.
//
// Two input protocols share one stage:
//  - Scan-fed (epochal): BeginEpoch / PushRawBatch / EndScan once per
//    epoch. Local rows partial-aggregate, then flush by the node's output
//    exchange: kTree folds into this node's TreeCombiner (held until
//    children have flushed), anything else ships partials immediately.
//  - Join-fed (streaming): joined rows arrive continuously at rendezvous
//    nodes; PushStreaming partial-aggregates them and flushes on a hold
//    timer, so aggregation happens in-network at the join site instead of
//    shipping raw rows to the origin.
//
// Either way, partials relayed through this node as a dissemination-tree
// parent (OnRemotePartial) merge into the open combiner, or — matching the
// engine's historical behavior for epochal queries — relay upward
// unmodified when the combine window already closed.

#ifndef PIER_QUERY_OPS_AGG_STAGE_H_
#define PIER_QUERY_OPS_AGG_STAGE_H_

#include <memory>
#include <vector>

#include "exec/kernels.h"
#include "exec/operators.h"
#include "query/exchange.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class AggStage : public Stage {
 public:
  /// `node` must be a kPartialAgg OpNode and outlive the stage.
  /// `streaming` selects the join-fed protocol.
  AggStage(StageHost* host, uint64_t qid, uint32_t node_id,
           const OpNode* node, bool is_origin, bool streaming);

  // -- scan-fed (epochal) ----------------------------------------------------
  void BeginEpoch(uint64_t epoch);
  /// Folds every live row of `b` into the epoch's grouped partial states
  /// via VectorGroupBy (BatchEmitFn shape).
  bool PushRawBatch(exec::RowBatch& b);
  void EndScan();

  // -- join-fed (streaming) --------------------------------------------------
  bool PushStreaming(const catalog::Tuple& t);

  /// A partial relayed to this node as a tree parent.
  void OnRemotePartial(uint64_t epoch, const catalog::Tuple& t);

  void OnTimer(uint64_t token) override;

 private:
  static constexpr uint64_t kStreamFlushToken = 0;  // combiner tokens: 1+epoch

  Duration HoldDelay() const;
  void DeliverAll(uint64_t epoch, const std::vector<catalog::Tuple>& partials);
  void FoldIntoCombiner(uint64_t epoch, const catalog::Tuple& partial);
  void FlushCombiner(uint64_t epoch);
  void FlushStreaming();

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  bool is_origin_;
  bool streaming_;
  ExchangeKind route_;  ///< the node's output exchange (kTree or kToOrigin)

  uint64_t scan_epoch_ = 0;
  /// The scan-fed epoch's accumulator (created on the first batch).
  std::unique_ptr<exec::VectorGroupBy> vgb_;

  std::unique_ptr<exec::GroupByOp> streaming_op_;
  bool stream_timer_armed_ = false;

  std::unique_ptr<TreeCombiner> combiner_;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_AGG_STAGE_H_
