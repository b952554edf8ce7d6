// AggStage: distributed aggregation's in-network half — the kPartialAgg
// opgraph node plus the kTree exchange's combine duty.
//
// Local rows arrive as RowBatches and fold into one accumulator (a
// VectorGroupBy) whoever produced them; only what closes it differs:
//  - Scan-fed (epochal): BeginEpoch / PushRawBatch / EndScan once per
//    epoch.
//  - Join-fed (streaming): joined rows arrive continuously at rendezvous
//    nodes, one-row batches; the first batch after a flush arms a hold
//    timer that closes the accumulator, so aggregation happens in-network
//    at the join site instead of shipping raw rows to the origin.
// The closed accumulator's partials flush by the node's output exchange:
// kTree folds them into this node's combiner for the epoch, a kCombine
// exec::GroupBy (held until children have flushed); anything else ships
// them immediately.
//
// Either way, partials relayed through this node as a dissemination-tree
// parent (OnRemotePartial) merge into the open combiner, or relay upward
// unmodified when the epochal combine window already closed.
//
// At the origin the stage is the root of the combine tree: its own and its
// children's partials fold into one combiner per open epoch (result
// windows longer than the period overlap epochs), with no hold timer and
// no relay. Finalizing an epoch takes its combined partials to the
// CollectStage; later partials for it count as late.

#ifndef PIER_QUERY_OPS_AGG_STAGE_H_
#define PIER_QUERY_OPS_AGG_STAGE_H_

#include <map>
#include <memory>
#include <vector>

#include "exec/kernels.h"
#include "exec/operators.h"
#include "query/ops/collect_stage.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class AggStage : public Stage {
 public:
  /// `node` must be a kPartialAgg OpNode and outlive the stage. `root`:
  /// the origin's CollectStage (null elsewhere). `streaming` selects the
  /// join-fed protocol.
  AggStage(StageHost* host, uint64_t qid, uint32_t node_id,
           const OpNode* node, CollectStage* root, bool streaming);

  /// Scan-fed: opens `epoch`'s accumulator pass.
  void BeginEpoch(uint64_t epoch);
  /// Folds every live row of `b` into the accumulator's grouped partial
  /// states (BatchEmitFn shape). Join-fed, the first batch after a flush
  /// arms the hold timer.
  bool PushRawBatch(exec::RowBatch& b);
  /// Scan-fed: the epoch's scans finished; flush its partials.
  void EndScan();

  /// A partial from `from`: a child in the tree, or any member at the root.
  void OnRemotePartial(uint32_t from, uint64_t epoch,
                       const catalog::Tuple& t);
  /// The epoch's combined partials; its combiner is spent. The origin takes
  /// each epoch's when it finalizes it.
  std::vector<catalog::Tuple> TakeCombined(uint64_t epoch);

  void OnTimer(uint64_t token) override;

 private:
  static constexpr uint64_t kStreamFlushToken = 0;  // combiner tokens: 1+epoch

  Duration HoldDelay() const;
  /// Closes the accumulator and flushes its partials for `epoch`.
  void FlushAccumulator(uint64_t epoch);
  /// This node's own partials: into a combiner, or straight to the origin.
  void Ship(uint64_t epoch, const std::vector<catalog::Tuple>& partials);
  void Fold(uint64_t epoch, const catalog::Tuple& partial);
  void FlushCombiner(uint64_t epoch);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  CollectStage* root_;
  bool streaming_;
  ExchangeKind route_;  ///< the node's output exchange (kTree or kToOrigin)

  uint64_t scan_epoch_ = 0;
  /// The open accumulator (created on the first batch after a flush): the
  /// scan-fed epoch's rows, or the join-fed rows since the last flush.
  std::unique_ptr<exec::VectorGroupBy> vgb_;

  /// One epoch's combine: partials in, one merged partial stream out when
  /// drained. Only an interior node arms a flush timer.
  struct Combiner {
    exec::GroupBy partials;
    sim::TimerId flush_timer = 0;
  };
  /// Open combiners by epoch: at most one on an interior node, one per
  /// open epoch at the root.
  std::map<uint64_t, Combiner> combiners_;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_AGG_STAGE_H_
