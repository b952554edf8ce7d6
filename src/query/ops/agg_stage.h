// AggStage: distributed aggregation's in-network half — the kPartialAgg
// opgraph node plus the kTree exchange's combine duty.
//
// Local rows arrive as RowBatches and fold into one accumulator (a
// VectorGroupBy) whoever produced them; only what closes it differs:
//  - Scan-fed (epochal): BeginEpoch / PushRawBatch / EndScan once per
//    epoch.
//  - Join-fed (streaming): joined rows arrive continuously at the final
//    join's rendezvous nodes, one-row batches, so aggregation happens
//    in-network at the join site instead of shipping raw rows to the
//    origin. FlushStreaming ships the accumulator's partial groups straight
//    to the origin; the engine calls it whenever the node's joins settle,
//    just before the epoch report that counts the frame, and the origin
//    folds its own accumulator in before it finalizes. A later arrival
//    opens a fresh accumulator for the next settle. The first batch after
//    a flush arms a hold timer, only the fallback for a node that never
//    settles.
// The closed accumulator's partials flush by the node's output exchange:
// kTree merges them into this node's combiner for the epoch, a second
// VectorGroupBy that merges each arriving kPartial batch whole; anything
// else ships them immediately. Only scan-fed partials ride the tree
// (QueryRuntime::Init refuses a join-fed kTree).
//
// Every scan-fed kPartial frame carries the number of contributors folded
// into it. A node counts itself once its scan ends (rows or not), and the
// dissemination cover wave tells each tree node how many nodes its subtree
// holds (OnSubtreeCovered). An interior combiner opens at BeginEpoch and
// flushes exactly once, when its count reaches that subtree size. The
// depth-paced hold timer, armed at the combiner's first contribution, is
// only the fallback for a count that never completes (a crashed child, a
// shed member, an incomplete cover wave). A partial arriving after its
// node flushed goes on upward with its count, so the root's total adds up
// on any path. Join-fed partials count nothing: their origin accounts for
// them on the join's books and the members' reported frames instead.
//
// At the origin the stage is the root of the combine tree: its own and its
// children's partials merge into one combiner per open epoch (result
// windows longer than the period overlap epochs), with no hold timer and
// no relay. The origin certifies a scan-fed epoch exact when the root's
// contributor total equals the members its cover wave reached. Finalizing
// an epoch drains its combiner's finalized groups to the CollectStage;
// later partials for it count as late.

#ifndef PIER_QUERY_OPS_AGG_STAGE_H_
#define PIER_QUERY_OPS_AGG_STAGE_H_

#include <map>
#include <memory>
#include <vector>

#include "exec/kernels.h"
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

  /// Scan-fed: opens `epoch`'s accumulator pass and its combiner.
  void BeginEpoch(uint64_t epoch);
  /// Folds every live row of `b` into the accumulator's grouped partial
  /// states (BatchEmitFn shape). Join-fed, the first batch after a flush
  /// arms the hold timer.
  bool PushRawBatch(exec::RowBatch& b);
  /// Join-fed: ships the partial groups folded since the last flush to the
  /// origin (at the origin, into the root's combiner); no-op when none are
  /// held or the stage is scan-fed.
  void FlushStreaming();
  /// Scan-fed: the epoch's scans finished; this node's partials join the
  /// epoch as one contributor, even when it holds no rows.
  void EndScan();

  /// Scan-fed tree node: `epoch`'s plan broadcast reached `members` nodes
  /// through this one (self included); `complete` = its cover wave
  /// confirmed every subtree. The combiner flushes once it has folded that
  /// many contributors; an incomplete wave leaves the hold timer to it.
  void OnSubtreeCovered(uint64_t epoch, uint64_t members, bool complete);
  /// One kPartial frame from `from` (a child in the tree, or any member at
  /// the root): `contributors` nodes' partials folded into `rows`.
  void OnRemotePartial(uint32_t from, uint64_t epoch, uint64_t contributors,
                       const exec::RowBatch& rows);
  /// Contributors folded into `epoch`'s open combiner so far (0 once it is
  /// spent). At the root, the total the origin certifies on.
  uint64_t contributors(uint64_t epoch) const;
  /// The epoch's combined groups, finalized at the root and partial states
  /// elsewhere; its combiner is spent. The origin takes each epoch's when it
  /// finalizes it.
  std::vector<catalog::Tuple> TakeCombined(uint64_t epoch);

  void OnTimer(uint64_t token) override;

 private:
  static constexpr uint64_t kStreamFlushToken = 0;  // combiner tokens: 1+epoch

  /// One epoch's combine: partials in, one merged group per key out when
  /// drained.
  struct Combiner {
    exec::VectorGroupBy partials;
    /// Nodes whose partials are folded in (scan-fed only).
    uint64_t contributors = 0;
    /// Interior node: its subtree's size from a complete cover wave; 0
    /// until that arrives, and for good after an incomplete one.
    uint64_t subtree = 0;
    /// Interior node: the hold fallback, armed at the first contribution.
    sim::TimerId flush_timer = 0;
  };

  Duration HoldDelay() const;
  /// Whether partials combine here: at the root and on kTree nodes (a
  /// kDirect member ships its own straight to the origin).
  bool Combines() const {
    return root_ != nullptr || route_ == ExchangeKind::kTree;
  }
  /// `epoch`'s combiner, opened if absent. An interior node holds one at a
  /// time: opening a newer epoch flushes the older one.
  Combiner& Open(uint64_t epoch);
  /// Closes the accumulator and flushes its partials for `epoch`.
  void FlushAccumulator(uint64_t epoch);
  /// An interior combiner flushes once it has its whole subtree.
  void MaybeFlush(uint64_t epoch);
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
  /// Join-fed: the open accumulator's hold fallback (0: none armed).
  sim::TimerId hold_timer_ = 0;

  /// Open combiners by epoch: at most one on an interior node, one per
  /// open epoch at the root.
  std::map<uint64_t, Combiner> combiners_;
  /// Highest epoch a combiner was opened for (-1: none): a cover wave for
  /// an epoch at or below it with no open combiner came after the flush.
  int64_t opened_epoch_ = -1;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_AGG_STAGE_H_
