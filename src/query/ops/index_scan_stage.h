// IndexScanStage: the runtime box for an OpType::kIndexScan node — the
// origin-side driver of a PhtCursor range walk.
//
// Unlike a scan (every member sweeps its local slice), an index scan runs
// ONLY at the query origin: the cursor contacts the DHT owners of the trie
// nodes covering the predicate's range, so the set of machines doing work
// scales with the answer instead of the overlay. Rows stream into the same
// batch chain a local scan would feed (filter/project fused, kToOrigin loops
// straight into origin collection), one-row batches asynchronously across
// the epoch's result window.
//
// The walk takes two rounds of gets (RunEpoch): a scout that finds the
// range's first leaf, aimed by the node's leaf-depth hint, then one
// parallel round over the rest of the range cut at that leaf's depth. One
// failed cursor fails the whole walk, and the engine falls back to the
// broadcast scan.
//
// All cursor continuations re-enter through StageHost::PostToStage, so a
// query that ends (or a runtime replaced by fallback) mid-walk simply drops
// the remaining callbacks — stages never defend against their own
// destruction. The accounting does not lose them either: every trie get
// counts in EngineStats::index_probes as it is issued, and the leaves of a
// walk dropped in flight are folded into index_leaves when it is freed.

#ifndef PIER_QUERY_OPS_INDEX_SCAN_STAGE_H_
#define PIER_QUERY_OPS_INDEX_SCAN_STAGE_H_

#include <memory>
#include <string>
#include <vector>

#include "index/pht_cursor.h"
#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class IndexScanStage : public Stage {
 public:
  /// `node` must be a kIndexScan OpNode and outlive the stage.
  IndexScanStage(StageHost* host, uint64_t qid, uint32_t node_id,
                 const OpNode* node);
  ~IndexScanStage() override;

  /// Starts one epoch's range walk, feeding rows into `emit`. A walk still
  /// running from the previous epoch is abandoned (its callbacks are
  /// invalidated by the run token). Completion reports through
  /// StageHost::OnIndexScanDone.
  ///
  /// Two rounds. The scout locates the range's first leaf, starting at the
  /// node's leaf-depth hint (PhtIndex::leaf_depth_hint()): with a right
  /// hint that is one probe, and a range inside that leaf ends there. The
  /// leaf's verified depth d then cuts the rest of the range into
  /// d-aligned blocks — each the key span of one depth-d trie node — and
  /// the next round walks them in parallel, one cursor per block, each
  /// aimed at depth d. Beyond kFanOut blocks, adjacent blocks share a
  /// cursor. Where the trie is as deep as the scout's leaf, a range of up
  /// to kFanOut + 1 leaves costs two dependent gets.
  void RunEpoch(const BatchEmitFn& emit);

  /// True once the bounds encode for the declared column type. A plan whose
  /// bounds cannot encode (hostile or type-incoherent) reports !ok
  /// immediately and lets the engine fall back.
  bool bounds_ok() const { return bounds_ok_; }

 private:
  /// Most cursors one walk runs at once. Past it, adjacent blocks are
  /// grouped, so a walk costs at most ceil(blocks / kFanOut) leaves per
  /// cursor in sequence.
  static constexpr int kFanOut = 16;

  /// The node's handle on this trie, or nullptr (no index manager, or the
  /// table's definition here declares no index on the column).
  index::PhtIndex* Index();
  index::PhtCursor::GetFn MakeGetFn(uint64_t token);
  index::PhtCursor::RowFn MakeRowFn(const BatchEmitFn& emit);
  void StartCursor(uint64_t lo, uint64_t hi, uint64_t max_leaves,
                   int depth_hint, const BatchEmitFn& emit);
  void OnCursorDone(index::PhtCursor* cursor,
                    index::PhtCursor::Outcome outcome,
                    const BatchEmitFn& emit);
  /// Round two: walks [resume, hi_key_] in blocks of one depth-`depth`
  /// trie node each (`resume` is aligned to such a block).
  void Tile(uint64_t resume, int depth, const BatchEmitFn& emit);
  /// Frees this epoch's cursors, first counting the leaves of the ones
  /// still walking (their gets were counted as issued).
  void DropWalks();
  void ReportDone(bool ok);

  StageHost* host_;
  uint64_t qid_;
  uint32_t node_id_;
  const OpNode* node_;
  std::string ns_;
  bool bounds_ok_ = false;
  uint64_t lo_key_ = 0;
  uint64_t hi_key_ = 0;
  /// Invalidates in-flight cursor callbacks when a new epoch starts.
  uint64_t run_token_ = 0;
  std::vector<std::unique_ptr<index::PhtCursor>> cursors_;
  size_t cursors_pending_ = 0;
  /// Epoch-wide emitted-instance dedup across the scout and the blocks.
  std::unordered_set<uint64_t> emitted_;
  bool reported_ = false;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_INDEX_SCAN_STAGE_H_
