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
// All cursor continuations re-enter through StageHost::PostToStage, so a
// query that ends (or a runtime replaced by fallback) mid-walk simply drops
// the remaining callbacks — stages never defend against their own
// destruction.

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

  /// Starts one epoch's range walk, feeding rows into `emit`. A walk still
  /// running from the previous epoch is abandoned (its callbacks are
  /// invalidated by the run token). Completion reports through
  /// StageHost::OnIndexScanDone.
  ///
  /// Two-phase walk: a scout cursor reads the first kScoutLeaves leaves
  /// sequentially — the common selective query finishes right there. A
  /// range that turns out wider fans out into parallel sub-range cursors
  /// over the remainder, partitioned by the leaf density the scout
  /// observed, so broad ranges trade O(answer) sequential round-trips for
  /// O(answer / fan-out) and still close within the result window.
  void RunEpoch(const BatchEmitFn& emit);

  /// True once the bounds encode for the declared column type. A plan whose
  /// bounds cannot encode (hostile or type-incoherent) reports !ok
  /// immediately and lets the engine fall back.
  bool bounds_ok() const { return bounds_ok_; }

 private:
  /// Leaves the scout walks before fanning out, and the fan-out width.
  /// The width only matters for broad ranges (selective queries end inside
  /// the scout); 16 parallel walks keep even a whole-table range inside a
  /// typical result window — though at that point a cost-based planner
  /// would pick the broadcast scan anyway.
  static constexpr uint64_t kScoutLeaves = 8;
  static constexpr int kFanOut = 16;

  index::PhtCursor::GetFn MakeGetFn(uint64_t token);
  index::PhtCursor::RowFn MakeRowFn(const BatchEmitFn& emit);
  void StartCursor(uint64_t lo, uint64_t hi, uint64_t max_leaves,
                   const BatchEmitFn& emit);
  void OnCursorDone(index::PhtCursor* cursor,
                    index::PhtCursor::Outcome outcome,
                    const BatchEmitFn& emit);
  void FanOut(uint64_t resume, const BatchEmitFn& emit);
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
  /// Epoch-wide emitted-instance dedup across the scout and its fan-out.
  std::unordered_set<uint64_t> emitted_;
  bool reported_ = false;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_INDEX_SCAN_STAGE_H_
