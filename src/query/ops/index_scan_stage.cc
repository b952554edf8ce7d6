#include "query/ops/index_scan_stage.h"

#include <algorithm>
#include <limits>

#include "index/index_manager.h"
#include "index/pht.h"

namespace pier {
namespace query {
namespace ops {

IndexScanStage::IndexScanStage(StageHost* host, uint64_t qid,
                               uint32_t node_id, const OpNode* node)
    : host_(host), qid_(qid), node_id_(node_id), node_(node) {
  ns_ = index::PhtIndex::NamespaceFor(node->table, node->index_col);
  ValueType col_type =
      node->schema.column(static_cast<size_t>(node->index_col)).type;
  lo_key_ = 0;
  hi_key_ = std::numeric_limits<uint64_t>::max();
  bool lo_ok =
      node->index_lo.is_null() ||
      index::EncodeValue(node->index_lo, col_type, index::BoundSide::kLower,
                         &lo_key_);
  bool hi_ok =
      node->index_hi.is_null() ||
      index::EncodeValue(node->index_hi, col_type, index::BoundSide::kUpper,
                         &hi_key_);
  bounds_ok_ = lo_ok && hi_ok;
}

IndexScanStage::~IndexScanStage() { DropWalks(); }

index::PhtIndex* IndexScanStage::Index() {
  index::IndexManager* manager = host_->index_manager();
  return manager == nullptr ? nullptr
                            : manager->Find(node_->table, node_->index_col);
}

index::PhtCursor::GetFn IndexScanStage::MakeGetFn(uint64_t token) {
  // Every DHT continuation round-trips through PostToStage keyed by the
  // run token: a stale epoch's (or a dead query's) callbacks evaporate.
  StageHost* host = host_;
  uint64_t qid = qid_;
  uint32_t node_id = node_id_;
  std::string ns = ns_;
  return [host, qid, node_id, ns, token](const std::string& resource,
                                         index::PhtCursor::GetCb cb) {
    ++host->mutable_stats()->index_probes;
    host->dht()->Get(
        ns, resource,
        [host, qid, node_id, token, cb](Status s,
                                        std::vector<dht::DhtItem> items) {
          host->PostToStage(
              qid, node_id, [token, cb, &s, &items](Stage* stage) {
                auto* self = static_cast<IndexScanStage*>(stage);
                if (self->run_token_ != token) return;  // stale walk
                cb(std::move(s), std::move(items));
              });
        });
  };
}

index::PhtCursor::RowFn IndexScanStage::MakeRowFn(const BatchEmitFn& emit) {
  BatchEmitFn emit_copy = emit;
  return [this, emit_copy](const index::PhtEntry& entry,
                           uint64_t instance) {
    // Fan-out cursors share the upper trie path, so residual entries at
    // internal nodes could reach more than one of them: dedup epoch-wide.
    if (!emitted_.insert(instance).second) return true;
    // Undecodable or wrong-width entries soft-skip, as in a scan sweep.
    exec::RowBatchBuilder builder(node_->schema);
    if (!builder.AppendSerialized(entry.tuple_bytes)) return true;
    ++host_->mutable_stats()->index_rows;
    exec::RowBatch row = builder.Take();
    return emit_copy(row);
  };
}

void IndexScanStage::StartCursor(uint64_t lo, uint64_t hi,
                                 uint64_t max_leaves, int depth_hint,
                                 const BatchEmitFn& emit) {
  cursors_.push_back(std::make_unique<index::PhtCursor>(
      MakeGetFn(run_token_), lo, hi, max_leaves, depth_hint));
  index::PhtCursor* cursor = cursors_.back().get();
  ++cursors_pending_;
  BatchEmitFn emit_copy = emit;
  cursor->Run(MakeRowFn(emit),
              [this, cursor, emit_copy](index::PhtCursor::Outcome outcome,
                                        Status /*s*/) {
                OnCursorDone(cursor, outcome, emit_copy);
              });
}

void IndexScanStage::RunEpoch(const BatchEmitFn& emit) {
  ++run_token_;
  DropWalks();  // previous epoch's walk (if any) is token-invalidated
  emitted_.clear();
  reported_ = false;
  EngineStats* stats = host_->mutable_stats();
  ++stats->index_scans_run;
  ++stats->vectorized_fallbacks;  // cursor rows emit one-row batches
  if (!bounds_ok_) {
    host_->OnIndexScanDone(qid_, /*ok=*/false);
    return;
  }
  // Round one: the scout reads the range's first leaf.
  index::PhtIndex* index = Index();
  StartCursor(lo_key_, hi_key_, /*max_leaves=*/1,
              index != nullptr ? index->leaf_depth_hint() : -1, emit);
}

void IndexScanStage::OnCursorDone(index::PhtCursor* cursor,
                                  index::PhtCursor::Outcome outcome,
                                  const BatchEmitFn& emit) {
  host_->mutable_stats()->index_leaves += cursor->stats().leaves;
  --cursors_pending_;
  if (cursor->leaf_depth() >= 0) {
    index::PhtIndex* index = Index();
    if (index != nullptr) index->set_leaf_depth_hint(cursor->leaf_depth());
  }
  switch (outcome) {
    case index::PhtCursor::Outcome::kOk:
      if (cursors_pending_ == 0) ReportDone(/*ok=*/true);
      return;
    case index::PhtCursor::Outcome::kMore:
      // Only the scout carries a leaf budget, so kMore means round two.
      Tile(cursor->next_key(), cursor->leaf_depth(), emit);
      return;
    case index::PhtCursor::Outcome::kColdIndex:
    case index::PhtCursor::Outcome::kError:
      // One damaged walk fails the whole scan: the engine falls back to a
      // broadcast plan and resets this epoch's rows, so sibling cursors'
      // pending callbacks are dropped with the runtime.
      ReportDone(/*ok=*/false);
      return;
  }
}

void IndexScanStage::Tile(uint64_t resume, int depth,
                          const BatchEmitFn& emit) {
  // The scout's leaf ended on a depth-`depth` boundary, so the remainder
  // splits into whole blocks of 2^(64 - depth) keys, the last one cut at
  // hi (resume > 0, so the block count cannot wrap). A block whose trie is
  // shallower or deeper than the scout's leaf costs its cursor a probe or
  // two more, never a row.
  const uint64_t block_bits = static_cast<uint64_t>(index::kKeyBits - depth);
  const uint64_t blocks = ((hi_key_ - resume) >> block_bits) + 1;
  const uint64_t cursors = std::min<uint64_t>(blocks, kFanOut);
  uint64_t start = resume;
  for (uint64_t i = 0; i < cursors; ++i) {
    // The first (blocks % cursors) cursors take one block more.
    uint64_t span = blocks / cursors + (i < blocks % cursors ? 1 : 0);
    uint64_t end =
        i + 1 == cursors ? hi_key_ : start + (span << block_bits) - 1;
    StartCursor(start, end, /*max_leaves=*/0, depth, emit);
    start = end + 1;
  }
}

void IndexScanStage::DropWalks() {
  EngineStats* stats = host_->mutable_stats();
  for (const auto& cursor : cursors_) {
    if (!cursor->finished()) stats->index_leaves += cursor->stats().leaves;
  }
  cursors_.clear();
  cursors_pending_ = 0;
}

void IndexScanStage::ReportDone(bool ok) {
  if (reported_) return;
  reported_ = true;
  host_->OnIndexScanDone(qid_, ok);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
