#include "query/ops/index_scan_stage.h"

#include <algorithm>
#include <limits>

#include "index/pht.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

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

index::PhtCursor::GetFn IndexScanStage::MakeGetFn(uint64_t token) {
  // Every DHT continuation round-trips through PostToStage keyed by the
  // run token: a stale epoch's (or a dead query's) callbacks evaporate.
  StageHost* host = host_;
  uint64_t qid = qid_;
  uint32_t node_id = node_id_;
  std::string ns = ns_;
  return [host, qid, node_id, ns, token](const std::string& resource,
                                         index::PhtCursor::GetCb cb) {
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

index::PhtCursor::RowFn IndexScanStage::MakeRowFn(const EmitFn& emit) {
  EmitFn emit_copy = emit;
  return [this, emit_copy](const index::PhtEntry& entry,
                           uint64_t instance) {
    // Fan-out cursors share the upper trie path, so residual entries at
    // internal nodes could reach more than one of them: dedup epoch-wide.
    if (!emitted_.insert(instance).second) return true;
    Tuple t;
    if (!catalog::TupleFromBytes(entry.tuple_bytes, &t).ok()) {
      return true;  // undecodable entry: soft-skip, like ScanStage
    }
    if (t.size() != node_->schema.num_columns()) return true;
    ++host_->mutable_stats()->index_rows;
    return emit_copy(t);
  };
}

void IndexScanStage::StartCursor(uint64_t lo, uint64_t hi,
                                 uint64_t max_leaves, const EmitFn& emit) {
  cursors_.push_back(std::make_unique<index::PhtCursor>(
      MakeGetFn(run_token_), lo, hi, max_leaves));
  index::PhtCursor* cursor = cursors_.back().get();
  ++cursors_pending_;
  EmitFn emit_copy = emit;
  cursor->Run(MakeRowFn(emit),
              [this, cursor, emit_copy](index::PhtCursor::Outcome outcome,
                                        Status /*s*/) {
                OnCursorDone(cursor, outcome, emit_copy);
              });
}

void IndexScanStage::RunEpoch(const EmitFn& emit) {
  ++run_token_;
  cursors_.clear();  // previous epoch's walk (if any) is token-invalidated
  cursors_pending_ = 0;
  emitted_.clear();
  reported_ = false;
  EngineStats* stats = host_->mutable_stats();
  ++stats->index_scans_run;
  ++stats->vectorized_fallbacks;  // cursor rows emit tuple-at-a-time
  if (!bounds_ok_) {
    host_->OnIndexScanDone(qid_, /*ok=*/false);
    return;
  }
  // Phase 1: the scout. Selective ranges end inside its leaf budget.
  StartCursor(lo_key_, hi_key_, kScoutLeaves, emit);
}

void IndexScanStage::OnCursorDone(index::PhtCursor* cursor,
                                  index::PhtCursor::Outcome outcome,
                                  const EmitFn& emit) {
  EngineStats* stats = host_->mutable_stats();
  stats->index_probes += cursor->stats().probes;
  stats->index_leaves += cursor->stats().leaves;
  --cursors_pending_;
  switch (outcome) {
    case index::PhtCursor::Outcome::kOk:
      if (cursors_pending_ == 0) ReportDone(/*ok=*/true);
      return;
    case index::PhtCursor::Outcome::kMore:
      // Only the scout carries a leaf budget, so kMore means phase 2.
      FanOut(cursor->next_key(), emit);
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

void IndexScanStage::FanOut(uint64_t resume, const EmitFn& emit) {
  // Partition the unvisited remainder by the leaf density the scout saw:
  // it covered (resume - lo) of encoded keyspace with kScoutLeaves leaves,
  // so size sub-ranges to a handful of leaves' worth each, capped at the
  // fan-out width. Skewed data just makes some sub-walks longer — never
  // wrong, only slower.
  uint64_t covered = resume - lo_key_;
  uint64_t remaining = hi_key_ - resume;
  uint64_t per_leaf = std::max<uint64_t>(1, covered / kScoutLeaves);
  uint64_t est_leaves = remaining / per_leaf;  // saturates fine
  int k = static_cast<int>(
      std::min<uint64_t>(kFanOut, std::max<uint64_t>(1, est_leaves / 4)));
  uint64_t step = remaining / static_cast<uint64_t>(k);
  if (k <= 1 || step == 0) {
    StartCursor(resume, hi_key_, /*max_leaves=*/0, emit);
    return;
  }
  uint64_t start = resume;
  for (int i = 0; i < k; ++i) {
    uint64_t end = i + 1 == k ? hi_key_ : start + step - 1;
    StartCursor(start, end, /*max_leaves=*/0, emit);
    start = end + 1;
  }
}

void IndexScanStage::ReportDone(bool ok) {
  if (reported_) return;
  reported_ = true;
  host_->OnIndexScanDone(qid_, ok);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
