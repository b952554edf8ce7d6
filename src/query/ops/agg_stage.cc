#include "query/ops/agg_stage.h"

#include <algorithm>

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

AggStage::AggStage(StageHost* host, uint64_t qid, uint32_t node_id,
                   const OpNode* node, bool is_origin, bool streaming)
    : host_(host),
      qid_(qid),
      node_id_(node_id),
      node_(node),
      is_origin_(is_origin),
      streaming_(streaming),
      route_(node->out) {}

Duration AggStage::HoldDelay() const {
  const EngineOptions& o = host_->engine_options();
  int levels_above =
      std::max(1, o.agg_assumed_depth - host_->QueryDepth(qid_));
  return o.agg_hold_base * levels_above;
}

void AggStage::DeliverAll(uint64_t epoch,
                          const std::vector<Tuple>& partials) {
  // One column-major frame per flush instead of one message per group; the
  // receiver unpacks and folds row by row, so combine semantics are
  // untouched.
  host_->DeliverPartialBatch(qid_, epoch, partials, route_);
}

// -- scan-fed ---------------------------------------------------------------

void AggStage::BeginEpoch(uint64_t epoch) {
  scan_epoch_ = epoch;
  vgb_.reset();
}

bool AggStage::PushRawBatch(exec::RowBatch& b) {
  if (vgb_ == nullptr) {
    vgb_ = std::make_unique<exec::VectorGroupBy>(node_->group_cols,
                                                 node_->aggs,
                                                 /*finalize=*/false);
  }
  vgb_->PushBatch(b);
  return true;
}

void AggStage::EndScan() {
  std::vector<Tuple> partials;
  if (vgb_ != nullptr) {
    // Sorted group order, the same as GroupByOp's drain on the streaming
    // path.
    vgb_->DrainAndReset([&partials](Tuple& t) {
      partials.push_back(std::move(t));
      return true;
    });
    vgb_.reset();
  }
  if (route_ != ExchangeKind::kTree || is_origin_) {
    DeliverAll(scan_epoch_, partials);
    return;
  }
  // Tree strategy: hold local partials in this node's combiner so children
  // flush before parents.
  for (const Tuple& p : partials) FoldIntoCombiner(scan_epoch_, p);
}

// -- join-fed ---------------------------------------------------------------

bool AggStage::PushStreaming(const Tuple& t) {
  if (streaming_op_ == nullptr) {
    streaming_op_ = std::make_unique<exec::GroupByOp>(
        node_->group_cols, node_->aggs, exec::AggPhase::kPartial);
  }
  if (!stream_timer_armed_) {
    stream_timer_armed_ = true;
    host_->ScheduleStageTimer(HoldDelay(), qid_, node_id_, kStreamFlushToken);
  }
  streaming_op_->Push(t, 0);
  return true;
}

void AggStage::FlushStreaming() {
  stream_timer_armed_ = false;
  std::vector<Tuple> partials = DrainGroupBy(std::move(streaming_op_));
  if (route_ != ExchangeKind::kTree || is_origin_) {
    DeliverAll(0, partials);
    return;
  }
  for (const Tuple& p : partials) FoldIntoCombiner(0, p);
}

// -- tree combine -----------------------------------------------------------

void AggStage::FoldIntoCombiner(uint64_t epoch, const Tuple& partial) {
  if (combiner_ == nullptr || combiner_->epoch() != epoch ||
      !combiner_->open()) {
    if (combiner_ != nullptr && combiner_->open()) {
      FlushCombiner(combiner_->epoch());
    }
    combiner_ =
        std::make_unique<TreeCombiner>(node_->group_cols, node_->aggs, epoch);
    combiner_->flush_timer = host_->ScheduleStageTimer(
        HoldDelay(), qid_, node_id_, /*token=*/1 + epoch);
  }
  combiner_->Push(partial);
}

void AggStage::FlushCombiner(uint64_t epoch) {
  if (combiner_ == nullptr || combiner_->epoch() != epoch ||
      !combiner_->open()) {
    return;
  }
  if (combiner_->flush_timer != 0) {
    host_->CancelTimer(combiner_->flush_timer);
    combiner_->flush_timer = 0;
  }
  std::vector<Tuple> combined = combiner_->Flush();
  combiner_.reset();
  DeliverAll(epoch, combined);
}

void AggStage::OnRemotePartial(uint64_t epoch, const Tuple& t) {
  if (combiner_ != nullptr && combiner_->open() &&
      combiner_->epoch() == epoch) {
    combiner_->Push(t);
    return;
  }
  if (streaming_) {
    // Join-fed aggregation has no epoch scans to open combine windows, so
    // a tree parent opens one lazily on the first child partial.
    FoldIntoCombiner(epoch, t);
    return;
  }
  // Epochal: the combine window for this epoch already closed (or never
  // opened here) — relay upward unmodified, like a late child.
  host_->DeliverPartial(qid_, epoch, t, route_);
}

void AggStage::OnTimer(uint64_t token) {
  if (token == kStreamFlushToken) {
    FlushStreaming();
    return;
  }
  FlushCombiner(token - 1);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
