#include "query/ops/agg_stage.h"

#include <algorithm>

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

namespace {
/// The tree depth hold times are paced for: a node at depth d holds
/// agg_hold_base * max(1, kAggAssumedDepth - d), so children flush before
/// their parents on any tree up to this deep.
constexpr int kAggAssumedDepth = 8;
}  // namespace

AggStage::AggStage(StageHost* host, uint64_t qid, uint32_t node_id,
                   const OpNode* node, CollectStage* root, bool streaming)
    : host_(host),
      qid_(qid),
      node_id_(node_id),
      node_(node),
      root_(root),
      streaming_(streaming),
      route_(node->out) {}

Duration AggStage::HoldDelay() const {
  int levels_above = std::max(1, kAggAssumedDepth - host_->QueryDepth(qid_));
  return host_->engine_options().agg_hold_base * levels_above;
}

void AggStage::BeginEpoch(uint64_t epoch) {
  scan_epoch_ = epoch;
  vgb_.reset();
  if (Combines()) Open(epoch);
}

bool AggStage::PushRawBatch(exec::RowBatch& b) {
  if (vgb_ == nullptr) {
    vgb_ = std::make_unique<exec::VectorGroupBy>(node_->group_cols,
                                                 node_->aggs);
    if (streaming_) {
      hold_timer_ = host_->ScheduleStageTimer(HoldDelay(), qid_, node_id_,
                                              kStreamFlushToken);
    }
  }
  vgb_->PushBatch(b);
  return true;
}

void AggStage::EndScan() { FlushAccumulator(scan_epoch_); }

void AggStage::FlushStreaming() {
  if (!streaming_ || vgb_ == nullptr) return;
  if (hold_timer_ != 0) host_->CancelTimer(hold_timer_);
  hold_timer_ = 0;
  FlushAccumulator(/*epoch=*/0);
}

void AggStage::FlushAccumulator(uint64_t epoch) {
  exec::RowBatch partials;
  if (vgb_ != nullptr) {
    partials = exec::RowBatch::OfRows(vgb_->Drain(/*finalize=*/false));
    vgb_.reset();
  }
  // Scan-fed, this node is one contributor whether or not it holds rows;
  // join-fed partials count nothing.
  const uint64_t self = streaming_ ? 0 : 1;
  if (!Combines()) {
    // One column-major frame per flush instead of one message per group.
    host_->DeliverPartialBatch(qid_, epoch, self, partials, route_);
    return;
  }
  // A tree node folds its own partials like any child's.
  OnRemotePartial(host_->self_host(), epoch, self, partials);
}

// -- tree combine -----------------------------------------------------------

AggStage::Combiner& AggStage::Open(uint64_t epoch) {
  auto it = combiners_.find(epoch);
  if (it != combiners_.end()) return it->second;
  if (root_ == nullptr && !combiners_.empty()) {
    FlushCombiner(combiners_.begin()->first);
  }
  opened_epoch_ = std::max(opened_epoch_, static_cast<int64_t>(epoch));
  return combiners_
      .try_emplace(epoch, Combiner{exec::VectorGroupBy(node_->group_cols,
                                                       node_->aggs)})
      .first->second;
}

void AggStage::OnSubtreeCovered(uint64_t epoch, uint64_t members,
                                bool complete) {
  if (root_ != nullptr || route_ != ExchangeKind::kTree) return;
  // The wave of an epoch this node already flushed came too late to matter.
  if (combiners_.count(epoch) == 0 &&
      static_cast<int64_t>(epoch) <= opened_epoch_) {
    return;
  }
  Open(epoch).subtree = complete ? members : 0;
  MaybeFlush(epoch);
}

void AggStage::OnRemotePartial(uint32_t from, uint64_t epoch,
                               uint64_t contributors,
                               const exec::RowBatch& rows) {
  if (rows.ActiveRows() == 0 && contributors == 0) return;  // nothing to fold
  Combiner* c = nullptr;
  if (root_ != nullptr) {
    if (!root_->Admit(from, epoch)) return;  // counted late
    c = &Open(epoch);
  } else {
    auto it = combiners_.find(epoch);
    if (it == combiners_.end()) {
      // This epoch's combiner has flushed (or is not open here): the
      // partial goes on upward with its count, so the root's total still
      // adds up.
      host_->DeliverPartialBatch(qid_, epoch, contributors, rows, route_);
      return;
    }
    c = &it->second;
  }
  c->contributors += contributors;
  c->partials.MergeBatch(rows);
  if (root_ == nullptr && c->flush_timer == 0) {
    c->flush_timer = host_->ScheduleStageTimer(HoldDelay(), qid_, node_id_,
                                               /*token=*/1 + epoch);
  }
  MaybeFlush(epoch);
}

void AggStage::MaybeFlush(uint64_t epoch) {
  if (root_ != nullptr) return;  // the origin finalizes the root's epochs
  auto it = combiners_.find(epoch);
  if (it == combiners_.end()) return;
  const Combiner& c = it->second;
  if (c.subtree != 0 && c.contributors >= c.subtree) FlushCombiner(epoch);
}

uint64_t AggStage::contributors(uint64_t epoch) const {
  auto it = combiners_.find(epoch);
  return it == combiners_.end() ? 0 : it->second.contributors;
}

std::vector<Tuple> AggStage::TakeCombined(uint64_t epoch) {
  auto it = combiners_.find(epoch);
  if (it == combiners_.end()) return {};
  if (it->second.flush_timer != 0) host_->CancelTimer(it->second.flush_timer);
  // The root's groups are the answer; an interior node's go on upward.
  std::vector<Tuple> combined =
      it->second.partials.Drain(/*finalize=*/root_ != nullptr);
  combiners_.erase(it);
  return combined;
}

void AggStage::FlushCombiner(uint64_t epoch) {
  const uint64_t folded = contributors(epoch);
  host_->DeliverPartialBatch(qid_, epoch, folded,
                             exec::RowBatch::OfRows(TakeCombined(epoch)),
                             route_);
}

void AggStage::OnTimer(uint64_t token) {
  if (token == kStreamFlushToken) {
    hold_timer_ = 0;
    FlushStreaming();
    return;
  }
  FlushCombiner(token - 1);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
