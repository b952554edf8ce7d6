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

void AggStage::Ship(uint64_t epoch, const std::vector<Tuple>& partials) {
  if (root_ == nullptr && route_ != ExchangeKind::kTree) {
    // One column-major frame per flush instead of one message per group;
    // the receiver unpacks and folds row by row, so combine semantics are
    // untouched.
    host_->DeliverPartialBatch(qid_, epoch, partials, route_);
    return;
  }
  // A tree node holds its own partials in its combiner so children flush
  // before parents; the root folds them like any child's.
  for (const Tuple& p : partials) {
    if (root_ == nullptr || root_->Admit(host_->self_host(), epoch)) {
      Fold(epoch, p);
    }
  }
}

void AggStage::BeginEpoch(uint64_t epoch) {
  scan_epoch_ = epoch;
  vgb_.reset();
}

bool AggStage::PushRawBatch(exec::RowBatch& b) {
  if (vgb_ == nullptr) {
    vgb_ = std::make_unique<exec::VectorGroupBy>(node_->group_cols,
                                                 node_->aggs,
                                                 /*finalize=*/false);
    if (streaming_) {
      host_->ScheduleStageTimer(HoldDelay(), qid_, node_id_,
                                kStreamFlushToken);
    }
  }
  vgb_->PushBatch(b);
  return true;
}

void AggStage::EndScan() { FlushAccumulator(scan_epoch_); }

void AggStage::FlushAccumulator(uint64_t epoch) {
  std::vector<Tuple> partials;
  if (vgb_ != nullptr) {
    // Sorted group order, the same as exec::GroupBy's drain.
    vgb_->DrainAndReset([&partials](Tuple& t) {
      partials.push_back(std::move(t));
      return true;
    });
    vgb_.reset();
  }
  Ship(epoch, partials);
}

// -- tree combine -----------------------------------------------------------

void AggStage::Fold(uint64_t epoch, const Tuple& partial) {
  auto it = combiners_.find(epoch);
  if (it == combiners_.end()) {
    // An interior node holds one combiner, flushed on its hold timer or
    // when the next epoch opens; the root holds one per open epoch until
    // the origin finalizes it.
    if (root_ == nullptr && !combiners_.empty()) {
      FlushCombiner(combiners_.begin()->first);
    }
    it = combiners_
             .try_emplace(epoch, Combiner{exec::GroupBy(
                                     node_->group_cols, node_->aggs,
                                     exec::AggPhase::kCombine)})
             .first;
    if (root_ == nullptr) {
      it->second.flush_timer = host_->ScheduleStageTimer(
          HoldDelay(), qid_, node_id_, /*token=*/1 + epoch);
    }
  }
  it->second.partials.Push(partial);
}

std::vector<Tuple> AggStage::TakeCombined(uint64_t epoch) {
  auto it = combiners_.find(epoch);
  if (it == combiners_.end()) return {};
  if (it->second.flush_timer != 0) host_->CancelTimer(it->second.flush_timer);
  std::vector<Tuple> combined = it->second.partials.Drain();
  combiners_.erase(it);
  return combined;
}

void AggStage::FlushCombiner(uint64_t epoch) {
  host_->DeliverPartialBatch(qid_, epoch, TakeCombined(epoch), route_);
}

void AggStage::OnRemotePartial(uint32_t from, uint64_t epoch,
                               const Tuple& t) {
  if (root_ != nullptr) {
    if (root_->Admit(from, epoch)) Fold(epoch, t);  // else counted late
    return;
  }
  if (host_->EpochClosed(qid_, epoch)) return;  // the query ended here
  // Join-fed aggregation has no epoch scans to open combine windows, so a
  // tree parent opens one lazily on the first child partial.
  if (streaming_ || combiners_.count(epoch) != 0) {
    Fold(epoch, t);
    return;
  }
  // Epochal: the combine window for this epoch already closed (or never
  // opened here) — relay upward unmodified, like a late child.
  host_->DeliverPartialBatch(qid_, epoch, {t}, route_);
}

void AggStage::OnTimer(uint64_t token) {
  if (token == kStreamFlushToken) {
    FlushAccumulator(/*epoch=*/0);
    return;
  }
  FlushCombiner(token - 1);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
