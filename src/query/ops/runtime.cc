#include "query/ops/runtime.h"

#include <memory>

#include "exec/kernels.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

namespace {
/// A scan feeding a join or recursion is swept once, at install, except a
/// fetch-matches join's inner relation, which is probed by DHT get.
bool SweptAtInstall(const OpNode& consumer, uint32_t input) {
  return consumer.type == OpType::kRecurse ||
         consumer.strategy != JoinStrategy::kFetchMatches ||
         consumer.inputs[0] == input;
}
}  // namespace

QueryRuntime::QueryRuntime(StageHost* host, const PlanEnvelope* env,
                           bool is_origin)
    : host_(host),
      env_(env),
      graph_(&env->plan.graph),
      is_origin_(is_origin),
      qid_(env->query_id) {}

Status QueryRuntime::Init() {
  PIER_RETURN_IF_ERROR(graph_->Validate());
  stages_.resize(graph_->size());

  bool has_join = false, has_recurse = false, has_partial_agg = false;
  for (const OpNode& n : graph_->nodes) {
    has_join |= n.type == OpType::kJoin;
    has_recurse |= n.type == OpType::kRecurse;
    has_partial_agg |= n.type == OpType::kPartialAgg;
    if (n.type == OpType::kFinalAgg) final_agg_ = &n;
  }
  epochal_ = !has_join && !has_recurse;
  collect_ = &graph_->nodes.back();  // Validate: the root is the collect
  if (is_origin_) {
    // Built first: the root of the combine tree hands its epochs to it.
    auto stage = std::make_unique<CollectStage>(
        host_, qid_, final_agg_, collect_, has_partial_agg, has_recurse);
    collection_ = stage.get();
    stages_.back() = std::move(stage);
  }

  for (uint32_t id = 0; id < graph_->size(); ++id) {
    const OpNode& n = graph_->nodes[id];
    switch (n.type) {
      case OpType::kJoin: {
        const OpNode* left = &graph_->nodes[n.inputs[0]];
        const OpNode* right = &graph_->nodes[n.inputs[1]];
        const OpNode* left_scan = left->type == OpType::kScan ? left : nullptr;
        const OpNode* right_scan =
            right->type == OpType::kScan ? right : nullptr;
        if (left_scan == nullptr && left->type != OpType::kJoin) {
          return Status::InvalidArgument("join left input must be scan/join");
        }
        if (right_scan == nullptr) {
          return Status::InvalidArgument(
              "join right input must be a scan (joins chain left-deep)");
        }
        if (n.strategy != JoinStrategy::kSymmetricHash &&
            left_scan == nullptr) {
          return Status::InvalidArgument(
              "chained joins require the symmetric-hash strategy");
        }
        const int swept =
            (left_scan != nullptr && SweptAtInstall(n, n.inputs[0]) ? 1 : 0) +
            (SweptAtInstall(n, n.inputs[1]) ? 1 : 0);
        auto stage = std::make_unique<JoinStage>(
            host_, qid_, id, &n, left_scan, right_scan, is_origin_,
            env_->origin, swept);
        joins_.push_back(stage.get());
        if (!stage->ns().empty()) ns_to_stage_[stage->ns()] = id;
        stages_[id] = std::move(stage);
        break;
      }
      case OpType::kPartialAgg: {
        if (agg_ != nullptr) {
          return Status::InvalidArgument("multiple partial-agg nodes");
        }
        // Join-fed partials go to the origin, whose checks see only the
        // frames it admits; a tree parent would fold them out of its sight.
        if (!epochal_ && n.out == ExchangeKind::kTree) {
          return Status::InvalidArgument(
              "join-fed partial-agg must ship to the origin");
        }
        auto stage = std::make_unique<AggStage>(host_, qid_, id, &n,
                                                collection_, !epochal_);
        agg_ = stage.get();
        stages_[id] = std::move(stage);
        break;
      }
      case OpType::kRecurse: {
        const OpNode* edge = &graph_->nodes[n.inputs[0]];
        if (edge->type != OpType::kScan) {
          return Status::InvalidArgument("recurse input must be a scan");
        }
        // The recursion stage indexes edge tuples by these columns raw; a
        // hostile broadcast must fail Init, not crash every installer.
        int width = static_cast<int>(edge->schema.num_columns());
        if (n.src_col < 0 || n.src_col >= width || n.dst_col < 0 ||
            n.dst_col >= width) {
          return Status::InvalidArgument("recurse column out of range");
        }
        auto stage =
            std::make_unique<RecursiveStage>(host_, qid_, id, &n, edge);
        recurse_ = stage.get();
        ns_to_stage_[stage->ns()] = id;
        stages_[id] = std::move(stage);
        break;
      }
      case OpType::kScan: {
        int cons = graph_->ConsumerOf(id);
        if (cons < 0) break;
        const OpNode& c = graph_->nodes[cons];
        if (c.type == OpType::kJoin || c.type == OpType::kRecurse) {
          if (SweptAtInstall(c, id)) start_scans_.push_back(id);
        } else {
          epochal_scans_.push_back(id);
        }
        break;
      }
      case OpType::kIndexScan: {
        // The cursor's rows materialize at the origin only; they can feed
        // the local filter/project chain and origin collection, never a
        // distributed stage.
        for (int cons = graph_->ConsumerOf(id); cons >= 0;
             cons = graph_->ConsumerOf(static_cast<uint32_t>(cons))) {
          OpType ct = graph_->nodes[cons].type;
          if (ct == OpType::kJoin || ct == OpType::kRecurse ||
              ct == OpType::kPartialAgg) {
            return Status::InvalidArgument(
                "index scan cannot feed distributed operators");
          }
        }
        index_scans_.push_back(id);
        if (is_origin_) {
          stages_[id] =
              std::make_unique<IndexScanStage>(host_, qid_, id, &n);
        }
        break;
      }
      default:
        break;
    }
  }
  if (epochal_ && epochal_scans_.empty() && index_scans_.empty()) {
    return Status::InvalidArgument("graph has no executable source");
  }

  // LIMIT pushdown: first-k is first-k only without global ordering,
  // dedup, or aggregation.
  if (epochal_ && collect_ != nullptr && collect_->limit >= 0 &&
      !collect_->distinct && collect_->order_col < 0 &&
      final_agg_ == nullptr) {
    local_cap_ = collect_->limit;
  }

  // Wire downstream chains for the streaming producers, now that every
  // stage they may feed exists.
  for (uint32_t id = 0; id < graph_->size(); ++id) {
    switch (graph_->nodes[id].type) {
      case OpType::kJoin:
        static_cast<JoinStage*>(stages_[id].get())
            ->SetDownstream(BuildBatchEmitFrom(id));
        break;
      case OpType::kRecurse:
        recurse_->SetDownstream(BuildBatchEmitFrom(id));
        break;
      default:
        break;
    }
  }
  return Status::OK();
}

BatchEmitFn QueryRuntime::BuildBatchEmitFrom(uint32_t producer_id) {
  const OpNode& n = graph_->nodes[producer_id];
  switch (n.out) {
    case ExchangeKind::kToOrigin: {
      return [this](exec::RowBatch& b) {
        // Non-epochal producers (joins, recursion) deliver as epoch 0 with
        // no cap: local_cap_ is set for epochal graphs only.
        if (local_cap_ >= 0) {
          int64_t room = local_cap_ - epoch_sent_;
          if (room <= 0) return false;
          // LIMIT pushdown mid-batch: the tail past the cap is never
          // delivered.
          if (static_cast<int64_t>(b.ActiveRows()) > room) {
            b.TruncateLive(static_cast<size_t>(room));
          }
        }
        epoch_sent_ += static_cast<int64_t>(b.ActiveRows());
        if (collection_ != nullptr) {
          collection_->Accept(host_->self_host(), current_epoch_, b);
        } else {
          host_->DeliverResultBatch(qid_, current_epoch_, b);
        }
        return local_cap_ < 0 || epoch_sent_ < local_cap_;
      };
    }
    case ExchangeKind::kRehash: {
      // OpGraph::Validate guarantees a rehash edge ends at a join: it
      // leaves a scan's sweep, or a join's output for the next join of the
      // chain.
      int cons = graph_->ConsumerOf(producer_id);
      JoinStage* js = static_cast<JoinStage*>(stages_[cons].get());
      int side = graph_->nodes[cons].inputs[0] == producer_id ? 0 : 1;
      return [js, side](exec::RowBatch& b) {
        js->Consume(side, b);
        return true;
      };
    }
    case ExchangeKind::kTree:
      // Tree routing happens inside AggStage; a raw producer can't emit
      // into a tree edge.
      return [](exec::RowBatch&) { return true; };
    case ExchangeKind::kLocal:
      break;
  }

  int cons_id = graph_->ConsumerOf(producer_id);
  if (cons_id < 0) {
    return [](exec::RowBatch&) { return true; };
  }
  const OpNode& c = graph_->nodes[cons_id];
  switch (c.type) {
    case OpType::kFilter: {
      BatchEmitFn next = BuildBatchEmitFrom(cons_id);
      return [pred = c.predicate, next](exec::RowBatch& b) {
        exec::Bitmap keep;
        exec::EvalSelection(*pred, b, &keep);
        exec::NarrowSelection(&b, keep);
        if (b.ActiveRows() == 0) return true;
        return next(b);
      };
    }
    case OpType::kProject: {
      BatchEmitFn next = BuildBatchEmitFrom(cons_id);
      return [exprs = c.exprs, next](exec::RowBatch& b) {
        // Kernels evaluate physical rows; compact survivors first so the
        // projected batch holds exactly the live set.
        exec::RowBatch in = b.has_selection() ? b.Compact() : std::move(b);
        size_t rows = in.num_rows();
        std::vector<exec::Column> cols;
        cols.reserve(exprs.size());
        exec::Bitmap err;
        for (const exec::ExprPtr& e : exprs) {
          exec::Column col;
          exec::EvalColumn(*e, in, &col, &err);
          if (!err.none()) {
            // Rows whose scalar evaluation would error project as NULL,
            // as exec::Project does.
            exec::Column fixed(col.kind());
            for (size_t i = 0; i < rows; ++i) {
              if (err.Get(i)) {
                fixed.AppendNull();
              } else {
                fixed.AppendFrom(col, i);
              }
            }
            col = std::move(fixed);
          }
          cols.push_back(std::move(col));
        }
        exec::RowBatch out =
            exec::RowBatch::FromColumns(std::move(cols), rows);
        return next(out);
      };
    }
    case OpType::kPartialAgg: {
      AggStage* as = static_cast<AggStage*>(stages_[cons_id].get());
      return [as](exec::RowBatch& b) { return as->PushRawBatch(b); };
    }
    case OpType::kRecurse: {
      RecursiveStage* rs = static_cast<RecursiveStage*>(stages_[cons_id].get());
      return [rs](exec::RowBatch& b) {
        rs->Seed(b);
        return true;
      };
    }
    default:
      // Origin-side nodes (final-agg, collect) are fed through exchanges,
      // never local member edges.
      return [](exec::RowBatch&) { return true; };
  }
}

std::vector<std::string> QueryRuntime::Namespaces() const {
  std::vector<std::string> out;
  for (const auto& [ns, id] : ns_to_stage_) out.push_back(ns);
  return out;
}

void QueryRuntime::InitOrigin() {
  for (JoinStage* js : joins_) js->InitOrigin();
}

void QueryRuntime::Start() {
  // Rows rehashed by fast nodes can land here before the plan broadcast
  // did: they wait in the stage's namespace, and each stage replays them
  // before it produces. Every join's hash table exists since Init, so an
  // arrival is joined whenever it lands — a replayed row's join output may
  // reach a later join's namespace on this very node.
  for (JoinStage* js : joins_) {
    CatchUp(js->ns());
    js->Setup();
  }
  if (recurse_ != nullptr) CatchUp(recurse_->ns());
  // Each input is swept once; Submit snapshots this node's slice now.
  for (uint32_t id : start_scans_) {
    host_->SubmitScan(BuildScanWork(id, /*epoch=*/0));
  }
}

void QueryRuntime::CatchUp(const std::string& ns) {
  if (ns.empty()) return;  // fetch-matches joins consume no namespace
  // Copied first: replaying can store into this very namespace. The replay
  // goes through OnArrival's instance dedupe, which also admits an item
  // the arrival subscription delivered first exactly once.
  std::vector<dht::StoredItem> early;
  host_->dht()->ForEachLocalReadable(ns, [&early](const dht::StoredItem& it) {
    early.push_back(it);
    return true;
  });
  for (const dht::StoredItem& item : early) OnArrival(ns, item);
}

void QueryRuntime::StartEpoch(uint64_t epoch) {
  current_epoch_ = epoch;
  epoch_sent_ = 0;
  if (agg_ != nullptr) agg_->BeginEpoch(epoch);
  // Hand each scan pass to the node's QueryScheduler and finish the epoch
  // (EndScan + the engine's scans-done gate) only when the last one
  // completes. Queries with no epochal scans (pure index plans, join
  // graphs) complete the gate immediately.
  pending_epoch_scans_ = epochal_scans_.size();
  if (pending_epoch_scans_ == 0) {
    if (agg_ != nullptr) agg_->EndScan();
    host_->OnEpochScansDone(qid_, epoch);
  } else {
    for (uint32_t id : epochal_scans_) {
      host_->SubmitScan(BuildScanWork(id, epoch));
    }
  }
  // Index scans run at the origin only and complete asynchronously within
  // the epoch's result window.
  if (is_origin_) {
    for (uint32_t id : index_scans_) {
      static_cast<IndexScanStage*>(stages_[id].get())
          ->RunEpoch(BuildBatchEmitFrom(id));
    }
  }
}

ScanWork QueryRuntime::BuildScanWork(uint32_t scan_id, uint64_t epoch) {
  const OpNode& node = graph_->nodes[scan_id];
  ScanWork work;
  work.qid = qid_;
  work.epoch = epoch;
  work.table = node.table;
  work.schema = node.schema;
  work.window = env_->plan.window;
  work.feed = BuildBatchEmitFrom(scan_id);
  if (epochal_) {
    work.done = [this, epoch](bool) { OnEpochScanDone(epoch); };
    return work;
  }
  const int cons = graph_->ConsumerOf(scan_id);
  if (graph_->nodes[cons].type == OpType::kJoin) {
    JoinStage* js = static_cast<JoinStage*>(stages_[cons].get());
    work.done = [js](bool) { js->OnScanDone(); };
  }
  return work;
}

void QueryRuntime::OnEpochScanDone(uint64_t epoch) {
  // Stale completions (a superseded epoch's scan draining late) must not
  // double-close the current epoch.
  if (epoch != current_epoch_ || pending_epoch_scans_ == 0) return;
  if (--pending_epoch_scans_ == 0) {
    if (agg_ != nullptr) agg_->EndScan();
    host_->OnEpochScansDone(qid_, epoch);
  }
}

void QueryRuntime::OnArrival(const std::string& ns,
                             const dht::StoredItem& item) {
  auto it = ns_to_stage_.find(ns);
  if (it == ns_to_stage_.end()) return;
  Stage* s = stages_[it->second].get();
  if (s == nullptr) return;
  // Acked rehash puts are retried; when the ack (not the store) was what
  // got lost, the same publisher-scoped instance arrives again. Admit each
  // instance once.
  if (!arrival_seen_[ns].insert(item.key.instance).second) {
    ++host_->mutable_stats()->rehash_dupes_dropped;
    return;
  }
  const OpNode& n = graph_->nodes[it->second];
  if (n.type == OpType::kJoin) {
    static_cast<JoinStage*>(s)->OnArrival(item);
  } else if (n.type == OpType::kRecurse) {
    static_cast<RecursiveStage*>(s)->OnArrival(item);
  }
}

void QueryRuntime::OnRemoteResult(uint32_t from, uint64_t epoch,
                                  const std::vector<Tuple>& rows) {
  if (collection_ != nullptr) collection_->Accept(from, epoch, rows);
}

void QueryRuntime::OnRemotePartial(uint32_t from, uint64_t epoch,
                                   uint64_t contributors,
                                   const exec::RowBatch& rows) {
  if (agg_ != nullptr) agg_->OnRemotePartial(from, epoch, contributors, rows);
}

void QueryRuntime::OnSubtreeCovered(uint64_t epoch, uint64_t members,
                                    bool complete) {
  if (agg_ != nullptr) agg_->OnSubtreeCovered(epoch, members, complete);
}

void QueryRuntime::FinishEpoch(uint64_t epoch, ResultBatch* out) {
  collection_->Finish(epoch, agg_ != nullptr ? agg_->TakeCombined(epoch)
                                             : std::vector<Tuple>{},
                      out);
}

void QueryRuntime::FallBackToScans(uint64_t restart_epoch) {
  // An index scan feeds only local chains (Init), so each becomes an
  // epochal scan exactly as Init would build it.
  for (uint32_t id : index_scans_) {
    stages_[id].reset();
    epochal_scans_.push_back(id);
  }
  index_scans_.clear();
  collection_->Restart(restart_epoch);
}

void QueryRuntime::OnFetchReq(uint32_t from, Reader* r) {
  for (JoinStage* js : joins_) {
    if (js->strategy() == JoinStrategy::kSymmetricSemi) {
      js->OnFetchReq(from, r);
      return;
    }
  }
}

void QueryRuntime::OnFetchResp(Reader* r) {
  for (JoinStage* js : joins_) {
    if (js->strategy() == JoinStrategy::kSymmetricSemi) {
      js->OnFetchResp(r);
      return;
    }
  }
}

void QueryRuntime::OnBloomPart(uint32_t from, const BloomPartFrame& frame) {
  if (frame.join_node >= graph_->size() ||
      graph_->nodes[frame.join_node].type != OpType::kJoin ||
      graph_->nodes[frame.join_node].strategy != JoinStrategy::kBloom) {
    return;
  }
  Stage* s = stage(frame.join_node);
  if (s != nullptr) static_cast<JoinStage*>(s)->OnBloomPart(from, frame);
}

void QueryRuntime::OnBloomDist(BloomDistFrame frame) {
  if (frame.join_node >= graph_->size() ||
      graph_->nodes[frame.join_node].type != OpType::kJoin ||
      graph_->nodes[frame.join_node].strategy != JoinStrategy::kBloom) {
    return;
  }
  Stage* s = stage(frame.join_node);
  if (s != nullptr) static_cast<JoinStage*>(s)->OnBloomDist(std::move(frame));
}

bool QueryRuntime::Settled() const {
  for (const JoinStage* js : joins_) {
    if (!js->Settled()) return false;
  }
  return true;
}

std::vector<JoinBooks> QueryRuntime::Books() const {
  std::vector<JoinBooks> out;
  for (const JoinStage* js : joins_) {
    if (!js->ns().empty()) out.push_back(js->books());
  }
  return out;
}

uint64_t QueryRuntime::JoinLosses() const {
  uint64_t lost = 0;
  for (const JoinStage* js : joins_) lost += js->lost();
  return lost;
}

bool QueryRuntime::InnerRowsOutOfReach() const {
  for (const JoinStage* js : joins_) {
    if (js->InnerRowsOutOfReach()) return true;
  }
  return false;
}

void QueryRuntime::OnCoverageKnown() {
  for (JoinStage* js : joins_) js->OnCoverageKnown();
}

Stage* QueryRuntime::stage(uint32_t node_id) {
  if (node_id >= stages_.size()) return nullptr;
  return stages_[node_id].get();
}

}  // namespace ops
}  // namespace query
}  // namespace pier
