#include "query/ops/runtime.h"

#include <memory>

#include "exec/kernels.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

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

  bool has_join = false, has_recurse = false;
  for (const OpNode& n : graph_->nodes) {
    has_join |= n.type == OpType::kJoin;
    has_recurse |= n.type == OpType::kRecurse;
  }
  epochal_ = !has_join && !has_recurse;

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
        auto stage = std::make_unique<JoinStage>(
            host_, qid_, id, &n, left_scan, right_scan, env_->plan.window,
            is_origin_, env_->origin);
        joins_.push_back(stage.get());
        if (!stage->ns().empty()) ns_to_stage_[stage->ns()] = id;
        stages_[id] = std::move(stage);
        break;
      }
      case OpType::kPartialAgg: {
        if (agg_ != nullptr) {
          return Status::InvalidArgument("multiple partial-agg nodes");
        }
        auto stage = std::make_unique<AggStage>(host_, qid_, id, &n,
                                                is_origin_, !epochal_);
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
        auto stage = std::make_unique<RecursiveStage>(host_, qid_, id, &n,
                                                      edge, env_->plan.window);
        recurse_ = stage.get();
        ns_to_stage_[stage->ns()] = id;
        stages_[id] = std::move(stage);
        break;
      }
      case OpType::kFinalAgg:
        final_agg_ = &n;
        break;
      case OpType::kCollect:
        collect_ = &n;
        break;
      case OpType::kScan: {
        int cons = graph_->ConsumerOf(id);
        if (cons >= 0) {
          OpType ct = graph_->nodes[cons].type;
          // Scans feeding joins or recursion are driven by those stages;
          // the rest are epoch-driven pipelines.
          if (ct != OpType::kJoin && ct != OpType::kRecurse) {
            epochal_scans_.push_back(id);
          }
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

  // Wire downstream chains for streaming producers.
  for (JoinStage* js : joins_) {
    // A join's node id is recoverable from its namespace map entry; walk
    // the graph instead to stay simple.
    for (uint32_t id = 0; id < graph_->size(); ++id) {
      if (stages_[id].get() == js) js->SetDownstream(BuildEmitFrom(id));
    }
  }
  if (recurse_ != nullptr) {
    for (uint32_t id = 0; id < graph_->size(); ++id) {
      if (stages_[id].get() == recurse_) {
        recurse_->SetDownstream(BuildEmitFrom(id));
      }
    }
  }
  return Status::OK();
}

EmitFn QueryRuntime::BuildEmitFrom(uint32_t producer_id) {
  const OpNode& n = graph_->nodes[producer_id];
  switch (n.out) {
    case ExchangeKind::kToOrigin: {
      if (epochal_) {
        return [this](const Tuple& t) {
          host_->DeliverResult(qid_, current_epoch_, t);
          if (local_cap_ < 0) return true;
          return ++epoch_sent_ < local_cap_;
        };
      }
      return [this](const Tuple& t) {
        host_->DeliverResult(qid_, 0, t);
        return true;
      };
    }
    case ExchangeKind::kRehash: {
      // OpGraph::Validate guarantees a rehash edge ends at a join.
      int cons = graph_->ConsumerOf(producer_id);
      JoinStage* js = static_cast<JoinStage*>(stages_[cons].get());
      int side = graph_->nodes[cons].inputs[0] == producer_id ? 0 : 1;
      return [js, side](const Tuple& t) {
        js->PublishUpstream(side, t);
        return true;
      };
    }
    case ExchangeKind::kTree:
      // Tree routing happens inside AggStage; a raw producer can't emit
      // into a tree edge.
      return [](const Tuple&) { return true; };
    case ExchangeKind::kLocal:
      break;
  }

  int cons_id = graph_->ConsumerOf(producer_id);
  if (cons_id < 0) {
    return [](const Tuple&) { return true; };
  }
  const OpNode& c = graph_->nodes[cons_id];
  switch (c.type) {
    case OpType::kFilter: {
      EmitFn next = BuildEmitFrom(cons_id);
      exec::ExprPtr pred = c.predicate;
      return [pred, next](const Tuple& t) {
        bool pass = false;
        if (!exec::EvalPredicate(*pred, t, &pass).ok() || !pass) return true;
        return next(t);
      };
    }
    case OpType::kProject: {
      EmitFn next = BuildEmitFrom(cons_id);
      std::vector<exec::ExprPtr> exprs = c.exprs;
      return [exprs, next](const Tuple& t) {
        Tuple out;
        out.reserve(exprs.size());
        for (const auto& e : exprs) {
          Value v;
          if (!e->Eval(t, &v).ok()) v = Value::Null();
          out.push_back(std::move(v));
        }
        return next(out);
      };
    }
    case OpType::kPartialAgg: {
      // Only join output reaches a partial aggregate tuple-at-a-time:
      // epochal scans feed it batches, and index scans cannot feed it.
      AggStage* as = static_cast<AggStage*>(stages_[cons_id].get());
      return [as](const Tuple& t) { return as->PushStreaming(t); };
    }
    default:
      // Origin-side nodes (final-agg, collect) are fed through exchanges,
      // never local member edges.
      return [](const Tuple&) { return true; };
  }
}

BatchEmitFn QueryRuntime::BuildBatchEmitFrom(uint32_t producer_id) {
  const OpNode& n = graph_->nodes[producer_id];
  switch (n.out) {
    case ExchangeKind::kToOrigin: {
      return [this](exec::RowBatch& b) {
        if (local_cap_ >= 0) {
          int64_t room = local_cap_ - epoch_sent_;
          if (room <= 0) return false;
          // LIMIT pushdown mid-batch: the tail past the cap is never
          // delivered, exactly like the tuple sink stopping at row `cap`.
          if (static_cast<int64_t>(b.ActiveRows()) > room) {
            b.TruncateLive(static_cast<size_t>(room));
          }
        }
        epoch_sent_ += static_cast<int64_t>(b.ActiveRows());
        host_->DeliverResultBatch(qid_, current_epoch_, b);
        return local_cap_ < 0 || epoch_sent_ < local_cap_;
      };
    }
    case ExchangeKind::kRehash:
    case ExchangeKind::kTree:
      // Not on a validated epochal chain: a rehash edge needs a join
      // consumer, and a tree edge leaves the partial-agg stage itself.
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
      std::shared_ptr<const exec::CompiledExpr> kernel =
          exec::CompiledExpr::Compile(c.predicate);
      return [kernel, next](exec::RowBatch& b) {
        exec::Bitmap keep;
        kernel->EvalSelection(b, &keep);
        exec::NarrowSelection(&b, keep);
        if (b.ActiveRows() == 0) return true;
        return next(b);
      };
    }
    case OpType::kProject: {
      BatchEmitFn next = BuildBatchEmitFrom(cons_id);
      auto kernels = std::make_shared<
          std::vector<std::unique_ptr<exec::CompiledExpr>>>();
      for (const auto& e : c.exprs) {
        kernels->push_back(exec::CompiledExpr::Compile(e));
      }
      return [kernels, next](exec::RowBatch& b) {
        // Kernels evaluate physical rows; compact survivors first so the
        // projected batch holds exactly the live set.
        exec::RowBatch in = b.has_selection() ? b.Compact() : std::move(b);
        size_t rows = in.num_rows();
        std::vector<exec::Column> cols;
        cols.reserve(kernels->size());
        exec::Bitmap err;
        for (const auto& kernel : *kernels) {
          exec::Column col;
          kernel->EvalColumn(in, &col, &err);
          if (!err.none()) {
            // Rows whose scalar evaluation would error project as NULL,
            // matching the tuple chain.
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
  for (JoinStage* js : joins_) js->Setup();
  if (recurse_ != nullptr) recurse_->Setup();
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
          ->RunEpoch(BuildEmitFrom(id));
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
  work.done = [this, epoch](bool) { OnEpochScanDone(epoch); };
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

void QueryRuntime::OnRemotePartial(uint64_t epoch, const Tuple& t) {
  if (agg_ != nullptr) {
    agg_->OnRemotePartial(epoch, t);
    return;
  }
  // No aggregation stage on this graph: forward straight to the origin.
  host_->DeliverPartial(qid_, epoch, t, ExchangeKind::kToOrigin);
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

Stage* QueryRuntime::stage(uint32_t node_id) {
  if (node_id >= stages_.size()) return nullptr;
  return stages_[node_id].get();
}

}  // namespace ops
}  // namespace query
}  // namespace pier
