#include "query/engine.h"

#include <algorithm>
#include <set>

#include "common/backoff.h"
#include "common/logging.h"
#include "index/index_manager.h"
#include "query/reliable.h"

namespace pier {
namespace query {

using catalog::Tuple;

namespace {

/// Max rows per kResultBatch frame on the member->origin hop. A lost frame
/// costs the whole frame until its retransmit lands: a small cap keeps the
/// loss blast radius (and thus recall under faulty links) close to a
/// row-at-a-time plane while still amortizing per-message framing.
constexpr size_t kResultFrameRows = 4;

/// True when every source of `g` is an index scan and nothing in the graph
/// needs other members: such a query executes entirely at the origin (plus
/// the DHT owners the cursor contacts) and is never broadcast.
bool IsOriginLocalGraph(const OpGraph& g) {
  bool has_index_scan = false;
  for (const OpNode& n : g.nodes) {
    switch (n.type) {
      case OpType::kIndexScan:
        has_index_scan = true;
        break;
      case OpType::kFilter:
      case OpType::kProject:
      case OpType::kFinalAgg:
      case OpType::kCollect:
        break;
      default:
        return false;  // scans, joins, recursion, partial agg: distributed
    }
    if (n.out == ExchangeKind::kRehash || n.out == ExchangeKind::kTree) {
      return false;
    }
  }
  return has_index_scan;
}

/// True when the query's data plane is pure member->origin AND every member
/// produces its whole epoch from its scans alone (no async operator state).
/// Only such ("accountable") epochal queries send per-epoch completion
/// reports and can be certified exact: an interior tree relay can fold and
/// forward after its subtree reported, and a partial-agg combiner holds its
/// flush on a timer — either would let a member report "done" while rows
/// are still to come, making the certification chain unsound. Scheduled
/// scans complete asynchronously, so both the member report and the origin
/// certification additionally gate on the runtime's scans-done signal
/// (ActiveQuery::scans_done_epoch).
bool IsAccountableGraph(const OpGraph& g) {
  for (const OpNode& n : g.nodes) {
    if (n.out == ExchangeKind::kRehash || n.out == ExchangeKind::kTree) {
      return false;
    }
    // Whitelist, not blacklist: only operators that produce their whole
    // epoch synchronously inside StartEpoch qualify. Joins (even the
    // fetch-matches kind with direct out-edges) emit from async DHT-get
    // callbacks, recursion expands over arrival callbacks, partial-agg
    // combiners flush on hold timers, index cursors walk the trie
    // asynchronously — any of them would let a member's completion report
    // race its own rows.
    switch (n.type) {
      case OpType::kScan:
      case OpType::kFilter:
      case OpType::kProject:
      case OpType::kFinalAgg:
      case OpType::kCollect:
        break;
      default:
        return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-query state
// ---------------------------------------------------------------------------

struct QueryEngine::ActiveQuery {
  PlanEnvelope env;
  bool is_origin = false;
  bool installed = false;
  sim::HostId parent = sim::kInvalidHost;  ///< aggregation-tree parent
  int depth = 0;
  bool ended = false;
  /// Index-only plan executing without dissemination; cleared when a
  /// fallback rewrites it into a broadcast scan.
  bool origin_local = false;
  /// One rewrite per query: a fallback graph has no index scans left.
  bool fallback_done = false;

  /// The instantiated opgraph: this node's stages and local pipelines.
  std::unique_ptr<ops::QueryRuntime> runtime;

  // Continuous execution driver (member side, including the origin).
  sim::PeriodicTask epoch_task;

  // Origin-side collection.
  ResultCallback cb;
  struct EpochState {
    std::vector<Tuple> rows;
    std::unique_ptr<exec::GroupByOp> final_gb;
    std::unordered_set<uint32_t> reporters;
    sim::TimerId finalize_timer = 0;
    bool finalized = false;
    /// A certified early finalize is already queued (deferred one tick so a
    /// degenerate single-node query cannot call back inside Execute()).
    bool early_finalize_scheduled = false;
  };
  std::map<uint64_t, EpochState> epochs;
  /// Epochs at or below this number already reported; stragglers count as
  /// late_partials instead of resurrecting dead epoch state.
  int64_t last_finalized_epoch = -1;
  std::unordered_set<std::string> origin_result_seen;  // recursion dedup
  TimePoint last_new_result = 0;
  sim::PeriodicTask quiesce_task;

  // -- lifecycle (PR 8) ------------------------------------------------------
  bool cancelled = false;
  bool deadline_expired = false;
  sim::TimerId deadline_timer = 0;
  /// Member-side origin-liveness lease (reclaims state if the origin died
  /// without broadcasting an end).
  sim::TimerId lease_timer = 0;

  // -- reliable result plane (PR 8) ------------------------------------------
  /// Epochal with a pure member->origin data plane (see IsAccountableGraph).
  bool accountable = false;
  ReliableOutbox outbox;
  /// Receiver-side frame dedupe, per sender.
  std::map<uint32_t, FrameDedupe> rx_dedupe;
  /// Distinct data frames admitted per sender (the origin checks members'
  /// cumulative claims against this).
  std::map<uint32_t, uint64_t> rx_data_frames;
  /// Origin-side: latest per-member completion report (cumulative counters,
  /// merged by max so retransmit reorderings are harmless).
  struct MemberReport {
    uint64_t epoch = 0;
    uint64_t frames_to_origin = 0;
    uint64_t retried = 0;
    uint64_t lost = 0;
  };
  std::map<uint32_t, MemberReport> reports;
  /// Members that refused the plan at admission.
  std::set<uint32_t> shed_members;

  // -- multi-tenant scheduler / budgets (PR 9) -------------------------------
  /// Highest epoch whose scheduled scans have all completed on this node
  /// (-1 = none yet). Members gate their epoch reports on it; origins gate
  /// certification on it — an async scan still draining means rows are
  /// still to come.
  int64_t scans_done_epoch = -1;
  /// A per-query budget tripped on this node (sticky for the query's life).
  bool budget_tripped = false;
  /// Budget meters on this node.
  uint64_t bytes_shipped = 0;
  uint64_t rehash_puts = 0;
  /// Origin-side: members that told us their budget tripped (kBudgetTrip or
  /// an epoch report's flag).
  std::set<uint32_t> budget_tripped_members;
  /// From the dissemination cover wave: how many nodes the latest plan
  /// broadcast reached, and whether every subtree confirmed.
  uint64_t members_expected = 0;
  bool coverage_complete = false;

  // -- Bloom filter waves (PR 10) --------------------------------------------
  /// Origin-side: waves this query broadcast incomplete (parts lost/late
  /// or coverage unknown at bloom_wait) — those edges ran the full rehash.
  uint64_t filter_waves_degraded = 0;
};

// ---------------------------------------------------------------------------
// Construction / plumbing
// ---------------------------------------------------------------------------

QueryEngine::QueryEngine(overlay::Transport* transport,
                         overlay::Router* router, dht::Dht* dht,
                         dht::BroadcastService* broadcast,
                         catalog::Catalog* catalog, EngineOptions options)
    : transport_(transport),
      router_(router),
      dht_(dht),
      broadcast_(broadcast),
      catalog_(catalog),
      sim_(transport->simulation()),
      options_(options) {
  transport_->RegisterHandler(
      overlay::Proto::kQuery,
      [this](sim::HostId from, Reader* r, const sim::Payload& /*body*/) {
        OnDirect(from, r);
      });
  broadcast_->SetHandler([this](sim::HostId origin, uint64_t seq,
                                sim::HostId parent, int depth,
                                const sim::Payload& payload) {
    OnBroadcast(origin, seq, parent, depth, payload);
  });
  broadcast_->SetCoverageHandler(
      [this](uint64_t seq, uint64_t members, bool complete) {
        OnCoverage(seq, members, complete);
      });
  QueryScheduler::Options sched;
  sched.quantum_rows = options_.sched_quantum_rows;
  sched.round_interval = options_.sched_round_interval;
  sched.shared_window = options_.shared_scan_window;
  sched.batch_rows = options_.batch_size;
  scheduler_ = std::make_unique<QueryScheduler>(
      sim_, dht_, &stats_,
      [this](Duration delay, std::function<void()> fn) {
        return ScheduleEngineTimer(delay, std::move(fn));
      },
      sched);
}

QueryEngine::~QueryEngine() {
  // A destroyed engine (node crash or reboot) must leave no timers behind:
  // callbacks capture `this`.
  for (sim::TimerId id : engine_timers_) sim_->Cancel(id);
}

void QueryEngine::Stop() {
  if (stopped_) return;
  stopped_ = true;
  for (sim::TimerId id : engine_timers_) sim_->Cancel(id);
  engine_timers_.clear();
  for (auto& [qid, aq] : queries_) {
    (void)qid;
    aq->epoch_task.Stop();
    aq->quiesce_task.Stop();
    // Prune the reliable plane with the engine, not just on the normal
    // kQueryEnd path: a stopped (crashed) node must release its pending-byte
    // charge and per-sender dedupe state, or a storm of short queries under
    // churn grows these maps without bound and wedges the admission gate.
    pending_result_bytes_ -= aq->outbox.pending_bytes();
    aq->outbox.Clear();
    aq->rx_dedupe.clear();
    aq->rx_data_frames.clear();
    aq->reports.clear();
  }
  scheduler_->Stop();
}

sim::TimerId QueryEngine::ScheduleEngineTimer(Duration delay,
                                              std::function<void()> fn) {
  if (stopped_) return 0;
  sim::TimerId id = sim_->ScheduleAfter(delay, std::move(fn));
  engine_timers_.push_back(id);
  return id;
}

sim::TimerId QueryEngine::ScheduleEngineTimerAt(TimePoint when,
                                                std::function<void()> fn) {
  if (stopped_) return 0;
  sim::TimerId id = sim_->ScheduleAt(when, std::move(fn));
  engine_timers_.push_back(id);
  return id;
}

void QueryEngine::SendDirect(sim::HostId to, const Writer& w) {
  transport_->Send(to, overlay::Proto::kQuery, w);
}

Status QueryEngine::Publish(const std::string& table, const Tuple& t) {
  return PublishVersioned(table, t, publish_seq_++);
}

Status QueryEngine::PublishVersioned(const std::string& table, const Tuple& t,
                                     uint64_t instance) {
  const catalog::TableDef* def = catalog_->Find(table);
  if (def == nullptr) {
    return Status::NotFound("no such table: " + table);
  }
  if (t.size() != def->schema.num_columns()) {
    return Status::InvalidArgument("tuple width mismatch for " + table);
  }
  // host+1 keeps every publisher-scoped id nonzero: the PHT index reuses
  // these ids for its entries, and instance 0 is its trie-marker slot.
  uint64_t scoped =
      (static_cast<uint64_t>(transport_->self() + 1) << 32) |
      (instance & 0xffffffffull);
  dht_->Put(def->KeyFor(t, scoped), catalog::TupleToBytes(t), def->ttl,
            nullptr);
  // Piggybacked index maintenance: the same publisher-scoped instance keys
  // the index entries, so renewals renew instead of duplicating.
  if (index_manager_ != nullptr && !def->indexes.empty()) {
    index_manager_->OnPublish(*def, t, scoped, def->ttl);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ops::StageHost — the exchange routing stages delegate to
// ---------------------------------------------------------------------------

bool QueryEngine::HasLiveQuery(uint64_t qid) const {
  auto it = queries_.find(qid);
  return it != queries_.end() && !it->second->ended;
}

Status QueryEngine::CheckReliableAccounting() const {
  uint64_t live_pending = 0;
  for (const auto& [qid, aq] : queries_) {
    if (!aq->ended) {
      live_pending += aq->outbox.pending_bytes();
      continue;
    }
    // Ended-but-unGCed husks exist only to absorb stragglers; any reliable
    // state still attached to one is a teardown leak.
    if (aq->outbox.pending_frames() != 0) {
      return Status::Internal("query " + std::to_string(qid) +
                              " ended with " +
                              std::to_string(aq->outbox.pending_frames()) +
                              " frames still in its outbox");
    }
    if (!aq->rx_dedupe.empty()) {
      return Status::Internal("query " + std::to_string(qid) +
                              " ended with a live rx dedupe window");
    }
    if (!aq->reports.empty()) {
      return Status::Internal("query " + std::to_string(qid) +
                              " ended with member reports retained");
    }
  }
  if (live_pending != pending_result_bytes_) {
    return Status::Internal(
        "admission counter drift: pending_result_bytes=" +
        std::to_string(pending_result_bytes_) + " but live outboxes hold " +
        std::to_string(live_pending));
  }
  return Status::OK();
}

int QueryEngine::QueryDepth(uint64_t qid) const {
  auto it = queries_.find(qid);
  return it == queries_.end() ? 0 : it->second->depth;
}

void QueryEngine::DeliverResult(uint64_t qid, uint64_t epoch,
                                const Tuple& t) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  if (aq->is_origin) {
    OriginAccept(aq, epoch, transport_->self(), t, /*is_partial=*/false);
    return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kResultTuple));
  w.PutVarint64(qid);
  w.PutVarint64(epoch);
  catalog::SerializeTuple(t, &w);
  ++stats_.result_msgs_sent;
  SendReliable(aq, aq->env.origin, std::move(w), /*control=*/false);
}

void QueryEngine::DeliverPartial(uint64_t qid, uint64_t epoch, const Tuple& t,
                                 ExchangeKind route) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  if (aq->is_origin) {
    OriginAccept(aq, epoch, transport_->self(), t, /*is_partial=*/true);
    return;
  }
  sim::HostId to = aq->env.origin;
  if (route == ExchangeKind::kTree && aq->parent != sim::kInvalidHost) {
    to = aq->parent;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kPartialAgg));
  w.PutVarint64(qid);
  w.PutVarint64(epoch);
  catalog::SerializeTuple(t, &w);
  ++stats_.partial_msgs_sent;
  SendReliable(aq, to, std::move(w), /*control=*/false);
}

void QueryEngine::DeliverResultBatch(uint64_t qid, uint64_t epoch,
                                     const exec::RowBatch& b) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  if (aq->is_origin) {
    Tuple t;
    for (size_t i = 0; i < b.ActiveRows(); ++i) {
      b.ToTuple(b.RowId(i), &t);
      OriginAccept(aq, epoch, transport_->self(), t, /*is_partial=*/false);
    }
    return;
  }
  size_t n = b.ActiveRows();
  if (n == 0) return;
  // Chunked delivery: one lost frame costs at most kResultFrameRows rows.
  for (size_t start = 0; start < n; start += kResultFrameRows) {
    size_t len = std::min(kResultFrameRows, n - start);
    if (len == 1) {
      // A single row ships in the legacy frame — it is smaller.
      Tuple t;
      b.ToTuple(b.RowId(start), &t);
      DeliverResult(qid, epoch, t);
      continue;
    }
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kResultBatch));
    w.PutVarint64(qid);
    w.PutVarint64(epoch);
    if (len == n) {
      b.Encode(&w);  // compacts the selection: the wire carries live rows
    } else {
      b.SliceLive(start, len).Encode(&w);
    }
    ++stats_.result_msgs_sent;
    ++stats_.batch_frames_sent;
    SendReliable(aq, aq->env.origin, std::move(w), /*control=*/false);
  }
}

void QueryEngine::DeliverPartialBatch(uint64_t qid, uint64_t epoch,
                                      const std::vector<Tuple>& partials,
                                      ExchangeKind route) {
  if (partials.empty()) return;
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  if (aq->is_origin) {
    for (const Tuple& t : partials) {
      OriginAccept(aq, epoch, transport_->self(), t, /*is_partial=*/true);
    }
    return;
  }
  if (partials.size() == 1) {
    // A single partial ships in the legacy row frame — it is smaller.
    DeliverPartial(qid, epoch, partials[0], route);
    return;
  }
  sim::HostId to = aq->env.origin;
  if (route == ExchangeKind::kTree && aq->parent != sim::kInvalidHost) {
    to = aq->parent;
  }
  // Partial rows from one flush share a layout ([group..., v1, v2 per
  // agg]); columns whose state types diverge across rows (the int->double
  // widening ladder) ride the boxed lane via AppendValue's promotion.
  std::vector<ValueType> types;
  types.reserve(partials[0].size());
  for (const Value& v : partials[0]) types.push_back(v.type());
  for (const Tuple& t : partials) {
    if (t.size() != types.size()) {
      // Ragged widths cannot share one batch; ship row frames instead.
      for (const Tuple& p : partials) DeliverPartial(qid, epoch, p, route);
      return;
    }
  }
  exec::RowBatchBuilder builder(types);
  builder.Reserve(partials.size());
  for (const Tuple& t : partials) builder.Append(t);
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kPartialBatch));
  w.PutVarint64(qid);
  w.PutVarint64(epoch);
  builder.Take().Encode(&w);
  ++stats_.partial_msgs_sent;
  ++stats_.batch_frames_sent;
  SendReliable(aq, to, std::move(w), /*control=*/false);
}

void QueryEngine::SendQueryBytes(uint32_t to, const Writer& w) {
  SendDirect(static_cast<sim::HostId>(to), w);
}

void QueryEngine::BroadcastBloomFilters(uint64_t qid, uint32_t node_id,
                                        uint64_t parts_expected,
                                        uint64_t parts_reported, bool complete,
                                        const BloomFilter& left,
                                        const BloomFilter& right) {
  // The wave's verdict is part of the query's answer-quality story: an
  // incomplete wave means that edge ran the full rehash, and the batch's
  // Completeness must say so.
  auto it = queries_.find(qid);
  if (it != queries_.end()) {
    if (complete) {
      ++stats_.bloom_waves_complete;
    } else {
      ++stats_.bloom_waves_degraded;
      ++it->second->filter_waves_degraded;
      PLOG(kInfo, "qe@" + std::to_string(transport_->self()))
          << "query " << qid << " bloom wave incomplete ("
          << parts_reported << "/" << parts_expected
          << " parts): edge degrades to full rehash";
    }
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kBloomDist));
  BloomDistFrame frame;
  frame.qid = qid;
  frame.join_node = node_id;
  frame.parts_expected = parts_expected;
  frame.parts_reported = parts_reported;
  frame.complete = complete;
  frame.left = left;
  frame.right = right;
  frame.Serialize(&w);
  broadcast_->Broadcast(sim::Payload(w.Release()));
}

void QueryEngine::QueryCoverage(uint64_t qid, uint64_t* members,
                                bool* complete) const {
  *members = 0;
  *complete = false;
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  *members = it->second->members_expected;
  *complete = it->second->coverage_complete;
}

sim::TimerId QueryEngine::ScheduleStageTimer(Duration delay, uint64_t qid,
                                             uint32_t node_id,
                                             uint64_t token) {
  return ScheduleEngineTimer(delay, [this, qid, node_id, token] {
    auto it = queries_.find(qid);
    if (it == queries_.end() || it->second->ended ||
        it->second->runtime == nullptr) {
      return;
    }
    ops::Stage* stage = it->second->runtime->stage(node_id);
    if (stage != nullptr) stage->OnTimer(token);
  });
}

void QueryEngine::CancelTimer(sim::TimerId id) { sim_->Cancel(id); }

void QueryEngine::PostToStage(uint64_t qid, uint32_t node_id,
                              const std::function<void(ops::Stage*)>& fn) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->ended ||
      it->second->runtime == nullptr) {
    return;
  }
  ops::Stage* stage = it->second->runtime->stage(node_id);
  if (stage != nullptr) fn(stage);
}

void QueryEngine::OnIndexScanDone(uint64_t qid, bool ok) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->ended || !it->second->is_origin) {
    return;
  }
  ActiveQuery* aq = it->second.get();
  if (!ok) {
    // Deferred: this call is on the failing cursor's own stack, and the
    // fallback replaces the runtime that owns it.
    uint64_t query_id = aq->env.query_id;
    ScheduleEngineTimer(0, [this, query_id] {
      auto qit = queries_.find(query_id);
      if (qit == queries_.end() || qit->second->ended) return;
      FallbackToScan(qit->second.get());
    });
    return;
  }
  // The cursor read the whole range: for a one-shot origin-local query the
  // answer is already complete, so close it now instead of sitting out the
  // rest of the result window — the latency half of the index win. The
  // finalize is deferred a tick because degenerate walks (an empty range)
  // complete synchronously inside Execute(), and the client must never see
  // its result callback fire before Execute has returned the query id.
  if (aq->origin_local && aq->env.plan.every == 0) {
    ++stats_.index_early_finalizes;
    uint64_t query_id = aq->env.query_id;
    ScheduleEngineTimer(0, [this, query_id] {
      auto qit = queries_.find(query_id);
      if (qit == queries_.end() || qit->second->ended) return;
      FinalizeEpoch(qit->second.get(), 0);
    });
  }
}

void QueryEngine::FallbackToScan(ActiveQuery* aq) {
  if (aq->fallback_done) return;  // fallback graphs carry no index scans
  aq->fallback_done = true;
  ++stats_.index_fallbacks;
  PLOG(kInfo, "qe@" + std::to_string(transport_->self()))
      << "query " << aq->env.query_id
      << " index scan failed/cold; falling back to broadcast scan";

  // Rewrite in place: every index scan becomes the plain scan of the same
  // relation. The planner always keeps the full WHERE in the trailing
  // filter node, so the rewritten graph computes the identical answer.
  scheduler_->DropQuery(aq->env.query_id);  // queued feeds capture the runtime
  aq->runtime.reset();
  for (OpNode& n : aq->env.plan.graph.nodes) {
    if (n.type == OpType::kIndexScan) {
      n.type = OpType::kScan;
      n.index_col = 0;
      n.index_lo = Value::Null();
      n.index_hi = Value::Null();
    }
  }
  aq->env.plan.graph_is_derived = false;  // must travel as-is
  aq->origin_local = false;
  // Rows the failed cursor already delivered would double-count against
  // the broadcast re-execution: reset this epoch's collection (its
  // finalize deadline stays armed).
  uint64_t epoch = CurrentEpoch(*aq);
  auto eit = aq->epochs.find(epoch);
  if (eit != aq->epochs.end()) {
    eit->second.rows.clear();
    eit->second.final_gb.reset();
    eit->second.reporters.clear();
  }
  aq->runtime = std::make_unique<ops::QueryRuntime>(this, &aq->env,
                                                    /*is_origin=*/true);
  if (!aq->runtime->Init().ok()) {
    aq->runtime.reset();
    return;  // defensive: leaves the query to time out best-effort
  }
  aq->accountable =
      aq->runtime->epochal() && IsAccountableGraph(aq->env.plan.graph);
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
  aq->env.Serialize(&w);
  // includes local delivery
  uint64_t seq = broadcast_->Broadcast(sim::Payload(w.Release()));
  if (seq != 0) coverage_waits_[seq] = {aq->env.query_id, epoch};
  aq->runtime->StartEpoch(CurrentEpoch(*aq));
}

void QueryEngine::RouteArrival(uint64_t qid, const std::string& ns,
                               const dht::StoredItem& item) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->ended ||
      it->second->runtime == nullptr) {
    return;
  }
  it->second->runtime->OnArrival(ns, item);
}

// ---------------------------------------------------------------------------
// Reliable result plane
// ---------------------------------------------------------------------------

void QueryEngine::SendReliable(ActiveQuery* aq, sim::HostId to, Writer&& inner,
                               bool control) {
  // A frame enqueued after teardown would be charged to the admission gate
  // but never acked, lost, or cleared — the pending-byte leak that wedges
  // admission into permanent Busy. (Stage pipelines can still emit while a
  // teardown broadcast is being processed.)
  if (aq->ended) return;
  if (!control) {
    // Bytes-shipped budget: data frames only — control traffic (acks,
    // reports, the trip notice itself) must always flow or the origin
    // would read the degradation as loss.
    const QueryBudget budget = EffectiveBudget(*aq);
    if (budget.max_result_bytes > 0 &&
        aq->bytes_shipped + inner.size() > budget.max_result_bytes) {
      TripBudget(aq);
      ++stats_.budget_frames_dropped;
      return;
    }
    aq->bytes_shipped += inner.size();
  }
  std::string bytes = inner.Release();
  pending_result_bytes_ += bytes.size();
  if (!control && to == aq->env.origin) ++aq->outbox.data_to_origin;
  uint64_t frame_id = aq->outbox.Enqueue(to, std::move(bytes), control);
  ++stats_.frames_sent;
  SendFrameOnce(aq, frame_id);
  ScheduleFrameRetry(aq->env.query_id, frame_id);
}

void QueryEngine::SendFrameOnce(ActiveQuery* aq, uint64_t frame_id) {
  ReliableOutbox::Frame* f = aq->outbox.Get(frame_id);
  if (f == nullptr) return;
  Writer w;
  w.Reserve(f->bytes.size() + 20);
  w.PutU8(static_cast<uint8_t>(MsgType::kFrame));
  w.PutVarint64(aq->env.query_id);
  w.PutVarint64(frame_id);
  w.PutRaw(f->bytes.data(), f->bytes.size());
  SendDirect(f->to, w);
}

void QueryEngine::ScheduleFrameRetry(uint64_t qid, uint64_t frame_id) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ReliableOutbox::Frame* f = it->second->outbox.Get(frame_id);
  if (f == nullptr) return;
  uint64_t salt = MixHash64(
      qid ^ (frame_id << 20) ^
      (static_cast<uint64_t>(transport_->self()) << 48));
  Duration delay = RetryDelay(options_.retry_initial, options_.retry_max,
                              options_.retry_jitter, salt, f->attempts);
  ScheduleEngineTimer(delay, [this, qid, frame_id] {
    auto qit = queries_.find(qid);
    if (qit == queries_.end()) return;
    ActiveQuery* q = qit->second.get();
    ReliableOutbox::Frame* fr = q->outbox.Get(frame_id);
    if (fr == nullptr || q->ended) return;
    if (fr->attempts >= options_.retry_budget) {
      // Lost for good: charge it loudly instead of pretending.
      bool was_data = !fr->control;
      pending_result_bytes_ -= fr->bytes.size();
      q->outbox.MarkLost(frame_id);
      ++stats_.frames_lost;
      if (was_data && q->outbox.data_drained()) OnOutboxDrained(q);
      return;
    }
    ++fr->attempts;
    if (!fr->control) ++q->outbox.retried;
    ++stats_.frames_retransmitted;
    stats_.frame_bytes_retransmitted += fr->bytes.size();
    SendFrameOnce(q, frame_id);
    ScheduleFrameRetry(qid, frame_id);
  });
}

void QueryEngine::OnFrame(sim::HostId from, Reader* r) {
  uint64_t qid = 0, frame_id = 0;
  if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&frame_id).ok()) return;
  // Always ack — duplicates and unknown or finished queries included — so
  // the sender's retransmits stop. Processing below is what is gated.
  Writer a;
  a.PutU8(static_cast<uint8_t>(MsgType::kFrameAck));
  a.PutVarint64(qid);
  a.PutVarint64(frame_id);
  SendDirect(from, a);
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  if (aq->ended) {
    // Teardown hygiene: an ended query's dedupe windows and admission
    // counters were pruned and must not regrow from stragglers. Still
    // dispatch so late data keeps counting as late_partials (a retransmit
    // racing the ack may count twice — the counter is diagnostic).
    uint8_t inner = 0;
    if (!r->GetU8(&inner).ok()) return;
    MsgType t = static_cast<MsgType>(inner);
    if (t == MsgType::kFrame || t == MsgType::kFrameAck) return;
    DispatchMessage(from, inner, r);
    return;
  }
  if (!aq->rx_dedupe[from].Admit(frame_id)) {
    ++stats_.frame_dupes_dropped;
    return;
  }
  uint8_t inner = 0;
  if (!r->GetU8(&inner).ok()) return;
  MsgType t = static_cast<MsgType>(inner);
  if (t == MsgType::kFrame || t == MsgType::kFrameAck) return;  // no nesting
  if (t == MsgType::kResultTuple || t == MsgType::kPartialAgg ||
      t == MsgType::kResultBatch || t == MsgType::kPartialBatch) {
    ++aq->rx_data_frames[from];
  }
  DispatchMessage(from, inner, r);
  // Admitted data may have been the last thing a certified epoch was
  // waiting on (a data frame can arrive after the member's report under
  // reordering).
  auto it2 = queries_.find(qid);
  if (it2 != queries_.end() && it2->second->is_origin &&
      !it2->second->ended && it2->second->accountable) {
    MaybeEarlyFinalize(it2->second.get(), CurrentEpoch(*it2->second));
  }
}

void QueryEngine::OnFrameAck(Reader* r) {
  uint64_t qid = 0, frame_id = 0;
  if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&frame_id).ok()) return;
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  ReliableOutbox::Frame* f = aq->outbox.Get(frame_id);
  if (f == nullptr) return;  // duplicate ack
  bool was_data = !f->control;
  pending_result_bytes_ -= f->bytes.size();
  aq->outbox.Ack(frame_id);
  ++stats_.frames_acked;
  if (was_data && !aq->ended && aq->outbox.data_drained()) {
    OnOutboxDrained(aq);
  }
}

void QueryEngine::OnOutboxDrained(ActiveQuery* aq) {
  if (aq->is_origin || aq->ended || !aq->accountable) return;
  // A drained outbox means nothing while this epoch's scheduled scans are
  // still queued: more data frames are coming, and an early "done" claim
  // would let the origin certify an answer missing them.
  if (aq->scans_done_epoch < static_cast<int64_t>(CurrentEpoch(*aq))) return;
  SendEpochReport(aq);
}

void QueryEngine::SendEpochReport(ActiveQuery* aq) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kEpochReport));
  w.PutVarint64(aq->env.query_id);
  w.PutVarint64(CurrentEpoch(*aq));
  w.PutVarint64(aq->outbox.data_to_origin);
  w.PutVarint64(aq->outbox.retried);
  w.PutVarint64(aq->outbox.lost);
  // Flags bit 0: a budget tripped here — rides the report so an origin that
  // missed the kBudgetTrip frame still learns of the degradation.
  w.PutVarint64(aq->budget_tripped ? 1 : 0);
  ++stats_.epoch_reports_sent;
  SendReliable(aq, aq->env.origin, std::move(w), /*control=*/true);
}

void QueryEngine::OnCoverage(uint64_t seq, uint64_t members, bool complete) {
  auto it = coverage_waits_.find(seq);
  if (it == coverage_waits_.end()) return;
  auto [qid, epoch] = it->second;
  coverage_waits_.erase(it);
  auto qit = queries_.find(qid);
  if (qit == queries_.end() || !qit->second->is_origin ||
      qit->second->ended) {
    return;
  }
  ActiveQuery* aq = qit->second.get();
  aq->members_expected = members;
  aq->coverage_complete = complete;
  MaybeEarlyFinalize(aq, epoch);
}

void QueryEngine::MaybeEarlyFinalize(ActiveQuery* aq, uint64_t epoch) {
  if (!aq->is_origin || aq->ended || !aq->accountable) return;
  if (aq->cancelled || aq->deadline_expired) return;
  if (!aq->coverage_complete || aq->members_expected == 0) return;
  if (!aq->shed_members.empty()) return;
  // A recently changed overlay neighborhood means this node's "everyone"
  // may be one side of a partition (the minority ring's cover wave returns
  // complete over 3 nodes of 10): no global exactness claim until the view
  // has been stable for a detection window.
  const TimePoint topo = router_->last_topology_change();
  if (options_.certify_stability_window > 0 && topo != 0 &&
      sim_->now() - topo < options_.certify_stability_window) {
    return;
  }
  // Budget degradation anywhere bars exactness, and the origin's own
  // scheduled scans must have drained — its loopback rows are part of the
  // answer being certified.
  if (aq->budget_tripped || !aq->budget_tripped_members.empty()) return;
  if (aq->scans_done_epoch < static_cast<int64_t>(epoch)) return;
  if (static_cast<int64_t>(epoch) <= aq->last_finalized_epoch) return;
  auto eit = aq->epochs.find(epoch);
  if (eit == aq->epochs.end() || eit->second.finalized ||
      eit->second.early_finalize_scheduled) {
    return;
  }
  // Every covered member (origin included: the +1) must have reported this
  // epoch loss-free, and every data frame it claims to have sent us must
  // have been admitted.
  if (aq->reports.size() + 1 < aq->members_expected) return;
  for (const auto& [host, rep] : aq->reports) {
    if (rep.epoch < epoch || rep.lost > 0) return;
    auto rx = aq->rx_data_frames.find(host);
    uint64_t admitted = rx == aq->rx_data_frames.end() ? 0 : rx->second;
    if (admitted < rep.frames_to_origin) return;  // data still in flight
  }
  eit->second.early_finalize_scheduled = true;
  ++stats_.reliable_early_finalizes;
  // Deferred a tick: a degenerate (single-node) dissemination certifies
  // synchronously inside Execute(), and the client must never see its
  // callback before Execute returns the query id.
  uint64_t qid = aq->env.query_id;
  ScheduleEngineTimer(0, [this, qid, epoch] {
    auto it = queries_.find(qid);
    if (it == queries_.end() || it->second->ended) return;
    FinalizeEpoch(it->second.get(), epoch, /*exact_certified=*/true);
  });
}

// ---------------------------------------------------------------------------
// Scheduler integration & per-query budgets
// ---------------------------------------------------------------------------

void QueryEngine::SubmitScan(ScanWork work) {
  const uint64_t qid = work.qid;
  // The abort probe is the engine's, not the runtime's: the scheduler must
  // stop serving a scan the moment the query ends or its budget trips,
  // even while a feed callback sits queued behind other tenants.
  work.aborted = [this, qid]() {
    auto it = queries_.find(qid);
    return it == queries_.end() || it->second->ended ||
           it->second->budget_tripped;
  };
  scheduler_->Submit(std::move(work));
}

void QueryEngine::OnEpochScansDone(uint64_t qid, uint64_t epoch) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  aq->scans_done_epoch =
      std::max(aq->scans_done_epoch, static_cast<int64_t>(epoch));
  if (aq->ended) return;
  if (!aq->is_origin && aq->accountable && aq->outbox.data_drained()) {
    // Everything this member will contribute for the epoch is already
    // acked — the drain event fired before the scans-done gate opened, so
    // report now.
    SendEpochReport(aq);
  }
  if (aq->is_origin && aq->accountable) {
    // The origin's own loopback scan was the last missing piece; the
    // member reports may already all be in.
    MaybeEarlyFinalize(aq, epoch);
  }
}

bool QueryEngine::ChargeRehashPuts(uint64_t qid, uint64_t n) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->ended) return false;
  ActiveQuery* aq = it->second.get();
  const QueryBudget budget = EffectiveBudget(*aq);
  if (budget.max_rehash_puts == 0) return true;  // unlimited
  if (aq->budget_tripped || aq->rehash_puts + n > budget.max_rehash_puts) {
    TripBudget(aq);
    stats_.budget_rehash_dropped += n;
    return false;
  }
  aq->rehash_puts += n;
  return true;
}

QueryBudget QueryEngine::EffectiveBudget(const ActiveQuery& aq) const {
  QueryBudget b = aq.env.plan.budget;
  if (b.max_result_bytes == 0) {
    b.max_result_bytes = options_.default_budget.max_result_bytes;
  }
  if (b.max_rehash_puts == 0) {
    b.max_rehash_puts = options_.default_budget.max_rehash_puts;
  }
  if (b.max_result_rows == 0) {
    b.max_result_rows = options_.default_budget.max_result_rows;
  }
  return b;
}

void QueryEngine::TripBudget(ActiveQuery* aq) {
  if (aq->budget_tripped) return;
  aq->budget_tripped = true;
  ++stats_.budget_trips;
  PLOG(kInfo, "qe@" + std::to_string(transport_->self()))
      << "query " << aq->env.query_id << " tripped its resource budget";
  if (!aq->is_origin && !aq->ended) {
    // Tell the origin immediately (control frame: exempt from the very
    // byte budget that may have tripped) so the degradation lands in
    // Completeness even if no epoch report ever goes out.
    Writer w;
    w.PutU8(static_cast<uint8_t>(MsgType::kBudgetTrip));
    w.PutVarint64(aq->env.query_id);
    SendReliable(aq, aq->env.origin, std::move(w), /*control=*/true);
  }
}

// ---------------------------------------------------------------------------
// Deadlines, leases, completeness
// ---------------------------------------------------------------------------

void QueryEngine::OnDeadline(uint64_t qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->ended) return;
  ActiveQuery* aq = it->second.get();
  aq->deadline_expired = true;
  ++stats_.queries_deadline_expired;
  if (!aq->is_origin) {
    // Self-expiry: the grace period passed without the origin's kCancel.
    HandleQueryEnd(qid);
    return;
  }
  // Degrade loudly: report whatever arrived, flagged deadline_expired, then
  // cancel network-wide so members free their state now.
  bool origin_local = aq->origin_local;
  FinalizeEpoch(aq, CurrentEpoch(*aq));
  auto it2 = queries_.find(qid);
  if (it2 != queries_.end() && !it2->second->ended && !origin_local) {
    Writer w;
    w.PutU8(static_cast<uint8_t>(BcastKind::kCancel));
    w.PutVarint64(qid);
    broadcast_->Broadcast(sim::Payload(w.Release()));
  }
}

void QueryEngine::ArmMemberLifecycle(ActiveQuery* aq) {
  if (aq->is_origin) return;
  uint64_t qid = aq->env.query_id;
  if (aq->env.deadline > 0 && aq->deadline_timer == 0) {
    // Two seconds of grace past the origin's deadline: its kCancel
    // normally lands first, making this the lost-broadcast backstop.
    aq->deadline_timer = ScheduleEngineTimerAt(
        aq->env.deadline + Seconds(2), [this, qid] { OnDeadline(qid); });
  }
  // Origin-liveness lease: a member whose origin crashed (no kQueryEnd, no
  // kCancel, no plan refreshes) reclaims its stage state and exchange
  // namespaces itself, well before the storage TTL would.
  TimePoint lease;
  if (aq->env.plan.every > 0) {
    // Refreshed on every plan re-broadcast: one missed period plus the
    // result window plus slack means the origin is gone.
    lease = sim_->now() + aq->env.plan.every + options_.result_wait +
            options_.member_lease;
  } else if (aq->runtime != nullptr && aq->runtime->has_recurse()) {
    lease = aq->env.issued_at + options_.recursion_deadline +
            options_.member_lease;
  } else {
    lease = aq->env.issued_at + options_.result_wait + options_.member_lease;
  }
  if (aq->lease_timer != 0) sim_->Cancel(aq->lease_timer);
  aq->lease_timer = ScheduleEngineTimerAt(lease, [this, qid] {
    auto it = queries_.find(qid);
    if (it == queries_.end() || it->second->ended) return;
    ++stats_.leases_reclaimed;
    HandleQueryEnd(qid);
  });
}

Completeness QueryEngine::BuildCompleteness(ActiveQuery* aq, uint64_t epoch,
                                            bool exact_certified) const {
  Completeness c;
  c.cancelled = aq->cancelled;
  c.deadline_expired = aq->deadline_expired;
  c.members_shed = aq->shed_members.size();
  c.budget_trips = aq->budget_tripped_members.size() +
                   (aq->budget_tripped ? 1 : 0);
  auto eit = aq->epochs.find(epoch);
  uint64_t reporters =
      eit != aq->epochs.end() ? eit->second.reporters.size() : 0;
  if (aq->origin_local) {
    c.members_expected = 1;
    c.members_reported = 1;
    c.coverage_complete = true;
  } else {
    c.members_expected = aq->members_expected;
    c.coverage_complete = aq->coverage_complete;
    c.members_reported = reporters;
    if (aq->accountable) {
      // Members with nothing to contribute still report; count them (and
      // the origin itself) over the raw data-reporter set.
      uint64_t reported = 1;
      for (const auto& [host, rep] : aq->reports) {
        if (rep.epoch >= epoch) ++reported;
      }
      c.members_reported = std::max(reported, reporters);
    }
  }
  for (const auto& [host, rep] : aq->reports) {
    c.frames_retried += rep.retried;
    c.frames_lost += rep.lost;
  }
  c.frames_retried += aq->outbox.retried;
  c.frames_lost += aq->outbox.lost;
  c.filter_waves_degraded = aq->filter_waves_degraded;
  c.exact = exact_certified && aq->filter_waves_degraded == 0;
  return c;
}

// ---------------------------------------------------------------------------
// Query issue / dissemination
// ---------------------------------------------------------------------------

Status QueryEngine::ValidateGraphAgainstCatalog(const OpGraph& graph) const {
  for (const OpNode& n : graph.nodes) {
    if (n.type == OpType::kJoin &&
        n.strategy == JoinStrategy::kFetchMatches) {
      const OpNode& right = graph.nodes[n.inputs[1]];
      const catalog::TableDef* def = catalog_->Find(right.table);
      if (def == nullptr || def->partition_cols != n.right_keys) {
        return Status::InvalidArgument(
            "fetch-matches requires the inner relation partitioned on the "
            "join key");
      }
    }
    if (n.type == OpType::kRecurse) {
      const OpNode& edge = graph.nodes[n.inputs[0]];
      const catalog::TableDef* def = catalog_->Find(edge.table);
      if (def == nullptr ||
          def->partition_cols != std::vector<int>{n.src_col}) {
        return Status::InvalidArgument(
            "recursive queries require the edge table partitioned on the "
            "source column");
      }
    }
    if (n.type == OpType::kIndexScan) {
      const catalog::TableDef* def = catalog_->Find(n.table);
      if (def == nullptr || def->IndexOn(n.index_col) == nullptr) {
        return Status::InvalidArgument(
            "index scan requires a declared index on the attribute");
      }
    }
  }
  return Status::OK();
}

Result<uint64_t> QueryEngine::Execute(QueryPlan plan, ResultCallback cb) {
  plan.EnsureGraph();
  PIER_RETURN_IF_ERROR(plan.graph.Validate());
  PIER_RETURN_IF_ERROR(ValidateGraphAgainstCatalog(plan.graph));

  // Admission: refuse at issue time rather than degrade mid-flight. A
  // refused caller gets a typed Busy and nothing was broadcast.
  size_t live = 0;
  for (const auto& [id, q] : queries_) {
    if (!q->ended) ++live;
  }
  if (live >= options_.max_live_queries) {
    ++stats_.admission_refusals;
    return Status::Busy("admission: live-query budget exhausted");
  }
  if (plan.graph.nodes.size() > options_.max_plan_operators) {
    ++stats_.admission_refusals;
    return Status::Busy("admission: plan exceeds operator budget");
  }
  if (pending_result_bytes_ > options_.max_pending_result_bytes) {
    ++stats_.admission_refusals;
    return Status::Busy("admission: pending result bytes over budget");
  }

  uint64_t query_id =
      (static_cast<uint64_t>(transport_->self() + 1) << 32) |
      next_query_seq_++;

  auto aq = std::make_unique<ActiveQuery>();
  aq->env.query_id = query_id;
  aq->env.origin = transport_->self();
  aq->env.issued_at = sim_->now();
  aq->env.plan = std::move(plan);
  aq->is_origin = true;
  aq->origin_local = IsOriginLocalGraph(aq->env.plan.graph);
  aq->parent = transport_->self();
  aq->cb = std::move(cb);
  // Resolve the deadline once, at the origin: the wire carries the absolute
  // time so every member counts down against the same clock.
  Duration deadline_after = aq->env.plan.deadline > 0
                                ? aq->env.plan.deadline
                                : options_.query_deadline;
  if (deadline_after > 0) {
    aq->env.deadline = aq->env.issued_at + deadline_after;
  }
  aq->runtime =
      std::make_unique<ops::QueryRuntime>(this, &aq->env, /*is_origin=*/true);
  PIER_RETURN_IF_ERROR(aq->runtime->Init());
  ++stats_.queries_issued;
  ActiveQuery* raw = aq.get();
  raw->accountable =
      raw->runtime->epochal() && IsAccountableGraph(raw->env.plan.graph);
  queries_.emplace(query_id, std::move(aq));

  if (raw->env.deadline > 0) {
    raw->deadline_timer = ScheduleEngineTimerAt(
        raw->env.deadline, [this, query_id] { OnDeadline(query_id); });
  }

  // Strategy-specific origin duties (e.g. the Bloom filter-collection
  // window) start at issue time, before the plan broadcast goes out.
  raw->runtime->InitOrigin();

  if (raw->runtime->has_recurse()) {
    // Recursion: the origin watches for quiescence.
    TimePoint deadline = sim_->now() + options_.recursion_deadline;
    raw->last_new_result = sim_->now();
    raw->quiesce_task.Start(sim_, Seconds(1), Seconds(1), [this, query_id,
                                                           deadline] {
      auto it = queries_.find(query_id);
      if (it == queries_.end() || it->second->ended) return;
      ActiveQuery* q = it->second.get();
      bool quiet =
          sim_->now() - q->last_new_result >= options_.quiesce_window;
      if (quiet || sim_->now() >= deadline) {
        FinalizeEpoch(q, 0);
      }
    });
  } else {
    // Schedule the epoch-0 finalize.
    ActiveQuery::EpochState& es = raw->epochs[0];
    es.finalize_timer = ScheduleEngineTimerAt(
        raw->env.issued_at + options_.result_wait,
        [this, query_id] {
          auto it = queries_.find(query_id);
          if (it != queries_.end()) FinalizeEpoch(it->second.get(), 0);
        });
  }

  if (raw->origin_local) {
    // Index-only plan: nothing for other members to do — install locally
    // and let the cursor touch exactly the DHT owners it needs. The
    // dissemination broadcast (and its network-wide scan work) is the
    // first thing the index saves.
    InstallQuery(raw->env, transport_->self(), 0);
  } else {
    Writer w;
    w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
    raw->env.Serialize(&w);
    uint64_t seq = broadcast_->Broadcast(sim::Payload(w.Release()));
    if (seq != 0) coverage_waits_[seq] = {query_id, 0};
  }
  PLOG(kInfo, "qe@" + std::to_string(transport_->self()))
      << "issued query " << query_id << " " << raw->env.plan.ToString();
  return query_id;
}

void QueryEngine::Cancel(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || !it->second->is_origin || it->second->ended) {
    return;
  }
  ActiveQuery* aq = it->second.get();
  aq->cancelled = true;
  ++stats_.queries_cancelled;
  aq->quiesce_task.Stop();
  if (aq->origin_local) {
    // Never disseminated: tear down locally.
    HandleQueryEnd(query_id);
    return;
  }
  // kCancel rides the same dissemination tree the plan did (acked edges,
  // so it actually arrives), freeing member stage state and q<id>.x<n>
  // namespaces now instead of squatting until TTL. No final batch fires.
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kCancel));
  w.PutVarint64(query_id);
  broadcast_->Broadcast(sim::Payload(w.Release()));  // includes local delivery
}

void QueryEngine::OnBroadcast(sim::HostId /*bcast_origin*/, uint64_t /*seq*/,
                              sim::HostId parent, int depth,
                              const sim::Payload& payload) {
  Reader r(payload.view());
  uint8_t kind = 0;
  if (!r.GetU8(&kind).ok()) return;
  switch (static_cast<BcastKind>(kind)) {
    case BcastKind::kPlan: {
      PlanEnvelope env;
      if (!PlanEnvelope::Deserialize(&r, &env).ok()) return;
      InstallQuery(env, parent, depth);
      break;
    }
    case BcastKind::kBloomDist: {
      BloomDistFrame frame;
      if (!BloomDistFrame::Deserialize(&r, &frame).ok()) return;
      auto it = queries_.find(frame.qid);
      if (it == queries_.end() || it->second->ended ||
          it->second->runtime == nullptr) {
        return;
      }
      it->second->runtime->OnBloomDist(std::move(frame));
      break;
    }
    case BcastKind::kQueryEnd:
    case BcastKind::kCancel: {
      uint64_t qid = 0;
      if (!r.GetVarint64(&qid).ok()) return;
      HandleQueryEnd(qid);
      break;
    }
  }
}

void QueryEngine::HandleQueryEnd(uint64_t qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->ended) return;
  ActiveQuery* aq = it->second.get();
  aq->ended = true;
  aq->epoch_task.Stop();
  aq->quiesce_task.Stop();
  // Drop unacked frames with the query: retransmitting into a dead query
  // only burns bytes (the receiver acks-and-ignores anyway), and the
  // admission gate must stop charging for them.
  pending_result_bytes_ -= aq->outbox.pending_bytes();
  aq->outbox.Clear();
  // Same for the receiver side: per-sender dedupe windows, admitted-frame
  // counters, and member reports die with the query on EVERY terminal path
  // (kQueryEnd, kCancel, member deadline self-expiry, lease reclaim all
  // route here) — not just the happy one. A storm of short queries must
  // leave these maps empty, not monotonically growing.
  aq->rx_dedupe.clear();
  aq->rx_data_frames.clear();
  aq->reports.clear();
  // Queued scan work captures the runtime about to be torn down.
  scheduler_->DropQuery(qid);
  if (aq->deadline_timer != 0) {
    sim_->Cancel(aq->deadline_timer);
    aq->deadline_timer = 0;
  }
  if (aq->lease_timer != 0) {
    sim_->Cancel(aq->lease_timer);
    aq->lease_timer = 0;
  }
  if (aq->runtime != nullptr) {
    for (const std::string& ns : aq->runtime->Namespaces()) {
      dht_->UnsubscribeArrivals(ns);
      dht_->local_store()->DropNamespace(ns);
    }
  }
  ScheduleEngineTimer(options_.cleanup_delay, [this, qid] { GcQuery(qid); });
}

void QueryEngine::InstallQuery(const PlanEnvelope& env, sim::HostId parent,
                               int depth) {
  auto it = queries_.find(env.query_id);
  if (it != queries_.end()) {
    // Already installed. Continuous queries are re-disseminated
    // periodically (soft state); a refresh carries a fresh tree position,
    // repairing aggregation trees around failed parents — and renews the
    // member's origin-liveness lease.
    if (!it->second->is_origin) {
      it->second->parent = parent;
      it->second->depth = depth;
      ArmMemberLifecycle(it->second.get());
      if (it->second->installed) return;
    } else if (it->second->installed) {
      return;
    }
  } else {
    // Member-side admission: refuse the plan at dissemination time, loudly.
    // The typed reject tells the origin exactly who shed, so its
    // Completeness summary reflects the shortfall instead of silently
    // missing rows.
    if (env.origin != transport_->self()) {
      AdmissionReason refuse_reason{};
      bool refused = false;
      size_t live = 0;
      for (const auto& [id, q] : queries_) {
        if (!q->ended) ++live;
      }
      if (live >= options_.max_live_queries) {
        refused = true;
        refuse_reason = AdmissionReason::kLiveQueries;
      } else if (pending_result_bytes_ > options_.max_pending_result_bytes) {
        refused = true;
        refuse_reason = AdmissionReason::kPendingBytes;
      }
      if (refused) {
        ++stats_.plans_shed;
        Writer w;
        w.PutU8(static_cast<uint8_t>(MsgType::kAdmissionReject));
        w.PutVarint64(env.query_id);
        w.PutU8(static_cast<uint8_t>(refuse_reason));
        SendDirect(env.origin, w);
        return;
      }
    }
    auto aq = std::make_unique<ActiveQuery>();
    aq->env = env;
    aq->parent = parent;
    aq->depth = depth;
    queries_.emplace(env.query_id, std::move(aq));
    ++stats_.plans_received;
  }
  ActiveQuery* aq = queries_.find(env.query_id)->second.get();
  aq->installed = true;

  if (aq->runtime == nullptr) {
    aq->env.plan.EnsureGraph();
    aq->runtime = std::make_unique<ops::QueryRuntime>(this, &aq->env,
                                                      aq->is_origin);
    if (!aq->runtime->Init().ok()) {
      // Hostile or unexecutable graph: drop it (soft failure, no crash) —
      // but still lease the husk so it cannot squat forever.
      aq->runtime.reset();
      ArmMemberLifecycle(aq);
      return;
    }
    aq->accountable =
        aq->runtime->epochal() && IsAccountableGraph(aq->env.plan.graph);
  }
  ArmMemberLifecycle(aq);

  if (aq->runtime->epochal()) {
    StartEpoch(aq, CurrentEpoch(*aq));
    if (aq->env.plan.every > 0) {
      // Align the periodic scan to global epoch boundaries (epochs are
      // numbered from the origin's issue time on the shared clock), so a
      // node that learns the query late — e.g. after a reboot — slots
      // into the same epochs as everyone else.
      uint64_t qid = env.query_id;
      Duration since = sim_->now() - aq->env.issued_at;
      Duration to_boundary =
          aq->env.plan.every - (since % aq->env.plan.every);
      aq->epoch_task.Start(sim_, to_boundary, aq->env.plan.every,
                           [this, qid] {
                             auto qit = queries_.find(qid);
                             if (qit == queries_.end()) return;
                             ActiveQuery* q = qit->second.get();
                             if (q->ended) return;
                             StartEpoch(q, CurrentEpoch(*q));
                           });
    }
  } else {
    // Joins and recursion set up once: subscribe this node's exchange
    // namespaces, then let the stages produce.
    uint64_t qid = env.query_id;
    for (const std::string& ns : aq->runtime->Namespaces()) {
      dht_->SubscribeArrivals(ns,
                              [this, qid, ns](const dht::StoredItem& item) {
                                RouteArrival(qid, ns, item);
                                return true;  // exchange tuples always store
                              });
    }
    aq->runtime->Start();
  }
}

uint64_t QueryEngine::CurrentEpoch(const ActiveQuery& aq) const {
  if (aq.env.plan.every <= 0) return 0;
  TimePoint since = sim_->now() - aq.env.issued_at;
  if (since < 0) return 0;
  return static_cast<uint64_t>(since / aq.env.plan.every);
}

void QueryEngine::StartEpoch(ActiveQuery* aq, uint64_t epoch) {
  if (aq->ended || aq->runtime == nullptr) return;
  // The origin schedules this epoch's finalize deadline (epoch 0's was
  // scheduled at Execute time) and refreshes the dissemination: nodes that
  // rebooted since the last broadcast re-learn the plan, and everyone gets
  // an up-to-date tree parent.
  if (aq->is_origin && epoch > 0) {
    ActiveQuery::EpochState& es = aq->epochs[epoch];
    uint64_t qid = aq->env.query_id;
    es.finalize_timer =
        ScheduleEngineTimer(options_.result_wait, [this, qid, epoch] {
          auto it = queries_.find(qid);
          if (it != queries_.end()) FinalizeEpoch(it->second.get(), epoch);
        });
    if (!aq->origin_local) {
      Writer w;
      w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
      aq->env.Serialize(&w);
      uint64_t seq = broadcast_->Broadcast(sim::Payload(w.Release()));
      if (seq != 0) coverage_waits_[seq] = {qid, epoch};
    }
  }
  // The runtime signals OnEpochScansDone once the scheduler has drained
  // this epoch's scans; members report and origins certify from there.
  aq->runtime->StartEpoch(epoch);
}

// ---------------------------------------------------------------------------
// Direct engine traffic
// ---------------------------------------------------------------------------

void QueryEngine::OnDirect(sim::HostId from, Reader* r) {
  uint8_t type = 0;
  if (!r->GetU8(&type).ok()) return;
  switch (static_cast<MsgType>(type)) {
    case MsgType::kResultTuple:
    case MsgType::kPartialAgg:
    case MsgType::kResultBatch:
    case MsgType::kPartialBatch:
    case MsgType::kEpochReport:
    case MsgType::kBudgetTrip:
      // Frame-only types: data and completion claims count toward an
      // answer only through OnFrame, which dedupes and tallies them against
      // the members' reports. A bare one would land in the answer unseen by
      // that accounting, so it is dropped.
      return;
    default:
      DispatchMessage(from, type, r);
  }
}

void QueryEngine::DispatchMessage(sim::HostId from, uint8_t type, Reader* r) {
  switch (static_cast<MsgType>(type)) {
    case MsgType::kFrame:
      OnFrame(from, r);
      return;
    case MsgType::kFrameAck:
      OnFrameAck(r);
      return;
    case MsgType::kEpochReport: {
      uint64_t qid = 0, epoch = 0, frames = 0, retried = 0, lost = 0;
      if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&epoch).ok() ||
          !r->GetVarint64(&frames).ok() || !r->GetVarint64(&retried).ok() ||
          !r->GetVarint64(&lost).ok()) {
        return;
      }
      uint64_t flags = 0;
      if (!r->GetVarint64(&flags).ok()) return;
      if (epoch >= (1ull << 62)) return;  // same spoof guard as data frames
      auto it = queries_.find(qid);
      if (it == queries_.end() || !it->second->is_origin ||
          it->second->ended) {
        return;
      }
      ActiveQuery* aq = it->second.get();
      ++stats_.epoch_reports_received;
      // Counters are cumulative; component-wise max makes retransmit
      // reorderings harmless.
      ActiveQuery::MemberReport& rep = aq->reports[from];
      rep.epoch = std::max(rep.epoch, epoch);
      rep.frames_to_origin = std::max(rep.frames_to_origin, frames);
      rep.retried = std::max(rep.retried, retried);
      rep.lost = std::max(rep.lost, lost);
      if (flags & 1) aq->budget_tripped_members.insert(from);
      MaybeEarlyFinalize(aq, CurrentEpoch(*aq));
      return;
    }
    case MsgType::kBudgetTrip: {
      uint64_t qid = 0;
      if (!r->GetVarint64(&qid).ok()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() || !it->second->is_origin ||
          it->second->ended) {
        return;
      }
      // Degrade loudly: the member stopped working within its budget; the
      // answer ships with budget_trips counted and exactness barred.
      it->second->budget_tripped_members.insert(from);
      return;
    }
    case MsgType::kAdmissionReject: {
      uint64_t qid = 0;
      uint8_t reason = 0;
      if (!r->GetVarint64(&qid).ok() || !r->GetU8(&reason).ok()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() || !it->second->is_origin ||
          it->second->ended) {
        return;
      }
      ++stats_.admission_rejects_received;
      // A shed member permanently bars exactness for this query run; the
      // Completeness summary carries the count so callers see the shortfall.
      it->second->shed_members.insert(from);
      return;
    }
    default:
      break;
  }
  switch (static_cast<MsgType>(type)) {
    case MsgType::kResultTuple:
    case MsgType::kPartialAgg: {
      uint64_t qid = 0, epoch = 0;
      Tuple t;
      if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&epoch).ok() ||
          !catalog::DeserializeTuple(r, &t).ok()) {
        return;
      }
      // Epochs count periods since issue time; anything near the integer
      // ceiling is a spoofed message (and would wrap the stage-timer token
      // space, which reserves 0 and encodes combiner flushes as 1+epoch).
      if (epoch >= (1ull << 62)) return;
      auto it = queries_.find(qid);
      if (it == queries_.end()) return;
      ActiveQuery* aq = it->second.get();
      bool is_partial = static_cast<MsgType>(type) == MsgType::kPartialAgg;
      if (is_partial) {
        ++stats_.partial_msgs_received;
      } else {
        ++stats_.result_msgs_received;
      }
      if (aq->is_origin) {
        OriginAccept(aq, epoch, from, t, is_partial);
      } else if (is_partial && !aq->ended && aq->runtime != nullptr) {
        // Interior tree node: combine if the window is open, else relay
        // upward unmodified (late child).
        aq->runtime->OnRemotePartial(epoch, t);
      }
      break;
    }
    case MsgType::kResultBatch:
    case MsgType::kPartialBatch: {
      uint64_t qid = 0, epoch = 0;
      exec::RowBatch b;
      if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&epoch).ok() ||
          !exec::RowBatch::Decode(r, &b).ok()) {
        return;
      }
      if (epoch >= (1ull << 62)) return;  // same spoof guard as row frames
      auto it = queries_.find(qid);
      if (it == queries_.end()) return;
      ActiveQuery* aq = it->second.get();
      bool is_partial = static_cast<MsgType>(type) == MsgType::kPartialBatch;
      if (is_partial) {
        ++stats_.partial_msgs_received;
      } else {
        ++stats_.result_msgs_received;
      }
      ++stats_.batch_frames_received;
      // Unpack and treat each row exactly like its row-frame twin — one
      // frame, N accept/combine decisions.
      Tuple t;
      for (size_t i = 0; i < b.num_rows(); ++i) {
        b.ToTuple(i, &t);
        if (aq->is_origin) {
          OriginAccept(aq, epoch, from, t, is_partial);
        } else if (is_partial && !aq->ended && aq->runtime != nullptr) {
          aq->runtime->OnRemotePartial(epoch, t);
        }
      }
      break;
    }
    case MsgType::kFetchReq: {
      uint64_t qid = 0;
      if (!r->GetVarint64(&qid).ok()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() || it->second->runtime == nullptr) return;
      it->second->runtime->OnFetchReq(from, r);
      break;
    }
    case MsgType::kFetchResp: {
      uint64_t qid = 0;
      if (!r->GetVarint64(&qid).ok()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() || it->second->ended ||
          it->second->runtime == nullptr) {
        return;
      }
      it->second->runtime->OnFetchResp(r);
      break;
    }
    case MsgType::kBloomPart: {
      BloomPartFrame frame;
      if (!BloomPartFrame::Deserialize(r, &frame).ok()) return;
      auto it = queries_.find(frame.qid);
      if (it == queries_.end() || !it->second->is_origin ||
          it->second->ended || it->second->runtime == nullptr) {
        return;
      }
      // `from` is the transport-level sender: parts are accounted per
      // member, so a retransmitted part never double-counts.
      it->second->runtime->OnBloomPart(from, frame);
      break;
    }
    default:
      break;  // frame-plane types handled above
  }
}

// ---------------------------------------------------------------------------
// Origin-side collection and post-processing
// ---------------------------------------------------------------------------

void QueryEngine::OriginAccept(ActiveQuery* aq, uint64_t epoch,
                               sim::HostId from, const Tuple& t,
                               bool is_partial) {
  if (static_cast<int64_t>(epoch) <= aq->last_finalized_epoch) {
    ++stats_.late_partials;  // straggler past the window
    return;
  }
  ActiveQuery::EpochState& es = aq->epochs[epoch];
  if (es.finalized) {
    ++stats_.late_partials;
    return;
  }
  es.reporters.insert(from);
  if (is_partial) {
    const OpNode* fagg = aq->runtime != nullptr
                             ? aq->runtime->final_agg_node()
                             : nullptr;
    if (fagg == nullptr) return;  // partial for a non-aggregate graph
    if (es.final_gb == nullptr) {
      es.final_gb = std::make_unique<exec::GroupByOp>(
          fagg->group_cols, fagg->aggs, exec::AggPhase::kFinal);
    }
    es.final_gb->Push(t, 0);
    return;
  }
  if (aq->runtime != nullptr && aq->runtime->has_recurse()) {
    // Global dedup: the same pair may be reported via multiple temp owners
    // after churn.
    std::string key = catalog::TupleToBytes(t);
    if (!aq->origin_result_seen.insert(key).second) return;
    aq->last_new_result = sim_->now();
  }
  // Result-window budget: the origin stops accumulating past the row cap
  // and flags the trip — callers get a bounded prefix declared degraded,
  // never an unbounded buffer or a silent truncation.
  const uint64_t row_cap = EffectiveBudget(*aq).max_result_rows;
  if (row_cap > 0 && es.rows.size() >= row_cap) {
    TripBudget(aq);
    ++stats_.budget_rows_dropped;
    return;
  }
  es.rows.push_back(t);
}

std::vector<Tuple> QueryEngine::OriginPostProcess(ActiveQuery* aq,
                                                  uint64_t epoch) {
  ActiveQuery::EpochState& es = aq->epochs[epoch];
  std::vector<Tuple> rows;
  const OpNode* fagg =
      aq->runtime != nullptr ? aq->runtime->final_agg_node() : nullptr;
  const OpNode* collect =
      aq->runtime != nullptr ? aq->runtime->collect_node() : nullptr;

  if (fagg != nullptr) {
    // Merge network partials (and, for join+aggregate, aggregate the raw
    // joined rows collected in es.rows with a complete group-by).
    bool from_partials =
        aq->runtime != nullptr && aq->runtime->has_partial_agg();
    exec::GroupByOp* gb = es.final_gb.get();
    std::unique_ptr<exec::GroupByOp> local;
    if (gb == nullptr || !es.rows.empty()) {
      local = std::make_unique<exec::GroupByOp>(
          fagg->group_cols, fagg->aggs,
          from_partials ? exec::AggPhase::kFinal
                        : exec::AggPhase::kComplete);
      gb = local.get();
      for (const Tuple& t : es.rows) gb->Push(t, 0);
      if (es.final_gb != nullptr) {
        // Should not happen (either partials or raw rows), but merge anyway.
        exec::FnSink relay([&gb](const Tuple& t) { gb->Push(t, 0); });
        es.final_gb->AddOutput(&relay);
        es.final_gb->FlushAndReset();
      }
    }
    exec::FnSink sink([&rows](const Tuple& t) { rows.push_back(t); });
    gb->AddOutput(&sink);
    gb->FlushAndReset();

    // SQL scalar-aggregate semantics: no groups and no input still yields
    // one row (COUNT = 0, SUM = NULL, ...).
    if (fagg->group_cols.empty() && rows.empty()) {
      Tuple identity;
      for (const exec::AggSpec& spec : fagg->aggs) {
        Value v1, v2;
        exec::AggInit(spec, &v1, &v2);
        identity.push_back(exec::AggFinalize(spec, v1, v2));
      }
      rows.push_back(std::move(identity));
    }

    if (fagg->having != nullptr) {
      std::vector<Tuple> kept;
      for (const Tuple& t : rows) {
        bool pass = false;
        if (exec::EvalPredicate(*fagg->having, t, &pass).ok() && pass) {
          kept.push_back(t);
        }
      }
      rows = std::move(kept);
    }
    if (collect != nullptr && !collect->final_projection.empty()) {
      for (Tuple& t : rows) {
        Tuple permuted;
        permuted.reserve(collect->final_projection.size());
        for (int c : collect->final_projection) {
          permuted.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                                 ? t[c]
                                 : Value::Null());
        }
        t = std::move(permuted);
      }
    }
  } else {
    rows = std::move(es.rows);
    es.rows.clear();
    if (collect != nullptr && collect->distinct) {
      std::vector<Tuple> unique;
      exec::DistinctOp distinct;
      exec::FnSink sink([&unique](const Tuple& t) { unique.push_back(t); });
      distinct.AddOutput(&sink);
      for (const Tuple& t : rows) distinct.Push(t, 0);
      rows = std::move(unique);
    }
  }

  if (collect != nullptr && collect->order_col >= 0) {
    size_t k = collect->limit >= 0 ? static_cast<size_t>(collect->limit)
                                   : rows.size();
    exec::TopKOp topk(collect->order_col, collect->order_desc, k);
    std::vector<Tuple> ordered;
    exec::FnSink sink([&ordered](const Tuple& t) { ordered.push_back(t); });
    topk.AddOutput(&sink);
    for (const Tuple& t : rows) topk.Push(t, 0);
    topk.FlushAndReset();
    rows = std::move(ordered);
  } else if (collect != nullptr && collect->limit >= 0 &&
             rows.size() > static_cast<size_t>(collect->limit)) {
    rows.resize(static_cast<size_t>(collect->limit));
  }
  return rows;
}

void QueryEngine::FinalizeEpoch(ActiveQuery* aq, uint64_t epoch,
                                bool exact_certified) {
  if (!aq->is_origin || aq->ended) return;
  // Re-check the certification at delivery time: the early finalize is
  // deferred a tick, and a late kAdmissionReject, budget trip, cancel, or
  // deadline can land in between (or arrive through a fault-plane
  // duplicate after the cover wave). A batch must never claim exact while
  // its own Completeness carries a degradation.
  if (exact_certified &&
      (!aq->shed_members.empty() || aq->cancelled || aq->deadline_expired ||
       aq->budget_tripped || !aq->budget_tripped_members.empty())) {
    exact_certified = false;
  }
  // A continuous query may race its early finalize against the result-wait
  // timer; whichever fired first already erased this epoch's state, and
  // operator[] below must not resurrect it.
  if (static_cast<int64_t>(epoch) <= aq->last_finalized_epoch) return;
  ActiveQuery::EpochState& es = aq->epochs[epoch];
  if (es.finalized) return;
  es.finalized = true;
  if (es.finalize_timer != 0) {
    sim_->Cancel(es.finalize_timer);
    es.finalize_timer = 0;
  }

  ResultBatch batch;
  batch.query_id = aq->env.query_id;
  batch.epoch = epoch;
  batch.reporting_nodes = es.reporters.size();
  batch.reporters.assign(es.reporters.begin(), es.reporters.end());
  std::sort(batch.reporters.begin(), batch.reporters.end());
  batch.completeness = BuildCompleteness(aq, epoch, exact_certified);
  batch.rows = OriginPostProcess(aq, epoch);
  aq->last_finalized_epoch =
      std::max(aq->last_finalized_epoch, static_cast<int64_t>(epoch));
  if (aq->cb && !aq->cancelled) aq->cb(batch);

  bool one_shot = aq->env.plan.every == 0;
  if (one_shot) {
    EndQuery(aq->env.query_id);
  } else {
    // Keep the query running; retire this epoch's state.
    aq->epochs.erase(epoch);
  }
}

void QueryEngine::EndQuery(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || !it->second->is_origin) return;
  it->second->quiesce_task.Stop();
  if (it->second->origin_local) {
    // Never disseminated, so nothing remote to tear down.
    HandleQueryEnd(query_id);
    return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kQueryEnd));
  w.PutVarint64(query_id);
  broadcast_->Broadcast(sim::Payload(w.Release()));  // includes local delivery
}

void QueryEngine::GcQuery(uint64_t query_id) {
  for (auto it = coverage_waits_.begin(); it != coverage_waits_.end();) {
    it = it->second.first == query_id ? coverage_waits_.erase(it)
                                      : std::next(it);
  }
  queries_.erase(query_id);
}

}  // namespace query
}  // namespace pier
