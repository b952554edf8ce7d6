#include "query/engine.h"

#include <algorithm>
#include <optional>
#include <set>

#include "common/backoff.h"
#include "common/hash.h"
#include "common/logging.h"
#include "index/index_manager.h"
#include "query/reliable.h"

namespace pier {
namespace query {

using catalog::Tuple;

namespace {

/// Max rows per kResult frame on the member->origin hop. A lost frame
/// costs the whole frame until its retransmit lands: a small cap keeps the
/// loss blast radius (and thus recall under faulty links) close to a
/// row-at-a-time plane while still amortizing per-message framing.
constexpr size_t kResultFrameRows = 4;

// Fixed pacing (the windows a deployment sets are in EngineOptions).
/// Reliable result plane: retransmit after kRetryInitial, backing off x2 up
/// to kRetryMax, each delay jittered by +/- kRetryJitter; a frame is lost
/// for good (Completeness::frames_lost) after kRetryBudget attempts — 7 fit
/// the default 8s result window at 20% per-hop loss with P(loss) ~ 1e-3.
constexpr Duration kRetryInitial = Millis(300);
constexpr Duration kRetryMax = Seconds(2);
constexpr double kRetryJitter = 0.25;
constexpr int kRetryBudget = 7;
/// How long a node keeps an ended query's tombstone: a late plan copy or
/// refresh must not reinstall the query, and a frame for an epoch it closed
/// still counts as late.
constexpr Duration kCleanupDelay = Seconds(30);
/// Member-side origin-liveness lease: grace beyond a query's expected end
/// after which a member whose origin died without kQueryEnd/kCancel
/// reclaims the query's stage state and exchange namespaces on its own.
constexpr Duration kMemberLease = Seconds(20);
/// Origin admission refuses plans with more operators than this.
constexpr size_t kMaxPlanOperators = 64;
/// No `exact` certification while the overlay topology changed within this
/// window: the minority side of a fresh partition sees "every member
/// reported" over its shrunken ring. Sized so a one-shot query issued
/// within ~window - result_wait of a split cannot certify in its window.
constexpr Duration kCertifyStabilityWindow = Seconds(30);

/// Starts a result or partial message: [type][qid][epoch], then its rows.
Writer DataMessage(MsgType type, uint64_t qid, uint64_t epoch) {
  Writer w;
  w.PutU8(static_cast<uint8_t>(type));
  w.PutVarint64(qid);
  w.PutVarint64(epoch);
  return w;
}

}  // namespace

bool RangesOverlap(std::vector<std::pair<Id160, Id160>> ranges) {
  if (ranges.size() < 2) return false;
  // Sorted by their ends, two ranges overlap exactly when some range holds
  // the end before its own (the first range's is the last one's: the ring
  // wraps).
  std::sort(ranges.begin(), ranges.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  for (size_t i = 0; i < ranges.size(); ++i) {
    const Id160& prev_end =
        ranges[(i + ranges.size() - 1) % ranges.size()].second;
    if (prev_end.InIntervalOpenClosed(ranges[i].first, ranges[i].second)) {
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Per-query state
// ---------------------------------------------------------------------------

struct QueryEngine::ActiveQuery {
  PlanEnvelope env;
  bool is_origin = false;
  bool installed = false;
  /// This install's stamp on its frames (install time, ms): a later install
  /// of the query here numbers its frames from 1 again, and receivers must
  /// not take those for retransmits of the earlier install's.
  uint64_t incarnation = 0;
  sim::HostId parent = sim::kInvalidHost;  ///< aggregation-tree parent
  int depth = 0;
  /// One rewrite per query: a fallback graph has no index scans left.
  bool fallback_done = false;

  /// The instantiated opgraph: this node's stages and local pipelines.
  std::unique_ptr<ops::QueryRuntime> runtime;

  // Continuous execution driver (member side, including the origin).
  sim::PeriodicTask epoch_task;

  // Origin-side epoch lifecycle; the rows themselves collect in the
  // runtime's CollectStage.
  ResultCallback cb;
  struct EpochState {
    sim::TimerId finalize_timer = 0;
    /// A certified early finalize is already queued (deferred one tick so a
    /// degenerate single-node query cannot call back inside Execute()).
    bool early_finalize_scheduled = false;
  };
  std::map<uint64_t, EpochState> epochs;
  /// Epochs at or below this number are closed (see EpochClosed);
  /// stragglers count as late_partials instead of resurrecting them.
  int64_t last_finalized_epoch = -1;
  sim::PeriodicTask quiesce_task;

  // -- lifecycle (PR 8) ------------------------------------------------------
  bool cancelled = false;
  bool deadline_expired = false;
  sim::TimerId deadline_timer = 0;
  /// Member-side origin-liveness lease (reclaims state if the origin died
  /// without broadcasting an end).
  sim::TimerId lease_timer = 0;
  /// Origin-side: re-checks certification when the overlay's stability
  /// window runs out (see MaybeEarlyFinalize).
  sim::TimerId certify_timer = 0;

  // -- reliable result plane (PR 8) ------------------------------------------
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
    /// Join graphs: the member's books per join node, and the ownership
    /// range (from, self] it consumed arrivals under, if it consumed any.
    std::map<uint32_t, JoinBooks> books;
    std::optional<std::pair<Id160, Id160>> range;
    bool range_moved = false;
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
  /// Epochs whose scans here read failed-over replica copies (their plan
  /// wave goes up unvouched); at the origin also those whose wave came back
  /// unvouched. None certifies.
  std::set<uint64_t> unvouched_epochs;

  // -- Bloom filter waves (PR 10) --------------------------------------------
  /// Origin-side: waves this query broadcast incomplete (parts lost/late
  /// or coverage unknown at bloom_wait) — those edges ran the full rehash.
  uint64_t filter_waves_degraded = 0;

  // -- join books ------------------------------------------------------------
  /// A settle check is queued (OnJoinProgress runs one per tick).
  bool settle_check_queued = false;
  /// Member: the last report sent; a join member reports again only when
  /// its report would change.
  std::string last_report;
  /// When the join installed here, and where this node's key range
  /// started then (see RangeMoved).
  TimePoint installed_at = 0;
  Id160 range_from;
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
  broadcast_->SetCoverageHandler([this](sim::HostId origin, uint64_t seq,
                                        uint64_t members, bool complete,
                                        bool vouched) {
    OnCoverage(origin, seq, members, complete, vouched);
  });
  scheduler_ = std::make_unique<QueryScheduler>(
      sim_, dht_, &stats_,
      [this](Duration delay, std::function<void()> fn) {
        return ScheduleEngineTimer(delay, std::move(fn));
      },
      QueryScheduler::Options{});
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
  // The queries die with the engine, their periodic tasks and reliable
  // plane included: a stopped (crashed) node holds no per-query state.
  queries_.clear();
  pending_result_bytes_ = 0;
  scheduler_->Stop();
}

sim::TimerId QueryEngine::ScheduleEngineTimer(Duration delay,
                                              std::function<void()> fn) {
  return ScheduleEngineTimerAt(sim_->now() + std::max<Duration>(delay, 0),
                               std::move(fn));
}

sim::TimerId QueryEngine::ScheduleEngineTimerAt(TimePoint when,
                                                std::function<void()> fn) {
  if (stopped_) return 0;
  sim::TimerId id = sim_->ScheduleAt(when, [this, fn = std::move(fn)] {
    engine_timers_.erase(sim_->firing());
    fn();
  });
  engine_timers_.insert(id);
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

Status QueryEngine::CheckReliableAccounting() const {
  uint64_t live_pending = 0;
  for (const auto& entry : queries_) {
    live_pending += entry.second->outbox.pending_bytes();
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

bool QueryEngine::EpochClosed(uint64_t qid, uint64_t epoch) const {
  auto it = queries_.find(qid);
  return it == queries_.end() ||
         static_cast<int64_t>(epoch) <= it->second->last_finalized_epoch;
}

bool QueryEngine::ChargeResultRow(uint64_t qid, uint64_t held) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return false;
  // Result-window budget: the origin stops accumulating past the row cap
  // and flags the trip — callers get a bounded prefix declared degraded,
  // never an unbounded buffer or a silent truncation.
  const uint64_t row_cap = it->second->env.plan.budget.max_result_rows;
  if (row_cap == 0 || held < row_cap) return true;
  TripBudget(it->second.get());
  ++stats_.budget_rows_dropped;
  return false;
}

void QueryEngine::DeliverResultBatch(uint64_t qid, uint64_t epoch,
                                     const exec::RowBatch& b) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  size_t n = b.ActiveRows();
  // Chunked delivery: one lost frame costs at most kResultFrameRows rows.
  for (size_t start = 0; start < n; start += kResultFrameRows) {
    size_t len = std::min(kResultFrameRows, n - start);
    Writer w = DataMessage(MsgType::kResult, qid, epoch);
    if (len == n) {
      b.Encode(&w);  // compacts the selection: the wire carries live rows
    } else {
      b.SliceLive(start, len).Encode(&w);
    }
    ++stats_.result_msgs_sent;
    SendReliable(aq, aq->env.origin, std::move(w), /*control=*/false);
  }
}

void QueryEngine::DeliverPartialBatch(uint64_t qid, uint64_t epoch,
                                      uint64_t contributors,
                                      const exec::RowBatch& partials,
                                      ExchangeKind route) {
  if (partials.ActiveRows() == 0 && contributors == 0) return;
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  sim::HostId to = aq->env.origin;
  if (route == ExchangeKind::kTree && aq->parent != sim::kInvalidHost) {
    to = aq->parent;
  }
  Writer w = DataMessage(MsgType::kPartial, qid, epoch);
  // A budget trip here cuts this node's scans short: its rows stop being
  // its whole contribution, so it vouches for no contributor from then on.
  w.PutVarint64(aq->budget_tripped ? 0 : contributors);
  partials.Encode(&w);
  ++stats_.partial_msgs_sent;
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
    if (it == queries_.end() || it->second->runtime == nullptr) return;
    ops::Stage* stage = it->second->runtime->stage(node_id);
    if (stage != nullptr) stage->OnTimer(token);
  });
}

void QueryEngine::CancelTimer(sim::TimerId id) {
  engine_timers_.erase(id);
  sim_->Cancel(id);
}

void QueryEngine::PostToStage(uint64_t qid, uint32_t node_id,
                              const std::function<void(ops::Stage*)>& fn) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->runtime == nullptr) return;
  ops::Stage* stage = it->second->runtime->stage(node_id);
  if (stage != nullptr) fn(stage);
}

void QueryEngine::OnIndexScanDone(uint64_t qid, bool ok) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || !it->second->is_origin) return;
  ActiveQuery* aq = it->second.get();
  if (!ok) {
    // Deferred: this call is on the failing cursor's own stack, and the
    // fallback replaces the runtime that owns it.
    uint64_t query_id = aq->env.query_id;
    ScheduleEngineTimer(0, [this, query_id] {
      auto qit = queries_.find(query_id);
      if (qit != queries_.end()) FallbackToScan(qit->second.get());
    });
    return;
  }
  // The cursor read the whole range: for a one-shot origin-local query the
  // answer is already complete, so close it now instead of sitting out the
  // rest of the result window — the latency half of the index win. The
  // finalize is deferred a tick because degenerate walks (an empty range)
  // complete synchronously inside Execute(), and the client must never see
  // its result callback fire before Execute has returned the query id.
  if (aq->runtime->origin_local() && aq->env.plan.every == 0) {
    ++stats_.index_early_finalizes;
    uint64_t query_id = aq->env.query_id;
    ScheduleEngineTimer(0, [this, query_id] {
      auto qit = queries_.find(query_id);
      if (qit != queries_.end()) FinalizeEpoch(qit->second.get(), 0);
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
  for (OpNode& n : aq->env.plan.graph.nodes) {
    if (n.type == OpType::kIndexScan) n.type = OpType::kScan;
  }
  // Rows the failed cursor already delivered would double-count against
  // the broadcast re-execution: this epoch's collection starts over (its
  // finalize deadline stays armed).
  uint64_t epoch = CurrentEpoch(*aq);
  aq->runtime->FallBackToScans(epoch);
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
  aq->env.Serialize(&w);
  broadcast_->Broadcast(sim::Payload(w.Release()));  // includes local delivery
  aq->runtime->StartEpoch(CurrentEpoch(*aq));
}

void QueryEngine::RouteArrival(uint64_t qid, const std::string& ns,
                               const dht::StoredItem& item) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->runtime == nullptr) return;
  it->second->runtime->OnArrival(ns, item);
}

// ---------------------------------------------------------------------------
// Reliable result plane
// ---------------------------------------------------------------------------

void QueryEngine::SendReliable(ActiveQuery* aq, sim::HostId to, Writer&& inner,
                               bool control) {
  if (!control) {
    // Bytes-shipped budget: data frames only — control traffic (acks,
    // reports, the trip notice itself) must always flow or the origin
    // would read the degradation as loss.
    const uint64_t byte_cap = aq->env.plan.budget.max_result_bytes;
    if (byte_cap > 0 && aq->bytes_shipped + inner.size() > byte_cap) {
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
  w.Reserve(f->bytes.size() + 24);
  w.PutU8(static_cast<uint8_t>(MsgType::kFrame));
  w.PutVarint64(aq->env.query_id);
  w.PutVarint64(aq->incarnation);
  w.PutVarint64(frame_id);
  w.PutRaw(f->bytes.data(), f->bytes.size());
  SendDirect(f->to, w);
}

void QueryEngine::ScheduleFrameRetry(uint64_t qid, uint64_t frame_id) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ReliableOutbox::Frame* f = it->second->outbox.Get(frame_id);
  if (f == nullptr) return;
  uint64_t salt = Mix64(qid ^ (frame_id << 20) ^
                        (static_cast<uint64_t>(transport_->self()) << 48));
  Duration delay =
      RetryDelay(kRetryInitial, kRetryMax, kRetryJitter, salt, f->attempts);
  ScheduleEngineTimer(delay, [this, qid, frame_id] {
    auto qit = queries_.find(qid);
    if (qit == queries_.end()) return;
    ActiveQuery* q = qit->second.get();
    ReliableOutbox::Frame* fr = q->outbox.Get(frame_id);
    if (fr == nullptr) return;
    if (fr->attempts >= kRetryBudget) {
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
  uint64_t qid = 0, incarnation = 0, frame_id = 0;
  if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&incarnation).ok() ||
      !r->GetVarint64(&frame_id).ok()) {
    return;
  }
  // Always ack — duplicates and unknown or finished queries included — so
  // the sender's retransmits stop. Processing below is what is gated.
  Writer a;
  a.PutU8(static_cast<uint8_t>(MsgType::kFrameAck));
  a.PutVarint64(qid);
  a.PutVarint64(frame_id);
  SendDirect(from, a);
  auto it = queries_.find(qid);
  ActiveQuery* aq = it == queries_.end() ? nullptr : it->second.get();
  if (aq != nullptr) {
    FrameDedupe& window = aq->rx_dedupe[from];
    const uint64_t known = window.incarnation();
    if (!window.Admit(frame_id, incarnation)) {
      ++stats_.frame_dupes_dropped;
      return;
    }
    // A restarted sender claims its data frames afresh.
    if (window.incarnation() != known) aq->rx_data_frames.erase(from);
  }
  uint8_t inner = 0;
  if (!r->GetU8(&inner).ok()) return;
  MsgType t = static_cast<MsgType>(inner);
  if (t == MsgType::kFrame || t == MsgType::kFrameAck) return;  // no nesting
  if (aq == nullptr) {
    // Not live here: a result or partial for a query that ended here may
    // still count as late (with no dedupe window left, a retransmit racing
    // the ack may count twice — the counter is diagnostic).
    DispatchMessage(from, inner, r);
    return;
  }
  if (t == MsgType::kResult || t == MsgType::kPartial) {
    ++aq->rx_data_frames[from];
  }
  DispatchMessage(from, inner, r);
  // Admitted data may have been the last thing a certified epoch was
  // waiting on: a data frame can arrive after the member's report under
  // reordering, and a partial can complete the root's contributor count,
  // also of an epoch older than the current one.
  auto it2 = queries_.find(qid);
  if (it2 != queries_.end()) MaybeEarlyFinalize(it2->second.get());
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
  if (was_data && aq->outbox.data_drained()) OnOutboxDrained(aq);
}

void QueryEngine::OnOutboxDrained(ActiveQuery* aq) {
  if (aq->is_origin || !aq->runtime->accountable()) return;
  if (aq->runtime->keeps_books()) {
    SendEpochReport(aq);  // checks that the joins have settled
    return;
  }
  // A drained outbox means nothing while this epoch's scheduled scans are
  // still queued: more data frames are coming, and an early "done" claim
  // would let the origin certify an answer missing them.
  if (aq->scans_done_epoch < static_cast<int64_t>(CurrentEpoch(*aq))) return;
  SendEpochReport(aq);
}

void QueryEngine::SendEpochReport(ActiveQuery* aq) {
  const bool books = aq->runtime->keeps_books();
  // A join member has nothing to claim while it still owes a rehash put,
  // a fetch, or a data frame to the origin. Once settled, its join-fed
  // partial groups are whole until another arrival: they ship first, and
  // the report that counts them follows their ack.
  if (books) {
    if (!aq->runtime->Settled()) return;
    aq->runtime->FlushJoinPartials();
    if (!aq->outbox.data_drained()) return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(MsgType::kEpochReport));
  w.PutVarint64(aq->env.query_id);
  w.PutVarint64(CurrentEpoch(*aq));
  w.PutVarint64(aq->outbox.data_to_origin);
  w.PutVarint64(aq->outbox.retried);
  w.PutVarint64(aq->outbox.lost + aq->runtime->JoinLosses());
  // A budget trip rides the report so an origin that missed the
  // kBudgetTrip frame still learns of the degradation.
  uint64_t flags = aq->budget_tripped ? kReportBudgetTripped : 0;
  if (!books) {
    w.PutVarint64(flags);
  } else {
    flags |= kReportBooks | (RangeMoved(*aq) ? kReportRangeMoved : 0);
    w.PutVarint64(flags);
    const std::vector<JoinBooks> all = aq->runtime->Books();
    bool consumed = false;
    w.PutVarint64(all.size());
    for (const JoinBooks& b : all) {
      w.PutVarint32(b.join_node);
      w.PutVarint64(b.shipped);
      w.PutVarint64(b.consumed);
      consumed |= b.consumed > 0;
    }
    // Only a consumer's range can split a rendezvous.
    w.PutBool(consumed);
    if (consumed) {
      aq->range_from.Serialize(&w);
      router_->self().id.Serialize(&w);
    }
    if (w.buffer() == aq->last_report) return;
    aq->last_report = w.buffer();
  }
  ++stats_.epoch_reports_sent;
  SendReliable(aq, aq->env.origin, std::move(w), /*control=*/true);
}

bool QueryEngine::RangeMoved(const ActiveQuery& aq) const {
  // Chord stamps every predecessor change, a reset included, so a move
  // that went away again still shows; the one-hop directory keeps no such
  // clock, and its range is compared instead.
  const TimePoint changed = router_->last_topology_change();
  return (changed != 0 && changed >= aq.installed_at) ||
         router_->OwnedRangeStart() != aq.range_from ||
         aq.runtime->InnerRowsOutOfReach();
}

bool QueryEngine::JoinBooksBalance(const ActiveQuery& aq) const {
  if (aq.runtime->JoinLosses() > 0 || RangeMoved(aq)) return false;
  std::map<uint32_t, std::pair<uint64_t, uint64_t>> sums;  // shipped, consumed
  std::vector<std::pair<Id160, Id160>> ranges;
  bool consumed = false;
  for (const JoinBooks& b : aq.runtime->Books()) {
    sums[b.join_node].first += b.shipped;
    sums[b.join_node].second += b.consumed;
    consumed |= b.consumed > 0;
  }
  if (consumed) ranges.emplace_back(aq.range_from, router_->self().id);
  for (const auto& [host, rep] : aq.reports) {
    if (rep.range_moved) return false;
    for (const auto& [node, b] : rep.books) {
      sums[node].first += b.shipped;
      sums[node].second += b.consumed;
    }
    if (rep.range.has_value()) ranges.push_back(*rep.range);
  }
  for (const auto& [node, sum] : sums) {
    if (sum.first != sum.second) return false;
  }
  return !RangesOverlap(std::move(ranges));
}

void QueryEngine::OnJoinProgress(uint64_t qid) {
  auto it = queries_.find(qid);
  if (it == queries_.end() || it->second->settle_check_queued ||
      it->second->runtime == nullptr || !it->second->runtime->keeps_books()) {
    return;
  }
  it->second->settle_check_queued = true;
  // A tick later: the change may be mid-cascade (a consumed arrival's
  // joined rows still being rehashed or sent further up this very stack).
  ScheduleEngineTimer(0, [this, qid] {
    auto qit = queries_.find(qid);
    if (qit == queries_.end()) return;
    ActiveQuery* aq = qit->second.get();
    aq->settle_check_queued = false;
    if (aq->is_origin) {
      MaybeEarlyFinalize(aq);
    } else {
      SendEpochReport(aq);
    }
  });
}

void QueryEngine::OnCoverage(sim::HostId origin, uint64_t seq,
                             uint64_t members, bool complete, bool vouched) {
  auto it = plan_waves_.find({origin, seq});
  if (it == plan_waves_.end()) return;
  auto [qid, epoch] = it->second;
  plan_waves_.erase(it);
  auto qit = queries_.find(qid);
  if (qit == queries_.end() || qit->second->runtime == nullptr) return;
  ActiveQuery* aq = qit->second.get();
  if (!aq->is_origin) {
    // How many contributors this node's combiner waits for: the subtree
    // count holds whether or not the wave vouched.
    aq->runtime->OnSubtreeCovered(epoch, members, complete);
    return;
  }
  // An unvouched wave skipped a node or rests on a failed-over scan: the
  // count cannot show either, so the wave is incomplete and its epoch
  // never certifies.
  aq->members_expected = members;
  aq->coverage_complete = complete && vouched;
  if (!vouched) aq->unvouched_epochs.insert(epoch);
  aq->runtime->OnCoverageKnown();
  MaybeEarlyFinalize(aq);
}

void QueryEngine::MaybeEarlyFinalize(ActiveQuery* aq) {
  if (!aq->is_origin) return;
  const bool counted = aq->runtime->counted();
  if (!counted && !aq->runtime->accountable()) return;
  if (aq->cancelled || aq->deadline_expired) return;
  if (!aq->coverage_complete || aq->members_expected == 0) return;
  if (!aq->shed_members.empty()) return;
  // Budget degradation anywhere bars exactness.
  if (aq->budget_tripped || !aq->budget_tripped_members.empty()) return;
  // Epochs are delivered in order, so only the oldest open one may close
  // early; FinalizeEpoch looks at the next once it has closed this one.
  auto eit = aq->last_finalized_epoch < 0
                 ? aq->epochs.begin()
                 : aq->epochs.upper_bound(
                       static_cast<uint64_t>(aq->last_finalized_epoch));
  if (eit == aq->epochs.end() || eit->second.early_finalize_scheduled) {
    return;
  }
  const uint64_t epoch = eit->first;
  // The origin's own part must be done: its scheduled scans drained, or,
  // for joins, nothing it owes still outstanding.
  const bool books = aq->runtime->keeps_books();
  if (books ? !aq->runtime->Settled()
            : aq->scans_done_epoch < static_cast<int64_t>(epoch)) {
    return;
  }
  if (aq->unvouched_epochs.count(epoch) != 0) return;
  if (counted) {
    // Every covered member's partial, the origin's own included, is folded
    // into the root: its contributor total is the cover wave's count. A
    // total above it means someone outside the wave contributed.
    if (aq->runtime->contributors(epoch) != aq->members_expected) return;
  } else {
    // Every covered member (origin included: the +1) must have reported
    // this epoch loss-free, and every data frame it claims to have sent us
    // must have been admitted.
    if (aq->reports.size() + 1 < aq->members_expected) return;
    for (const auto& [host, rep] : aq->reports) {
      if (rep.epoch < epoch || rep.lost > 0) return;
      auto rx = aq->rx_data_frames.find(host);
      uint64_t admitted = rx == aq->rx_data_frames.end() ? 0 : rx->second;
      if (admitted < rep.frames_to_origin) return;  // data still in flight
    }
    if (books && !JoinBooksBalance(*aq)) return;
  }
  // A recently changed overlay neighborhood means this node's "everyone"
  // may be one side of a partition (the minority ring's cover wave returns
  // complete over 3 nodes of 10): no global exactness claim until the view
  // has been stable for a detection window. Checked last: when the window
  // is all that blocks, nothing may arrive to re-check once it runs out,
  // so a timer does.
  const TimePoint topo = router_->last_topology_change();
  if (topo != 0 && sim_->now() - topo < kCertifyStabilityWindow) {
    if (aq->certify_timer == 0) {
      const uint64_t qid = aq->env.query_id;
      aq->certify_timer =
          ScheduleEngineTimerAt(topo + kCertifyStabilityWindow, [this, qid] {
            auto it = queries_.find(qid);
            if (it == queries_.end()) return;
            it->second->certify_timer = 0;
            MaybeEarlyFinalize(it->second.get());
          });
    }
    return;
  }
  eit->second.early_finalize_scheduled = true;
  ++stats_.reliable_early_finalizes;
  // Deferred a tick: a degenerate (single-node) dissemination certifies
  // synchronously inside Execute(), and the client must never see its
  // callback before Execute returns the query id.
  uint64_t qid = aq->env.query_id;
  ScheduleEngineTimer(0, [this, qid, epoch] {
    auto it = queries_.find(qid);
    if (it != queries_.end()) {
      FinalizeEpoch(it->second.get(), epoch, /*exact_certified=*/true);
    }
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
    return it == queries_.end() || it->second->budget_tripped;
  };
  const uint64_t epoch = work.epoch;
  // A sweep that read replicas for an owner this node took over from may
  // hold rows the owner, still alive, scans too, or miss rows never
  // replicated: replicas are pushed without an ack. The epoch's plan wave
  // goes up unvouched from here (OnBroadcast), and it never certifies.
  if (scheduler_->Submit(std::move(work))) {
    auto it = queries_.find(qid);
    if (it != queries_.end()) it->second->unvouched_epochs.insert(epoch);
  }
}

void QueryEngine::OnEpochScansDone(uint64_t qid, uint64_t epoch) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  aq->scans_done_epoch =
      std::max(aq->scans_done_epoch, static_cast<int64_t>(epoch));
  if (!aq->is_origin && aq->runtime->accountable() &&
      aq->outbox.data_drained()) {
    // Everything this member will contribute for the epoch is already
    // acked — the drain event fired before the scans-done gate opened, so
    // report now.
    SendEpochReport(aq);
  }
  if (aq->is_origin) {
    // The origin's own scan was the last missing piece; the member reports
    // or the root's contributor count may already all be in.
    MaybeEarlyFinalize(aq);
  }
}

bool QueryEngine::ChargeRehashPuts(uint64_t qid, uint64_t n) {
  auto it = queries_.find(qid);
  if (it == queries_.end()) return false;
  ActiveQuery* aq = it->second.get();
  const uint64_t put_cap = aq->env.plan.budget.max_rehash_puts;
  if (put_cap == 0) return true;  // unlimited
  if (aq->budget_tripped || aq->rehash_puts + n > put_cap) {
    TripBudget(aq);
    stats_.budget_rehash_dropped += n;
    return false;
  }
  aq->rehash_puts += n;
  return true;
}

void QueryEngine::TripBudget(ActiveQuery* aq) {
  if (aq->budget_tripped) return;
  aq->budget_tripped = true;
  ++stats_.budget_trips;
  PLOG(kInfo, "qe@" + std::to_string(transport_->self()))
      << "query " << aq->env.query_id << " tripped its resource budget";
  if (!aq->is_origin) {
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
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  aq->deadline_expired = true;
  ++stats_.queries_deadline_expired;
  if (!aq->is_origin) {
    // Self-expiry: the grace period passed without the origin's kCancel.
    HandleQueryEnd(qid);
    return;
  }
  // Degrade loudly: report whatever arrived, flagged deadline_expired, then
  // cancel network-wide so members free their state now — unless the
  // finalize already ended the query (one-shot) or its client cancelled it.
  FinalizeEpoch(aq, CurrentEpoch(*aq));
  it = queries_.find(qid);
  if (it != queries_.end() && !it->second->runtime->origin_local()) {
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
            kMemberLease;
  } else if (aq->runtime != nullptr && aq->runtime->has_recurse()) {
    lease = aq->env.issued_at + options_.recursion_deadline + kMemberLease;
  } else {
    lease = aq->env.issued_at + options_.result_wait + kMemberLease;
  }
  if (aq->lease_timer != 0) CancelTimer(aq->lease_timer);
  aq->lease_timer = ScheduleEngineTimerAt(lease, [this, qid] {
    if (queries_.count(qid) == 0) return;
    ++stats_.leases_reclaimed;
    HandleQueryEnd(qid);
  });
}

Completeness QueryEngine::BuildCompleteness(ActiveQuery* aq, uint64_t epoch,
                                            uint64_t reporters,
                                            uint64_t contributors,
                                            bool exact_certified) const {
  Completeness c;
  c.cancelled = aq->cancelled;
  c.deadline_expired = aq->deadline_expired;
  c.members_shed = aq->shed_members.size();
  c.budget_trips = aq->budget_tripped_members.size() +
                   (aq->budget_tripped ? 1 : 0);
  if (aq->runtime->origin_local()) {
    c.members_expected = 1;
    c.members_reported = 1;
    c.coverage_complete = true;
  } else {
    c.members_expected = aq->members_expected;
    c.coverage_complete = aq->coverage_complete;
    c.members_reported = reporters;
    if (aq->runtime->counted()) {
      // Interior tree nodes subsume their subtrees, so the origin's direct
      // reporters are a few; every partial's count adds up to the members
      // actually folded in.
      c.members_reported = contributors;
    } else if (aq->runtime->accountable()) {
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
  c.frames_lost += aq->outbox.lost + aq->runtime->JoinLosses();
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
  PIER_RETURN_IF_ERROR(plan.graph.Validate());
  PIER_RETURN_IF_ERROR(ValidateGraphAgainstCatalog(plan.graph));

  // Admission: refuse at issue time rather than degrade mid-flight. A
  // refused caller gets a typed Busy and nothing was broadcast.
  if (queries_.size() >= options_.max_live_queries) {
    ++stats_.admission_refusals;
    return Status::Busy("admission: live-query budget exhausted");
  }
  if (plan.graph.nodes.size() > kMaxPlanOperators) {
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
  aq->incarnation = static_cast<uint64_t>(sim_->now() / Millis(1));
  aq->cb = std::move(cb);
  // Resolve the deadline once, at the origin: the wire carries the absolute
  // time so every member counts down against the same clock.
  if (aq->env.plan.deadline > 0) {
    aq->env.deadline = aq->env.issued_at + aq->env.plan.deadline;
  }
  aq->runtime =
      std::make_unique<ops::QueryRuntime>(this, &aq->env, /*is_origin=*/true);
  PIER_RETURN_IF_ERROR(aq->runtime->Init());
  ++stats_.queries_issued;
  ActiveQuery* raw = aq.get();
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
    raw->quiesce_task.Start(sim_, Seconds(1), Seconds(1), [this, query_id,
                                                           deadline] {
      auto it = queries_.find(query_id);
      if (it == queries_.end()) return;
      ActiveQuery* q = it->second.get();
      bool quiet =
          sim_->now() - q->runtime->last_new_row() >= options_.quiesce_window;
      if (quiet || sim_->now() >= deadline) {
        // Deferred a tick: finalizing ends the query, and this task must not
        // be destroyed inside its own callback.
        ScheduleEngineTimer(0, [this, query_id] {
          auto qit = queries_.find(query_id);
          if (qit != queries_.end()) FinalizeEpoch(qit->second.get(), 0);
        });
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

  if (raw->runtime->origin_local()) {
    // Index-only plan: nothing for other members to do — install locally
    // and let the cursor touch exactly the DHT owners it needs. The
    // dissemination broadcast (and its network-wide scan work) is the
    // first thing the index saves.
    InstallQuery(raw->env, transport_->self(), 0);
  } else {
    Writer w;
    w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
    raw->env.Serialize(&w);
    broadcast_->Broadcast(sim::Payload(w.Release()));
  }
  PLOG(kInfo, "qe@" + std::to_string(transport_->self()))
      << "issued query " << query_id << " ("
      << raw->env.plan.graph.size() << " ops)";
  return query_id;
}

void QueryEngine::Cancel(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || !it->second->is_origin) return;
  ActiveQuery* aq = it->second.get();
  aq->cancelled = true;
  ++stats_.queries_cancelled;
  aq->quiesce_task.Stop();
  if (aq->runtime->origin_local()) {
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

void QueryEngine::OnBroadcast(sim::HostId bcast_origin, uint64_t seq,
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
      // Each plan broadcast disseminates one epoch (a refresh per period);
      // its cover wave, when it comes back through here, is that epoch's.
      auto it = queries_.find(env.query_id);
      if (it != queries_.end()) {
        const uint64_t epoch = CurrentEpoch(*it->second);
        plan_waves_[{bcast_origin, seq}] = {env.query_id, epoch};
        // The epoch's scans ran before its wave got here (at install, or
        // at the epoch boundary).
        if (it->second->unvouched_epochs.count(epoch) != 0) {
          broadcast_->Unvouch(bcast_origin, seq);
        }
      }
      break;
    }
    case BcastKind::kBloomDist: {
      BloomDistFrame frame;
      if (!BloomDistFrame::Deserialize(&r, &frame).ok()) return;
      auto it = queries_.find(frame.qid);
      if (it == queries_.end() || it->second->runtime == nullptr) return;
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
  // Every terminal path routes here — kQueryEnd, kCancel, the deadline, a
  // member's lease reclaim — on the origin and members alike.
  auto it = queries_.find(qid);
  if (it == queries_.end()) return;
  ActiveQuery* aq = it->second.get();
  // Unacked frames die with the query: retransmitting into a dead query
  // only burns bytes (the receiver acks and ignores them), and the
  // admission gate must stop charging for them.
  pending_result_bytes_ -= aq->outbox.pending_bytes();
  // Queued scan work captures the runtime about to be torn down.
  scheduler_->DropQuery(qid);
  if (aq->deadline_timer != 0) CancelTimer(aq->deadline_timer);
  if (aq->lease_timer != 0) CancelTimer(aq->lease_timer);
  if (aq->certify_timer != 0) CancelTimer(aq->certify_timer);
  if (aq->runtime != nullptr) {
    for (const std::string& ns : aq->runtime->Namespaces()) {
      dht_->UnsubscribeArrivals(ns);
      dht_->local_store()->DropNamespace(ns);
    }
  }
  // The node frees the query now and keeps only its id and the last epoch
  // it closed: answers that close by count end queries within a second or
  // two, and a plan and runtime per ended query held for kCleanupDelay
  // would multiply with the rate.
  ExpireTombstones();
  tombstones_[qid] = aq->last_finalized_epoch;
  tombstone_fifo_.emplace_back(sim_->now() + kCleanupDelay, qid);
  queries_.erase(it);  // its periodic tasks and remaining state with it
}

void QueryEngine::ExpireTombstones() {
  while (!tombstone_fifo_.empty() &&
         tombstone_fifo_.front().first <= sim_->now()) {
    tombstones_.erase(tombstone_fifo_.front().second);
    tombstone_fifo_.pop_front();
  }
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
    ExpireTombstones();
    if (tombstones_.count(env.query_id) != 0) return;  // ended here
    // Member-side admission: refuse the plan at dissemination time, loudly.
    // The typed reject tells the origin exactly who shed, so its
    // Completeness summary reflects the shortfall instead of silently
    // missing rows.
    if (env.origin != transport_->self()) {
      AdmissionReason refuse_reason{};
      bool refused = false;
      if (queries_.size() >= options_.max_live_queries) {
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
    aq->incarnation = static_cast<uint64_t>(sim_->now() / Millis(1));
    queries_.emplace(env.query_id, std::move(aq));
    ++stats_.plans_received;
  }
  ActiveQuery* aq = queries_.find(env.query_id)->second.get();
  aq->installed = true;

  if (aq->runtime == nullptr) {
    aq->runtime = std::make_unique<ops::QueryRuntime>(this, &aq->env,
                                                      aq->is_origin);
    if (!aq->runtime->Init().ok()) {
      // Hostile or unexecutable graph: drop it (soft failure, no crash) —
      // but still lease the runtime-less entry so it cannot squat forever.
      aq->runtime.reset();
      ArmMemberLifecycle(aq);
      return;
    }
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
                             StartEpoch(q, CurrentEpoch(*q));
                           });
    }
  } else {
    // Joins and recursion set up once: subscribe this node's exchange
    // namespaces, then let the stages produce.
    aq->installed_at = sim_->now();
    aq->range_from = router_->OwnedRangeStart();
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
  if (aq->runtime == nullptr) return;
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
    if (!aq->runtime->origin_local()) {
      Writer w;
      w.PutU8(static_cast<uint8_t>(BcastKind::kPlan));
      aq->env.Serialize(&w);
      broadcast_->Broadcast(sim::Payload(w.Release()));
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
    case MsgType::kResult:
    case MsgType::kPartial:
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
      if (it == queries_.end() || !it->second->is_origin) return;
      ActiveQuery* aq = it->second.get();
      std::vector<JoinBooks> books;
      std::optional<std::pair<Id160, Id160>> range;
      if (flags & kReportBooks) {
        // Every join node of the plan at most once: a hostile count fails
        // on the graph's size, not on memory.
        uint64_t n = 0;
        if (!r->GetVarint64(&n).ok() || n > aq->env.plan.graph.size()) return;
        for (uint64_t i = 0; i < n; ++i) {
          JoinBooks b;
          if (!r->GetVarint32(&b.join_node).ok() ||
              !r->GetVarint64(&b.shipped).ok() ||
              !r->GetVarint64(&b.consumed).ok()) {
            return;
          }
          books.push_back(b);
        }
        bool has_range = false;
        if (!r->GetBool(&has_range).ok()) return;
        if (has_range) {
          range.emplace();
          if (!Id160::Deserialize(r, &range->first).ok() ||
              !Id160::Deserialize(r, &range->second).ok()) {
            return;
          }
        }
      }
      ++stats_.epoch_reports_received;
      // Counters are cumulative; component-wise max makes retransmit
      // reorderings harmless.
      ActiveQuery::MemberReport& rep = aq->reports[from];
      rep.epoch = std::max(rep.epoch, epoch);
      rep.frames_to_origin = std::max(rep.frames_to_origin, frames);
      rep.retried = std::max(rep.retried, retried);
      rep.lost = std::max(rep.lost, lost);
      for (const JoinBooks& b : books) {
        JoinBooks& have = rep.books[b.join_node];
        have.join_node = b.join_node;
        have.shipped = std::max(have.shipped, b.shipped);
        have.consumed = std::max(have.consumed, b.consumed);
      }
      if (range.has_value()) rep.range = range;
      if (flags & kReportRangeMoved) rep.range_moved = true;
      if (flags & kReportBudgetTripped) {
        aq->budget_tripped_members.insert(from);
      }
      MaybeEarlyFinalize(aq);
      return;
    }
    case MsgType::kBudgetTrip: {
      uint64_t qid = 0;
      if (!r->GetVarint64(&qid).ok()) return;
      auto it = queries_.find(qid);
      if (it == queries_.end() || !it->second->is_origin) return;
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
      if (it == queries_.end() || !it->second->is_origin) return;
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
    case MsgType::kResult:
    case MsgType::kPartial: {
      const bool partial = static_cast<MsgType>(type) == MsgType::kPartial;
      uint64_t qid = 0, epoch = 0, contributors = 0;
      // The combiner merges a partial frame as a batch; the collection
      // keeps result rows as tuples.
      exec::RowBatch partials;
      std::vector<Tuple> rows;
      // A frame is taken whole or not at all: a partial's count never
      // lands without its rows.
      if (!r->GetVarint64(&qid).ok() || !r->GetVarint64(&epoch).ok() ||
          (partial ? !r->GetVarint64(&contributors).ok() ||
                         !exec::RowBatch::Decode(r, &partials).ok()
                   : !exec::RowBatch::DecodeRows(r, &rows).ok())) {
        return;
      }
      // Epochs count periods since issue time; anything near the integer
      // ceiling is a spoofed message (and would wrap the stage-timer token
      // space, which reserves 0 and encodes combiner flushes as 1+epoch).
      if (epoch >= (1ull << 62)) return;
      auto it = queries_.find(qid);
      if (it == queries_.end()) {
        // Ended here: a frame for an epoch this node had already closed
        // came in late.
        ExpireTombstones();
        auto tomb = tombstones_.find(qid);
        if (tomb != tombstones_.end() &&
            static_cast<int64_t>(epoch) <= tomb->second) {
          ++stats_.late_partials;
        }
        return;
      }
      ++(partial ? stats_.partial_msgs_received : stats_.result_msgs_received);
      ops::QueryRuntime* runtime = it->second->runtime.get();
      if (runtime == nullptr) break;
      if (partial) {
        runtime->OnRemotePartial(from, epoch, contributors, partials);
      } else {
        runtime->OnRemoteResult(from, epoch, rows);
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
      if (it == queries_.end() || it->second->runtime == nullptr) return;
      it->second->runtime->OnFetchResp(r);
      break;
    }
    case MsgType::kBloomPart: {
      BloomPartFrame frame;
      if (!BloomPartFrame::Deserialize(r, &frame).ok()) return;
      auto it = queries_.find(frame.qid);
      if (it == queries_.end() || !it->second->is_origin ||
          it->second->runtime == nullptr) {
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
// Origin-side finalization
// ---------------------------------------------------------------------------

void QueryEngine::FinalizeEpoch(ActiveQuery* aq, uint64_t epoch,
                                bool exact_certified) {
  if (!aq->is_origin) return;
  // Read before FinishEpoch spends the root's combiner.
  const uint64_t contributors = aq->runtime->contributors(epoch);
  // Re-check the certification at delivery time: the early finalize is
  // deferred a tick, and a late kAdmissionReject, budget trip, cancel,
  // deadline or surplus partial can land in between (or arrive through a
  // fault-plane duplicate after the cover wave). A batch must never claim
  // exact while its own Completeness carries a degradation.
  if (exact_certified &&
      (!aq->shed_members.empty() || aq->cancelled || aq->deadline_expired ||
       aq->budget_tripped || !aq->budget_tripped_members.empty() ||
       aq->unvouched_epochs.count(epoch) != 0 ||
       (aq->runtime->counted() && contributors != aq->members_expected))) {
    exact_certified = false;
  }
  // A continuous query may race its early finalize against the result-wait
  // timer; whichever fired first already closed the epoch.
  if (static_cast<int64_t>(epoch) <= aq->last_finalized_epoch) return;
  // The origin's own join-fed partial groups join the root while it still
  // admits them.
  aq->runtime->FlushJoinPartials();
  aq->last_finalized_epoch = static_cast<int64_t>(epoch);
  auto eit = aq->epochs.find(epoch);
  if (eit != aq->epochs.end()) {
    if (eit->second.finalize_timer != 0) {
      CancelTimer(eit->second.finalize_timer);
    }
    aq->epochs.erase(eit);
  }

  const uint64_t qid = aq->env.query_id;
  ResultBatch batch;
  batch.query_id = qid;
  batch.epoch = epoch;
  aq->runtime->FinishEpoch(epoch, &batch);
  batch.completeness = BuildCompleteness(aq, epoch, batch.reporting_nodes,
                                         contributors, exact_certified);
  if (aq->cb && !aq->cancelled) {
    // A copy, and the query looked up again after it: the client may
    // Cancel from its callback, which frees the query.
    const ResultCallback cb = aq->cb;
    cb(batch);
    auto it = queries_.find(qid);
    if (it == queries_.end()) return;
    aq = it->second.get();
  }
  if (aq->env.plan.every == 0) {
    EndQuery(qid);  // one-shot
    return;
  }
  // The next epoch may already be complete, held back behind this one.
  MaybeEarlyFinalize(aq);
}

void QueryEngine::EndQuery(uint64_t query_id) {
  auto it = queries_.find(query_id);
  if (it == queries_.end() || !it->second->is_origin) return;
  it->second->quiesce_task.Stop();
  if (it->second->runtime->origin_local()) {
    // Never disseminated, so nothing remote to tear down.
    HandleQueryEnd(query_id);
    return;
  }
  Writer w;
  w.PutU8(static_cast<uint8_t>(BcastKind::kQueryEnd));
  w.PutVarint64(query_id);
  broadcast_->Broadcast(sim::Payload(w.Release()));  // includes local delivery
}

}  // namespace query
}  // namespace pier
