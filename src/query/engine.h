// QueryEngine: PIER's distributed query processor, one instance per node.
//
// The engine is the host side of the opgraph runtime (query/opgraph.h,
// query/ops/): it disseminates plans over the DHT broadcast tree, builds a
// per-query ops::QueryRuntime from each plan's graph, and routes network
// events — exchange arrivals, relayed partials, fetch/Bloom traffic,
// timers — to the runtime's stages. Operator logic lives in the stages;
// the engine owns only choreography:
//   - query dissemination and refresh (soft-state plan broadcasts);
//   - epoch alignment for continuous queries;
//   - the kToOrigin / kTree exchange routing (who a result or partial is
//     sent to, given this node's dissemination-tree position);
//   - origin-side collection and post-processing (final aggregation,
//     HAVING, DISTINCT, ORDER BY / LIMIT) driven by the graph's
//     final-agg / collect nodes;
//   - recursion quiescence detection and query teardown/GC.
//
// Everything is soft state: one-shot results are "best effort within the
// result wait window", exactly the guarantee the paper's demo gives.

#ifndef PIER_QUERY_ENGINE_H_
#define PIER_QUERY_ENGINE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "catalog/table_def.h"
#include "catalog/tuple.h"
#include "common/result.h"
#include "dht/broadcast.h"
#include "dht/storage.h"
#include "exec/operators.h"
#include "overlay/router.h"
#include "overlay/transport.h"
#include "query/ops/runtime.h"
#include "query/plan.h"
#include "query/protocol.h"
#include "query/scheduler.h"
#include "sim/event_queue.h"

namespace pier {
namespace index {
class IndexManager;
}  // namespace index

namespace query {

/// Per-node query processor. Registers for Proto::kQuery and owns the
/// node's broadcast handler.
class QueryEngine : public ops::StageHost {
 public:
  using ResultCallback = std::function<void(const ResultBatch&)>;

  QueryEngine(overlay::Transport* transport, overlay::Router* router,
              dht::Dht* dht, dht::BroadcastService* broadcast,
              catalog::Catalog* catalog, EngineOptions options);
  ~QueryEngine() override;

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// The node-local catalog (register table definitions here).
  catalog::Catalog* catalog() { return catalog_; }

  /// Attaches the node's PHT index manager: publishes then piggyback index
  /// maintenance for every indexed attribute of the table. Optional (tests
  /// may run engines without indexing); must outlive the engine.
  void SetIndexManager(index::IndexManager* manager) {
    index_manager_ = manager;
  }

  /// Publishes one tuple of `table` into the DHT under a fresh instance id.
  Status Publish(const std::string& table, const catalog::Tuple& t);

  /// Publishes under a caller-stable instance id (scoped to this node):
  /// re-publishing with the same id renews/overwrites instead of
  /// accumulating — the idiom for periodically refreshed monitoring rows.
  Status PublishVersioned(const std::string& table, const catalog::Tuple& t,
                          uint64_t instance);

  /// Issues a distributed query from this node. `cb` fires once per epoch
  /// (exactly once for one-shot queries). Refused with Status::Busy when
  /// this node's admission budgets (live queries, plan operators, pending
  /// reliable-result bytes) are exhausted. Returns the query id.
  Result<uint64_t> Execute(QueryPlan plan, ResultCallback cb);

  /// Stops a (typically continuous) query network-wide: broadcasts kCancel
  /// down the dissemination tree so members free stage state and exchange
  /// namespaces immediately instead of squatting until TTL. No further
  /// result callbacks fire (cancellation never emits a final batch).
  void Cancel(uint64_t query_id);

  /// Kills every pending engine timer and epoch task (node crash/leave).
  /// A stopped engine must never fire another result callback: a crashed
  /// origin's result-window timer delivering an answer from beyond the
  /// grave is exactly the kind of zombie lifecycle this forbids.
  void Stop();

  const EngineStats& stats() const { return stats_; }
  const EngineOptions& options() const { return options_; }

  /// Number of queries this node currently tracks (diagnostics).
  size_t active_queries() const { return queries_.size(); }

  /// Whether `qid` is tracked here and not yet torn down — the testkit's
  /// namespace-hygiene probe (ended-but-unGCed husks don't count).
  bool HasLiveQuery(uint64_t qid) const;

  /// Audits the reliable result plane's teardown accounting: the admission
  /// gate's pending-byte counter must equal the bytes actually sitting in
  /// live outboxes, and ended queries must hold no reliable-plane state
  /// (frames, dedupe windows, member reports). The testkit's
  /// ExchangeHygieneChecker runs this on every node — a leak here is what
  /// wedges admission into permanent Busy under query storms.
  Status CheckReliableAccounting() const;

  // -- ops::StageHost --------------------------------------------------------
  sim::Simulation* sim() override { return sim_; }
  dht::Dht* dht() override { return dht_; }
  uint32_t self_host() const override { return transport_->self(); }
  const EngineOptions& engine_options() const override { return options_; }
  EngineStats* mutable_stats() override { return &stats_; }
  int QueryDepth(uint64_t qid) const override;
  void DeliverResult(uint64_t qid, uint64_t epoch,
                     const catalog::Tuple& t) override;
  void DeliverPartial(uint64_t qid, uint64_t epoch, const catalog::Tuple& t,
                      ExchangeKind route) override;
  void DeliverResultBatch(uint64_t qid, uint64_t epoch,
                          const exec::RowBatch& b) override;
  void DeliverPartialBatch(uint64_t qid, uint64_t epoch,
                           const std::vector<catalog::Tuple>& partials,
                           ExchangeKind route) override;
  void SendQueryBytes(uint32_t to, const Writer& w) override;
  void BroadcastBloomFilters(uint64_t qid, uint32_t node_id,
                             uint64_t parts_expected, uint64_t parts_reported,
                             bool complete, const BloomFilter& left,
                             const BloomFilter& right) override;
  void QueryCoverage(uint64_t qid, uint64_t* members,
                     bool* complete) const override;
  sim::TimerId ScheduleStageTimer(Duration delay, uint64_t qid,
                                  uint32_t node_id, uint64_t token) override;
  void CancelTimer(sim::TimerId id) override;
  void PostToStage(uint64_t qid, uint32_t node_id,
                   const std::function<void(ops::Stage*)>& fn) override;
  void OnIndexScanDone(uint64_t qid, bool ok) override;
  void SubmitScan(ScanWork work) override;
  void OnEpochScansDone(uint64_t qid, uint64_t epoch) override;
  bool ChargeRehashPuts(uint64_t qid, uint64_t n) override;

 private:
  struct ActiveQuery;

  // -- plumbing --------------------------------------------------------------
  void OnBroadcast(sim::HostId origin, uint64_t seq, sim::HostId parent,
                   int depth, const sim::Payload& payload);
  /// Raw kQuery messages. Drops bare result, partial, epoch-report and
  /// budget-trip messages: those are accepted only inside a kFrame.
  void OnDirect(sim::HostId from, Reader* r);
  /// The shared direct-message switch: called with the type byte already
  /// consumed, both for raw messages and for the inner bytes of an admitted
  /// kFrame envelope.
  void DispatchMessage(sim::HostId from, uint8_t type, Reader* r);
  void SendDirect(sim::HostId to, const Writer& w);
  void RouteArrival(uint64_t qid, const std::string& ns,
                    const dht::StoredItem& item);

  // -- reliable result plane -------------------------------------------------
  /// Wraps `inner` (a complete direct message) in an acked kFrame envelope
  /// and owns its retransmit schedule. Data frames are charged to the
  /// query's result-byte budget first; control frames are exempt.
  void SendReliable(ActiveQuery* aq, sim::HostId to, Writer&& inner,
                    bool control);
  void SendFrameOnce(ActiveQuery* aq, uint64_t frame_id);
  void ScheduleFrameRetry(uint64_t qid, uint64_t frame_id);
  void OnFrame(sim::HostId from, Reader* r);
  void OnFrameAck(Reader* r);
  /// Member side: the reliable outbox just drained of data frames — tell
  /// the origin how much this member has contributed so far.
  void OnOutboxDrained(ActiveQuery* aq);
  void SendEpochReport(ActiveQuery* aq);
  /// Origin side: finalize `epoch` before the result window closes if every
  /// covered member has reported it complete and loss-free.
  void MaybeEarlyFinalize(ActiveQuery* aq, uint64_t epoch);
  /// Dissemination cover wave returned for broadcast `seq`.
  void OnCoverage(uint64_t seq, uint64_t members, bool complete);
  Completeness BuildCompleteness(ActiveQuery* aq, uint64_t epoch,
                                 bool exact_certified) const;

  // -- lifecycle -------------------------------------------------------------
  /// Deadline fired: origin finalizes what it has (flagged) and cancels
  /// network-wide; members self-expire.
  void OnDeadline(uint64_t qid);
  /// Arms/refreshes a member's deadline self-expiry and origin-liveness
  /// lease timers.
  void ArmMemberLifecycle(ActiveQuery* aq);

  // -- query lifecycle -------------------------------------------------------
  /// Graph constraints that need the catalog (partitioning prerequisites
  /// of fetch-matches joins and recursion).
  Status ValidateGraphAgainstCatalog(const OpGraph& graph) const;
  void InstallQuery(const PlanEnvelope& env, sim::HostId parent, int depth);
  /// Globally time-aligned epoch number for a continuous query.
  uint64_t CurrentEpoch(const ActiveQuery& aq) const;
  void StartEpoch(ActiveQuery* aq, uint64_t epoch);
  void FinalizeEpoch(ActiveQuery* aq, uint64_t epoch,
                     bool exact_certified = false);
  void EndQuery(uint64_t query_id);
  /// Member-side end-of-query teardown (also the local path for
  /// origin-local queries that never broadcast).
  void HandleQueryEnd(uint64_t query_id);
  void GcQuery(uint64_t query_id);
  /// Rewrites an index-scan query into the equivalent broadcast scan and
  /// disseminates it — the mid-churn / cold-index degradation path.
  void FallbackToScan(ActiveQuery* aq);

  // -- per-query budgets -------------------------------------------------------
  /// The plan's budget with engine-wide defaults filled into unset (0)
  /// dimensions.
  QueryBudget EffectiveBudget(const ActiveQuery& aq) const;
  /// Marks the query budget-tripped on this node (once): the scheduler's
  /// abort probe stops its scans, and a member tells the origin via
  /// kBudgetTrip so Completeness reports the degradation.
  void TripBudget(ActiveQuery* aq);

  // -- origin-side post-processing --------------------------------------------
  void OriginAccept(ActiveQuery* aq, uint64_t epoch, sim::HostId from,
                    const catalog::Tuple& t, bool is_partial);
  std::vector<catalog::Tuple> OriginPostProcess(ActiveQuery* aq,
                                                uint64_t epoch);

  overlay::Transport* transport_;
  overlay::Router* router_;
  dht::Dht* dht_;
  dht::BroadcastService* broadcast_;
  catalog::Catalog* catalog_;
  index::IndexManager* index_manager_ = nullptr;
  sim::Simulation* sim_;
  EngineOptions options_;
  EngineStats stats_;
  /// The multi-tenant scan dispatcher (round-robin quanta + shared sweeps).
  std::unique_ptr<QueryScheduler> scheduler_;

  /// Schedules an engine-owned timer: cancelled automatically when the
  /// engine is destroyed (node crash/reboot), so callbacks never fire on a
  /// dead engine.
  sim::TimerId ScheduleEngineTimer(Duration delay, std::function<void()> fn);
  sim::TimerId ScheduleEngineTimerAt(TimePoint when, std::function<void()> fn);

  uint64_t next_query_seq_ = 1;
  uint64_t publish_seq_ = 1;
  std::map<uint64_t, std::unique_ptr<ActiveQuery>> queries_;
  std::vector<sim::TimerId> engine_timers_;
  bool stopped_ = false;
  /// Bytes sitting in unacked reliable outboxes across all queries — the
  /// admission gate's backpressure signal.
  uint64_t pending_result_bytes_ = 0;
  /// Broadcast seq -> (qid, epoch): which query/epoch a pending
  /// dissemination cover wave reports coverage for.
  std::map<uint64_t, std::pair<uint64_t, uint64_t>> coverage_waits_;
};

}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_ENGINE_H_
