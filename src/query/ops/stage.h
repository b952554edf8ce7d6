// The runtime side of the opgraph: every node of the network instantiates
// the graph's operator boxes as *stages* — live objects holding per-query
// operator state (hash tables, combiners, pending fetches) — and the engine
// routes network events to them.
//
// Stages never talk to the network directly; they go through StageHost, the
// narrow engine interface below. That keeps the choreography (who a partial
// is sent to, which timers survive a node crash) in one place and the
// operator logic testable in isolation.

#ifndef PIER_QUERY_OPS_STAGE_H_
#define PIER_QUERY_OPS_STAGE_H_

#include <functional>
#include <vector>

#include "catalog/tuple.h"
#include "common/bloom.h"
#include "dht/storage.h"
#include "exec/batch.h"
#include "query/opgraph.h"
#include "query/protocol.h"
#include "query/scheduler.h"
#include "sim/event_queue.h"

namespace pier {
namespace query {
namespace ops {

class Stage;

/// Engine services available to stages and exchanges. Implemented by
/// QueryEngine. All callbacks dispatched through the host are dropped
/// automatically once the query ends or the engine dies, so stages never
/// have to defend against their own destruction.
class StageHost {
 public:
  virtual ~StageHost() = default;

  virtual sim::Simulation* sim() = 0;
  virtual dht::Dht* dht() = 0;
  /// This node's transport address.
  virtual uint32_t self_host() const = 0;
  virtual const EngineOptions& engine_options() const = 0;
  virtual EngineStats* mutable_stats() = 0;
  /// This node's current dissemination-tree depth for `qid` (refresh
  /// broadcasts can reparent a node between epochs).
  virtual int QueryDepth(uint64_t qid) const = 0;

  /// kToOrigin exchange: routes a result row to the query origin (loops
  /// back into origin collection when this node *is* the origin).
  virtual void DeliverResult(uint64_t qid, uint64_t epoch,
                             const catalog::Tuple& t) = 0;
  /// Routes a partial aggregate. kTree sends to the dissemination-tree
  /// parent (which combines before forwarding); anything else goes straight
  /// to the origin.
  virtual void DeliverPartial(uint64_t qid, uint64_t epoch,
                              const catalog::Tuple& t, ExchangeKind route) = 0;
  /// Batch-plane kToOrigin: delivers every live row of `b` to the origin in
  /// ONE column-major wire frame (looping back row-by-row into origin
  /// collection when this node is the origin).
  virtual void DeliverResultBatch(uint64_t qid, uint64_t epoch,
                                  const exec::RowBatch& b) = 0;
  /// Batch-plane partial routing: one frame carries a whole flush worth of
  /// partial rows; the receiver unpacks and folds them exactly as if each
  /// had arrived as a kPartialAgg message.
  virtual void DeliverPartialBatch(uint64_t qid, uint64_t epoch,
                                   const std::vector<catalog::Tuple>& partials,
                                   ExchangeKind route) = 0;
  /// Raw engine-protocol message (semi-join fetch and Bloom traffic).
  virtual void SendQueryBytes(uint32_t to, const Writer& w) = 0;
  /// Bloom join: origin redistributes the unioned filters network-wide with
  /// the wave's accounting verdict (expected/reported parts, complete).
  /// Receivers suppress only on a complete wave; the engine surfaces a
  /// degraded wave in the query's Completeness.
  virtual void BroadcastBloomFilters(uint64_t qid, uint32_t node_id,
                                     uint64_t parts_expected,
                                     uint64_t parts_reported, bool complete,
                                     const BloomFilter& left,
                                     const BloomFilter& right) = 0;
  /// What the latest plan broadcast's cover wave reported for `qid`:
  /// `*members` nodes confirmed covered (origin included; 0 = wave not
  /// back yet), `*complete` = every reachable subtree delivered. The Bloom
  /// wave accounts its parts against exactly this population.
  virtual void QueryCoverage(uint64_t qid, uint64_t* members,
                             bool* complete) const = 0;

  /// Arms an engine-owned timer that invokes Stage::OnTimer(token) on graph
  /// node `node_id` of `qid` — but only if the query is still live, so
  /// stage timers can never fire on freed state.
  virtual sim::TimerId ScheduleStageTimer(Duration delay, uint64_t qid,
                                          uint32_t node_id,
                                          uint64_t token) = 0;
  virtual void CancelTimer(sim::TimerId id) = 0;

  /// Runs `fn` on graph node `node_id`'s stage iff the query is still
  /// live. The safe re-entry point for deferred work (DHT get responses)
  /// whose continuation must not outlive the query.
  virtual void PostToStage(uint64_t qid, uint32_t node_id,
                           const std::function<void(Stage*)>& fn) = 0;

  /// An origin-side index scan finished its cursor walk. `ok` means the
  /// range was fully read (possibly empty); the engine may finalize a
  /// one-shot answer early. !ok means the walk failed mid-churn or found a
  /// cold index: the engine rewrites the plan's index scans into broadcast
  /// scans and re-disseminates — the answer degrades toward the scan
  /// baseline, it never errors.
  virtual void OnIndexScanDone(uint64_t qid, bool ok) = 0;

  /// Hands one epochal scan pass to the node's QueryScheduler (round-robin
  /// quanta + shared-sweep batching). The engine injects its abort probe
  /// before enqueueing; `work.done` fires when the scan finishes.
  virtual void SubmitScan(ScanWork work) = 0;
  /// The scheduler finished every epochal scan for `epoch` (immediately
  /// when there are none): members may report their outbox-drain epoch
  /// claims, origins may certify.
  virtual void OnEpochScansDone(uint64_t qid, uint64_t epoch) = 0;
  /// Budget gate for rehash-exchange fan-out: returns false (and trips the
  /// query's budget) when `n` more puts would exceed the per-query cap —
  /// the exchange drops the put and the query degrades loudly.
  virtual bool ChargeRehashPuts(uint64_t qid, uint64_t n) = 0;
};

/// A stage consuming tuples from a local edge. Returns false to stop the
/// producer early (LIMIT pushdown into scans).
using EmitFn = std::function<bool(const catalog::Tuple&)>;

/// The batch-plane twin: a stage consuming whole RowBatches from a local
/// edge. The callee may narrow or truncate the batch's selection in place;
/// returning false stops the producing scan early, exactly like EmitFn.
using BatchEmitFn = std::function<bool(exec::RowBatch&)>;

/// Base class for per-query runtime stages.
class Stage {
 public:
  virtual ~Stage() = default;
  /// Engine-dispatched timer callback (token is stage-defined).
  virtual void OnTimer(uint64_t token) { (void)token; }
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_STAGE_H_
