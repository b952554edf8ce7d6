// QueryRuntime: one installed query's live dataflow on one node.
//
// Built from the plan's opgraph at install time, it instantiates the
// stages this node participates in (joins, partial aggregation, recursion,
// and at the origin the collection, where kToOrigin edges end), compiles
// the kLocal edges into direct call chains (filter/project fused into
// their producer's emit path), and routes engine events — exchange
// arrivals, members' rows and partials, fetch/Bloom traffic, timers — to
// the right stage. It is also where the plan's scan leaves are compiled
// and submitted to the node's QueryScheduler: epochal scans once per epoch,
// join and recursion inputs once at install. The engine owns one runtime
// per live query and frees it when the query ends.

#ifndef PIER_QUERY_OPS_RUNTIME_H_
#define PIER_QUERY_OPS_RUNTIME_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "query/ops/agg_stage.h"
#include "query/ops/collect_stage.h"
#include "query/ops/index_scan_stage.h"
#include "query/ops/join_stage.h"
#include "query/ops/recursive_stage.h"
#include "query/ops/stage.h"
#include "query/plan.h"

namespace pier {
namespace query {
namespace ops {

class QueryRuntime {
 public:
  /// `env` must outlive the runtime and carry a validated, non-empty graph.
  QueryRuntime(StageHost* host, const PlanEnvelope* env, bool is_origin);

  /// Builds stages and emit chains; fails on graph shapes the runtime
  /// cannot execute (never crashes on hostile graphs).
  Status Init();

  // -- classification --------------------------------------------------------
  /// True for scan->...->origin pipelines that re-run per epoch
  /// (select/project and scan aggregation); joins and recursion set up once.
  bool epochal() const { return epochal_; }
  bool has_recurse() const { return recurse_ != nullptr; }
  /// Index scans are the plan's only source (Init keeps them off every
  /// distributed operator): it runs at the origin, never disseminated.
  bool origin_local() const { return !index_scans_.empty(); }
  /// Members produce each epoch from their own scans alone and ship it
  /// straight to the origin — no relay, hold or cursor owes rows after the
  /// scans finish — so their reports can certify it exact. A join graph
  /// that keeps books qualifies too: its members report once settled.
  bool accountable() const {
    return index_scans_.empty() &&
           (keeps_books() || (epochal_ && agg_ == nullptr));
  }
  /// A one-shot join graph (no recursion) whose joined rows, or the final
  /// join's partial groups, go straight to the origin: each node's reports
  /// carry its join books, and the origin certifies when they balance.
  bool keeps_books() const {
    return !joins_.empty() && recurse_ == nullptr && env_->plan.every == 0;
  }
  /// Scan-fed aggregation: every partial carries its contributor count up
  /// the combine tree, and the root's total certifies an epoch exact.
  bool counted() const { return epochal_ && agg_ != nullptr; }
  /// Exchange namespaces this query consumes on this node (subscribe at
  /// install, drop at query end).
  std::vector<std::string> Namespaces() const;

  // -- engine entry points ---------------------------------------------------
  /// Origin-only, at Execute time (before the plan broadcast): pre-install
  /// setup such as the Bloom collection window.
  void InitOrigin();
  /// One-time member setup for non-epochal graphs (joins, recursion):
  /// each stage catches up on early arrivals, then the input scans are
  /// submitted.
  void Start();
  /// Runs one epoch of every epochal scan pipeline.
  void StartEpoch(uint64_t epoch);
  void OnArrival(const std::string& ns, const dht::StoredItem& item);
  /// A member's kResult frame, for the origin's collection.
  void OnRemoteResult(uint32_t from, uint64_t epoch,
                      const std::vector<catalog::Tuple>& rows);
  /// A member's kPartial frame (`contributors` nodes folded into `rows`),
  /// for the aggregation stage. Either kind reaching a node without its
  /// stage is malformed (every member builds the same graph) and dropped.
  void OnRemotePartial(uint32_t from, uint64_t epoch, uint64_t contributors,
                       const exec::RowBatch& rows);
  /// `epoch`'s plan broadcast covered `members` nodes through this one
  /// (see AggStage::OnSubtreeCovered).
  void OnSubtreeCovered(uint64_t epoch, uint64_t members, bool complete);
  void OnFetchReq(uint32_t from, Reader* r);
  void OnFetchResp(Reader* r);
  /// Filter-wave frames route per-edge by the frame's join node id (a
  /// multiway graph can carry a Bloom edge next to plain hash edges); a
  /// frame naming a non-Bloom node is dropped, never crashes.
  void OnBloomPart(uint32_t from, const BloomPartFrame& frame);
  void OnBloomDist(BloomDistFrame frame);
  Stage* stage(uint32_t node_id);

  // -- join books ------------------------------------------------------------
  /// This node owes its joins nothing more: the plan is installed, the
  /// input scans are done and every join stage has settled (data frames to
  /// the origin still unacked are the engine's to check).
  bool Settled() const;
  /// One entry per join that consumes an exchange namespace.
  std::vector<JoinBooks> Books() const;
  /// Rehash frames and fetches this node's joins lost for good, and
  /// probes that may have come back short.
  uint64_t JoinLosses() const;
  /// A fetch-matches join's inner rows held here are out of its probes'
  /// reach (JoinStage::InnerRowsOutOfReach).
  bool InnerRowsOutOfReach() const;
  /// Join-fed aggregation: ships the partial groups joined here since the
  /// last flush (AggStage::FlushStreaming). A member calls it once settled,
  /// before its report; the origin before it closes the answer.
  void FlushJoinPartials() {
    if (agg_ != nullptr) agg_->FlushStreaming();
  }
  /// Origin-only: the plan's cover wave came back.
  void OnCoverageKnown();

  // -- origin only -----------------------------------------------------------
  /// Members folded into the root's `epoch` so far (counted() graphs).
  uint64_t contributors(uint64_t epoch) const {
    return agg_ != nullptr ? agg_->contributors(epoch) : 0;
  }
  /// Closes `epoch`: fills `out`'s rows and reporters (CollectStage).
  void FinishEpoch(uint64_t epoch, ResultBatch* out);
  /// The engine rewrote the index scans into scans: the cursors stop, the
  /// scans run per epoch, and `restart_epoch` collects afresh.
  void FallBackToScans(uint64_t restart_epoch);
  TimePoint last_new_row() const { return collection_->last_new_row(); }

 private:
  /// Compiles the chain downstream of `producer_id` — a scan, join,
  /// recursion or index scan — into a RowBatch pipeline: kernel filters
  /// narrowing selections, vectorized projection, VectorGroupBy partial
  /// aggregation, the kRehash edge into a join, the recursion's seed, and
  /// one-frame-per-few-rows origin delivery.
  BatchEmitFn BuildBatchEmitFrom(uint32_t producer_id);
  /// Replays the items already stored in exchange namespace `ns` through
  /// OnArrival: what fast nodes rehashed here before the plan arrived.
  void CatchUp(const std::string& ns);
  /// Packages one scan as scheduler work: the compiled batch chain as the
  /// feed, and as done the epoch's completion (epochal scans) or the
  /// consuming join's (join inputs).
  ScanWork BuildScanWork(uint32_t scan_id, uint64_t epoch);
  /// One scheduled scan of `epoch` finished; when the last one does, runs
  /// the end-of-scan work (agg EndScan, the host's scans-done gate).
  void OnEpochScanDone(uint64_t epoch);

  StageHost* host_;
  const PlanEnvelope* env_;
  const OpGraph* graph_;
  bool is_origin_;
  uint64_t qid_;

  bool epochal_ = false;
  /// LIMIT pushdown into epochal scans: stop after this many rows reached
  /// the origin exchange (-1 = unlimited).
  int64_t local_cap_ = -1;
  uint64_t current_epoch_ = 0;
  int64_t epoch_sent_ = 0;
  /// Scheduled scans of current_epoch_ still draining.
  size_t pending_epoch_scans_ = 0;

  std::vector<std::unique_ptr<Stage>> stages_;  // indexed by graph node id
  std::vector<JoinStage*> joins_;               // in topological order
  AggStage* agg_ = nullptr;
  RecursiveStage* recurse_ = nullptr;
  CollectStage* collection_ = nullptr;  ///< the origin only
  const OpNode* final_agg_ = nullptr;
  const OpNode* collect_ = nullptr;
  std::vector<uint32_t> epochal_scans_;
  /// Join and recursion input scans, submitted once by Start.
  std::vector<uint32_t> start_scans_;
  /// kIndexScan nodes; their stages exist (and run) only at the origin —
  /// members receiving an index graph install an inert runtime.
  std::vector<uint32_t> index_scans_;
  std::map<std::string, uint32_t> ns_to_stage_;
  /// Publisher-scoped instance ids already admitted per exchange namespace:
  /// acked+retried rehash puts can deliver twice (the ack, not the store,
  /// is what got lost), and join state must not double-count.
  std::map<std::string, std::set<uint64_t>> arrival_seen_;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_RUNTIME_H_
