// QueryRuntime: one installed query's live dataflow on one node.
//
// Built from the plan's opgraph at install time, it instantiates the
// stages this node participates in (joins, partial aggregation, recursion),
// compiles the kLocal edges into direct call chains (filter/project fused
// into their producer's emit path), and routes engine events — exchange
// arrivals, relayed partials, fetch/Bloom traffic, timers — to the right
// stage. The engine owns one runtime per active query and destroys it at
// query GC.

#ifndef PIER_QUERY_OPS_RUNTIME_H_
#define PIER_QUERY_OPS_RUNTIME_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "query/ops/agg_stage.h"
#include "query/ops/index_scan_stage.h"
#include "query/ops/join_stage.h"
#include "query/ops/recursive_stage.h"
#include "query/ops/scan_stage.h"
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
  bool has_partial_agg() const { return agg_ != nullptr; }
  const OpNode* final_agg_node() const { return final_agg_; }
  const OpNode* collect_node() const { return collect_; }
  /// Exchange namespaces this query consumes on this node (subscribe at
  /// install, drop at query end).
  std::vector<std::string> Namespaces() const;

  // -- engine entry points ---------------------------------------------------
  /// Origin-only, at Execute time (before the plan broadcast): pre-install
  /// setup such as the Bloom collection window.
  void InitOrigin();
  /// One-time member setup for non-epochal graphs (joins, recursion).
  void Start();
  /// Runs one epoch of every epochal scan pipeline.
  void StartEpoch(uint64_t epoch);
  void OnArrival(const std::string& ns, const dht::StoredItem& item);
  void OnRemotePartial(uint64_t epoch, const catalog::Tuple& t);
  void OnFetchReq(uint32_t from, Reader* r);
  void OnFetchResp(Reader* r);
  /// Filter-wave frames route per-edge by the frame's join node id (a
  /// multiway graph can carry a Bloom edge next to plain hash edges); a
  /// frame naming a non-Bloom node is dropped, never crashes.
  void OnBloomPart(uint32_t from, const BloomPartFrame& frame);
  void OnBloomDist(BloomDistFrame frame);
  Stage* stage(uint32_t node_id);

 private:
  /// Compiles the tuple-at-a-time chain downstream of a join, recursion or
  /// index-scan producer.
  EmitFn BuildEmitFrom(uint32_t producer_id);
  /// Batch-plane twin of BuildEmitFrom for epochal scans: compiles the
  /// local chain downstream of `producer_id` into a RowBatch pipeline
  /// (kernel filters narrowing selections, vectorized projection,
  /// VectorGroupBy partial aggregation, one-frame-per-batch origin
  /// delivery).
  BatchEmitFn BuildBatchEmitFrom(uint32_t producer_id);
  /// Packages one epochal scan as scheduler work: the compiled batch chain
  /// as the feed, and an epoch-completion callback as done.
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
  const OpNode* final_agg_ = nullptr;
  const OpNode* collect_ = nullptr;
  std::vector<uint32_t> epochal_scans_;
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
