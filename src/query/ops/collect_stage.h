// CollectStage: the graph's kFinalAgg and kCollect nodes, instantiated at
// the query origin only. An epoch collects kToOrigin rows — batches
// straight from this node's chains, or members' frames — and, when it
// closes, the finalized groups of the root AggStage, where the combine
// tree ends. Finish runs the tail once: the group-by over raw rows (a
// binary join's or an index scan's GROUP BY, through exec::VectorGroupBy),
// the scalar identity row, HAVING, the SELECT permutation, DISTINCT,
// ORDER BY / top-k and LIMIT. Rows are capped per epoch by the query's
// max_result_rows budget and, for recursion, deduped across the query.

#ifndef PIER_QUERY_OPS_COLLECT_STAGE_H_
#define PIER_QUERY_OPS_COLLECT_STAGE_H_

#include <map>
#include <set>
#include <string>
#include <unordered_set>
#include <vector>

#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class CollectStage : public Stage {
 public:
  /// `final_agg` (null without aggregation) and `collect` must outlive the
  /// stage. `partials`: the root AggStage aggregates, and Finish takes its
  /// groups instead of grouping raw rows. `dedup`: drop rows collected
  /// before (recursion).
  CollectStage(StageHost* host, uint64_t qid, const OpNode* final_agg,
               const OpNode* collect, bool partials, bool dedup);

  /// False, counting one late arrival, once `epoch` is closed; else records
  /// `from` as one of the epoch's reporters.
  bool Admit(uint32_t from, uint64_t epoch);
  /// Admits one member frame's rows (or one batch of this node's own) as a
  /// whole: a frame past its epoch counts once as late, not once per row.
  void Accept(uint32_t from, uint64_t epoch,
              const std::vector<catalog::Tuple>& rows);
  void Accept(uint32_t from, uint64_t epoch, const exec::RowBatch& b);
  /// Runs the tail over `epoch`'s rows, or the root's finalized `groups`
  /// when the root aggregates, into `out`'s rows and reporters; the
  /// epoch's state is spent.
  void Finish(uint64_t epoch, std::vector<catalog::Tuple> groups,
              ResultBatch* out);
  /// Drops what `epoch` collected so far: the plan re-runs it.
  void Restart(uint64_t epoch) { epochs_.erase(epoch); }
  /// When a deduplicating query last collected a new row.
  TimePoint last_new_row() const { return last_new_row_; }

 private:
  struct EpochRows {
    std::set<uint32_t> reporters;
    std::vector<catalog::Tuple> rows;
  };

  /// Adds one admitted row to `epoch`, deduped and charged to the budget.
  void Keep(uint64_t epoch, const catalog::Tuple& t);

  StageHost* host_;
  uint64_t qid_;
  const OpNode* final_agg_;
  const OpNode* collect_;
  bool partials_;
  bool dedup_;
  std::map<uint64_t, EpochRows> epochs_;
  std::unordered_set<std::string> seen_;
  TimePoint last_new_row_;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_COLLECT_STAGE_H_
