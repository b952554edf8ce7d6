#include "query/ops/collect_stage.h"

#include "exec/kernels.h"
#include "exec/operators.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

CollectStage::CollectStage(StageHost* host, uint64_t qid,
                           const OpNode* final_agg, const OpNode* collect,
                           bool partials, bool dedup)
    : host_(host),
      qid_(qid),
      final_agg_(final_agg),
      collect_(collect),
      partials_(partials),
      dedup_(dedup),
      last_new_row_(host->sim()->now()) {}

bool CollectStage::Admit(uint32_t from, uint64_t epoch) {
  if (host_->EpochClosed(qid_, epoch)) {
    ++host_->mutable_stats()->late_partials;  // straggler past the window
    return false;
  }
  epochs_[epoch].reporters.insert(from);
  return true;
}

void CollectStage::Accept(uint32_t from, uint64_t epoch,
                          const std::vector<Tuple>& rows) {
  if (rows.empty() || !Admit(from, epoch)) return;
  for (const Tuple& t : rows) Keep(epoch, t);
}

void CollectStage::Accept(uint32_t from, uint64_t epoch,
                          const exec::RowBatch& b) {
  if (b.ActiveRows() == 0 || !Admit(from, epoch)) return;
  Tuple t;
  for (size_t i = 0; i < b.ActiveRows(); ++i) {
    b.ToTuple(b.RowId(i), &t);
    Keep(epoch, t);
  }
}

void CollectStage::Keep(uint64_t epoch, const Tuple& t) {
  if (dedup_) {
    // The same pair may be reported via multiple temp owners after churn.
    if (!seen_.insert(catalog::TupleToBytes(t)).second) return;
    last_new_row_ = host_->sim()->now();
  }
  std::vector<Tuple>& rows = epochs_[epoch].rows;
  if (!host_->ChargeResultRow(qid_, rows.size())) return;
  rows.push_back(t);
}

void CollectStage::Finish(uint64_t epoch, std::vector<Tuple> groups,
                          ResultBatch* out) {
  EpochRows e;
  if (auto it = epochs_.find(epoch); it != epochs_.end()) {
    e = std::move(it->second);
    epochs_.erase(it);
  }
  out->reporters.assign(e.reporters.begin(), e.reporters.end());
  out->reporting_nodes = out->reporters.size();
  std::vector<Tuple> rows = std::move(e.rows);
  if (final_agg_ != nullptr) {
    if (partials_) {
      rows = std::move(groups);
    } else {
      exec::VectorGroupBy gb(final_agg_->group_cols, final_agg_->aggs);
      gb.PushBatch(exec::RowBatch::OfRows(rows));
      rows = gb.Drain(/*finalize=*/true);
    }
    if (final_agg_->group_cols.empty() && rows.empty()) {
      rows.push_back(exec::AggIdentityRow(final_agg_->aggs));
    }
    if (final_agg_->having != nullptr) {
      rows = exec::Filter(*final_agg_->having, std::move(rows));
    }
    if (!collect_->final_projection.empty()) {
      std::vector<exec::ExprPtr> select;
      for (int c : collect_->final_projection) {
        select.push_back(exec::Expr::Column(c));  // out of range: NULL
      }
      rows = exec::Project(select, rows);
    }
  }
  if (collect_->distinct) rows = exec::Distinct(std::move(rows));
  const size_t limit = collect_->limit >= 0
                           ? static_cast<size_t>(collect_->limit)
                           : rows.size();
  if (collect_->order_col >= 0) {
    rows = exec::TopK(std::move(rows), collect_->order_col,
                      collect_->order_desc, limit);
  } else if (rows.size() > limit) {
    rows.resize(limit);
  }
  out->rows = std::move(rows);
}

}  // namespace ops
}  // namespace query
}  // namespace pier
