#include "query/ops/scan_stage.h"

namespace pier {
namespace query {
namespace ops {

using catalog::Tuple;

void ScanStage::Run(const std::function<bool(const Tuple&)>& row) {
  ++host_->mutable_stats()->scans_run;
  ++host_->mutable_stats()->vectorized_fallbacks;
  TimePoint cutoff = window_ > 0 ? host_->sim()->now() - window_ : 0;
  // In-place visitation: the store is scanned once per epoch per relation on
  // every node, so this path must not copy values (see dht::LocalStore).
  // ForEachLocalReadable = primaries plus failed-over replicas: data whose
  // owner crashed stays scannable from its surviving copies.
  Tuple t;
  host_->dht()->ForEachLocalReadable(node_->table,
                                     [&](const dht::StoredItem& item) {
    if (item.stored_at < cutoff) return true;
    if (!catalog::TupleFromBytes(item.value, &t).ok()) return true;
    if (t.size() != node_->schema.num_columns()) return true;
    ++host_->mutable_stats()->tuples_scanned;
    return row(t);
  });
}

}  // namespace ops
}  // namespace query
}  // namespace pier
