// ScanStage: the tuple-at-a-time leaf that join and recursion stages drive
// over one relation's local slice on this node. PIER's "lscan": primaries
// only (replicas would double count), windowed for continuous queries,
// soft-failing on undecodable rows. Epochal pipelines do not use it: their
// scans run as batch sweeps in the QueryScheduler.

#ifndef PIER_QUERY_OPS_SCAN_STAGE_H_
#define PIER_QUERY_OPS_SCAN_STAGE_H_

#include "query/ops/stage.h"

namespace pier {
namespace query {
namespace ops {

class ScanStage : public Stage {
 public:
  /// `node` must be a kScan OpNode and outlive the stage. `window` is the
  /// plan's continuous-query window (0 = whole live snapshot).
  ScanStage(StageHost* host, const OpNode* node, Duration window)
      : host_(host), node_(node), window_(window) {}

  /// Runs one scan pass, handing each decoded row to `row` (counted in
  /// EngineStats::vectorized_fallbacks). Stops early when `row` returns
  /// false.
  void Run(const std::function<bool(const catalog::Tuple&)>& row);

 private:
  StageHost* host_;
  const OpNode* node_;
  Duration window_;
};

}  // namespace ops
}  // namespace query
}  // namespace pier

#endif  // PIER_QUERY_OPS_SCAN_STAGE_H_
