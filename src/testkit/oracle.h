// Answer oracle: centrally evaluates a distributed query plan over the live
// nodes' data and scores the distributed answer against it.
//
// PIER's relaxed-consistency contract is "best effort over the data
// reachable in the window", so correctness under faults is a *degree*, not
// a boolean. The oracle makes that degree measurable: it snapshots every
// alive node's local store (deduplicating replicas by DHT key), runs the
// same bound opgraph through the local exec operators in one process — no
// network, no loss; a GROUP BY folds its rows once through the scalar
// exec::GroupBy, never through the engine's partial/merge split — and
// reports recall/precision of the distributed rows
// against that ground truth. Scenario floors then assert "a query issued
// after the heal recovers >= 90% of the reachable answer", which is the
// acceptance bar PIQL-style success-tolerant systems need.
//
// Limitation: recursive closure graphs (kRecurse) are not evaluated —
// their hop-annotated output depends on expansion order. Scenarios score
// non-recursive queries.

#ifndef PIER_TESTKIT_ORACLE_H_
#define PIER_TESTKIT_ORACLE_H_

#include <vector>

#include "catalog/tuple.h"
#include "common/result.h"
#include "core/network.h"
#include "query/plan.h"

namespace pier {
namespace testkit {

/// Multiset agreement between the distributed answer and the oracle's.
struct OracleScore {
  size_t oracle_rows = 0;
  size_t answer_rows = 0;
  size_t matched = 0;
  /// matched / oracle_rows (1.0 when the oracle is empty).
  double recall = 1.0;
  /// matched / answer_rows (1.0 when the answer is empty).
  double precision = 1.0;

  std::string ToString() const;
};

/// Evaluates `plan`'s opgraph centrally over the current live data of
/// `net`'s alive nodes. The plan must already be planned/bound (the same
/// object handed to QueryEngine::Execute). Fails on recursive graphs and
/// on undecodable stored tuples.
Result<std::vector<catalog::Tuple>> OracleEvaluate(core::PierNetwork& net,
                                                   const query::QueryPlan& plan);

/// Multiset recall/precision of `answer` against `oracle`.
OracleScore ScoreAnswer(const std::vector<catalog::Tuple>& oracle,
                        const std::vector<catalog::Tuple>& answer);

}  // namespace testkit
}  // namespace pier

#endif  // PIER_TESTKIT_ORACLE_H_
