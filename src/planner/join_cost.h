// Per-edge join strategy selection.
//
// PIER's join strategies trade network bytes differently: symmetric hash
// rehashes both relations in full; symmetric semi-join rehashes key
// projections and fetches full tuples only for matches; Bloom join
// broadcasts filter digests and rehashes only probable matches. Which one
// wins depends on relation cardinalities, tuple widths, and key
// selectivity — exactly the coarse statistics TableStats carries. This
// module is the planner's cost model: given both sides' stats it estimates
// bytes-on-the-wire for each strategy and picks the cheapest, falling back
// to the always-correct symmetric hash whenever statistics are missing
// (an unknown side must never authorize a suppressing strategy).

#ifndef PIER_PLANNER_JOIN_COST_H_
#define PIER_PLANNER_JOIN_COST_H_

#include <cstdint>
#include <vector>

#include "catalog/table_def.h"
#include "query/opgraph.h"

namespace pier {
namespace planner {

/// Everything the cost model sees about one join edge. Key columns index
/// the base table schemas (both sides of a candidate edge are scans).
struct JoinCostInputs {
  const catalog::TableStats* left = nullptr;
  const catalog::TableStats* right = nullptr;
  std::vector<int> left_key_cols;
  std::vector<int> right_key_cols;
  /// Estimated network size — scales the Bloom wave's fixed broadcast
  /// cost. Plans don't know the live ring size; a coarse default is fine
  /// because the wave term is dwarfed by per-tuple terms at any scale
  /// where Bloom wins.
  uint64_t members = 32;
};

/// The selection plus the estimates it was based on (surfaced in tests and
/// EXPLAIN debugging; bytes are estimates, not guarantees).
struct JoinChoice {
  query::JoinStrategy strategy = query::JoinStrategy::kSymmetricHash;
  uint64_t est_hash_bytes = 0;
  uint64_t est_bloom_bytes = 0;
  uint64_t est_semi_bytes = 0;
};

/// Picks the cheapest of {kSymmetricHash, kSymmetricSemi, kBloom} for one
/// edge. Returns kSymmetricHash when either side lacks statistics.
/// Never returns kFetchMatches — that choice is about partitioning
/// alignment, not cardinality, and stays with the planner's existing rule.
JoinChoice ChooseJoinStrategy(const JoinCostInputs& in);

}  // namespace planner
}  // namespace pier

#endif  // PIER_PLANNER_JOIN_COST_H_
