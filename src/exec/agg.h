// Aggregate functions with decomposable partial states.
//
// In-network aggregation hinges on decomposability: every aggregate here
// has a uniform two-value partial representation that can be initialized
// from raw rows, merged associatively at interior tree nodes, and finalized
// at the root:
//
//   COUNT: (count, -)        SUM: (sum, -)       AVG: (sum, count)
//   MIN:   (min, -)          MAX: (max, -)
//
// A partial tuple is [group values..., a1.v1, a1.v2, a2.v1, a2.v2, ...].

#ifndef PIER_EXEC_AGG_H_
#define PIER_EXEC_AGG_H_

#include <string>
#include <vector>

#include "catalog/tuple.h"
#include "common/serialize.h"
#include "common/value.h"

namespace pier {
namespace exec {

enum class AggFunc : uint8_t { kCount = 0, kSum = 1, kAvg = 2, kMin = 3, kMax = 4 };

const char* AggFuncName(AggFunc fn);

/// One aggregate in a GROUP BY: the function, its input column in the raw
/// tuple (-1 means COUNT(*)), and the output column name.
struct AggSpec {
  AggFunc fn = AggFunc::kCount;
  int col = -1;
  std::string output_name;

  void Serialize(Writer* w) const {
    w->PutU8(static_cast<uint8_t>(fn));
    w->PutVarint64Signed(col);
    w->PutString(output_name);
  }
  static Status Deserialize(Reader* r, AggSpec* out) {
    uint8_t fn = 0;
    int64_t col = 0;
    PIER_RETURN_IF_ERROR(r->GetU8(&fn));
    if (fn > static_cast<uint8_t>(AggFunc::kMax)) {
      return Status::Corruption("bad agg func");
    }
    PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&col));
    PIER_RETURN_IF_ERROR(r->GetString(&out->output_name));
    out->fn = static_cast<AggFunc>(fn);
    out->col = static_cast<int>(col);
    return Status::OK();
  }
};

/// Number of values a partial state occupies in a partial tuple.
inline constexpr int kPartialWidth = 2;

/// Initializes (v1, v2) to the aggregate's identity.
void AggInit(const AggSpec& spec, Value* v1, Value* v2);
/// Folds one raw row into the partial state.
void AggUpdate(const AggSpec& spec, const catalog::Tuple& row, Value* v1,
               Value* v2);
/// Same fold with the input value already extracted (NULL when the spec's
/// column is absent from the row). The vectorized accumulator
/// (exec/kernels.h) feeds column cells through this without building a
/// Tuple per row; AggUpdate delegates here so both planes share one
/// definition.
void AggUpdateValue(const AggSpec& spec, const Value& input, Value* v1,
                    Value* v2);
/// Merges another partial (in1, in2) into (v1, v2). Associative and
/// commutative — safe at any interior node of the aggregation tree.
void AggMerge(const AggSpec& spec, const Value& in1, const Value& in2,
              Value* v1, Value* v2);
/// Produces the final value from a partial state.
Value AggFinalize(const AggSpec& spec, const Value& v1, const Value& v2);
/// The one row a scalar aggregate (no GROUP BY) yields over no input, per
/// SQL: COUNT = 0, SUM = NULL, ...
catalog::Tuple AggIdentityRow(const std::vector<AggSpec>& aggs);

}  // namespace exec
}  // namespace pier

#endif  // PIER_EXEC_AGG_H_
