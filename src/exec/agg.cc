#include "exec/agg.h"

namespace pier {
namespace exec {

const char* AggFuncName(AggFunc fn) {
  switch (fn) {
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
  }
  return "?";
}

namespace {

/// Numeric addition preserving integerness when both sides are INT64 and
/// the sum fits; otherwise it widens to DOUBLE.
Value AddValues(const Value& a, const Value& b) {
  if (a.is_null()) return b;
  if (b.is_null()) return a;
  int64_t sum = 0;
  if (a.type() == ValueType::kInt64 && b.type() == ValueType::kInt64 &&
      !__builtin_add_overflow(a.int64_value(), b.int64_value(), &sum)) {
    return Value::Int64(sum);
  }
  double x = 0, y = 0;
  (void)a.AsDouble(&x);
  (void)b.AsDouble(&y);
  return Value::Double(x + y);
}

}  // namespace

void AggInit(const AggSpec& spec, Value* v1, Value* v2) {
  switch (spec.fn) {
    case AggFunc::kCount:
      *v1 = Value::Int64(0);
      *v2 = Value::Null();
      break;
    case AggFunc::kSum:
      *v1 = Value::Null();  // SUM of nothing is NULL
      *v2 = Value::Null();
      break;
    case AggFunc::kAvg:
      *v1 = Value::Null();
      *v2 = Value::Int64(0);
      break;
    case AggFunc::kMin:
    case AggFunc::kMax:
      *v1 = Value::Null();
      *v2 = Value::Null();
      break;
  }
}

void AggUpdate(const AggSpec& spec, const catalog::Tuple& row, Value* v1,
               Value* v2) {
  Value input;
  if (spec.col >= 0 && static_cast<size_t>(spec.col) < row.size()) {
    input = row[spec.col];
  }
  AggUpdateValue(spec, input, v1, v2);
}

void AggUpdateValue(const AggSpec& spec, const Value& input, Value* v1,
                    Value* v2) {
  switch (spec.fn) {
    case AggFunc::kCount: {
      // COUNT(*) counts rows; COUNT(col) counts non-null values.
      bool counts = (spec.col < 0) || !input.is_null();
      if (counts) *v1 = Value::Int64(v1->int64_value() + 1);
      break;
    }
    case AggFunc::kSum:
      if (!input.is_null()) *v1 = AddValues(*v1, input);
      break;
    case AggFunc::kAvg:
      if (!input.is_null()) {
        *v1 = AddValues(*v1, input);
        *v2 = Value::Int64(v2->int64_value() + 1);
      }
      break;
    case AggFunc::kMin:
      if (!input.is_null() && (v1->is_null() || input.Compare(*v1) < 0)) {
        *v1 = input;
      }
      break;
    case AggFunc::kMax:
      if (!input.is_null() && (v1->is_null() || input.Compare(*v1) > 0)) {
        *v1 = input;
      }
      break;
  }
}

void AggMerge(const AggSpec& spec, const Value& in1, const Value& in2,
              Value* v1, Value* v2) {
  switch (spec.fn) {
    case AggFunc::kCount:
      *v1 = AddValues(*v1, in1);
      break;
    case AggFunc::kSum:
      *v1 = AddValues(*v1, in1);
      break;
    case AggFunc::kAvg:
      *v1 = AddValues(*v1, in1);
      *v2 = AddValues(*v2, in2);
      break;
    case AggFunc::kMin:
      if (!in1.is_null() && (v1->is_null() || in1.Compare(*v1) < 0)) {
        *v1 = in1;
      }
      break;
    case AggFunc::kMax:
      if (!in1.is_null() && (v1->is_null() || in1.Compare(*v1) > 0)) {
        *v1 = in1;
      }
      break;
  }
}

Value AggFinalize(const AggSpec& spec, const Value& v1, const Value& v2) {
  switch (spec.fn) {
    case AggFunc::kCount:
      return v1.is_null() ? Value::Int64(0) : v1;
    case AggFunc::kSum:
    case AggFunc::kMin:
    case AggFunc::kMax:
      return v1;
    case AggFunc::kAvg: {
      // A count from another node's partial may be any type: a count
      // that is not numeric, or is zero, has no average.
      double count = 0;
      if (v1.is_null() || !v2.AsDouble(&count).ok() || count == 0) {
        return Value::Null();
      }
      double sum = 0;
      (void)v1.AsDouble(&sum);
      return Value::Double(sum / count);
    }
  }
  return Value::Null();
}

catalog::Tuple AggIdentityRow(const std::vector<AggSpec>& aggs) {
  catalog::Tuple row;
  row.reserve(aggs.size());
  for (const AggSpec& spec : aggs) {
    Value v1, v2;
    AggInit(spec, &v1, &v2);
    row.push_back(AggFinalize(spec, v1, v2));
  }
  return row;
}

}  // namespace exec
}  // namespace pier
