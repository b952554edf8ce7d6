#include "exec/operators.h"

#include <algorithm>

namespace pier {
namespace exec {

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

void FilterOp::Push(const catalog::Tuple& t, int /*port*/) {
  bool pass = false;
  Status s = EvalPredicate(*predicate_, t, &pass);
  if (!s.ok() || !pass) {
    ++dropped_;
    return;
  }
  Emit(t);
}

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

void ProjectOp::Push(const catalog::Tuple& t, int /*port*/) {
  catalog::Tuple out;
  out.reserve(exprs_.size());
  for (const ExprPtr& e : exprs_) {
    Value v;
    if (!e->Eval(t, &v).ok()) v = Value::Null();  // soft failure
    out.push_back(std::move(v));
  }
  Emit(out);
}

// ---------------------------------------------------------------------------
// GroupByOp
// ---------------------------------------------------------------------------

GroupByOp::GroupByOp(std::vector<int> group_cols, std::vector<AggSpec> aggs,
                     AggPhase phase)
    : group_cols_(std::move(group_cols)),
      aggs_(std::move(aggs)),
      phase_(phase) {}

catalog::Tuple GroupByOp::GroupKey(const catalog::Tuple& t) const {
  catalog::Tuple key;
  if (phase_ == AggPhase::kCombine || phase_ == AggPhase::kFinal) {
    // Partial layout: group values occupy the first G slots.
    key.assign(t.begin(),
               t.begin() + std::min(t.size(), group_cols_.size()));
  } else {
    key.reserve(group_cols_.size());
    for (int c : group_cols_) {
      key.push_back(c >= 0 && static_cast<size_t>(c) < t.size()
                        ? t[c]
                        : Value::Null());
    }
  }
  return key;
}

void GroupByOp::Push(const catalog::Tuple& t, int /*port*/) {
  catalog::Tuple key = GroupKey(t);
  auto it = groups_.find(key);
  if (it == groups_.end()) {
    std::vector<Value> state(aggs_.size() * kPartialWidth);
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggInit(aggs_[a], &state[a * kPartialWidth],
              &state[a * kPartialWidth + 1]);
    }
    it = groups_.emplace(std::move(key), std::move(state)).first;
  }
  std::vector<Value>& state = it->second;
  if (phase_ == AggPhase::kComplete || phase_ == AggPhase::kPartial) {
    for (size_t a = 0; a < aggs_.size(); ++a) {
      AggUpdate(aggs_[a], t, &state[a * kPartialWidth],
                &state[a * kPartialWidth + 1]);
    }
  } else {
    // Merging partials: states follow the group values.
    size_t base = group_cols_.size();
    for (size_t a = 0; a < aggs_.size(); ++a) {
      size_t off = base + a * kPartialWidth;
      const Value& in1 =
          off < t.size() ? t[off] : Value::Null();
      const Value& in2 =
          off + 1 < t.size() ? t[off + 1] : Value::Null();
      AggMerge(aggs_[a], in1, in2, &state[a * kPartialWidth],
               &state[a * kPartialWidth + 1]);
    }
  }
}

void GroupByOp::FlushOnly() {
  for (const auto& [key, state] : groups_) {
    catalog::Tuple out = key;
    if (phase_ == AggPhase::kComplete || phase_ == AggPhase::kFinal) {
      for (size_t a = 0; a < aggs_.size(); ++a) {
        out.push_back(AggFinalize(aggs_[a], state[a * kPartialWidth],
                                  state[a * kPartialWidth + 1]));
      }
    } else {
      for (const Value& v : state) out.push_back(v);
    }
    Emit(out);
  }
}

void GroupByOp::FlushAndReset() {
  FlushOnly();
  groups_.clear();
}

// ---------------------------------------------------------------------------
// DistinctOp
// ---------------------------------------------------------------------------

void DistinctOp::Push(const catalog::Tuple& t, int /*port*/) {
  uint64_t h = catalog::HashTuple(t);
  std::vector<catalog::Tuple>& bucket = seen_[h];
  for (const catalog::Tuple& prev : bucket) {
    if (catalog::CompareTuples(prev, t) == 0) return;  // duplicate
  }
  bucket.push_back(t);
  Emit(t);
}

// ---------------------------------------------------------------------------
// TopKOp
// ---------------------------------------------------------------------------

bool TopKOp::Before(const catalog::Tuple& a, const catalog::Tuple& b) const {
  const Value& va = order_col_ >= 0 && static_cast<size_t>(order_col_) < a.size()
                        ? a[order_col_]
                        : Value();
  const Value& vb = order_col_ >= 0 && static_cast<size_t>(order_col_) < b.size()
                        ? b[order_col_]
                        : Value();
  int c = va.Compare(vb);
  if (c != 0) return descending_ ? c > 0 : c < 0;
  // Stable total order for determinism across runs.
  return catalog::CompareTuples(a, b) < 0;
}

void TopKOp::Push(const catalog::Tuple& t, int /*port*/) {
  rows_.push_back(t);
  if (rows_.size() >= 2 * k_) Trim();
}

void TopKOp::Trim() {
  if (rows_.size() <= k_) return;
  std::nth_element(rows_.begin(), rows_.begin() + static_cast<ptrdiff_t>(k_),
                   rows_.end(),
                   [this](const catalog::Tuple& a, const catalog::Tuple& b) {
                     return Before(a, b);
                   });
  rows_.resize(k_);
}

void TopKOp::FlushOnly() {
  Trim();
  std::sort(rows_.begin(), rows_.end(),
            [this](const catalog::Tuple& a, const catalog::Tuple& b) {
              return Before(a, b);
            });
  for (const catalog::Tuple& t : rows_) Emit(t);
}

void TopKOp::FlushAndReset() {
  FlushOnly();
  rows_.clear();
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

void LimitOp::Push(const catalog::Tuple& t, int /*port*/) {
  if (passed_ >= k_) return;
  ++passed_;
  Emit(t);
}

// ---------------------------------------------------------------------------
// SymmetricHashJoinOp
// ---------------------------------------------------------------------------

SymmetricHashJoinOp::SymmetricHashJoinOp(std::vector<int> left_key_cols,
                                         std::vector<int> right_key_cols,
                                         ExprPtr residual)
    : left_keys_(std::move(left_key_cols)),
      right_keys_(std::move(right_key_cols)),
      residual_(std::move(residual)) {
  SetNumInputs(2);
}

bool SymmetricHashJoinOp::KeysEqual(const catalog::Tuple& l,
                                    const catalog::Tuple& r) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    // Rows arrive from the network: a key column past a tuple's end never
    // matches (such tuples all hash to one bucket, so they do meet here).
    int lc = left_keys_[i];
    int rc = right_keys_[i];
    if (lc < 0 || static_cast<size_t>(lc) >= l.size() || rc < 0 ||
        static_cast<size_t>(rc) >= r.size()) {
      return false;
    }
    const Value& lv = l[lc];
    const Value& rv = r[rc];
    if (lv.is_null() || rv.is_null()) return false;  // SQL join semantics
    if (lv.Compare(rv) != 0) return false;
  }
  return true;
}

void SymmetricHashJoinOp::EmitJoined(const catalog::Tuple& l,
                                     const catalog::Tuple& r) {
  catalog::Tuple joined;
  joined.reserve(l.size() + r.size());
  joined.insert(joined.end(), l.begin(), l.end());
  joined.insert(joined.end(), r.begin(), r.end());
  if (residual_ != nullptr) {
    bool pass = false;
    if (!EvalPredicate(*residual_, joined, &pass).ok() || !pass) return;
  }
  Emit(joined);
}

void SymmetricHashJoinOp::Push(const catalog::Tuple& t, int port) {
  if (port == 0) {
    uint64_t h = catalog::HashTupleCols(t, left_keys_);
    left_table_[h].push_back(t);
    ++left_rows_;
    auto it = right_table_.find(h);
    if (it != right_table_.end()) {
      for (const catalog::Tuple& r : it->second) {
        if (KeysEqual(t, r)) EmitJoined(t, r);
      }
    }
  } else {
    uint64_t h = catalog::HashTupleCols(t, right_keys_);
    right_table_[h].push_back(t);
    ++right_rows_;
    auto it = left_table_.find(h);
    if (it != left_table_.end()) {
      for (const catalog::Tuple& l : it->second) {
        if (KeysEqual(l, t)) EmitJoined(l, t);
      }
    }
  }
}

}  // namespace exec
}  // namespace pier
