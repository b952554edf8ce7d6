#include "exec/operators.h"

#include <algorithm>

namespace pier {
namespace exec {

using catalog::Tuple;

std::vector<Tuple> Filter(const Expr& predicate, std::vector<Tuple> rows) {
  std::erase_if(rows, [&predicate](const Tuple& t) {
    bool pass = false;
    return !EvalPredicate(predicate, t, &pass).ok() || !pass;
  });
  return rows;
}

std::vector<Tuple> Project(const std::vector<ExprPtr>& exprs,
                           const std::vector<Tuple>& rows) {
  std::vector<Tuple> out;
  out.reserve(rows.size());
  for (const Tuple& t : rows) {
    Tuple projected;
    projected.reserve(exprs.size());
    for (const ExprPtr& e : exprs) {
      Value v;
      if (!e->Eval(t, &v).ok()) v = Value::Null();  // soft failure
      projected.push_back(std::move(v));
    }
    out.push_back(std::move(projected));
  }
  return out;
}

std::vector<Tuple> Distinct(std::vector<Tuple> rows) {
  // Hash -> indexes into `out` of the rows kept with that hash
  // (collision-safe exact check).
  std::unordered_map<uint64_t, std::vector<size_t>> seen;
  std::vector<Tuple> out;
  for (Tuple& t : rows) {
    std::vector<size_t>& bucket = seen[catalog::HashTuple(t)];
    if (std::any_of(bucket.begin(), bucket.end(), [&](size_t kept) {
          return catalog::CompareTuples(out[kept], t) == 0;
        })) {
      continue;
    }
    bucket.push_back(out.size());
    out.push_back(std::move(t));
  }
  return out;
}

std::vector<Tuple> TopK(std::vector<Tuple> rows, int order_col,
                        bool descending, size_t k) {
  static const Value kMissing;  // an order column past the row's end
  auto key = [order_col](const Tuple& t) -> const Value& {
    return order_col >= 0 && static_cast<size_t>(order_col) < t.size()
               ? t[order_col]
               : kMissing;
  };
  auto before = [&key, descending](const Tuple& a, const Tuple& b) {
    int c = key(a).Compare(key(b));
    if (c != 0) return descending ? c > 0 : c < 0;
    // Stable total order for determinism across runs.
    return catalog::CompareTuples(a, b) < 0;
  };
  // Cut to the best k (unordered) before the one sort.
  if (rows.size() > k) {
    std::nth_element(rows.begin(), rows.begin() + static_cast<ptrdiff_t>(k),
                     rows.end(), before);
    rows.resize(k);
  }
  std::sort(rows.begin(), rows.end(), before);
  return rows;
}

// ---------------------------------------------------------------------------
// GroupBy
// ---------------------------------------------------------------------------

GroupBy::GroupBy(std::vector<int> group_cols, std::vector<AggSpec> aggs)
    : group_cols_(std::move(group_cols)), aggs_(std::move(aggs)) {}

void GroupBy::Push(const Tuple& t) {
  Tuple key;
  key.reserve(group_cols_.size());
  for (int c : group_cols_) {
    key.push_back(c >= 0 && static_cast<size_t>(c) < t.size() ? t[c]
                                                              : Value::Null());
  }
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
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggUpdate(aggs_[a], t, &state[a * kPartialWidth],
              &state[a * kPartialWidth + 1]);
  }
}

std::vector<Tuple> GroupBy::Drain() {
  std::vector<Tuple> out;
  out.reserve(groups_.size());
  for (auto& [key, state] : groups_) {
    Tuple row = key;
    for (size_t a = 0; a < aggs_.size(); ++a) {
      row.push_back(AggFinalize(aggs_[a], state[a * kPartialWidth],
                                state[a * kPartialWidth + 1]));
    }
    out.push_back(std::move(row));
  }
  groups_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// SymmetricHashJoin
// ---------------------------------------------------------------------------

SymmetricHashJoin::SymmetricHashJoin(std::vector<int> left_key_cols,
                                     std::vector<int> right_key_cols)
    : left_keys_(std::move(left_key_cols)),
      right_keys_(std::move(right_key_cols)) {}

bool SymmetricHashJoin::KeysEqual(const Tuple& l, const Tuple& r) const {
  for (size_t i = 0; i < left_keys_.size(); ++i) {
    // Rows arrive from the network: a key column past a row's end never
    // matches (such rows all hash to one bucket, so they do meet here).
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

void SymmetricHashJoin::Insert(int side, const Tuple& row,
                               const MatchFn& on_match) {
  const bool left = side == 0;
  uint64_t h = catalog::HashTupleCols(row, left ? left_keys_ : right_keys_);
  (left ? left_table_ : right_table_)[h].push_back(row);
  const auto& other = left ? right_table_ : left_table_;
  auto it = other.find(h);
  if (it == other.end()) return;
  for (const Tuple& o : it->second) {
    const Tuple& l = left ? row : o;
    const Tuple& r = left ? o : row;
    if (!KeysEqual(l, r)) continue;
    Tuple joined;
    joined.reserve(l.size() + r.size());
    joined.insert(joined.end(), l.begin(), l.end());
    joined.insert(joined.end(), r.begin(), r.end());
    on_match(joined);
  }
}

}  // namespace exec
}  // namespace pier
