#include "exec/kernels.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "common/hash.h"

namespace pier {
namespace exec {

// ---------------------------------------------------------------------------
// Bitmap

void Bitmap::SetAll() {
  words_.assign((size_ + 63) / 64, ~0ull);
  size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() = (1ull << tail) - 1;
  }
  if (size_ == 0) words_.clear();
}

bool Bitmap::none() const {
  for (uint64_t w : words_) {
    if (w != 0) return false;
  }
  return true;
}

size_t Bitmap::Count() const {
  size_t n = 0;
  for (uint64_t w : words_) n += static_cast<size_t>(std::popcount(w));
  return n;
}

void Bitmap::OrWith(const Bitmap& o) {
  if (o.words_.empty()) return;
  EnsureWords();
  for (size_t i = 0; i < words_.size() && i < o.words_.size(); ++i) {
    words_[i] |= o.words_[i];
  }
}

void Bitmap::AndWith(const Bitmap& o) {
  if (words_.empty()) return;
  if (o.words_.empty()) {
    std::fill(words_.begin(), words_.end(), 0);
    return;
  }
  for (size_t i = 0; i < words_.size(); ++i) {
    words_[i] &= i < o.words_.size() ? o.words_[i] : 0;
  }
}

void Bitmap::AndNotWith(const Bitmap& o) {
  if (words_.empty() || o.words_.empty()) return;
  for (size_t i = 0; i < words_.size() && i < o.words_.size(); ++i) {
    words_[i] &= ~o.words_[i];
  }
}

void Bitmap::FlipAll() {
  EnsureWords();
  for (uint64_t& w : words_) w = ~w;
  size_t tail = size_ & 63;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (1ull << tail) - 1;
  }
}

namespace {

/// One evaluated intermediate: a broadcast constant, a column (borrowed
/// from the batch or owned by the kernel), or a predicate bitmap (the
/// representation every boolean-producing node uses — compare, logic, NOT,
/// IS NULL all yield non-null BOOLs, so a truth bitmap is lossless).
struct Vec {
  enum class Rep : uint8_t { kConst, kCol, kPred };
  Rep rep = Rep::kConst;
  Value cval;                       // kConst
  const Column* borrowed = nullptr; // kCol: borrowed from the batch
  Column owned;                     // kCol: kernel-produced
  Bitmap truth;                     // kPred
  Bitmap err;                       // rows whose scalar eval would error

  const Column& col() const { return borrowed ? *borrowed : owned; }
  /// Boxes row `i` (kPred boxes the truth bit; error rows are garbage-in,
  /// garbage-out — they are dropped or nulled at the top level anyway).
  Value BoxRow(size_t i) const {
    switch (rep) {
      case Rep::kConst:
        return cval;
      case Rep::kCol:
        return col().ValueAt(i);
      case Rep::kPred:
        return Value::Bool(truth.Get(i));
    }
    return Value::Null();
  }
  bool RowIsNull(size_t i) const {
    switch (rep) {
      case Rep::kConst:
        return cval.is_null();
      case Rep::kCol:
        return col().IsNull(i);
      case Rep::kPred:
        return false;
    }
    return true;
  }
};

int SignOf(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }

/// Predicate view of a Vec: truth bit = value is BOOL true (NULL and
/// non-bool are false, per EvalPredicate). Errors pass through untouched.
void PredOf(const Vec& v, size_t n, Bitmap* truth) {
  truth->Reset(n);
  switch (v.rep) {
    case Vec::Rep::kPred:
      *truth = v.truth;
      return;
    case Vec::Rep::kConst:
      if (v.cval.type() == ValueType::kBool && v.cval.bool_value()) {
        truth->SetAll();
      }
      return;
    case Vec::Rep::kCol: {
      const Column& c = v.col();
      if (c.kind() == Column::Kind::kBool) {
        for (size_t i = 0; i < n; ++i) {
          if (!c.IsNull(i) && c.bools()[i]) truth->Set(i);
        }
      } else if (c.kind() == Column::Kind::kMixed) {
        for (size_t i = 0; i < n; ++i) {
          Value bv = c.ValueAt(i);
          if (bv.type() == ValueType::kBool && bv.bool_value()) truth->Set(i);
        }
      }
      // Other kinds are never BOOL: all false.
      return;
    }
  }
}

/// Numeric view of a Vec cell as double (only call when the lane is
/// numeric-typed).
struct NumSide {
  enum class Lane { kI64, kF64, kConstI64, kConstF64, kNone };
  Lane lane = Lane::kNone;
  const Column* c = nullptr;
  int64_t ci = 0;
  double cf = 0;

  static NumSide Of(const Vec& v) {
    NumSide s;
    if (v.rep == Vec::Rep::kConst) {
      if (v.cval.type() == ValueType::kInt64) {
        s.lane = Lane::kConstI64;
        s.ci = v.cval.int64_value();
      } else if (v.cval.type() == ValueType::kDouble) {
        s.lane = Lane::kConstF64;
        s.cf = v.cval.double_value();
      }
    } else if (v.rep == Vec::Rep::kCol) {
      if (v.col().kind() == Column::Kind::kInt64) {
        s.lane = Lane::kI64;
        s.c = &v.col();
      } else if (v.col().kind() == Column::Kind::kDouble) {
        s.lane = Lane::kF64;
        s.c = &v.col();
      }
    }
    return s;
  }
  bool numeric() const { return lane != Lane::kNone; }
  bool is_int() const { return lane == Lane::kI64 || lane == Lane::kConstI64; }
  bool IsNull(size_t i) const {
    return (lane == Lane::kI64 || lane == Lane::kF64) && c->IsNull(i);
  }
  int64_t I64(size_t i) const {
    return lane == Lane::kI64 ? c->int64s()[i] : ci;
  }
  double F64(size_t i) const {
    switch (lane) {
      case Lane::kI64:
        return static_cast<double>(c->int64s()[i]);
      case Lane::kF64:
        return c->doubles()[i];
      case Lane::kConstI64:
        return static_cast<double>(ci);
      case Lane::kConstF64:
        return cf;
      case Lane::kNone:
        break;
    }
    return 0;
  }
};

/// String view of a Vec side (string column or string constant).
struct StrSide {
  const Column* c = nullptr;
  const std::string* cs = nullptr;

  static StrSide Of(const Vec& v) {
    StrSide s;
    if (v.rep == Vec::Rep::kConst && v.cval.type() == ValueType::kString) {
      s.cs = &v.cval.string_value();
    } else if (v.rep == Vec::Rep::kCol &&
               v.col().kind() == Column::Kind::kString) {
      s.c = &v.col();
    }
    return s;
  }
  bool valid() const { return c != nullptr || cs != nullptr; }
  bool IsNull(size_t i) const { return c != nullptr && c->IsNull(i); }
  const std::string& Str(size_t i) const { return c ? c->strings()[i] : *cs; }
};

// ---------------------------------------------------------------------------
// Evaluation

void EvalNode(const Expr& e, const RowBatch& b, Vec* out);

/// Compare kernel: produces a kPred Vec.
void EvalCompare(const Expr& e, const RowBatch& b, Vec* out) {
  size_t n = b.num_rows();
  Vec lv, rv;
  EvalNode(*e.left, b, &lv);
  EvalNode(*e.right, b, &rv);
  out->rep = Vec::Rep::kPred;
  out->truth.Reset(n);
  out->err = std::move(lv.err);
  out->err.OrWith(rv.err);
  CompareOp op = e.cmp;

  if (lv.rep == Vec::Rep::kConst && rv.rep == Vec::Rep::kConst) {
    if (CompareValues(op, lv.cval, rv.cval)) out->truth.SetAll();
    return;
  }
  NumSide ln = NumSide::Of(lv), rn = NumSide::Of(rv);
  if (ln.numeric() && rn.numeric()) {
    if (ln.is_int() && rn.is_int()) {
      // Word-at-a-time INT64 kernel: 64 comparisons per stored word, op
      // dispatched once, validity ANDed in per word. const-vs-col
      // normalizes to col-vs-const with the operator mirrored.
      if (ln.lane == NumSide::Lane::kConstI64) {
        std::swap(ln, rn);
        op = op == CompareOp::kLt   ? CompareOp::kGt
             : op == CompareOp::kGt ? CompareOp::kLt
             : op == CompareOp::kLe ? CompareOp::kGe
             : op == CompareOp::kGe ? CompareOp::kLe
                                    : op;
      }
      const int64_t* a = ln.c->int64s().data();
      const uint64_t* av = ln.c->validity().data();
      const int64_t* bcol =
          rn.lane == NumSide::Lane::kI64 ? rn.c->int64s().data() : nullptr;
      const uint64_t* bv = bcol != nullptr ? rn.c->validity().data() : nullptr;
      const int64_t bc = rn.ci;
      uint64_t* w = out->truth.MutableWords();
      auto fill = [&](auto cmp) {
        for (size_t base = 0; base < n; base += 64) {
          const size_t lim = std::min<size_t>(64, n - base);
          uint64_t word = 0;
          if (bcol != nullptr) {
            for (size_t k = 0; k < lim; ++k) {
              word |= static_cast<uint64_t>(cmp(a[base + k], bcol[base + k]))
                      << k;
            }
          } else {
            for (size_t k = 0; k < lim; ++k) {
              word |= static_cast<uint64_t>(cmp(a[base + k], bc)) << k;
            }
          }
          word &= av[base >> 6];
          if (bv != nullptr) word &= bv[base >> 6];
          w[base >> 6] = word;
        }
      };
      switch (op) {
        case CompareOp::kEq:
          fill([](int64_t x, int64_t y) { return x == y; });
          break;
        case CompareOp::kNe:
          fill([](int64_t x, int64_t y) { return x != y; });
          break;
        case CompareOp::kLt:
          fill([](int64_t x, int64_t y) { return x < y; });
          break;
        case CompareOp::kLe:
          fill([](int64_t x, int64_t y) { return x <= y; });
          break;
        case CompareOp::kGt:
          fill([](int64_t x, int64_t y) { return x > y; });
          break;
        case CompareOp::kGe:
          fill([](int64_t x, int64_t y) { return x >= y; });
          break;
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (ln.IsNull(i) || rn.IsNull(i)) continue;
        if (CompareHolds(op, SignOf(ln.F64(i) - rn.F64(i)))) out->truth.Set(i);
      }
    }
    return;
  }
  StrSide ls = StrSide::Of(lv), rs = StrSide::Of(rv);
  if (ls.valid() && rs.valid()) {
    for (size_t i = 0; i < n; ++i) {
      if (ls.IsNull(i) || rs.IsNull(i)) continue;
      int cc = ls.Str(i).compare(rs.Str(i));
      if (CompareHolds(op, cc < 0 ? -1 : (cc > 0 ? 1 : 0))) out->truth.Set(i);
    }
    return;
  }
  // Generic boxed fallback (mixed columns, cross-type, BOOL columns).
  for (size_t i = 0; i < n; ++i) {
    if (CompareValues(op, lv.BoxRow(i), rv.BoxRow(i))) out->truth.Set(i);
  }
}

/// Arithmetic kernel: produces a kCol (or kConst) Vec.
void EvalArith(const Expr& e, const RowBatch& b, Vec* out) {
  size_t n = b.num_rows();
  Vec lv, rv;
  EvalNode(*e.left, b, &lv);
  EvalNode(*e.right, b, &rv);
  out->err = std::move(lv.err);
  out->err.OrWith(rv.err);
  ArithOp op = e.arith;

  if (lv.rep == Vec::Rep::kConst && rv.rep == Vec::Rep::kConst) {
    out->rep = Vec::Rep::kConst;
    if (!ArithValues(op, lv.cval, rv.cval, &out->cval).ok()) {
      out->err.Reset(n);
      out->err.SetAll();
      out->cval = Value::Null();
    }
    return;
  }
  out->rep = Vec::Rep::kCol;
  NumSide ln = NumSide::Of(lv), rn = NumSide::Of(rv);
  if (ln.numeric() && rn.numeric()) {
    if (ln.is_int() && rn.is_int()) {
      out->owned = Column(Column::Kind::kInt64);
      for (size_t i = 0; i < n; ++i) {
        if (ln.IsNull(i) || rn.IsNull(i)) {
          out->owned.AppendNull();
          continue;
        }
        int64_t r = 0;
        if (Int64Arith(op, ln.I64(i), rn.I64(i), &r)) {
          out->owned.AppendInt64(r);
        } else {
          out->owned.AppendNull();
        }
      }
    } else {
      out->owned = Column(Column::Kind::kDouble);
      for (size_t i = 0; i < n; ++i) {
        if (ln.IsNull(i) || rn.IsNull(i)) {
          out->owned.AppendNull();
          continue;
        }
        double r = 0;
        if (DoubleArith(op, ln.F64(i), rn.F64(i), &r)) {
          out->owned.AppendDouble(r);
        } else {
          out->owned.AppendNull();
        }
      }
    }
    return;
  }
  StrSide ls = StrSide::Of(lv), rs = StrSide::Of(rv);
  if (op == ArithOp::kAdd && ls.valid() && rs.valid()) {
    out->owned = Column(Column::Kind::kString);
    for (size_t i = 0; i < n; ++i) {
      if (ls.IsNull(i) || rs.IsNull(i)) {
        out->owned.AppendNull();
      } else {
        out->owned.AppendString(ls.Str(i) + rs.Str(i));
      }
    }
    return;
  }
  // Generic boxed fallback.
  out->owned = Column(Column::Kind::kMixed);
  for (size_t i = 0; i < n; ++i) {
    Value v;
    if (!ArithValues(op, lv.BoxRow(i), rv.BoxRow(i), &v).ok()) {
      out->err.Set(i);
      v = Value::Null();
    }
    out->owned.AppendValue(v);
  }
}

void EvalNode(const Expr& e, const RowBatch& b, Vec* out) {
  size_t n = b.num_rows();
  out->err.Reset(n);
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      out->rep = Vec::Rep::kConst;
      out->cval = e.literal;
      return;
    case Expr::Kind::kColumn:
      if (e.column < 0 || static_cast<size_t>(e.column) >= b.num_columns()) {
        // Scalar plane: out-of-range column errors on every row.
        out->rep = Vec::Rep::kConst;
        out->cval = Value::Null();
        out->err.SetAll();
        return;
      }
      out->rep = Vec::Rep::kCol;
      out->borrowed = &b.column(e.column);
      return;
    case Expr::Kind::kCompare:
      EvalCompare(e, b, out);
      return;
    case Expr::Kind::kArith:
      EvalArith(e, b, out);
      return;
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr: {
      Vec lv, rv;
      EvalNode(*e.left, b, &lv);
      EvalNode(*e.right, b, &rv);
      Bitmap tl, tr;
      PredOf(lv, n, &tl);
      PredOf(rv, n, &tr);
      out->rep = Vec::Rep::kPred;
      // Short-circuit error algebra: the right side's error only counts on
      // rows where the scalar plane would have evaluated it.
      if (e.kind == Expr::Kind::kAnd) {
        Bitmap right_reached = tl;      // left true -> right evaluated
        right_reached.AndWith(rv.err);  // (empty rv.err short-circuits)
        out->err = std::move(lv.err);
        out->err.OrWith(right_reached);
        out->truth = std::move(tl);
        out->truth.AndWith(tr);
      } else {
        Bitmap right_reached = tl;  // left false -> right evaluated
        right_reached.FlipAll();
        right_reached.AndWith(rv.err);
        out->err = std::move(lv.err);
        out->err.OrWith(right_reached);
        out->truth = std::move(tl);
        out->truth.OrWith(tr);
      }
      return;
    }
    case Expr::Kind::kNot: {
      Vec cv;
      EvalNode(*e.left, b, &cv);
      out->rep = Vec::Rep::kPred;
      PredOf(cv, n, &out->truth);
      out->truth.FlipAll();
      out->err = std::move(cv.err);
      return;
    }
    case Expr::Kind::kNeg: {
      Vec cv;
      EvalNode(*e.left, b, &cv);
      out->err = std::move(cv.err);
      if (cv.rep == Vec::Rep::kConst) {
        out->rep = Vec::Rep::kConst;
        if (!NegateValue(cv.cval, &out->cval).ok()) {
          out->cval = Value::Null();
          out->err.SetAll();
        }
        return;
      }
      out->rep = Vec::Rep::kCol;
      const Column& c = cv.col();
      if (c.kind() == Column::Kind::kInt64) {
        out->owned = Column(Column::Kind::kInt64);
        for (size_t i = 0; i < n; ++i) {
          int64_t r = 0;
          if (!c.IsNull(i) &&
              Int64Arith(ArithOp::kSub, 0, c.int64s()[i], &r)) {
            out->owned.AppendInt64(r);
          } else {
            out->owned.AppendNull();
          }
        }
        return;
      }
      if (c.kind() == Column::Kind::kDouble) {
        out->owned = Column(Column::Kind::kDouble);
        for (size_t i = 0; i < n; ++i) {
          if (c.IsNull(i)) {
            out->owned.AppendNull();
          } else {
            out->owned.AppendDouble(-c.doubles()[i]);
          }
        }
        return;
      }
      // BOOL/STRING lanes (and pred reps) error per non-null row; mixed
      // boxes per row.
      out->owned = Column(Column::Kind::kMixed);
      for (size_t i = 0; i < n; ++i) {
        Value v;
        if (!NegateValue(cv.BoxRow(i), &v).ok()) {
          out->err.Set(i);
          v = Value::Null();
        }
        out->owned.AppendValue(v);
      }
      return;
    }
    case Expr::Kind::kIsNull:
    case Expr::Kind::kIsNotNull: {
      Vec cv;
      EvalNode(*e.left, b, &cv);
      bool negated = e.kind == Expr::Kind::kIsNotNull;
      out->rep = Vec::Rep::kPred;
      out->err = std::move(cv.err);
      out->truth.Reset(n);
      switch (cv.rep) {
        case Vec::Rep::kPred:
          // Boolean results are never NULL.
          if (negated) out->truth.SetAll();
          break;
        case Vec::Rep::kConst:
          if (cv.cval.is_null() != negated) out->truth.SetAll();
          break;
        case Vec::Rep::kCol: {
          const Column& c = cv.col();
          for (size_t i = 0; i < n; ++i) {
            if (c.IsNull(i) != negated) out->truth.Set(i);
          }
          break;
        }
      }
      return;
    }
  }
}

}  // namespace

void EvalSelection(const Expr& e, const RowBatch& b, Bitmap* out) {
  Vec v;
  EvalNode(e, b, &v);
  PredOf(v, b.num_rows(), out);
  out->AndNotWith(v.err);
}

void EvalColumn(const Expr& e, const RowBatch& b, Column* out, Bitmap* err) {
  size_t n = b.num_rows();
  Vec v;
  EvalNode(e, b, &v);
  *err = std::move(v.err);
  switch (v.rep) {
    case Vec::Rep::kConst: {
      *out = Column::ForType(v.cval.type());
      for (size_t i = 0; i < n; ++i) out->AppendValue(v.cval);
      return;
    }
    case Vec::Rep::kCol:
      *out = v.col();
      return;
    case Vec::Rep::kPred: {
      *out = Column(Column::Kind::kBool);
      for (size_t i = 0; i < n; ++i) out->AppendBool(v.truth.Get(i));
      return;
    }
  }
}

void NarrowSelection(RowBatch* b, const Bitmap& keep) {
  std::vector<uint32_t> sel;
  size_t live = b->ActiveRows();
  sel.reserve(live);
  for (size_t i = 0; i < live; ++i) {
    uint32_t row = b->RowId(i);
    if (keep.Get(row)) sel.push_back(row);
  }
  b->SetSelection(std::move(sel));
}

// ---------------------------------------------------------------------------
// VectorGroupBy

VectorGroupBy::VectorGroupBy(std::vector<int> group_cols,
                             std::vector<AggSpec> aggs)
    : group_cols_(std::move(group_cols)),
      partial_key_cols_(group_cols_.size()),
      aggs_(std::move(aggs)) {
  std::iota(partial_key_cols_.begin(), partial_key_cols_.end(), 0);
}

void VectorGroupBy::GrowSlots() {
  size_t n = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(n, 0);
  const size_t mask = n - 1;
  for (uint32_t gi = 0; gi < groups_.size(); ++gi) {
    size_t pos = group_hash_[gi] & mask;
    while (slots_[pos] != 0) pos = (pos + 1) & mask;
    slots_[pos] = gi + 1;
  }
}

size_t VectorGroupBy::FindOrCreateGroup(const RowBatch& b, size_t row,
                                        const std::vector<int>& key_cols) {
  uint64_t h = catalog::kHashTupleColsSeed;
  for (int c : key_cols) {
    h = HashCombine(h, c >= 0 && static_cast<size_t>(c) < b.num_columns()
                           ? b.column(c).CellHash(row)
                           : kNullHash);
  }
  if ((groups_.size() + 1) * 4 > slots_.size() * 3) GrowSlots();
  const size_t mask = slots_.size() - 1;
  size_t pos = h & mask;
  while (slots_[pos] != 0) {
    const uint32_t gi = slots_[pos] - 1;
    if (group_hash_[gi] == h) {
      const catalog::Tuple& key = groups_[gi].key;
      bool match = true;
      for (size_t k = 0; k < key_cols.size(); ++k) {
        int c = key_cols[k];
        if (c >= 0 && static_cast<size_t>(c) < b.num_columns()) {
          if (!b.column(c).CellEquals(row, key[k])) {
            match = false;
            break;
          }
        } else if (!key[k].is_null()) {
          match = false;
          break;
        }
      }
      if (match) return gi;
    }
    pos = (pos + 1) & mask;
  }
  Group g;
  g.key.reserve(key_cols.size());
  for (int c : key_cols) {
    g.key.push_back(c >= 0 && static_cast<size_t>(c) < b.num_columns()
                        ? b.column(c).ValueAt(row)
                        : Value::Null());
  }
  g.state.resize(aggs_.size() * kPartialWidth);
  for (size_t a = 0; a < aggs_.size(); ++a) {
    AggInit(aggs_[a], &g.state[a * kPartialWidth],
            &g.state[a * kPartialWidth + 1]);
  }
  uint32_t gi = static_cast<uint32_t>(groups_.size());
  groups_.push_back(std::move(g));
  group_hash_.push_back(h);
  slots_[pos] = gi + 1;
  return gi;
}

void VectorGroupBy::ResolveGroups(const RowBatch& b,
                                  const std::vector<int>& key_cols) {
  const size_t live = b.ActiveRows();
  row_group_.resize(live);
  for (size_t i = 0; i < live; ++i) {
    row_group_[i] =
        static_cast<uint32_t>(FindOrCreateGroup(b, b.RowId(i), key_cols));
  }
}

void VectorGroupBy::PushBatch(const RowBatch& b) {
  if (b.ActiveRows() == 0) return;
  // Resolve every live row to its group first, so the folds run
  // column-at-a-time over each aggregate's input lane.
  ResolveGroups(b, group_cols_);
  for (size_t a = 0; a < aggs_.size(); ++a) FoldAgg(b, a);
}

void VectorGroupBy::MergeBatch(const RowBatch& b) {
  const size_t live = b.ActiveRows();
  if (live == 0) return;
  ResolveGroups(b, partial_key_cols_);
  // A partial arrives from another node: a state column past the batch's
  // end reads as NULL, and AggMerge takes any value type.
  auto cell = [&b](size_t col, size_t row) {
    return col < b.num_columns() ? b.column(col).ValueAt(row) : Value::Null();
  };
  for (size_t a = 0; a < aggs_.size(); ++a) {
    const size_t s1 = a * kPartialWidth;
    const size_t in1 = partial_key_cols_.size() + s1;
    for (size_t i = 0; i < live; ++i) {
      const size_t row = b.RowId(i);
      Value* st = groups_[row_group_[i]].state.data() + s1;
      AggMerge(aggs_[a], cell(in1, row), cell(in1 + 1, row), st, st + 1);
    }
  }
}

void VectorGroupBy::FoldAgg(const RowBatch& b, size_t a) {
  const AggSpec& spec = aggs_[a];
  const size_t live = b.ActiveRows();
  const size_t s1 = a * kPartialWidth;
  const size_t s2 = s1 + 1;
  // COUNT(*) never looks at a column.
  if (spec.fn == AggFunc::kCount && spec.col < 0) {
    for (size_t i = 0; i < live; ++i) {
      Value& v1 = groups_[row_group_[i]].state[s1];
      v1 = Value::Int64(v1.int64_value() + 1);
    }
    return;
  }
  if (spec.col < 0 || static_cast<size_t>(spec.col) >= b.num_columns()) {
    // Input is NULL on every row: COUNT(col) skips nulls and the other
    // folds ignore null inputs, so there is nothing to do.
    return;
  }
  const Column& col = b.column(spec.col);
  // COUNT(col) needs only the validity bitmap, whatever the lane kind.
  if (spec.fn == AggFunc::kCount) {
    for (size_t i = 0; i < live; ++i) {
      if (col.IsNull(b.RowId(i))) continue;
      Value& v1 = groups_[row_group_[i]].state[s1];
      v1 = Value::Int64(v1.int64_value() + 1);
    }
    return;
  }
  // Unboxed folds on the numeric lanes. Each arm reproduces AggUpdateValue
  // exactly, including the state-type ladder of AddValues: a state that an
  // earlier (boxed) batch left as DOUBLE keeps accumulating as DOUBLE.
  if (col.kind() == Column::Kind::kInt64) {
    const int64_t* lane = col.int64s().data();
    for (size_t i = 0; i < live; ++i) {
      const size_t row = b.RowId(i);
      if (col.IsNull(row)) continue;
      const int64_t v = lane[row];
      std::vector<Value>& st = groups_[row_group_[i]].state;
      Value& v1 = st[s1];
      switch (spec.fn) {
        case AggFunc::kAvg: {
          Value& v2 = st[s2];
          v2 = Value::Int64(v2.int64_value() + 1);
          [[fallthrough]];
        }
        case AggFunc::kSum: {
          int64_t sum = 0;
          if (v1.is_null()) {
            v1 = Value::Int64(v);
          } else if (v1.type() == ValueType::kInt64 &&
                     !__builtin_add_overflow(v1.int64_value(), v, &sum)) {
            v1 = Value::Int64(sum);
          } else {
            double x = 0;
            (void)v1.AsDouble(&x);
            v1 = Value::Double(x + static_cast<double>(v));
          }
          break;
        }
        case AggFunc::kMin:
          if (v1.is_null()) {
            v1 = Value::Int64(v);
          } else if (v1.type() == ValueType::kInt64) {
            if (v < v1.int64_value()) v1 = Value::Int64(v);
          } else {
            Value in = Value::Int64(v);
            if (in.Compare(v1) < 0) v1 = in;
          }
          break;
        case AggFunc::kMax:
          if (v1.is_null()) {
            v1 = Value::Int64(v);
          } else if (v1.type() == ValueType::kInt64) {
            if (v > v1.int64_value()) v1 = Value::Int64(v);
          } else {
            Value in = Value::Int64(v);
            if (in.Compare(v1) > 0) v1 = in;
          }
          break;
        case AggFunc::kCount:
          break;  // handled above
      }
    }
    return;
  }
  if (col.kind() == Column::Kind::kDouble &&
      (spec.fn == AggFunc::kSum || spec.fn == AggFunc::kAvg)) {
    const double* lane = col.doubles().data();
    for (size_t i = 0; i < live; ++i) {
      const size_t row = b.RowId(i);
      if (col.IsNull(row)) continue;
      const double v = lane[row];
      std::vector<Value>& st = groups_[row_group_[i]].state;
      Value& v1 = st[s1];
      if (spec.fn == AggFunc::kAvg) {
        Value& v2 = st[s2];
        v2 = Value::Int64(v2.int64_value() + 1);
      }
      if (v1.is_null()) {
        v1 = Value::Double(v);
      } else {
        // AddValues widens any prior INT64 state through AsDouble.
        double x = 0;
        (void)v1.AsDouble(&x);
        v1 = Value::Double(x + v);
      }
    }
    return;
  }
  // Boxed reference fold: strings, bools, mixed lanes, DOUBLE MIN/MAX
  // (Value::Compare owns the NaN ordering). Null inputs are no-ops for
  // every remaining fold, so skip them without boxing.
  for (size_t i = 0; i < live; ++i) {
    const size_t row = b.RowId(i);
    if (col.IsNull(row)) continue;
    std::vector<Value>& st = groups_[row_group_[i]].state;
    AggUpdateValue(spec, col.ValueAt(row), &st[s1], &st[s2]);
  }
}

std::vector<catalog::Tuple> VectorGroupBy::Drain(bool finalize) {
  std::vector<uint32_t> order(groups_.size());
  for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](uint32_t a, uint32_t b) {
    return catalog::CompareTuples(groups_[a].key, groups_[b].key) < 0;
  });
  std::vector<catalog::Tuple> out;
  out.reserve(order.size());
  for (uint32_t gi : order) {
    Group& g = groups_[gi];
    catalog::Tuple row = std::move(g.key);
    if (finalize) {
      for (size_t a = 0; a < aggs_.size(); ++a) {
        row.push_back(AggFinalize(aggs_[a], g.state[a * kPartialWidth],
                                  g.state[a * kPartialWidth + 1]));
      }
    } else {
      for (Value& v : g.state) row.push_back(std::move(v));
    }
    out.push_back(std::move(row));
  }
  groups_.clear();
  group_hash_.clear();
  slots_.clear();
  return out;
}

}  // namespace exec
}  // namespace pier
