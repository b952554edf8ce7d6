// Vectorized expression kernels and batch accumulators.
//
// EvalSelection and EvalColumn walk a bound Expr tree (exec/expr.h) over
// whole RowBatch columns at a time: comparisons and logic produce selection
// bitmaps, arithmetic produces new column vectors, and per-row evaluation
// errors become error bits instead of Status returns. Scalar Expr::Eval
// stays the semantic reference — the kernels must agree with it row for
// row, including SQL NULL semantics (NULL comparisons are false, NULL
// arithmetic is NULL, division by zero and INT64 overflow are NULL) and
// error propagation (a row whose evaluation would error under the scalar
// plane is marked in the error bitmap; filters drop such rows, projections
// null them, exactly as the scalar operators do). Typed lane loops run the
// INT64, DOUBLE and STRING cases unboxed; constant folding and the boxed
// fallback lanes call the scalar plane's own CompareValues, ArithValues and
// NegateValue.
//
// VectorGroupBy is the engine's one group-by: it folds raw rows through
// the AggInit/AggUpdateValue definitions, merges partial states with
// AggMerge and finalizes with AggFinalize (exec/agg.h). The scalar
// exec::GroupBy (exec/operators.h) is its one-pass raw-to-final reference.

#ifndef PIER_EXEC_KERNELS_H_
#define PIER_EXEC_KERNELS_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "catalog/tuple.h"
#include "common/value.h"
#include "exec/agg.h"
#include "exec/batch.h"
#include "exec/expr.h"

namespace pier {
namespace exec {

/// Fixed-size bitset sized to a batch. An empty word vector means all-zero
/// (the common case for error bitmaps), so untouched bitmaps cost nothing.
class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(size_t n) : size_(n) {}

  size_t size() const { return size_; }
  void Reset(size_t n) {
    size_ = n;
    words_.clear();
  }

  bool Get(size_t i) const {
    return !words_.empty() && (words_[i >> 6] & (1ull << (i & 63))) != 0;
  }
  void Set(size_t i) {
    EnsureWords();
    words_[i >> 6] |= 1ull << (i & 63);
  }
  void Clear(size_t i) {
    if (!words_.empty()) words_[i >> 6] &= ~(1ull << (i & 63));
  }
  void SetAll();

  /// True when no bit is set.
  bool none() const;
  size_t Count() const;

  void OrWith(const Bitmap& o);
  void AndWith(const Bitmap& o);
  /// this &= ~o.
  void AndNotWith(const Bitmap& o);
  /// Flips every bit (tail bits stay clear).
  void FlipAll();

  /// Direct word access for kernels that fill 64 rows at a time (word i
  /// covers rows [64i, 64i+64); callers must keep tail bits clear).
  uint64_t* MutableWords() {
    EnsureWords();
    return words_.data();
  }

 private:
  void EnsureWords() {
    if (words_.empty()) words_.assign((size_ + 63) / 64, 0);
  }

  size_t size_ = 0;
  std::vector<uint64_t> words_;
};

/// Predicate evaluation of `e` over all physical rows of `b`: bit i set iff
/// the scalar plane would keep row i (EvalPredicate true and no error) —
/// rows whose evaluation errors are excluded, matching the runtime filter's
/// skip-on-error behavior.
void EvalSelection(const Expr& e, const RowBatch& b, Bitmap* out);

/// Full value evaluation of `e` over all physical rows of `b`: `out` holds
/// the per-row results and `err` flags rows whose scalar evaluation would
/// return a non-OK Status (their column cells are unspecified; projections
/// map them to NULL).
void EvalColumn(const Expr& e, const RowBatch& b, Column* out, Bitmap* err);

/// Narrows `b`'s live set to the rows whose bit is set in `keep` (indexed
/// by physical row id). With a selection already installed the result is
/// the intersection — this is how filter stages compose without
/// materializing survivors.
void NarrowSelection(RowBatch* b, const Bitmap& keep);

/// The engine's GROUP BY accumulator, batch at a time. PushBatch folds raw
/// rows (group_cols and each agg's col index the raw schema); MergeBatch
/// merges partial tuples [group values..., v1, v2 per agg], the layout
/// Drain(false) yields, so a tree node or the origin combines what other
/// accumulators drained. Groups drain in sorted key order.
class VectorGroupBy {
 public:
  VectorGroupBy(std::vector<int> group_cols, std::vector<AggSpec> aggs);

  /// Folds every live row of `b` into its group's partial states.
  void PushBatch(const RowBatch& b);
  /// Merges every live row of `b`, a partial tuple, into its group's
  /// states with AggMerge. A column past the batch's end reads as NULL.
  void MergeBatch(const RowBatch& b);

  /// The groups in sorted key order; state is cleared. Each row is the
  /// group's values, then per agg its partial states (v1, v2) or, when
  /// `finalize`, its one AggFinalize value.
  std::vector<catalog::Tuple> Drain(bool finalize);

 private:
  struct Group {
    catalog::Tuple key;
    std::vector<Value> state;
  };

  /// The group of physical row `row`, keyed on columns `key_cols` of `b`
  /// (a key column outside the batch reads as NULL), created if absent.
  size_t FindOrCreateGroup(const RowBatch& b, size_t row,
                           const std::vector<int>& key_cols);
  /// Fills row_group_ with the group of every live row of `b`.
  void ResolveGroups(const RowBatch& b, const std::vector<int>& key_cols);
  void GrowSlots();
  /// Folds column `spec.col` of every live row into agg slot `a`, using a
  /// typed lane loop where the fold can stay unboxed (COUNT, and
  /// SUM/AVG/MIN/MAX over INT64/DOUBLE lanes) and the boxed reference fold
  /// everywhere else.
  void FoldAgg(const RowBatch& b, size_t a);

  std::vector<int> group_cols_;
  /// A partial tuple's group columns: its first group_cols_.size().
  std::vector<int> partial_key_cols_;
  std::vector<AggSpec> aggs_;
  std::vector<Group> groups_;
  /// Open-addressing group index: slot = group idx + 1, 0 = empty. Linear
  /// probing over a power-of-two table; group_hash_ is parallel to groups_
  /// so probes compare hashes before touching keys.
  std::vector<uint32_t> slots_;
  std::vector<uint64_t> group_hash_;
  /// Per-batch scratch: group index of each live row.
  std::vector<uint32_t> row_group_;
};

}  // namespace exec
}  // namespace pier

#endif  // PIER_EXEC_KERNELS_H_
