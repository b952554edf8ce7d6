// The local relational operator library: filter, project, group-by (all
// aggregation phases), distinct, top-k, limit, union, symmetric hash join,
// and sinks. Network-facing operators (scans, rehash, fetch-matches) live in
// the query layer, which composes them with these boxes.

#ifndef PIER_EXEC_OPERATORS_H_
#define PIER_EXEC_OPERATORS_H_

#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "exec/agg.h"
#include "exec/expr.h"
#include "exec/operator.h"

namespace pier {
namespace exec {

/// Drops tuples failing the predicate. Evaluation errors drop the tuple
/// (bad data must not kill a long-running distributed query; mirrors
/// PIER's soft-failure philosophy).
class FilterOp : public Operator {
 public:
  explicit FilterOp(ExprPtr predicate) : predicate_(std::move(predicate)) {}
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "filter"; }
  uint64_t dropped() const { return dropped_; }

 private:
  ExprPtr predicate_;
  uint64_t dropped_ = 0;
};

/// Emits [e1(t), e2(t), ...] for each input tuple.
class ProjectOp : public Operator {
 public:
  explicit ProjectOp(std::vector<ExprPtr> exprs) : exprs_(std::move(exprs)) {}
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "project"; }

 private:
  std::vector<ExprPtr> exprs_;
};

/// Which transformation a GroupByOp performs (see agg.h for the partial
/// representation).
enum class AggPhase : uint8_t {
  kComplete = 0,  ///< raw rows -> final aggregates (single-site execution)
  kPartial = 1,   ///< raw rows -> partial states (leaf of the agg tree)
  kCombine = 2,   ///< partials -> partials (interior tree node)
  kFinal = 3,     ///< partials -> final aggregates (tree root)
};

/// Hash group-by. Blocking: emits on EOS; continuous queries call
/// FlushAndReset() per window instead.
///
/// Input layout: raw rows for kComplete/kPartial (group_cols/agg cols index
/// into the raw schema); partial tuples for kCombine/kFinal, laid out as
/// [group values..., partial states...] — group_cols are then implicitly
/// 0..G-1.
class GroupByOp : public Operator {
 public:
  GroupByOp(std::vector<int> group_cols, std::vector<AggSpec> aggs,
            AggPhase phase);
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "groupby"; }

  /// Emits current groups downstream and clears state (window boundary).
  void FlushAndReset();
  size_t group_count() const { return groups_.size(); }

 protected:
  void OnAllInputsEos() override { FlushOnly(); }

 private:
  void FlushOnly();
  catalog::Tuple GroupKey(const catalog::Tuple& t) const;

  std::vector<int> group_cols_;
  std::vector<AggSpec> aggs_;
  AggPhase phase_;
  // Group key -> accumulated partial states (2 values per agg).
  std::map<catalog::Tuple, std::vector<Value>> groups_;
};

/// Suppresses tuples already seen (exact duplicate elimination by value).
class DistinctOp : public Operator {
 public:
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "distinct"; }
  size_t unique_count() const { return seen_.size(); }

 private:
  // Hash -> tuples with that hash (collision-safe exact check).
  std::unordered_map<uint64_t, std::vector<catalog::Tuple>> seen_;
};

/// ORDER BY <col> [DESC] LIMIT k. Blocking: keeps the best k, emits sorted
/// on EOS or FlushAndReset(). Rows buffer up to 2k before trimming back to
/// the best k: amortized O(1) per push, one sort at the end.
class TopKOp : public Operator {
 public:
  TopKOp(int order_col, bool descending, size_t k)
      : order_col_(order_col), descending_(descending), k_(k) {}
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "topk"; }
  void FlushAndReset();

 protected:
  void OnAllInputsEos() override { FlushOnly(); }

 private:
  void FlushOnly();
  /// Cuts the buffer back to its best k rows (unordered).
  void Trim();
  bool Before(const catalog::Tuple& a, const catalog::Tuple& b) const;

  int order_col_;
  bool descending_;
  size_t k_;
  std::vector<catalog::Tuple> rows_;  // fewer than 2k between pushes
};

/// Passes through the first `k` tuples, then drops.
class LimitOp : public Operator {
 public:
  explicit LimitOp(size_t k) : k_(k) {}
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "limit"; }

 private:
  size_t k_;
  size_t passed_ = 0;
};

/// Merges any number of input streams (set SetNumInputs accordingly).
class UnionOp : public Operator {
 public:
  void Push(const catalog::Tuple& t, int /*port*/) override { Emit(t); }
  std::string name() const override { return "union"; }
};

/// Pipelined symmetric hash join: builds hash tables on both inputs and
/// probes the opposite side on every arrival, so results stream out as soon
/// as both matching tuples exist — no blocking, which is what makes it
/// suitable for continuously arriving rehashed tuples. Port 0 = left,
/// port 1 = right. Output is the concatenation left ++ right, optionally
/// filtered by a residual predicate over the concatenated layout.
class SymmetricHashJoinOp : public Operator {
 public:
  SymmetricHashJoinOp(std::vector<int> left_key_cols,
                      std::vector<int> right_key_cols, ExprPtr residual);
  void Push(const catalog::Tuple& t, int port) override;
  std::string name() const override { return "shj"; }
  size_t left_size() const { return left_rows_; }
  size_t right_size() const { return right_rows_; }

 private:
  void Probe(const catalog::Tuple& t, int side);
  bool KeysEqual(const catalog::Tuple& l, const catalog::Tuple& r) const;
  void EmitJoined(const catalog::Tuple& l, const catalog::Tuple& r);

  std::vector<int> left_keys_, right_keys_;
  ExprPtr residual_;
  std::unordered_map<uint64_t, std::vector<catalog::Tuple>> left_table_;
  std::unordered_map<uint64_t, std::vector<catalog::Tuple>> right_table_;
  size_t left_rows_ = 0, right_rows_ = 0;
};

/// Collects results (query-origin sink). Also reports EOS.
class CollectorSink : public Operator {
 public:
  void Push(const catalog::Tuple& t, int /*port*/) override {
    rows_.push_back(t);
  }
  void PushEos(int /*port*/) override {
    if (++eos_seen_ >= num_inputs_) eos_ = true;
  }
  std::string name() const override { return "collect"; }

  const std::vector<catalog::Tuple>& rows() const { return rows_; }
  bool eos() const { return eos_; }
  void Clear() {
    rows_.clear();
    eos_ = false;
    eos_seen_ = 0;
  }

 private:
  std::vector<catalog::Tuple> rows_;
  bool eos_ = false;
};

/// Invokes a callback per tuple (bridges dataflow output into engine code).
class FnSink : public Operator {
 public:
  using Fn = std::function<void(const catalog::Tuple&)>;
  using EosFn = std::function<void()>;
  explicit FnSink(Fn fn, EosFn on_eos = nullptr)
      : fn_(std::move(fn)), on_eos_(std::move(on_eos)) {}
  void Push(const catalog::Tuple& t, int /*port*/) override { fn_(t); }
  void PushEos(int /*port*/) override {
    if (++eos_seen_ >= num_inputs_ && on_eos_) on_eos_();
  }
  std::string name() const override { return "fn-sink"; }

 private:
  Fn fn_;
  EosFn on_eos_;
};

}  // namespace exec
}  // namespace pier

#endif  // PIER_EXEC_OPERATORS_H_
