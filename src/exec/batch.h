// Columnar row batches: the unit of the vectorized data plane.
//
// A RowBatch holds a fixed set of typed column vectors (INT64, DOUBLE,
// STRING, BOOL — with a validity bitmap for NULLs, and a boxed-Value
// fallback column for anything the typed lanes cannot carry). Operators
// process whole batches at a time: scans decode store slices straight into
// builders, filters narrow a selection vector without materializing, and
// exchanges ship one wire frame per batch instead of one frame per tuple (a
// one-row batch travels in the tuple encoding, so scalar producers pay
// nothing extra on the wire for entering the batch plane).
//
// Values round-trip losslessly: Column::ValueAt() re-boxes exactly the Value
// that was appended, so the batch kernels and the scalar operators agree
// bit for bit (the differential tests in tests/vectorized_test.cc hold both
// to that contract).

#ifndef PIER_EXEC_BATCH_H_
#define PIER_EXEC_BATCH_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/serialize.h"
#include "common/status.h"
#include "common/value.h"

namespace pier {
namespace exec {

/// One typed column vector with a validity bitmap. The storage kind is
/// chosen from the declared schema type; a value of any other runtime type
/// (heterogeneous edge data) promotes the whole column to the boxed kMixed
/// lane, preserving exact tuple-plane semantics at reduced speed.
class Column {
 public:
  enum class Kind : uint8_t {
    kInt64 = 0,
    kDouble = 1,
    kString = 2,
    kBool = 3,
    kMixed = 4,  ///< boxed Values; the always-correct fallback lane
  };

  Column() : kind_(Kind::kMixed) {}
  explicit Column(Kind k) : kind_(k) {}

  /// Storage kind for a declared schema type. BYTES and untyped columns go
  /// to the boxed lane; the common INT64/DOUBLE/STRING/BOOL lanes are typed.
  static Kind KindForType(ValueType t);
  static Column ForType(ValueType t) { return Column(KindForType(t)); }

  Kind kind() const { return kind_; }
  size_t size() const { return size_; }

  bool IsNull(size_t row) const {
    return (validity_[row >> 6] & (1ull << (row & 63))) == 0;
  }

  void AppendNull();
  /// Appends `v`, promoting to kMixed if its runtime type does not match
  /// the storage kind.
  void AppendValue(const Value& v);
  /// Typed appends (callers must know the column kind matches).
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string s);
  void AppendBool(bool v);
  /// Copies row `row` of `src` (same logical column, any kind) — the
  /// no-boxing path exchanges use when re-bucketing batches.
  void AppendFrom(const Column& src, size_t row);
  /// Removes the last row (builder rollback when a serialized row turns
  /// out malformed mid-decode).
  void PopBack();

  /// Pre-sizes storage for `n` rows (lanes and validity words).
  void Reserve(size_t n);

  /// Re-boxes row `row` as a Value (exactly the value that was appended).
  Value ValueAt(size_t row) const;

  /// Stable hash of row `row`, identical to ValueAt(row).Hash() but without
  /// boxing on the typed lanes. Join buckets and group tables rely on this
  /// matching Value::Hash bit for bit.
  uint64_t CellHash(size_t row) const;
  /// True iff ValueAt(row) compares equal to `v` (Value::Compare == 0),
  /// with a no-boxing fast path for INT64.
  bool CellEquals(size_t row, const Value& v) const;

  /// Raw typed storage (valid only for the matching kind).
  const std::vector<int64_t>& int64s() const { return i64_; }
  const std::vector<double>& doubles() const { return f64_; }
  const std::vector<std::string>& strings() const { return str_; }
  const std::vector<uint8_t>& bools() const { return b8_; }
  const std::vector<uint64_t>& validity() const { return validity_; }

  void Clear();

 private:
  friend class RowBatch;

  void PromoteToMixed();
  void PushValidity(bool valid);

  Kind kind_;
  size_t size_ = 0;
  /// Bit set = non-null. Word i covers rows [64i, 64i+64).
  std::vector<uint64_t> validity_;
  std::vector<int64_t> i64_;
  std::vector<double> f64_;
  std::vector<std::string> str_;
  std::vector<uint8_t> b8_;
  std::vector<Value> mixed_;
};

/// A batch of rows in columnar form, with an optional selection vector.
/// When a selection is installed only the listed rows are live: filters
/// narrow it in place instead of materializing survivors, and the wire
/// codec compacts it away on encode.
class RowBatch {
 public:
  RowBatch() = default;
  explicit RowBatch(const catalog::Schema& schema);
  explicit RowBatch(const std::vector<ValueType>& types);

  size_t num_columns() const { return cols_.size(); }
  /// Physical rows (ignores the selection).
  size_t num_rows() const { return num_rows_; }
  /// Live rows: selection size if one is installed, else num_rows().
  size_t ActiveRows() const {
    return has_selection_ ? selection_.size() : num_rows_;
  }

  const Column& column(size_t i) const { return cols_[i]; }
  Column* mutable_column(size_t i) { return &cols_[i]; }

  bool has_selection() const { return has_selection_; }
  const std::vector<uint32_t>& selection() const { return selection_; }
  /// Installs `rows` (ascending physical row ids) as the live set.
  void SetSelection(std::vector<uint32_t> rows);
  void ClearSelection();
  /// Physical row id of live row `i`.
  uint32_t RowId(size_t i) const {
    return has_selection_ ? selection_[i] : static_cast<uint32_t>(i);
  }

  /// Boxes physical row `row` into a Tuple.
  void ToTuple(size_t row, catalog::Tuple* out) const;

  /// Dense copy containing only the live rows, selection cleared.
  RowBatch Compact() const;

  /// Dense copy of live rows [start, start+len) of the current live order —
  /// the unit of chunked wire delivery (bounding the rows one lost frame
  /// can cost). Clamps to the live range.
  RowBatch SliceLive(size_t start, size_t len) const;

  /// Shrinks the live set to its first `n` rows (no-op when already <= n).
  /// This is LIMIT pushdown on the batch plane: a sink that hits its cap
  /// mid-batch truncates the tail instead of delivering it.
  void TruncateLive(size_t n);

  /// Dense copy of physical rows `rows`, in the given order — how an
  /// exchange cuts one batch into per-destination frames.
  RowBatch Gather(const std::vector<uint32_t>& rows) const;

  /// Assembles a batch directly from pre-built columns (all of size `rows`)
  /// — how projection stages emit without re-boxing through a builder.
  static RowBatch FromColumns(std::vector<Column> cols, size_t rows);
  /// A one-row batch holding `t`, each column's kind taken from its value
  /// (NULL and BYTES ride the boxed lane) — how scalar producers (join
  /// output, recursion, fetched rows) enter the batch chain.
  static RowBatch OfRow(const catalog::Tuple& t);
  /// A batch of `rows`, each column's kind taken from the first row's
  /// value; a later value of another type boxes its column (an INT64 sum
  /// that widened to DOUBLE stays lossless). Every row takes the first
  /// row's width: a shorter one pads with NULL. No rows make an empty batch
  /// with no columns. How drained group-by rows become a kPartial frame,
  /// and the origin's collected rows a group-by input.
  static RowBatch OfRows(const std::vector<catalog::Tuple>& rows);
  /// Makes this batch OfRow(t) in place, from any prior state (narrowed,
  /// truncated or moved from), keeping its columns' storage: a producer
  /// that emits row after row refills one batch instead of allocating one
  /// per row.
  void AssignRow(const catalog::Tuple& t);

  /// The wire frame of the live rows (selection compacted away); one
  /// Encode is one network Payload body. One live row of fewer than 128
  /// columns is written as exactly catalog::SerializeTuple's bytes, whose
  /// leading column count is below 0x80; every other batch is the
  /// column-major form, led by the 0x81 version byte. The first byte tells
  /// the two forms apart.
  void Encode(Writer* w) const;
  std::string EncodeToBytes() const;
  /// Strict inverse of Encode for both forms (a one-row frame decodes as
  /// OfRow of its tuple). Malformed bytes return a Status and leave `out`
  /// unspecified; never crashes (fuzz-hardened like every decoder).
  static Status Decode(Reader* r, RowBatch* out);
  static Status FromBytes(std::string_view bytes, RowBatch* out);
  /// Reads one frame of either form straight into tuples (replacing
  /// `rows`): a one-row frame costs exactly catalog::DeserializeTuple.
  /// Receivers that consume rows one at a time use this.
  static Status DecodeRows(Reader* r, std::vector<catalog::Tuple>* rows);

 private:
  friend class RowBatchBuilder;

  /// The column-major form, version byte first.
  static Status DecodeColumnar(Reader* r, RowBatch* out);

  std::vector<Column> cols_;
  size_t num_rows_ = 0;
  bool has_selection_ = false;
  std::vector<uint32_t> selection_;
};

/// Builds batches from tuples or — the hot path — straight from serialized
/// tuple bytes, decoding each value directly into its column vector with no
/// intermediate std::vector<Value> allocation.
class RowBatchBuilder {
 public:
  explicit RowBatchBuilder(const catalog::Schema& schema);
  explicit RowBatchBuilder(std::vector<ValueType> types);

  size_t num_rows() const { return batch_.num_rows(); }
  bool Empty() const { return batch_.num_rows() == 0; }

  /// Pre-sizes every column for `n` rows; re-applied after each Take() so a
  /// scan loop reserves once for its whole lifetime.
  void Reserve(size_t n);

  void Append(const catalog::Tuple& t);
  /// Decodes one wire-format tuple (SerializeTuple layout) directly into
  /// the columns. Returns true if the row was appended; false (with no
  /// partial append) if the bytes are malformed or the column count does
  /// not match the schema — the same rows a tuple-plane scan would skip.
  bool AppendSerialized(std::string_view bytes);

  /// Moves the accumulated batch out and resets the builder.
  RowBatch Take();

 private:
  std::vector<ValueType> types_;
  size_t reserve_hint_ = 0;
  RowBatch batch_;
};

}  // namespace exec
}  // namespace pier

#endif  // PIER_EXEC_BATCH_H_
