// Value: the dynamically-typed scalar that PIER tuples carry.
//
// PIER queries run over schemas declared at query time against data arriving
// from heterogeneous edge sources, so values are tagged at runtime. The type
// lattice is deliberately small: NULL, BOOL, INT64, DOUBLE, STRING, BYTES.

#ifndef PIER_COMMON_VALUE_H_
#define PIER_COMMON_VALUE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <variant>

#include "common/hash.h"
#include "common/serialize.h"
#include "common/status.h"

namespace pier {

/// Runtime type tag of a Value. Numeric comparisons between INT64 and DOUBLE
/// are allowed (widening); everything else compares only within its own type.
enum class ValueType : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
  kBytes = 5,
};

/// Human-readable type name ("INT64" etc.).
const char* ValueTypeName(ValueType t);

/// The per-type hashes Value::Hash dispatches to, for code that hashes
/// unboxed cells (Column::CellHash, VectorGroupBy). DHT resources are built
/// from these bits, so changing one moves every rehash rendezvous.
constexpr uint64_t kNullHash = 0x9e3779b97f4a7c15ull;
inline uint64_t HashBool(bool b) { return Mix64(b ? 2 : 1); }
inline uint64_t HashInt64(int64_t v) {
  return Mix64(0x1234abcdull ^ static_cast<uint64_t>(v));
}
/// An integral DOUBLE hashes like the equal INT64.
uint64_t HashDouble(double d);

/// A single dynamically-typed scalar.
class Value {
 public:
  /// NULL value.
  Value() : rep_(std::monostate{}) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) { return Value(Rep(b)); }
  static Value Int64(int64_t i) { return Value(Rep(i)); }
  static Value Double(double d) { return Value(Rep(d)); }
  static Value String(std::string s) {
    return Value(Rep(std::in_place_index<4>, std::move(s)));
  }
  static Value Bytes(std::string b) {
    return Value(Rep(std::in_place_index<5>, std::move(b)));
  }

  ValueType type() const;
  bool is_null() const { return type() == ValueType::kNull; }

  /// Typed accessors: only valid when type() matches (asserts otherwise).
  bool bool_value() const { return std::get<1>(rep_); }
  int64_t int64_value() const { return std::get<2>(rep_); }
  double double_value() const { return std::get<3>(rep_); }
  const std::string& string_value() const { return std::get<4>(rep_); }
  const std::string& bytes_value() const { return std::get<5>(rep_); }

  /// Numeric view: INT64 and DOUBLE widen to double; other types are an
  /// InvalidArgument error.
  Status AsDouble(double* out) const;
  /// Integer view: INT64 only.
  Status AsInt64(int64_t* out) const;

  /// Three-way comparison. NULL sorts before everything; INT64/DOUBLE compare
  /// numerically across types; mismatched non-numeric types order by type
  /// tag (total order so sorting is always well defined).
  int Compare(const Value& other) const;
  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Stable 64-bit hash: equal values (including INT64 5 vs DOUBLE 5.0) hash
  /// identically, so hash-partitioned joins see them in the same bucket.
  uint64_t Hash() const;

  /// SQL-ish rendering for result printing ("NULL", "'str'", "3.25", ...).
  std::string ToString() const;

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, Value* out);
  /// Upper bound on Serialize output, for Writer::Reserve.
  size_t SerializedSizeBound() const;

 private:
  using Rep = std::variant<std::monostate, bool, int64_t, double, std::string,
                           std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

}  // namespace pier

#endif  // PIER_COMMON_VALUE_H_
