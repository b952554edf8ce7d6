// Tuples: the unit of data PIER moves. A tuple is a vector of Values whose
// interpretation is given by a Schema. Tuples crossing the network or
// entering the DHT are byte-serialized with the common wire format.

#ifndef PIER_CATALOG_TUPLE_H_
#define PIER_CATALOG_TUPLE_H_

#include <string>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"
#include "common/value.h"

namespace pier {
namespace catalog {

using Tuple = std::vector<Value>;

/// Serializes `t` into `w` (column count then each value).
void SerializeTuple(const Tuple& t, Writer* w);
/// One-shot convenience returning the bytes.
std::string TupleToBytes(const Tuple& t);
/// Inverse of SerializeTuple.
Status DeserializeTuple(Reader* r, Tuple* out);
/// Inverse of TupleToBytes.
Status TupleFromBytes(const std::string& bytes, Tuple* out);

/// "(1322, 'BAD-TRAFFIC bad frag bits', 465770)".
std::string TupleToString(const Tuple& t);

/// Order-sensitive 64-bit hash over all values (Distinct, dedup tables).
uint64_t HashTuple(const Tuple& t);
/// Hash over a subset of columns (group keys, join keys): each column's
/// Value::Hash folded with HashCombine into kHashTupleColsSeed.
uint64_t HashTupleCols(const Tuple& t, const std::vector<int>& cols);
constexpr uint64_t kHashTupleColsSeed = 0x243f6a8885a308d3ull;

/// Lexicographic comparison using Value::Compare.
int CompareTuples(const Tuple& a, const Tuple& b);

/// Encodes the values of `cols` as a DHT resource string: equal key values
/// (including INT64 5 vs DOUBLE 5.0) produce identical resources, so they
/// rendezvous at the same node. The resource is each column's Value::Hash
/// as a fixed64, kMissingColumnHash for a column past the tuple's end.
std::string ResourceForCols(const Tuple& t, const std::vector<int>& cols);
constexpr uint64_t kMissingColumnHash = 0x6e756c6cull;

}  // namespace catalog
}  // namespace pier

#endif  // PIER_CATALOG_TUPLE_H_
