#include "catalog/tuple.h"

#include "common/hash.h"

namespace pier {
namespace catalog {

void SerializeTuple(const Tuple& t, Writer* w) {
  size_t bound = 5;
  for (const Value& v : t) bound += v.SerializedSizeBound();
  w->Reserve(bound);
  w->PutVarint32(static_cast<uint32_t>(t.size()));
  for (const Value& v : t) v.Serialize(w);
}

std::string TupleToBytes(const Tuple& t) {
  Writer w;
  SerializeTuple(t, &w);
  return w.Release();
}

Status DeserializeTuple(Reader* r, Tuple* out) {
  uint32_t n = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  if (n > 100000) return Status::Corruption("tuple too wide");
  out->clear();
  out->reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Value v;
    PIER_RETURN_IF_ERROR(Value::Deserialize(r, &v));
    out->push_back(std::move(v));
  }
  return Status::OK();
}

Status TupleFromBytes(const std::string& bytes, Tuple* out) {
  Reader r(bytes);
  return DeserializeTuple(&r, out);
}

std::string TupleToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    if (i > 0) out += ", ";
    out += t[i].ToString();
  }
  out += ")";
  return out;
}

uint64_t HashTuple(const Tuple& t) {
  uint64_t h = 0x9e3779b97f4a7c15ull;
  for (const Value& v : t) h = HashCombine(h, v.Hash());
  return h;
}

uint64_t HashTupleCols(const Tuple& t, const std::vector<int>& cols) {
  uint64_t h = kHashTupleColsSeed;
  for (int c : cols) {
    h = HashCombine(h, c >= 0 && static_cast<size_t>(c) < t.size()
                           ? t[c].Hash()
                           : 0);
  }
  return h;
}

int CompareTuples(const Tuple& a, const Tuple& b) {
  size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return 0;
}

std::string ResourceForCols(const Tuple& t, const std::vector<int>& cols) {
  // Hash-based resource: canonical across numeric types (Value::Hash
  // guarantees INT64/DOUBLE equality), fixed-length, and key values do not
  // leak into routing keys.
  Writer w;
  w.Reserve(cols.size() * 8);
  for (int c : cols) {
    uint64_t h = (c >= 0 && static_cast<size_t>(c) < t.size())
                     ? t[c].Hash()
                     : kMissingColumnHash;
    w.PutFixed64(h);
  }
  return w.Release();
}

}  // namespace catalog
}  // namespace pier
