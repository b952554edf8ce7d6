#include "common/value.h"

#include <cmath>
#include <cstdio>

#include "common/hash.h"

namespace pier {

const char* ValueTypeName(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return "BOOL";
    case ValueType::kInt64:
      return "INT64";
    case ValueType::kDouble:
      return "DOUBLE";
    case ValueType::kString:
      return "STRING";
    case ValueType::kBytes:
      return "BYTES";
  }
  return "UNKNOWN";
}

ValueType Value::type() const {
  return static_cast<ValueType>(rep_.index());
}

Status Value::AsDouble(double* out) const {
  switch (type()) {
    case ValueType::kInt64:
      *out = static_cast<double>(int64_value());
      return Status::OK();
    case ValueType::kDouble:
      *out = double_value();
      return Status::OK();
    default:
      return Status::InvalidArgument(std::string("not numeric: ") +
                                     ValueTypeName(type()));
  }
}

Status Value::AsInt64(int64_t* out) const {
  if (type() != ValueType::kInt64) {
    return Status::InvalidArgument(std::string("not INT64: ") +
                                   ValueTypeName(type()));
  }
  *out = int64_value();
  return Status::OK();
}

namespace {
bool IsNumeric(ValueType t) {
  return t == ValueType::kInt64 || t == ValueType::kDouble;
}
int Sign(double d) { return d < 0 ? -1 : (d > 0 ? 1 : 0); }
}  // namespace

int Value::Compare(const Value& other) const {
  ValueType a = type(), b = other.type();
  // NULL sorts first.
  if (a == ValueType::kNull || b == ValueType::kNull) {
    if (a == b) return 0;
    return a == ValueType::kNull ? -1 : 1;
  }
  // Cross-type numeric comparison.
  if (IsNumeric(a) && IsNumeric(b)) {
    if (a == ValueType::kInt64 && b == ValueType::kInt64) {
      int64_t x = int64_value(), y = other.int64_value();
      return x < y ? -1 : (x > y ? 1 : 0);
    }
    double x = 0, y = 0;
    (void)AsDouble(&x);
    (void)other.AsDouble(&y);
    return Sign(x - y);
  }
  if (a != b) return static_cast<int>(a) < static_cast<int>(b) ? -1 : 1;
  switch (a) {
    case ValueType::kBool: {
      int x = bool_value() ? 1 : 0, y = other.bool_value() ? 1 : 0;
      return x - y;
    }
    case ValueType::kString:
      return string_value().compare(other.string_value()) < 0
                 ? -1
                 : (string_value() == other.string_value() ? 0 : 1);
    case ValueType::kBytes:
      return bytes_value().compare(other.bytes_value()) < 0
                 ? -1
                 : (bytes_value() == other.bytes_value() ? 0 : 1);
    default:
      return 0;
  }
}

uint64_t HashDouble(double d) {
  if (std::nearbyint(d) == d && std::abs(d) < 9.2e18) {
    return HashInt64(static_cast<int64_t>(d));
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return Mix64(0x5678efabull ^ bits);
}

uint64_t Value::Hash() const {
  switch (type()) {
    case ValueType::kNull:
      return kNullHash;
    case ValueType::kBool:
      return HashBool(bool_value());
    case ValueType::kInt64:
      return HashInt64(int64_value());
    case ValueType::kDouble:
      return HashDouble(double_value());
    case ValueType::kString:
      return HashBytes(string_value());
    case ValueType::kBytes:
      return HashBytes(bytes_value()) ^ 0xB0B0B0B0ull;
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "NULL";
    case ValueType::kBool:
      return bool_value() ? "TRUE" : "FALSE";
    case ValueType::kInt64:
      return std::to_string(int64_value());
    case ValueType::kDouble: {
      char buf[32];
      snprintf(buf, sizeof(buf), "%.6g", double_value());
      return buf;
    }
    case ValueType::kString:
      return "'" + string_value() + "'";
    case ValueType::kBytes:
      return "x'" + std::to_string(bytes_value().size()) + " bytes'";
  }
  return "?";
}

void Value::Serialize(Writer* w) const {
  w->PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      w->PutBool(bool_value());
      break;
    case ValueType::kInt64:
      w->PutVarint64Signed(int64_value());
      break;
    case ValueType::kDouble:
      w->PutDouble(double_value());
      break;
    case ValueType::kString:
      w->PutString(string_value());
      break;
    case ValueType::kBytes:
      w->PutString(bytes_value());
      break;
  }
}

size_t Value::SerializedSizeBound() const {
  switch (type()) {
    case ValueType::kNull:
      return 1;
    case ValueType::kBool:
      return 2;
    case ValueType::kInt64:
      return 11;  // tag + max varint64
    case ValueType::kDouble:
      return 9;
    case ValueType::kString:
      return 6 + string_value().size();  // tag + max varint32 len + bytes
    case ValueType::kBytes:
      return 6 + bytes_value().size();
  }
  return 1;
}

Status Value::Deserialize(Reader* r, Value* out) {
  uint8_t tag = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&tag));
  if (tag > static_cast<uint8_t>(ValueType::kBytes)) {
    return Status::Corruption("bad value type tag");
  }
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value::Null();
      return Status::OK();
    case ValueType::kBool: {
      bool b = false;
      PIER_RETURN_IF_ERROR(r->GetBool(&b));
      *out = Value::Bool(b);
      return Status::OK();
    }
    case ValueType::kInt64: {
      int64_t v = 0;
      PIER_RETURN_IF_ERROR(r->GetVarint64Signed(&v));
      *out = Value::Int64(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double d = 0;
      PIER_RETURN_IF_ERROR(r->GetDouble(&d));
      *out = Value::Double(d);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      PIER_RETURN_IF_ERROR(r->GetString(&s));
      *out = Value::String(std::move(s));
      return Status::OK();
    }
    case ValueType::kBytes: {
      std::string s;
      PIER_RETURN_IF_ERROR(r->GetString(&s));
      *out = Value::Bytes(std::move(s));
      return Status::OK();
    }
  }
  return Status::Corruption("unreachable value tag");
}

}  // namespace pier
