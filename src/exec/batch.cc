#include "exec/batch.h"

#include <bit>
#include <cstring>

#include "common/hash.h"

namespace pier {
namespace exec {

namespace {

// Decode guards: a frame claiming more than this is corrupt, not big.
constexpr uint32_t kMaxBatchRows = 1u << 20;
constexpr uint32_t kMaxBatchCols = 4096;
/// Leads the column-major form. A one-row frame leads with its column
/// count instead, a single varint byte below 0x80.
constexpr uint8_t kBatchVersion = 0x81;
/// Column counts below this fit the one-row form's single leading byte.
constexpr size_t kRowFormMaxCols = 0x80;

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

/// True when the frame at `r` is the one-row (tuple) form; reads nothing.
bool LeadsRowForm(const Reader& r) {
  Reader peek = r;
  uint8_t lead = 0;
  return peek.GetU8(&lead).ok() && lead < kRowFormMaxCols;
}

}  // namespace

// ---------------------------------------------------------------------------
// Column

Column::Kind Column::KindForType(ValueType t) {
  switch (t) {
    case ValueType::kInt64:
      return Kind::kInt64;
    case ValueType::kDouble:
      return Kind::kDouble;
    case ValueType::kString:
      return Kind::kString;
    case ValueType::kBool:
      return Kind::kBool;
    case ValueType::kNull:
    case ValueType::kBytes:
      return Kind::kMixed;
  }
  return Kind::kMixed;
}

void Column::PushValidity(bool valid) {
  if ((size_ & 63) == 0) validity_.push_back(0);
  if (valid) validity_.back() |= 1ull << (size_ & 63);
  ++size_;
}

void Column::AppendNull() {
  switch (kind_) {
    case Kind::kInt64:
      i64_.push_back(0);
      break;
    case Kind::kDouble:
      f64_.push_back(0);
      break;
    case Kind::kString:
      str_.emplace_back();
      break;
    case Kind::kBool:
      b8_.push_back(0);
      break;
    case Kind::kMixed:
      mixed_.emplace_back();
      break;
  }
  PushValidity(false);
}

void Column::AppendInt64(int64_t v) {
  i64_.push_back(v);
  PushValidity(true);
}

void Column::AppendDouble(double v) {
  f64_.push_back(v);
  PushValidity(true);
}

void Column::AppendString(std::string s) {
  str_.push_back(std::move(s));
  PushValidity(true);
}

void Column::AppendBool(bool v) {
  b8_.push_back(v ? 1 : 0);
  PushValidity(true);
}

void Column::PromoteToMixed() {
  std::vector<Value> boxed;
  boxed.reserve(size_);
  for (size_t i = 0; i < size_; ++i) boxed.push_back(ValueAt(i));
  kind_ = Kind::kMixed;
  i64_.clear();
  f64_.clear();
  str_.clear();
  b8_.clear();
  mixed_ = std::move(boxed);
}

void Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return;
  }
  switch (kind_) {
    case Kind::kInt64:
      if (v.type() == ValueType::kInt64) {
        AppendInt64(v.int64_value());
        return;
      }
      break;
    case Kind::kDouble:
      if (v.type() == ValueType::kDouble) {
        AppendDouble(v.double_value());
        return;
      }
      break;
    case Kind::kString:
      if (v.type() == ValueType::kString) {
        AppendString(v.string_value());
        return;
      }
      break;
    case Kind::kBool:
      if (v.type() == ValueType::kBool) {
        AppendBool(v.bool_value());
        return;
      }
      break;
    case Kind::kMixed:
      mixed_.push_back(v);
      PushValidity(true);
      return;
  }
  // Runtime type disagrees with the storage lane: fall back to boxing.
  PromoteToMixed();
  mixed_.push_back(v);
  PushValidity(true);
}

void Column::AppendFrom(const Column& src, size_t row) {
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  if (src.kind_ == kind_) {
    switch (kind_) {
      case Kind::kInt64:
        AppendInt64(src.i64_[row]);
        return;
      case Kind::kDouble:
        AppendDouble(src.f64_[row]);
        return;
      case Kind::kString:
        AppendString(src.str_[row]);
        return;
      case Kind::kBool:
        AppendBool(src.b8_[row] != 0);
        return;
      case Kind::kMixed:
        mixed_.push_back(src.mixed_[row]);
        PushValidity(true);
        return;
    }
  }
  AppendValue(src.ValueAt(row));
}

Value Column::ValueAt(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (kind_) {
    case Kind::kInt64:
      return Value::Int64(i64_[row]);
    case Kind::kDouble:
      return Value::Double(f64_[row]);
    case Kind::kString:
      return Value::String(str_[row]);
    case Kind::kBool:
      return Value::Bool(b8_[row] != 0);
    case Kind::kMixed:
      return mixed_[row];
  }
  return Value::Null();
}

uint64_t Column::CellHash(size_t row) const {
  if (IsNull(row)) return kNullHash;
  switch (kind_) {
    case Kind::kInt64:
      return HashInt64(i64_[row]);
    case Kind::kDouble:
      return HashDouble(f64_[row]);
    case Kind::kString:
      return HashBytes(str_[row]);
    case Kind::kBool:
      return HashBool(b8_[row] != 0);
    case Kind::kMixed:
      return mixed_[row].Hash();
  }
  return 0;
}

bool Column::CellEquals(size_t row, const Value& v) const {
  if (IsNull(row)) return v.is_null();
  if (v.is_null()) return false;
  switch (kind_) {
    case Kind::kInt64:
      if (v.type() == ValueType::kInt64) return i64_[row] == v.int64_value();
      break;
    case Kind::kString:
      if (v.type() == ValueType::kString) {
        return str_[row] == v.string_value();
      }
      break;
    default:
      break;
  }
  return ValueAt(row).Compare(v) == 0;
}

void Column::PopBack() {
  --size_;
  validity_[size_ >> 6] &= ~(1ull << (size_ & 63));
  if ((size_ & 63) == 0) validity_.pop_back();
  switch (kind_) {
    case Kind::kInt64:
      i64_.pop_back();
      break;
    case Kind::kDouble:
      f64_.pop_back();
      break;
    case Kind::kString:
      str_.pop_back();
      break;
    case Kind::kBool:
      b8_.pop_back();
      break;
    case Kind::kMixed:
      mixed_.pop_back();
      break;
  }
}

void Column::Reserve(size_t n) {
  validity_.reserve((n + 63) / 64);
  switch (kind_) {
    case Kind::kInt64:
      i64_.reserve(n);
      break;
    case Kind::kDouble:
      f64_.reserve(n);
      break;
    case Kind::kString:
      str_.reserve(n);
      break;
    case Kind::kBool:
      b8_.reserve(n);
      break;
    case Kind::kMixed:
      mixed_.reserve(n);
      break;
  }
}

void Column::Clear() {
  size_ = 0;
  validity_.clear();
  i64_.clear();
  f64_.clear();
  str_.clear();
  b8_.clear();
  mixed_.clear();
}

// ---------------------------------------------------------------------------
// RowBatch

RowBatch::RowBatch(const catalog::Schema& schema) {
  cols_.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    cols_.push_back(Column::ForType(schema.column(i).type));
  }
}

RowBatch::RowBatch(const std::vector<ValueType>& types) {
  cols_.reserve(types.size());
  for (ValueType t : types) cols_.push_back(Column::ForType(t));
}

void RowBatch::SetSelection(std::vector<uint32_t> rows) {
  has_selection_ = true;
  selection_ = std::move(rows);
}

void RowBatch::ClearSelection() {
  has_selection_ = false;
  selection_.clear();
}

void RowBatch::ToTuple(size_t row, catalog::Tuple* out) const {
  out->clear();
  out->reserve(cols_.size());
  for (const Column& c : cols_) out->push_back(c.ValueAt(row));
}

RowBatch RowBatch::Gather(const std::vector<uint32_t>& rows) const {
  RowBatch out;
  out.cols_.reserve(cols_.size());
  for (const Column& c : cols_) {
    out.cols_.push_back(Column(c.kind()));
    out.cols_.back().Reserve(rows.size());
  }
  for (uint32_t row : rows) {
    for (size_t c = 0; c < cols_.size(); ++c) {
      out.cols_[c].AppendFrom(cols_[c], row);
    }
  }
  out.num_rows_ = rows.size();
  return out;
}

RowBatch RowBatch::Compact() const { return SliceLive(0, ActiveRows()); }

RowBatch RowBatch::SliceLive(size_t start, size_t len) const {
  size_t n = ActiveRows();
  if (start > n) start = n;
  size_t end = (len > n - start) ? n : start + len;
  std::vector<uint32_t> rows;
  rows.reserve(end - start);
  for (size_t i = start; i < end; ++i) rows.push_back(RowId(i));
  return Gather(rows);
}

void RowBatch::TruncateLive(size_t n) {
  if (n >= ActiveRows()) return;
  if (has_selection_) {
    selection_.resize(n);
    return;
  }
  selection_.resize(n);
  for (size_t i = 0; i < n; ++i) selection_[i] = static_cast<uint32_t>(i);
  has_selection_ = true;
}

RowBatch RowBatch::FromColumns(std::vector<Column> cols, size_t rows) {
  RowBatch out;
  out.cols_ = std::move(cols);
  out.num_rows_ = rows;
  return out;
}

RowBatch RowBatch::OfRow(const catalog::Tuple& t) {
  RowBatch out;
  out.AssignRow(t);
  return out;
}

RowBatch RowBatch::OfRows(const std::vector<catalog::Tuple>& rows) {
  if (rows.empty()) return RowBatch();
  std::vector<ValueType> types;
  types.reserve(rows[0].size());
  for (const Value& v : rows[0]) types.push_back(v.type());
  RowBatchBuilder builder(std::move(types));
  builder.Reserve(rows.size());
  for (const catalog::Tuple& t : rows) builder.Append(t);
  return builder.Take();
}

void RowBatch::AssignRow(const catalog::Tuple& t) {
  ClearSelection();
  cols_.resize(t.size());
  for (size_t i = 0; i < t.size(); ++i) {
    const Column::Kind kind = Column::KindForType(t[i].type());
    if (cols_[i].kind() == kind) {
      cols_[i].Clear();
    } else {
      cols_[i] = Column(kind);
    }
    cols_[i].AppendValue(t[i]);
  }
  num_rows_ = 1;
}

void RowBatch::Encode(Writer* w) const {
  if (ActiveRows() == 1 && cols_.size() < kRowFormMaxCols) {
    // The one-row form is the tuple encoding itself.
    catalog::Tuple t;
    ToTuple(RowId(0), &t);
    catalog::SerializeTuple(t, w);
    return;
  }
  if (has_selection_) {
    // The wire never carries dead rows: compact first.
    Compact().Encode(w);
    return;
  }
  size_t n = num_rows_;
  w->PutU8(kBatchVersion);
  w->PutVarint32(static_cast<uint32_t>(n));
  w->PutVarint32(static_cast<uint32_t>(cols_.size()));
  size_t vbytes = (n + 7) / 8;
  std::vector<uint8_t> bits(vbytes, 0);
  for (const Column& c : cols_) {
    w->PutU8(static_cast<uint8_t>(c.kind()));
    std::fill(bits.begin(), bits.end(), 0);
    for (size_t i = 0; i < n; ++i) {
      if (!c.IsNull(i)) bits[i >> 3] |= 1u << (i & 7);
    }
    w->PutRaw(bits.data(), vbytes);
    switch (c.kind()) {
      case Column::Kind::kInt64:
        if constexpr (kLittleEndian) {
          w->PutRaw(c.i64_.data(), n * sizeof(int64_t));
        } else {
          for (size_t i = 0; i < n; ++i) {
            w->PutFixed64(static_cast<uint64_t>(c.i64_[i]));
          }
        }
        break;
      case Column::Kind::kDouble:
        if constexpr (kLittleEndian) {
          w->PutRaw(c.f64_.data(), n * sizeof(double));
        } else {
          for (size_t i = 0; i < n; ++i) w->PutDouble(c.f64_[i]);
        }
        break;
      case Column::Kind::kString: {
        size_t total = 0;
        for (size_t i = 0; i < n; ++i) total += 5 + c.str_[i].size();
        w->Reserve(total);
        for (size_t i = 0; i < n; ++i) w->PutString(c.str_[i]);
        break;
      }
      case Column::Kind::kBool: {
        std::vector<uint8_t> packed(vbytes, 0);
        for (size_t i = 0; i < n; ++i) {
          if (c.b8_[i]) packed[i >> 3] |= 1u << (i & 7);
        }
        w->PutRaw(packed.data(), vbytes);
        break;
      }
      case Column::Kind::kMixed:
        for (size_t i = 0; i < n; ++i) c.mixed_[i].Serialize(w);
        break;
    }
  }
}

std::string RowBatch::EncodeToBytes() const {
  Writer w;
  Encode(&w);
  return w.Release();
}

Status RowBatch::Decode(Reader* r, RowBatch* out) {
  if (LeadsRowForm(*r)) {
    catalog::Tuple t;
    PIER_RETURN_IF_ERROR(catalog::DeserializeTuple(r, &t));
    *out = OfRow(t);
    return Status::OK();
  }
  return DecodeColumnar(r, out);
}

Status RowBatch::DecodeRows(Reader* r, std::vector<catalog::Tuple>* rows) {
  if (LeadsRowForm(*r)) {
    rows->resize(1);
    return catalog::DeserializeTuple(r, &rows->front());
  }
  RowBatch b;
  PIER_RETURN_IF_ERROR(DecodeColumnar(r, &b));
  rows->resize(b.num_rows());
  for (size_t i = 0; i < b.num_rows(); ++i) b.ToTuple(i, &(*rows)[i]);
  return Status::OK();
}

Status RowBatch::DecodeColumnar(Reader* r, RowBatch* out) {
  uint8_t version = 0;
  PIER_RETURN_IF_ERROR(r->GetU8(&version));
  if (version != kBatchVersion) return Status::Corruption("bad batch version");
  uint32_t n = 0, ncols = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&n));
  PIER_RETURN_IF_ERROR(r->GetVarint32(&ncols));
  if (n > kMaxBatchRows) return Status::Corruption("batch rows out of range");
  if (ncols > kMaxBatchCols) return Status::Corruption("batch cols out of range");
  out->cols_.clear();
  out->num_rows_ = n;
  out->ClearSelection();
  size_t vbytes = (n + 7) / 8;
  std::vector<uint8_t> bits(vbytes);
  out->cols_.reserve(ncols);
  for (uint32_t ci = 0; ci < ncols; ++ci) {
    uint8_t kind = 0;
    PIER_RETURN_IF_ERROR(r->GetU8(&kind));
    if (kind > static_cast<uint8_t>(Column::Kind::kMixed)) {
      return Status::Corruption("bad column kind");
    }
    Column c(static_cast<Column::Kind>(kind));
    if (r->remaining() < vbytes) return Status::Corruption("batch truncated");
    PIER_RETURN_IF_ERROR(r->GetRaw(bits.data(), vbytes));
    c.size_ = n;
    c.validity_.assign((n + 63) / 64, 0);
    for (size_t i = 0; i < n; ++i) {
      if (bits[i >> 3] & (1u << (i & 7))) {
        c.validity_[i >> 6] |= 1ull << (i & 63);
      }
    }
    switch (c.kind_) {
      case Column::Kind::kInt64: {
        if (r->remaining() < n * sizeof(int64_t)) {
          return Status::Corruption("batch truncated");
        }
        c.i64_.resize(n);
        if constexpr (kLittleEndian) {
          PIER_RETURN_IF_ERROR(r->GetRaw(c.i64_.data(), n * sizeof(int64_t)));
        } else {
          for (size_t i = 0; i < n; ++i) {
            uint64_t v = 0;
            PIER_RETURN_IF_ERROR(r->GetFixed64(&v));
            c.i64_[i] = static_cast<int64_t>(v);
          }
        }
        break;
      }
      case Column::Kind::kDouble: {
        if (r->remaining() < n * sizeof(double)) {
          return Status::Corruption("batch truncated");
        }
        c.f64_.resize(n);
        if constexpr (kLittleEndian) {
          PIER_RETURN_IF_ERROR(r->GetRaw(c.f64_.data(), n * sizeof(double)));
        } else {
          for (size_t i = 0; i < n; ++i) {
            PIER_RETURN_IF_ERROR(r->GetDouble(&c.f64_[i]));
          }
        }
        break;
      }
      case Column::Kind::kString: {
        c.str_.reserve(n <= 4096 ? n : 4096);
        for (size_t i = 0; i < n; ++i) {
          c.str_.emplace_back();
          PIER_RETURN_IF_ERROR(r->GetString(&c.str_.back()));
        }
        break;
      }
      case Column::Kind::kBool: {
        if (r->remaining() < vbytes) return Status::Corruption("batch truncated");
        std::vector<uint8_t> packed(vbytes);
        PIER_RETURN_IF_ERROR(r->GetRaw(packed.data(), vbytes));
        c.b8_.resize(n);
        for (size_t i = 0; i < n; ++i) {
          c.b8_[i] = (packed[i >> 3] >> (i & 7)) & 1;
        }
        break;
      }
      case Column::Kind::kMixed: {
        c.mixed_.reserve(n <= 4096 ? n : 4096);
        for (size_t i = 0; i < n; ++i) {
          Value v;
          PIER_RETURN_IF_ERROR(Value::Deserialize(r, &v));
          c.mixed_.push_back(std::move(v));
        }
        break;
      }
    }
    out->cols_.push_back(std::move(c));
  }
  return Status::OK();
}

Status RowBatch::FromBytes(std::string_view bytes, RowBatch* out) {
  Reader r(bytes);
  PIER_RETURN_IF_ERROR(Decode(&r, out));
  if (!r.AtEnd()) return Status::Corruption("trailing bytes after batch");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// RowBatchBuilder

RowBatchBuilder::RowBatchBuilder(const catalog::Schema& schema)
    : batch_(schema) {
  types_.reserve(schema.num_columns());
  for (size_t i = 0; i < schema.num_columns(); ++i) {
    types_.push_back(schema.column(i).type);
  }
}

RowBatchBuilder::RowBatchBuilder(std::vector<ValueType> types)
    : types_(std::move(types)), batch_(types_) {}

void RowBatchBuilder::Append(const catalog::Tuple& t) {
  for (size_t i = 0; i < batch_.cols_.size(); ++i) {
    if (i < t.size()) {
      batch_.cols_[i].AppendValue(t[i]);
    } else {
      batch_.cols_[i].AppendNull();
    }
  }
  ++batch_.num_rows_;
}

namespace {

/// Varint decode over raw bytes with the exact failure behavior of
/// Reader::GetVarint64 (truncation and overlong >10-byte encodings fail).
/// AppendSerialized is the per-row hot loop of every scan; going through
/// Reader's Status-returning primitives costs a call and a Status per cell.
inline bool FastVarint(const uint8_t*& p, const uint8_t* end, uint64_t* out) {
  uint64_t v = 0;
  int shift = 0;
  while (shift < 64) {
    if (p == end) return false;
    uint8_t byte = *p++;
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      *out = v;
      return true;
    }
    shift += 7;
  }
  return false;
}

}  // namespace

void RowBatchBuilder::Reserve(size_t n) {
  reserve_hint_ = n;
  for (Column& c : batch_.cols_) c.Reserve(n);
}

bool RowBatchBuilder::AppendSerialized(std::string_view bytes) {
  const uint8_t* p = reinterpret_cast<const uint8_t*>(bytes.data());
  const uint8_t* end = p + bytes.size();
  uint64_t count = 0;
  if (!FastVarint(p, end, &count)) return false;
  if (count != batch_.cols_.size()) return false;
  // Decode straight into the column lanes; a tag that disagrees with the
  // lane boxes through AppendValue (promoting the column), so malformed
  // rows are the only ones that bail out below.
  size_t appended = 0;
  bool ok = true;
  for (uint64_t i = 0; i < count && ok; ++i) {
    Column& col = batch_.cols_[i];
    if (p == end) {
      ok = false;
      break;
    }
    uint8_t tag = *p++;
    switch (tag) {
      case static_cast<uint8_t>(ValueType::kNull):
        col.AppendNull();
        break;
      case static_cast<uint8_t>(ValueType::kInt64): {
        uint64_t zz = 0;
        if (!FastVarint(p, end, &zz)) {
          ok = false;
          break;
        }
        int64_t v = static_cast<int64_t>((zz >> 1) ^ (~(zz & 1) + 1));
        if (col.kind() == Column::Kind::kInt64) {
          col.AppendInt64(v);
        } else {
          col.AppendValue(Value::Int64(v));
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kDouble): {
        if (end - p < 8) {
          ok = false;
          break;
        }
        uint64_t bits = 0;
        for (int b = 0; b < 8; ++b) {
          bits |= static_cast<uint64_t>(p[b]) << (8 * b);
        }
        p += 8;
        double d = 0;
        std::memcpy(&d, &bits, sizeof(d));
        if (col.kind() == Column::Kind::kDouble) {
          col.AppendDouble(d);
        } else {
          col.AppendValue(Value::Double(d));
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kBool): {
        if (p == end) {
          ok = false;
          break;
        }
        uint8_t b = *p++;
        if (col.kind() == Column::Kind::kBool) {
          col.AppendBool(b != 0);
        } else {
          col.AppendValue(Value::Bool(b != 0));
        }
        break;
      }
      case static_cast<uint8_t>(ValueType::kString):
      case static_cast<uint8_t>(ValueType::kBytes): {
        uint64_t n = 0;
        if (!FastVarint(p, end, &n) ||
            n > static_cast<uint64_t>(end - p)) {
          ok = false;
          break;
        }
        std::string s(reinterpret_cast<const char*>(p), n);
        p += n;
        if (tag == static_cast<uint8_t>(ValueType::kString) &&
            col.kind() == Column::Kind::kString) {
          col.AppendString(std::move(s));
        } else if (tag == static_cast<uint8_t>(ValueType::kString)) {
          col.AppendValue(Value::String(std::move(s)));
        } else {
          col.AppendValue(Value::Bytes(std::move(s)));
        }
        break;
      }
      default:
        ok = false;
        break;
    }
    if (ok) ++appended;
  }
  if (ok && p != end) ok = false;
  if (!ok) {
    // Roll back the columns touched before the row went bad.
    for (size_t i = 0; i < appended; ++i) batch_.cols_[i].PopBack();
    return false;
  }
  ++batch_.num_rows_;
  return true;
}

RowBatch RowBatchBuilder::Take() {
  RowBatch out = std::move(batch_);
  batch_ = RowBatch(types_);
  if (reserve_hint_ > 0) {
    for (Column& c : batch_.cols_) c.Reserve(reserve_hint_);
  }
  return out;
}

}  // namespace exec
}  // namespace pier
