#include "planner/join_cost.h"

#include <algorithm>

#include "query/bloom_wire.h"

namespace pier {
namespace planner {

namespace {

// Per-tuple framing overhead of a rehash put (DHT key, namespace, instance
// id, ack bookkeeping), amortized by batching but still real.
constexpr uint64_t kTupleOverhead = 24;
// Extra bytes a semi-join projection carries beyond the keys: origin host,
// row id, and the same framing as any rehash put.
constexpr uint64_t kSemiOverhead = 18 + kTupleOverhead;
// One fetch round-trip per matched pair: request (key + row id) plus
// response framing around the two full tuples.
constexpr uint64_t kFetchOverhead = 64;
// Serialized width of one key column (varint64 / short string estimate).
constexpr uint64_t kKeyColBytes = 9;

uint64_t WidthOf(const catalog::TableStats& s) {
  // Stats may declare rows without width; assume a modest tuple rather
  // than zero (zero would make every suppressing strategy look free).
  return s.avg_tuple_bytes > 0 ? s.avg_tuple_bytes : 64;
}

// Distinct estimate for a composite key: the max over its columns (a
// lower bound on the composite count — conservative, since a smaller
// domain means more matches and higher semi-join fetch cost).
uint64_t KeyDistinct(const catalog::TableStats& s,
                     const std::vector<int>& cols) {
  uint64_t d = 0;
  for (int c : cols) d = std::max(d, s.DistinctFor(c));
  return std::max<uint64_t>(d, 1);
}

}  // namespace

JoinChoice ChooseJoinStrategy(const JoinCostInputs& in) {
  JoinChoice out;
  if (in.left == nullptr || in.right == nullptr || in.left->empty() ||
      in.right->empty() || in.left_key_cols.empty()) {
    return out;  // unknown side: stay on symmetric hash
  }
  const uint64_t L = in.left->row_count;
  const uint64_t R = in.right->row_count;
  const uint64_t wL = WidthOf(*in.left);
  const uint64_t wR = WidthOf(*in.right);
  const uint64_t dL = KeyDistinct(*in.left, in.left_key_cols);
  const uint64_t dR = KeyDistinct(*in.right, in.right_key_cols);
  const uint64_t domain = std::max(dL, dR);

  // Symmetric hash: both relations rehash in full.
  out.est_hash_bytes = L * (wL + kTupleOverhead) + R * (wR + kTupleOverhead);

  // Bloom: fixed filter wave (parts to the origin, union broadcast down
  // the tree — both filters per frame) plus the surviving rehash. Under
  // the containment assumption the smaller key domain is a subset of the
  // larger, so a side survives in proportion to the other side's domain.
  const uint64_t filter_bytes = 2 * (query::kBloomBits / 8);
  const uint64_t wave = 3 * std::max<uint64_t>(in.members, 1) * filter_bytes;
  const double fL = dL <= dR ? 1.0 : static_cast<double>(dR) / dL;
  const double fR = dR <= dL ? 1.0 : static_cast<double>(dL) / dR;
  out.est_bloom_bytes =
      wave + static_cast<uint64_t>(fL * L) * (wL + kTupleOverhead) +
      static_cast<uint64_t>(fR * R) * (wR + kTupleOverhead);

  // Semi-join: key projections rehash from both sides, then one fetch
  // round-trip per matched pair (|L x R| / key domain).
  const uint64_t key_bytes = kKeyColBytes * in.left_key_cols.size();
  const double matches =
      static_cast<double>(L) * static_cast<double>(R) / domain;
  out.est_semi_bytes =
      (L + R) * (key_bytes + kSemiOverhead) +
      static_cast<uint64_t>(matches) * (wL + wR + kFetchOverhead);

  // Cheapest wins; ties keep the simpler strategy (hash beats both,
  // semi beats bloom) so estimates have to earn the extra machinery.
  out.strategy = query::JoinStrategy::kSymmetricHash;
  uint64_t best = out.est_hash_bytes;
  if (out.est_semi_bytes < best) {
    out.strategy = query::JoinStrategy::kSymmetricSemi;
    best = out.est_semi_bytes;
  }
  if (out.est_bloom_bytes < best) {
    out.strategy = query::JoinStrategy::kBloom;
  }
  return out;
}

}  // namespace planner
}  // namespace pier
