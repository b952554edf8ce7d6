// Bloom filter over 64-bit element hashes.
//
// PIER's Bloom join ships a filter of each relation's join keys to the other
// relation's sites so non-matching tuples are dropped before the expensive
// rehash. Filters must serialize compactly and OR together (union of sets).

#ifndef PIER_COMMON_BLOOM_H_
#define PIER_COMMON_BLOOM_H_

#include <cstdint>
#include <vector>

#include "common/serialize.h"
#include "common/status.h"

namespace pier {

/// Fixed-size Bloom filter; elements are added by their 64-bit hash (use
/// Value::Hash() for tuple keys). k probe positions are derived by
/// double hashing.
class BloomFilter {
 public:
  /// `bits` is rounded up to a multiple of 64; `num_hashes` is clamped to
  /// [1, 16].
  BloomFilter(size_t bits, int num_hashes);
  /// Sized for `expected_entries` at ~1% false-positive rate.
  static BloomFilter ForEntries(size_t expected_entries);

  void Add(uint64_t element_hash);
  bool MayContain(uint64_t element_hash) const;

  /// Set union. Both filters must have identical geometry.
  Status UnionWith(const BloomFilter& other);

  size_t bit_count() const { return words_.size() * 64; }
  int num_hashes() const { return num_hashes_; }
  /// Number of set bits (diagnostic; drives saturation warnings).
  size_t PopCount() const;
  /// Estimated false-positive probability at the current load.
  double EstimatedFpp(size_t inserted) const;

  void Serialize(Writer* w) const;
  static Status Deserialize(Reader* r, BloomFilter* out);

 private:
  std::vector<uint64_t> words_;
  int num_hashes_;
};

}  // namespace pier

#endif  // PIER_COMMON_BLOOM_H_
