#include "common/bloom.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/hash.h"

namespace pier {

BloomFilter::BloomFilter(size_t bits, int num_hashes)
    : words_((std::max<size_t>(bits, 64) + 63) / 64, 0),
      num_hashes_(std::clamp(num_hashes, 1, 16)) {}

BloomFilter BloomFilter::ForEntries(size_t expected_entries) {
  // ~9.6 bits/key and 7 hashes gives about 1% FPP.
  size_t bits = std::max<size_t>(64, expected_entries * 10);
  return BloomFilter(bits, 7);
}

void BloomFilter::Add(uint64_t element_hash) {
  uint64_t h1 = element_hash;
  uint64_t h2 = Mix64(element_hash ^ 0xdeadbeefcafef00dull) | 1;
  size_t nbits = bit_count();
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % nbits;
    words_[bit / 64] |= (1ull << (bit % 64));
  }
}

bool BloomFilter::MayContain(uint64_t element_hash) const {
  uint64_t h1 = element_hash;
  uint64_t h2 = Mix64(element_hash ^ 0xdeadbeefcafef00dull) | 1;
  size_t nbits = bit_count();
  for (int i = 0; i < num_hashes_; ++i) {
    uint64_t bit = (h1 + static_cast<uint64_t>(i) * h2) % nbits;
    if ((words_[bit / 64] & (1ull << (bit % 64))) == 0) return false;
  }
  return true;
}

Status BloomFilter::UnionWith(const BloomFilter& other) {
  if (other.words_.size() != words_.size() ||
      other.num_hashes_ != num_hashes_) {
    return Status::InvalidArgument("bloom filter geometry mismatch");
  }
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return Status::OK();
}

size_t BloomFilter::PopCount() const {
  size_t count = 0;
  for (uint64_t w : words_) count += std::popcount(w);
  return count;
}

double BloomFilter::EstimatedFpp(size_t inserted) const {
  double m = static_cast<double>(bit_count());
  double k = num_hashes_;
  double n = static_cast<double>(inserted);
  double per_bit = 1.0 - std::exp(-k * n / m);
  return std::pow(per_bit, k);
}

void BloomFilter::Serialize(Writer* w) const {
  w->PutVarint32(static_cast<uint32_t>(words_.size()));
  w->PutU8(static_cast<uint8_t>(num_hashes_));
  for (uint64_t word : words_) w->PutFixed64(word);
}

Status BloomFilter::Deserialize(Reader* r, BloomFilter* out) {
  uint32_t nwords = 0;
  uint8_t k = 0;
  PIER_RETURN_IF_ERROR(r->GetVarint32(&nwords));
  PIER_RETURN_IF_ERROR(r->GetU8(&k));
  if (nwords == 0 || nwords > (1u << 24)) {
    return Status::Corruption("bloom filter size out of range");
  }
  // The words must be there before the filter is allocated for them.
  if (r->remaining() / 8 < nwords) {
    return Status::Corruption("bloom filter truncated");
  }
  BloomFilter filter(static_cast<size_t>(nwords) * 64, k);
  for (uint32_t i = 0; i < nwords; ++i) {
    PIER_RETURN_IF_ERROR(r->GetFixed64(&filter.words_[i]));
  }
  *out = std::move(filter);
  return Status::OK();
}

}  // namespace pier
