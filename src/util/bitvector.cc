#include "util/bitvector.h"

#include <cassert>

namespace ppsm {

BitVector::BitVector(size_t num_bits)
    : num_bits_(num_bits), words_((num_bits + kWordBits - 1) / kWordBits, 0) {}

void BitVector::Reset() {
  for (auto& w : words_) w = 0;
}

void BitVector::SetAll() {
  if (words_.empty()) return;
  for (auto& w : words_) w = ~uint64_t{0};
  // Keep the unused high bits of the last word zero so Count(), ==, and
  // Contains() stay consistent with per-bit Set calls.
  const size_t tail = num_bits_ % kWordBits;
  if (tail != 0) words_.back() = (uint64_t{1} << tail) - 1;
}

size_t BitVector::Count() const {
  // SWAR popcount: a portable x86-64 build (no -mpopcnt) turns
  // std::popcount into a library call per word; these shifts and adds
  // stay inline and vectorize.
  uint64_t count = 0;
  for (uint64_t w : words_) {
    w -= (w >> 1) & 0x5555555555555555ULL;
    w = (w & 0x3333333333333333ULL) + ((w >> 2) & 0x3333333333333333ULL);
    w = (w + (w >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    w += w >> 8;
    w += w >> 16;
    w += w >> 32;
    count += w & 0x7f;
  }
  return static_cast<size_t>(count);
}

BitVector& BitVector::operator&=(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

BitVector& BitVector::operator|=(const BitVector& other) {
  assert(num_bits_ == other.num_bits_);
  for (size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

std::vector<size_t> BitVector::ToIndices() const {
  std::vector<size_t> out;
  out.reserve(Count());
  ForEachSetBit([&out](size_t i) { out.push_back(i); });
  return out;
}

std::string BitVector::ToString() const {
  std::string s(num_bits_, '0');
  ForEachSetBit([&s](size_t i) { s[i] = '1'; });
  return s;
}

}  // namespace ppsm
