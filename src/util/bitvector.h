#ifndef PPSM_UTIL_BITVECTOR_H_
#define PPSM_UTIL_BITVECTOR_H_

#include <bit>
#include <cassert>
#include <cstdint>
#include <string>
#include <vector>

namespace ppsm {

/// Fixed-width bit vector backing the VBV / LBV index structures (paper
/// §4.2.1 Fig. 7). Sized at construction; supports the bulk bitwise ops the
/// star-matching algorithm needs (AND, set-bit scan) at word-at-a-time
/// speed.
class BitVector {
 public:
  static constexpr size_t kWordBits = 64;

  BitVector() = default;
  /// All-zero vector of `num_bits` bits.
  explicit BitVector(size_t num_bits);

  size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  /// Sets bit `i` (to `value`). `i` must be < size().
  void Set(size_t i, bool value = true) {
    assert(i < num_bits_);
    const uint64_t mask = uint64_t{1} << (i % kWordBits);
    if (value) {
      words_[i / kWordBits] |= mask;
    } else {
      words_[i / kWordBits] &= ~mask;
    }
  }
  /// Reads bit `i`. `i` must be < size().
  bool Test(size_t i) const {
    assert(i < num_bits_);
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1;
  }
  /// Clears all bits.
  void Reset();
  /// Sets all bits, word-at-a-time; the unused high bits of the last word
  /// stay zero.
  void SetAll();

  /// Number of set bits.
  size_t Count() const;
  /// True iff no bit is set.
  bool None() const { return Count() == 0; }

  /// this &= other. Sizes must match.
  BitVector& operator&=(const BitVector& other);
  /// this |= other. Sizes must match.
  BitVector& operator|=(const BitVector& other);

  /// Invokes `fn(i)` for every set bit i, ascending. A template so the
  /// callback inlines into the scan: no indirect call per set bit.
  template <typename Fn>
  void ForEachSetBit(Fn&& fn) const {
    for (size_t wi = 0; wi < words_.size(); ++wi) {
      for (uint64_t w = words_[wi]; w != 0; w &= w - 1) {
        fn(wi * kWordBits + static_cast<size_t>(std::countr_zero(w)));
      }
    }
  }

  /// Set bits as a vector, ascending.
  std::vector<size_t> ToIndices() const;

  /// Heap footprint in bytes (for index-size accounting, paper Fig. 13).
  size_t MemoryBytes() const { return words_.size() * sizeof(uint64_t); }

  /// "0101..." string, LSB (bit 0) first. For tests and debugging.
  std::string ToString() const;

  friend bool operator==(const BitVector& a, const BitVector& b) {
    return a.num_bits_ == b.num_bits_ && a.words_ == b.words_;
  }

  friend BitVector operator&(BitVector a, const BitVector& b) {
    a &= b;
    return a;
  }
  friend BitVector operator|(BitVector a, const BitVector& b) {
    a |= b;
    return a;
  }

 private:
  size_t num_bits_ = 0;
  std::vector<uint64_t> words_;
};

}  // namespace ppsm

#endif  // PPSM_UTIL_BITVECTOR_H_
