#ifndef PPSM_MATCH_JOIN_INDEX_H_
#define PPSM_MATCH_JOIN_INDEX_H_

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

namespace ppsm {

/// Build side of one join step: rows 0..n-1 bucketed by their 64-bit key
/// with a counting sort. A bucket lists its rows in ascending row id and
/// every entry keeps its full key, so a probe that skips the entries whose
/// key differs from its own visits exactly the rows a map from key to row
/// list would yield, in the same order — from two flat arrays, with no
/// allocation per key.
class JoinIndex {
 public:
  struct Entry {
    uint64_t key;
    uint32_t row;
  };

  /// Indexes row r under keys[r], with about one bucket per row.
  explicit JoinIndex(std::span<const uint64_t> keys)
      : bucket_bits_(keys.size() <= 1 ? 0 : std::bit_width(keys.size() - 1)),
        offsets_((size_t{1} << bucket_bits_) + 1, 0),
        entries_(keys.size()) {
    for (const uint64_t key : keys) ++offsets_[Bucket(key) + 1];
    for (size_t b = 1; b < offsets_.size(); ++b) offsets_[b] += offsets_[b - 1];
    std::vector<uint32_t> fill(offsets_.begin(), offsets_.end() - 1);
    for (size_t r = 0; r < keys.size(); ++r) {
      entries_[fill[Bucket(keys[r])]++] = {keys[r], static_cast<uint32_t>(r)};
    }
  }

  /// The bucket `key` falls in: a superset of its rows, ascending by row.
  /// Callers skip the entries whose key differs.
  std::span<const Entry> Candidates(uint64_t key) const {
    const size_t b = Bucket(key);
    return {entries_.data() + offsets_[b], entries_.data() + offsets_[b + 1]};
  }

 private:
  /// Fibonacci hashing: the top bits of key * 2^64/phi.
  size_t Bucket(uint64_t key) const {
    return bucket_bits_ == 0
               ? 0
               : static_cast<size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                     (64 - bucket_bits_));
  }

  int bucket_bits_;
  std::vector<uint32_t> offsets_;  // Bucket b holds entries_[b, b + 1).
  std::vector<Entry> entries_;
};

}  // namespace ppsm

#endif  // PPSM_MATCH_JOIN_INDEX_H_
