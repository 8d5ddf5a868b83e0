#ifndef PPSM_UTIL_HASH_H_
#define PPSM_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <utility>

namespace ppsm {

/// 64-bit avalanche mix (the finalizer of MurmurHash3). Spreads low-entropy
/// integer keys (vertex ids) across the hash space.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// Order-dependent combine, boost::hash_combine style but 64-bit.
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

/// Canonical key for an undirected edge: order-insensitive, collision-free
/// for 32-bit vertex ids (edge dedup sets and packed edge batches).
inline uint64_t UndirectedEdgeKey(uint32_t u, uint32_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<uint64_t>(u) << 32) | v;
}

/// Hash functor for 64-bit edge keys in unordered containers.
struct EdgeKeyHash {
  size_t operator()(uint64_t key) const {
    return static_cast<size_t>(Mix64(key));
  }
};

}  // namespace ppsm

#endif  // PPSM_UTIL_HASH_H_
