#ifndef PPSM_MATCH_MATCH_SET_H_
#define PPSM_MATCH_MATCH_SET_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "util/status.h"

namespace ppsm {

/// A set of subgraph matches with a fixed arity: each row is a tuple of data
/// vertex ids, one per query vertex of the (implicit) column order. Stored
/// flat (row-major) for cache friendliness and cheap serialization — match
/// sets are what travels from the cloud back to the client (the paper's Rin,
/// §4.2.1), so their byte size is charged by the simulated channel.
class MatchSet {
 public:
  MatchSet() = default;
  explicit MatchSet(size_t arity) : arity_(arity) {}

  size_t arity() const { return arity_; }
  size_t NumMatches() const { return arity_ == 0 ? 0 : flat_.size() / arity_; }
  bool empty() const { return flat_.empty(); }

  /// Appends one match; `match.size()` must equal arity().
  void Append(std::span<const VertexId> match);
  /// Appends every row of `other` (same arity). One memcpy-sized insert —
  /// this is how per-worker buffers of the parallel matcher/join are
  /// concatenated back together.
  void AppendAll(const MatchSet& other);
  /// Pre-sizes the flat storage for `rows` additional matches.
  void ReserveAdditional(size_t rows);
  /// Row accessor.
  std::span<const VertexId> Get(size_t row) const;

  /// Sorts rows lexicographically and removes exact duplicates.
  void SortDedup();
  /// Rewrites every id v in place to `map[v]` (e.g. slice-local or
  /// Go-local ids to Gk ids); every id must be below `map.size()`.
  void RemapIds(std::span<const VertexId> map);

  /// New match set keeping only `columns` (indices into this set's arity,
  /// in the given order), deduplicated. Used e.g. to strip the imaginary
  /// edge-vertex columns from matches over reified edge-attributed graphs
  /// (graph/edge_attributes.h) before presenting results.
  MatchSet Project(const std::vector<size_t>& columns) const;

  /// True iff the row-tuple has no repeated vertex (the injectivity
  /// requirement of Def. 2; paper Algorithm 2 lines 10-12).
  static bool HasDuplicateVertices(std::span<const VertexId> match);

  /// Approximate heap footprint (communication accounting uses Serialize()).
  size_t MemoryBytes() const { return flat_.capacity() * sizeof(VertexId); }

  std::vector<uint8_t> Serialize() const;
  static Result<MatchSet> Deserialize(std::span<const uint8_t> bytes);

  /// Multiset equality up to row order (for tests): both sides are copied,
  /// sorted and compared.
  static bool EquivalentUnordered(const MatchSet& a, const MatchSet& b);

  friend bool operator==(const MatchSet& a, const MatchSet& b) {
    return a.arity_ == b.arity_ && a.flat_ == b.flat_;
  }

 private:
  size_t arity_ = 0;
  std::vector<VertexId> flat_;
};

}  // namespace ppsm

#endif  // PPSM_MATCH_MATCH_SET_H_
