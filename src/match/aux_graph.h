#ifndef PPSM_MATCH_AUX_GRAPH_H_
#define PPSM_MATCH_AUX_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "util/bitvector.h"

namespace ppsm {

class CloudIndex;

/// Query-local auxiliary graph (GraphMini-style, see DESIGN.md §15): the
/// per-query-vertex compatibility relation of matcher_internal::LeafCompatible
/// — type-set + label-group containment against the data graph — computed
/// ONCE per query and frozen, so the matcher's inner loops stop re-deriving
/// it per (candidate, neighbor, slot) triple with two containment scans.
///
/// Query vertices with identical (types, labels) signatures share one
/// *compatibility class*; each class stores
///  * a BitVector over data vertices (O(1) membership), and
///  * — when the class is small enough to ever beat a bitmap-filter walk
///    (see ClassMaterialized) — the same set materialized as a sorted
///    candidate list: ascending and duplicate-free, i.e. a valid input to
///    util/intersect.h, which is the point: leaf/slot enumeration becomes
///    intersect(data-adjacency(parent), Candidates(slot)) and, because the
///    intersection of two ascending sequences is their ascending common
///    subsequence, enumerates exactly the vertices the filter-while-walking
///    loop would have, in exactly the same order (the byte-identity
///    contract).
///
/// Instances are immutable after Build() and shared read-only across all
/// units, chunks and threads of one query.
class QueryAuxGraph {
 public:
  QueryAuxGraph() = default;

  /// Builds the per-query classes. With `index` (the CloudIndex hosted for
  /// `data`), each class bitmap is an AND of the index's precomputed leaf
  /// VBVs — O(classes × constraints) word operations, no per-query graph
  /// scan — and a materialized class with a group is listed by filtering
  /// that class's shortest group posting list through its bitmap rather
  /// than by scanning the bitmap. Every other class takes a containment
  /// scan over the data vertices: all classes without an index (nullptr,
  /// or one whose leaf VBVs do not span `data`'s vertices), and classes
  /// whose signature mentions an id outside the index's bit spaces (the
  /// index ignores such ids, but byte-identity with
  /// matcher_internal::LeafCompatible must not). `num_threads > 1`
  /// parallelizes the scan over 64-aligned data-vertex blocks (each block
  /// owns a disjoint uint64 word of every class bitmap, exactly the
  /// CloudIndex::Build trick, so workers never touch the same word).
  static QueryAuxGraph Build(const AttributedGraph& data,
                             const AttributedGraph& qo, size_t num_threads = 1,
                             const CloudIndex* index = nullptr);

  /// Number of distinct (types, labels) signatures among qo's vertices.
  size_t NumClasses() const { return class_candidates_.size(); }

  /// Compatibility class of query vertex `qv`.
  size_t ClassOf(VertexId qv) const { return class_of_[qv]; }

  /// Materialization cap over a data graph of `num_data` vertices: a class
  /// gets a candidate list iff it has at most this many members. A list
  /// only ever beats the bitmap-filter walk when it is several times
  /// smaller than the adjacency it intersects (the unit matcher's
  /// SlotCandidates uses kListWalkCrossover = 4), so a class spanning a
  /// large fraction of the data graph can never win — its O(candidates)
  /// materialization would be pure build cost. The constant term keeps
  /// small graphs (tests, benches) fully materialized.
  static size_t MaterializeCap(size_t num_data);

  /// True when class `cls` has a materialized candidate list. Lists exist
  /// only for classes small enough that intersecting them against a vertex
  /// adjacency could ever beat an O(degree) bitmap-filter walk; a class
  /// spanning a large fraction of the data graph never can, so Build skips
  /// its O(candidates) materialization and the matcher walks the adjacency
  /// testing the class bitmap instead (same ascending output either way).
  bool ClassMaterialized(size_t cls) const { return materialized_[cls] != 0; }

  /// Membership bitmap of class `cls` over data vertices.
  const BitVector& ClassBits(size_t cls) const { return class_bits_[cls]; }

  /// Sorted, duplicate-free data vertices compatible with class `cls`.
  /// Empty — distinct from "no compatible vertex" — when
  /// !ClassMaterialized(cls); check before trusting.
  std::span<const VertexId> ClassCandidates(size_t cls) const {
    return class_candidates_[cls];
  }

  /// Sorted, duplicate-free data vertices compatible with query vertex `qv`
  /// (== LeafCompatible(qo, qv, data, ·) over all of `data`); empty when the
  /// vertex's class is not materialized.
  std::span<const VertexId> Candidates(VertexId qv) const {
    return class_candidates_[class_of_[qv]];
  }

  /// O(1) bitmap test: is data vertex `dv` compatible with query vertex
  /// `qv`?
  bool Compatible(VertexId qv, VertexId dv) const {
    return class_bits_[class_of_[qv]].Test(dv);
  }

  /// Heap footprint in bytes (bitmaps + candidate lists); reported next to
  /// the build time in query profiles so aux-graph cost stays observable.
  size_t MemoryBytes() const;

 private:
  std::vector<size_t> class_of_;  // [query vertex] -> class id.
  std::vector<BitVector> class_bits_;  // [class] -> bits over data vertices.
  std::vector<std::vector<VertexId>> class_candidates_;  // [class] -> sorted.
  std::vector<uint8_t> materialized_;  // [class] -> has a candidate list.
};

}  // namespace ppsm

#endif  // PPSM_MATCH_AUX_GRAPH_H_
