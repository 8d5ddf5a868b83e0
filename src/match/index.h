#ifndef PPSM_MATCH_INDEX_H_
#define PPSM_MATCH_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "util/bitvector.h"

namespace ppsm {

/// The cloud's offline query index (paper §4.2.1, Fig. 7), bit vectors over
/// the candidate star centers, one per attribute:
///
///  * VBV (Vertex Bit Vector): one bit vector per label group — bit c is set
///    iff center c carries that group. ANDing the center's required groups
///    yields the candidate vector α of Algorithm 1 line 4. We additionally
///    keep one VBV per vertex *type* (the paper folds the type check into
///    "share the same vertex type"; a bit vector makes it the same AND).
///
///  * LBV (Neighbor Label Bit Vector), stored transposed: the paper keeps
///    one bit vector over groups per center; we keep one bit vector over
///    centers per group (NBV) — bit c set iff some neighbor of center c
///    carries group g — plus its type-space twin. Line 6's subset test
///    LBV(va) ⊇ R then becomes va ∈ ⋂_{g∈R} NBV[g], so lines 4 and 6 are a
///    single word-parallel AND followed by one set-bit scan.
///
/// Centers are ids [0, num_centers): for Go that is the B1 prefix (paper:
/// "the corresponding bit in the VBV for a vertex v ∈ B1"); for the BAS
/// baseline it is all of Gk. Neighbor scans cover the whole graph, so N1
/// vertices still contribute to the NBVs.
class CloudIndex {
 public:
  CloudIndex() = default;

  /// Builds the index. `num_types` / `num_groups` size the bit spaces;
  /// vertex types and labels (= group ids) beyond those bounds are ignored.
  /// `num_threads > 1` parallelizes the vertex scan over 64-vertex blocks
  /// (each block owns a disjoint 64-bit word of every shared bit vector, so
  /// the workers never touch the same word). Fails with InvalidArgument
  /// when `num_centers` exceeds the graph's vertex count — a typed error
  /// rather than an assert, because the center count comes from
  /// snapshot/config surfaces that Release builds (NDEBUG) must still
  /// validate.
  static Result<CloudIndex> Build(const AttributedGraph& graph,
                                  size_t num_centers, size_t num_types,
                                  size_t num_groups, size_t num_threads = 1);

  size_t num_centers() const { return num_centers_; }
  size_t num_types() const { return type_vbv_.size(); }
  size_t num_groups() const { return group_vbv_.size(); }

  const BitVector& GroupVbv(LabelId group) const { return group_vbv_[group]; }
  const BitVector& TypeVbv(VertexTypeId type) const {
    return type_vbv_[type];
  }

  /// Transposed LBV: bit c is set iff center c has a neighbor carrying
  /// `group` (resp. `type`).
  const BitVector& NeighborGroupVbv(LabelId group) const {
    return neighbor_group_vbv_[group];
  }
  const BitVector& NeighborTypeVbv(VertexTypeId type) const {
    return neighbor_type_vbv_[type];
  }

  /// Leaf-compatibility VBVs: the same per-group / per-type bit vectors
  /// extended over ALL graph vertices, not just the candidate centers. Star
  /// and unit leaves can bind any vertex, so the per-query auxiliary graph
  /// (match/aux_graph.h) builds each compatibility class by ANDing these
  /// instead of re-scanning the CSR attribute pools — the full-graph scan is
  /// paid once per hosted graph instead of once per query.
  const BitVector& LeafGroupVbv(LabelId group) const {
    return leaf_group_vbv_[group];
  }
  const BitVector& LeafTypeVbv(VertexTypeId type) const {
    return leaf_type_vbv_[type];
  }
  /// Posting list of `group`: the ascending ids of every graph vertex
  /// carrying it (the set bits of LeafGroupVbv). The aux graph lists a
  /// sparse class by filtering its smallest group's postings through the
  /// class bitmap instead of scanning the bitmap.
  std::span<const VertexId> GroupPostings(LabelId group) const {
    return group_postings_[group];
  }
  /// Vertex count the leaf VBVs span (0 for a default-constructed index) —
  /// QueryAuxGraph::Build uses it to confirm the index matches its data
  /// graph before trusting the leaf VBVs.
  size_t num_leaf_vertices() const { return num_leaf_vertices_; }

  /// Candidate centers for a star rooted at query vertex `q` of `qo`
  /// (Algorithm 1 lines 4-6): the centers carrying all of q's types and
  /// groups whose neighbors carry every type and group of q's neighbors,
  /// i.e. TypeVbv ∧ GroupVbv over q's own attributes ∧ NeighborTypeVbv ∧
  /// NeighborGroupVbv over its neighbors' attributes. Ascending; empty when
  /// any of those ids lies outside the index's bit spaces.
  std::vector<VertexId> CandidateCenters(const AttributedGraph& qo,
                                         VertexId q) const;

  /// Total index footprint in bytes (paper Fig. 13 reports index size).
  size_t MemoryBytes() const;

 private:
  size_t num_centers_ = 0;
  size_t num_leaf_vertices_ = 0;
  std::vector<BitVector> group_vbv_;           // [group] -> over centers.
  std::vector<BitVector> type_vbv_;            // [type]  -> over centers.
  std::vector<BitVector> neighbor_group_vbv_;  // [group] -> over centers.
  std::vector<BitVector> neighbor_type_vbv_;   // [type]  -> over centers.
  std::vector<BitVector> leaf_group_vbv_;      // [group] -> over vertices.
  std::vector<BitVector> leaf_type_vbv_;       // [type]  -> over vertices.
  std::vector<std::vector<VertexId>> group_postings_;  // [group] -> sorted.
};

/// One query's candidate space over one index: the root candidates
/// (CloudIndex::CandidateCenters) of each query vertex, computed on first
/// read and kept for the rest of the query, so Algorithm 1's filter runs
/// once per query vertex however many planner estimates and units read it.
/// The cloud builds one per query and hosted index; the planner reads every
/// vertex, the matcher only the unit roots (all a plan-cache hit pays for).
/// Not thread-safe: read a parallel phase's vertices before it starts.
class RootCandidates {
 public:
  /// Both arguments must outlive this object.
  RootCandidates(const CloudIndex& index, const AttributedGraph& qo)
      : index_(&index), qo_(&qo), lists_(qo.NumVertices()),
        computed_(qo.NumVertices(), 0) {}

  /// Root candidates of query vertex `q`, ascending. The reference stays
  /// valid for this object's lifetime.
  const std::vector<VertexId>& Of(VertexId q);

  const CloudIndex& index() const { return *index_; }
  const AttributedGraph& query() const { return *qo_; }

 private:
  const CloudIndex* index_;
  const AttributedGraph* qo_;
  std::vector<std::vector<VertexId>> lists_;  // [query vertex] -> roots.
  std::vector<uint8_t> computed_;             // [query vertex] -> filled.
};

}  // namespace ppsm

#endif  // PPSM_MATCH_INDEX_H_
