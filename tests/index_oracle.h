// Candidate-filter oracle for match/index: the per-center LBV layout that
// CloudIndex kept before it stored the LBVs transposed — one bit vector over
// groups (and one over types) per center, recording which attributes the
// center's neighbors carry — and Algorithm 1's line 4-6 filter over it:
// alpha from the center VBVs, then a per-center subset test
// LBV(va) ⊇ LBV(q). CloudIndex::CandidateCenters must return exactly its
// candidates.

#ifndef PPSM_TESTS_INDEX_ORACLE_H_
#define PPSM_TESTS_INDEX_ORACLE_H_

#include <vector>

#include "graph/attributed_graph.h"
#include "util/bitvector.h"

namespace ppsm::index_oracle {

class PerCenterLbvIndex {
 public:
  /// Same bit spaces as CloudIndex::Build: ids at or past `num_types` /
  /// `num_groups` are ignored.
  PerCenterLbvIndex(const AttributedGraph& graph, size_t num_centers,
                    size_t num_types, size_t num_groups)
      : num_centers_(num_centers),
        group_vbv_(num_groups, BitVector(num_centers)),
        type_vbv_(num_types, BitVector(num_centers)),
        neighbor_groups_(num_centers, BitVector(num_groups)),
        neighbor_types_(num_centers, BitVector(num_types)) {
    for (VertexId v = 0; v < num_centers; ++v) {
      for (const LabelId g : graph.Labels(v)) {
        if (g < num_groups) group_vbv_[g].Set(v);
      }
      for (const VertexTypeId t : graph.Types(v)) {
        if (t < num_types) type_vbv_[t].Set(v);
      }
      for (const VertexId u : graph.Neighbors(v)) {
        for (const LabelId g : graph.Labels(u)) {
          if (g < num_groups) neighbor_groups_[v].Set(g);
        }
        for (const VertexTypeId t : graph.Types(u)) {
          if (t < num_types) neighbor_types_[v].Set(t);
        }
      }
    }
  }

  /// Groups carried by some neighbor of `center`, ascending.
  std::vector<size_t> NeighborGroups(VertexId center) const {
    return neighbor_groups_[center].ToIndices();
  }
  /// Types carried by some neighbor of `center`, ascending.
  std::vector<size_t> NeighborTypes(VertexId center) const {
    return neighbor_types_[center].ToIndices();
  }

  std::vector<VertexId> CandidateCenters(const AttributedGraph& qo,
                                         VertexId q) const {
    // alpha := AND of the type VBVs and group VBVs required by q (line 4).
    BitVector alpha(num_centers_);
    alpha.SetAll();
    for (const VertexTypeId t : qo.Types(q)) {
      if (t >= type_vbv_.size()) return {};
      alpha &= type_vbv_[t];
    }
    for (const LabelId g : qo.Labels(q)) {
      if (g >= group_vbv_.size()) return {};
      alpha &= group_vbv_[g];
    }
    // Required neighborhood signature of q (line 6's LBV(vi)).
    BitVector required_groups(group_vbv_.size());
    BitVector required_types(type_vbv_.size());
    for (const VertexId nq : qo.Neighbors(q)) {
      for (const LabelId g : qo.Labels(nq)) {
        if (g >= group_vbv_.size()) return {};
        required_groups.Set(g);
      }
      for (const VertexTypeId t : qo.Types(nq)) {
        if (t >= type_vbv_.size()) return {};
        required_types.Set(t);
      }
    }
    // Line 6: LBV(va) ⊇ LBV(vi), per center.
    std::vector<VertexId> candidates;
    alpha.ForEachSetBit([&](size_t va) {
      if ((neighbor_groups_[va] & required_groups) == required_groups &&
          (neighbor_types_[va] & required_types) == required_types) {
        candidates.push_back(static_cast<VertexId>(va));
      }
    });
    return candidates;
  }

 private:
  size_t num_centers_;
  std::vector<BitVector> group_vbv_;        // [group] -> bits over centers.
  std::vector<BitVector> type_vbv_;         // [type]  -> bits over centers.
  std::vector<BitVector> neighbor_groups_;  // [center] -> bits over groups.
  std::vector<BitVector> neighbor_types_;   // [center] -> bits over types.
};

}  // namespace ppsm::index_oracle

#endif  // PPSM_TESTS_INDEX_ORACLE_H_
