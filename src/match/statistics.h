#ifndef PPSM_MATCH_STATISTICS_H_
#define PPSM_MATCH_STATISTICS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "kauto/outsourced_graph.h"
#include "match/query_unit.h"

namespace ppsm {

/// The summary statistics the cloud needs to evaluate the paper's cost model
/// (§5.1 Expression 4): |V(Gk)|, D(Gk), F_Gk(j) and F^g_Gk(j,i). Built from
/// the outsourced graph's B1 block, whose distribution equals Gk's by the
/// symmetry of the k-automorphic graph (every block is an automorphic image
/// of B1) — the cloud never needs Gk itself.
struct GkStatistics {
  size_t num_gk_vertices = 0;  // |V(Gk)| = k * |B1|.
  double avg_degree = 0.0;     // D(Gk); B1 degrees in Go are full Gk degrees.
  uint32_t k = 1;
  /// F_Gk(j): fraction of vertices whose type set contains type j.
  std::vector<double> type_freq;
  /// F^g_Gk(j, i): among vertices with group i's owning type, the fraction
  /// carrying group i. Indexed by group id.
  std::vector<double> group_freq;
  /// Owning type of each group id (shipped with the upload; types and
  /// attributes are non-sensitive per §2.3).
  std::vector<VertexTypeId> type_of_group;
};

/// Builds statistics from Go's B1 portion. `type_of_group[g]` gives each
/// group id's owning type; `num_types` sizes the type-frequency table.
GkStatistics ComputeGkStatistics(const OutsourcedGraph& go, size_t num_types,
                                 std::vector<VertexTypeId> type_of_group);

/// Same statistics computed over a full graph (used by the BAS baseline,
/// whose cloud holds Gk itself). `k` scales the estimator's B1 term.
GkStatistics ComputeGraphStatistics(const AttributedGraph& graph, uint32_t k,
                                    size_t num_types,
                                    std::vector<VertexTypeId> type_of_group);

/// Expression 4: estimated |R(S)| for the star of `qo` rooted at `center`.
/// First factor: expected number of B1 vertices type- and group-compatible
/// with the center; second: D(Gk)^Dc discounted by the neighbors'
/// compatibility probability. Never returns less than a small positive
/// epsilon so ILP costs stay meaningful.
double EstimateStarCardinality(const GkStatistics& stats,
                               const AttributedGraph& qo, VertexId center);

/// Estimated |R(U)| for a generalized decomposition unit. Star units
/// delegate to EstimateStarCardinality bitwise (the unit's depth-1 children
/// are exactly the root's query neighbors, in adjacency order). Deeper units
/// compose the star estimate of the root's level with one edge-conditional
/// extension factor per depth>=2 vertex w:
///   max(D(Gk) - 1, 0) * p(w)
/// where p(w) multiplies w's type and group frequencies (§5.1 independence)
/// and the -1 discounts the tree edge already spent reaching w's parent.
/// Factors multiply in BFS slot order, so the accumulation is deterministic
/// and reproducible across the unsharded server and the cluster coordinator.
double EstimateUnitCardinality(const GkStatistics& stats,
                               const AttributedGraph& qo,
                               const QueryUnit& unit);

/// Candidate-aware refinement of the unit estimate. The paper approximates
/// a candidate root's degree with D(Gk) ("we use the average degree of
/// vertices in Gk to estimate the degree of vertex v", §5.1); on power-law
/// graphs that underestimates hub-rooted units by orders of magnitude, so
/// here the root level is summed over the *actual* candidate roots with
/// each candidate's true degree:
///   est = sum_{va in alpha(root)} prod_{l=1..Dc} max(deg(va)-l, 0) * p_l
/// where p_l is leaf l's per-neighbor compatibility probability from the
/// group/type frequencies. Deeper vertices use the same extension factors
/// as the statistics-only overload — their matched data vertices are
/// unknown at planning time. `root_degrees` lists the full Gk degree of
/// every index candidate of the unit's root in ascending candidate id
/// order, which is the summation order: the unsharded server's shortlist
/// and the sharded coordinator's merge of the shards' owned shortlists are
/// the same list, so both reproduce the same estimate bit for bit.
double EstimateUnitCardinality(const GkStatistics& stats,
                               const AttributedGraph& qo,
                               const QueryUnit& unit,
                               std::span<const size_t> root_degrees);

}  // namespace ppsm

#endif  // PPSM_MATCH_STATISTICS_H_
