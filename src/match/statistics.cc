#include "match/statistics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

namespace ppsm {

namespace {

GkStatistics ComputeOverVertices(const AttributedGraph& graph,
                                 size_t num_centers, size_t gk_vertices,
                                 uint32_t k, size_t num_types,
                                 std::vector<VertexTypeId> type_of_group) {
  GkStatistics stats;
  stats.num_gk_vertices = gk_vertices;
  stats.k = k;
  stats.type_of_group = std::move(type_of_group);
  stats.type_freq.assign(num_types, 0.0);
  stats.group_freq.assign(stats.type_of_group.size(), 0.0);
  if (num_centers == 0) return stats;

  std::vector<size_t> type_count(num_types, 0);
  std::vector<size_t> group_count(stats.type_of_group.size(), 0);
  size_t degree_sum = 0;
  for (VertexId v = 0; v < num_centers; ++v) {
    degree_sum += graph.Degree(v);
    for (const VertexTypeId t : graph.Types(v)) {
      if (t < num_types) ++type_count[t];
    }
    for (const LabelId g : graph.Labels(v)) {
      if (g < group_count.size()) ++group_count[g];
    }
  }
  stats.avg_degree =
      static_cast<double>(degree_sum) / static_cast<double>(num_centers);
  for (size_t t = 0; t < num_types; ++t) {
    stats.type_freq[t] = static_cast<double>(type_count[t]) /
                         static_cast<double>(num_centers);
  }
  for (size_t g = 0; g < group_count.size(); ++g) {
    const VertexTypeId owner = stats.type_of_group[g];
    const size_t owner_count = owner < num_types ? type_count[owner] : 0;
    stats.group_freq[g] =
        owner_count == 0 ? 0.0
                         : static_cast<double>(group_count[g]) /
                               static_cast<double>(owner_count);
  }
  return stats;
}

}  // namespace

GkStatistics ComputeGkStatistics(const OutsourcedGraph& go, size_t num_types,
                                 std::vector<VertexTypeId> type_of_group) {
  // Only the B1 prefix mirrors Gk's distribution; N1 vertices are a biased
  // sample (neighbors of B1) and are excluded.
  return ComputeOverVertices(go.graph, go.num_b1, go.num_b1 * go.k, go.k,
                             num_types, std::move(type_of_group));
}

GkStatistics ComputeGraphStatistics(const AttributedGraph& graph, uint32_t k,
                                    size_t num_types,
                                    std::vector<VertexTypeId> type_of_group) {
  return ComputeOverVertices(graph, graph.NumVertices(), graph.NumVertices(),
                             k, num_types, std::move(type_of_group));
}

double EstimateStarCardinality(const GkStatistics& stats,
                               const AttributedGraph& qo, VertexId center) {
  // Star vertex set: the center plus its query neighbors.
  std::vector<VertexId> star{center};
  const auto neighbors = qo.Neighbors(center);
  star.insert(star.end(), neighbors.begin(), neighbors.end());
  const auto star_size = static_cast<double>(star.size());

  // Sparse per-type and per-group counts over the star.
  std::unordered_map<VertexTypeId, size_t> type_count;
  std::unordered_map<LabelId, size_t> group_count;
  for (const VertexId v : star) {
    for (const VertexTypeId t : qo.Types(v)) ++type_count[t];
    for (const LabelId g : qo.Labels(v)) ++group_count[g];
  }

  // inner[j] = sum_i F^g_Gk(j,i) * F^g_S(j,i) over groups i owned by j.
  std::unordered_map<VertexTypeId, double> inner;
  for (const auto& [g, count] : group_count) {
    if (g >= stats.group_freq.size()) continue;
    const VertexTypeId owner = stats.type_of_group[g];
    const auto it = type_count.find(owner);
    if (it == type_count.end() || it->second == 0) continue;
    inner[owner] += stats.group_freq[g] * static_cast<double>(count) /
                    static_cast<double>(it->second);
  }

  // term = sum_j F_Gk(j) F_S(j) inner[j]. Types with no group constraint in
  // the star still multiply F_Gk * F_S by an unconstrained inner sum of 1
  // (no label filter means every same-type vertex qualifies on labels).
  double term = 0.0;
  for (const auto& [t, count] : type_count) {
    if (t >= stats.type_freq.size()) continue;
    const double fs = static_cast<double>(count) / star_size;
    const auto inner_it = inner.find(t);
    const double inner_term =
        inner_it == inner.end() ? 1.0 : inner_it->second;
    term += stats.type_freq[t] * fs * inner_term;
  }

  const auto dc = static_cast<double>(qo.Degree(center));
  const double estimate = std::pow(term, dc + 1.0) *
                          static_cast<double>(stats.num_gk_vertices) *
                          std::pow(stats.avg_degree, dc) /
                          static_cast<double>(stats.k);
  return std::max(estimate, 1e-6);
}

namespace {

/// Per-leaf compatibility probability for a random neighbor: product of
/// the leaf's type and group frequencies (the paper's independence
/// assumption, §5.1).
std::vector<double> LeafProbabilities(const GkStatistics& stats,
                                      const AttributedGraph& qo,
                                      VertexId center) {
  std::vector<double> leaf_prob;
  for (const VertexId leaf : qo.Neighbors(center)) {
    double p = 1.0;
    for (const VertexTypeId t : qo.Types(leaf)) {
      p *= t < stats.type_freq.size() ? stats.type_freq[t] : 0.0;
    }
    for (const LabelId g : qo.Labels(leaf)) {
      p *= g < stats.group_freq.size() ? stats.group_freq[g] : 0.0;
    }
    leaf_prob.push_back(p);
  }
  return leaf_prob;
}

/// Sum of the per-candidate search-space products, replacing the paper's
/// D(Gk)^Dc approximation with each candidate's true degree sequence
/// deg, deg-1, ...
double SumCandidateProducts(const std::vector<double>& leaf_prob,
                            std::span<const size_t> degrees) {
  double estimate = 0.0;
  for (const size_t candidate_degree : degrees) {
    double product = 1.0;
    const double degree = static_cast<double>(candidate_degree);
    for (size_t l = 0; l < leaf_prob.size(); ++l) {
      product *= std::max(degree - static_cast<double>(l), 0.0) *
                 leaf_prob[l];
    }
    estimate += product;
  }
  return std::max(estimate, 1e-6);
}

/// Product of the edge-conditional extension factors for every depth>=2
/// vertex of `unit`, in BFS slot order: max(D(Gk)-1, 0) * p(w) with p(w)
/// the type/group compatibility probability of w. 1.0 for star units.
double DeepExtensionFactor(const GkStatistics& stats,
                           const AttributedGraph& qo, const QueryUnit& unit) {
  if (unit.depth <= 1) return 1.0;
  const double branch = std::max(stats.avg_degree - 1.0, 0.0);
  std::vector<uint32_t> slot_depth(unit.vertices.size(), 0);
  double factor = 1.0;
  for (size_t i = 1; i < unit.vertices.size(); ++i) {
    slot_depth[i] = slot_depth[unit.parent[i]] + 1;
    if (slot_depth[i] < 2) continue;
    const VertexId w = unit.vertices[i];
    double p = 1.0;
    for (const VertexTypeId t : qo.Types(w)) {
      p *= t < stats.type_freq.size() ? stats.type_freq[t] : 0.0;
    }
    for (const LabelId g : qo.Labels(w)) {
      p *= g < stats.group_freq.size() ? stats.group_freq[g] : 0.0;
    }
    factor *= branch * p;
  }
  return factor;
}

}  // namespace

double EstimateUnitCardinality(const GkStatistics& stats,
                               const AttributedGraph& qo,
                               const QueryUnit& unit) {
  // The root level of a BFS unit is exactly the star rooted there, so star
  // units delegate bitwise and deeper units scale the same base estimate.
  const double base = EstimateStarCardinality(stats, qo, unit.root());
  if (unit.depth <= 1) return base;
  return std::max(base * DeepExtensionFactor(stats, qo, unit), 1e-6);
}

double EstimateUnitCardinality(const GkStatistics& stats,
                               const AttributedGraph& qo,
                               const QueryUnit& unit,
                               std::span<const size_t> root_degrees) {
  const double base = SumCandidateProducts(
      LeafProbabilities(stats, qo, unit.root()), root_degrees);
  if (unit.depth <= 1) return base;
  return std::max(base * DeepExtensionFactor(stats, qo, unit), 1e-6);
}

}  // namespace ppsm
