#include "match/decomposition.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>

#include "ilp/cover_solver.h"
#include "obs/trace.h"

namespace ppsm {

namespace {

/// Typed validation of caller-supplied cost vectors: the documented
/// preconditions are enforced, not assumed.
Status ValidateCosts(const std::vector<double>& costs, size_t expected,
                     const char* expected_what) {
  if (costs.size() != expected) {
    return Status::InvalidArgument(std::string("cost vector size disagrees "
                                               "with ") +
                                   expected_what);
  }
  for (const double c : costs) {
    if (!(c >= 0.0) || !std::isfinite(c)) {
      return Status::InvalidArgument(
          "costs must be finite and non-negative");
    }
  }
  return Status::OK();
}

/// Shared ILP assembly + solve for the generalized unit pipeline: one
/// variable per candidate unit, one constraint per query edge listing (in
/// ascending index order) the units that contain it as a *tree* edge, then
/// singleton constraints for isolated vertices. Because stars are enumerated
/// first with unit index == root id and ForEachEdge emits u < v, a stars-only
/// candidate list produces exactly the paper's per-vertex weighted vertex
/// cover model (Theorem 2).
Result<UnitDecomposition> DecomposeUnitsWithCosts(
    const AttributedGraph& qo, std::vector<QueryUnit> candidates,
    CoverIlp model) {
  std::map<std::pair<VertexId, VertexId>, std::vector<uint32_t>> edge_units;
  for (size_t i = 0; i < candidates.size(); ++i) {
    candidates[i].ForEachTreeEdge([&](VertexId u, VertexId v) {
      edge_units[{std::min(u, v), std::max(u, v)}].push_back(
          static_cast<uint32_t>(i));
    });
  }
  bool missing_edge = false;
  qo.ForEachEdge([&](VertexId u, VertexId v) {
    const auto it = edge_units.find({u, v});
    if (it == edge_units.end()) {
      missing_edge = true;
      return;
    }
    model.constraints.push_back(it->second);
  });
  if (missing_edge) {
    return Status::InvalidArgument(
        "candidate units cover no unit for some query edge");
  }
  for (VertexId v = 0; v < qo.NumVertices(); ++v) {
    if (qo.Degree(v) != 0) continue;
    std::vector<uint32_t> holders;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const auto& vs = candidates[i].vertices;
      if (std::find(vs.begin(), vs.end(), v) != vs.end()) {
        holders.push_back(static_cast<uint32_t>(i));
      }
    }
    if (holders.empty()) {
      return Status::InvalidArgument(
          "candidate units miss an isolated query vertex");
    }
    model.constraints.push_back(std::move(holders));
  }

  Result<CoverSolution> solution_or = [&] {
    PPSM_TRACE_SPAN_CAT("cloud.decompose.ilp", "query");
    return SolveCoverIlp(model);
  }();
  PPSM_ASSIGN_OR_RETURN(const CoverSolution solution,
                        std::move(solution_or));

  UnitDecomposition decomposition;
  decomposition.ilp_nodes = solution.nodes_explored;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (!solution.selected[i]) continue;
    decomposition.units.push_back(std::move(candidates[i]));
    decomposition.estimates.push_back(model.cost[i]);
    decomposition.total_cost += model.cost[i];
  }
  return decomposition;
}

}  // namespace

Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              uint32_t max_depth) {
  if (qo.NumVertices() == 0) {
    return Status::InvalidArgument("query has no vertices");
  }
  std::vector<QueryUnit> candidates = EnumerateCandidateUnits(qo, max_depth);
  CoverIlp model;
  model.cost.reserve(candidates.size());
  for (const QueryUnit& unit : candidates) {
    model.cost.push_back(EstimateUnitCardinality(stats, qo, unit));
  }
  return DecomposeUnitsWithCosts(qo, std::move(candidates),
                                 std::move(model));
}

RootDegrees ShortlistRootDegrees(const AttributedGraph& data,
                                 RootCandidates& roots) {
  RootDegrees degrees(roots.query().NumVertices());
  for (VertexId v = 0; v < degrees.size(); ++v) {
    const std::vector<VertexId>& candidates = roots.Of(v);
    degrees[v].reserve(candidates.size());
    for (const VertexId candidate : candidates) {
      degrees[v].push_back(data.Degree(candidate));
    }
  }
  return degrees;
}

RootDegrees ShortlistRootDegrees(const AttributedGraph& qo,
                                 const AttributedGraph& data,
                                 const CloudIndex& index) {
  RootCandidates roots(index, qo);
  return ShortlistRootDegrees(data, roots);
}

Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              const RootDegrees& root_degrees,
                                              uint32_t max_depth) {
  if (qo.NumVertices() == 0) {
    return Status::InvalidArgument("query has no vertices");
  }
  if (root_degrees.size() != qo.NumVertices()) {
    return Status::InvalidArgument(
        "root-degree lists disagree with the query size");
  }
  std::vector<QueryUnit> candidates = EnumerateCandidateUnits(qo, max_depth);
  CoverIlp model;
  model.cost.reserve(candidates.size());
  for (const QueryUnit& unit : candidates) {
    model.cost.push_back(EstimateUnitCardinality(stats, qo, unit,
                                                 root_degrees[unit.root()]));
  }
  return DecomposeUnitsWithCosts(qo, std::move(candidates),
                                 std::move(model));
}

Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              const AttributedGraph& data,
                                              const CloudIndex& index,
                                              uint32_t max_depth) {
  return DecomposeQueryUnits(qo, stats, ShortlistRootDegrees(qo, data, index),
                             max_depth);
}

Result<UnitDecomposition> DecomposeQueryUnitsWithCosts(
    const AttributedGraph& qo, std::vector<QueryUnit> units,
    std::vector<double> costs) {
  if (qo.NumVertices() == 0) {
    return Status::InvalidArgument("query has no vertices");
  }
  PPSM_RETURN_IF_ERROR(
      ValidateCosts(costs, units.size(), "the candidate unit count"));
  for (const QueryUnit& unit : units) {
    if (!IsValidUnit(qo, unit)) {
      return Status::InvalidArgument("malformed candidate unit");
    }
  }
  CoverIlp model;
  model.cost = std::move(costs);
  return DecomposeUnitsWithCosts(qo, std::move(units), std::move(model));
}

bool IsValidUnitDecomposition(const AttributedGraph& qo,
                              const std::vector<QueryUnit>& units) {
  std::map<std::pair<VertexId, VertexId>, bool> covered;
  std::vector<bool> present(qo.NumVertices(), false);
  for (const QueryUnit& unit : units) {
    if (!IsValidUnit(qo, unit)) return false;
    for (const VertexId v : unit.vertices) present[v] = true;
    unit.ForEachTreeEdge([&](VertexId u, VertexId v) {
      covered[{std::min(u, v), std::max(u, v)}] = true;
    });
  }
  bool ok = true;
  qo.ForEachEdge([&](VertexId u, VertexId v) {
    if (!covered.count({u, v})) ok = false;
  });
  for (VertexId v = 0; v < qo.NumVertices(); ++v) {
    if (qo.Degree(v) == 0 && !present[v]) ok = false;
  }
  return ok;
}

std::string QoSignature(const AttributedGraph& qo) {
  std::string sig;
  // |V| + per vertex three length-prefixed id lists; ~4 bytes per id.
  sig.reserve(4 + qo.NumVertices() * 24);
  const auto append_u32 = [&sig](uint32_t value) {
    for (int shift = 0; shift < 32; shift += 8) {
      sig.push_back(static_cast<char>((value >> shift) & 0xff));
    }
  };
  const auto append_list = [&](const auto& ids) {
    append_u32(static_cast<uint32_t>(ids.size()));
    for (const auto id : ids) append_u32(static_cast<uint32_t>(id));
  };
  append_u32(static_cast<uint32_t>(qo.NumVertices()));
  for (VertexId v = 0; v < qo.NumVertices(); ++v) {
    append_list(qo.Types(v));
    append_list(qo.Labels(v));
    append_list(qo.Neighbors(v));
  }
  return sig;
}

}  // namespace ppsm
