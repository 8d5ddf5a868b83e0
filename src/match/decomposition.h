#ifndef PPSM_MATCH_DECOMPOSITION_H_
#define PPSM_MATCH_DECOMPOSITION_H_

#include <string>
#include <vector>

#include "graph/attributed_graph.h"
#include "match/index.h"
#include "match/query_unit.h"
#include "match/statistics.h"
#include "util/status.h"

namespace ppsm {

/// A decomposition of the outsourced query Qo into star/path/tree units
/// (paper §4.2.1, generalized): a minimum-estimated-cost set of candidate
/// units whose tree edges cover every edge of Qo (isolated vertices get
/// singleton coverage), chosen by the cover ILP. With max_depth <= 1 only
/// stars are enumerable and the ILP degenerates to the paper's weighted
/// vertex cover (Theorem 2) over per-vertex star costs (Def. 6).
struct UnitDecomposition {
  /// Selected units, in candidate enumeration order (stars by root id first,
  /// then deeper BFS trees by root id).
  std::vector<QueryUnit> units;
  /// Estimated |R(U)| per selected unit (aligned with `units`).
  std::vector<double> estimates;
  /// Sum of estimates — the generalized Def. 6 decomposition cost.
  double total_cost = 0.0;
  /// Branch-and-bound nodes the ILP explored (diagnostics).
  size_t ilp_nodes = 0;
};

/// Generalized decomposition with §5.1 statistics-only unit estimates.
/// `max_depth` caps the BFS depth of enumerated units (<= 1: stars only).
Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              uint32_t max_depth);

/// Root-candidate degrees of a query: element v lists the full Gk degree
/// of every candidate root of query vertex v in ascending candidate id
/// order — the input of the candidate-aware EstimateUnitCardinality.
using RootDegrees = std::vector<std::vector<size_t>>;

/// Root-candidate degrees from the hosted graph and the query's candidate
/// space over its index: one shortlist per query vertex, shared by every
/// unit rooted there (and, through `roots`, by the matcher).
RootDegrees ShortlistRootDegrees(const AttributedGraph& data,
                                 RootCandidates& roots);

/// Same, over a candidate space of its own.
RootDegrees ShortlistRootDegrees(const AttributedGraph& qo,
                                 const AttributedGraph& data,
                                 const CloudIndex& index);

/// Generalized decomposition with candidate-aware unit estimates — the
/// cloud's planner. `root_degrees` (one list per query vertex) comes from
/// the hosted index, or on a sharded cloud from the coordinator's merge of
/// the shards' owned shortlists; equal lists give equal plans. On power-law
/// graphs these estimates reliably steer the cover away from hub-rooted
/// units whose match sets would be astronomically large.
Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              const RootDegrees& root_degrees,
                                              uint32_t max_depth);

/// Same, shortlisting the root candidates on `data` and `index`.
Result<UnitDecomposition> DecomposeQueryUnits(const AttributedGraph& qo,
                                              const GkStatistics& stats,
                                              const AttributedGraph& data,
                                              const CloudIndex& index,
                                              uint32_t max_depth);

/// Generalized decomposition over an explicit candidate-unit list with
/// caller-supplied costs (`costs[i]` = estimated |R(units[i])|, size must
/// equal units.size(); every cost finite and >= 0 or the call fails with
/// InvalidArgument).
Result<UnitDecomposition> DecomposeQueryUnitsWithCosts(
    const AttributedGraph& qo, std::vector<QueryUnit> units,
    std::vector<double> costs);

/// Checks that the units' tree edges cover every edge of `qo` and every
/// isolated vertex appears in some unit (tests / invariants).
bool IsValidUnitDecomposition(const AttributedGraph& qo,
                              const std::vector<QueryUnit>& units);

/// Canonical signature of an outsourced query, the cloud's plan-cache key.
/// Two queries share a signature iff they have identical vertex ids, type
/// sets, label(-group) sets and adjacency — exactly the inputs
/// DecomposeQueryUnits reads from `qo` (the remaining inputs, statistics and
/// the hosted index, are fixed for the lifetime of a CloudServer), so equal
/// signatures imply equal decompositions and the ILP solve can be skipped.
/// The encoding is a compact byte string: |V|, then per vertex its sorted
/// types, labels and neighbors, each length-prefixed; every field is
/// serialized little-endian-u32 so the signature is deterministic across
/// platforms.
std::string QoSignature(const AttributedGraph& qo);

}  // namespace ppsm

#endif  // PPSM_MATCH_DECOMPOSITION_H_
