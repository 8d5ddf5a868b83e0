// Row-set oracles for the two places that apply the automorphic functions.
//
//  * EagerJoin, for match/result_join: the eager strategy the probe join
//    replaced. Every non-anchor unit is materialized as its Gk closure
//    (ExpandByAutomorphisms, Algorithm 2 lines 5-8) and the expanded units
//    are joined with k = 1 probing, so the join itself applies no automorphic
//    function. JoinUnitMatches must produce the same row set while
//    hash-indexing only the un-expanded rows.
//  * ExpandSortFilter, for DataOwner::ProcessResponse: Algorithm 3 as the
//    paper states it. Rin is expanded to R(Qo,Gk) and sort-deduplicated,
//    then every row is filtered against G. The two-pass client must return
//    the same MatchSet byte for byte.

#ifndef PPSM_TESTS_JOIN_ORACLE_H_
#define PPSM_TESTS_JOIN_ORACLE_H_

#include <vector>

#include "cloud/data_owner.h"
#include "match/result_join.h"

namespace ppsm::join_oracle {

/// Expands a Go-side match set to its Gk closure: union of F_m(matches) for
/// m = 0..k-1, deduplicated (Algorithm 3 lines 1-5). Every cell must be in
/// the AVT.
inline MatchSet ExpandByAutomorphisms(const MatchSet& matches,
                                      const Avt& avt) {
  MatchSet expanded(matches.arity());
  for (uint32_t m = 0; m < avt.k(); ++m) {
    for (size_t r = 0; r < matches.NumMatches(); ++r) {
      expanded.Append(avt.ApplyToMatch(matches.Get(r), m));
    }
  }
  expanded.SortDedup();
  return expanded;
}

/// Algorithm 3 lines 1-23 on a decoded response: expand (unless the upload
/// was the baseline, whose response is R(Qo,Gk) already), then keep the rows
/// whose vertices are distinct original vertices of G carrying the query's
/// types and labels and whose query edges exist in G. Sorted, distinct.
inline MatchSet ExpandSortFilter(const DataOwner& owner,
                                 const AttributedGraph& query,
                                 const MatchSet& rin) {
  const MatchSet candidates =
      owner.IsBaselineUpload() ? rin
                               : ExpandByAutomorphisms(rin, owner.kag().avt);
  const AttributedGraph& g = owner.graph();
  MatchSet results(query.NumVertices());
  for (size_t r = 0; r < candidates.NumMatches(); ++r) {
    const auto match = candidates.Get(r);
    bool keep = !MatchSet::HasDuplicateVertices(match);
    for (size_t q = 0; keep && q < match.size(); ++q) {
      const VertexId v = match[q];
      const auto qv = static_cast<VertexId>(q);
      keep = v < owner.kag().num_original_vertices &&
             g.TypesContainAll(v, query.Types(qv)) &&
             g.LabelsContainAll(v, query.Labels(qv));
    }
    if (keep) {
      query.ForEachEdge([&](VertexId a, VertexId b) {
        if (keep && !g.HasEdge(match[a], match[b])) keep = false;
      });
    }
    if (keep) results.Append(match);
  }
  results.SortDedup();
  return results;
}

inline Result<MatchSet> EagerJoin(const std::vector<UnitMatches>& units,
                                  const Avt& avt, size_t num_query_vertices,
                                  JoinOptions options,
                                  JoinDiagnostics* diagnostics = nullptr) {
  // The anchor rule of JoinUnitMatches: the first unit with the fewest rows.
  // Expansion never shrinks a unit, so the anchor stays the anchor.
  size_t anchor = 0;
  for (size_t i = 1; i < units.size(); ++i) {
    if (units[i].matches.NumMatches() < units[anchor].matches.NumMatches()) {
      anchor = i;
    }
  }
  // Join order by the un-expanded counts unless estimates were supplied,
  // so the oracle joins in the same order as the probe join.
  if (options.star_cost_estimates.size() != units.size()) {
    options.star_cost_estimates.clear();
    for (const UnitMatches& unit : units) {
      options.star_cost_estimates.push_back(
          static_cast<double>(unit.matches.NumMatches()));
    }
  }
  std::vector<UnitMatches> expanded = units;
  if (!units.empty() && units[anchor].matches.NumMatches() > 0) {
    for (size_t i = 0; i < expanded.size(); ++i) {
      if (i != anchor) {
        expanded[i].matches = ExpandByAutomorphisms(units[i].matches, avt);
      }
    }
  }
  return JoinUnitMatches(expanded, Avt(/*k=*/1, /*num_rows=*/0),
                         num_query_vertices, options, diagnostics);
}

}  // namespace ppsm::join_oracle

#endif  // PPSM_TESTS_JOIN_ORACLE_H_
