// Row-set oracle for match/result_join: the eager strategy the probe join
// replaced. Every non-anchor unit is materialized as its Gk closure
// (ExpandByAutomorphisms, Algorithm 2 lines 5-8) and the expanded units are
// joined with k = 1 probing, so the join itself applies no automorphic
// function. JoinUnitMatches must produce the same row set while
// hash-indexing only the un-expanded rows.

#ifndef PPSM_TESTS_JOIN_ORACLE_H_
#define PPSM_TESTS_JOIN_ORACLE_H_

#include <vector>

#include "match/result_join.h"

namespace ppsm::join_oracle {

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
