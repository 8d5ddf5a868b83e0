// Enumeration-order oracle for match/unit_matcher: the two filter-while-
// walking reference walkers the unit matcher replaced (the star walker
// AssignLeaves and the tree walker ExtendUnit), kept verbatim, plus a serial
// candidate-root loop around them. MatchUnit must reproduce this oracle
// byte for byte — rows, row order, columns, and the row-cap prefix.

#ifndef PPSM_TESTS_MATCHER_ORACLE_H_
#define PPSM_TESTS_MATCHER_ORACLE_H_

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "match/unit_matcher.h"

namespace ppsm::matcher_oracle {

using matcher_internal::EpochMarks;
using matcher_internal::LeafCompatible;

/// Enumerates injective assignments of `leaves[depth..]` to neighbors of the
/// candidate center, appending complete rows to `out`. `budget` (non-null
/// iff max_rows != 0) is the row counter shared by every chunk of one star,
/// so the cap holds across concurrent workers: a slot is claimed with
/// fetch_add before the append, and a claim at or past the cap aborts.
/// Returns false when the cap was hit (enumeration aborted).
inline bool AssignLeaves(const AttributedGraph& data, const AttributedGraph& qo,
                         std::span<const VertexId> leaves, size_t depth,
                         std::span<const VertexId> center_neighbors,
                         std::vector<VertexId>* row, EpochMarks* marks,
                         std::atomic<size_t>* budget, size_t max_rows,
                         MatchSet* out) {
  if (depth == leaves.size()) {
    if (budget != nullptr &&
        budget->fetch_add(1, std::memory_order_relaxed) >= max_rows) {
      return false;
    }
    out->Append(*row);
    return true;
  }
  const VertexId leaf = leaves[depth];
  for (const VertexId v : center_neighbors) {
    if (marks->Marked(v)) continue;
    if (!LeafCompatible(qo, leaf, data, v)) continue;
    marks->Mark(v);
    (*row)[depth + 1] = v;
    const bool ok = AssignLeaves(data, qo, leaves, depth + 1,
                                 center_neighbors, row, marks, budget,
                                 max_rows, out);
    marks->Unmark(v);
    if (!ok) return false;
  }
  return true;
}

/// Extends the partial row to slot `slot` and beyond: candidates for
/// vertices[slot] are the data neighbors of the already-bound parent slot,
/// filtered by type/label containment and row injectivity. Complete rows are
/// appended under the shared atomic budget (claim-then-append, exactly like
/// AssignLeaves); returns false when the cap was hit.
inline bool ExtendUnit(const AttributedGraph& data, const AttributedGraph& qo,
                       const QueryUnit& unit, size_t slot,
                       std::vector<VertexId>* row, EpochMarks* marks,
                       std::atomic<size_t>* budget, size_t max_rows,
                       MatchSet* out) {
  if (slot == unit.vertices.size()) {
    if (budget != nullptr &&
        budget->fetch_add(1, std::memory_order_relaxed) >= max_rows) {
      return false;
    }
    out->Append(*row);
    return true;
  }
  const VertexId query_vertex = unit.vertices[slot];
  for (const VertexId v : data.Neighbors((*row)[unit.parent[slot]])) {
    if (marks->Marked(v)) continue;
    if (!LeafCompatible(qo, query_vertex, data, v)) continue;
    marks->Mark(v);
    (*row)[slot] = v;
    const bool ok = ExtendUnit(data, qo, unit, slot + 1, row, marks, budget,
                               max_rows, out);
    marks->Unmark(v);
    if (!ok) return false;
  }
  return true;
}

/// The star column layout: the center first, then its query neighbors
/// most-constrained-first (more labels, then ascending id).
inline std::vector<VertexId> StarColumns(const AttributedGraph& qo,
                                         VertexId center) {
  std::vector<VertexId> leaves(qo.Neighbors(center).begin(),
                               qo.Neighbors(center).end());
  std::sort(leaves.begin(), leaves.end(), [&qo](VertexId a, VertexId b) {
    if (qo.Labels(a).size() != qo.Labels(b).size()) {
      return qo.Labels(a).size() > qo.Labels(b).size();
    }
    return a < b;
  });
  std::vector<VertexId> columns;
  columns.reserve(leaves.size() + 1);
  columns.push_back(center);
  columns.insert(columns.end(), leaves.begin(), leaves.end());
  return columns;
}

/// Serial oracle for MatchUnit: stars (depth <= 1) walk AssignLeaves over
/// StarColumns, deeper units walk ExtendUnit over unit.vertices, both from
/// the index's candidate roots in shortlist order. `max_rows` != 0 keeps the
/// first max_rows rows of the enumeration and reports truncation.
inline UnitMatches OracleMatchUnit(const AttributedGraph& data,
                                   const CloudIndex& index,
                                   const AttributedGraph& qo,
                                   const QueryUnit& unit,
                                   size_t max_rows = 0) {
  UnitMatches result;
  result.center = unit.root();
  result.kind = unit.kind;
  const bool star = unit.depth <= 1;
  result.columns = star ? StarColumns(qo, unit.root()) : unit.vertices;
  result.matches = MatchSet(result.columns.size());
  const std::vector<VertexId> candidates =
      index.CandidateCenters(qo, unit.root());
  result.num_candidates = candidates.size();

  EpochMarks marks;
  marks.Begin(data.NumVertices());
  std::atomic<size_t> budget{0};
  std::atomic<size_t>* budget_ptr = max_rows == 0 ? nullptr : &budget;
  std::vector<VertexId> row(result.columns.size());
  const std::span<const VertexId> leaves{result.columns.data() + 1,
                                         result.columns.size() - 1};
  for (const VertexId va : candidates) {
    row[0] = va;
    marks.Mark(va);
    const bool ok =
        star ? AssignLeaves(data, qo, leaves, 0, data.Neighbors(va), &row,
                            &marks, budget_ptr, max_rows, &result.matches)
             : ExtendUnit(data, qo, unit, 1, &row, &marks, budget_ptr,
                          max_rows, &result.matches);
    marks.Unmark(va);
    if (!ok) {
      result.truncated = true;
      break;
    }
  }
  return result;
}

}  // namespace ppsm::matcher_oracle

#endif  // PPSM_TESTS_MATCHER_ORACLE_H_
