#ifndef PPSM_MATCH_RESULT_JOIN_H_
#define PPSM_MATCH_RESULT_JOIN_H_

#include <vector>

#include "kauto/avt.h"
#include "match/unit_matcher.h"
#include "obs/query_profile.h"
#include "util/status.h"

namespace ppsm {

/// Diagnostics from a join run (the benches report these). `steps` carries
/// the anchor (step 0) plus one JoinStepProfile per JoinStep invocation —
/// which unit joined in, the §5.1 estimate for it, the rows it indexed
/// (`build_rows`), produced and dropped as non-injective — so a bad matching
/// order is diagnosable per step; totals are sums over `steps`.
struct JoinDiagnostics {
  /// Per-step trace, in join order. Step 0 is always the anchor star itself
  /// (no JoinStep runs for it; output_rows = anchor rows, estimated_rows =
  /// 0) so a served query never logs an empty trace — the zero-match
  /// short-circuit used to drop the anchor's provenance entirely.
  std::vector<JoinStepProfile> steps;
  /// Peak intermediate row count across join steps. Under an overflow this
  /// still reflects the rows materialized up to the abort — the runs that
  /// hit the cap are exactly the ones whose peak matters.
  size_t peak_rows = 0;
};

/// Knobs for the result join.
struct JoinOptions {
  /// Caps every intermediate row count (0 = unlimited); exceeding it makes
  /// JoinUnitMatches return ResourceExhausted instead of exhausting memory.
  size_t max_rows = 0;
  /// Workers for each join step: the probe side (current rows) is
  /// partitioned across them against the read-only shared hash index, with
  /// per-worker buffers concatenated in partition order — results are
  /// identical at any thread count.
  size_t num_threads = 1;
  /// Estimated |R(U,Gk)| per unit from the §5.1 cost model, aligned with
  /// the `units` argument (UnitDecomposition::estimates). When present it
  /// orders the join steps (overlapping units still take precedence);
  /// empty falls back to actual match counts. The anchor is always chosen
  /// by actual count — that minimizes |Rin| exactly and for free.
  std::vector<double> star_cost_estimates;
};

/// Algorithm 2 (result join): combines per-unit match sets over Go into
/// Rin, the anchored fraction of R(Qo,Gk).
///
///  * The anchor unit — the one with the fewest matches — is used as-is: its
///    root column stays inside B1, which is what makes the output "Rin".
///    An anchor with zero matches short-circuits to the empty result before
///    any other unit is touched.
///  * Every other unit logically contributes R(U,Gk) = ∪_m F_m(R(U,Go))
///    (lines 5-8), natural-joined on the shared query vertices (line 9),
///    discarding rows that map two query vertices to one data vertex (lines
///    10-12). The expansion is never materialized: the un-expanded rows are
///    indexed once and each current row probes under all k functions, so the
///    k-fold intermediate copy never exists. With k > 1 every non-anchor
///    unit's root (column 0) must lie in AVT block 0, as units matched from
///    the index centers (B1) do; otherwise the call returns Internal. The identity holds for any unit
///    whose depth the outsourced graph's hop radius covers (DESIGN.md §14);
///    the join itself reads only the column lists, never the unit's shape.
///  * Overlapping units are preferred (cheapest first, by the cost model
///    when estimates are supplied); disconnected query components fall back
///    to a cross product.
///
/// Input matches must already be translated to Gk vertex ids and be
/// duplicate-free per unit (MatchUnits guarantees both). Output columns are
/// canonical (query vertex 0..m-1); rows are distinct by construction, in
/// no particular order, and identical at any thread count.
Result<MatchSet> JoinUnitMatches(const std::vector<UnitMatches>& units,
                                 const Avt& avt, size_t num_query_vertices,
                                 const JoinOptions& options,
                                 JoinDiagnostics* diagnostics = nullptr);

}  // namespace ppsm

#endif  // PPSM_MATCH_RESULT_JOIN_H_
