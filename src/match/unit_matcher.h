#ifndef PPSM_MATCH_UNIT_MATCHER_H_
#define PPSM_MATCH_UNIT_MATCHER_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <vector>

#include "graph/attributed_graph.h"
#include "match/index.h"
#include "match/match_set.h"
#include "match/query_unit.h"
#include "util/intersect.h"

namespace ppsm {

/// Matches of one unit of the query decomposition. `columns[i]` names the
/// query vertex each match column binds: columns[0] is the unit's root (for
/// a star, its center). Rows are un-expanded R(U, Go); match vertex ids are
/// in whatever id space `data` uses (Go-local in the cloud; the caller
/// translates to Gk ids before joining).
struct UnitMatches {
  VertexId center = kInvalidVertex;
  /// Shape of the producing unit; purely informational (profiling,
  /// cost-model calibration) — join semantics depend only on `columns`.
  UnitKind kind = UnitKind::kStar;
  std::vector<VertexId> columns;
  MatchSet matches;
  /// Candidate roots the VBV/LBV index shortlisted for this unit — the size
  /// of the loop MatchUnit enumerated (query profiles report it next to the
  /// materialized row count).
  size_t num_candidates = 0;
  /// True when enumeration stopped early — at the row cap, or because the
  /// run was cancelled. The match set is then incomplete and must not be
  /// used for exact answering.
  bool truncated = false;
  /// True when this unit was never matched at all: a sibling truncated (or
  /// the run was cancelled) before its turn, so MatchUnits skipped it.
  /// Skipped units are always also `truncated`; the distinction lets
  /// profiles separate "abandoned, candidates unknown" from "the index
  /// shortlisted nothing" (num_candidates is 0 in both cases).
  bool skipped = false;
};

/// Mutable per-phase instrumentation sink, shared by every unit/chunk/thread
/// of one MatchUnits call (hence the atomics — the counters merge once per
/// chunk, never from the inner loop). Wire one in via
/// UnitMatchOptions::phase_stats to surface aux-graph build cost and kernel
/// choices in query profiles.
struct MatchPhaseStats {
  /// Wall time spent building the QueryAuxGraph (0 when aux is off).
  double aux_build_ms = 0;
  /// QueryAuxGraph::MemoryBytes() of the phase's aux graph.
  size_t aux_bytes = 0;
  /// Distinct (types, labels) compatibility classes in the aux graph.
  size_t aux_classes = 0;
  /// Per-kernel dispatch counts from util/intersect.h (aux path only).
  std::atomic<uint64_t> intersect_scalar{0};
  std::atomic<uint64_t> intersect_galloping{0};
  std::atomic<uint64_t> intersect_simd{0};

  /// Folds one chunk's local counters in (relaxed; these are statistics).
  void Merge(const IntersectCounters& c) {
    if (c.scalar) intersect_scalar.fetch_add(c.scalar, std::memory_order_relaxed);
    if (c.galloping) {
      intersect_galloping.fetch_add(c.galloping, std::memory_order_relaxed);
    }
    if (c.simd) intersect_simd.fetch_add(c.simd, std::memory_order_relaxed);
  }
};

/// Knobs for the unit-matching phase.
struct UnitMatchOptions {
  /// Caps the materialized match count per unit (0 = unlimited). Hitting it
  /// sets UnitMatches::truncated — the cloud turns that into a
  /// ResourceExhausted error instead of exhausting memory on pathological
  /// queries.
  size_t max_rows = 0;
  /// Workers drawn from the shared pool: MatchUnits spreads units across
  /// them, and each unit additionally splits its candidate-root loop into
  /// chunks (the inner split only engages when the call is not already
  /// inside a pool task — see util/parallel.h — so a one-unit decomposition
  /// still uses the whole budget).
  size_t num_threads = 1;
  /// Polled between units and candidate chunks; returning true abandons the
  /// remaining work with the affected units marked truncated. The cloud
  /// wires its query deadline here. Must be thread-safe; empty = never.
  std::function<bool()> cancelled;
  /// The query's candidate space over `index` (match/index.h), shared with
  /// the planner so each root shortlist is computed once per query; null =
  /// the call computes its own. Must outlive the call.
  RootCandidates* root_candidates = nullptr;
  /// Restricts the index's candidate shortlist to roots for which this
  /// predicate holds; empty = keep all. A sharded cloud passes its owned-set
  /// bitmap here: halo vertices carry incomplete adjacency in a slice, so
  /// their understated bit vectors could qualify them falsely, and their
  /// matches belong to the owning shard anyway. Filtered-out candidates do
  /// not count towards UnitMatches::num_candidates. Must be thread-safe.
  std::function<bool(VertexId)> candidate_filter;
  /// Draw slot candidate lists from a per-query auxiliary graph
  /// (match/aux_graph.h) by set intersection, instead of filtering the
  /// parent's adjacency with LeafCompatible. Both list sources yield the
  /// same ascending lists, so rows are byte-identical either way
  /// (DESIGN.md §15).
  bool use_aux_graph = true;
  /// Intersection kernel for the aux path. kAuto applies the extended §5.1
  /// cost model per step; a concrete kernel pins every step (A/B and
  /// calibration runs). Kernel choice never affects output, only speed.
  IntersectKernel intersect_kernel = IntersectKernel::kAuto;
  /// Optional instrumentation sink (aux build time/bytes, kernel-choice
  /// counts). Must outlive the call; may be shared across phases.
  MatchPhaseStats* phase_stats = nullptr;
};

/// Algorithm 1, generalized from stars to star/path/tree units: finds all
/// matches of `unit` over `data`. Root candidates come from the VBV/LBV
/// shortlist; every other slot binds among the data neighbors of its
/// parent slot's binding, filtered by type/label containment and row
/// injectivity. Non-root compatibility deliberately skips degree pruning —
/// non-root degrees in Go understate their Gk degrees, and query edges
/// outside the unit's tree are the join's concern.
///
/// Columns: a star (depth <= 1) puts its center first and the leaves
/// most-constrained-first (more labels, then ascending id); deeper units
/// bind unit.vertices in BFS slot order. The candidate-root loop is chunked
/// across options.num_threads: per-chunk row sets concatenate in chunk order
/// under a shared atomic row budget, so the output is independent of thread
/// count and max_rows is exact under concurrency.
UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      const UnitMatchOptions& options);

/// Serial convenience overload (tests, cost-model probes).
UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      size_t max_rows = 0);

/// Runs MatchUnit for every unit of a decomposition, spreading units across
/// options.num_threads pool workers (the units are independent, the
/// embarrassingly parallel axis of the paper's §4.2.1 hot path). One aux
/// graph serves the whole phase. Output order follows `units` regardless of
/// thread count. When one unit truncates (or the run is cancelled), units
/// not yet matched are skipped and marked truncated — no caller may use a
/// partial phase for exact answering.
std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    const UnitMatchOptions& options);

/// Serial convenience overload.
std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    size_t max_rows = 0);

namespace matcher_internal {

/// Versioned-epoch vertex marks for row injectivity: Begin() invalidates
/// every mark in O(1) by bumping the epoch, so the per-unit O(|V|) zeroing
/// of a plain std::vector<bool> — which dwarfed matching time on large
/// fixtures under the serving workload — happens only on first use per
/// thread (and on the ~never epoch wraparound). Thread-local via
/// ThreadMarks(): pool workers are persistent, so the buffer is reused
/// across units, queries and servers.
///
/// Invariant: **0 is never an active epoch.** Unmark writes the sentinel 0,
/// so a slot holding 0 must always read as "unmarked". This holds at every
/// point in the lifecycle: epoch_ starts at 0 and Begin() pre-increments, so
/// the first active epoch is 1; and when the increment wraps (++epoch_ ==
/// 0), Begin() zero-fills the whole buffer AND restarts at epoch 1 — both
/// halves are required. Skipping the fill would let a slot last written at
/// the old epoch 1 (4 billion Begins ago) read as marked again; restarting
/// at 0 would make Unmark's sentinel equal the active epoch, turning every
/// Unmark into a Mark. epoch_marks_test.cc pins the wraparound behavior.
class EpochMarks {
 public:
  void Begin(size_t num_vertices) {
    if (marks_.size() < num_vertices) marks_.resize(num_vertices, 0);
    if (++epoch_ == 0) {
      std::fill(marks_.begin(), marks_.end(), 0);
      epoch_ = 1;
    }
  }
  bool Marked(VertexId v) const { return marks_[v] == epoch_; }
  void Mark(VertexId v) { marks_[v] = epoch_; }
  void Unmark(VertexId v) { marks_[v] = 0; }

  /// Current epoch (0 = Begin never called). Test-only observability.
  uint32_t epoch() const { return epoch_; }
  /// Test hook: jump the counter so the next Begin() exercises wraparound
  /// without 2^32 - 2 warm-up calls.
  void SetEpochForTest(uint32_t epoch) { epoch_ = epoch; }

 private:
  std::vector<uint32_t> marks_;
  uint32_t epoch_ = 0;
};

inline EpochMarks& ThreadMarks() {
  thread_local EpochMarks marks;
  return marks;
}

/// Non-root-vertex compatibility: type sets and label groups only (Def. 2's
/// containment conditions). The aux graph precomputes exactly this relation
/// per query vertex (match/aux_graph.h); with aux off, MatchUnit filters
/// adjacency with it directly.
inline bool LeafCompatible(const AttributedGraph& qo, VertexId leaf,
                           const AttributedGraph& data, VertexId v) {
  return data.TypesContainAll(v, qo.Types(leaf)) &&
         data.LabelsContainAll(v, qo.Labels(leaf));
}

/// Column layout MatchUnit produces for `unit` (see MatchUnit). Shared with
/// the skip path of MatchUnits, so skipped placeholders carry the columns
/// (and MatchSet arity) a real match would have.
std::vector<VertexId> UnitColumns(const AttributedGraph& qo,
                                  const QueryUnit& unit);

}  // namespace matcher_internal

}  // namespace ppsm

#endif  // PPSM_MATCH_UNIT_MATCHER_H_
