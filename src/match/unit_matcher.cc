#include "match/unit_matcher.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <optional>
#include <span>

#include "match/aux_graph.h"
#include "obs/trace.h"
#include "util/intersect.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace ppsm {

using matcher_internal::EpochMarks;
using matcher_internal::LeafCompatible;
using matcher_internal::ThreadMarks;

namespace {

/// Candidate chunks below this size are not worth a pool task.
constexpr size_t kMinCandidateChunk = 32;

/// List-vs-walk crossover of SlotCandidates: the kernel path is taken only
/// when the materialized class list is at least this many times smaller than
/// the adjacency. At the crossover, galloping costs ~|list|·log|adjacency|
/// probes and the SIMD merge ~(|list|+|adjacency|)/lanes comparisons — both
/// comfortably under the walk's |adjacency| bitmap tests; above it the walk
/// is already optimal at one O(1) test per neighbor.
constexpr size_t kListWalkCrossover = 4;

/// Fills `out` with the intersection of `adjacency` (a data vertex's
/// neighbor list) and compatibility class `cls` of `aux`. Two strategies,
/// one output:
///  * the set-intersection kernels (util/intersect.h) when the class has a
///    materialized list small enough to beat an O(degree) scan, and
///  * a filter-walk of the adjacency testing the class bitmap (O(1) per
///    neighbor) otherwise.
/// Both enumerate the ascending common subsequence of two ascending inputs,
/// so the choice never changes bytes — only speed. A forced (non-auto)
/// kernel takes the kernel path whenever the list exists, so kernel A/B
/// tests measure the kernel they asked for; only the kernel path bumps the
/// intersect counters.
void SlotCandidates(std::span<const VertexId> adjacency,
                    const QueryAuxGraph& aux, size_t cls,
                    IntersectKernel kernel, IntersectCounters* counters,
                    std::vector<uint32_t>* out) {
  if (aux.ClassMaterialized(cls)) {
    const std::span<const VertexId> list = aux.ClassCandidates(cls);
    if (kernel != IntersectKernel::kAuto ||
        list.size() * kListWalkCrossover <= adjacency.size()) {
      IntersectInto(adjacency, list, out, kernel, counters);
      return;
    }
  }
  const BitVector& bits = aux.ClassBits(cls);
  out->clear();
  for (const VertexId v : adjacency) {
    if (bits.Test(v)) out->push_back(v);
  }
}

/// Slot layout of one unit over its columns (see MatchUnit). Slot 0 binds
/// the root; slot s > 0 binds columns[s] among the data neighbors of the
/// vertex bound at its parent slot, which precedes it. Sibling slots whose
/// query vertices share a compatibility class — identical (types, labels),
/// i.e. one aux class — share one candidate list: list_of[s] names slot s's
/// list, and the lists slot p fills when it binds are
/// [list_begin[p], list_begin[p + 1]).
struct SlotPlan {
  std::vector<uint32_t> list_of;      // [slot] -> candidate list (slot > 0).
  std::vector<uint32_t> list_begin;   // [slot] -> first list it fills.
  std::vector<VertexId> list_vertex;  // [list] -> a query vertex of it.
};

SlotPlan PlanSlots(const AttributedGraph& qo, const QueryUnit& unit,
                   std::span<const VertexId> columns,
                   const QueryAuxGraph* aux) {
  // Star leaves all hang off the center; deeper units keep BFS parents.
  const auto parent = [&unit](size_t s) -> size_t {
    return unit.depth <= 1 ? 0 : unit.parent[s];
  };
  const auto same_class = [&](VertexId a, VertexId b) {
    if (aux != nullptr) return aux->ClassOf(a) == aux->ClassOf(b);
    return std::ranges::equal(qo.Types(a), qo.Types(b)) &&
           std::ranges::equal(qo.Labels(a), qo.Labels(b));
  };
  const size_t n = columns.size();
  SlotPlan plan;
  plan.list_of.assign(n, 0);
  plan.list_begin.assign(n + 1, 0);
  plan.list_vertex.reserve(n);
  for (size_t p = 0; p < n; ++p) {
    const size_t first = plan.list_vertex.size();
    plan.list_begin[p] = static_cast<uint32_t>(first);
    for (size_t s = p + 1; s < n; ++s) {
      if (parent(s) != p) continue;
      size_t list = first;
      while (list < plan.list_vertex.size() &&
             !same_class(plan.list_vertex[list], columns[s])) {
        ++list;
      }
      if (list == plan.list_vertex.size()) {
        plan.list_vertex.push_back(columns[s]);
      }
      plan.list_of[s] = static_cast<uint32_t>(list);
    }
  }
  plan.list_begin[n] = static_cast<uint32_t>(plan.list_vertex.size());
  return plan;
}

/// The one recursive slot enumerator, run per candidate-root chunk. Binding
/// a slot fills the candidate lists of its children from the bound vertex's
/// adjacency — once per (binding, class), from the aux graph when present
/// and by LeafCompatible filtering otherwise — and an empty list prunes the
/// binding, since that child can never bind under it. Either way each list
/// is the ascending subsequence of the adjacency compatible with the child,
/// so rows, their order and every row-cap claim point depend on neither the
/// list source nor the intersect kernel.
class SlotEnumerator {
 public:
  SlotEnumerator(const AttributedGraph& data, const AttributedGraph& qo,
                 size_t num_slots, const SlotPlan& plan,
                 const QueryAuxGraph* aux, const UnitMatchOptions& options,
                 std::atomic<size_t>* budget, MatchSet* out)
      : data_(data),
        qo_(qo),
        plan_(plan),
        aux_(aux),
        kernel_(options.intersect_kernel),
        budget_(options.max_rows == 0 ? nullptr : budget),
        max_rows_(options.max_rows),
        out_(out),
        marks_(ThreadMarks()),
        row_(num_slots),
        lists_(plan.list_vertex.size()) {
    marks_.Begin(data.NumVertices());
  }

  /// Enumerates every row whose root binds `root`. Returns false when the
  /// row cap was hit (enumeration aborted).
  bool EnumerateRoot(VertexId root) {
    if (!FillChildLists(0, root)) return true;
    row_[0] = root;
    marks_.Mark(root);
    const bool ok = Extend(1);
    marks_.Unmark(root);
    return ok;
  }

  const IntersectCounters& counters() const { return counters_; }

 private:
  /// Fills the candidate lists slot `slot` owns from the adjacency of `v`,
  /// its binding. False when one comes out empty: that child cannot bind.
  bool FillChildLists(size_t slot, VertexId v) {
    const size_t first = plan_.list_begin[slot];
    const size_t last = plan_.list_begin[slot + 1];
    if (first == last) return true;
    const std::span<const VertexId> adjacency = data_.Neighbors(v);
    for (size_t l = first; l < last; ++l) {
      std::vector<uint32_t>& list = lists_[l];
      if (aux_ != nullptr) {
        SlotCandidates(adjacency, *aux_, aux_->ClassOf(plan_.list_vertex[l]),
                       kernel_, &counters_, &list);
      } else {
        list.clear();
        for (const VertexId w : adjacency) {
          if (LeafCompatible(qo_, plan_.list_vertex[l], data_, w)) {
            list.push_back(w);
          }
        }
      }
      if (list.empty()) return false;
    }
    return true;
  }

  /// Binds slot `slot` and beyond. Rows are claimed from the shared budget
  /// before the append (fetch_add), so the cap holds across concurrent
  /// chunks: a claim at or past it aborts.
  bool Extend(size_t slot) {
    if (slot == row_.size()) {
      if (budget_ != nullptr &&
          budget_->fetch_add(1, std::memory_order_relaxed) >= max_rows_) {
        return false;
      }
      out_->Append(row_);
      return true;
    }
    const bool has_children =
        plan_.list_begin[slot] != plan_.list_begin[slot + 1];
    // Only binding a list's owner refills it. This slot's list belongs to
    // its parent, which precedes it, so the span stays valid while this
    // slot and deeper ones bind.
    for (const VertexId v : lists_[plan_.list_of[slot]]) {
      if (marks_.Marked(v)) continue;
      if (has_children && !FillChildLists(slot, v)) continue;
      row_[slot] = v;
      marks_.Mark(v);
      const bool ok = Extend(slot + 1);
      marks_.Unmark(v);
      if (!ok) return false;
    }
    return true;
  }

  const AttributedGraph& data_;
  const AttributedGraph& qo_;
  const SlotPlan& plan_;
  const QueryAuxGraph* aux_;
  const IntersectKernel kernel_;
  std::atomic<size_t>* const budget_;
  const size_t max_rows_;
  MatchSet* const out_;
  EpochMarks& marks_;
  std::vector<VertexId> row_;
  std::vector<std::vector<uint32_t>> lists_;
  IntersectCounters counters_;
};

/// MatchUnit against a phase-shared aux graph (nullptr = aux off) and the
/// unit root's shortlist `roots`: the chunked candidate-root loop. Each
/// chunk appends into its own MatchSet, all chunks share the atomic row
/// budget, and the per-chunk sets concatenate in chunk order — so thread
/// count never changes which rows exist (only, under truncation, which
/// prefix of the enumeration survived).
UnitMatches MatchUnitWithAux(const AttributedGraph& data,
                             const AttributedGraph& qo, const QueryUnit& unit,
                             std::span<const VertexId> roots,
                             const UnitMatchOptions& options,
                             const QueryAuxGraph* aux) {
  UnitMatches result;
  result.center = unit.root();
  result.kind = unit.kind;
  result.columns = matcher_internal::UnitColumns(qo, unit);
  result.matches = MatchSet(result.columns.size());

  // The root's depth-1 children are exactly its query neighbors, so the
  // VBV/LBV + neighborhood-subset shortlist applies to every unit shape.
  std::vector<VertexId> filtered;
  std::span<const VertexId> candidates = roots;
  if (options.candidate_filter) {
    std::ranges::copy_if(roots, std::back_inserter(filtered),
                         options.candidate_filter);
    candidates = filtered;
  }
  result.num_candidates = candidates.size();
  if (candidates.empty()) return result;
  if (options.cancelled && options.cancelled()) {
    result.truncated = true;
    return result;
  }

  const SlotPlan plan = PlanSlots(qo, unit, result.columns, aux);
  const auto chunks =
      SplitIntoChunks(candidates.size(), options.num_threads,
                      kMinCandidateChunk);
  std::vector<MatchSet> chunk_matches(chunks.size(),
                                      MatchSet(result.columns.size()));
  std::atomic<size_t> budget{0};
  std::atomic<bool> truncated{false};
  ParallelFor(options.num_threads, chunks.size(), [&](size_t c) {
    if (truncated.load(std::memory_order_relaxed)) return;
    if (options.cancelled && options.cancelled()) {
      truncated.store(true, std::memory_order_relaxed);
      return;
    }
    SlotEnumerator enumerator(data, qo, result.columns.size(), plan, aux,
                              options, &budget, &chunk_matches[c]);
    for (size_t i = chunks[c].first; i < chunks[c].second; ++i) {
      if (!enumerator.EnumerateRoot(candidates[i])) {
        truncated.store(true, std::memory_order_relaxed);
        break;
      }
    }
    if (options.phase_stats != nullptr) {
      options.phase_stats->Merge(enumerator.counters());
    }
  });
  result.truncated = truncated.load(std::memory_order_relaxed);

  size_t total_rows = 0;
  for (const MatchSet& part : chunk_matches) total_rows += part.NumMatches();
  result.matches.ReserveAdditional(total_rows);
  for (const MatchSet& part : chunk_matches) result.matches.AppendAll(part);
  return result;
}

/// Builds a phase aux graph and records its cost in the options' stats sink.
/// The hosted index's leaf VBVs turn the build into word-level ANDs.
QueryAuxGraph BuildPhaseAux(const AttributedGraph& data,
                            const CloudIndex& index,
                            const AttributedGraph& qo,
                            const UnitMatchOptions& options) {
  WallTimer timer;
  QueryAuxGraph aux =
      QueryAuxGraph::Build(data, qo, options.num_threads, &index);
  if (options.phase_stats != nullptr) {
    // Accumulating (not assigning) lets a sharded cluster sum its per-slice
    // aux builds into one phase record.
    options.phase_stats->aux_build_ms += timer.ElapsedMillis();
    options.phase_stats->aux_bytes += aux.MemoryBytes();
  }
  return aux;
}

}  // namespace

namespace matcher_internal {

std::vector<VertexId> UnitColumns(const AttributedGraph& qo,
                                  const QueryUnit& unit) {
  std::vector<VertexId> columns = unit.vertices;
  if (unit.depth <= 1) {
    // Star leaves most-constrained first: more labels, then ascending id.
    std::sort(columns.begin() + 1, columns.end(),
              [&qo](VertexId a, VertexId b) {
                if (qo.Labels(a).size() != qo.Labels(b).size()) {
                  return qo.Labels(a).size() > qo.Labels(b).size();
                }
                return a < b;
              });
  }
  return columns;
}

}  // namespace matcher_internal

UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      const UnitMatchOptions& options) {
  return std::move(MatchUnits(data, index, qo, {unit}, options).front());
}

UnitMatches MatchUnit(const AttributedGraph& data, const CloudIndex& index,
                      const AttributedGraph& qo, const QueryUnit& unit,
                      size_t max_rows) {
  UnitMatchOptions options;
  options.max_rows = max_rows;
  return MatchUnit(data, index, qo, unit, options);
}

std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    const UnitMatchOptions& options) {
  std::vector<UnitMatches> all(units.size());
  // Root shortlists are read here, serially, so the unit loop below only
  // reads the candidate space.
  std::optional<RootCandidates> own;
  RootCandidates& space = options.root_candidates != nullptr
                              ? *options.root_candidates
                              : own.emplace(index, qo);
  std::vector<std::span<const VertexId>> roots(units.size());
  for (size_t i = 0; i < units.size(); ++i) {
    roots[i] = space.Of(units[i].root());
  }
  // One aux graph serves the whole phase: compatibility classes are per
  // query vertex, shared by every unit that binds the vertex.
  QueryAuxGraph aux;
  const QueryAuxGraph* aux_ptr = nullptr;
  if (options.use_aux_graph && !units.empty()) {
    aux = BuildPhaseAux(data, index, qo, options);
    aux_ptr = &aux;
  }
  std::atomic<bool> abort{false};
  ParallelFor(options.num_threads, units.size(), [&](size_t i) {
    if (abort.load(std::memory_order_relaxed)) {
      // A sibling unit truncated (or the run was cancelled): the phase can
      // no longer answer exactly, so skip the remaining units. The
      // placeholder carries the columns (and MatchSet arity) a real match
      // would have, plus the skipped flag so profiles can tell "abandoned"
      // from "the index shortlisted nothing".
      all[i].center = units[i].root();
      all[i].kind = units[i].kind;
      all[i].columns = matcher_internal::UnitColumns(qo, units[i]);
      all[i].matches = MatchSet(all[i].columns.size());
      all[i].truncated = true;
      all[i].skipped = true;
      return;
    }
    PPSM_TRACE_SPAN_CAT("cloud.unit_match.unit", "query");
    all[i] = MatchUnitWithAux(data, qo, units[i], roots[i], options, aux_ptr);
    if (all[i].truncated) abort.store(true, std::memory_order_relaxed);
  });
  return all;
}

std::vector<UnitMatches> MatchUnits(const AttributedGraph& data,
                                    const CloudIndex& index,
                                    const AttributedGraph& qo,
                                    const std::vector<QueryUnit>& units,
                                    size_t max_rows) {
  UnitMatchOptions options;
  options.max_rows = max_rows;
  return MatchUnits(data, index, qo, units, options);
}

}  // namespace ppsm
