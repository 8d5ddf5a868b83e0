#include "match/result_join.h"

#include <algorithm>
#include <atomic>

#include "match/join_index.h"
#include "util/hash.h"
#include "util/parallel.h"

namespace ppsm {

namespace {

/// Probe-side chunks below this size are not worth a pool task.
constexpr size_t kMinProbeChunk = 128;

uint64_t KeyOf(std::span<const VertexId> row,
               const std::vector<size_t>& positions) {
  uint64_t key = 0x9ae16a3b2f90404fULL;
  for (const size_t p : positions) key = HashCombine(key, row[p]);
  return key;
}

uint64_t KeyOfValues(std::span<const VertexId> values) {
  uint64_t key = 0x9ae16a3b2f90404fULL;
  for (const VertexId v : values) key = HashCombine(key, v);
  return key;
}

/// One planned join step: the unit that joins in, how its columns meet the
/// current intermediate's, and where each column lands in an output row.
/// Every step but the last appends the new columns after the current ones;
/// the last writes query-vertex order directly, so Rin needs no reorder
/// pass.
struct StepPlan {
  size_t unit = 0;
  std::vector<size_t> shared_current;  // Positions in the current columns.
  std::vector<size_t> shared_star;     // Matching positions in the unit's.
  std::vector<size_t> new_star;        // Unit positions adding a column.
  std::vector<size_t> current_to_out;  // Output position per current column.
  std::vector<size_t> new_to_out;      // Output position per new_star entry.
};

/// Joins `current` with one unit's matches on their shared query vertices.
///
/// The unit logically contributes its Gk closure ∪_m F_m(star_rows) for
/// m = 0..probe_k-1, but the closure is never materialized: the un-expanded
/// rows are indexed once on the shared key, and every current row probes
/// under each F_m by mapping its shared values through F_m^{-1} (F_m is a
/// bijection, so `F_m(star_row) agrees with current_row` iff `star_row
/// agrees with F_m^{-1}(current_row)`). New columns of a hit are shifted
/// forward with F_m on the fly. With k = 1 (the baseline's identity table)
/// probe_k is 1, which skips every Avt lookup.
///
/// No expanded row repeats another. Every unit root is matched from the
/// index centers, which are B1 = AVT block 0, so for d >= 1 the image
/// F_d(s) has its root in block d and is never itself a unit row; hence
/// F_m(s) == F_m'(s') only when (s, m) == (s', m'). The index build checks
/// that precondition (root column 0 in block 0 when probe_k > 1) and
/// returns Internal when it fails, rather than a duplicated row.
///
/// The probe side is partitioned into contiguous chunks across
/// options.num_threads workers; each chunk appends into its own buffer and
/// the buffers concatenate in chunk order, so the output row order — and
/// therefore the result — is independent of the thread count. All chunks
/// share one atomic row budget; exceeding options.max_rows (non-zero) sets
/// *overflow after recording the partial row counts in `step`.
/// `step` receives this invocation's own build/output/drop counts; the
/// caller stamps the unit identity on it.
Result<MatchSet> JoinStep(const MatchSet& current, const StepPlan& plan,
                          const MatchSet& star_rows, const Avt& avt,
                          uint32_t probe_k, const JoinOptions& options,
                          JoinStepProfile* step, bool* overflow) {
  const size_t out_arity = plan.current_to_out.size() + plan.new_to_out.size();
  std::vector<uint64_t> keys(star_rows.NumMatches());
  for (size_t r = 0; r < keys.size(); ++r) {
    const auto row = star_rows.Get(r);
    if (probe_k > 1 && (!avt.Contains(row[0]) || avt.BlockOf(row[0]) != 0)) {
      return Status::Internal("unit root outside AVT block 0");
    }
    keys[r] = KeyOf(row, plan.shared_star);
  }
  // Empty shared key = one bucket of every row (cross product).
  const JoinIndex index(keys);
  step->build_rows = star_rows.NumMatches();

  const auto chunks = SplitIntoChunks(current.NumMatches(),
                                      options.num_threads, kMinProbeChunk);
  std::vector<MatchSet> chunk_rows(chunks.size(), MatchSet(out_arity));
  std::vector<size_t> chunk_drops(chunks.size(), 0);
  std::atomic<size_t> budget{0};
  std::atomic<bool> overflowed{false};

  ParallelFor(options.num_threads, chunks.size(), [&](size_t c) {
    if (overflowed.load(std::memory_order_relaxed)) return;
    MatchSet& out = chunk_rows[c];
    std::vector<VertexId> probe(plan.shared_star.size());
    std::vector<VertexId> combined(out_arity);
    size_t drops = 0;
    for (size_t cr = chunks[c].first; cr < chunks[c].second; ++cr) {
      const auto current_row = current.Get(cr);
      for (size_t p = 0; p < current_row.size(); ++p) {
        combined[plan.current_to_out[p]] = current_row[p];
      }
      for (uint32_t m = 0; m < probe_k; ++m) {
        for (size_t i = 0; i < plan.shared_current.size(); ++i) {
          const VertexId v = current_row[plan.shared_current[i]];
          probe[i] = m == 0 ? v : avt.Apply(v, probe_k - m);  // F_m^{-1}.
        }
        const uint64_t key = KeyOfValues(probe);
        for (const JoinIndex::Entry& entry : index.Candidates(key)) {
          if (entry.key != key) continue;
          const auto star_row = star_rows.Get(entry.row);
          // Verify shared equality (hash collisions must not fabricate
          // rows).
          bool consistent = true;
          for (size_t i = 0; i < plan.shared_star.size(); ++i) {
            if (star_row[plan.shared_star[i]] != probe[i]) {
              consistent = false;
              break;
            }
          }
          if (!consistent) continue;
          for (size_t i = 0; i < plan.new_star.size(); ++i) {
            const VertexId v = star_row[plan.new_star[i]];
            combined[plan.new_to_out[i]] = m == 0 ? v : avt.Apply(v, m);
          }
          if (MatchSet::HasDuplicateVertices(combined)) {
            ++drops;
            continue;
          }
          if (options.max_rows != 0 &&
              budget.fetch_add(1, std::memory_order_relaxed) >=
                  options.max_rows) {
            overflowed.store(true, std::memory_order_relaxed);
            chunk_drops[c] = drops;
            return;
          }
          out.Append(combined);
        }
      }
    }
    chunk_drops[c] = drops;
  });

  size_t total_rows = 0;
  for (const MatchSet& part : chunk_rows) total_rows += part.NumMatches();
  size_t total_drops = 0;
  for (const size_t drops : chunk_drops) total_drops += drops;
  // Recorded before the overflow early-return below: the caller's peak_rows
  // reads output_rows, and the runs that hit the row cap are exactly the
  // ones whose peak must not be under-reported.
  step->injectivity_drops = total_drops;
  step->output_rows = total_rows;
  if (overflowed.load(std::memory_order_relaxed)) {
    step->overflow = true;
    *overflow = true;
    return MatchSet(out_arity);
  }
  if (chunk_rows.size() == 1) return std::move(chunk_rows[0]);
  MatchSet next(out_arity);
  next.ReserveAdditional(total_rows);
  for (const MatchSet& part : chunk_rows) next.AppendAll(part);
  return next;
}

}  // namespace

Result<MatchSet> JoinUnitMatches(const std::vector<UnitMatches>& stars,
                                 const Avt& avt, size_t num_query_vertices,
                                 const JoinOptions& options,
                                 JoinDiagnostics* diagnostics) {
  if (stars.empty()) {
    return Status::InvalidArgument("join needs at least one star");
  }
  for (const UnitMatches& star : stars) {
    if (star.truncated) {
      return Status::ResourceExhausted(
          "star match set was truncated; join would be incomplete");
    }
  }
  const bool use_estimates =
      options.star_cost_estimates.size() == stars.size();
  const auto cost_of = [&](size_t i) {
    return use_estimates
               ? options.star_cost_estimates[i]
               : static_cast<double>(stars[i].matches.NumMatches());
  };

  // Anchor: the star with the fewest matches (Algorithm 2 line 1) — by
  // actual count, which is exact and free, never by estimate. Its rows are
  // NOT expanded; the anchor center staying in B1 is what defines Rin.
  size_t anchor = 0;
  for (size_t i = 1; i < stars.size(); ++i) {
    if (stars[i].matches.NumMatches() <
        stars[anchor].matches.NumMatches()) {
      anchor = i;
    }
  }
  // Step 0 is the anchor itself — no JoinStep runs for it, but recording it
  // keeps the anchor's provenance (which star, how many rows seeded the
  // intermediate) in the flight-recorder trace. Crucially this also covers
  // the zero-match short-circuit below: without it a served query could log
  // an empty `steps` array, hiding which star emptied the result.
  // estimated_rows stays 0.0 so the anchor never feeds the estimate/actual
  // join-calibration metrics (its "output" is a star cardinality, not a
  // join-step output).
  if (diagnostics != nullptr) {
    JoinStepProfile anchor_profile;
    anchor_profile.step = 0;
    anchor_profile.star_index = static_cast<uint32_t>(anchor);
    anchor_profile.star_center = static_cast<uint32_t>(stars[anchor].center);
    anchor_profile.output_rows = stars[anchor].matches.NumMatches();
    anchor_profile.kind = UnitKindName(stars[anchor].kind);
    diagnostics->steps.push_back(anchor_profile);
  }
  // An empty anchor empties every join down the line: return before any
  // other star gets indexed.
  if (stars[anchor].matches.NumMatches() == 0) {
    return MatchSet(num_query_vertices);
  }
  if (diagnostics != nullptr) {
    diagnostics->peak_rows = std::max(diagnostics->peak_rows,
                                      stars[anchor].matches.NumMatches());
  }

  // Plan the join order up front; it depends on the column lists and the
  // costs only. Next star: overlapping with the current columns, cheapest
  // by the cost model (Algorithm 2 line 4, with estimated instead of raw
  // cardinalities when the decomposition supplied them); fall back to
  // cheapest overall (cross product) for disconnected queries.
  std::vector<VertexId> columns = stars[anchor].columns;
  std::vector<StepPlan> plans;
  std::vector<bool> joined(stars.size(), false);
  joined[anchor] = true;
  for (size_t step = 1; step < stars.size(); ++step) {
    size_t next = SIZE_MAX;
    bool next_overlaps = false;
    for (size_t i = 0; i < stars.size(); ++i) {
      if (joined[i]) continue;
      bool overlaps = false;
      for (const VertexId column : stars[i].columns) {
        if (std::find(columns.begin(), columns.end(), column) !=
            columns.end()) {
          overlaps = true;
          break;
        }
      }
      const bool better =
          next == SIZE_MAX || (overlaps && !next_overlaps) ||
          (overlaps == next_overlaps && cost_of(i) < cost_of(next));
      if (better) {
        next = i;
        next_overlaps = overlaps;
      }
    }
    joined[next] = true;
    StepPlan plan;
    plan.unit = next;
    const std::vector<VertexId>& star_columns = stars[next].columns;
    for (size_t sp = 0; sp < star_columns.size(); ++sp) {
      const auto it = std::find(columns.begin(), columns.end(),
                                star_columns[sp]);
      if (it != columns.end()) {
        plan.shared_current.push_back(
            static_cast<size_t>(it - columns.begin()));
        plan.shared_star.push_back(sp);
      } else {
        plan.new_star.push_back(sp);
      }
    }
    for (size_t p = 0; p < columns.size(); ++p) {
      plan.current_to_out.push_back(p);
    }
    for (const size_t sp : plan.new_star) {
      plan.new_to_out.push_back(columns.size());
      columns.push_back(star_columns[sp]);
    }
    plans.push_back(std::move(plan));
  }

  // Rin's columns are canonical (query vertex 0..m-1). When the final
  // column list is a permutation of them, the last step writes each column
  // straight to its query vertex's position.
  const char* malformed = nullptr;
  if (columns.size() != num_query_vertices) {
    malformed = "star decomposition did not cover every query vertex";
  } else {
    std::vector<bool> seen(num_query_vertices, false);
    for (const VertexId column : columns) {
      if (column >= num_query_vertices || seen[column]) {
        malformed = "join produced malformed columns";
        break;
      }
      seen[column] = true;
    }
  }
  if (malformed == nullptr && !plans.empty()) {
    StepPlan& last = plans.back();
    const std::vector<VertexId>& star_columns = stars[last.unit].columns;
    for (size_t p = 0; p < last.current_to_out.size(); ++p) {
      last.current_to_out[p] = columns[p];
    }
    for (size_t i = 0; i < last.new_star.size(); ++i) {
      last.new_to_out[i] = star_columns[last.new_star[i]];
    }
  }

  const uint32_t probe_k = std::max<uint32_t>(avt.k(), 1);
  const MatchSet* current = &stars[anchor].matches;
  MatchSet rows;
  for (size_t step = 0; step < plans.size(); ++step) {
    const UnitMatches& star = stars[plans[step].unit];
    JoinStepProfile profile;
    profile.step = static_cast<uint32_t>(step + 1);
    profile.star_index = static_cast<uint32_t>(plans[step].unit);
    profile.star_center = static_cast<uint32_t>(star.center);
    profile.estimated_rows = use_estimates ? cost_of(plans[step].unit) : 0.0;
    profile.kind = UnitKindName(star.kind);
    bool overflow = false;
    // Lines 5-8 without materializing the expansion: probe under all k
    // automorphic functions.
    PPSM_ASSIGN_OR_RETURN(
        rows, JoinStep(*current, plans[step], star.matches, avt, probe_k,
                       options, &profile, &overflow));
    current = &rows;
    if (diagnostics != nullptr) {
      diagnostics->peak_rows =
          std::max<size_t>(diagnostics->peak_rows, profile.output_rows);
      diagnostics->steps.push_back(profile);
    }
    if (overflow) {
      return Status::ResourceExhausted(
          "join intermediate exceeded the row cap");
    }
    if (rows.NumMatches() == 0) {
      return MatchSet(num_query_vertices);  // Rin is empty.
    }
  }
  if (malformed != nullptr) return Status::Internal(malformed);
  if (plans.empty()) {
    // A single unit: permute its columns into query order.
    const MatchSet& unit = stars[anchor].matches;
    rows = MatchSet(num_query_vertices);
    rows.ReserveAdditional(unit.NumMatches());
    std::vector<VertexId> row(num_query_vertices);
    for (size_t r = 0; r < unit.NumMatches(); ++r) {
      const auto source = unit.Get(r);
      for (size_t p = 0; p < source.size(); ++p) row[columns[p]] = source[p];
      rows.Append(row);
    }
  }
  // No dedup pass: every row is distinct by construction. The anchor rows
  // are distinct, and each JoinStep preserves that — a joined row pins down
  // its probe row (the current columns) and the expanded unit row F_m(s)
  // (overlap + new columns), and F_m(s) determines (s, m) because unit
  // roots lie in block 0 (see JoinStep). Sorting ~|Rin| distinct rows was
  // the single most expensive phase of large joins, for presentation only.
  return rows;
}

}  // namespace ppsm
