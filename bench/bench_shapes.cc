// Query-shape ablation (extension bench, not a paper figure): how the cloud
// query time and |Rin| vary across query topologies — paths, stars, cycles,
// trees and the paper's unconstrained random walks — at fixed |E(Q)|.
// Stars stress the star matcher directly (one big star), cycles stress the
// join (every vertex is shared by two stars), paths/trees sit between.
//
// The second half is a DETERMINISTIC counting gate (no timers): the
// mixed-unit planner (radius-2 Go, star/path/tree candidates) vs the
// star-only planner on shape-controlled workloads, reporting peak
// intermediate join rows per workload. Fixed dataset and seeds, integer
// counting only, so CI diffs its BENCH_units.json snapshot at
// --threshold 0 (same pattern as BENCH_sharding).

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "graph/query_shapes.h"

namespace ppsm::bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_shapes] scale=" << scale
            << " queries/config=" << queries << "\n\n";
  const QueryShape shapes[] = {QueryShape::kPath, QueryShape::kStar,
                               QueryShape::kCycle, QueryShape::kTree,
                               QueryShape::kRandomWalk};
  const size_t query_edges = 6;

  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return;
    }
    Table table("Shape ablation on " + dataset.name +
                    " (EFF, k=3, |E(Q)|=6)",
                {"shape", "cloud ms", "|RS|", "|Rin|", "answers",
                 "answered"});
    SystemConfig config;
    config.method = Method::kEff;
    config.k = 3;
    auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
    if (!system.ok()) {
      std::cerr << system.status() << "\n";
      return;
    }
    for (const QueryShape shape : shapes) {
      Rng rng(static_cast<uint64_t>(shape) * 100 + 1);
      double cloud_ms = 0.0;
      double rs = 0.0;
      double rin = 0.0;
      double answers = 0.0;
      size_t done = 0;
      for (size_t i = 0; i < queries; ++i) {
        auto extracted =
            ExtractShapedQuery(*graph, shape, query_edges, rng);
        if (!extracted.ok()) continue;
        QueryRequest request;
        request.pattern = extracted->query;
        const QueryResponse outcome = system->Execute(request);
        if (!outcome.ok()) continue;
        cloud_ms += outcome.cloud.cloud_ms;
        rs += static_cast<double>(outcome.cloud.rs_size);
        rin += static_cast<double>(outcome.cloud.result_rows);
        answers += static_cast<double>(outcome.matches.NumMatches());
        ++done;
      }
      const double denom = done > 0 ? static_cast<double>(done) : 1.0;
      table.AddRowValues(QueryShapeName(shape),
                         Table::Num(cloud_ms / denom, 3),
                         Table::Num(rs / denom, 1),
                         Table::Num(rin / denom, 1),
                         Table::Num(answers / denom, 1),
                         std::to_string(done) + "/" +
                             std::to_string(queries));
    }
    const std::string stem = dataset.name.substr(0, dataset.name.find('*'));
    Emit(table, "shape_ablation_" + stem);
  }
}

// ---------------------------------------------------------------------------
// Deterministic mixed-vs-star units gate.

/// One shape-controlled workload of the gate: fixed shape, edge count and
/// seed so the extracted queries reproduce exactly on every host.
struct UnitsWorkload {
  const char* name;
  QueryShape shape;
  size_t query_edges;
  uint64_t seed;
};

constexpr UnitsWorkload kUnitsWorkloads[] = {
    {"long_path", QueryShape::kPath, 6, 101},
    {"deep_tree", QueryShape::kTree, 8, 205},
    {"star_friendly", QueryShape::kStar, 4, 303},
};
constexpr size_t kUnitsQueries = 6;

/// Integer counts of one (workload, planner-mode) cell.
struct UnitsCell {
  size_t queries = 0;         // Queries answered (extraction can fail).
  size_t units = 0;           // Total decomposition units across queries.
  size_t deep_units = 0;      // Units with kind != "star".
  size_t rs_rows = 0;         // Total |RS| (unit-match rows).
  size_t peak_join_rows = 0;  // Max intermediate join-step output.
  size_t result_rows = 0;     // Total |Rin|.
  size_t answers = 0;         // Total exact |R(Q,G)|.
};

UnitsCell MeasureUnits(const PpsmSystem& system, const AttributedGraph& g,
                       const UnitsWorkload& workload) {
  UnitsCell cell;
  Rng rng(workload.seed);
  for (size_t i = 0; i < kUnitsQueries; ++i) {
    auto extracted =
        ExtractShapedQuery(g, workload.shape, workload.query_edges, rng);
    if (!extracted.ok()) {
      std::cerr << "extract failed: " << extracted.status() << "\n";
      continue;
    }
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system.Execute(request);
    if (!outcome.ok()) {
      std::cerr << "query failed: " << outcome.status << "\n";
      continue;
    }
    ++cell.queries;
    cell.units += outcome.cloud.stars.size();
    for (const UnitProfile& unit : outcome.cloud.stars) {
      if (unit.kind != "star") ++cell.deep_units;
    }
    cell.rs_rows += outcome.cloud.rs_size;
    // Peak over the anchor and every intermediate, but not the final step:
    // the last step's output is |Rin| itself, identical across planners by
    // correctness, so including it would floor the ratio at 1 whenever no
    // intermediate exceeds the answer. Single-step plans (one unit covers
    // Qo) keep their one step — those rows are held either way.
    const auto& steps = outcome.cloud.join_steps;
    const size_t held = steps.size() > 1 ? steps.size() - 1 : steps.size();
    for (size_t s = 0; s < held; ++s) {
      cell.peak_join_rows =
          std::max(cell.peak_join_rows,
                   static_cast<size_t>(steps[s].output_rows));
    }
    cell.result_rows += outcome.cloud.result_rows;
    cell.answers += outcome.matches.NumMatches();
  }
  return cell;
}

/// Writes the gate snapshot; the committed bench_results/BENCH_units.json
/// is this function's verbatim output, so CI can diff at --threshold 0.
void WriteUnitsJson(const std::string& path,
                    const std::vector<std::pair<UnitsCell, UnitsCell>>&
                        cells) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_shapes: cannot write %s\n", path.c_str());
    return;
  }
  out << "{\n"
      << "  \"description\": \"Mixed star/path/tree decomposition vs "
         "star-only planning on shape-controlled workloads: peak "
         "intermediate join rows is the quantity the generalized units "
         "attack. Deterministic counting gate (fixed dataset + seeds, no "
         "timers).\",\n"
      << "  \"fixture\": \"NotreDameLike(0.01) default seed, radius-2 Go, "
         "k=3; star-only = same system with cloud.max_unit_depth=1; "
      << kUnitsQueries << " shaped queries per workload; peak excludes the "
         "final join step (its output is |Rin|, identical across planners "
         "by correctness)\",\n"
      << "  \"command\": \"bench_shapes (the units gate ignores "
         "PPSM_BENCH_SCALE / PPSM_BENCH_QUERIES; honors PPSM_BENCH_OUT)\",\n"
      << "  \"units\": \"row and unit counts; flags (1 = holds, 0 = "
         "violated)\",\n"
      << "  \"host_note\": \"Every leaf is deterministic, so CI gates this "
         "file with tools/bench_diff.py --threshold 0 against a fresh "
         "run.\",\n"
      << "  \"workloads\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const UnitsWorkload& w = kUnitsWorkloads[i];
    const UnitsCell& star = cells[i].first;
    const UnitsCell& mixed = cells[i].second;
    out << "    { \"workload\": \"" << w.name << "\", \"queries\": "
        << mixed.queries << ",\n"
        << "      \"star_only\": { \"units\": " << star.units
        << ", \"rs_rows\": " << star.rs_rows << ", \"peak_join_rows\": "
        << star.peak_join_rows << ", \"result_rows\": " << star.result_rows
        << " },\n"
        << "      \"mixed\": { \"units\": " << mixed.units
        << ", \"deep_units\": " << mixed.deep_units << ", \"rs_rows\": "
        << mixed.rs_rows << ", \"peak_join_rows\": " << mixed.peak_join_rows
        << ", \"result_rows\": " << mixed.result_rows << " },\n"
        << "      \"answers_agree\": "
        << (star.answers == mixed.answers ? 1 : 0)
        << ", \"peak_not_worse\": "
        << (mixed.peak_join_rows <= star.peak_join_rows ? 1 : 0) << " }"
        << (i + 1 < cells.size() ? "," : "") << "\n";
  }
  out << "  ],\n"
      << "  \"diff_tool\": \"tools/bench_diff.py compares two of these "
         "files: numeric leaves as before -> after (delta%), --threshold N "
         "exits 1 past N percent (0 here: the gate is deterministic)\"\n"
      << "}\n";
  std::printf("wrote %s\n", path.c_str());
}

void RunUnitsGate() {
  // Fixed-size fixture regardless of PPSM_BENCH_SCALE: the snapshot must
  // reproduce exactly for the threshold-0 CI diff. NotreDameLike's hub
  // structure is the interesting regime: individual stars around a hub
  // match broadly while the full path/tree is selective, so the star-only
  // join materializes a genuine mid-join blowup that deep units avoid.
  auto graph = GenerateDataset(NotreDameLike(0.01));
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return;
  }

  SystemConfig mixed_config;
  mixed_config.method = Method::kEff;
  mixed_config.k = 3;
  mixed_config.go_hops = 2;
  auto mixed = PpsmSystem::Setup(*graph, graph->schema(), mixed_config);
  SystemConfig star_config = mixed_config;
  star_config.cloud.max_unit_depth = 1;  // Star-only planning, same Go.
  auto star_only = PpsmSystem::Setup(*graph, graph->schema(), star_config);
  if (!mixed.ok() || !star_only.ok()) {
    std::cerr << "units gate setup failed\n";
    return;
  }

  Table table("Mixed units vs star-only (radius-2 Go, k=3, deterministic)",
              {"workload", "answered", "units s/m", "deep units",
               "peak join rows s/m", "reduction"});
  std::vector<std::pair<UnitsCell, UnitsCell>> cells;
  for (const UnitsWorkload& workload : kUnitsWorkloads) {
    const UnitsCell star = MeasureUnits(*star_only, *graph, workload);
    const UnitsCell mix = MeasureUnits(*mixed, *graph, workload);
    const double reduction =
        mix.peak_join_rows > 0
            ? static_cast<double>(star.peak_join_rows) /
                  static_cast<double>(mix.peak_join_rows)
            : static_cast<double>(star.peak_join_rows);
    table.AddRowValues(workload.name,
                       std::to_string(mix.queries) + "/" +
                           std::to_string(kUnitsQueries),
                       std::to_string(star.units) + "/" +
                           std::to_string(mix.units),
                       mix.deep_units,
                       std::to_string(star.peak_join_rows) + "/" +
                           std::to_string(mix.peak_join_rows),
                       Table::Num(reduction, 2));
    cells.emplace_back(star, mix);
  }
  table.Print();

  const std::string dir = OutDir();
  if (!dir.empty()) WriteUnitsJson(dir + "/BENCH_units.json", cells);
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  ppsm::bench::RunUnitsGate();
  return 0;
}
