// Reproduces paper Figures 20, 21 & 27: client-side processing time
// (Algorithm 3) — (a) vs |E(Q)| at k=3, (b) vs k at |E(Q)|=6 — for all four
// methods on every dataset. Expected shapes: client time is orders of
// magnitude below cloud time; EFF < RAN/FSIM (fewer candidates), BAS is
// slightly cheaper than EFF at the client only (its cloud already expanded
// R(Qo,Gk)).
//
// Before the timing tables it writes a counting snapshot of the client's
// answers, BENCH_client.json: a fixed fixture (PPSM_BENCH_SCALE and
// PPSM_BENCH_QUERIES are ignored for it, no timers), and per (method, k) the
// summed |Rin|, (row, shift) pairs examined and |R(Q,G)|, plus a fingerprint
// of every sorted result row. CI gates it with
//
//   tools/bench_diff.py --threshold 0
//       bench_results/BENCH_client.json <out>/BENCH_client.json

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "graph/query_extractor.h"
#include "util/random.h"

namespace ppsm::bench {
namespace {

constexpr double kSnapshotScale = 0.02;  // DbpediaLike: 960 vertices.
constexpr size_t kSnapshotQueries = 12;
/// Type-only patterns of 1-3 edges: more candidate pairs and several answers
/// each, so the fingerprint covers more than one row per query.
constexpr size_t kSnapshotTypeOnlyQueries = 6;
constexpr uint64_t kSnapshotSeed = 71;
constexpr uint32_t kSnapshotKs[] = {2, 4};

struct SnapshotCell {
  Method method = Method::kEff;
  uint32_t k = 0;
  size_t answered = 0;
  size_t refused = 0;     // Row-cap refusals (ResourceExhausted).
  size_t rin_rows = 0;    // Σ|Rin| (R(Qo,Gk) for BAS).
  size_t candidates = 0;  // Σ (row, shift) pairs the client examined.
  size_t results = 0;     // Σ|R(Q,G)|.
  uint32_t fingerprint = 2166136261u;  // FNV-1a 32 over the result rows.
};

/// `query` with its labels dropped.
AttributedGraph TypeOnly(const AttributedGraph& query,
                         std::shared_ptr<const Schema> schema) {
  GraphBuilder builder(std::move(schema));
  for (VertexId v = 0; v < query.NumVertices(); ++v) {
    builder.AddVertex(query.PrimaryType(v), {});
  }
  query.ForEachEdge([&](VertexId a, VertexId b) {
    builder.AddEdgeUnchecked(a, b);
  });
  return builder.Build().value();
}

void Fold(uint32_t* hash, uint32_t word) {
  for (int byte = 0; byte < 4; ++byte) {
    *hash = (*hash ^ ((word >> (8 * byte)) & 0xffu)) * 16777619u;
  }
}

/// Runs the fixed workload; false (after printing why) when setup fails or
/// a query fails with anything but the row cap.
bool RunSnapshot(std::vector<SnapshotCell>* cells) {
  auto graph = GenerateDataset(DbpediaLike(kSnapshotScale));
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return false;
  }
  Rng rng(kSnapshotSeed);
  std::vector<AttributedGraph> queries;
  for (size_t i = 0; i < kSnapshotQueries; ++i) {
    auto extracted = ExtractQuery(*graph, 2 + i % 5, rng);
    if (!extracted.ok()) {
      std::cerr << extracted.status() << "\n";
      return false;
    }
    queries.push_back(std::move(extracted->query));
  }
  for (size_t i = 0; i < kSnapshotTypeOnlyQueries; ++i) {
    auto extracted = ExtractQuery(*graph, 1 + i % 3, rng);
    if (!extracted.ok()) {
      std::cerr << extracted.status() << "\n";
      return false;
    }
    queries.push_back(TypeOnly(extracted->query, graph->schema()));
  }
  for (const Method method : kAllMethods) {
    for (const uint32_t k : kSnapshotKs) {
      SystemConfig config;
      config.method = method;
      config.k = k;
      auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
      if (!system.ok()) {
        std::cerr << system.status() << "\n";
        return false;
      }
      SnapshotCell cell{.method = method, .k = k};
      for (const AttributedGraph& pattern : queries) {
        QueryRequest request;
        request.pattern = pattern;
        const QueryResponse outcome = system->Execute(request);
        if (!outcome.ok()) {
          if (outcome.status.code() != StatusCode::kResourceExhausted) {
            std::cerr << outcome.status << "\n";
            return false;
          }
          ++cell.refused;
          continue;
        }
        ++cell.answered;
        cell.rin_rows += outcome.cloud.result_rows;
        cell.candidates += outcome.cloud.client_candidates;
        cell.results += outcome.matches.NumMatches();
        for (size_t r = 0; r < outcome.matches.NumMatches(); ++r) {
          for (const VertexId v : outcome.matches.Get(r)) {
            Fold(&cell.fingerprint, v);
          }
        }
        Fold(&cell.fingerprint, UINT32_MAX);  // Query boundary.
      }
      cells->push_back(cell);
    }
  }
  return true;
}

/// Prints the snapshot and writes BENCH_client.json; the committed
/// bench_results/BENCH_client.json is this function's verbatim output.
bool WriteSnapshot() {
  std::vector<SnapshotCell> cells;
  if (!RunSnapshot(&cells)) return false;
  Table table("Client answers on the fixed fixture (counting snapshot)",
              {"method", "k", "answered", "refused", "sum |Rin|",
               "sum candidates", "sum |R(Q,G)|", "fingerprint"});
  for (const SnapshotCell& c : cells) {
    table.AddRowValues(MethodName(c.method), c.k, c.answered, c.refused,
                       c.rin_rows, c.candidates, c.results, c.fingerprint);
  }
  table.Print();
  const std::string dir = OutDir();
  if (dir.empty()) return true;
  const std::string path = dir + "/BENCH_client.json";
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "bench_client: cannot write %s\n", path.c_str());
    return false;
  }
  out << "{\n"
      << "  \"description\": \"Client answer gate: the client's Algorithm 3 "
         "(shift selection, then injectivity and edge checks on G) over a "
         "fixed workload, per method and k. Fully deterministic counting "
         "benchmark (no timers).\",\n"
      << "  \"fixture\": \"DbpediaLike(" << kSnapshotScale << "), "
      << kSnapshotQueries << " extracted queries of 2-6 edges, then "
      << kSnapshotTypeOnlyQueries
      << " of 1-3 edges with labels dropped, seed " << kSnapshotSeed
      << "; default SystemConfig per method and k\",\n"
      << "  \"command\": \"bench_client (the snapshot ignores "
         "PPSM_BENCH_SCALE / PPSM_BENCH_QUERIES; honors PPSM_BENCH_OUT)\",\n"
      << "  \"units\": \"queries, rows, (row, shift) pairs; fingerprint = "
         "FNV-1a 32 over every sorted result row, queries in order\",\n"
      << "  \"cells\": [\n";
  for (size_t i = 0; i < cells.size(); ++i) {
    const SnapshotCell& c = cells[i];
    out << "    { \"method\": \"" << MethodName(c.method)
        << "\", \"k\": " << c.k << ", \"answered\": " << c.answered
        << ", \"refused\": " << c.refused << ", \"rin_rows\": "
        << c.rin_rows << ", \"candidates\": " << c.candidates
        << ", \"results\": " << c.results << ", \"fingerprint\": "
        << c.fingerprint << " }" << (i + 1 < cells.size() ? "," : "")
        << "\n";
  }
  out << "  ],\n"
      << "  \"diff_tool\": \"tools/bench_diff.py --threshold 0 (the bench "
         "is deterministic)\"\n"
      << "}\n";
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Run() {
  if (!WriteSnapshot()) return 1;
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_client] scale=" << scale
            << " queries/config=" << queries << "\n\n";

  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return 1;
    }
    const std::string stem = dataset.name.substr(0, dataset.name.find('*'));

    // (a) vs |E(Q)| at k = 3.
    {
      std::map<int, std::unique_ptr<PpsmSystem>> systems;
      for (const Method method : kAllMethods) {
        SystemConfig config;
        config.method = method;
        config.k = 3;
        auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
        if (!system.ok()) {
          std::cerr << system.status() << "\n";
          return 1;
        }
        systems[static_cast<int>(method)] =
            std::make_unique<PpsmSystem>(std::move(*system));
      }
      Table table("Figure 20/21/27a: client processing time (ms) on " +
                      dataset.name + ", k=3",
                  {"|E(Q)|", "EFF", "RAN", "FSIM", "BAS"});
      for (const size_t qsize : kAllQuerySizes) {
        std::vector<std::string> row{std::to_string(qsize)};
        for (const Method method : kAllMethods) {
          auto agg =
              RunQueryBatch(*systems[static_cast<int>(method)], *graph,
                            qsize, queries, /*seed=*/qsize * 31);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return 1;
          }
          row.push_back(Table::Num(agg->client_ms, 4));
        }
        table.AddRow(row);
      }
      Emit(table, "fig20_client_time_vs_q_" + stem);
    }

    // (b) vs k at |E(Q)| = 6.
    {
      Table table("Figure 20/21/27b: client processing time (ms) on " +
                      dataset.name + ", |E(Q)|=6",
                  {"k", "EFF", "RAN", "FSIM", "BAS"});
      for (const uint32_t k : kAllKs) {
        std::vector<std::string> row{std::to_string(k)};
        for (const Method method : kAllMethods) {
          SystemConfig config;
          config.method = method;
          config.k = k;
          auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
          if (!system.ok()) {
            std::cerr << system.status() << "\n";
            return 1;
          }
          auto agg = RunQueryBatch(*system, *graph, 6, queries,
                                   /*seed=*/k * 131);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return 1;
          }
          row.push_back(Table::Num(agg->client_ms, 4));
        }
        table.AddRow(row);
      }
      Emit(table, "fig20_client_time_vs_k_" + stem);
    }
  }
  return 0;
}

}  // namespace
}  // namespace ppsm::bench

int main() { return ppsm::bench::Run(); }
