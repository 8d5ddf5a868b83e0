// Social-network scenario: the privacy / cost trade-off as k grows.
//
// A data owner outsources a power-law social graph and wants to understand
// what each privacy level k costs: noise edges, upload size, cloud index
// size, per-query latency — while every answer stays exact. This is the
// workload the paper's introduction motivates (identity disclosure on a
// professional social network).
//
//   ./social_network [num_vertices]   (default 4000)

#include <cstdlib>
#include <iostream>

#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "match/subgraph_matcher.h"
#include "util/random.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace ppsm;

  const size_t num_vertices =
      argc > 1 ? static_cast<size_t>(std::atol(argv[1])) : 4000;

  // A social graph: people/companies/schools-like typed vertices with
  // Zipf-distributed attribute values.
  DatasetConfig dataset;
  dataset.name = "social";
  dataset.num_vertices = num_vertices;
  dataset.edges_per_vertex = 4;
  dataset.num_types = 3;
  dataset.attributes_per_type = 2;
  dataset.labels_per_attribute = 40;  // Realistic value diversity: with too
                                      // few values per attribute the
                                      // generalized groups stop being
                                      // selective and candidate sets explode.
  dataset.label_zipf_skew = 0.8;
  dataset.seed = 1234;
  auto graph = GenerateDataset(dataset);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "Social graph: " << graph->NumVertices() << " vertices, "
            << graph->NumEdges() << " edges\n\n";

  // A fixed workload of 20 six-edge queries, extracted like the paper's.
  Rng rng(7);
  std::vector<AttributedGraph> workload;
  for (int i = 0; i < 20; ++i) {
    auto extracted = ExtractQuery(*graph, 6, rng);
    if (extracted.ok()) workload.push_back(std::move(extracted->query));
  }

  Table table("Privacy level k vs cost (EFF, theta=2, exact answers)",
              {"k", "noise edges", "upload KB", "index KB", "avg cloud ms",
               "avg client ms", "answered", "exact?"});
  for (const uint32_t k : {2u, 3u, 4u, 5u, 6u}) {
    SystemConfig config;
    config.method = Method::kEff;
    config.k = k;
    auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
    if (!system.ok()) {
      std::cerr << system.status() << "\n";
      return 1;
    }
    double cloud_ms = 0.0;
    double client_ms = 0.0;
    bool exact = true;
    size_t answered = 0;
    for (const AttributedGraph& query : workload) {
      QueryRequest request;
      request.pattern = query;
      const QueryResponse response = system->Execute(request);
      if (!response.ok()) continue;
      cloud_ms += response.cloud.cloud_ms;
      client_ms += response.cloud.client_ms;
      ++answered;
      // Verify exactness against the reference matcher on G.
      const MatchSet truth = FindSubgraphMatches(query, *graph);
      if (!MatchSet::EquivalentUnordered(response.matches, truth)) {
        exact = false;
      }
    }
    const double denom = answered > 0 ? static_cast<double>(answered) : 1.0;
    table.AddRowValues(
        k, system->setup_stats().noise_edges,
        Table::Num(system->setup_stats().upload_bytes / 1024.0, 1),
        Table::Num(system->cloud().IndexMemoryBytes() / 1024.0, 1),
        Table::Num(cloud_ms / denom, 3), Table::Num(client_ms / denom, 3),
        std::to_string(answered) + "/" + std::to_string(workload.size()),
        exact ? "yes" : "NO");
  }
  table.Print();
  std::cout << "Every row keeps answers exact: higher k buys stronger "
               "anonymity (1/k re-identification bound) at the price of "
               "noise edges and query time.\n";
  return 0;
}
