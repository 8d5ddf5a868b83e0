// Knowledge-graph scenario: optimized outsourcing (EFF) vs the baseline
// (BAS) on a DBpedia-like typed graph.
//
// Demonstrates the paper's headline claim: uploading only the outsourced
// graph Go and answering through the symmetry of Gk beats uploading Gk
// wholesale — on upload size, cloud query time and response bytes — while
// both return exactly R(Q,G).
//
//   ./knowledge_graph [num_vertices]   (default 5000)

#include <cstdlib>
#include <iostream>

#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "util/random.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace ppsm;

  DatasetConfig dataset = DbpediaLike(1.0);
  if (argc > 1) {
    dataset.num_vertices = static_cast<size_t>(std::atol(argv[1]));
  } else {
    dataset.num_vertices = 5000;
  }
  auto graph = GenerateDataset(dataset);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "Knowledge graph: " << graph->NumVertices() << " vertices, "
            << graph->NumEdges() << " edges, "
            << graph->schema()->NumTypes() << " entity types, "
            << graph->schema()->NumLabels() << " attribute values\n\n";

  const uint32_t k = 4;
  Table table("EFF (Go upload) vs BAS (full Gk upload), k=4, theta=2",
              {"metric", "EFF", "BAS"});

  std::vector<std::unique_ptr<PpsmSystem>> systems;
  for (const Method method : {Method::kEff, Method::kBas}) {
    SystemConfig config;
    config.method = method;
    config.k = k;
    auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
    if (!system.ok()) {
      std::cerr << system.status() << "\n";
      return 1;
    }
    systems.push_back(std::make_unique<PpsmSystem>(std::move(*system)));
  }

  table.AddRowValues("upload bytes", systems[0]->setup_stats().upload_bytes,
                     systems[1]->setup_stats().upload_bytes);
  table.AddRowValues("hosted edges", systems[0]->cloud().HostedEdges(),
                     systems[1]->cloud().HostedEdges());
  table.AddRowValues(
      "index KB",
      Table::Num(systems[0]->cloud().IndexMemoryBytes() / 1024.0, 1),
      Table::Num(systems[1]->cloud().IndexMemoryBytes() / 1024.0, 1));

  // A shared workload of 25 eight-edge queries.
  Rng rng(21);
  double cloud_ms[2] = {0, 0};
  double bytes[2] = {0, 0};
  double results[2] = {0, 0};
  size_t answered = 0;
  for (int i = 0; i < 25; ++i) {
    auto extracted = ExtractQuery(*graph, 8, rng);
    if (!extracted.ok()) continue;
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse eff = systems[0]->Execute(request);
    const QueryResponse bas = systems[1]->Execute(request);
    if (!eff.ok() || !bas.ok()) continue;
    if (!MatchSet::EquivalentUnordered(eff.matches, bas.matches)) {
      std::cerr << "BUG: EFF and BAS disagree on exact results!\n";
      return 1;
    }
    cloud_ms[0] += eff.cloud.cloud_ms;
    cloud_ms[1] += bas.cloud.cloud_ms;
    bytes[0] += static_cast<double>(eff.cloud.response_bytes);
    bytes[1] += static_cast<double>(bas.cloud.response_bytes);
    results[0] += static_cast<double>(eff.matches.NumMatches());
    results[1] += static_cast<double>(bas.matches.NumMatches());
    ++answered;
  }
  const double denom = answered > 0 ? static_cast<double>(answered) : 1.0;
  table.AddRowValues("avg cloud ms", Table::Num(cloud_ms[0] / denom, 3),
                     Table::Num(cloud_ms[1] / denom, 3));
  table.AddRowValues("avg response bytes", Table::Num(bytes[0] / denom, 0),
                     Table::Num(bytes[1] / denom, 0));
  table.AddRowValues("avg |R(Q,G)|", Table::Num(results[0] / denom, 1),
                     Table::Num(results[1] / denom, 1));
  table.Print();
  std::cout << "Both methods returned identical exact answers on all "
            << answered << " queries.\n";
  return 0;
}
