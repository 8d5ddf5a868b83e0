// Quickstart: the paper's running example (Figure 1) end to end.
//
// Builds the professional social network G and query Q from the paper,
// deploys the privacy-preserving pipeline (EFF method, k = 2, theta = 2),
// sends the anonymized query through the simulated cloud, and prints the
// exact matches recovered by the client — the two matches the paper's
// Example 1 promises.
//
//   ./quickstart

#include <iostream>

#include "core/ppsm_system.h"
#include "graph/example_graphs.h"

int main() {
  using namespace ppsm;

  // The data owner's side: the original graph G and query Q (Figure 1).
  RunningExample ex = MakeRunningExample();
  std::cout << "Data graph G: " << ex.graph.NumVertices() << " vertices, "
            << ex.graph.NumEdges() << " edges\n"
            << "Query Q: " << ex.query.NumVertices() << " vertices, "
            << ex.query.NumEdges() << " edges\n\n";

  // Deploy: builds the LCT (cost-model label combination), transforms G
  // into the 2-automorphic Gk, extracts the outsourced graph Go and
  // "uploads" it (plus the AVT) to the in-process cloud server.
  SystemConfig config;
  config.method = Method::kEff;
  config.k = 2;
  config.theta = 2;
  auto system = PpsmSystem::Setup(ex.graph, ex.schema, config);
  if (!system.ok()) {
    std::cerr << "setup failed: " << system.status() << "\n";
    return 1;
  }
  const SetupStats& setup = system->setup_stats();
  std::cout << "Anonymization: |V(Gk)|=" << setup.gk_vertices
            << " |E(Gk)|=" << setup.gk_edges << " (" << setup.noise_edges
            << " noise edges), |E(Go)|=" << setup.go_edges
            << ", upload=" << setup.upload_bytes << " bytes\n\n";

  // Query: Q is anonymized to Qo (labels -> label groups), evaluated in the
  // cloud over Go via star decomposition + join, and the client filters the
  // returned Rin back to the exact answer R(Q,G).
  QueryRequest request;
  request.pattern = ex.query;
  const QueryResponse response = system->Execute(request);
  if (!response.ok()) {
    std::cerr << "query failed: " << response.status << "\n";
    return 1;
  }

  const char* vertex_names[] = {"Tom",    "Lucy",      "Alice", "David",
                                "Google", "Microsoft", "UIUC",  "MIT"};
  std::cout << "Cloud returned " << response.cloud.result_rows
            << " candidate rows (Rin); client recovered "
            << response.matches.NumMatches() << " exact matches:\n";
  for (size_t r = 0; r < response.matches.NumMatches(); ++r) {
    const auto match = response.matches.Get(r);
    std::cout << "  match " << r + 1 << ": ";
    for (size_t q = 0; q < match.size(); ++q) {
      std::cout << "q" << q + 1 << "->" << vertex_names[match[q]] << " ";
    }
    std::cout << "\n";
  }
  std::cout << "\nTimings: cloud=" << response.cloud.cloud_ms
            << "ms network=" << response.cloud.network_ms
            << "ms client=" << response.cloud.client_ms << "ms\n";
  return 0;
}
