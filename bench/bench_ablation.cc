// Ablation bench for the design choices DESIGN.md calls out (not a paper
// figure — it isolates where the paper's wins come from):
//   1. Block alignment order (type+degree vs BFS) -> noise edges in Gk.
//   2. Rin vs full R(Qo,Gk) transfer -> response bytes saved by the
//      automorphic-expansion trick (§4.2.1).
//   3. ILP-optimal vs greedy vs all-vertices query decomposition -> Def. 6
//      cost of the chosen stars.

#include <iostream>

#include "bench/bench_common.h"
#include "cloud/data_owner.h"
#include "graph/query_extractor.h"
#include "ilp/cover_solver.h"
#include "match/decomposition.h"
#include "match/result_join.h"
#include "tests/join_oracle.h"
#include "util/random.h"

namespace ppsm::bench {
namespace {

void AblateAlignment(const BenchDataset& dataset) {
  auto graph = GenerateDataset(dataset.config);
  if (!graph.ok()) return;
  Table table("Ablation 1: alignment order vs noise edges on " + dataset.name,
              {"k", "type+degree", "BFS"});
  for (const uint32_t k : kAllKs) {
    std::vector<std::string> row{std::to_string(k)};
    for (const AlignmentOrder order :
         {AlignmentOrder::kTypeDegree, AlignmentOrder::kBfs}) {
      KAutomorphismOptions options;
      options.k = k;
      options.alignment = order;
      auto kag = BuildKAutomorphicGraph(*graph, options);
      if (!kag.ok()) {
        std::cerr << kag.status() << "\n";
        return;
      }
      row.push_back(std::to_string(kag->NumNoiseEdges()));
    }
    table.AddRow(row);
  }
  const std::string stem = dataset.name.substr(0, dataset.name.find('*'));
  Emit(table, "ablation_alignment_" + stem);
}

void AblateRinTransfer(const BenchDataset& dataset, size_t queries) {
  auto graph = GenerateDataset(dataset.config);
  if (!graph.ok()) return;
  Table table("Ablation 2: Rin vs full R(Qo,Gk) transfer bytes on " +
                  dataset.name + " (EFF, |E(Q)|=6)",
              {"k", "Rin bytes", "full bytes", "saving factor"});
  for (const uint32_t k : kAllKs) {
    SystemConfig config;
    config.method = Method::kEff;
    config.k = k;
    auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
    if (!system.ok()) {
      std::cerr << system.status() << "\n";
      return;
    }
    Rng rng(k * 17);
    double rin_bytes = 0.0;
    double full_bytes = 0.0;
    size_t done = 0;
    for (size_t i = 0; i < queries; ++i) {
      auto extracted = ExtractQuery(*graph, 6, rng);
      if (!extracted.ok()) continue;
      QueryRequest exec_request;
      exec_request.pattern = extracted->query;
      const QueryResponse outcome = system->Execute(exec_request);
      if (!outcome.ok()) continue;
      rin_bytes += static_cast<double>(outcome.cloud.response_bytes);
      // Full transfer: expand Rin to R(Qo,Gk) and serialize that instead.
      auto qo = system->owner().AnonymizeQuery(extracted->query);
      if (!qo.ok()) continue;
      auto request = system->owner().AnonymizeQueryToRequest(
          extracted->query);
      auto answer = system->cloud().Serve(*request);
      if (!answer.ok()) continue;
      auto rin = MatchSet::Deserialize(answer->response_payload);
      if (!rin.ok()) continue;
      const MatchSet full =
          join_oracle::ExpandByAutomorphisms(*rin, system->owner().kag().avt);
      full_bytes += static_cast<double>(full.Serialize().size());
      ++done;
    }
    if (done == 0) continue;
    rin_bytes /= static_cast<double>(done);
    full_bytes /= static_cast<double>(done);
    table.AddRowValues(k, Table::Num(rin_bytes, 0), Table::Num(full_bytes, 0),
                       Table::Num(full_bytes / std::max(rin_bytes, 1.0), 2));
  }
  const std::string stem = dataset.name.substr(0, dataset.name.find('*'));
  Emit(table, "ablation_rin_transfer_" + stem);
}

void AblateDecomposition(const BenchDataset& dataset, size_t queries) {
  auto graph = GenerateDataset(dataset.config);
  if (!graph.ok()) return;
  SystemConfig config;
  config.method = Method::kEff;
  config.k = 3;
  auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
  if (!system.ok()) return;
  const GkStatistics& stats = system->cloud().statistics();

  Table table("Ablation 3: decomposition policy vs Def.6 cost on " +
                  dataset.name + " (k=3)",
              {"|E(Q)|", "ILP-optimal", "greedy cover", "all vertices"});
  Rng rng(99);
  for (const size_t qsize : kAllQuerySizes) {
    double ilp_cost = 0.0;
    double greedy_cost = 0.0;
    double all_cost = 0.0;
    size_t done = 0;
    for (size_t i = 0; i < queries; ++i) {
      auto extracted = ExtractQuery(*graph, qsize, rng);
      if (!extracted.ok()) continue;
      auto qo = system->owner().AnonymizeQuery(extracted->query);
      if (!qo.ok()) continue;
      auto decomposition = DecomposeQueryUnits(*qo, stats, /*max_depth=*/1);
      if (!decomposition.ok()) continue;
      ilp_cost += decomposition->total_cost;

      // Greedy: repeatedly take the cheapest star covering an uncovered
      // edge (the obvious heuristic the ILP replaces).
      std::vector<double> cost(qo->NumVertices());
      for (VertexId v = 0; v < qo->NumVertices(); ++v) {
        cost[v] = EstimateStarCardinality(stats, *qo, v);
        all_cost += cost[v];
      }
      std::vector<std::pair<VertexId, VertexId>> edges;
      qo->ForEachEdge([&edges](VertexId u, VertexId v) {
        edges.emplace_back(u, v);
      });
      std::vector<bool> covered(edges.size(), false);
      std::vector<bool> chosen(qo->NumVertices(), false);
      for (size_t e = 0; e < edges.size(); ++e) {
        if (covered[e]) continue;
        const auto [u, v] = edges[e];
        const VertexId pick = cost[u] <= cost[v] ? u : v;
        if (!chosen[pick]) {
          chosen[pick] = true;
          greedy_cost += cost[pick];
        }
        for (size_t e2 = 0; e2 < edges.size(); ++e2) {
          if (edges[e2].first == pick || edges[e2].second == pick) {
            covered[e2] = true;
          }
        }
      }
      ++done;
    }
    if (done == 0) continue;
    table.AddRowValues(qsize, Table::Num(ilp_cost / done, 1),
                       Table::Num(greedy_cost / done, 1),
                       Table::Num(all_cost / done, 1));
  }
  const std::string stem = dataset.name.substr(0, dataset.name.find('*'));
  Emit(table, "ablation_decomposition_" + stem);
}

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_ablation] scale=" << scale
            << " queries/config=" << queries << "\n\n";
  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    AblateAlignment(dataset);
    AblateRinTransfer(dataset, queries);
    AblateDecomposition(dataset, queries);
  }
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  return 0;
}
