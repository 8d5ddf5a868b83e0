// Reproduces paper Figures 22 & 34: overall end-to-end running time (cloud
// + network + client) for k = 2..6, |E(Q)| in {6, 12}, all four methods on
// every dataset. Expected shape: EFF best everywhere; BAS worst and
// degrading fastest with k and |E(Q)|.

#include <iostream>
#include <string>

#include "bench/bench_common.h"

namespace ppsm::bench {
namespace {

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_overall] scale=" << scale
            << " queries/config=" << queries << "\n\n";
  const size_t qsizes[] = {6, 12};

  Table table("Figure 22/34: overall running time (ms)",
              {"dataset", "method", "k=2 q6", "k=2 q12", "k=3 q6", "k=3 q12",
               "k=4 q6", "k=4 q12", "k=5 q6", "k=5 q12", "k=6 q6",
               "k=6 q12"});
  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return;
    }
    for (const Method method : kAllMethods) {
      std::vector<std::string> row{dataset.name, MethodName(method)};
      for (const uint32_t k : kAllKs) {
        SystemConfig config;
        config.method = method;
        config.k = k;
        auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
        if (!system.ok()) {
          std::cerr << system.status() << "\n";
          return;
        }
        for (const size_t qsize : qsizes) {
          auto agg = RunQueryBatch(*system, *graph, qsize, queries,
                                   /*seed=*/qsize * 3 + k);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return;
          }
          // "-": every query was refused at the row cap; "*": some were
          // (the average covers the answered ones only).
          std::string cell =
              agg->queries == 0 ? "-" : Table::Num(agg->total_ms, 3);
          if (agg->refused > 0 && agg->queries > 0) cell += "*";
          row.push_back(std::move(cell));
        }
      }
      table.AddRow(row);
    }
  }
  Emit(table, "fig22_overall_time");
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  return 0;
}
