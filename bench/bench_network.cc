// Reproduces paper Figure 33: network transmission time for the query
// results (simulated link, see cloud/channel.h), k = 2..6, |E(Q)| in
// {6, 12}, all four methods. Expected shape: EFF transmits only Rin and
// beats BAS (full R(Qo,Gk)) by roughly k; RAN/FSIM sit between EFF and BAS
// because their looser grouping inflates |Rin|.

#include <iostream>

#include "bench/bench_common.h"
#include "graph/query_extractor.h"
#include "net/net_client.h"
#include "net/ppsm_server.h"
#include "net/serving_system.h"
#include "query/query_api.h"
#include "util/random.h"
#include "util/timer.h"

namespace ppsm::bench {
namespace {

/// Live mode: the same queries through a real loopback socket (in-process
/// PpsmServer + NetClient) so the modeled link of Figure 33 can be compared
/// against measured wire traffic. The simulated columns come from the
/// QueryResponse the server computed (they ride inside the reply payload);
/// the live columns are what actually crossed the socket. Skip with
/// PPSM_BENCH_LIVE=0.
void RunLive(double scale, size_t queries) {
  const char* env = std::getenv("PPSM_BENCH_LIVE");
  if (env != nullptr && std::string(env) == "0") return;

  const BenchDataset dataset = StandardDatasets(scale).front();
  auto graph = GenerateDataset(dataset.config);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return;
  }
  SystemConfig config;
  config.method = Method::kEff;
  config.k = 4;
  auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
  if (!system.ok()) {
    std::cerr << system.status() << "\n";
    return;
  }
  ServingSystem serving(std::move(*system));
  auto server = PpsmServer::Start(&serving);
  if (!server.ok()) {
    std::cerr << server.status() << "\n";
    return;
  }
  auto client = NetClient::Connect("127.0.0.1", (*server)->port());
  if (!client.ok()) {
    std::cerr << client.status() << "\n";
    return;
  }

  double sim_network_ms = 0.0, live_rtt_ms = 0.0, compute_ms = 0.0;
  double sim_request_bytes = 0.0, sim_response_bytes = 0.0;
  double wire_request_bytes = 0.0, wire_response_bytes = 0.0;
  size_t completed = 0;
  Rng rng(/*seed=*/17);
  WallTimer wall;
  for (size_t i = 0; i < queries; ++i) {
    auto extracted = ExtractQuery(*graph, /*query_edges=*/6, rng);
    if (!extracted.ok()) continue;
    QueryRequest request;
    request.pattern = extracted->query;
    WallTimer rtt;
    auto reply = client->Execute(request);
    if (!reply.ok()) continue;  // Row-cap refusals, as in the batch run.
    const double rtt_ms = rtt.ElapsedMillis();
    ++completed;
    live_rtt_ms += rtt_ms;
    // Compute share of the round trip (cloud evaluation + Algorithm 3
    // post-processing both run server-side); the rest is real wire cost.
    compute_ms += reply->cloud.cloud_ms + reply->cloud.client_ms;
    sim_network_ms += reply->cloud.network_ms;
    sim_request_bytes += static_cast<double>(reply->cloud.request_bytes);
    sim_response_bytes += static_cast<double>(reply->cloud.response_bytes);
    // What actually crossed the socket: the framed codec payloads.
    wire_request_bytes += static_cast<double>(
        kFrameHeaderBytes + SerializeQueryRequest(request).size());
    wire_response_bytes += static_cast<double>(
        kFrameHeaderBytes + SerializeQueryResponse(*reply).size());
  }
  const double wall_ms = wall.ElapsedMillis();
  (*server)->Stop();
  if (completed == 0) {
    std::cerr << "[bench_network] live mode: no query completed\n";
    return;
  }
  const auto denom = static_cast<double>(completed);

  Table table("live loopback vs simulated link (" + dataset.name +
                  ", eff, k=4, |E(Q)|=6, " + std::to_string(completed) +
                  " queries)",
              {"metric", "simulated", "live wire"});
  table.AddRowValues("network ms / query", Table::Num(sim_network_ms / denom, 3),
                     Table::Num((live_rtt_ms - compute_ms) / denom, 3));
  table.AddRowValues("request bytes / query",
                     Table::Num(sim_request_bytes / denom, 0),
                     Table::Num(wire_request_bytes / denom, 0));
  table.AddRowValues("response bytes / query",
                     Table::Num(sim_response_bytes / denom, 0),
                     Table::Num(wire_response_bytes / denom, 0));
  table.AddRowValues("round-trip ms / query", "-",
                     Table::Num(live_rtt_ms / denom, 3));
  table.AddRowValues("throughput q/s", "-",
                     Table::Num(1000.0 * denom / std::max(wall_ms, 1e-9), 1));
  Emit(table, "fig33_live_loopback");
}

void Run() {
  const double scale = ScaleFromEnv();
  const size_t queries = QueriesFromEnv(8);
  std::cout << "[bench_network] scale=" << scale
            << " queries/config=" << queries << "\n\n";
  const size_t qsizes[] = {6, 12};

  Table time_table("Figure 33: network transmission time (ms)",
                   {"dataset", "method", "k=2 q6", "k=2 q12", "k=3 q6",
                    "k=3 q12", "k=4 q6", "k=4 q12", "k=5 q6", "k=5 q12",
                    "k=6 q6", "k=6 q12"});
  Table bytes_table("Figure 33 (companion): response payload (bytes)",
                    {"dataset", "method", "k=2 q6", "k=2 q12", "k=3 q6",
                     "k=3 q12", "k=4 q6", "k=4 q12", "k=5 q6", "k=5 q12",
                     "k=6 q6", "k=6 q12"});

  for (const BenchDataset& dataset : StandardDatasets(scale)) {
    auto graph = GenerateDataset(dataset.config);
    if (!graph.ok()) {
      std::cerr << graph.status() << "\n";
      return;
    }
    for (const Method method : kAllMethods) {
      std::vector<std::string> time_row{dataset.name, MethodName(method)};
      std::vector<std::string> bytes_row{dataset.name, MethodName(method)};
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
                                   /*seed=*/qsize * 7 + k);
          if (!agg.ok()) {
            std::cerr << agg.status() << "\n";
            return;
          }
          time_row.push_back(Table::Num(agg->network_ms, 3));
          bytes_row.push_back(Table::Num(agg->response_bytes, 0));
        }
      }
      time_table.AddRow(time_row);
      bytes_table.AddRow(bytes_row);
    }
  }
  Emit(time_table, "fig33_network_time");
  Emit(bytes_table, "fig33_response_bytes");
  RunLive(scale, queries);
}

}  // namespace
}  // namespace ppsm::bench

int main() {
  ppsm::bench::Run();
  return 0;
}
