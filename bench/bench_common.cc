#include "bench/bench_common.h"

#include <cstdlib>
#include <filesystem>
#include <iostream>

#include "graph/query_extractor.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "util/random.h"

namespace ppsm::bench {

std::vector<BenchDataset> StandardDatasets(double scale_multiplier) {
  return {
      {"Web-NotreDame*", NotreDameLike(scale_multiplier)},
      {"DBpedia*", DbpediaLike(scale_multiplier)},
      {"UK-2002*", Uk2002Like(scale_multiplier)},
  };
}

double ScaleFromEnv(double def) {
  const char* value = std::getenv("PPSM_BENCH_SCALE");
  if (value == nullptr) return def;
  const double parsed = std::atof(value);
  return parsed > 0.0 ? parsed : def;
}

size_t QueriesFromEnv(size_t def) {
  const char* value = std::getenv("PPSM_BENCH_QUERIES");
  if (value == nullptr) return def;
  const long parsed = std::atol(value);
  return parsed > 0 ? static_cast<size_t>(parsed) : def;
}

std::string OutDir() {
  const char* value = std::getenv("PPSM_BENCH_OUT");
  const std::string dir = value != nullptr ? value : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";
  return dir;
}

void Emit(const Table& table, const std::string& stem) {
  table.Print();
  const std::string dir = OutDir();
  if (!dir.empty()) {
    const std::string path = dir + "/" + stem + ".csv";
    if (!table.WriteCsv(path)) {
      std::cerr << "warning: could not write " << path << "\n";
    }
  }
  if (std::getenv("PPSM_BENCH_NO_METRICS") == nullptr) {
    DumpMetricsJson(stem);
  }
}

void DumpMetricsJson(const std::string& stem) {
  const std::string dir = OutDir();
  if (dir.empty()) return;
  const std::string path = dir + "/" + stem + ".metrics.json";
  const Status written =
      WriteStringToFile(path, ExportMetricsJson(MetricsRegistry::Global()));
  if (!written.ok()) {
    std::cerr << "warning: " << written.ToString() << "\n";
  }
}

Result<QueryAggregates> RunQueryBatch(PpsmSystem& system,
                                      const AttributedGraph& graph,
                                      size_t query_edges, size_t count,
                                      uint64_t seed) {
  QueryAggregates agg;
  Rng rng(seed);
  size_t completed = 0;
  for (size_t i = 0; i < count; ++i) {
    PPSM_ASSIGN_OR_RETURN(const ExtractedQuery extracted,
                          ExtractQuery(graph, query_edges, rng));
    QueryRequest request;
    request.pattern = extracted.query;
    const QueryResponse outcome = system.Execute(request);
    if (!outcome.ok()) {
      if (outcome.status.code() == StatusCode::kResourceExhausted) {
        ++agg.refused;  // Row-cap guard tripped: skip this query.
        continue;
      }
      return outcome.status;
    }
    ++completed;
    agg.cloud_ms += outcome.cloud.cloud_ms;
    agg.decomposition_ms += outcome.cloud.decomposition_ms;
    agg.star_matching_ms += outcome.cloud.star_matching_ms;
    agg.join_ms += outcome.cloud.join_ms;
    agg.client_ms += outcome.cloud.client_ms;
    agg.network_ms += outcome.cloud.network_ms;
    agg.total_ms += outcome.cloud.total_ms;
    agg.rs_size += static_cast<double>(outcome.cloud.rs_size);
    agg.result_rows += static_cast<double>(outcome.cloud.result_rows);
    agg.response_bytes += static_cast<double>(outcome.cloud.response_bytes);
    agg.candidates += static_cast<double>(outcome.cloud.client_candidates);
    agg.final_results += static_cast<double>(outcome.matches.NumMatches());
  }
  if (completed == 0) {
    agg.queries = 0;
    return agg;
  }
  const auto denom = static_cast<double>(completed);
  agg.cloud_ms /= denom;
  agg.decomposition_ms /= denom;
  agg.star_matching_ms /= denom;
  agg.join_ms /= denom;
  agg.client_ms /= denom;
  agg.network_ms /= denom;
  agg.total_ms /= denom;
  agg.rs_size /= denom;
  agg.result_rows /= denom;
  agg.response_bytes /= denom;
  agg.candidates /= denom;
  agg.final_results /= denom;
  agg.queries = completed;
  return agg;
}

}  // namespace ppsm::bench
