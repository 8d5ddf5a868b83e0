// ppsm_cli — command-line front end for the library.
//
//   ppsm_cli generate --preset nd|dbp|uk --scale 0.05 --out g.graph
//   ppsm_cli attach   --edges edges.txt --out g.graph [--types N]
//                     [--attrs N] [--labels N] [--seed S]
//   ppsm_cli stats    --in g.graph
//   ppsm_cli anonymize --in g.graph --k 4 [--theta 2]
//                      [--strategy eff|ran|fsim] [--baseline]
//                      [--setup-threads N]
//                      [--upload-out pkg.bin] [--save-snapshot DIR]
//   ppsm_cli query    --in g.graph --pattern q.pat --k 4
//                     [--method eff|ran|fsim|bas] [--theta 2]
//                     [--cloud-threads N] [--setup-threads N]
//                     [--shards S] [--repeat N] [--concurrency N]
//                     [--go-hops H] [--max-unit-depth D]
//                     [--save-snapshot DIR | --load-snapshot DIR]
//
// `generate` writes a synthetic dataset in the ppsm text format; `attach`
// turns a SNAP-style edge list into an attributed graph; `stats` summarizes
// a graph; `anonymize` runs the offline pipeline and reports the paper's
// setup metrics; `query` deploys an in-process cloud and answers a pattern
// (see query/pattern_parser.h for the pattern syntax).
//
// With `--connect HOST:PORT`, `query` talks to a running ppsm_server over
// the wire protocol instead of deploying in-process (the pattern is parsed
// against the schema fetched from the server); `ping` and `reload` probe
// and hot-swap a running server.

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "core/ppsm_system.h"
#include "obs/metrics.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "graph/text_io.h"
#include "net/net_client.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "query/pattern_parser.h"
#include "util/intersect.h"
#include "util/table.h"
#include "util/timer.h"

namespace ppsm::cli {
namespace {

/// Minimal flag parser; flags may appear in any order, as either
/// `--flag value` pairs or single `--flag=value` tokens.
class Args {
 public:
  Args(int argc, char** argv, int start) {
    for (int i = start; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        error_ = "expected a --flag, got '" + std::string(arg) + "'";
        return;
      }
      const char* eq = std::strchr(arg + 2, '=');
      if (eq != nullptr) {
        values_[std::string(arg + 2, eq)] = eq + 1;
      } else if (i + 1 < argc) {
        values_[arg + 2] = argv[++i];
      } else {
        error_ = "flag '" + std::string(arg) + "' is missing a value";
        return;
      }
    }
  }

  const std::string& error() const { return error_; }
  bool Has(const std::string& key) const { return values_.contains(key); }
  std::string Get(const std::string& key, const std::string& def = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    return Has(key) ? std::atof(Get(key).c_str()) : def;
  }
  long GetInt(const std::string& key, long def) const {
    return Has(key) ? std::atol(Get(key).c_str()) : def;
  }

 private:
  std::map<std::string, std::string> values_;
  std::string error_;
};

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

int Generate(const Args& args) {
  const std::string preset = args.Get("preset", "dbp");
  const double scale = args.GetDouble("scale", 0.05);
  DatasetConfig config;
  if (preset == "nd") {
    config = NotreDameLike(scale);
  } else if (preset == "dbp") {
    config = DbpediaLike(scale);
  } else if (preset == "uk") {
    config = Uk2002Like(scale);
  } else {
    return Fail("unknown preset '" + preset + "' (want nd|dbp|uk)");
  }
  if (args.Has("seed")) config.seed = args.GetInt("seed", 0);
  auto graph = GenerateDataset(config);
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("--out is required");
  const Status written = WriteGraphTextFile(*graph, out);
  if (!written.ok()) return Fail(written.ToString());
  std::cout << "wrote " << graph->NumVertices() << " vertices / "
            << graph->NumEdges() << " edges (" << config.name << ") to "
            << out << "\n";
  return 0;
}

int Attach(const Args& args) {
  const std::string edges = args.Get("edges");
  if (edges.empty()) return Fail("--edges is required");
  auto topology = ReadEdgeListFile(edges);
  if (!topology.ok()) return Fail(topology.status().ToString());
  DatasetConfig vocab;
  vocab.num_types = static_cast<size_t>(args.GetInt("types", 4));
  vocab.attributes_per_type = static_cast<size_t>(args.GetInt("attrs", 2));
  vocab.labels_per_attribute =
      static_cast<size_t>(args.GetInt("labels", 16));
  auto graph = AttachSyntheticAttributes(
      *topology, vocab, static_cast<uint64_t>(args.GetInt("seed", 42)));
  if (!graph.ok()) return Fail(graph.status().ToString());
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("--out is required");
  const Status written = WriteGraphTextFile(*graph, out);
  if (!written.ok()) return Fail(written.ToString());
  std::cout << "attached attributes to " << graph->NumVertices()
            << " vertices; wrote " << out << "\n";
  return 0;
}

int Stats(const Args& args) {
  const std::string in = args.Get("in");
  if (in.empty()) return Fail("--in is required");
  auto graph = ReadGraphTextFile(in);
  if (!graph.ok()) return Fail(graph.status().ToString());
  Table table("graph statistics: " + in, {"metric", "value"});
  table.AddRowValues("vertices", graph->NumVertices());
  table.AddRowValues("edges", graph->NumEdges());
  table.AddRowValues("avg degree", Table::Num(graph->AverageDegree(), 2));
  table.AddRowValues("max degree", graph->MaxDegree());
  table.AddRowValues("connected components",
                     NumConnectedComponents(*graph));
  table.AddRowValues("vertex types", graph->schema()->NumTypes());
  table.AddRowValues("attributes", graph->schema()->NumAttributes());
  table.AddRowValues("labels", graph->schema()->NumLabels());
  table.Print();
  return 0;
}

Result<Method> ParseMethod(const std::string& name) {
  if (name == "eff") return Method::kEff;
  if (name == "ran") return Method::kRan;
  if (name == "fsim") return Method::kFsim;
  if (name == "bas") return Method::kBas;
  return Status::InvalidArgument("unknown method '" + name +
                                 "' (want eff|ran|fsim|bas)");
}

int Anonymize(const Args& args) {
  const std::string in = args.Get("in");
  if (in.empty()) return Fail("--in is required");
  auto graph = ReadGraphTextFile(in);
  if (!graph.ok()) return Fail(graph.status().ToString());

  SystemConfig config;
  config.k = static_cast<uint32_t>(args.GetInt("k", 2));
  config.theta = static_cast<size_t>(args.GetInt("theta", 2));
  auto method = ParseMethod(args.Get("strategy", "eff"));
  if (!method.ok()) return Fail(method.status().ToString());
  config.method =
      args.Has("baseline") ? Method::kBas : method.value();
  config.setup_threads =
      static_cast<size_t>(std::max(1L, args.GetInt("setup-threads", 1)));
  config.go_hops =
      static_cast<uint32_t>(std::max(1L, args.GetInt("go-hops", 1)));

  auto system = PpsmSystem::Setup(*graph, graph->schema(), config);
  if (!system.ok()) return Fail(system.status().ToString());
  const SetupStats& stats = system->setup_stats();
  Table table("anonymization report (k=" + std::to_string(config.k) +
                  ", theta=" + std::to_string(config.theta) + ", " +
                  MethodName(config.method) + ")",
              {"metric", "value"});
  table.AddRowValues("|V(Gk)|", stats.gk_vertices);
  table.AddRowValues("|E(Gk)|", stats.gk_edges);
  table.AddRowValues("noise vertices", stats.noise_vertices);
  table.AddRowValues("noise edges", stats.noise_edges);
  table.AddRowValues("|V(Go)| uploaded", stats.go_vertices);
  table.AddRowValues("|E(Go)| uploaded", stats.go_edges);
  table.AddRowValues("upload bytes", stats.upload_bytes);
  table.AddRowValues("LCT build ms", Table::Num(stats.lct_ms, 2));
  table.AddRowValues("k-automorphism ms", Table::Num(stats.kauto_ms, 2));
  table.AddRowValues("total setup ms", Table::Num(stats.total_ms, 2));
  table.Print();

  const std::string upload_out = args.Get("upload-out");
  if (!upload_out.empty()) {
    std::ofstream out(upload_out, std::ios::binary);
    if (!out) return Fail("cannot open '" + upload_out + "'");
    const auto& bytes = system->owner().upload_bytes();
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    std::cout << "wrote upload package (" << bytes.size() << " bytes) to "
              << upload_out << "\n";
  }
  const std::string snapshot_out = args.Get("save-snapshot");
  if (!snapshot_out.empty()) {
    const Status saved = system->SaveSnapshot(snapshot_out);
    if (!saved.ok()) return Fail(saved.ToString());
    std::cout << "snapshot written to " << snapshot_out << "\n";
  }
  return 0;
}

/// Splits a --connect value into host and port ("host:port"; "localhost"
/// and numeric IPv4 hosts are accepted by NetClient).
Result<std::pair<std::string, uint16_t>> ParseHostPort(
    const std::string& spec) {
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == spec.size()) {
    return Status::InvalidArgument("--connect wants HOST:PORT, got '" + spec +
                                   "'");
  }
  const long port = std::atol(spec.c_str() + colon + 1);
  if (port <= 0 || port > 65535) {
    return Status::InvalidArgument("bad port in '" + spec + "'");
  }
  return std::make_pair(spec.substr(0, colon), static_cast<uint16_t>(port));
}

Result<NetClient> ConnectFromArgs(const Args& args) {
  PPSM_ASSIGN_OR_RETURN(auto endpoint, ParseHostPort(args.Get("connect")));
  return NetClient::Connect(endpoint.first, endpoint.second);
}

/// `query --connect HOST:PORT`: the serving deployment lives in
/// ppsm_server; this side only parses the pattern (against the schema the
/// server hands out) and replays it over the wire.
int RemoteQuery(const Args& args) {
  const std::string pattern_path = args.Get("pattern");
  if (pattern_path.empty()) return Fail("--pattern is required");
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());

  auto schema = client->FetchSchema();
  if (!schema.ok()) return Fail(schema.status().ToString());

  std::ifstream pattern_file(pattern_path);
  if (!pattern_file) return Fail("cannot open '" + pattern_path + "'");
  std::string pattern_text((std::istreambuf_iterator<char>(pattern_file)),
                           std::istreambuf_iterator<char>());
  auto parsed = ParsePattern(pattern_text, *schema);
  if (!parsed.ok()) return Fail(parsed.status().ToString());

  QueryRequest request;
  request.pattern = parsed->query;
  request.deadline_ms =
      static_cast<uint64_t>(std::max(0L, args.GetInt("deadline-ms", 0)));
  const size_t repeat =
      static_cast<size_t>(std::max(1L, args.GetInt("repeat", 1)));

  QueryResponse response;
  size_t succeeded = 0;
  WallTimer wall;
  for (size_t i = 0; i < repeat; ++i) {
    auto reply = client->Execute(request);
    if (!reply.ok()) {
      std::cerr << "query failed: " << reply.status() << "\n";
      continue;
    }
    ++succeeded;
    response = *std::move(reply);
  }
  const double wall_ms = wall.ElapsedMillis();
  if (succeeded == 0) return Fail("all " + std::to_string(repeat) +
                                  " remote queries failed");

  std::cout << response.matches.NumMatches() << " match(es):\n";
  const size_t show = std::min<size_t>(response.matches.NumMatches(), 20);
  for (size_t r = 0; r < show; ++r) {
    const auto row = response.matches.Get(r);
    std::cout << "  ";
    for (size_t q = 0; q < row.size(); ++q) {
      std::cout << parsed->variables[q] << "=" << row[q] << " ";
    }
    std::cout << "\n";
  }
  if (show < response.matches.NumMatches()) {
    std::cout << "  ... (" << response.matches.NumMatches() - show
              << " more)\n";
  }
  std::cout << "query " << response.cloud.query_id << ": cloud "
            << Table::Num(response.cloud.cloud_ms, 3) << "ms | network "
            << Table::Num(response.cloud.network_ms, 3) << "ms | client "
            << Table::Num(response.cloud.client_ms, 3) << "ms | "
            << response.cloud.request_bytes << " B up, "
            << response.cloud.response_bytes << " B down\n";
  if (repeat > 1) {
    std::cout << "replay: " << succeeded << "/" << repeat << " ok in "
              << Table::Num(wall_ms, 3) << "ms ("
              << Table::Num(1000.0 * static_cast<double>(succeeded) /
                                std::max(wall_ms, 1e-9),
                            1)
              << " q/s over one connection)\n";
  }
  return succeeded == repeat ? 0 : 1;
}

int Ping(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());
  WallTimer timer;
  auto version = client->Ping();
  if (!version.ok()) return Fail(version.status().ToString());
  std::cout << "pong: snapshot v" << *version << " ("
            << Table::Num(timer.ElapsedMillis(), 3) << "ms)\n";
  return 0;
}

int Reload(const Args& args) {
  auto client = ConnectFromArgs(args);
  if (!client.ok()) return Fail(client.status().ToString());
  auto version = client->Reload();
  if (!version.ok()) return Fail(version.status().ToString());
  std::cout << "reloaded: snapshot v" << *version << "\n";
  return 0;
}

int Query(const Args& args) {
  if (args.Has("connect")) return RemoteQuery(args);
  const std::string in = args.Get("in");
  const std::string snapshot_in = args.Get("load-snapshot");
  const std::string pattern_path = args.Get("pattern");
  if (pattern_path.empty()) return Fail("--pattern is required");
  if (in.empty() && snapshot_in.empty()) {
    return Fail("--in or --load-snapshot is required");
  }

  SystemConfig config;
  config.k = static_cast<uint32_t>(args.GetInt("k", 2));
  config.theta = static_cast<size_t>(args.GetInt("theta", 2));
  auto method = ParseMethod(args.Get("method", "eff"));
  if (!method.ok()) return Fail(method.status().ToString());
  config.method = method.value();
  // --threads is the deprecated spelling of --cloud-threads.
  config.cloud.num_threads = static_cast<size_t>(std::max(
      1L, args.GetInt("cloud-threads", args.GetInt("threads", 1))));
  config.setup_threads =
      static_cast<size_t>(std::max(1L, args.GetInt("setup-threads", 1)));
  config.cloud.query_deadline_ms =
      static_cast<uint64_t>(std::max(0L, args.GetInt("deadline-ms", 0)));
  // --shards=S hosts a CloudCluster of S slice servers instead of one
  // CloudServer; results are byte-identical at any value (DESIGN.md §13).
  config.num_shards =
      static_cast<uint32_t>(std::max(1L, args.GetInt("shards", 1)));
  // --go-hops=H uploads the radius-H Go so the planner may pick path/tree
  // units of depth up to H; --max-unit-depth=1 forces star-only planning
  // (byte-identical to the pre-unit pipeline at any radius).
  config.go_hops =
      static_cast<uint32_t>(std::max(1L, args.GetInt("go-hops", 1)));
  config.cloud.max_unit_depth =
      static_cast<uint32_t>(std::max(0L, args.GetInt("max-unit-depth", 0)));
  // --aux-graph=0 disables the per-query auxiliary graph (A/B reference
  // path, byte-identical rows); --intersect-kernel pins a set-intersection
  // kernel instead of the per-step cost-model pick (also output-neutral).
  config.cloud.aux_graph = args.GetInt("aux-graph", 1) != 0;
  auto kernel = ParseIntersectKernel(args.Get("intersect-kernel", "auto"));
  if (!kernel.ok()) return Fail(kernel.status().ToString());
  config.cloud.intersect_kernel = kernel.value();
  const size_t repeat =
      static_cast<size_t>(std::max(1L, args.GetInt("repeat", 1)));
  const size_t concurrency =
      static_cast<size_t>(std::max(1L, args.GetInt("concurrency", 1)));
  if (concurrency > config.cloud.max_inflight) {
    config.cloud.max_inflight = concurrency;
  }

  // A snapshot restores the whole owner-side state (offline pipeline
  // already applied: the snapshot's k and baseline flag win over flags).
  auto system = [&]() -> Result<PpsmSystem> {
    if (!snapshot_in.empty()) {
      return PpsmSystem::LoadSnapshot(snapshot_in, config);
    }
    auto graph = ReadGraphTextFile(in);
    if (!graph.ok()) return graph.status();
    auto schema = graph->schema();
    return PpsmSystem::Setup(*std::move(graph), std::move(schema), config);
  }();
  if (!system.ok()) return Fail(system.status().ToString());

  const std::string snapshot_out = args.Get("save-snapshot");
  if (!snapshot_out.empty()) {
    const Status saved = system->SaveSnapshot(snapshot_out);
    if (!saved.ok()) return Fail(saved.ToString());
    std::cerr << "snapshot written to " << snapshot_out << "\n";
  }

  std::ifstream pattern_file(pattern_path);
  if (!pattern_file) return Fail("cannot open '" + pattern_path + "'");
  std::string pattern_text((std::istreambuf_iterator<char>(pattern_file)),
                           std::istreambuf_iterator<char>());
  auto parsed =
      ParsePattern(pattern_text, *system->owner().graph().schema());
  if (!parsed.ok()) return Fail(parsed.status().ToString());

  // Concurrent replay: the same pattern `repeat` times, `concurrency` in
  // flight. Per-query responses are identical by construction, so report
  // the serving aggregates instead of the match rows.
  if (repeat > 1 || concurrency > 1) {
    QueryRequest request;
    request.pattern = parsed->query;
    const std::vector<QueryRequest> workload(repeat, request);
    const BatchResult batch = system->ExecuteBatch(workload, concurrency);
    for (const auto& response : batch.responses) {
      if (!response.ok()) {
        std::cerr << "query failed: " << response.status << "\n";
      }
    }
    Table table("workload replay (repeat=" + std::to_string(repeat) +
                    ", concurrency=" + std::to_string(concurrency) + ")",
                {"metric", "value"});
    table.AddRowValues("queries", batch.summary.queries);
    table.AddRowValues("succeeded", batch.summary.succeeded);
    table.AddRowValues("failed", batch.summary.failed);
    table.AddRowValues("wall ms", Table::Num(batch.summary.wall_ms, 3));
    table.AddRowValues("throughput q/s",
                       Table::Num(batch.summary.queries_per_second, 1));
    // Latency percentiles from the always-on registry histogram — what a
    // deployed server would report — alongside the exact batch percentiles.
    MetricSnapshot cloud_ms;
    if (MetricsRegistry::Global().Find("ppsm_cloud_query_ms", &cloud_ms)) {
      table.AddRowValues(
          "cloud p50 ms (registry)",
          Table::Num(HistogramPercentile(cloud_ms.histogram, 50.0), 3));
      table.AddRowValues(
          "cloud p95 ms (registry)",
          Table::Num(HistogramPercentile(cloud_ms.histogram, 95.0), 3));
    }
    table.AddRowValues("p50 ms (batch)", Table::Num(batch.summary.p50_ms, 3));
    table.AddRowValues("p95 ms (batch)", Table::Num(batch.summary.p95_ms, 3));
    table.AddRowValues("plan cache hits", batch.summary.plan_cache.hits);
    table.AddRowValues("plan cache misses", batch.summary.plan_cache.misses);
    if (system->cluster() != nullptr) {
      table.AddRowValues("shards", system->cluster()->num_shards());
      table.AddRowValues("exchanged bytes",
                         system->cluster()->ExchangedBytes());
    }
    table.AddRowValues("channel messages", system->channel().num_messages());
    table.AddRowValues("channel log dropped",
                       system->channel().num_dropped_records());
    table.AddRowValues("slow-query captures",
                       FlightRecorder::Global().NumSlow());
    table.Print();
    return batch.summary.succeeded > 0 ? 0 : 1;
  }

  QueryRequest request;
  request.pattern = parsed->query;
  const QueryResponse response = system->Execute(request);
  if (!response.ok()) return Fail(response.status.ToString());

  std::cout << response.matches.NumMatches() << " match(es):\n";
  const size_t show = std::min<size_t>(response.matches.NumMatches(), 20);
  for (size_t r = 0; r < show; ++r) {
    const auto row = response.matches.Get(r);
    std::cout << "  ";
    for (size_t q = 0; q < row.size(); ++q) {
      std::cout << parsed->variables[q] << "=" << row[q] << " ";
    }
    std::cout << "\n";
  }
  if (show < response.matches.NumMatches()) {
    std::cout << "  ... (" << response.matches.NumMatches() - show
              << " more)\n";
  }
  std::cout << "query " << response.cloud.query_id << ": cloud "
            << Table::Num(response.cloud.cloud_ms, 3) << "ms | network "
            << Table::Num(response.cloud.network_ms, 3) << "ms | client "
            << Table::Num(response.cloud.client_ms, 3) << "ms\n";
  if (system->cluster() != nullptr) {
    std::cout << "cluster: " << system->cluster()->num_shards()
              << " shard(s), " << system->cluster()->ExchangedBytes()
              << " exchanged byte(s)\n";
  }
  return 0;
}

int Usage() {
  std::cerr <<
      "usage: ppsm_cli <command> [--flag value | --flag=value ...]\n"
      "  generate  --preset nd|dbp|uk --scale S --out FILE [--seed S]\n"
      "  attach    --edges FILE --out FILE [--types N] [--attrs N]\n"
      "            [--labels N] [--seed S]\n"
      "  stats     --in FILE\n"
      "  anonymize --in FILE --k K [--theta T] [--strategy eff|ran|fsim]\n"
      "            [--baseline 1] [--setup-threads N] [--go-hops H]\n"
      "            [--upload-out FILE] [--save-snapshot DIR]\n"
      "  query     --in FILE --pattern FILE --k K [--theta T]\n"
      "            [--method eff|ran|fsim|bas] [--cloud-threads N]\n"
      "            [--setup-threads N] [--shards S] [--repeat N]\n"
      "            [--concurrency N] [--deadline-ms MS]\n"
      "            [--go-hops H] [--max-unit-depth D]\n"
      "            [--aux-graph 0|1] [--intersect-kernel auto|scalar|\n"
      "             galloping|simd]\n"
      "            (--aux-graph 0 disables the per-query auxiliary graph;\n"
      "             --intersect-kernel pins the set-intersection kernel —\n"
      "             both are output-neutral A/B knobs)\n"
      "            (--go-hops H uploads the radius-H Go so the planner may\n"
      "             pick path/tree units up to depth H; --max-unit-depth 1\n"
      "             forces the star-only decomposition)\n"
      "            (--shards S hosts a sharded in-process cloud; results\n"
      "             are byte-identical to --shards 1)\n"
      "            [--save-snapshot DIR | --load-snapshot DIR]\n"
      "            (--load-snapshot skips the offline pipeline; --in not\n"
      "             needed, the snapshot carries graph + schema + k)\n"
      "            [--connect HOST:PORT]\n"
      "            (--connect replays against a running ppsm_server over\n"
      "             the wire protocol instead of deploying in-process;\n"
      "             only --pattern, --repeat and --deadline-ms apply —\n"
      "             the serving knobs live on the server)\n"
      "  ping      --connect HOST:PORT   liveness + snapshot version\n"
      "  reload    --connect HOST:PORT   zero-downtime snapshot hot-swap\n"
      "observability (any command):\n"
      "  --metrics-out FILE   flat JSON metrics dump\n"
      "  --metrics-prom FILE  Prometheus text metrics dump\n"
      "  --trace-out FILE     Chrome trace-event JSON (chrome://tracing)\n"
      "  --query-log FILE     flight-recorder query log (JSONL, slow\n"
      "                       captures first, then the recent ring)\n"
      "  --slow-query-ms MS   latency threshold for slow-query capture\n"
      "                       (failures/overflows are always captured)\n"
      "  --flight-recorder-entries N  ring capacity (completed queries)\n";
  return 2;
}

/// Lands the --metrics-out / --metrics-prom / --trace-out exports, if
/// requested. Runs after the command so the files capture everything it did.
int DumpObservability(const Args& args) {
  const std::string metrics_out = args.Get("metrics-out");
  if (!metrics_out.empty()) {
    const Status written = WriteStringToFile(
        metrics_out, ExportMetricsJson(MetricsRegistry::Global()));
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "metrics json written to " << metrics_out << "\n";
  }
  const std::string metrics_prom = args.Get("metrics-prom");
  if (!metrics_prom.empty()) {
    const Status written = WriteStringToFile(
        metrics_prom, ExportPrometheusText(MetricsRegistry::Global()));
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "prometheus metrics written to " << metrics_prom << "\n";
  }
  const std::string trace_out = args.Get("trace-out");
  if (!trace_out.empty()) {
    const Status written =
        WriteStringToFile(trace_out, ExportChromeTrace(Tracer::Global()));
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "chrome trace written to " << trace_out << "\n";
  }
  const std::string query_log = args.Get("query-log");
  if (!query_log.empty()) {
    const Status written = WriteStringToFile(
        query_log, ExportQueryLogJsonl(FlightRecorder::Global()));
    if (!written.ok()) return Fail(written.ToString());
    std::cerr << "query log written to " << query_log << "\n";
  }
  return 0;
}

/// Applies the flight-recorder flags before the command runs, so the
/// captures reflect the requested thresholds from the first query on.
void ConfigureFlightRecorder(const Args& args) {
  FlightRecorder& recorder = FlightRecorder::Global();
  if (args.Has("slow-query-ms")) {
    recorder.SetSlowThresholdMs(args.GetDouble("slow-query-ms", 0.0));
  }
  if (args.Has("flight-recorder-entries")) {
    recorder.SetCapacity(static_cast<size_t>(
        std::max(1L, args.GetInt("flight-recorder-entries", 512))));
  }
}

int Dispatch(const std::string& command, const Args& args) {
  if (command == "generate") return Generate(args);
  if (command == "attach") return Attach(args);
  if (command == "stats") return Stats(args);
  if (command == "anonymize") return Anonymize(args);
  if (command == "query") return Query(args);
  if (command == "ping") return Ping(args);
  if (command == "reload") return Reload(args);
  return Usage();
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  const Args args(argc, argv, 2);
  if (!args.error().empty()) return Fail(args.error());
  ConfigureFlightRecorder(args);
  const int code = Dispatch(command, args);
  if (code != 0) return code;
  return DumpObservability(args);
}

}  // namespace
}  // namespace ppsm::cli

int main(int argc, char** argv) { return ppsm::cli::Main(argc, argv); }
