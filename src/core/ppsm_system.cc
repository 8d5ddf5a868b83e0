#include "core/ppsm_system.h"

#include <algorithm>
#include <utility>

#include "cloud/owner_store.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/parallel.h"
#include "util/stats.h"
#include "util/timer.h"

namespace ppsm {

namespace {

/// End-to-end metrics (the paper Fig. 22 decomposition: cloud + network +
/// client). Cloud-internal and client-internal phases record their own
/// metrics in cloud_server.cc / data_owner.cc.
struct SystemMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter queries_failed;
  MetricsRegistry::Histogram total_ms;
  MetricsRegistry::Histogram network_ms;
  MetricsRegistry::Histogram anonymize_ms;
  MetricsRegistry::Gauge upload_ms;

  static const SystemMetrics& Get() {
    static const SystemMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      SystemMetrics metrics;
      metrics.queries =
          r.counter("ppsm_queries_total", "End-to-end queries attempted");
      metrics.queries_failed =
          r.counter("ppsm_queries_failed_total",
                    "Queries refused, expired or errored end to end");
      metrics.total_ms =
          r.histogram("ppsm_query_total_ms", DefaultLatencyBucketsMs(),
                      "End-to-end query time (cloud + network + client)");
      metrics.network_ms =
          r.histogram("ppsm_query_network_ms", DefaultLatencyBucketsMs(),
                      "Simulated request + response transfer per query");
      metrics.anonymize_ms =
          r.histogram("ppsm_query_anonymize_ms", DefaultLatencyBucketsMs(),
                      "Q -> Qo anonymization + serialization time");
      metrics.upload_ms =
          r.gauge("ppsm_setup_upload_transfer_ms",
                  "Simulated one-time upload transfer time");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

const char* MethodName(Method method) {
  switch (method) {
    case Method::kEff:
      return "EFF";
    case Method::kRan:
      return "RAN";
    case Method::kFsim:
      return "FSIM";
    case Method::kBas:
      return "BAS";
  }
  return "?";
}

Result<PpsmSystem> PpsmSystem::Setup(AttributedGraph graph,
                                     std::shared_ptr<const Schema> schema,
                                     const SystemConfig& config) {
  DataOwnerOptions options;
  options.k = config.k;
  options.grouping.theta = config.theta;
  options.grouping.seed = config.seed;
  options.kauto = config.kauto;
  options.setup_threads = config.setup_threads;
  options.go_hops = config.go_hops;
  switch (config.method) {
    case Method::kEff:
      options.strategy = GroupingStrategy::kCostModel;
      break;
    case Method::kRan:
      options.strategy = GroupingStrategy::kRandom;
      break;
    case Method::kFsim:
      options.strategy = GroupingStrategy::kFrequencySimilar;
      break;
    case Method::kBas:
      options.strategy = GroupingStrategy::kCostModel;
      options.baseline_upload = true;
      break;
  }

  PPSM_TRACE_SPAN_CAT("setup", "setup");
  PPSM_ASSIGN_OR_RETURN(
      DataOwner owner,
      DataOwner::Create(std::move(graph), std::move(schema), options));
  return HostFromOwner(std::make_unique<DataOwner>(std::move(owner)), config);
}

Result<PpsmSystem> PpsmSystem::HostFromOwner(std::unique_ptr<DataOwner> owner,
                                             const SystemConfig& config) {
  PpsmSystem system;
  system.config_ = config;
  PPSM_ASSIGN_OR_RETURN(system.channel_,
                        SimulatedChannel::Create(config.channel));
  system.owner_ = std::move(owner);

  system.upload_ms_ = system.channel_.Transfer(
      system.owner_->upload_bytes().size(), "upload");
  SystemMetrics::Get().upload_ms.Set(system.upload_ms_);

  if (config.num_shards > 1) {
    if (system.owner_->IsBaselineUpload()) {
      return Status::InvalidArgument(
          "sharded hosting needs the outsourced upload; the BAS baseline "
          "ships all of Gk and has no partitionable B1 block");
    }
    PPSM_TRACE_SPAN_CAT("setup.cloud_host", "setup");
    PPSM_ASSIGN_OR_RETURN(
        CloudCluster cluster,
        CloudCluster::Host(system.owner_->upload_bytes(), config.num_shards,
                           config.cloud, config.channel));
    system.cluster_ = std::make_unique<CloudCluster>(std::move(cluster));
    system.service_ = std::make_unique<QueryService>(system.cluster_.get());
    return system;
  }

  {
    PPSM_TRACE_SPAN_CAT("setup.cloud_host", "setup");
    PPSM_ASSIGN_OR_RETURN(
        CloudServer cloud,
        CloudServer::Host(system.owner_->upload_bytes(), config.cloud));
    system.cloud_ = std::make_unique<CloudServer>(std::move(cloud));
  }
  system.service_ = std::make_unique<QueryService>(system.cloud_.get());
  return system;
}

Status PpsmSystem::SaveSnapshot(const std::string& directory) const {
  return SaveDataOwner(*owner_, directory, config_.setup_threads);
}

Result<PpsmSystem> PpsmSystem::LoadSnapshot(const std::string& directory,
                                            const SystemConfig& config) {
  PPSM_TRACE_SPAN_CAT("setup.load_snapshot", "setup");
  PPSM_ASSIGN_OR_RETURN(DataOwner owner, LoadDataOwner(directory));
  SystemConfig effective = config;
  effective.k = owner.k();
  if (owner.IsBaselineUpload()) effective.method = Method::kBas;
  return HostFromOwner(std::make_unique<DataOwner>(std::move(owner)),
                       effective);
}

QueryResponse PpsmSystem::Execute(const QueryRequest& request) const {
  // Attempts are counted up front so refusals and failures are not
  // invisible in the exported metrics (a dashboard reading only successes
  // under-reports load and hides error storms entirely).
  const SystemMetrics& metrics = SystemMetrics::Get();
  metrics.queries.Increment();
  QueryResponse response = ExecuteImpl(request);
  if (!response.ok()) metrics.queries_failed.Increment();
  return response;
}

QueryResponse PpsmSystem::ExecuteImpl(const QueryRequest& request) const {
  QueryResponse response;
  response.tag = request.tag;
  QueryProfile& profile = response.cloud;
  const auto fail = [&](const Status& status) {
    response.status = status;
    profile.status = StatusCodeLabel(status.code());
    return response;
  };
  PPSM_TRACE_SPAN_CAT("query", "query");
  const SystemMetrics& metrics = SystemMetrics::Get();

  WallTimer anonymize_timer;
  Result<std::vector<uint8_t>> request_or = [&] {
    PPSM_TRACE_SPAN_CAT("query.anonymize", "query");
    return owner_->AnonymizeQueryToRequest(request.pattern);
  }();
  if (!request_or.ok()) return fail(request_or.status());
  const std::vector<uint8_t> request_bytes = std::move(request_or).value();
  metrics.anonymize_ms.Observe(anonymize_timer.ElapsedMillis());
  const double request_network_ms =
      channel_.Transfer(request_bytes.size(), "query request");

  // Admission control, deadline and the plan cache all live behind the
  // service — a single in-process caller takes the same path a loaded
  // multi-client deployment would. A per-request deadline overrides the
  // service-wide one; 0 defers to it. The service hands back the profile it
  // filed on every path, so a failed query keeps the phases that ran.
  Result<WireAnswer> answer_or =
      request.deadline_ms == 0
          ? service_->Execute(request_bytes, &profile)
          : service_->Execute(
                request_bytes,
                std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(request.deadline_ms),
                &profile);
  // The request leg was charged before the service replaced the record.
  profile.network_ms = request_network_ms;
  if (!answer_or.ok()) {
    response.status = answer_or.status();
    return response;
  }
  const WireAnswer answer = std::move(answer_or).value();
  profile.network_ms +=
      channel_.Transfer(answer.response_payload.size(), "query response");

  DataOwner::ClientStats client;
  Result<MatchSet> results = owner_->ProcessResponse(
      request.pattern, answer.response_payload, &client);
  if (!results.ok()) return fail(results.status());
  response.matches = std::move(results).value();
  profile.client_ms = client.total_ms;
  profile.client_expand_ms = client.expand_ms;
  profile.client_filter_ms = client.filter_ms;
  profile.client_candidates = client.candidates;
  profile.total_ms = profile.cloud_ms + profile.network_ms + profile.client_ms;
  metrics.network_ms.Observe(profile.network_ms);
  metrics.total_ms.Observe(profile.total_ms);
  // The service filed the profile when the cloud replied; the post-cloud
  // times only exist now, so replace the record with the completed one.
  FlightRecorder::Global().Annotate(
      profile.query_id,
      [&profile](QueryProfile& recorded) { recorded = profile; });
  return response;
}

BatchResult PpsmSystem::ExecuteBatch(std::span<const QueryRequest> requests,
                                     size_t concurrency) const {
  BatchResult batch;
  batch.summary.queries = requests.size();
  if (requests.empty()) {
    batch.summary.plan_cache = CloudPlanCacheStats();
    return batch;
  }
  // Cap at the admission bound: pushing more workers than the gate admits
  // would only fill the bounded queue and turn surplus queries into
  // ResourceExhausted refusals.
  if (concurrency == 0 || concurrency > config_.cloud.max_inflight) {
    concurrency = config_.cloud.max_inflight;
  }

  batch.responses.resize(requests.size());
  std::vector<double> wall_ms(requests.size(), 0.0);
  WallTimer batch_timer;
  {
    PPSM_TRACE_SPAN_CAT("query_batch", "query");
    ParallelFor(concurrency, requests.size(), [&](size_t i) {
      WallTimer query_timer;
      batch.responses[i] = Execute(requests[i]);
      wall_ms[i] = query_timer.ElapsedMillis();
    });
  }
  batch.summary.wall_ms = batch_timer.ElapsedMillis();

  RunningStats latencies;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (batch.responses[i].ok()) {
      ++batch.summary.succeeded;
      latencies.Add(wall_ms[i]);
    } else {
      ++batch.summary.failed;
    }
  }
  if (batch.summary.wall_ms > 0.0) {
    batch.summary.queries_per_second =
        static_cast<double>(batch.summary.succeeded) /
        (batch.summary.wall_ms / 1000.0);
  }
  if (latencies.count() > 0) {
    batch.summary.p50_ms = latencies.Percentile(50.0);
    batch.summary.p95_ms = latencies.Percentile(95.0);
  }
  batch.summary.plan_cache = CloudPlanCacheStats();
  return batch;
}

std::vector<QueryProfile> PpsmSystem::RecentQueryProfiles() {
  return FlightRecorder::Global().Recent();
}

std::vector<QueryProfile> PpsmSystem::SlowQueryProfiles() {
  return FlightRecorder::Global().SlowQueries();
}

Status PpsmSystem::DumpQueryLog(const std::string& path) {
  return WriteStringToFile(path, ExportQueryLogJsonl(FlightRecorder::Global()));
}

}  // namespace ppsm
