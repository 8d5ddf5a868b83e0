// The traced run: the same inputs as the timed run, replayed one public call
// at a time under the benchmark's own spans, with every cloud response
// checked byte for byte against CloudServer::Serve.
#include <iostream>

#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/messages.h"
#include "match/decomposition.h"
#include "match/result_join.h"
#include "match/unit_matcher.h"
#include "net/wire.h"
#include "perfbench.h"
#include "span_log.h"
#include "util/lru_cache.h"

namespace perfbench {

using ppsm::Result;
using ppsm::Status;

namespace {

// CloudServer's per-phase row cap (cloud/cloud_server.cc kMaxRows); the
// replay must apply the same cap to reproduce its refusals.
constexpr size_t kMaxRows = 2'000'000;

// Shares of the traced run's query budget.
constexpr double kBaselineShare = 0.2;
constexpr double kReplayShare = 0.4;
constexpr double kNetShare = 0.1;
constexpr double kOpenLoopShare = 0.3;

// Empty spans timed to price one span open + close.
constexpr size_t kCalibrationSpans = 100000;

// Per-query counters the spans do not carry.
struct LayerCounts {
  size_t queries = 0;
  double candidates = 0, unit_rows = 0, aux_bytes = 0, peak_rows = 0,
         rin_rows = 0, request_bytes = 0, response_bytes = 0,
         owner_candidates = 0, owner_results = 0, intersect_scalar = 0,
         intersect_galloping = 0, intersect_simd = 0;
};

// Phase 1 of CloudServer::Serve: plans come from an LRU over canonical Qo
// signatures of the server's capacity, so hits and misses match its cache.
using PlanMemo = ppsm::LruCache<std::string, ppsm::UnitDecomposition>;

// The cloud half of one query, layer by layer: decode Qo, decompose, match
// units (aux build inside), translate to Gk ids, join, encode Rin. Returns
// the encoded Rin, or the status Serve would answer with.
Result<std::vector<uint8_t>> ReplayCloud(const ppsm::CloudServer& cloud,
                                         const std::vector<uint8_t>& qo_bytes,
                                         PlanMemo& memo, SpanLog& log,
                                         uint64_t id, LayerCounts& counts) {
  Result<ppsm::AttributedGraph> qo_or = [&] {
    ScopedSpan span(log, "codec.qo_decode", id);
    return ppsm::DeserializeQueryRequest(qo_bytes);
  }();
  if (!qo_or.ok()) return qo_or.status();
  const ppsm::AttributedGraph& qo = *qo_or;

  Result<ppsm::UnitDecomposition> plan_or = [&]() -> Result<ppsm::UnitDecomposition> {
    ScopedSpan span(log, "decompose", id);
    std::string signature = ppsm::QoSignature(qo);
    if (std::optional<ppsm::UnitDecomposition> hit = memo.Get(signature)) {
      return *std::move(hit);
    }
    Result<ppsm::UnitDecomposition> plan = ppsm::DecomposeQueryUnits(
        qo, cloud.statistics(), cloud.data(), cloud.index(),
        cloud.EffectiveUnitDepth());
    if (plan.ok()) memo.Put(std::move(signature), *plan);
    return plan;
  }();
  if (!plan_or.ok()) return plan_or.status();
  const ppsm::UnitDecomposition& plan = *plan_or;

  std::vector<ppsm::UnitMatches> units;
  bool truncated = false;
  {
    ScopedSpan span(log, "match", id);
    ppsm::UnitMatchOptions options;
    options.max_rows = kMaxRows;
    options.num_threads = cloud.num_threads();
    options.use_aux_graph = cloud.config().aux_graph;
    options.intersect_kernel = cloud.config().intersect_kernel;
    ppsm::MatchPhaseStats phase;
    options.phase_stats = &phase;
    units = ppsm::MatchUnits(cloud.data(), cloud.index(), qo, plan.units,
                             options);
    log.AddReported("aux.build", span.start_ms(), phase.aux_build_ms);
    counts.aux_bytes += phase.aux_bytes;
    counts.intersect_scalar += phase.intersect_scalar.load();
    counts.intersect_galloping += phase.intersect_galloping.load();
    counts.intersect_simd += phase.intersect_simd.load();
    for (ppsm::UnitMatches& unit : units) {
      counts.candidates += unit.num_candidates;
      counts.unit_rows += unit.matches.NumMatches();
      truncated = truncated || unit.truncated;
      ppsm::MatchSet translated(unit.matches.arity());
      std::vector<ppsm::VertexId> row(unit.matches.arity());
      for (size_t r = 0; r < unit.matches.NumMatches(); ++r) {
        const auto local = unit.matches.Get(r);
        for (size_t i = 0; i < local.size(); ++i) {
          row[i] = cloud.to_gk()[local[i]];
        }
        translated.Append(row);
      }
      unit.matches = std::move(translated);
    }
  }
  if (truncated) {
    return Status::ResourceExhausted("unit match set was truncated");
  }

  Result<ppsm::MatchSet> rin_or = [&] {
    ScopedSpan span(log, "join", id);
    ppsm::JoinOptions options;
    options.max_rows = kMaxRows;
    options.num_threads = cloud.num_threads();
    options.star_cost_estimates = plan.estimates;
    ppsm::JoinDiagnostics diagnostics;
    Result<ppsm::MatchSet> rin = ppsm::JoinUnitMatches(
        units, cloud.avt(), qo.NumVertices(), options, &diagnostics);
    counts.peak_rows += diagnostics.peak_rows;
    return rin;
  }();
  if (!rin_or.ok()) return rin_or.status();
  counts.rin_rows += rin_or->NumMatches();

  ScopedSpan span(log, "codec.encode", id);
  return rin_or->Serialize();
}

// Per-query mean of a span name's self time.
double MeanSelf(const std::map<std::string, double>& self,
                const std::string& name, size_t queries) {
  const auto it = self.find(name);
  return it == self.end() || queries == 0 ? 0.0 : it->second / queries;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / values.size();
}

// Replays the request sequence from its start, one public call per span,
// until `seconds` pass; checks each cloud answer against Serve. Returns the
// number of queries whose replay differed from Serve.
size_t ReplayQueries(const ppsm::DataOwner& owner,
                     const ppsm::CloudServer& cloud, const Inputs& inputs,
                     double seconds, SpanLog& log, LayerCounts& counts,
                     std::vector<double>& query_ms, Counts* total,
                     AnswerLog* answers) {
  PlanMemo memo(cloud.config().plan_cache_entries);
  size_t unfaithful = 0;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (size_t i = 0; Clock::now() < end; ++i) {
    const uint64_t id = i + 1;
    const uint32_t index = inputs.At(i);
    const ppsm::AttributedGraph& query = inputs.requests[index].pattern;
    Result<std::vector<uint8_t>> qo_bytes = Status::OK();
    Result<std::vector<uint8_t>> payload = Status::OK();
    Result<ppsm::MatchSet> matches = Status::OK();
    const size_t root = log.spans().size();
    {
      ScopedSpan span(log, "query", id);
      qo_bytes = [&] {
        ScopedSpan span(log, "owner.anonymize", id);
        return owner.AnonymizeQueryToRequest(query);
      }();
      if (qo_bytes.ok()) {
        payload = ReplayCloud(cloud, *qo_bytes, memo, log, id, counts);
      }
      if (qo_bytes.ok() && payload.ok()) {
        {
          ScopedSpan span(log, "codec.decode", id);
          (void)ppsm::MatchSet::Deserialize(*payload);
        }
        ScopedSpan span(log, "owner.algorithm3", id);
        ppsm::DataOwner::ClientStats client;
        matches = owner.ProcessResponse(query, *payload, &client);
        log.AddReported("owner.expand", span.start_ms(), client.expand_ms);
        counts.owner_candidates += client.candidates;
        counts.owner_results += client.results;
      }
    }
    query_ms.push_back(log.spans()[root].end_ms - log.spans()[root].start_ms);
    ++counts.queries;
    ++total->attempted;
    if (!qo_bytes.ok()) {
      ++total->failed;
      continue;
    }
    counts.request_bytes += qo_bytes->size();

    // Fidelity: the replay must reproduce Serve's answer byte for byte.
    const Result<ppsm::WireAnswer> served = cloud.Serve(*qo_bytes);
    const bool same =
        served.ok() == payload.ok() &&
        (served.ok() ? served->response_payload == *payload
                     : served.status().code() == payload.status().code());
    if (!same) {
      std::cerr << "replay of query " << id << " (pattern " << index
                << ") differs from CloudServer::Serve\n";
      ++unfaithful;
    }
    if (!payload.ok() || !matches.ok()) {
      ++total->failed;
      continue;
    }
    counts.response_bytes += payload->size();
    answers->Add(index, std::move(matches).value());
  }
  return unfaithful;
}

void SetReplayMetrics(const LayerCounts& counts,
                      const std::map<std::string, double>& self,
                      const std::vector<double>& query_ms,
                      Metrics* metrics) {
  const size_t n = counts.queries;
  const double per = n == 0 ? 0.0 : 1.0 / n;
  const auto ratio = [](double part, double whole) {
    return whole == 0.0 ? 0.0 : part / whole;
  };
  metrics->Set("replay.queries", static_cast<double>(n), "count");
  metrics->Set("owner.anonymize_ms", MeanSelf(self, "owner.anonymize", n),
               "ms");
  metrics->Set("decompose.ms", MeanSelf(self, "decompose", n), "ms");
  metrics->Set("aux.build_ms", MeanSelf(self, "aux.build", n), "ms");
  metrics->Set("aux.bytes", counts.aux_bytes * per, "bytes");
  metrics->Set("match.ms", MeanSelf(self, "match", n), "ms");
  metrics->Set("match.candidates", counts.candidates * per, "count");
  metrics->Set("match.rows", counts.unit_rows * per, "count");
  metrics->Set("match.rows_per_candidate",
               ratio(counts.unit_rows, counts.candidates), "ratio");
  metrics->Set("intersect.scalar", counts.intersect_scalar * per, "count");
  metrics->Set("intersect.galloping", counts.intersect_galloping * per,
               "count");
  metrics->Set("intersect.simd", counts.intersect_simd * per, "count");
  metrics->Set("join.ms", MeanSelf(self, "join", n), "ms");
  metrics->Set("join.peak_rows", counts.peak_rows * per, "count");
  metrics->Set("join.rin_rows", counts.rin_rows * per, "count");
  metrics->Set("codec.encode_ms", MeanSelf(self, "codec.encode", n), "ms");
  metrics->Set("codec.decode_ms",
               MeanSelf(self, "codec.decode", n) +
                   MeanSelf(self, "codec.qo_decode", n),
               "ms");
  metrics->Set("codec.request_bytes", counts.request_bytes * per, "bytes");
  metrics->Set("codec.response_bytes", counts.response_bytes * per, "bytes");
  metrics->Set("owner.expand_ms", MeanSelf(self, "owner.expand", n), "ms");
  metrics->Set("owner.filter_ms", MeanSelf(self, "owner.algorithm3", n),
               "ms");
  metrics->Set("owner.candidates", counts.owner_candidates * per, "count");
  metrics->Set("owner.results", counts.owner_results * per, "count");
  metrics->Set("owner.keep_ratio",
               ratio(counts.owner_results, counts.owner_candidates), "ratio");

  // Self-time shares of the replayed queries, grouped by layer.
  const double replay_ms = Mean(query_ms) * query_ms.size();
  const auto share = [&](std::initializer_list<const char*> names) {
    double sum = 0.0;
    for (const char* name : names) {
      const auto it = self.find(name);
      if (it != self.end()) sum += it->second;
    }
    return ratio(sum, replay_ms);
  };
  metrics->Set("share.anonymize", share({"owner.anonymize"}), "ratio");
  metrics->Set("share.decompose", share({"decompose"}), "ratio");
  metrics->Set("share.aux", share({"aux.build"}), "ratio");
  metrics->Set("share.match", share({"match"}), "ratio");
  metrics->Set("share.join", share({"join"}), "ratio");
  metrics->Set("share.codec",
               share({"codec.qo_decode", "codec.encode", "codec.decode"}),
               "ratio");
  metrics->Set("share.algorithm3", share({"owner.expand", "owner.algorithm3"}),
               "ratio");
}

// Serving layers: the system behind the socket front end. First the wire
// cost — one connection against the in-process Execute of the same request
// on the pinned snapshot, after an untimed call that plans the query so both
// timed calls find it in the plan cache — then the open loop at the nominal
// rate with one hot swap half way.
Status MeasureServing(const Spec& spec, const Inputs& inputs,
                      ppsm::PpsmSystem system, double seconds, size_t* cursor,
                      Metrics* metrics, Counts* total, AnswerLog* answers) {
  Result<std::unique_ptr<Deployment>> deployment_or =
      Deploy(spec, inputs, std::move(system));
  if (!deployment_or.ok()) return deployment_or.status();
  Deployment& deployment = **deployment_or;

  std::vector<double> overhead_ms;
  double wire_bytes = 0.0;
  const Clock::time_point net_end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds * kNetShare));
  while (Clock::now() < net_end) {
    const uint32_t index = inputs.At((*cursor)++);
    const ppsm::QueryRequest& request = inputs.requests[index];
    const std::shared_ptr<const ppsm::ServingSnapshot> pinned =
        deployment.serving->Pin();
    (void)pinned->system.Execute(request);
    const Clock::time_point t0 = Clock::now();
    const ppsm::QueryResponse local = pinned->system.Execute(request);
    const Clock::time_point t1 = Clock::now();
    Result<ppsm::QueryResponse> remote = deployment.clients[0].Execute(request);
    const Clock::time_point t2 = Clock::now();
    total->attempted += 2;
    if (!local.ok() || !remote.ok() || !remote->ok()) {
      total->failed += 2;
      continue;
    }
    overhead_ms.push_back(MillisBetween(t1, t2) - MillisBetween(t0, t1));
    wire_bytes += 2 * ppsm::kFrameHeaderBytes +
                  ppsm::SerializeQueryRequest(request).size() +
                  ppsm::SerializeQueryResponse(*remote).size();
    answers->Add(index, local.matches);
    answers->Add(index, std::move(remote->matches));
  }
  metrics->Set("net.overhead_ms", Median(overhead_ms), "ms");
  metrics->Set("net.bytes_per_query",
               overhead_ms.empty() ? 0.0 : wire_bytes / overhead_ms.size(),
               "bytes");

  Status reload_status = Status::OK();
  const OpenLoopResult open = RunOpenLoop(
      deployment, inputs, spec.nominal_qps, seconds * kOpenLoopShare, cursor,
      answers, [&] {
        Result<uint64_t> version = deployment.serving->Reload();
        if (!version.ok()) reload_status = version.status();
      });
  if (!reload_status.ok()) return reload_status;
  total->Add(open.tally);
  metrics->Set("service.queue_wait_ms", Mean(open.queue_wait_ms), "ms");
  metrics->Set("service.refused", static_cast<double>(open.refused), "count");
  metrics->Set("gen.send_lag_ms", Mean(open.send_lag_ms), "ms");
  metrics->Set("serving.p50_ms", BlockPercentile(open.tally.latency_ms, 50.0),
               "ms");
  metrics->Set("serving.p99_ms", BlockPercentile(open.tally.latency_ms, 99.0),
               "ms");
  metrics->Set("serving.reload_s", open.during_s, "s");
  metrics->Set("serving.swap_p99_ms", Percentile(open.during_ms, 99.0), "ms");
  std::cout << "# " << open.during_ms.size()
            << " requests were due during the hot swap\n";
  return Status::OK();
}

}  // namespace

Status RunTraced(const Spec& spec, const Inputs& inputs, double seconds,
                 const std::string& trace_path, Metrics* metrics,
                 Counts* total, AnswerLog* answers, bool* faithful) {
  SpanLog log;
  const ppsm::SystemConfig config = MakeSystemConfig(spec);

  // Setup, one public call per span (the options PpsmSystem::Setup derives
  // for EFF).
  ppsm::DataOwnerOptions owner_options;
  owner_options.k = config.k;
  owner_options.strategy = ppsm::GroupingStrategy::kCostModel;
  owner_options.grouping.theta = config.theta;
  owner_options.grouping.seed = config.seed;
  owner_options.kauto = config.kauto;
  owner_options.setup_threads = config.setup_threads;
  owner_options.go_hops = config.go_hops;
  Result<ppsm::DataOwner> owner = [&] {
    ScopedSpan span(log, "setup.owner", 0);
    return ppsm::DataOwner::Create(inputs.graph, inputs.graph.schema(),
                                   owner_options);
  }();
  if (!owner.ok()) return owner.status();
  Result<ppsm::CloudServer> cloud = [&] {
    ScopedSpan span(log, "setup.host", 0);
    return ppsm::CloudServer::Host(owner->upload_bytes(), config.cloud);
  }();
  if (!cloud.ok()) return cloud.status();
  const std::map<std::string, double> setup_ms = log.TotalMillis();
  const ppsm::SetupStats& stats = owner->setup_stats();
  metrics->Set("setup.owner_s", setup_ms.at("setup.owner") / 1e3, "s");
  metrics->Set("setup.host_s", setup_ms.at("setup.host") / 1e3, "s");
  metrics->Set("setup.lct_s", stats.lct_ms / 1e3, "s");
  metrics->Set("setup.kauto_s", stats.kauto_ms / 1e3, "s");
  metrics->Set("setup.go_s", stats.go_ms / 1e3, "s");
  metrics->Set("setup.upload_bytes",
               static_cast<double>(owner->upload_bytes().size()), "bytes");
  std::cout << "# G: " << inputs.graph.NumVertices() << " vertices, "
            << inputs.graph.NumEdges() << " edges; Go: " << stats.go_vertices
            << " vertices, " << stats.go_edges << " edges; upload "
            << owner->upload_bytes().size() << " bytes\n";

  // Untraced baseline on a PpsmSystem: the plan cache's own hit ratio and
  // the latency the tracing overhead is priced against.
  Result<ppsm::PpsmSystem> system = SetupSystem(spec, inputs);
  if (!system.ok()) return system.status();
  size_t cursor = 0;
  const Tally baseline = RunClosedLoop(*system, inputs,
                                       seconds * kBaselineShare, &cursor,
                                       answers);
  total->Add(baseline);
  const ppsm::PlanCacheStats cache = system->cloud().plan_cache_stats();
  metrics->Set("plan_cache.hit_ratio",
               cache.hits + cache.misses == 0
                   ? 0.0
                   : static_cast<double>(cache.hits) /
                         (cache.hits + cache.misses),
               "ratio");

  const size_t setup_spans = log.spans().size();
  LayerCounts counts;
  std::vector<double> query_ms;  // Root span of each replayed query.
  const size_t unfaithful =
      ReplayQueries(*owner, *cloud, inputs, seconds * kReplayShare, log,
                    counts, query_ms, total, answers);
  *faithful = unfaithful == 0;
  std::cout << "# traced: " << counts.queries << " replayed queries, "
            << unfaithful << " differ from Serve\n";
  SetReplayMetrics(counts, log.SelfMillis(), query_ms, metrics);

  // Tracing overhead: what recording this run's spans costs per query, as
  // a share of the untraced per-query latency. The replay itself is not the
  // Execute path (no admission gate, flight recorder or channel model), so
  // the two runs' latencies differ by more than the spans.
  SpanLog scratch;
  const Clock::time_point calibrate = Clock::now();
  for (size_t i = 0; i < kCalibrationSpans; ++i) {
    ScopedSpan span(scratch, "calibrate", i);
  }
  const double span_ms =
      MillisBetween(calibrate, Clock::now()) / kCalibrationSpans;
  const double spans_per_query =
      counts.queries == 0
          ? 0.0
          : static_cast<double>(log.spans().size() - setup_spans) /
                counts.queries;
  metrics->Set("trace.overhead_frac",
               spans_per_query * span_ms / Median(baseline.latency_ms),
               "ratio");

  const Status serving =
      MeasureServing(spec, inputs, std::move(system).value(), seconds,
                     &cursor, metrics, total, answers);
  if (!serving.ok()) return serving;
  if (!trace_path.empty() && !log.WriteJsonl(trace_path)) {
    std::cerr << "could not write " << trace_path << "\n";
  }
  return Status::OK();
}

}  // namespace perfbench
