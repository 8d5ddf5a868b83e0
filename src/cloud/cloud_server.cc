#include "cloud/cloud_server.h"

#include <mutex>
#include <numeric>
#include <optional>
#include <string>

#include "match/decomposition.h"
#include "match/result_join.h"
#include "match/unit_matcher.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/lru_cache.h"
#include "util/timer.h"

namespace ppsm {

namespace {
/// Per-phase intermediate-row budget. A star or join state larger than this
/// means the (anonymized) query is degenerate for exact answering; the cloud
/// refuses with ResourceExhausted rather than exhausting memory.
constexpr size_t kMaxRows = 2'000'000;

using SteadyClock = std::chrono::steady_clock;

/// Handles into the global registry, resolved once. QueryProfile stays the
/// per-query view returned to callers; these accumulate across queries
/// for export (DESIGN.md "Observability").
struct CloudMetrics {
  MetricsRegistry::Counter queries;
  MetricsRegistry::Counter stars;
  MetricsRegistry::Counter rs_rows;
  MetricsRegistry::Counter result_rows;
  MetricsRegistry::Counter plan_cache_hits;
  MetricsRegistry::Counter plan_cache_misses;
  MetricsRegistry::Counter deadline_exceeded;
  MetricsRegistry::Histogram decomposition_ms;
  MetricsRegistry::Histogram star_matching_ms;
  MetricsRegistry::Histogram join_ms;
  MetricsRegistry::Histogram query_ms;
  MetricsRegistry::Histogram star_rows;
  MetricsRegistry::Histogram join_estimate_ratio;
  MetricsRegistry::Gauge index_memory_bytes;
  MetricsRegistry::Gauge index_build_ms;
  MetricsRegistry::Gauge hosted_edges;
  MetricsRegistry::Gauge plan_cache_entries;

  static const CloudMetrics& Get() {
    static const CloudMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      CloudMetrics metrics;
      metrics.queries =
          r.counter("ppsm_cloud_queries_total", "Queries answered");
      metrics.stars = r.counter("ppsm_cloud_stars_total",
                                "Stars across all decompositions");
      metrics.rs_rows =
          r.counter("ppsm_cloud_rs_rows_total", "Star matches |RS|");
      metrics.result_rows =
          r.counter("ppsm_cloud_result_rows_total", "Joined rows returned");
      metrics.plan_cache_hits =
          r.counter("ppsm_cloud_plan_cache_hits_total",
                    "Decompositions served from the plan cache");
      metrics.plan_cache_misses =
          r.counter("ppsm_cloud_plan_cache_misses_total",
                    "Decompositions that ran the ILP solver");
      metrics.deadline_exceeded =
          r.counter("ppsm_cloud_deadline_exceeded_total",
                    "Queries abandoned at their deadline");
      metrics.decomposition_ms =
          r.histogram("ppsm_cloud_decomposition_ms", DefaultLatencyBucketsMs(),
                      "Query decomposition time");
      metrics.star_matching_ms =
          r.histogram("ppsm_cloud_star_matching_ms", DefaultLatencyBucketsMs(),
                      "Star matching phase time");
      metrics.join_ms = r.histogram("ppsm_cloud_join_ms",
                                    DefaultLatencyBucketsMs(),
                                    "Result join time");
      metrics.query_ms = r.histogram("ppsm_cloud_query_ms",
                                     DefaultLatencyBucketsMs(),
                                     "Cloud query evaluation time");
      metrics.star_rows =
          r.histogram("ppsm_cloud_star_match_rows", DefaultCountBuckets(),
                      "Matches per star");
      // Estimate/actual join-step ratio buckets: powers of two around 1.0
      // (1.0 = perfectly calibrated cost model; the tails are the
      // mis-ordered joins worth staring at).
      metrics.join_estimate_ratio = r.histogram(
          "ppsm_cloud_join_step_estimate_ratio",
          {0.0625, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0},
          "Cost-model (estimate+1)/(actual+1) per join step");
      metrics.index_memory_bytes = r.gauge("ppsm_cloud_index_memory_bytes",
                                           "VBV/LBV index footprint");
      metrics.index_build_ms =
          r.gauge("ppsm_cloud_index_build_ms", "Offline index build time");
      metrics.hosted_edges =
          r.gauge("ppsm_cloud_hosted_edges", "|E| of the hosted graph");
      metrics.plan_cache_entries =
          r.gauge("ppsm_cloud_plan_cache_entries",
                  "Plan-cache occupancy (last hosted server)");
      return metrics;
    }();
    return m;
  }
};

Status MakeDeadlineExceeded(const char* phase) {
  CloudMetrics::Get().deadline_exceeded.Increment();
  return Status::DeadlineExceeded(std::string("query deadline exceeded (") +
                                  phase + ")");
}
}  // namespace

/// The decomposition memo: ILP plans keyed by canonical Qo signature. The
/// only mutable state of a hosted driver, guarded by `mu` so Serve
/// stays const and thread-safe. Heap-allocated because std::mutex pins the
/// address and hosts are moved out of Host().
struct CloudQueryDriver::PlanCache {
  explicit PlanCache(size_t capacity) : plans(capacity) {}

  std::mutex mu;
  LruCache<std::string, UnitDecomposition> plans;
  uint64_t hits = 0;
  uint64_t misses = 0;
};

CloudQueryDriver::CloudQueryDriver(const CloudConfig& config)
    : config_(config) {
  if (config_.num_threads == 0) config_.num_threads = 1;
  if (config_.max_inflight == 0) config_.max_inflight = 1;
  if (config_.plan_cache_entries > 0) {
    plan_cache_ = std::make_unique<PlanCache>(config_.plan_cache_entries);
  }
}

CloudQueryDriver::~CloudQueryDriver() = default;
CloudQueryDriver::CloudQueryDriver(CloudQueryDriver&&) noexcept = default;
CloudQueryDriver& CloudQueryDriver::operator=(CloudQueryDriver&&) noexcept =
    default;

PlanCacheStats CloudQueryDriver::plan_cache_stats() const {
  PlanCacheStats stats;
  if (plan_cache_ == nullptr) return stats;
  std::lock_guard<std::mutex> lock(plan_cache_->mu);
  stats.hits = plan_cache_->hits;
  stats.misses = plan_cache_->misses;
  stats.entries = plan_cache_->plans.size();
  stats.capacity = plan_cache_->plans.capacity();
  return stats;
}

Result<WireAnswer> CloudQueryDriver::Serve(std::span<const uint8_t> qo_bytes,
                                           const QueryContext& ctx) const {
  // The query's profile, filled as the phases run and published to
  // ctx.profile on EVERY return path — failure included — via this scope
  // guard. It is the profile's only way out (a WireAnswer carries none),
  // and the failed queries are exactly the ones the flight recorder needs
  // full accounting for.
  QueryProfile profile;
  profile.query_id =
      ctx.query_id != 0 ? ctx.query_id : FlightRecorder::NextQueryId();
  profile.queue_wait_ms = ctx.queue_wait_ms;
  struct ProfilePublisher {
    QueryProfile* from;
    QueryProfile* to;
    ~ProfilePublisher() {
      if (to != nullptr) *to = *from;
    }
  } publisher{&profile, ctx.profile};

  WallTimer total_timer;
  const SteadyClock::time_point deadline = ctx.deadline;
  const bool has_deadline = deadline != SteadyClock::time_point::max();
  const auto timeout = [&](const char* phase) {
    profile.timed_out_phase = phase;
    profile.cloud_ms = total_timer.ElapsedMillis();
    return MakeDeadlineExceeded(phase);
  };
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("on admission");
  }
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph qo,
                        DeserializeQueryRequest(qo_bytes));
  if (qo.NumVertices() == 0) {
    return Status::InvalidArgument("empty query");
  }

  TraceSpan query_span(Tracer::Global(), "cloud.answer_query", "query");
  query_span.AddArg("query_id", profile.query_id);
  const CloudMetrics& metrics = CloudMetrics::Get();
  // Root shortlists, computed on first read and shared by the planner and
  // the matcher: a plan-cache hit pays only for its unit roots.
  std::vector<RootCandidates> spaces = CandidateSpaces(qo);

  // Phase 1: cost-model query decomposition (exact ILP) over generalized
  // units — stars always, paths/trees up to the depth the hosted radius
  // supports — candidate-aware so hub-rooted units with astronomic match
  // sets are avoided. At depth 1 this is the paper's §4.2.1 star
  // decomposition, plan for plan. The ILP is pure in (Qo, root candidates,
  // depth cap — fixed per host), so repeated workload shapes hit the plan
  // cache and skip the solver entirely. The host's root candidates are the
  // same lists on a server and on any cluster, hence the same plan.
  WallTimer phase_timer;
  std::optional<UnitDecomposition> cached;
  std::string signature;
  if (plan_cache_ != nullptr) {
    signature = QoSignature(qo);
    std::lock_guard<std::mutex> lock(plan_cache_->mu);
    cached = plan_cache_->plans.Get(signature);
    if (cached.has_value()) {
      ++plan_cache_->hits;
    } else {
      ++plan_cache_->misses;
    }
  }
  UnitDecomposition decomposition;
  if (cached.has_value()) {
    decomposition = *std::move(cached);
    profile.plan_cache_hit = true;
    metrics.plan_cache_hits.Increment();
  } else {
    Result<UnitDecomposition> decomposition_or = [&] {
      PPSM_TRACE_SPAN_CAT("cloud.decompose", "query");
      return DecomposeQueryUnits(qo, stats_, RootCandidateDegrees(spaces),
                                 EffectiveUnitDepth());
    }();
    PPSM_ASSIGN_OR_RETURN(decomposition, std::move(decomposition_or));
    if (plan_cache_ != nullptr) {
      metrics.plan_cache_misses.Increment();
      std::lock_guard<std::mutex> lock(plan_cache_->mu);
      plan_cache_->plans.Put(std::move(signature), decomposition);
      metrics.plan_cache_entries.Set(
          static_cast<double>(plan_cache_->plans.size()));
    }
  }
  profile.decomposition_ms = phase_timer.ElapsedMillis();
  profile.num_stars = decomposition.units.size();
  metrics.decomposition_ms.Observe(profile.decomposition_ms);
  metrics.stars.Increment(decomposition.units.size());
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("after decomposition");
  }

  // Phase 2: unit matching (Algorithm 1, generalized), bounded by the row
  // cap so pathological queries fail with ResourceExhausted instead of
  // exhausting the machine. An expired deadline cancels the remaining units
  // and candidate chunks, so the query stops within one chunk of expiry.
  phase_timer.Restart();
  UnitMatchOptions unit_options;
  unit_options.max_rows = kMaxRows;
  unit_options.num_threads = config_.num_threads;
  unit_options.use_aux_graph = config_.aux_graph;
  unit_options.intersect_kernel = config_.intersect_kernel;
  MatchPhaseStats phase_stats;
  unit_options.phase_stats = &phase_stats;
  if (has_deadline) {
    unit_options.cancelled = [deadline] {
      return SteadyClock::now() >= deadline;
    };
  }
  Result<std::vector<UnitMatches>> stars_or = [&] {
    TraceSpan span(Tracer::Global(), "cloud.star_match", "query");
    span.AddArg("query_id", profile.query_id);
    span.AddArg("num_stars", static_cast<uint64_t>(
                                 decomposition.units.size()));
    return MatchUnitRows(qo, decomposition.units, unit_options, spaces,
                         &profile);
  }();
  PPSM_ASSIGN_OR_RETURN(std::vector<UnitMatches> stars, std::move(stars_or));
  // Per-unit profiles (the cost-model calibration inputs) are filled before
  // any early return below so even a timed-out or truncated query reports
  // what its units did.
  const bool estimates_aligned =
      decomposition.estimates.size() == stars.size();
  profile.stars.reserve(stars.size());
  bool star_truncated = false;
  for (size_t i = 0; i < stars.size(); ++i) {
    UnitProfile unit;
    unit.center = static_cast<uint32_t>(stars[i].center);
    unit.candidates = stars[i].num_candidates;
    unit.rows = stars[i].matches.NumMatches();
    unit.estimated_rows =
        estimates_aligned ? decomposition.estimates[i] : 0.0;
    unit.truncated = stars[i].truncated;
    unit.skipped = stars[i].skipped;
    unit.kind = UnitKindName(stars[i].kind);
    star_truncated = star_truncated || stars[i].truncated;
    profile.stars.push_back(std::move(unit));
  }
  profile.aux_build_ms = phase_stats.aux_build_ms;
  profile.aux_bytes = phase_stats.aux_bytes;
  profile.intersect_scalar =
      phase_stats.intersect_scalar.load(std::memory_order_relaxed);
  profile.intersect_galloping =
      phase_stats.intersect_galloping.load(std::memory_order_relaxed);
  profile.intersect_simd =
      phase_stats.intersect_simd.load(std::memory_order_relaxed);
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("during star matching");
  }
  for (const UnitMatches& star : stars) {
    metrics.star_rows.Observe(
        static_cast<double>(star.matches.NumMatches()));
  }
  // Translate to Gk ids so the join can apply the automorphic functions.
  for (UnitMatches& star : stars) {
    MatchSet translated(star.matches.arity());
    translated.ReserveAdditional(star.matches.NumMatches());
    std::vector<VertexId> row(star.matches.arity());
    for (size_t r = 0; r < star.matches.NumMatches(); ++r) {
      const auto local = star.matches.Get(r);
      for (size_t i = 0; i < local.size(); ++i) row[i] = to_gk_[local[i]];
      translated.Append(row);
    }
    star.matches = std::move(translated);
    profile.rs_size += star.matches.NumMatches();
  }
  profile.star_matching_ms = phase_timer.ElapsedMillis();
  metrics.star_matching_ms.Observe(profile.star_matching_ms);
  metrics.rs_rows.Increment(profile.rs_size);
  if (star_truncated) {
    // Row cap fired during star matching (the deadline case returned
    // above): the match sets are incomplete, so exact answering is off the
    // table. Same status the join would produce, but with the overflow
    // attributed to the phase that caused it.
    profile.overflowed = true;
    profile.cloud_ms = total_timer.ElapsedMillis();
    return Status::ResourceExhausted(
        "star match set was truncated; join would be incomplete");
  }
  if (has_deadline && SteadyClock::now() >= deadline) {
    return timeout("before join");
  }

  // Phase 3: result join (Algorithm 2) -> Rin (or R(Qo,Gk) for baseline).
  // Probe-side partitioning across the same worker budget; the cost-model
  // estimates from the decomposition order the join steps.
  phase_timer.Restart();
  JoinOptions join_options;
  join_options.max_rows = kMaxRows;
  join_options.num_threads = config_.num_threads;
  join_options.star_cost_estimates = decomposition.estimates;
  JoinDiagnostics join_diag;
  Result<MatchSet> rin_or = [&] {
    TraceSpan span(Tracer::Global(), "cloud.join", "query");
    span.AddArg("query_id", profile.query_id);
    span.AddArg("rs_size", static_cast<uint64_t>(profile.rs_size));
    return JoinUnitMatches(stars, avt_, qo.NumVertices(), join_options,
                           &join_diag);
  }();
  profile.join_ms = phase_timer.ElapsedMillis();
  profile.join_steps = std::move(join_diag.steps);
  profile.peak_join_rows = join_diag.peak_rows;
  for (const JoinStepProfile& step : profile.join_steps) {
    if (step.estimated_rows > 0.0 && !step.overflow) {
      metrics.join_estimate_ratio.Observe(
          (step.estimated_rows + 1.0) /
          (static_cast<double>(step.output_rows) + 1.0));
    }
  }
  if (!rin_or.ok()) {
    if (rin_or.status().code() == StatusCode::kResourceExhausted) {
      profile.overflowed = true;  // A join step hit the row cap.
    }
    profile.cloud_ms = total_timer.ElapsedMillis();
    return rin_or.status();
  }
  const MatchSet rin = std::move(rin_or).value();
  metrics.join_ms.Observe(profile.join_ms);

  profile.result_rows = rin.NumMatches();
  WireAnswer answer{rin.Serialize()};
  profile.cloud_ms = total_timer.ElapsedMillis();
  metrics.result_rows.Increment(profile.result_rows);
  metrics.query_ms.Observe(profile.cloud_ms);
  metrics.queries.Increment();
  query_span.AddArg("result_rows",
                    static_cast<uint64_t>(profile.result_rows));
  query_span.AddArg("total_ms", profile.cloud_ms);
  return answer;
}

Result<CloudServer> CloudServer::Host(std::span<const uint8_t> package_bytes,
                                      const CloudConfig& config) {
  PPSM_ASSIGN_OR_RETURN(UploadPackage package,
                        UploadPackage::Deserialize(package_bytes));
  return Host(std::move(package), config);
}

Result<CloudServer> CloudServer::Host(UploadPackage package,
                                      const CloudConfig& config) {
  return HostImpl(std::move(package), config, /*slice=*/false);
}

Result<CloudServer> CloudServer::HostSlice(UploadPackage package,
                                           const CloudConfig& config) {
  if (package.IsBaseline()) {
    return Status::InvalidArgument("shard slices require the optimized shape");
  }
  return HostImpl(std::move(package), config, /*slice=*/true);
}

Result<CloudServer> CloudServer::HostImpl(UploadPackage package,
                                          const CloudConfig& config,
                                          bool slice) {
  CloudServer server(config);
  const size_t num_types = package.num_types;
  const size_t num_groups = package.type_of_group.size();

  size_t num_centers = 0;
  if (package.IsBaseline()) {
    server.baseline_ = true;
    server.data_ = std::move(*package.full_gk);
    num_centers = server.data_.NumVertices();
    server.to_gk_.resize(num_centers);
    std::iota(server.to_gk_.begin(), server.to_gk_.end(), 0);
    // Identity table: k = 1 makes every automorphic function the identity,
    // so the join below degenerates to a plain natural join over Gk.
    server.avt_ = Avt(1, static_cast<uint32_t>(num_centers));
    for (uint32_t v = 0; v < num_centers; ++v) server.avt_.Place(v, 0, v);
    server.stats_ = ComputeGraphStatistics(server.data_, package.k, num_types,
                                           std::move(package.type_of_group));
  } else {
    if (!package.go.has_value() || !package.avt.has_value()) {
      return Status::InvalidArgument("optimized upload lacks Go or AVT");
    }
    if (package.avt->k() != package.k) {
      return Status::InvalidArgument("AVT k disagrees with package k");
    }
    // A shard slice hosts only its part of B1, so its prefix is smaller
    // than the AVT; the full package must cover every AVT row exactly.
    if (slice ? package.go->num_b1 > package.avt->num_rows()
              : package.go->num_b1 != package.avt->num_rows()) {
      return Status::InvalidArgument("Go block size disagrees with AVT rows");
    }
    for (const VertexId gk_id : package.go->to_gk) {
      if (!package.avt->Contains(gk_id)) {
        return Status::InvalidArgument("Go references vertex outside AVT");
      }
    }
    server.stats_ = ComputeGkStatistics(*package.go, num_types,
                                        std::move(package.type_of_group));
    server.hops_ = package.go->hops;
    num_centers = package.go->num_b1;
    server.to_gk_ = std::move(package.go->to_gk);
    server.data_ = std::move(package.go->graph);
    server.avt_ = std::move(*package.avt);
  }

  WallTimer timer;
  {
    PPSM_TRACE_SPAN_CAT("cloud.index_build", "setup");
    PPSM_ASSIGN_OR_RETURN(
        server.index_,
        CloudIndex::Build(server.data_, num_centers, num_types, num_groups,
                          server.config_.num_threads));
  }
  server.index_build_ms_ = timer.ElapsedMillis();
  const CloudMetrics& metrics = CloudMetrics::Get();
  metrics.index_memory_bytes.Set(
      static_cast<double>(server.index_.MemoryBytes()));
  metrics.index_build_ms.Set(server.index_build_ms_);
  metrics.hosted_edges.Set(static_cast<double>(server.data_.NumEdges()));
  metrics.plan_cache_entries.Set(0.0);
  return server;
}

std::vector<RootCandidates> CloudServer::CandidateSpaces(
    const AttributedGraph& qo) const {
  std::vector<RootCandidates> spaces;
  spaces.emplace_back(index_, qo);
  return spaces;
}

RootDegrees CloudServer::RootCandidateDegrees(
    std::span<RootCandidates> spaces) const {
  return ShortlistRootDegrees(data_, spaces[0]);
}

Result<std::vector<UnitMatches>> CloudServer::MatchUnitRows(
    const AttributedGraph& qo, const std::vector<QueryUnit>& units,
    const UnitMatchOptions& options, std::span<RootCandidates> spaces,
    QueryProfile* /*profile*/) const {
  UnitMatchOptions own = options;
  own.root_candidates = &spaces[0];
  return MatchUnits(data_, index_, qo, units, own);
}

}  // namespace ppsm
