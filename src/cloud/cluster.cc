#include "cloud/cluster.h"

#include <algorithm>
#include <string>
#include <utility>

#include "cloud/shard_exchange.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/timer.h"

namespace ppsm {

namespace {

struct ClusterMetrics {
  MetricsRegistry::Counter exchanged_bytes;
  MetricsRegistry::Histogram exchange_ms;
  MetricsRegistry::Histogram shard_rows;
  MetricsRegistry::Gauge shards;

  static const ClusterMetrics& Get() {
    static const ClusterMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      ClusterMetrics metrics;
      metrics.exchanged_bytes =
          r.counter("ppsm_cluster_exchanged_bytes_total",
                    "Star-row bytes shipped shard -> coordinator");
      metrics.exchange_ms =
          r.histogram("ppsm_cluster_exchange_ms", DefaultLatencyBucketsMs(),
                      "Per-shard exchange transfer time");
      metrics.shard_rows =
          r.histogram("ppsm_cluster_shard_rows", DefaultCountBuckets(),
                      "Un-expanded rows contributed per shard per query");
      metrics.shards =
          r.gauge("ppsm_cluster_shards", "Shards of the last hosted cluster");
      return metrics;
    }();
    return m;
  }
};

}  // namespace

Result<ShardingPlan> BuildShardUploads(const UploadPackage& package,
                                       uint32_t num_shards, uint64_t seed) {
  if (package.IsBaseline()) {
    return Status::InvalidArgument(
        "sharding requires the optimized upload shape");
  }
  if (!package.go.has_value() || !package.avt.has_value()) {
    return Status::InvalidArgument("optimized upload lacks Go or AVT");
  }
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be >= 1");
  }
  const OutsourcedGraph& go = *package.go;
  const size_t num_b1 = go.num_b1;
  const size_t num_vertices = go.graph.NumVertices();
  if (num_b1 == 0) {
    return Status::InvalidArgument("cannot shard an empty B1 block");
  }

  // Partition the B1-induced subgraph only: N1 halo vertices follow their
  // B1 neighbors into whichever slices need them, so assigning them own
  // parts would just distort the balance objective.
  GraphBuilder b1_builder;
  b1_builder.ReserveVertices(num_b1);
  for (VertexId v = 0; v < num_b1; ++v) {
    b1_builder.AddVertex(
        std::vector<VertexTypeId>(go.graph.Types(v).begin(),
                                  go.graph.Types(v).end()),
        std::vector<LabelId>(go.graph.Labels(v).begin(),
                             go.graph.Labels(v).end()));
  }
  go.graph.ForEachEdge([&](VertexId u, VertexId v) {
    if (v < num_b1) b1_builder.AddEdgeUnchecked(u, v);  // u < v always.
  });
  PPSM_ASSIGN_OR_RETURN(const AttributedGraph b1_graph, b1_builder.Build());

  PartitionOptions part_options;
  part_options.num_parts = num_shards;
  part_options.seed = seed;
  ShardingPlan plan;
  PPSM_ASSIGN_OR_RETURN(plan.partitioning,
                        PartitionGraph(b1_graph, part_options));
  const std::vector<uint32_t>& part = plan.partitioning.part;

  // Global statistics, computed once and replicated: every shard must plan
  // against the SAME distribution (a slice's B1 subset is a biased sample).
  const GkStatistics stats = ComputeGkStatistics(
      go, package.num_types,
      std::vector<VertexTypeId>(package.type_of_group));

  const uint32_t hops = std::max<uint32_t>(go.hops, 1);
  plan.shards.reserve(num_shards);
  for (uint32_t s = 0; s < num_shards; ++s) {
    // Slice vertex set: owned B1 vertices plus everything within `hops` of
    // them (the one-hop halo at the paper's radius), in ascending global id
    // order — so slice-local ids are monotone in global ids (adjacency
    // order preserved) and the slice's B1 vertices form a local prefix (B1
    // globals precede every deeper ring by Go's layout). The distance-
    // bounded halo is exactly what owned-rooted units of depth <= hops
    // touch, mirroring the h-hop Go extraction around B1.
    std::vector<uint32_t> dist(num_vertices, UINT32_MAX);
    std::vector<VertexId> frontier;
    for (VertexId v = 0; v < num_b1; ++v) {
      if (part[v] != s) continue;
      dist[v] = 0;
      frontier.push_back(v);
    }
    for (uint32_t d = 1; d <= hops && !frontier.empty(); ++d) {
      std::vector<VertexId> next;
      for (const VertexId u : frontier) {
        for (const VertexId n : go.graph.Neighbors(u)) {
          if (dist[n] == UINT32_MAX) {
            dist[n] = d;
            next.push_back(n);
          }
        }
      }
      frontier = std::move(next);
    }
    ShardUpload upload;
    upload.shard = s;
    upload.num_shards = num_shards;
    upload.global_vertices = num_vertices;
    upload.global_b1 = num_b1;
    std::vector<VertexId> to_local(num_vertices, kInvalidVertex);
    for (VertexId g = 0; g < num_vertices; ++g) {
      if (dist[g] == UINT32_MAX) continue;
      to_local[g] = static_cast<VertexId>(upload.to_global.size());
      upload.to_global.push_back(g);
    }

    GraphBuilder slice_builder;
    slice_builder.ReserveVertices(upload.to_global.size());
    OutsourcedGraph slice;
    slice.k = package.k;
    slice.hops = hops;
    for (const VertexId g : upload.to_global) {
      slice_builder.AddVertex(
          std::vector<VertexTypeId>(go.graph.Types(g).begin(),
                                    go.graph.Types(g).end()),
          std::vector<LabelId>(go.graph.Labels(g).begin(),
                               go.graph.Labels(g).end()));
      slice.to_gk.push_back(go.to_gk[g]);
      const bool owned = g < num_b1 && part[g] == s;
      upload.owned.push_back(owned ? 1 : 0);
      if (g < num_b1) ++slice.num_b1;
    }
    // Slice edges: every Go edge with an endpoint within hops - 1 of the
    // owned set (at radius 1: an owned endpoint; both endpoints are then in
    // the slice by construction). Canonical rule — when both endpoints
    // qualify, the smaller global id emits — adds each edge exactly once.
    // This is the full edge set an owned-rooted unit of depth <= hops can
    // traverse: its depth-j parent vertices sit within j <= hops - 1 of an
    // owned root.
    for (VertexId u = 0; u < num_vertices; ++u) {
      if (dist[u] >= hops) continue;  // Outside the emitting prefix.
      for (const VertexId v : go.graph.Neighbors(u)) {
        const bool v_emits = dist[v] < hops;
        if (v_emits && v < u) continue;  // Emitted from v's side.
        slice_builder.AddEdgeUnchecked(to_local[u], to_local[v]);
      }
    }
    PPSM_ASSIGN_OR_RETURN(slice.graph, slice_builder.Build());

    upload.package.k = package.k;
    upload.package.num_types = package.num_types;
    upload.package.type_of_group = package.type_of_group;
    upload.package.go = std::move(slice);
    upload.package.avt = *package.avt;  // Full table on every shard.
    upload.stats = stats;
    plan.shards.push_back(std::move(upload));
  }
  return plan;
}

Result<CloudCluster> CloudCluster::Host(
    std::span<const uint8_t> package_bytes, uint32_t num_shards,
    const CloudConfig& config, const ChannelConfig& channel_config) {
  PPSM_ASSIGN_OR_RETURN(UploadPackage package,
                        UploadPackage::Deserialize(package_bytes));
  return Host(std::move(package), num_shards, config, channel_config);
}

Result<CloudCluster> CloudCluster::Host(UploadPackage package,
                                        uint32_t num_shards,
                                        const CloudConfig& config,
                                        const ChannelConfig& channel_config) {
  PPSM_ASSIGN_OR_RETURN(
      ShardingPlan plan,
      BuildShardUploads(package, std::max<uint32_t>(num_shards, 1),
                        kShardPartitionSeed));
  return HostShards(std::move(plan.shards), config, channel_config);
}

Result<CloudCluster> CloudCluster::HostShards(
    std::vector<ShardUpload> shard_uploads, const CloudConfig& config,
    const ChannelConfig& channel_config) {
  if (shard_uploads.empty()) {
    return Status::InvalidArgument("cluster needs at least one shard");
  }
  const uint32_t num_shards = static_cast<uint32_t>(shard_uploads.size());
  for (uint32_t s = 0; s < num_shards; ++s) {
    const ShardUpload& upload = shard_uploads[s];
    if (upload.shard != s || upload.num_shards != num_shards) {
      return Status::InvalidArgument("shard uploads out of order");
    }
    if (upload.package.IsBaseline() || !upload.package.go.has_value() ||
        !upload.package.avt.has_value()) {
      return Status::InvalidArgument("shard upload is not a slice package");
    }
    if (upload.global_vertices != shard_uploads[0].global_vertices ||
        upload.global_b1 != shard_uploads[0].global_b1 ||
        upload.package.k != shard_uploads[0].package.k) {
      return Status::InvalidArgument("shard uploads disagree on the graph");
    }
    if (upload.to_global.size() != upload.package.go->graph.NumVertices() ||
        upload.owned.size() != upload.to_global.size()) {
      return Status::InvalidArgument("shard id maps disagree with the slice");
    }
  }

  CloudCluster cluster(config);
  cluster.global_vertices_ = shard_uploads[0].global_vertices;
  cluster.global_b1_ = shard_uploads[0].global_b1;
  cluster.avt_ = *shard_uploads[0].package.avt;
  cluster.stats_ = shard_uploads[0].stats;

  // Reassemble the global id maps from the slices, validating that halo
  // overlaps agree and that ownership covers every B1 vertex exactly once.
  cluster.to_gk_.assign(cluster.global_vertices_, kInvalidVertex);
  cluster.go_degree_.assign(cluster.global_b1_, SIZE_MAX);
  for (const ShardUpload& upload : shard_uploads) {
    const OutsourcedGraph& slice = *upload.package.go;
    for (size_t l = 0; l < upload.to_global.size(); ++l) {
      const VertexId g = upload.to_global[l];
      if (g >= cluster.global_vertices_) {
        return Status::InvalidArgument("shard id map out of range");
      }
      if (cluster.to_gk_[g] != kInvalidVertex &&
          cluster.to_gk_[g] != slice.to_gk[l]) {
        return Status::InvalidArgument("shards disagree on a Gk id");
      }
      cluster.to_gk_[g] = slice.to_gk[l];
      if (upload.owned[l] != 0) {
        if (g >= cluster.global_b1_) {
          return Status::InvalidArgument("owned vertex outside B1");
        }
        if (cluster.go_degree_[g] != SIZE_MAX) {
          return Status::InvalidArgument("B1 vertex owned by two shards");
        }
        cluster.go_degree_[g] = slice.graph.Degree(
            static_cast<VertexId>(l));
      }
    }
  }
  for (VertexId g = 0; g < cluster.global_b1_; ++g) {
    if (cluster.go_degree_[g] == SIZE_MAX) {
      return Status::InvalidArgument("B1 vertex owned by no shard");
    }
  }
  // N1 vertices of the unsharded Go all neighbor some B1 vertex, so every
  // global id referenced by any slice is covered; ids no slice mentions
  // (possible only for N1 vertices that neighbor no owned vertex — which
  // cannot happen, as ownership covers B1) would be caught at query time.

  cluster.shards_.reserve(num_shards);
  cluster.channels_.reserve(num_shards);
  cluster.to_global_.reserve(num_shards);
  cluster.owned_.reserve(num_shards);
  for (ShardUpload& upload : shard_uploads) {
    cluster.to_global_.push_back(std::move(upload.to_global));
    cluster.owned_.push_back(std::move(upload.owned));
    PPSM_ASSIGN_OR_RETURN(SimulatedChannel channel,
                          SimulatedChannel::Create(channel_config));
    cluster.channels_.push_back(std::move(channel));
    PPSM_ASSIGN_OR_RETURN(
        CloudServer server,
        CloudServer::HostSlice(std::move(upload.package), config));
    cluster.shards_.push_back(std::move(server));
  }
  cluster.hops_ = cluster.shards_[0].hops();
  ClusterMetrics::Get().shards.Set(static_cast<double>(num_shards));
  return cluster;
}

size_t CloudCluster::ExchangedBytes() const {
  size_t total = 0;
  for (size_t s = 1; s < channels_.size(); ++s) {
    total += channels_[s].total_bytes();
  }
  return total;
}

std::vector<RootCandidates> CloudCluster::CandidateSpaces(
    const AttributedGraph& qo) const {
  std::vector<RootCandidates> spaces;
  spaces.reserve(shards_.size());
  for (const CloudServer& shard : shards_) spaces.emplace_back(shard.index(), qo);
  return spaces;
}

RootDegrees CloudCluster::RootCandidateDegrees(
    std::span<RootCandidates> spaces) const {
  // Each shard shortlists its owned root candidates (their slice verdicts
  // equal the global ones — an owned vertex's adjacency is complete in its
  // slice); the disjoint lists merge into ascending global order, which is
  // the unsharded shortlist, so the estimator reproduces the unsharded cost
  // sums bit for bit.
  RootDegrees degrees(spaces[0].query().NumVertices());
  std::vector<VertexId> merged;
  for (VertexId v = 0; v < degrees.size(); ++v) {
    merged.clear();
    for (size_t s = 0; s < shards_.size(); ++s) {
      for (const VertexId l : spaces[s].Of(v)) {
        if (owned_[s][l] != 0) merged.push_back(to_global_[s][l]);
      }
    }
    std::sort(merged.begin(), merged.end());
    degrees[v].reserve(merged.size());
    for (const VertexId g : merged) degrees[v].push_back(go_degree_[g]);
  }
  return degrees;
}

Result<std::vector<UnitMatches>> CloudCluster::MatchUnitRows(
    const AttributedGraph& qo, const std::vector<QueryUnit>& units,
    const UnitMatchOptions& options, std::span<RootCandidates> spaces,
    QueryProfile* profile) const {
  const ClusterMetrics& metrics = ClusterMetrics::Get();
  // Shard-local unit matching. Every shard matches the same units over its
  // slice, restricted to its owned candidate roots; rows come back in
  // slice-local ids and are translated to global Go-local ids here (the
  // merge must run in the monotone global id space; to_gk follows AVT row
  // order and is not monotone). The phase counters in `options` aggregate
  // across shards: each shard builds its own slice-local aux graph.
  std::vector<std::vector<UnitMatches>> shard_rows(shards_.size());
  profile->shards.resize(shards_.size());
  // The wire codec ships rows/columns only, so the skipped flag (like the
  // unit kind below) must be captured before the exchange. A unit is
  // reported skipped when every shard skipped it — a shard that ran it
  // contributes real rows to the merge.
  std::vector<uint8_t> skipped(units.size(), 1);
  for (size_t s = 0; s < shards_.size(); ++s) {
    WallTimer shard_timer;
    UnitMatchOptions shard_options = options;
    const std::vector<uint8_t>& owned = owned_[s];
    shard_options.candidate_filter = [&owned](VertexId v) {
      return owned[v] != 0;
    };
    shard_options.root_candidates = &spaces[s];
    shard_rows[s] = [&] {
      TraceSpan span(Tracer::Global(), "cluster.shard_match", "query");
      span.AddArg("query_id", profile->query_id);
      span.AddArg("shard", static_cast<uint64_t>(s));
      return MatchUnits(shards_[s].data(), shards_[s].index(), qo, units,
                        shard_options);
    }();
    ShardProfile& shard = profile->shards[s];
    shard.shard = static_cast<uint32_t>(s);
    for (size_t i = 0; i < shard_rows[s].size(); ++i) {
      UnitMatches& unit = shard_rows[s][i];
      unit.matches.RemapIds(to_global_[s]);
      shard.candidates += unit.num_candidates;
      shard.rows += unit.matches.NumMatches();
      if (!unit.skipped) skipped[i] = 0;
    }
    shard.match_ms = shard_timer.ElapsedMillis();
    metrics.shard_rows.Observe(static_cast<double>(shard.rows));
  }

  // BSP exchange — every shard but the coordinator-colocated shard 0 ships
  // its un-expanded rows over its simulated link. The bytes go through the
  // real wire codec both ways; by the probe-join design the payload is
  // independent of k.
  for (size_t s = 1; s < shards_.size(); ++s) {
    ExchangeStats exchange;
    Result<std::vector<UnitMatches>> shipped_or = [&] {
      PPSM_TRACE_SPAN_CAT("cluster.exchange", "query");
      return ShipStarRows(shard_rows[s], channels_[s],
                          "shard " + std::to_string(s) + " star rows",
                          &exchange);
    }();
    PPSM_ASSIGN_OR_RETURN(shard_rows[s], std::move(shipped_or));
    profile->shards[s].exchange_ms = exchange.transfer_ms;
    profile->shards[s].exchanged_bytes = exchange.bytes;
    metrics.exchanged_bytes.Increment(exchange.bytes);
    metrics.exchange_ms.Observe(exchange.transfer_ms);
  }

  // k-way merge back into the global enumeration order, then the
  // merged-total row cap: the unsharded refusal boundary, since a unit that
  // would truncate on one server either truncates on some shard or
  // overflows the merged stream here. Kind and skipped flags are restored
  // from the plan (shards matched exactly these units) and the shards.
  PPSM_ASSIGN_OR_RETURN(std::vector<UnitMatches> merged,
                        MergeShardUnitMatches(shard_rows));
  for (size_t i = 0; i < merged.size(); ++i) {
    if (merged[i].matches.NumMatches() > options.max_rows) {
      merged[i].truncated = true;
    }
    merged[i].kind = units[i].kind;
    merged[i].skipped = skipped[i] != 0;
  }
  return merged;
}

}  // namespace ppsm
