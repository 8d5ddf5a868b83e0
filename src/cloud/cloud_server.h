#ifndef PPSM_CLOUD_CLOUD_SERVER_H_
#define PPSM_CLOUD_CLOUD_SERVER_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "cloud/messages.h"
#include "graph/attributed_graph.h"
#include "kauto/avt.h"
#include "match/index.h"
#include "match/statistics.h"
#include "obs/query_profile.h"
#include "query/query_api.h"
#include "util/intersect.h"
#include "util/status.h"

namespace ppsm {

/// Per-shard serving knobs: what one CloudServer (one slice of the hosted
/// graph) needs to evaluate its share of a query. Deployment-scoped knobs
/// (shard count, admission, deadlines) live in ClusterConfig.
struct ShardConfig {
  /// Worker threads for the star-matching phase of one query (paper §4.2.1:
  /// stars are independent). Drawn from the shared ThreadPool; 0 clamps
  /// to 1 (serial).
  size_t num_threads = 1;
  /// Capacity of the decomposition plan cache (LRU over canonical Qo
  /// signatures; see match/decomposition.h QoSignature). 0 disables caching.
  size_t plan_cache_entries = 128;
  /// Cap on the BFS depth of decomposition units the planner may pick
  /// (match/query_unit.h). 0 = use the hosted graph's full hop radius; 1 =
  /// star-only (the paper's §4.2.1 decomposition, byte-identical plans and
  /// answers). Values above the hosted radius are clamped to it — deeper
  /// units could not be matched completely on this slice.
  uint32_t max_unit_depth = 0;
  /// Unit matching via the per-query auxiliary graph + set-intersection
  /// kernels (match/aux_graph.h, util/intersect.h). Rows are byte-identical
  /// either way; off is the A/B reference path.
  bool aux_graph = true;
  /// Intersection kernel for the aux path (kAuto = §5.1 cost model per
  /// step). Output-neutral; exposed for A/B and calibration runs.
  IntersectKernel intersect_kernel = IntersectKernel::kAuto;
};

/// Deployment-scoped serving knobs: how many shards host the graph and how
/// the fronting QueryService admits traffic.
struct ClusterConfig {
  /// Number of CloudServer shards hosting slices of Go. 1 = the classic
  /// unsharded deployment (0 clamps to 1).
  uint32_t num_shards = 1;
  /// Index of the shard this config addresses in a multi-process deployment;
  /// the single-process CloudCluster hosts all shards itself and ignores it.
  uint32_t shard = 0;
  /// QueryService admission bound: queries executing simultaneously. Further
  /// arrivals wait in a queue bounded at 2 * max_inflight, beyond which they
  /// are refused with ResourceExhausted. Must be >= 1 (0 clamps to 1).
  size_t max_inflight = 16;
  /// Per-query wall-clock budget, measured from admission (queue wait
  /// included). Expiry surfaces as Status::DeadlineExceeded. 0 = no deadline.
  uint64_t query_deadline_ms = 0;
  /// Seed of the partitioner run that assigns B1 vertices to shards
  /// (deterministic: same seed, same assignment). Ignored when num_shards=1.
  uint64_t partition_seed = 7;
};

/// Legacy flat view of (ShardConfig x ClusterConfig), kept so existing
/// tests/benches compile unchanged: the pre-cluster single-server world
/// needed no distinction between per-shard and deployment knobs. Convert
/// with ToShardConfig/ToClusterConfig/ToCloudConfig.
struct CloudConfig {
  size_t num_threads = 1;        // -> ShardConfig::num_threads.
  size_t plan_cache_entries = 128;  // -> ShardConfig::plan_cache_entries.
  size_t max_inflight = 16;      // -> ClusterConfig::max_inflight.
  uint64_t query_deadline_ms = 0;  // -> ClusterConfig::query_deadline_ms.
  uint32_t max_unit_depth = 0;   // -> ShardConfig::max_unit_depth.
  bool aux_graph = true;         // -> ShardConfig::aux_graph.
  IntersectKernel intersect_kernel =  // -> ShardConfig::intersect_kernel.
      IntersectKernel::kAuto;
};

/// Converters between the legacy flat config and the split pair.
ShardConfig ToShardConfig(const CloudConfig& config);
ClusterConfig ToClusterConfig(const CloudConfig& config);
CloudConfig ToCloudConfig(const ShardConfig& shard,
                          const ClusterConfig& cluster);

/// Point-in-time plan-cache accounting for one server (the global
/// ppsm_cloud_plan_cache_* metrics aggregate across servers).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// The honest-but-curious cloud. It only ever sees anonymized artifacts:
/// the upload package (Go+AVT, or Gk for the baseline) and per-query Qo
/// graphs whose labels are opaque group ids. Query evaluation follows
/// §4.2.1: cost-model query decomposition (exact ILP, memoized in the plan
/// cache), VBV/LBV-indexed star matching, then the result join. On the
/// optimized path the join expands star matches with the automorphic
/// functions and returns Rin; the baseline path hosts all of Gk, joins
/// without expansion, and returns R(Qo,Gk).
///
/// Thread-safety: a hosted server is immutable — Serve is const and any
/// number of threads may call it concurrently (the plan cache is the only
/// shared mutable state and sits behind its own mutex). Concurrent
/// admission control and batching live in cloud/query_service.h.
class CloudServer : public QueryHandler {
 public:
  // Movable, not copyable. Out-of-line because PlanCache is incomplete here.
  ~CloudServer() override;
  CloudServer(CloudServer&&) noexcept;
  CloudServer& operator=(CloudServer&&) noexcept;

  /// Ingests a serialized upload package and builds the offline index.
  static Result<CloudServer> Host(std::span<const uint8_t> package_bytes,
                                  const CloudConfig& config = {});
  /// Same, from an in-memory package (tests).
  static Result<CloudServer> Host(UploadPackage package,
                                  const CloudConfig& config = {});
  /// Hosts one shard's slice of Go (ShardUpload::package). The slice's B1
  /// prefix is smaller than the full AVT, so the full-package consistency
  /// check num_b1 == avt.num_rows is relaxed to num_b1 <= avt.num_rows;
  /// everything else (index build, query evaluation) is the regular path.
  static Result<CloudServer> HostSlice(UploadPackage package,
                                       const ShardConfig& config);

  /// The one query entry point (QueryHandler): evaluates a serialized Qo
  /// under the given context. ctx.stats, when set, is filled on every
  /// return path — failure included.
  Result<WireAnswer> Serve(std::span<const uint8_t> qo_bytes,
                           const QueryContext& ctx = {}) const override;
  ServiceLimits limits() const override {
    return {config_.max_inflight, config_.query_deadline_ms};
  }

  const CloudConfig& config() const { return config_; }
  /// Star-matching workers per query (config().num_threads, clamped >= 1).
  size_t num_threads() const { return config_.num_threads; }

  /// Hit/miss/occupancy counters of this server's plan cache.
  PlanCacheStats plan_cache_stats() const;

  bool IsBaseline() const { return baseline_; }
  uint32_t k() const { return avt_.k(); }
  /// Hop radius of the hosted Go (1 for the paper's Go and the baseline).
  uint32_t hops() const { return hops_; }
  /// Deepest decomposition unit the planner may pick on this server: the
  /// hosted radius, tightened by config.max_unit_depth when set.
  uint32_t EffectiveUnitDepth() const {
    uint32_t depth = hops_;
    if (config_.max_unit_depth > 0 && config_.max_unit_depth < depth) {
      depth = config_.max_unit_depth;
    }
    return depth;
  }
  size_t IndexMemoryBytes() const { return index_.MemoryBytes(); }
  double IndexBuildMillis() const { return index_build_ms_; }
  /// Number of vertices the index treats as candidate star centers.
  size_t NumCenters() const { return index_.num_centers(); }
  /// Number of edges stored in the hosted graph (|E(Go)| or |E(Gk)|).
  size_t HostedEdges() const { return data_.NumEdges(); }
  const GkStatistics& statistics() const { return stats_; }
  /// Read access for the cluster coordinator (shard-local planning + the
  /// slice-to-global row translation run outside this server).
  const AttributedGraph& data() const { return data_; }
  const CloudIndex& index() const { return index_; }
  const Avt& avt() const { return avt_; }
  const std::vector<VertexId>& to_gk() const { return to_gk_; }

 private:
  struct PlanCache;  // Mutex + LRU, behind a pointer so the server moves.

  CloudServer() = default;

  static Result<CloudServer> HostImpl(UploadPackage package,
                                      const CloudConfig& config,
                                      bool slice);

  bool baseline_ = false;
  uint32_t hops_ = 1;              // Hop radius of the hosted Go.
  AttributedGraph data_;           // Go (compact ids) or Gk.
  std::vector<VertexId> to_gk_;    // Identity for baseline.
  Avt avt_;                        // Identity table for baseline.
  CloudIndex index_;
  GkStatistics stats_;
  double index_build_ms_ = 0.0;
  CloudConfig config_;
  std::unique_ptr<PlanCache> plan_cache_;  // Null when caching disabled.
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CLOUD_SERVER_H_
