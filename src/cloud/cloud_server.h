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
#include "match/decomposition.h"
#include "match/index.h"
#include "match/statistics.h"
#include "match/unit_matcher.h"
#include "obs/query_profile.h"
#include "query/query_api.h"
#include "util/intersect.h"
#include "util/status.h"

namespace ppsm {

/// Cloud serving knobs: one struct for the unsharded CloudServer and for
/// every shard of a CloudCluster (whose shard count is a hosting argument,
/// CloudCluster::Host).
struct CloudConfig {
  /// Worker threads for the unit-matching and join phases of one query
  /// (paper §4.2.1: units are independent). Drawn from the shared
  /// ThreadPool; 0 clamps to 1 (serial).
  size_t num_threads = 1;
  /// Capacity of the decomposition plan cache (LRU over canonical Qo
  /// signatures; see match/decomposition.h QoSignature). 0 disables caching.
  size_t plan_cache_entries = 128;
  /// QueryService admission bound: queries executing simultaneously. Further
  /// arrivals wait in a queue bounded at 2 * max_inflight, beyond which they
  /// are refused with ResourceExhausted. 0 clamps to 1.
  size_t max_inflight = 16;
  /// Per-query wall-clock budget, measured from admission (queue wait
  /// included). Expiry surfaces as Status::DeadlineExceeded. 0 = no deadline.
  uint64_t query_deadline_ms = 0;
  /// Cap on the BFS depth of decomposition units the planner may pick
  /// (match/query_unit.h). 0 = use the hosted graph's full hop radius; 1 =
  /// star-only (the paper's §4.2.1 decomposition, byte-identical plans and
  /// answers). Values above the hosted radius are clamped to it — deeper
  /// units could not be matched completely.
  uint32_t max_unit_depth = 0;
  /// Unit matching via the per-query auxiliary graph + set-intersection
  /// kernels (match/aux_graph.h, util/intersect.h). Rows are byte-identical
  /// either way; off is the A/B reference path.
  bool aux_graph = true;
  /// Intersection kernel for the aux path (kAuto = §5.1 cost model per
  /// step). Output-neutral; exposed for A/B and calibration runs.
  IntersectKernel intersect_kernel = IntersectKernel::kAuto;
};

/// Point-in-time plan-cache accounting for one server or cluster (the
/// global ppsm_cloud_plan_cache_* metrics aggregate across them).
struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  size_t entries = 0;
  size_t capacity = 0;
};

/// The cloud's query pipeline (paper §4.2.1), shared by CloudServer and
/// CloudCluster: decode Qo, plan (plan cache, else the candidate-aware cover
/// ILP), match the units, translate their rows to Gk ids, join them into Rin
/// (R(Qo,Gk) for the baseline) and encode it — with the deadline
/// checkpoints, row-cap refusals, `cloud.*` spans and `ppsm_cloud_*` metrics
/// written once. A host supplies only the steps that differ:
///   * CandidateSpaces — the query's candidate space over each hosted index
///     (one on the server, one per shard on the cluster), made once per
///     query and shared by the two steps below, so every root shortlist is
///     computed at most once per query;
///   * RootCandidateDegrees — where the planner's root candidates come from
///     (the server's own index, or the coordinator's merge of the shards'
///     owned shortlists);
///   * MatchUnitRows — how unit rows in Go-local ids are produced
///     (MatchUnits on the server; shard matches, exchange and k-way merge on
///     the cluster).
///
/// Thread-safety: a hosted driver is immutable — Serve is const and any
/// number of threads may call it concurrently (the plan cache is the only
/// shared mutable state and sits behind its own mutex). Concurrent admission
/// control and batching live in cloud/query_service.h, which fronts a driver
/// without knowing which host it is.
class CloudQueryDriver {
 public:
  // Movable, not copyable. Out-of-line because PlanCache is incomplete here.
  virtual ~CloudQueryDriver();
  CloudQueryDriver(CloudQueryDriver&&) noexcept;
  CloudQueryDriver& operator=(CloudQueryDriver&&) noexcept;

  /// The one query entry point: evaluates a serialized Qo under the given
  /// context. ctx.profile, when set, is filled on every return path —
  /// failure included; the cloud's total goes to its cloud_ms.
  Result<WireAnswer> Serve(std::span<const uint8_t> qo_bytes,
                           const QueryContext& ctx = {}) const;

  const CloudConfig& config() const { return config_; }
  /// Matching and join workers per query (config().num_threads, >= 1).
  size_t num_threads() const { return config_.num_threads; }
  /// Hit/miss/occupancy counters of this host's plan cache.
  PlanCacheStats plan_cache_stats() const;

  uint32_t k() const { return avt_.k(); }
  /// Hop radius of the hosted Go (1 for the paper's Go and the baseline).
  uint32_t hops() const { return hops_; }
  /// Deepest decomposition unit the planner may pick: the hosted radius,
  /// tightened by config.max_unit_depth when set.
  uint32_t EffectiveUnitDepth() const {
    uint32_t depth = hops_;
    if (config_.max_unit_depth > 0 && config_.max_unit_depth < depth) {
      depth = config_.max_unit_depth;
    }
    return depth;
  }
  /// Global cost-model statistics.
  const GkStatistics& statistics() const { return stats_; }
  /// Automorphic-function table the join probes under.
  const Avt& avt() const { return avt_; }
  /// Go-local id -> Gk id (identity for the baseline).
  const std::vector<VertexId>& to_gk() const { return to_gk_; }

 protected:
  explicit CloudQueryDriver(const CloudConfig& config);

  /// The query's candidate spaces, one per hosted index, nothing computed
  /// yet. Both steps below receive this same list.
  virtual std::vector<RootCandidates> CandidateSpaces(
      const AttributedGraph& qo) const = 0;

  /// Planning step: the root-candidate degrees of every query vertex
  /// (match/decomposition.h RootDegrees).
  virtual RootDegrees RootCandidateDegrees(
      std::span<RootCandidates> spaces) const = 0;

  /// Matching step: one UnitMatches per unit, aligned with `units`, rows in
  /// Go-local ids. `options` carries the driver's row cap, worker count,
  /// matcher knobs, phase counters and deadline cancellation; a host may
  /// fill host-specific fields of `profile` (the cluster's shard profiles).
  virtual Result<std::vector<UnitMatches>> MatchUnitRows(
      const AttributedGraph& qo, const std::vector<QueryUnit>& units,
      const UnitMatchOptions& options, std::span<RootCandidates> spaces,
      QueryProfile* profile) const = 0;

  CloudConfig config_;
  uint32_t hops_ = 1;
  GkStatistics stats_;
  Avt avt_;
  std::vector<VertexId> to_gk_;

 private:
  struct PlanCache;  // Mutex + LRU, behind a pointer so the host moves.

  std::unique_ptr<PlanCache> plan_cache_;  // Null when caching disabled.
};

/// The honest-but-curious cloud. It only ever sees anonymized artifacts:
/// the upload package (Go+AVT, or Gk for the baseline) and per-query Qo
/// graphs whose labels are opaque group ids. Queries run through the shared
/// CloudQueryDriver pipeline over this server's own VBV/LBV index. On the
/// optimized path the join expands unit matches with the automorphic
/// functions and returns Rin; the baseline path hosts all of Gk, joins
/// without expansion, and returns R(Qo,Gk).
class CloudServer : public CloudQueryDriver {
 public:
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
                                       const CloudConfig& config);

  bool IsBaseline() const { return baseline_; }
  size_t IndexMemoryBytes() const { return index_.MemoryBytes(); }
  double IndexBuildMillis() const { return index_build_ms_; }
  /// Number of vertices the index treats as candidate star centers.
  size_t NumCenters() const { return index_.num_centers(); }
  /// Number of edges stored in the hosted graph (|E(Go)| or |E(Gk)|).
  size_t HostedEdges() const { return data_.NumEdges(); }
  /// Read access for the cluster coordinator (shard-local planning and
  /// matching run outside this server).
  const AttributedGraph& data() const { return data_; }
  const CloudIndex& index() const { return index_; }

 private:
  explicit CloudServer(const CloudConfig& config)
      : CloudQueryDriver(config) {}

  static Result<CloudServer> HostImpl(UploadPackage package,
                                      const CloudConfig& config,
                                      bool slice);

  std::vector<RootCandidates> CandidateSpaces(
      const AttributedGraph& qo) const override;
  RootDegrees RootCandidateDegrees(
      std::span<RootCandidates> spaces) const override;
  Result<std::vector<UnitMatches>> MatchUnitRows(
      const AttributedGraph& qo, const std::vector<QueryUnit>& units,
      const UnitMatchOptions& options, std::span<RootCandidates> spaces,
      QueryProfile* profile) const override;

  bool baseline_ = false;
  AttributedGraph data_;           // Go (compact ids) or Gk.
  CloudIndex index_;
  double index_build_ms_ = 0.0;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CLOUD_SERVER_H_
