#ifndef PPSM_CLOUD_CLUSTER_H_
#define PPSM_CLOUD_CLUSTER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cloud/channel.h"
#include "cloud/cloud_server.h"
#include "cloud/messages.h"
#include "query/query_api.h"
#include "util/status.h"

namespace ppsm {

/// Splits an optimized upload into `num_shards` slice uploads. The B1 block
/// is partitioned with the multilevel partitioner (deterministic in `seed`);
/// each shard's slice holds its owned B1 vertices plus their one-hop halo,
/// with exactly the Go edges incident to an owned vertex. Slice-local ids
/// ascend in global Go-local id, which (a) preserves every owned vertex's
/// adjacency order and (b) keeps the slice's B1 vertices a prefix — the two
/// properties the byte-identical merge in CloudCluster::Serve rests on.
/// Every shard carries the FULL AVT and the GLOBAL cost-model statistics, so
/// shard-local candidate verdicts and the coordinator's plan equal the
/// unsharded ones. Baseline (BAS) packages are rejected: sharding exists for
/// the outsourced shape.
Result<ShardingPlan> BuildShardUploads(const UploadPackage& package,
                                       uint32_t num_shards, uint64_t seed);

/// Seed of the partitioner run that assigns B1 vertices to shards in
/// CloudCluster::Host (deterministic: same seed, same assignment).
inline constexpr uint64_t kShardPartitionSeed = 7;

/// A single-process sharded cloud: S CloudServer shards, each hosting the
/// partitioner-assigned slice of Go, fronted by a coordinator that runs the
/// shared CloudQueryDriver pipeline. One query runs as a BSP superstep:
///
///   plan (coordinator, global)  ->  match (each shard, its owned centers)
///   ->  exchange (shards ship un-expanded R(S,Go) rows over simulated
///   links)  ->  merge + probe join (coordinator)
///
/// The cluster supplies only the driver's two host steps: the planner's
/// root candidates are the merge of the shards' owned shortlists, and unit
/// rows come from the shard match, exchange and k-way merge. Results are
/// BYTE-IDENTICAL to the unsharded CloudServer at any shard count:
/// candidate sets, cost-model sums (same floating-point order),
/// decomposition, row enumeration order and the join all reproduce the
/// single-server execution exactly (DESIGN.md §13 gives the argument).
/// Because the exchange ships un-expanded rows, its byte volume is
/// independent of the privacy parameter k.
///
/// Thread-safety: like CloudServer — immutable after hosting except the
/// plan cache behind its own mutex; Serve is const and concurrency-safe.
class CloudCluster : public CloudQueryDriver {
 public:
  /// Builds the sharding plan from a serialized/in-memory upload and hosts
  /// `num_shards` slices (0 clamps to 1), each shard and the coordinator
  /// configured by `config`.
  static Result<CloudCluster> Host(std::span<const uint8_t> package_bytes,
                                   uint32_t num_shards,
                                   const CloudConfig& config = {},
                                   const ChannelConfig& channel_config = {});
  static Result<CloudCluster> Host(UploadPackage package, uint32_t num_shards,
                                   const CloudConfig& config = {},
                                   const ChannelConfig& channel_config = {});
  /// Hosts pre-built shard uploads (the snapshot-reload path): validates
  /// cross-shard consistency, rebuilds the global id maps and hosts one
  /// CloudServer per slice. The shard count is the number of uploads.
  static Result<CloudCluster> HostShards(
      std::vector<ShardUpload> shard_uploads, const CloudConfig& config = {},
      const ChannelConfig& channel_config = {});

  uint32_t num_shards() const {
    return static_cast<uint32_t>(shards_.size());
  }
  /// The hosted shard servers (tests; PpsmSystem::cloud() reports shard 0).
  const CloudServer& shard(size_t i) const { return shards_[i]; }
  /// Total bytes shipped shard -> coordinator since hosting (the exchange
  /// links' byte meters; shard 0 is the coordinator and ships nothing).
  size_t ExchangedBytes() const;

 private:
  explicit CloudCluster(const CloudConfig& config)
      : CloudQueryDriver(config) {}

  std::vector<RootCandidates> CandidateSpaces(
      const AttributedGraph& qo) const override;
  RootDegrees RootCandidateDegrees(
      std::span<RootCandidates> spaces) const override;
  Result<std::vector<UnitMatches>> MatchUnitRows(
      const AttributedGraph& qo, const std::vector<QueryUnit>& units,
      const UnitMatchOptions& options, std::span<RootCandidates> spaces,
      QueryProfile* profile) const override;

  std::vector<CloudServer> shards_;
  /// Exchange link of each shard; entry 0 exists but is never charged (the
  /// coordinator is colocated with shard 0).
  std::vector<SimulatedChannel> channels_;
  /// Per shard: slice-local id -> global Go-local id (ascending).
  std::vector<std::vector<VertexId>> to_global_;
  /// Per shard: owned[l] != 0 iff slice-local l is an owned B1 vertex.
  std::vector<std::vector<uint8_t>> owned_;
  /// Full Gk degree of every global B1 vertex (owned-slice degrees are
  /// complete, so these equal the unsharded Go degrees) — the cost model's
  /// per-candidate input.
  std::vector<size_t> go_degree_;
  uint64_t global_vertices_ = 0;
  uint64_t global_b1_ = 0;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_CLUSTER_H_
