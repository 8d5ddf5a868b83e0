#ifndef PPSM_CLOUD_MESSAGES_H_
#define PPSM_CLOUD_MESSAGES_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/attributed_graph.h"
#include "kauto/avt.h"
#include "kauto/outsourced_graph.h"
#include "match/unit_matcher.h"
#include "match/statistics.h"
#include "partition/multilevel_partitioner.h"
#include "util/status.h"

namespace ppsm {

/// The data owner's one-time upload to the cloud. Two shapes (paper §3 vs
/// §4.1):
///  * optimized (EFF/RAN/FSIM): the outsourced graph Go plus the AVT — the
///    cloud reconstructs any part of Gk it needs through the automorphic
///    functions;
///  * baseline (BAS): the entire k-automorphic graph Gk, no AVT.
/// Both carry the non-sensitive vocabulary dimensions the cloud's cost model
/// needs: the number of vertex types and each label group's owning type.
/// Nothing in the package maps group ids back to labels — the LCT stays with
/// the owner.
struct UploadPackage {
  uint32_t k = 1;
  uint32_t num_types = 0;
  std::vector<VertexTypeId> type_of_group;

  /// Optimized shape; engaged iff full_gk is empty.
  std::optional<OutsourcedGraph> go;
  std::optional<Avt> avt;
  /// Baseline shape.
  std::optional<AttributedGraph> full_gk;

  bool IsBaseline() const { return full_gk.has_value(); }

  std::vector<uint8_t> Serialize() const;
  static Result<UploadPackage> Deserialize(std::span<const uint8_t> bytes);
};

/// Per-query request: just the anonymized query graph Qo (its "labels" are
/// group ids; the cloud learns nothing beyond generalized structure).
std::vector<uint8_t> SerializeQueryRequest(const AttributedGraph& qo);
Result<AttributedGraph> DeserializeQueryRequest(
    std::span<const uint8_t> bytes);

/// Wire codec for the cost-model summary (match/statistics.h). Every shard
/// of a cluster plans against the SAME global statistics — shipping them in
/// the shard upload (instead of recomputing over the slice, whose B1 subset
/// is a biased sample) is what keeps per-shard candidate verdicts equal to
/// the unsharded ones. Doubles travel as raw IEEE-754 bits, so a round trip
/// is bit-exact.
std::vector<uint8_t> SerializeGkStatistics(const GkStatistics& stats);
Result<GkStatistics> DeserializeGkStatistics(std::span<const uint8_t> bytes);

/// Wire codec for one query's per-star match rows — the BSP exchange
/// payload a shard ships to the coordinator (cloud/shard_exchange.h). Rows
/// are the *un-expanded* R(S,Go) tuples (already translated to global
/// Go-local ids by the sender), so by the probe-join design the byte count
/// is independent of the privacy parameter k.
std::vector<uint8_t> SerializeStarRows(const std::vector<UnitMatches>& stars);
Result<std::vector<UnitMatches>> DeserializeStarRows(
    std::span<const uint8_t> bytes);

/// One shard's slice of the outsourced upload, produced by BuildShardUploads
/// (cloud/cluster.h). `package` holds the slice graph (owned B1 vertices
/// plus their one-hop halo, local ids ascending in global Go-local id, B1
/// slice as a prefix) with the FULL AVT; the sidecar fields carry what the
/// coordinator needs to stitch shard answers back into the global id space.
struct ShardUpload {
  uint32_t shard = 0;
  uint32_t num_shards = 1;
  /// |V(Go)| and |B1| of the unsharded outsourced graph.
  uint64_t global_vertices = 0;
  uint64_t global_b1 = 0;
  /// The slice itself (optimized shape only; never baseline).
  UploadPackage package;
  /// Slice-local id -> global Go-local id (strictly ascending).
  std::vector<VertexId> to_global;
  /// owned[l] == 1 iff slice-local vertex l is an owned B1 vertex (its
  /// matches are this shard's to report; halo vertices are pruned from the
  /// candidate shortlist via UnitMatchOptions::candidate_filter).
  std::vector<uint8_t> owned;
  /// Global cost-model statistics (identical across the shards of a plan).
  GkStatistics stats;

  std::vector<uint8_t> Serialize() const;
  static Result<ShardUpload> Deserialize(std::span<const uint8_t> bytes);
};

/// A full sharding of one upload: the partitioner's assignment (kept so
/// snapshots reload the exact same vertex-to-shard mapping) plus one
/// ShardUpload per shard.
struct ShardingPlan {
  Partitioning partitioning;
  std::vector<ShardUpload> shards;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_MESSAGES_H_
