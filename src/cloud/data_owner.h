#ifndef PPSM_CLOUD_DATA_OWNER_H_
#define PPSM_CLOUD_DATA_OWNER_H_

#include <memory>
#include <span>
#include <vector>

#include "anonymize/grouping.h"
#include "anonymize/lct.h"
#include "cloud/messages.h"
#include "graph/attributed_graph.h"
#include "kauto/kautomorphism.h"
#include "match/match_set.h"
#include "util/status.h"

namespace ppsm {

/// Data-owner / client configuration (one per §6.1 method: EFF, RAN, FSIM
/// choose a grouping strategy with baseline_upload=false; BAS uses the EFF
/// grouping with baseline_upload=true).
struct DataOwnerOptions {
  uint32_t k = 2;
  GroupingStrategy strategy = GroupingStrategy::kCostModel;
  /// BAS: upload the whole Gk instead of Go (+AVT).
  bool baseline_upload = false;
  /// Go extraction radius around B1 (>= 1). 1 is the paper's Go — B1 plus
  /// its one-hop neighborhood — and keeps the upload byte-identical to
  /// before; radius h lets the cloud match decomposition units of depth up
  /// to h (kauto/outsourced_graph.h). Ignored by the baseline upload.
  uint32_t go_hops = 1;
  GroupingOptions grouping;
  KAutomorphismOptions kauto;  // .k is overridden with `k`.
  /// Workers for the whole offline pipeline; overrides
  /// `grouping.num_threads` and `kauto.num_threads`. Every value produces
  /// byte-identical artifacts and upload bytes (DESIGN.md §11); 0 behaves
  /// like 1.
  size_t setup_threads = 1;
};

/// Wall time and size accounting for the offline anonymization pipeline
/// (paper Figs. 10-12).
struct SetupStats {
  double lct_ms = 0.0;        // Label-combination search.
  double anonymize_ms = 0.0;  // G -> G' label rewrite.
  double kauto_ms = 0.0;      // Partition + alignment + edge copy.
  double go_ms = 0.0;         // Outsourced-graph extraction.
  double total_ms = 0.0;
  size_t gk_vertices = 0;
  size_t gk_edges = 0;
  size_t go_vertices = 0;
  size_t go_edges = 0;  // |E(Gk)| for the baseline upload.
  size_t noise_vertices = 0;
  size_t noise_edges = 0;
  size_t upload_bytes = 0;
};

/// The trusted side of the system (paper §2.3): owns G, builds the LCT and
/// the k-automorphic artifacts, anonymizes queries, and turns the cloud's
/// Rin back into exact answers (Algorithm 3).
class DataOwner {
 public:
  /// Runs the full offline pipeline: LCT construction (chosen strategy),
  /// label generalization G -> G', k-automorphism G' -> Gk (+AVT), Go
  /// extraction, and upload-package serialization.
  static Result<DataOwner> Create(AttributedGraph graph,
                                  std::shared_ptr<const Schema> schema,
                                  const DataOwnerOptions& options);

  /// Rebuilds an owner from previously persisted artifacts (see
  /// cloud/owner_store.h) without re-running the anonymization pipeline.
  /// Validates the pieces against each other and re-derives the outsourced
  /// graph and upload package (deterministic functions of the inputs).
  /// Timing fields of setup_stats() stay zero.
  static Result<DataOwner> Restore(AttributedGraph graph,
                                   std::shared_ptr<const Schema> schema,
                                   Lct lct, KAutomorphicGraph kag,
                                   bool baseline_upload,
                                   uint32_t go_hops = 1);

  /// The serialized upload package destined for the cloud.
  const std::vector<uint8_t>& upload_bytes() const { return upload_bytes_; }
  const SetupStats& setup_stats() const { return setup_stats_; }

  /// Splits the upload into `num_shards` slice uploads for a sharded cloud
  /// (cloud/cluster.h BuildShardUploads on this owner's package). The plan
  /// is deterministic in `seed`, so persisting it (owner_store.h
  /// SaveShardUploads) and rebuilding from scratch agree exactly. Rejects
  /// baseline uploads — BAS ships all of Gk and has no B1 block to split.
  Result<ShardingPlan> BuildShardUploads(uint32_t num_shards,
                                         uint64_t seed) const;

  /// Q -> Qo: replaces each query label with its group (§4.2). The result
  /// keeps Q's vertex ids and topology.
  Result<AttributedGraph> AnonymizeQuery(const AttributedGraph& query) const;
  /// Serialized Qo request for the wire.
  Result<std::vector<uint8_t>> AnonymizeQueryToRequest(
      const AttributedGraph& query) const;

  struct ClientStats {
    double expand_ms = 0.0;  // Pass 1: shift selection by cell masks.
    double filter_ms = 0.0;  // Pass 2: injectivity + edges in G, sort.
    double total_ms = 0.0;
    /// (row, shift) pairs examined: k·|Rin|, or |Rin| for the baseline.
    /// For an anchored Rin every pair is a distinct row of R(Qo,Gk), so this
    /// equals |R(Qo,Gk)|.
    size_t candidates = 0;
    size_t results = 0;  // |R(Q,G)|.
  };

  /// Algorithm 3: R(Q,G) from the cloud's Rin without materializing
  /// R(Qo,Gk). Pass 1 selects each Rin row's automorphic shifts whose image
  /// of every cell is an original vertex of G carrying the query vertex's
  /// types and labels; each distinct (column, vertex) cell is tested once
  /// per call into a mask of passing shifts, and a row's survivors are the
  /// AND of its cells' masks. Pass 2 builds only the surviving images,
  /// drops those that repeat a vertex or miss a query edge in G, and
  /// sort-deduplicates the rest. The baseline response is R(Qo,Gk) already
  /// and takes the identity shift only. `query` must be the original
  /// (un-anonymized) Q the response answers. A non-baseline response naming
  /// a vertex outside Gk is InvalidArgument.
  Result<MatchSet> ProcessResponse(const AttributedGraph& query,
                                   std::span<const uint8_t> response_payload,
                                   ClientStats* stats = nullptr) const;

  const AttributedGraph& graph() const { return graph_; }
  const Lct& lct() const { return lct_; }
  const KAutomorphicGraph& kag() const { return kag_; }
  bool IsBaselineUpload() const { return baseline_; }
  uint32_t k() const { return kag_.avt.k(); }
  /// Go extraction radius this owner uploads with (1 = the paper's Go).
  uint32_t go_hops() const { return go_hops_; }

 private:
  DataOwner() = default;

  /// Shared tail of Create/Restore: builds the upload package from the
  /// already-populated members (`num_threads` drives the Go extraction).
  Status BuildUpload(size_t num_threads);

  AttributedGraph graph_;
  std::shared_ptr<const Schema> schema_;
  Lct lct_;
  KAutomorphicGraph kag_;
  bool baseline_ = false;
  uint32_t go_hops_ = 1;
  std::vector<uint8_t> upload_bytes_;
  SetupStats setup_stats_;
};

}  // namespace ppsm

#endif  // PPSM_CLOUD_DATA_OWNER_H_
