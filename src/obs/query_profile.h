#ifndef PPSM_OBS_QUERY_PROFILE_H_
#define PPSM_OBS_QUERY_PROFILE_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace ppsm {

/// Per-unit record of one query's unit-matching phase: how many candidate
/// roots the index shortlisted, how many rows materialized, and what the
/// §5.1 cost model predicted for the unit. The estimate/actual pair is the
/// raw material of the cost-model calibration report. `kind` tags the shape
/// ("star", "path", "tree") so calibration can be reported per family.
struct UnitProfile {
  uint32_t center = 0;         // Query vertex id of the unit root.
  uint64_t candidates = 0;     // Candidate roots from the VBV/LBV index.
  uint64_t rows = 0;           // |R(U,Go)| materialized (pre-translation).
  double estimated_rows = 0.0; // Cost-model estimate (0 when unavailable).
  bool truncated = false;      // Row cap or cancellation cut it short.
  bool skipped = false;        // Never matched: a sibling truncated first.
  std::string kind = "star";   // Unit shape: "star", "path" or "tree".

  bool operator==(const UnitProfile&) const = default;
};

/// Per-step record of the result join: which unit joined in, what the cost
/// model expected of it, and what actually came out. `output_rows` across
/// steps is exactly the per-step cardinality trace that makes a bad matching
/// order diagnosable (the 811k-row blowups show up as one step's output).
struct JoinStepProfile {
  uint32_t step = 0;               // 0-based join-step ordinal.
  uint32_t star_index = 0;         // Position in the decomposition's units.
  uint32_t star_center = 0;        // Query vertex id of the joined unit root.
  uint64_t build_rows = 0;         // Unit rows hash-indexed (build side).
  uint64_t output_rows = 0;        // Intermediate rows after this step.
  uint64_t injectivity_drops = 0;  // Rows dropped by the duplicate filter.
  double estimated_rows = 0.0;     // §5.1 estimate for the unit (0 = none).
  bool overflow = false;           // This step hit the row cap.
  std::string kind = "star";       // Shape of the joined unit.

  bool operator==(const JoinStepProfile&) const = default;
};

/// Per-shard record of one query's star-matching phase on a sharded cloud
/// (cloud/cluster.h): what the shard's slice contributed before the exchange
/// merged the streams. `exchanged_bytes` is the serialized un-expanded
/// R(S,Go) row payload the shard shipped to the coordinator — by the PR-4
/// probe-join design this is independent of the privacy parameter k.
struct ShardProfile {
  uint32_t shard = 0;           // Shard index [0, num_shards).
  uint64_t candidates = 0;      // Owned candidate centers across stars.
  uint64_t rows = 0;            // Un-expanded rows matched on this shard.
  double match_ms = 0.0;        // Shard-local star-matching wall time.
  double exchange_ms = 0.0;     // Simulated transfer time to the coordinator.
  uint64_t exchanged_bytes = 0; // Serialized row payload (0 for shard 0).

  bool operator==(const ShardProfile&) const = default;
};

/// The one per-query record: everything one query did, end to end (the
/// cloud/network/client split of the paper's Fig. 22). Cloud phases are
/// filled by the cloud (CloudQueryDriver::Serve), admission/queue
/// data and byte counts by the QueryService, and network/client fields by
/// the system facade. The same record is the flight-recorder entry, the
/// `cloud` member of a QueryResponse and the profile block on the wire.
/// Failed queries carry the phases that did run plus a status string, so a
/// DeadlineExceeded is never a stats-free error.
struct QueryProfile {
  /// Stable id minted at admission (or by the cloud itself for direct
  /// calls); never 0 once the cloud saw the query. Joins the reply to span
  /// args and the flight-recorder record.
  uint64_t query_id = 0;
  /// "ok", or the lower-cased Status code of the failure
  /// ("deadline_exceeded", "resource_exhausted", ...).
  std::string status = "ok";
  /// Phase name at which the deadline fired ("queue", "on admission",
  /// "after decomposition", ...); empty otherwise.
  std::string timed_out_phase;

  // Admission + cloud phase wall times (milliseconds).
  double queue_wait_ms = 0.0;
  double decomposition_ms = 0.0;
  double star_matching_ms = 0.0;
  double join_ms = 0.0;
  double cloud_ms = 0.0;    // Cloud evaluation total.
  double network_ms = 0.0;  // Simulated request + response transfer.
  double client_ms = 0.0;   // Algorithm 3 post-processing, total.
  double client_expand_ms = 0.0;  // Shift-selection share of client_ms.
  double client_filter_ms = 0.0;  // Injectivity + edge check and sort.
  double total_ms = 0.0;    // End to end (0 until annotated).
  /// Query-local auxiliary graph (match/aux_graph.h): build wall time and
  /// footprint, both 0 when the aux path is disabled.
  double aux_build_ms = 0.0;
  uint64_t aux_bytes = 0;
  /// Set-intersection kernel dispatch counts from the matching phase
  /// (util/intersect.h); all 0 when the aux path is disabled.
  uint64_t intersect_scalar = 0;
  uint64_t intersect_galloping = 0;
  uint64_t intersect_simd = 0;

  bool plan_cache_hit = false;
  /// The row cap fired somewhere (star matching or a join step).
  bool overflowed = false;

  uint64_t num_stars = 0;     // Selected decomposition units (any kind).
  uint64_t rs_size = 0;       // Total unit matches |RS|.
  uint64_t result_rows = 0;   // |Rin| rows returned.
  uint64_t peak_join_rows = 0;  // Largest intermediate join state.
  uint64_t client_candidates = 0;  // (Rin row, shift) pairs examined.
  uint64_t request_bytes = 0;   // Serialized Qo over the channel.
  uint64_t response_bytes = 0;  // Serialized reply over the channel.

  /// Per-unit records of the matching phase (stars, paths, trees).
  std::vector<UnitProfile> stars;
  std::vector<JoinStepProfile> join_steps;
  /// Per-shard contributions when the query ran on a sharded cluster;
  /// empty on the single-server path.
  std::vector<ShardProfile> shards;

  bool operator==(const QueryProfile&) const = default;
};

/// Lower-snake-case label of a status code ("deadline_exceeded",
/// "resource_exhausted") — the QueryProfile::status vocabulary.
std::string StatusCodeLabel(StatusCode code);

/// One-line JSON object for a profile (no trailing newline) — the JSONL
/// record of the slow-query log and `ppsm_cli --query-log`, and the profile
/// block of an encoded QueryResponse.
std::string QueryProfileToJson(const QueryProfile& profile);

/// Parses a QueryProfileToJson record back. Accepts exactly the schema the
/// serializer emits (flat keys plus the stars/join_steps/shards object
/// arrays); unknown keys are ignored so the format can grow. Integer
/// members decode exactly at their own width: a fraction, an exponent, a
/// sign or an out-of-range value is InvalidArgument, as is any other
/// malformed input.
Result<QueryProfile> QueryProfileFromJson(std::string_view json);

/// Calibration of one unit-kind family ("star", "path", "tree"): the same
/// ratio percentiles as the aggregate report, restricted to units of that
/// kind. Only kinds with at least one sample are reported.
struct UnitKindCalibration {
  std::string kind;
  size_t samples = 0;
  double ratio_p50 = 0.0;
  double ratio_p90 = 0.0;
  double ratio_p99 = 0.0;
  double mean_abs_log2 = 0.0;
};

/// Estimate-vs-actual accuracy of the §5.1 cost model over a set of
/// profiles, separately for unit cardinalities and join-step outputs.
/// Ratios are (estimate + 1) / (actual + 1) so empty units do not divide by
/// zero; a perfectly calibrated model sits at 1.0. Percentiles are exact
/// (computed from the sorted samples). Truncated units and overflowed join
/// steps are excluded — a max_rows-clipped actual says nothing about the
/// model, and including it would pollute the percentiles with artifacts of
/// the cap.
struct CostModelCalibration {
  size_t star_samples = 0;
  double star_ratio_p50 = 0.0;
  double star_ratio_p90 = 0.0;
  double star_ratio_p99 = 0.0;
  size_t join_samples = 0;
  double join_ratio_p50 = 0.0;
  double join_ratio_p90 = 0.0;
  double join_ratio_p99 = 0.0;
  /// Mean |log2(ratio)| — 0 means perfectly calibrated, 1 means off by 2x
  /// on (geometric) average.
  double star_mean_abs_log2 = 0.0;
  double join_mean_abs_log2 = 0.0;
  /// Per-kind breakdown of the unit samples ("star"/"path"/"tree" order,
  /// kinds without samples omitted). star_samples above remains the
  /// aggregate over every kind.
  std::vector<UnitKindCalibration> per_kind;
};

CostModelCalibration SummarizeCostModelCalibration(
    std::span<const QueryProfile> profiles);

}  // namespace ppsm

#endif  // PPSM_OBS_QUERY_PROFILE_H_
