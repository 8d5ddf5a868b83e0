#ifndef PPSM_QUERY_QUERY_API_H_
#define PPSM_QUERY_QUERY_API_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/attributed_graph.h"
#include "match/match_set.h"
#include "obs/query_profile.h"
#include "util/status.h"

namespace ppsm {

/// ---------------------------------------------------------------------------
/// The unified query API. One request/response pair serves every entry point
/// of the system — PpsmSystem (end-to-end), QueryService (admission +
/// serving), CloudServer and CloudCluster (evaluation) and the CLI.
/// ---------------------------------------------------------------------------

/// Per-request evaluation knobs (the request-scoped complement of the
/// deployment-scoped CloudConfig).
struct QueryOptions {
  /// Sort the final exact matches lexicographically before returning them.
  /// Presentation only — the result set is distinct either way — and off by
  /// default because sorting |R(Q,G)| rows costs real time on high-fanout
  /// queries.
  bool sorted_matches = false;
};

/// One subgraph query as the user poses it: the pattern graph (original
/// labels — anonymization to Qo happens inside the owner), optional
/// request-scoped options, a per-request deadline and a caller tag that is
/// echoed back on the response (workload bookkeeping in batch replays).
struct QueryRequest {
  AttributedGraph pattern;
  QueryOptions options;
  /// Per-request wall-clock budget in milliseconds, measured from admission.
  /// 0 defers to the service-wide CloudConfig::query_deadline_ms.
  uint64_t deadline_ms = 0;
  /// Opaque caller tag, echoed on QueryResponse::tag.
  std::string tag;
};

/// Timing/size breakdown of one query evaluation in the cloud (the columns
/// of the paper's Figs. 18, 19, 22), plus the per-phase observability the
/// flight recorder files (DESIGN.md "Query observability"). Filled on
/// FAILED queries too via QueryContext::stats — a DeadlineExceeded reply
/// still reports the phases that ran and where the clock expired.
struct CloudQueryStats {
  /// Stable id minted at admission (or by the server itself for direct
  /// calls); never 0 on a reply. Joins the reply to span args and the
  /// flight-recorder record.
  uint64_t query_id = 0;
  /// Admission-queue wait, as reported by the QueryService (0 for direct
  /// calls).
  double queue_wait_ms = 0.0;
  double decomposition_ms = 0.0;
  double star_matching_ms = 0.0;
  double join_ms = 0.0;
  double total_ms = 0.0;
  /// Auxiliary-graph build time / footprint for the matching phase
  /// (match/aux_graph.h); 0 when the aux path is disabled.
  double aux_build_ms = 0.0;
  size_t aux_bytes = 0;
  /// Set-intersection kernel dispatch counts (util/intersect.h) from the
  /// matching phase; all 0 when the aux path is disabled.
  uint64_t intersect_scalar = 0;
  uint64_t intersect_galloping = 0;
  uint64_t intersect_simd = 0;
  size_t num_stars = 0;
  /// |RS| = total star matches across the decomposition (paper Fig. 19).
  size_t rs_size = 0;
  /// Rows returned (|Rin| for the optimized path, |R(Qo,Gk)| for BAS).
  size_t result_rows = 0;
  /// Peak intermediate row count across join steps.
  size_t peak_join_rows = 0;
  /// True when the decomposition came out of the plan cache (ILP skipped).
  bool plan_cache_hit = false;
  /// True when the per-phase row cap fired (star matching or a join step);
  /// the query then failed with ResourceExhausted.
  bool overflowed = false;
  /// Phase name at which the deadline fired ("on admission", "after
  /// decomposition", ...); empty when the query did not time out.
  std::string timed_out_phase;
  /// Per-star candidate/row counts with the §5.1 estimates (the cost-model
  /// calibration inputs). Filled once star matching ran.
  std::vector<StarProfile> stars;
  /// Per-join-step estimated-vs-actual trace (JoinDiagnostics::steps).
  std::vector<JoinStepProfile> join_steps;
  /// Per-shard match/exchange accounting when the query ran on a
  /// CloudCluster; empty on the single-server path.
  std::vector<ShardProfile> shards;
};

/// Everything the caller gets back for one QueryRequest: the exact matches
/// R(Q,G), the cloud's per-phase stats, the simulated network/client costs,
/// and the typed status. Failed queries still carry the stats of the phases
/// that ran (`matches` is then empty) — check ok() before using results.
struct QueryResponse {
  Status status;  // Default-constructed = OK.
  MatchSet matches;
  CloudQueryStats cloud;
  double network_ms = 0.0;  // Simulated request + response transfer.
  double client_ms = 0.0;   // Algorithm 3 post-processing, total.
  double client_expand_ms = 0.0;  // Rout expansion share of client_ms.
  double client_filter_ms = 0.0;  // False-positive filter share.
  size_t client_candidates = 0;   // |R(Qo,Gk)| the client examined.
  double total_ms = 0.0;          // cloud + network + client.
  size_t request_bytes = 0;
  size_t response_bytes = 0;
  std::string tag;  // Echo of QueryRequest::tag.

  bool ok() const { return status.ok(); }
};

/// Lifts a reply's stats into the flight-recorder record. Status, byte
/// counts, and the post-cloud times (network/client/total) are the caller's
/// to fill — the cloud cannot know them.
QueryProfile ToQueryProfile(const CloudQueryStats& stats);

/// Inverse of ToQueryProfile: rebuilds the cloud stats block from a profile
/// (the wire decode of a served response — src/net).
CloudQueryStats FromQueryProfile(const QueryProfile& profile);

/// ---------------------------------------------------------------------------
/// Wire codecs for the request/response pair. These are the payloads the
/// socket front end (src/net) frames onto real connections: a QueryRequest
/// travels client -> server as the serialized pattern plus the request
/// knobs, a QueryResponse travels back as the match rows plus the stats
/// block. Deterministic for the deterministic fields: two responses with
/// equal matches/status/tag encode their match payloads byte-identically
/// (timing fields are per-run by nature). LEB128/little-endian through
/// graph/serialize.h BinaryWriter, like every other client <-> cloud codec.
/// ---------------------------------------------------------------------------

std::vector<uint8_t> SerializeQueryRequest(const QueryRequest& request);
/// `schema` is attached to the decoded pattern (the server passes the hosted
/// graph's schema so label/type ids resolve; may be null).
Result<QueryRequest> DeserializeQueryRequest(
    std::span<const uint8_t> bytes, std::shared_ptr<const Schema> schema);

std::vector<uint8_t> SerializeQueryResponse(const QueryResponse& response);
Result<QueryResponse> DeserializeQueryResponse(std::span<const uint8_t> bytes);

/// Size of the canonical encoded reply for a FAILED query (status + the
/// stats of the phases that ran, no matches). This is what error replies
/// cost on the wire, and what QueryService accounts as response_bytes on
/// every non-OK exit path — refusals included — so the flight recorder
/// never under-counts error traffic as 0 bytes.
size_t EncodedErrorResponseBytes(const Status& status,
                                 const CloudQueryStats& stats);

/// Query-scoped context threaded from admission (QueryService) through the
/// handler. Everything is optional: a default-constructed context means
/// "direct call, no admission metadata" — the handler then mints its own
/// query id and the deadline check is disabled.
struct QueryContext {
  /// Id minted at admission; 0 = the handler mints one itself.
  uint64_t query_id = 0;
  /// Time spent in the admission queue, copied into the reply stats.
  double queue_wait_ms = 0.0;
  /// Absolute evaluation deadline; time_point::max() disables the check.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// When non-null, receives the query's CloudQueryStats on EVERY return
  /// path — success and failure alike. Result<WireAnswer> cannot carry
  /// stats on an error, and the failed queries are exactly the ones the
  /// flight recorder must capture with their partial phase accounting.
  CloudQueryStats* stats = nullptr;
};

/// A served reply at the wire level: the serialized match set that would
/// travel back to the client, plus the evaluation stats.
struct WireAnswer {
  std::vector<uint8_t> response_payload;
  CloudQueryStats stats;
};

/// Admission-relevant limits a query handler advertises to the service
/// fronting it (the serving subset of CloudConfig).
struct ServiceLimits {
  size_t max_inflight = 16;
  uint64_t query_deadline_ms = 0;
};

/// Anything that can evaluate a serialized Qo: a single CloudServer or a
/// sharded CloudCluster. QueryService fronts a handler without knowing
/// which, so admission control, deadlines and flight-recorder filing are
/// written once. Implementations must be const-thread-safe: any number of
/// threads may call Serve concurrently.
class QueryHandler {
 public:
  virtual ~QueryHandler() = default;

  /// Evaluates one serialized Qo under the given context. ctx.stats (when
  /// set) is filled on every return path, success and failure alike.
  virtual Result<WireAnswer> Serve(std::span<const uint8_t> qo_bytes,
                                   const QueryContext& ctx) const = 0;

  /// The serving limits the fronting QueryService should enforce.
  virtual ServiceLimits limits() const = 0;
};

}  // namespace ppsm

#endif  // PPSM_QUERY_QUERY_API_H_
