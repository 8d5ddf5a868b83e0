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
/// serving), CloudServer and CloudCluster (evaluation) and the CLI — and
/// one record, QueryProfile, describes what a query did on all of them.
/// ---------------------------------------------------------------------------

/// One subgraph query as the user poses it: the pattern graph (original
/// labels — anonymization to Qo happens inside the owner), a per-request
/// deadline and a caller tag that is echoed back on the response (workload
/// bookkeeping in batch replays).
struct QueryRequest {
  AttributedGraph pattern;
  /// Per-request wall-clock budget in milliseconds, measured from admission.
  /// 0 defers to the service-wide CloudConfig::query_deadline_ms.
  uint64_t deadline_ms = 0;
  /// Opaque caller tag, echoed on QueryResponse::tag.
  std::string tag;
};

/// Everything the caller gets back for one QueryRequest: the typed status,
/// the exact matches R(Q,G), the query's profile and the caller's tag.
/// Failed queries still carry the profile of the phases that ran (`matches`
/// is then empty) — check ok() before using results.
struct QueryResponse {
  Status status;  // Default-constructed = OK.
  /// R(Q,G): lexicographically sorted, distinct rows (the client's filter
  /// ends with SortDedup), so equal answers compare equal.
  MatchSet matches;
  /// The query's one end-to-end record: cloud phases, admission, simulated
  /// network, client post-processing, byte counts and the end-to-end
  /// total_ms (cloud_ms is the cloud's share). Named `cloud` for the
  /// callers that predate the merge (perfbench/open_loop.cc reads
  /// `cloud.overflowed` and `cloud.queue_wait_ms`).
  QueryProfile cloud;
  std::string tag;  // Echo of QueryRequest::tag.

  bool ok() const { return status.ok(); }
};

/// ---------------------------------------------------------------------------
/// Wire codecs for the request/response pair. These are the payloads the
/// socket front end (src/net) frames onto real connections: a QueryRequest
/// travels client -> server as the serialized pattern plus the request
/// knobs, a QueryResponse travels back as the status, tag, match rows and
/// the profile's JSON record (obs/query_profile.h QueryProfileToJson, the
/// flight recorder's format). Deterministic for the deterministic fields:
/// two responses with equal matches/status/tag encode their match payloads
/// byte-identically (timing fields are per-run by nature). LEB128 /
/// little-endian through graph/serialize.h BinaryWriter, like every other
/// client <-> cloud codec.
/// ---------------------------------------------------------------------------

std::vector<uint8_t> SerializeQueryRequest(const QueryRequest& request);
/// `schema` is attached to the decoded pattern (the server passes the hosted
/// graph's schema so label/type ids resolve; may be null).
Result<QueryRequest> DeserializeQueryRequest(
    std::span<const uint8_t> bytes, std::shared_ptr<const Schema> schema);

std::vector<uint8_t> SerializeQueryResponse(const QueryResponse& response);
Result<QueryResponse> DeserializeQueryResponse(std::span<const uint8_t> bytes);

/// Size of the canonical encoded reply for a FAILED query (status + the
/// profile of the phases that ran, no matches). This is what error replies
/// cost on the wire, and what QueryService accounts as response_bytes on
/// every non-OK exit path — refusals included — so the flight recorder
/// never under-counts error traffic as 0 bytes.
size_t EncodedErrorResponseBytes(const Status& status,
                                 const QueryProfile& profile);

/// Query-scoped context threaded from admission (QueryService) through the
/// cloud. Everything is optional: a default-constructed context means
/// "direct call, no admission metadata" — the cloud then mints its own
/// query id and the deadline check is disabled.
struct QueryContext {
  /// Id minted at admission; 0 = the cloud mints one itself.
  uint64_t query_id = 0;
  /// Time spent in the admission queue, copied into the profile.
  double queue_wait_ms = 0.0;
  /// Absolute evaluation deadline; time_point::max() disables the check.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// When non-null, receives the query's cloud profile on EVERY return
  /// path — success and failure alike. Result<WireAnswer> cannot carry a
  /// profile on an error, and the failed queries are exactly the ones the
  /// flight recorder must capture with their partial phase accounting.
  QueryProfile* profile = nullptr;
};

/// A served reply at the wire level: the serialized match set Rin that
/// travels back to the client. Its profile reaches callers only through
/// QueryContext::profile or QueryService::Execute's `profile` out-param.
struct WireAnswer {
  std::vector<uint8_t> response_payload;
};

}  // namespace ppsm

#endif  // PPSM_QUERY_QUERY_API_H_
