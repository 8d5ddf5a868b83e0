#include "query/query_api.h"

#include <utility>

#include "graph/serialize.h"
#include "obs/query_profile.h"

namespace ppsm {

namespace {

// Version byte of the request/response payload codecs (bumped on any layout
// change; decoders reject versions they do not know — the frames carrying
// these payloads already pin the outer wire version, this guards the inner
// layout independently so a same-frame-version peer with a stale payload
// codec still fails typed instead of mis-decoding).
// Version 2: the request-options byte (a sort flag) is gone.
constexpr uint8_t kRequestCodecVersion = 2;
// Version 2: the profile JSON carries every non-match field of the reply
// (version 1 put eight of them as separate doubles/varints before it).
constexpr uint8_t kResponseCodecVersion = 2;

}  // namespace

std::vector<uint8_t> SerializeQueryRequest(const QueryRequest& request) {
  BinaryWriter writer;
  writer.PutU8(kRequestCodecVersion);
  const std::vector<uint8_t> pattern = SerializeGraph(request.pattern);
  writer.PutVarint(pattern.size());
  writer.PutBytes(pattern);
  writer.PutVarint(request.deadline_ms);
  writer.PutString(request.tag);
  return writer.TakeBytes();
}

Result<QueryRequest> DeserializeQueryRequest(
    std::span<const uint8_t> bytes, std::shared_ptr<const Schema> schema) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint8_t version, reader.GetU8());
  if (version != kRequestCodecVersion) {
    return Status::InvalidArgument("unknown query-request codec version " +
                                   std::to_string(version));
  }
  PPSM_ASSIGN_OR_RETURN(const uint64_t pattern_size, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const std::span<const uint8_t> pattern_bytes,
                        reader.GetBytes(pattern_size));
  QueryRequest request;
  PPSM_ASSIGN_OR_RETURN(request.pattern,
                        DeserializeGraph(pattern_bytes, std::move(schema)));
  PPSM_ASSIGN_OR_RETURN(request.deadline_ms, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(request.tag, reader.GetString());
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after query request");
  }
  return request;
}

std::vector<uint8_t> SerializeQueryResponse(const QueryResponse& response) {
  BinaryWriter writer;
  writer.PutU8(kResponseCodecVersion);
  writer.PutU8(static_cast<uint8_t>(response.status.code()));
  writer.PutString(response.status.message());
  writer.PutString(response.tag);
  const std::vector<uint8_t> matches = response.matches.Serialize();
  writer.PutVarint(matches.size());
  writer.PutBytes(matches);
  // The profile rides as its JSON record — the exact schema the flight
  // recorder files and QueryProfileFromJson round-trips, so the wire format
  // never forks from the observability format.
  writer.PutString(QueryProfileToJson(response.cloud));
  return writer.TakeBytes();
}

Result<QueryResponse> DeserializeQueryResponse(
    std::span<const uint8_t> bytes) {
  BinaryReader reader(bytes);
  PPSM_ASSIGN_OR_RETURN(const uint8_t version, reader.GetU8());
  if (version != kResponseCodecVersion) {
    return Status::InvalidArgument("unknown query-response codec version " +
                                   std::to_string(version));
  }
  PPSM_ASSIGN_OR_RETURN(const uint8_t code, reader.GetU8());
  if (code > static_cast<uint8_t>(StatusCode::kDeadlineExceeded)) {
    return Status::InvalidArgument("unknown status code on wire: " +
                                   std::to_string(code));
  }
  PPSM_ASSIGN_OR_RETURN(const std::string message, reader.GetString());
  QueryResponse response;
  if (static_cast<StatusCode>(code) != StatusCode::kOk) {
    response.status = Status(static_cast<StatusCode>(code), message);
  }
  PPSM_ASSIGN_OR_RETURN(response.tag, reader.GetString());
  PPSM_ASSIGN_OR_RETURN(const uint64_t matches_size, reader.GetVarint());
  PPSM_ASSIGN_OR_RETURN(const std::span<const uint8_t> matches_bytes,
                        reader.GetBytes(matches_size));
  PPSM_ASSIGN_OR_RETURN(response.matches,
                        MatchSet::Deserialize(matches_bytes));
  PPSM_ASSIGN_OR_RETURN(const std::string profile_json, reader.GetString());
  PPSM_ASSIGN_OR_RETURN(response.cloud, QueryProfileFromJson(profile_json));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after query response");
  }
  return response;
}

size_t EncodedErrorResponseBytes(const Status& status,
                                 const QueryProfile& profile) {
  QueryResponse reply;
  reply.status = status;
  reply.cloud = profile;
  return SerializeQueryResponse(reply).size();
}

}  // namespace ppsm
