// Wire-protocol robustness: the frame codec must round-trip cleanly, the
// incremental parser must tolerate arbitrary byte fragmentation, and every
// malformed input class (truncation, bit flips, hostile length prefixes,
// foreign magic, stale versions, unknown types) must surface as a typed,
// sticky error — never a crash, never an allocation driven by a corrupt
// length.

#include "net/wire.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "graph/example_graphs.h"
#include "query/query_api.h"

namespace ppsm {
namespace {

std::vector<uint8_t> Payload(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

Frame MustNext(FrameParser& parser) {
  auto frame = parser.Next();
  EXPECT_TRUE(frame.ok()) << frame.status();
  EXPECT_TRUE(frame->has_value()) << "expected a complete frame";
  return std::move(**frame);
}

TEST(Wire, FrameRoundTrip) {
  const std::vector<uint8_t> payload = Payload("hello subgraphs");
  const std::vector<uint8_t> bytes = EncodeFrame(FrameType::kQuery, payload);
  EXPECT_EQ(bytes.size(), kFrameHeaderBytes + payload.size());

  FrameParser parser;
  parser.Feed(bytes);
  const Frame frame = MustNext(parser);
  EXPECT_EQ(frame.type, FrameType::kQuery);
  EXPECT_EQ(frame.payload, payload);
  auto next = parser.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next->has_value());
  EXPECT_FALSE(parser.HasPartialFrame());
}

TEST(Wire, ByteAtATimeFeedingReassembles) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kResponse, Payload("fragmented"));
  FrameParser parser;
  for (size_t i = 0; i < bytes.size(); ++i) {
    // Before the last byte arrives the parser reports an incomplete frame,
    // not an error — mid-frame state is a socket-layer concern.
    auto frame = parser.Next();
    ASSERT_TRUE(frame.ok()) << "byte " << i << ": " << frame.status();
    EXPECT_FALSE(frame->has_value()) << "frame completed early at " << i;
    parser.Feed(std::span<const uint8_t>(&bytes[i], 1));
  }
  const Frame frame = MustNext(parser);
  EXPECT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.payload, Payload("fragmented"));
}

TEST(Wire, TwoFramesInOneFeedBothPop) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  const std::vector<uint8_t> second =
      EncodeFrame(FrameType::kQuery, Payload("q"));
  bytes.insert(bytes.end(), second.begin(), second.end());
  FrameParser parser;
  parser.Feed(bytes);
  EXPECT_EQ(MustNext(parser).type, FrameType::kPing);
  EXPECT_EQ(MustNext(parser).type, FrameType::kQuery);
}

TEST(Wire, TruncatedFrameIsIncompleteNotAnError) {
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kQuery, Payload("truncate me"));
  FrameParser parser;
  parser.Feed(std::span<const uint8_t>(bytes.data(), bytes.size() - 3));
  auto frame = parser.Next();
  ASSERT_TRUE(frame.ok()) << frame.status();
  EXPECT_FALSE(frame->has_value());
  // An EOF here is the mid-frame disconnect signal.
  EXPECT_TRUE(parser.HasPartialFrame());
}

TEST(Wire, BitFlippedPayloadFailsChecksumAndPoisonsStream) {
  std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kQuery, Payload("checksummed payload"));
  bytes[kFrameHeaderBytes + 4] ^= 0x10;  // One bit, mid-payload.
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("checksum"), std::string::npos)
      << frame.status();
  // Sticky: feeding a perfectly good frame afterwards cannot resurrect the
  // stream (resync after corruption is not reliable).
  parser.Feed(EncodeFrame(FrameType::kPing, {}));
  auto again = parser.Next();
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, OversizedLengthPrefixRefusedBeforeAllocation) {
  // Header claiming a payload far beyond the parser cap; only the header
  // is ever sent. The parser must refuse from the prefix alone.
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kQuery, Payload("x"));
  const uint64_t huge = 1ull << 62;
  std::memcpy(bytes.data() + 9, &huge, sizeof(huge));
  FrameParser parser(/*max_payload=*/1 << 20);
  parser.Feed(std::span<const uint8_t>(bytes.data(), kFrameHeaderBytes));
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kResourceExhausted)
      << frame.status();
}

TEST(Wire, VersionMismatchIsTypedFailedPrecondition) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  const uint32_t future_version = kWireVersion + 7;
  std::memcpy(bytes.data() + 4, &future_version, sizeof(future_version));
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kFailedPrecondition)
      << frame.status();
}

TEST(Wire, ForeignMagicRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  bytes[0] = 'H';  // An HTTP client knocking on the wrong port.
  bytes[1] = 'T';
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(frame.status().message().find("magic"), std::string::npos);
}

TEST(Wire, UnknownFrameTypeRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, {});
  bytes[8] = 0xEE;
  FrameParser parser;
  parser.Feed(bytes);
  auto frame = parser.Next();
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

TEST(Wire, ErrorPayloadCarriesStatusVerbatim) {
  const Status original =
      Status::ResourceExhausted("admission queue full (6 waiting)");
  const Status decoded = DecodeErrorPayload(EncodeErrorPayload(original));
  EXPECT_EQ(decoded.code(), original.code());
  EXPECT_EQ(decoded.message(), original.message());

  // A mangled error payload collapses into a typed Internal, not a crash.
  EXPECT_EQ(DecodeErrorPayload({}).code(), StatusCode::kInternal);
  const std::vector<uint8_t> junk = {0x00};  // kOk is not a legal error.
  EXPECT_EQ(DecodeErrorPayload(junk).code(), StatusCode::kInternal);
}

TEST(Wire, VersionPayloadRoundTripAndTrailingBytesRejected) {
  auto version = DecodeVersionPayload(EncodeVersionPayload(42));
  ASSERT_TRUE(version.ok());
  EXPECT_EQ(*version, 42u);

  std::vector<uint8_t> padded = EncodeVersionPayload(42);
  padded.push_back(0x01);
  EXPECT_FALSE(DecodeVersionPayload(padded).ok());
}

// The inner payload codec (query/query_api.h) guards its own layout: an
// error QueryResponse round-trips with status and stats intact, which is
// what EncodedErrorResponseBytes sizes on every service error path.
TEST(Wire, ErrorQueryResponseRoundTripsAndSizesConsistently) {
  QueryResponse reply;
  reply.status = Status::DeadlineExceeded("query expired in the admission queue");
  reply.cloud.query_id = 77;
  reply.cloud.timed_out_phase = "queue";
  reply.cloud.queue_wait_ms = 3.5;
  reply.cloud.total_ms = 3.5;

  const std::vector<uint8_t> bytes = SerializeQueryResponse(reply);
  EXPECT_EQ(bytes.size(),
            EncodedErrorResponseBytes(reply.status, reply.cloud));

  auto decoded = DeserializeQueryResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(decoded->status.message(), reply.status.message());
  EXPECT_EQ(decoded->cloud.query_id, 77u);
  EXPECT_EQ(decoded->cloud.timed_out_phase, "queue");
  EXPECT_TRUE(decoded->matches.empty());
}

// A served reply carries the query's whole profile — cloud phases, the
// simulated network and client split, byte counts — as one JSON record
// next to the match rows; a payload from the older layout is refused.
TEST(Wire, QueryResponseCarriesTheWholeProfile) {
  QueryResponse reply;
  reply.tag = "q7";
  reply.matches = MatchSet(2);
  reply.matches.Append(std::vector<VertexId>{3, 5});
  reply.cloud.query_id = 12;
  reply.cloud.cloud_ms = 1.25;
  reply.cloud.network_ms = 0.5;
  reply.cloud.client_ms = 0.75;
  reply.cloud.client_expand_ms = 0.5;
  reply.cloud.client_filter_ms = 0.125;
  reply.cloud.client_candidates = 40;
  reply.cloud.total_ms = 2.5;
  reply.cloud.request_bytes = 88;
  reply.cloud.response_bytes = 164;

  std::vector<uint8_t> bytes = SerializeQueryResponse(reply);
  auto decoded = DeserializeQueryResponse(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_TRUE(decoded->ok());
  EXPECT_EQ(decoded->tag, "q7");
  EXPECT_EQ(decoded->matches.Serialize(), reply.matches.Serialize());
  EXPECT_EQ(decoded->cloud.query_id, 12u);
  EXPECT_EQ(decoded->cloud.cloud_ms, 1.25);
  EXPECT_EQ(decoded->cloud.network_ms, 0.5);
  EXPECT_EQ(decoded->cloud.client_ms, 0.75);
  EXPECT_EQ(decoded->cloud.client_expand_ms, 0.5);
  EXPECT_EQ(decoded->cloud.client_filter_ms, 0.125);
  EXPECT_EQ(decoded->cloud.client_candidates, 40u);
  EXPECT_EQ(decoded->cloud.total_ms, 2.5);
  EXPECT_EQ(decoded->cloud.request_bytes, 88u);
  EXPECT_EQ(decoded->cloud.response_bytes, 164u);
  EXPECT_EQ(decoded->cloud, reply.cloud);

  bytes[0] = 1;  // The codec version byte of the per-field layout.
  EXPECT_EQ(DeserializeQueryResponse(bytes).status().code(),
            StatusCode::kInvalidArgument);
}

// A request is the pattern, the deadline and the tag; a payload from the
// version-1 layout (which carried a sort flag) is refused.
TEST(Wire, QueryRequestRoundTripsAndRefusesTheOldLayout) {
  const RunningExample ex = MakeRunningExample();
  QueryRequest request;
  request.pattern = ex.query;
  request.deadline_ms = 250;
  request.tag = "q9";

  std::vector<uint8_t> bytes = SerializeQueryRequest(request);
  auto decoded = DeserializeQueryRequest(bytes, ex.schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->deadline_ms, 250u);
  EXPECT_EQ(decoded->tag, "q9");
  EXPECT_EQ(decoded->pattern.NumVertices(), ex.query.NumVertices());
  EXPECT_EQ(decoded->pattern.NumEdges(), ex.query.NumEdges());

  bytes[0] = 1;
  EXPECT_EQ(DeserializeQueryRequest(bytes, ex.schema).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace ppsm
