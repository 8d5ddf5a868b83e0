// Robustness fuzzing (deterministic): every wire-format deserializer must
// survive arbitrary mutations of valid payloads — truncation, byte flips,
// random garbage — by returning an error, never by crashing or hanging.
// The cloud parses untrusted client bytes and the client parses cloud
// bytes, so this is a hard requirement.

#include <gtest/gtest.h>

#include "cloud/cloud_server.h"
#include "cloud/data_owner.h"
#include "cloud/messages.h"
#include "graph/example_graphs.h"
#include "graph/serialize.h"
#include "kauto/avt.h"
#include "match/match_set.h"
#include "match/subgraph_matcher.h"
#include "query/query_api.h"
#include "util/random.h"

namespace ppsm {
namespace {

using Decoder = std::function<bool(std::span<const uint8_t>)>;

/// Applies a battery of mutations to `payload`, feeding each mutant to
/// `decode` (which returns whether decoding claimed success). The decoder
/// must never crash; success on a mutant is fine (some mutations are
/// semantically harmless).
void FuzzDecoder(const std::vector<uint8_t>& payload, const Decoder& decode,
                 uint64_t seed) {
  Rng rng(seed);
  // Truncations at every prefix length (capped for big payloads).
  const size_t step = std::max<size_t>(1, payload.size() / 128);
  for (size_t len = 0; len < payload.size(); len += step) {
    std::vector<uint8_t> mutant(payload.begin(), payload.begin() + len);
    decode(mutant);
  }
  // Single-byte flips.
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> mutant = payload;
    if (mutant.empty()) break;
    const size_t at = rng.Below(mutant.size());
    mutant[at] ^= static_cast<uint8_t>(1 + rng.Below(255));
    decode(mutant);
  }
  // Multi-byte scrambles.
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> mutant = payload;
    for (int i = 0; i < 8 && !mutant.empty(); ++i) {
      mutant[rng.Below(mutant.size())] =
          static_cast<uint8_t>(rng.Below(256));
    }
    decode(mutant);
  }
  // Pure garbage of assorted sizes.
  for (const size_t size : {1u, 7u, 64u, 1024u}) {
    std::vector<uint8_t> garbage(size);
    for (auto& b : garbage) b = static_cast<uint8_t>(rng.Below(256));
    decode(garbage);
  }
  // Unmutated payload must still decode.
  EXPECT_TRUE(decode(payload));
}

TEST(FuzzRobustness, GraphDeserializer) {
  const RunningExample ex = MakeRunningExample();
  FuzzDecoder(SerializeGraph(ex.graph),
              [](std::span<const uint8_t> bytes) {
                return DeserializeGraph(bytes, nullptr).ok();
              },
              1001);
}

TEST(FuzzRobustness, SchemaDeserializer) {
  const RunningExample ex = MakeRunningExample();
  FuzzDecoder(SerializeSchema(*ex.schema),
              [](std::span<const uint8_t> bytes) {
                return DeserializeSchema(bytes).ok();
              },
              1002);
}

TEST(FuzzRobustness, AvtDeserializer) {
  Avt avt(3, 4);
  uint32_t v = 0;
  for (uint32_t b = 0; b < 3; ++b) {
    for (uint32_t r = 0; r < 4; ++r) avt.Place(r, b, v++);
  }
  FuzzDecoder(avt.Serialize(),
              [](std::span<const uint8_t> bytes) {
                return Avt::Deserialize(bytes).ok();
              },
              1003);
}

TEST(FuzzRobustness, MatchSetDeserializer) {
  MatchSet set(3);
  for (VertexId i = 0; i < 20; ++i) {
    set.Append(std::vector<VertexId>{i, i + 100, i + 10000});
  }
  FuzzDecoder(set.Serialize(),
              [](std::span<const uint8_t> bytes) {
                return MatchSet::Deserialize(bytes).ok();
              },
              1004);
  // Headers that contradict themselves, with no body: 2^32 x 2^32 ids
  // (the product wraps to 0) and 2^40 rows of no columns.
  for (const auto& [arity, rows] :
       {std::pair<uint64_t, uint64_t>{1ULL << 32, 1ULL << 32},
        std::pair<uint64_t, uint64_t>{0, 1ULL << 40}}) {
    BinaryWriter header;
    header.PutU32(0x3153544d);  // "MTS1"
    header.PutVarint(arity);
    header.PutVarint(rows);
    const Result<MatchSet> decoded = MatchSet::Deserialize(header.bytes());
    ASSERT_FALSE(decoded.ok()) << arity << " x " << rows;
    EXPECT_TRUE(decoded.status().code() == StatusCode::kInvalidArgument ||
                decoded.status().code() == StatusCode::kOutOfRange)
        << decoded.status();
  }
}

TEST(FuzzRobustness, UploadPackageDeserializer) {
  const RunningExample ex = MakeRunningExample();
  for (const bool baseline : {false, true}) {
    DataOwnerOptions options;
    options.k = 2;
    options.baseline_upload = baseline;
    auto owner = DataOwner::Create(ex.graph, ex.schema, options);
    ASSERT_TRUE(owner.ok());
    FuzzDecoder(owner->upload_bytes(),
                [](std::span<const uint8_t> bytes) {
                  return UploadPackage::Deserialize(bytes).ok();
                },
                baseline ? 1006 : 1005);
  }
}

TEST(FuzzRobustness, LctDeserializer) {
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  const Schema& schema = *ex.schema;
  FuzzDecoder(owner->lct().Serialize(),
              [&schema](std::span<const uint8_t> bytes) {
                return Lct::Deserialize(bytes, schema).ok();
              },
              1007);
}

TEST(FuzzRobustness, QueryResponseDeserializer) {
  // The client decodes these bytes straight off a server socket, profile
  // JSON included, so every nested record kind is in the payload.
  QueryResponse reply;
  reply.tag = "fuzz";
  reply.matches = MatchSet(2);
  for (VertexId i = 0; i < 8; ++i) {
    reply.matches.Append(std::vector<VertexId>{i, i + 50});
  }
  reply.cloud.query_id = 9007199254740993ull;
  reply.cloud.cloud_ms = 1.25;
  reply.cloud.aux_bytes = 4096;
  reply.cloud.stars = {{.center = 3, .candidates = 9, .rows = 8,
                        .estimated_rows = 7.5, .kind = "path"}};
  reply.cloud.join_steps = {{.step = 0, .output_rows = 8,
                             .estimated_rows = 6.25}};
  reply.cloud.shards = {{.shard = 1, .rows = 8, .match_ms = 0.5,
                         .exchanged_bytes = 128}};
  FuzzDecoder(SerializeQueryResponse(reply),
              [](std::span<const uint8_t> bytes) {
                const Result<QueryResponse> decoded =
                    DeserializeQueryResponse(bytes);
                if (!decoded.ok()) {
                  const StatusCode code = decoded.status().code();
                  EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                              code == StatusCode::kOutOfRange)
                      << decoded.status();
                }
                return decoded.ok();
              },
              1009);
}

TEST(FuzzRobustness, ProcessResponse) {
  // The client shifts every cell of a response through the AVT, so a cloud
  // that names ids outside Gk must get a typed error, not an out-of-bounds
  // read. Random arities and ids from the interesting ranges: original,
  // noise, just past Gk and near the top of the id space.
  const RunningExample ex = MakeRunningExample();
  for (const bool baseline : {false, true}) {
    for (const uint32_t k : {2u, 3u}) {
      DataOwnerOptions options;
      options.k = k;
      options.baseline_upload = baseline;
      auto owner = DataOwner::Create(ex.graph, ex.schema, options);
      ASSERT_TRUE(owner.ok());
      const auto original = static_cast<VertexId>(ex.graph.NumVertices());
      const auto gk = static_cast<VertexId>(owner->kag().gk.NumVertices());
      Rng rng(1010 + k + (baseline ? 100 : 0));
      const auto draw = [&]() -> VertexId {
        switch (rng.Below(6)) {
          case 0:
            return static_cast<VertexId>(rng.Below(original));
          case 1:
            return static_cast<VertexId>(rng.Below(gk));
          case 2:
            return gk + static_cast<VertexId>(rng.Below(3));
          case 3:
            return 0x7fffff00u + static_cast<VertexId>(rng.Below(256));
          case 4:
            return UINT32_MAX - static_cast<VertexId>(rng.Below(3));
          default:
            return original - 1 + static_cast<VertexId>(rng.Below(3));
        }
      };
      const auto decode = [&](std::span<const uint8_t> bytes) {
        const Result<MatchSet> results =
            owner->ProcessResponse(ex.query, bytes);
        if (!results.ok()) {
          const StatusCode code = results.status().code();
          EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                      code == StatusCode::kOutOfRange)
              << results.status();
        }
        return results.ok();
      };
      for (int trial = 0; trial < 300; ++trial) {
        // Mostly the query's arity, so the cells reach the shift loop.
        const size_t arity = rng.Below(4) == 0
                                 ? rng.Below(8)
                                 : ex.query.NumVertices();
        MatchSet response(arity);
        const size_t rows = rng.Below(6);
        std::vector<VertexId> row(arity);
        for (size_t r = 0; r < rows; ++r) {
          for (VertexId& v : row) v = draw();
          response.Append(row);
        }
        decode(response.Serialize());
      }
      // Byte-level mutations of a genuine response.
      MatchSet genuine = FindSubgraphMatches(ex.query, ex.graph);
      FuzzDecoder(genuine.Serialize(), decode, 1011 + k);
    }
  }
}

TEST(FuzzRobustness, CloudSurvivesMalformedQueries) {
  // End-to-end: a hosted cloud server fed mutated query requests must
  // return errors, never crash.
  const RunningExample ex = MakeRunningExample();
  DataOwnerOptions options;
  options.k = 2;
  auto owner = DataOwner::Create(ex.graph, ex.schema, options);
  ASSERT_TRUE(owner.ok());
  auto server = CloudServer::Host(owner->upload_bytes());
  ASSERT_TRUE(server.ok());
  auto request = owner->AnonymizeQueryToRequest(ex.query);
  ASSERT_TRUE(request.ok());
  FuzzDecoder(*request,
              [&server](std::span<const uint8_t> bytes) {
                return server->Serve(bytes).ok();
              },
              1008);
}

}  // namespace
}  // namespace ppsm
