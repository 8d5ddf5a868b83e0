#include "match/match_set.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "graph/serialize.h"
#include "util/random.h"

namespace ppsm {
namespace {

/// The match-set encoding written through BinaryWriter, id by id: the
/// format's reference encoder.
std::vector<uint8_t> WriterEncoding(const MatchSet& set) {
  BinaryWriter writer;
  writer.PutU32(0x3153544d);  // "MTS1"
  writer.PutVarint(set.arity());
  writer.PutVarint(set.NumMatches());
  for (size_t r = 0; r < set.NumMatches(); ++r) {
    for (const VertexId v : set.Get(r)) writer.PutVarint(v);
  }
  return writer.TakeBytes();
}

/// The body of the format's reference decoder: `count` ids read through
/// BinaryReader::GetVarint. Returns the ids or the first error's code.
std::optional<StatusCode> ReaderBodyError(std::span<const uint8_t> body,
                                          size_t count) {
  BinaryReader reader(body);
  for (size_t i = 0; i < count; ++i) {
    auto v = reader.GetVarint();
    if (!v.ok()) return v.status().code();
    if (*v > UINT32_MAX) return StatusCode::kInvalidArgument;
  }
  return std::nullopt;
}

/// Header of `arity` x `rows` followed by `body`.
std::vector<uint8_t> WithHeader(uint64_t arity, uint64_t rows,
                                std::span<const uint8_t> body) {
  BinaryWriter writer;
  writer.PutU32(0x3153544d);
  writer.PutVarint(arity);
  writer.PutVarint(rows);
  writer.PutBytes(body);
  return writer.TakeBytes();
}

TEST(MatchSet, AppendAndGet) {
  MatchSet set(3);
  set.Append(std::vector<VertexId>{1, 2, 3});
  set.Append(std::vector<VertexId>{4, 5, 6});
  EXPECT_EQ(set.arity(), 3u);
  EXPECT_EQ(set.NumMatches(), 2u);
  const auto row = set.Get(1);
  EXPECT_EQ(std::vector<VertexId>(row.begin(), row.end()),
            (std::vector<VertexId>{4, 5, 6}));
}

TEST(MatchSet, EmptyBehaviour) {
  MatchSet set(4);
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.NumMatches(), 0u);
  set.SortDedup();  // No-op on empty.
  EXPECT_TRUE(set.empty());
  MatchSet zero;
  EXPECT_EQ(zero.NumMatches(), 0u);
}

TEST(MatchSet, SortDedupOrdersAndRemovesDuplicates) {
  MatchSet set(2);
  set.Append(std::vector<VertexId>{5, 1});
  set.Append(std::vector<VertexId>{1, 9});
  set.Append(std::vector<VertexId>{5, 1});
  set.Append(std::vector<VertexId>{1, 2});
  set.SortDedup();
  ASSERT_EQ(set.NumMatches(), 3u);
  EXPECT_EQ(set.Get(0)[0], 1u);
  EXPECT_EQ(set.Get(0)[1], 2u);
  EXPECT_EQ(set.Get(1)[1], 9u);
  EXPECT_EQ(set.Get(2)[0], 5u);
}

TEST(MatchSet, HasDuplicateVertices) {
  EXPECT_TRUE(
      MatchSet::HasDuplicateVertices(std::vector<VertexId>{1, 2, 1}));
  EXPECT_FALSE(
      MatchSet::HasDuplicateVertices(std::vector<VertexId>{1, 2, 3}));
  EXPECT_FALSE(MatchSet::HasDuplicateVertices(std::vector<VertexId>{}));
  EXPECT_FALSE(MatchSet::HasDuplicateVertices(std::vector<VertexId>{7}));
}

TEST(MatchSet, SerializeRoundTrip) {
  MatchSet set(3);
  set.Append(std::vector<VertexId>{10, 0, 99999});
  set.Append(std::vector<VertexId>{7, 7, 7});
  const auto bytes = set.Serialize();
  auto restored = MatchSet::Deserialize(bytes);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_TRUE(set == *restored);
}

TEST(MatchSet, SerializeEmpty) {
  MatchSet set(5);
  auto restored = MatchSet::Deserialize(set.Serialize());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->arity(), 5u);
  EXPECT_EQ(restored->NumMatches(), 0u);
}

TEST(MatchSet, DeserializeRejectsGarbage) {
  EXPECT_FALSE(MatchSet::Deserialize(std::vector<uint8_t>{1, 2, 3}).ok());
  MatchSet set(2);
  set.Append(std::vector<VertexId>{1, 2});
  auto bytes = set.Serialize();
  bytes.pop_back();
  EXPECT_FALSE(MatchSet::Deserialize(bytes).ok());
}

TEST(MatchSet, DeserializeRejectsAbsurdCounts) {
  // Header claims 2^40 rows with a 3-byte payload.
  MatchSet set(1);
  auto bytes = set.Serialize();
  // Rebuild header by serializing a set then tampering the row count is
  // format-dependent; instead construct a tiny valid prefix and check the
  // guard via an honest oversized header: arity=1, rows=huge.
  std::vector<uint8_t> crafted(bytes.begin(), bytes.begin() + 5);  // Magic+arity.
  // Varint for a huge row count.
  for (int i = 0; i < 5; ++i) crafted.push_back(0xff);
  crafted.push_back(0x0f);
  EXPECT_FALSE(MatchSet::Deserialize(crafted).ok());
}

TEST(MatchSet, SerializeMatchesWriterEncodingByteForByte) {
  // Ids drawn so every varint width (1 to 5 bytes) appears, including ids
  // at and past 2^28, over arities 1..5, plus empty sets.
  Rng rng(58);
  const auto draw = [&]() -> VertexId {
    switch (rng.Below(5)) {
      case 0:
        return static_cast<VertexId>(rng.Below(128));
      case 1:
        return static_cast<VertexId>(rng.Below(1u << 21));
      case 2:
        return (1u << 28) - 2 + static_cast<VertexId>(rng.Below(4));
      case 3:
        return UINT32_MAX - static_cast<VertexId>(rng.Below(4));
      default:
        return static_cast<VertexId>(rng.Below(UINT32_MAX));
    }
  };
  for (size_t arity = 1; arity <= 5; ++arity) {
    for (const size_t rows : {0u, 1u, 7u, 300u}) {
      MatchSet set(arity);
      std::vector<VertexId> row(arity);
      for (size_t r = 0; r < rows; ++r) {
        for (VertexId& v : row) v = draw();
        set.Append(row);
      }
      const std::vector<uint8_t> bytes = set.Serialize();
      EXPECT_EQ(bytes, WriterEncoding(set))
          << "arity " << arity << " rows " << rows;
      auto restored = MatchSet::Deserialize(bytes);
      ASSERT_TRUE(restored.ok()) << restored.status();
      EXPECT_TRUE(*restored == set);
    }
  }
  EXPECT_EQ(MatchSet().Serialize(), WriterEncoding(MatchSet()));
}

TEST(MatchSet, DeserializeErrorsMatchTheReaderRules) {
  const std::vector<std::pair<std::string, std::vector<uint8_t>>> bodies = {
      // Two ids, the second truncated mid-varint.
      {"truncated final varint", {0x05, 0x81}},
      // 2^32 fits a varint but not a vertex id.
      {"id past 32 bits", {0x05, 0x80, 0x80, 0x80, 0x80, 0x10}},
      // Eleven bytes: continuation past bit 63.
      {"overlong varint",
       {0x05, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
        0x01}},
      // Ten bytes encoding 1 with zero padding: the reader accepts it.
      {"padded varint",
       {0x05, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}},
  };
  const std::vector<std::optional<StatusCode>> want = {
      StatusCode::kOutOfRange, StatusCode::kInvalidArgument,
      StatusCode::kOutOfRange, std::nullopt};
  for (size_t i = 0; i < bodies.size(); ++i) {
    const auto& [name, body] = bodies[i];
    ASSERT_EQ(ReaderBodyError(body, 2), want[i]) << name;
    auto decoded = MatchSet::Deserialize(WithHeader(2, 1, body));
    if (want[i]) {
      ASSERT_FALSE(decoded.ok()) << name;
      EXPECT_EQ(decoded.status().code(), *want[i]) << name;
    } else {
      ASSERT_TRUE(decoded.ok()) << name << ": " << decoded.status();
      EXPECT_EQ(decoded->Get(0)[1], 1u) << name;
    }
  }

  // Mutated bodies under an honest header: the decoder fails exactly when
  // and how the reader does.
  Rng rng(59);
  MatchSet set(3);
  for (VertexId i = 0; i < 40; ++i) {
    set.Append(std::vector<VertexId>{i, i << 14, UINT32_MAX - i});
  }
  const std::vector<uint8_t> valid = set.Serialize();
  const std::vector<uint8_t> header = WithHeader(3, 40, {});
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> body(valid.begin() + header.size(), valid.end());
    for (int j = 0; j < 3; ++j) {
      body[rng.Below(body.size())] = static_cast<uint8_t>(rng.Below(256));
    }
    body.resize(body.size() - rng.Below(4));
    const auto reader_error = ReaderBodyError(body, 120);
    auto decoded = MatchSet::Deserialize(WithHeader(3, 40, body));
    if (reader_error) {
      ASSERT_FALSE(decoded.ok()) << "trial " << trial;
      EXPECT_EQ(decoded.status().code(), *reader_error) << "trial " << trial;
    } else {
      EXPECT_TRUE(decoded.ok()) << "trial " << trial << ": "
                                << decoded.status();
    }
  }
}

TEST(MatchSet, DeserializeRejectsContradictoryHeaders) {
  // arity * rows wraps to 0 at 2^32 x 2^32: no body must not decode as a
  // set of arity 2^32.
  auto wrapped = MatchSet::Deserialize(WithHeader(1ULL << 32, 1ULL << 32, {}));
  ASSERT_FALSE(wrapped.ok());
  EXPECT_EQ(wrapped.status().code(), StatusCode::kOutOfRange);
  // Rows without columns.
  auto columnless = MatchSet::Deserialize(WithHeader(0, 1ULL << 40, {}));
  ASSERT_FALSE(columnless.ok());
  EXPECT_EQ(columnless.status().code(), StatusCode::kInvalidArgument);
  // The empty set of no columns is still fine.
  auto empty = MatchSet::Deserialize(WithHeader(0, 0, {}));
  ASSERT_TRUE(empty.ok()) << empty.status();
  EXPECT_EQ(empty->NumMatches(), 0u);
}

TEST(MatchSet, EquivalentUnorderedIgnoresRowOrder) {
  MatchSet a(2), b(2);
  a.Append(std::vector<VertexId>{1, 2});
  a.Append(std::vector<VertexId>{3, 4});
  b.Append(std::vector<VertexId>{3, 4});
  b.Append(std::vector<VertexId>{1, 2});
  EXPECT_TRUE(MatchSet::EquivalentUnordered(a, b));
  b.Append(std::vector<VertexId>{9, 9});
  EXPECT_FALSE(MatchSet::EquivalentUnordered(a, b));
  MatchSet c(3);
  EXPECT_FALSE(MatchSet::EquivalentUnordered(a, c));  // Arity mismatch.
}

}  // namespace
}  // namespace ppsm
