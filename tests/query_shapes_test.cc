#include "graph/query_shapes.h"

#include <cstddef>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/ppsm_system.h"
#include "graph/generators.h"
#include "graph/graph_algos.h"
#include "match/subgraph_matcher.h"

namespace ppsm {
namespace {

// gtest names each case after the raw bytes of its parameter, so the
// padding between `shape` and `num_edges` is an explicit zeroed field:
// left uninitialised it made the test names differ from build to build.
struct ShapeCase {
  ShapeCase(QueryShape s, size_t n) : shape(s), num_edges(n) {}
  QueryShape shape;
  uint32_t padding = 0;
  size_t num_edges;
};
static_assert(sizeof(ShapeCase) ==
                  sizeof(QueryShape) + sizeof(uint32_t) + sizeof(size_t),
              "ShapeCase must have no uninitialised padding");

class ShapedQueries : public ::testing::TestWithParam<ShapeCase> {};

TEST_P(ShapedQueries, ExtractsAndMatches) {
  const QueryShape shape = GetParam().shape;
  const size_t num_edges = GetParam().num_edges;
  const auto g = GenerateDataset(DbpediaLike(0.01));
  ASSERT_TRUE(g.ok());
  Rng rng(1234);
  for (int i = 0; i < 5; ++i) {
    auto extracted = ExtractShapedQuery(*g, shape, num_edges, rng);
    ASSERT_TRUE(extracted.ok()) << QueryShapeName(shape) << ": "
                                << extracted.status();
    const AttributedGraph& q = extracted->query;
    EXPECT_EQ(q.NumEdges(), num_edges);
    EXPECT_TRUE(IsConnected(q));

    // Shape invariants.
    switch (shape) {
      case QueryShape::kPath: {
        EXPECT_EQ(q.NumVertices(), num_edges + 1);
        size_t ones = 0;
        for (VertexId v = 0; v < q.NumVertices(); ++v) {
          EXPECT_LE(q.Degree(v), 2u);
          if (q.Degree(v) == 1) ++ones;
        }
        EXPECT_EQ(ones, 2u);
        break;
      }
      case QueryShape::kStar: {
        EXPECT_EQ(q.NumVertices(), num_edges + 1);
        EXPECT_EQ(q.MaxDegree(), num_edges);
        break;
      }
      case QueryShape::kCycle: {
        EXPECT_EQ(q.NumVertices(), num_edges);
        for (VertexId v = 0; v < q.NumVertices(); ++v) {
          EXPECT_EQ(q.Degree(v), 2u);
        }
        break;
      }
      case QueryShape::kTree: {
        EXPECT_EQ(q.NumVertices(), num_edges + 1);  // Acyclic + connected.
        break;
      }
      case QueryShape::kRandomWalk:
        break;
    }

    // The planted occurrence guarantees at least one match.
    EXPECT_GE(FindSubgraphMatches(q, *g).NumMatches(), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ShapedQueries,
    ::testing::Values(ShapeCase{QueryShape::kPath, 1},
                      ShapeCase{QueryShape::kPath, 5},
                      ShapeCase{QueryShape::kStar, 3},
                      ShapeCase{QueryShape::kStar, 6},
                      ShapeCase{QueryShape::kCycle, 3},
                      ShapeCase{QueryShape::kCycle, 4},
                      ShapeCase{QueryShape::kTree, 6},
                      ShapeCase{QueryShape::kRandomWalk, 6}),
    [](const auto& info) {
      std::string name = QueryShapeName(info.param.shape);
      for (char& c : name) {
        if (c == '-') c = '_';  // gtest names must be identifiers.
      }
      return name + "_" + std::to_string(info.param.num_edges);
    });

TEST(ShapedQueries, RejectsDegenerateRequests) {
  const auto g = GenerateDataset(DbpediaLike(0.005));
  ASSERT_TRUE(g.ok());
  Rng rng(5);
  EXPECT_FALSE(ExtractShapedQuery(*g, QueryShape::kPath, 0, rng).ok());
  EXPECT_FALSE(ExtractShapedQuery(*g, QueryShape::kCycle, 2, rng).ok());
  // A star wider than the max degree can never be carved out.
  EXPECT_FALSE(
      ExtractShapedQuery(*g, QueryShape::kStar, g->MaxDegree() + 1, rng)
          .ok());
}

TEST(ShapedQueries, EndToEndExactnessPerShape) {
  const auto g = GenerateDataset(DbpediaLike(0.008));
  ASSERT_TRUE(g.ok());
  SystemConfig config;
  config.k = 3;
  auto system = PpsmSystem::Setup(*g, g->schema(), config);
  ASSERT_TRUE(system.ok());
  Rng rng(77);
  for (const QueryShape shape :
       {QueryShape::kPath, QueryShape::kStar, QueryShape::kCycle,
        QueryShape::kTree}) {
    auto extracted = ExtractShapedQuery(*g, shape, 3, rng);
    ASSERT_TRUE(extracted.ok()) << QueryShapeName(shape);
    QueryRequest request;
    request.pattern = extracted->query;
    const QueryResponse outcome = system->Execute(request);
    ASSERT_TRUE(outcome.ok()) << QueryShapeName(shape);
    const MatchSet truth = FindSubgraphMatches(extracted->query, *g);
    EXPECT_TRUE(MatchSet::EquivalentUnordered(outcome.matches, truth))
        << QueryShapeName(shape);
  }
}

}  // namespace
}  // namespace ppsm
