#include "match/unit_matcher.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "match/subgraph_matcher.h"
#include "util/random.h"

namespace ppsm {
namespace {

/// Reference: extract the star rooted at `center` as a standalone query
/// graph and run the generic matcher, then reorder columns to match the
/// UnitMatches column layout.
MatchSet ReferenceStarMatches(const AttributedGraph& data,
                              const AttributedGraph& qo, VertexId center,
                              const std::vector<VertexId>& columns) {
  GraphBuilder b;
  // Star query graph: vertex 0 = center, then leaves in `columns` order.
  const auto center_types = qo.Types(center);
  const auto center_labels = qo.Labels(center);
  b.AddVertex(std::vector<VertexTypeId>(center_types.begin(),
                                        center_types.end()),
              std::vector<LabelId>(center_labels.begin(),
                                   center_labels.end()));
  for (size_t i = 1; i < columns.size(); ++i) {
    const VertexId leaf = columns[i];
    const auto types = qo.Types(leaf);
    const auto labels = qo.Labels(leaf);
    const VertexId id = b.AddVertex(
        std::vector<VertexTypeId>(types.begin(), types.end()),
        std::vector<LabelId>(labels.begin(), labels.end()));
    EXPECT_TRUE(b.AddEdge(0, id).ok());
  }
  return FindSubgraphMatches(b.Build().value(), data);
}

TEST(StarMatcher, AgreesWithGenericMatcherOnRandomStars) {
  Rng rng(71);
  for (int trial = 0; trial < 15; ++trial) {
    const auto g = GenerateUniformRandomGraph(80, 240, 5, 2000 + trial);
    ASSERT_TRUE(g.ok());
    const CloudIndex index =
        CloudIndex::Build(*g, g->NumVertices(), 1, 5).value();

    auto extracted = ExtractQuery(*g, 4, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& qo = extracted->query;
    for (VertexId center = 0; center < qo.NumVertices(); ++center) {
      if (qo.Degree(center) == 0) continue;
      const UnitMatches star =
          MatchUnit(*g, index, qo, MakeStarUnit(qo, center));
      const MatchSet reference =
          ReferenceStarMatches(*g, qo, center, star.columns);
      EXPECT_TRUE(MatchSet::EquivalentUnordered(star.matches, reference))
          << "trial " << trial << " center " << center << ": got "
          << star.matches.NumMatches() << " want "
          << reference.NumMatches();
    }
  }
}

TEST(StarMatcher, ColumnsStartWithCenter) {
  const auto g = GenerateUniformRandomGraph(30, 60, 3, 5);
  ASSERT_TRUE(g.ok());
  const CloudIndex index = CloudIndex::Build(*g, g->NumVertices(), 1, 3).value();
  Rng rng(72);
  auto extracted = ExtractQuery(*g, 3, rng);
  ASSERT_TRUE(extracted.ok());
  const AttributedGraph& qo = extracted->query;
  const UnitMatches star = MatchUnit(*g, index, qo, MakeStarUnit(qo, 0));
  EXPECT_EQ(star.center, 0u);
  ASSERT_FALSE(star.columns.empty());
  EXPECT_EQ(star.columns[0], 0u);
  EXPECT_EQ(star.columns.size(), 1 + qo.Degree(0));
  EXPECT_EQ(star.matches.arity(), star.columns.size());
}

TEST(StarMatcher, InjectiveWithinStar) {
  const auto g = GenerateUniformRandomGraph(40, 120, 2, 6);
  ASSERT_TRUE(g.ok());
  const CloudIndex index = CloudIndex::Build(*g, g->NumVertices(), 1, 2).value();
  // A 3-leaf star query with identical unconstrained leaves.
  GraphBuilder q;
  for (int i = 0; i < 4; ++i) q.AddVertex(0, {});
  for (int i = 1; i < 4; ++i) ASSERT_TRUE(q.AddEdge(0, i).ok());
  const AttributedGraph qo = q.Build().value();
  const UnitMatches star = MatchUnit(*g, index, qo, MakeStarUnit(qo, 0));
  for (size_t r = 0; r < star.matches.NumMatches(); ++r) {
    EXPECT_FALSE(MatchSet::HasDuplicateVertices(star.matches.Get(r)));
  }
}

TEST(StarMatcher, CentersRestrictedToIndexPrefix) {
  const auto g = GenerateUniformRandomGraph(50, 150, 2, 7);
  ASSERT_TRUE(g.ok());
  const size_t num_centers = 20;
  const CloudIndex index = CloudIndex::Build(*g, num_centers, 1, 2).value();
  GraphBuilder q;
  q.AddVertex(0, {});
  q.AddVertex(0, {});
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  const AttributedGraph qo = q.Build().value();
  const UnitMatches star = MatchUnit(*g, index, qo, MakeStarUnit(qo, 0));
  EXPECT_GT(star.matches.NumMatches(), 0u);
  for (size_t r = 0; r < star.matches.NumMatches(); ++r) {
    EXPECT_LT(star.matches.Get(r)[0], num_centers)
        << "star centers must live in B1 (the index prefix)";
  }
}

TEST(StarMatcher, SingleVertexStar) {
  const auto g = GenerateUniformRandomGraph(20, 40, 2, 8);
  ASSERT_TRUE(g.ok());
  const CloudIndex index = CloudIndex::Build(*g, g->NumVertices(), 1, 2).value();
  GraphBuilder q;
  q.AddVertex(0, {0});
  const AttributedGraph qo = q.Build().value();
  const UnitMatches star = MatchUnit(*g, index, qo, MakeStarUnit(qo, 0));
  size_t expected = 0;
  for (VertexId v = 0; v < g->NumVertices(); ++v) {
    if (g->HasLabel(v, 0)) ++expected;
  }
  EXPECT_EQ(star.matches.NumMatches(), expected);
  EXPECT_EQ(star.matches.arity(), 1u);
}

TEST(StarMatcher, MatchStarsRunsAllCenters) {
  const auto g = GenerateUniformRandomGraph(30, 90, 2, 9);
  ASSERT_TRUE(g.ok());
  const CloudIndex index = CloudIndex::Build(*g, g->NumVertices(), 1, 2).value();
  Rng rng(73);
  auto extracted = ExtractQuery(*g, 5, rng);
  ASSERT_TRUE(extracted.ok());
  const AttributedGraph& qo = extracted->query;
  const auto all = MatchUnits(*g, index, qo,
                              {MakeStarUnit(qo, 0), MakeStarUnit(qo, 1)});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].center, 0u);
  EXPECT_EQ(all[1].center, 1u);
}

}  // namespace
}  // namespace ppsm
