// Direct checks of the paper's three theorems on randomized inputs.

#include <gtest/gtest.h>

#include "anonymize/grouping.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "ilp/cover_solver.h"
#include "kauto/kautomorphism.h"
#include "match/decomposition.h"
#include "match/subgraph_matcher.h"
#include "util/random.h"

namespace ppsm {
namespace {

struct Artifacts {
  AttributedGraph g;
  std::shared_ptr<const Schema> schema;
  Lct lct;
  KAutomorphicGraph kag;
};

Artifacts MakeArtifacts(uint32_t k, uint64_t seed) {
  Artifacts a;
  DatasetConfig config = DbpediaLike(0.005);
  config.seed = seed;
  auto g = GenerateDataset(config);
  EXPECT_TRUE(g.ok());
  a.g = std::move(g).value();
  a.schema = a.g.schema();
  GroupingOptions gopts;
  gopts.theta = 2;
  auto lct = BuildLct(GroupingStrategy::kRandom, *a.schema, a.g, gopts);
  EXPECT_TRUE(lct.ok());
  a.lct = std::move(lct).value();
  auto anonymized = a.lct.AnonymizeGraph(a.g);
  EXPECT_TRUE(anonymized.ok());
  KAutomorphismOptions kopts;
  kopts.k = k;
  auto kag = BuildKAutomorphicGraph(*anonymized, kopts);
  EXPECT_TRUE(kag.ok());
  a.kag = std::move(kag).value();
  return a;
}

class TheoremK : public ::testing::TestWithParam<uint32_t> {};

TEST_P(TheoremK, Theorem1RqgSubsetOfRqogk) {
  // Theorem 1: R(Q,G) ⊆ R(Qo,Gk).
  const Artifacts a = MakeArtifacts(GetParam(), 301);
  Rng rng(101);
  for (int trial = 0; trial < 5; ++trial) {
    auto extracted = ExtractQuery(a.g, 3, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = a.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());

    const MatchSet rqg = FindSubgraphMatches(extracted->query, a.g);
    const MatchSet rqogk = FindSubgraphMatches(*qo, a.kag.gk);

    // Index R(Qo,Gk) rows for containment checks.
    MatchSet sorted = rqogk;
    sorted.SortDedup();
    for (size_t r = 0; r < rqg.NumMatches(); ++r) {
      const auto row = rqg.Get(r);
      bool found = false;
      for (size_t s = 0; s < sorted.NumMatches(); ++s) {
        if (std::ranges::equal(sorted.Get(s), row)) found = true;
      }
      EXPECT_TRUE(found) << "a genuine match vanished from R(Qo,Gk)";
    }
    EXPECT_GE(rqogk.NumMatches(), rqg.NumMatches());
  }
}

TEST_P(TheoremK, Theorem3OrbitClosure) {
  // Theorem 3: R(Qo,Gk) is closed under every automorphic function, and
  // every match is the F_j-image of a match anchored in B1.
  const uint32_t k = GetParam();
  const Artifacts a = MakeArtifacts(k, 302);
  Rng rng(102);
  auto extracted = ExtractQuery(a.g, 3, rng);
  ASSERT_TRUE(extracted.ok());
  auto qo = a.lct.AnonymizeGraph(extracted->query);
  ASSERT_TRUE(qo.ok());

  MatchSet rqogk = FindSubgraphMatches(*qo, a.kag.gk);
  rqogk.SortDedup();
  auto contains = [&rqogk](std::span<const VertexId> row) {
    for (size_t s = 0; s < rqogk.NumMatches(); ++s) {
      if (std::ranges::equal(rqogk.Get(s), row)) return true;
    }
    return false;
  };

  for (size_t r = 0; r < rqogk.NumMatches(); ++r) {
    for (uint32_t m = 0; m < k; ++m) {
      const auto image = a.kag.avt.ApplyToMatch(rqogk.Get(r), m);
      EXPECT_TRUE(contains(image))
          << "F_" << m << " image of a match is not a match";
    }
    // Anchoring: some automorphic image puts vertex 0's match in B1.
    bool anchored = false;
    for (uint32_t m = 0; m < k; ++m) {
      const auto image = a.kag.avt.ApplyToMatch(rqogk.Get(r), m);
      if (a.kag.avt.BlockOf(image[0]) == 0) anchored = true;
    }
    EXPECT_TRUE(anchored);
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, TheoremK, ::testing::Values(2, 3, 4));

TEST(Theorem2, DecompositionIlpMatchesWeightedVertexCover) {
  // Theorem 2 frames decomposition as weighted vertex cover; our exact ILP
  // must therefore agree with brute-force vertex cover on random queries.
  Rng rng(103);
  const auto g = GenerateUniformRandomGraph(50, 150, 4, 31);
  ASSERT_TRUE(g.ok());
  GkStatistics stats;
  stats.num_gk_vertices = 500;
  stats.k = 2;
  stats.avg_degree = 6.0;
  stats.type_freq = {1.0};
  stats.group_freq = {0.3, 0.4, 0.2, 0.1};
  stats.type_of_group = {0, 0, 0, 0};
  for (int trial = 0; trial < 8; ++trial) {
    auto extracted = ExtractQuery(*g, 6, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& q = extracted->query;
    auto decomposition = DecomposeQueryUnits(q, stats, /*max_depth=*/1);
    ASSERT_TRUE(decomposition.ok());

    CoverIlp model;
    for (VertexId v = 0; v < q.NumVertices(); ++v) {
      model.cost.push_back(EstimateStarCardinality(stats, q, v));
    }
    q.ForEachEdge([&model](VertexId u, VertexId v) {
      model.constraints.push_back({u, v});
    });
    auto brute = SolveCoverByEnumeration(model);
    ASSERT_TRUE(brute.ok());
    EXPECT_NEAR(decomposition->total_cost, brute->objective, 1e-6);
  }
}

}  // namespace
}  // namespace ppsm
