// §5.1 effectiveness check: the paper argues its independence-assumption
// cost model is "very effective" on real graphs. We quantify that here: the
// estimator's RANKING of candidate star roots should usually agree with the
// actual materialized |R(S)| ranking — that ranking (not the absolute
// value) is what the decomposition ILP consumes. Also covers
// MatchSet::Project.

#include <gtest/gtest.h>

#include "anonymize/grouping.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "kauto/outsourced_graph.h"
#include "match/decomposition.h"
#include "match/statistics.h"
#include "match/unit_matcher.h"
#include "util/random.h"

namespace ppsm {
namespace {

struct CloudPieces {
  AttributedGraph g;
  Lct lct;
  OutsourcedGraph go;
  CloudIndex index;
  GkStatistics stats;
};

CloudPieces MakePieces(uint32_t k) {
  CloudPieces p;
  auto g = GenerateDataset(DbpediaLike(0.015));
  EXPECT_TRUE(g.ok());
  p.g = std::move(g).value();
  GroupingOptions gopts;
  auto lct =
      BuildLct(GroupingStrategy::kCostModel, *p.g.schema(), p.g, gopts);
  EXPECT_TRUE(lct.ok());
  p.lct = std::move(lct).value();
  auto anonymized = p.lct.AnonymizeGraph(p.g);
  EXPECT_TRUE(anonymized.ok());
  KAutomorphismOptions kopts;
  kopts.k = k;
  auto kag = BuildKAutomorphicGraph(*anonymized, kopts);
  EXPECT_TRUE(kag.ok());
  auto go = BuildOutsourcedGraph(*kag);
  EXPECT_TRUE(go.ok());
  p.go = std::move(go).value();
  std::vector<VertexTypeId> type_of_group;
  for (GroupId g2 = 0; g2 < p.lct.NumGroups(); ++g2) {
    type_of_group.push_back(p.lct.TypeOfGroup(g2));
  }
  p.stats = ComputeGkStatistics(p.go, p.g.schema()->NumTypes(),
                                type_of_group);
  p.index = CloudIndex::Build(p.go.graph, p.go.num_b1,
                              p.g.schema()->NumTypes(), p.lct.NumGroups())
                .value();
  return p;
}

TEST(CostModelEffectiveness, CandidateAwareRankingMatchesActualCounts) {
  const CloudPieces p = MakePieces(3);
  Rng rng(808);

  size_t concordant = 0;
  size_t discordant = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto extracted = ExtractQuery(p.g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = p.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());

    // Estimate and actually materialize every star of this query.
    std::vector<double> estimate(qo->NumVertices());
    std::vector<double> actual(qo->NumVertices());
    const RootDegrees root_degrees =
        ShortlistRootDegrees(*qo, p.go.graph, p.index);
    for (VertexId v = 0; v < qo->NumVertices(); ++v) {
      estimate[v] = EstimateUnitCardinality(p.stats, *qo, MakeStarUnit(*qo, v),
                                            root_degrees[v]);
      actual[v] = static_cast<double>(
          MatchUnit(p.go.graph, p.index, *qo, MakeStarUnit(*qo, v))
              .matches.NumMatches());
    }
    // Kendall-style pair concordance on pairs with a clear actual gap.
    for (VertexId a = 0; a < qo->NumVertices(); ++a) {
      for (VertexId b = a + 1; b < qo->NumVertices(); ++b) {
        if (actual[a] == actual[b]) continue;
        const bool actual_less = actual[a] < actual[b];
        const bool estimate_less = estimate[a] < estimate[b];
        if (actual_less == estimate_less) {
          ++concordant;
        } else {
          ++discordant;
        }
      }
    }
  }
  ASSERT_GT(concordant + discordant, 50u);
  const double agreement = static_cast<double>(concordant) /
                           static_cast<double>(concordant + discordant);
  EXPECT_GT(agreement, 0.65)
      << "cost-model ranking agrees with actual counts on only "
      << agreement * 100 << "% of pairs";
}

TEST(CostModelEffectiveness, PaperExpr4AlsoRanksReasonably) {
  // The literal Expression 4 (average-degree form) should still rank
  // decently, just worse than the candidate-aware form.
  const CloudPieces p = MakePieces(2);
  Rng rng(809);
  size_t concordant = 0;
  size_t total = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto extracted = ExtractQuery(p.g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = p.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());
    std::vector<double> estimate(qo->NumVertices());
    std::vector<double> actual(qo->NumVertices());
    for (VertexId v = 0; v < qo->NumVertices(); ++v) {
      estimate[v] = EstimateStarCardinality(p.stats, *qo, v);
      actual[v] = static_cast<double>(
          MatchUnit(p.go.graph, p.index, *qo, MakeStarUnit(*qo, v))
              .matches.NumMatches());
    }
    for (VertexId a = 0; a < qo->NumVertices(); ++a) {
      for (VertexId b = a + 1; b < qo->NumVertices(); ++b) {
        if (actual[a] == actual[b]) continue;
        ++total;
        if ((actual[a] < actual[b]) == (estimate[a] < estimate[b])) {
          ++concordant;
        }
      }
    }
  }
  ASSERT_GT(total, 50u);
  EXPECT_GT(static_cast<double>(concordant) / static_cast<double>(total),
            0.6);
}

TEST(MatchSetProject, KeepsSelectedColumns) {
  MatchSet set(3);
  set.Append(std::vector<VertexId>{1, 10, 100});
  set.Append(std::vector<VertexId>{2, 20, 200});
  set.Append(std::vector<VertexId>{3, 10, 300});
  const MatchSet projected = set.Project({2, 0});
  ASSERT_EQ(projected.arity(), 2u);
  ASSERT_EQ(projected.NumMatches(), 3u);
  EXPECT_EQ(projected.Get(0)[0], 100u);
  EXPECT_EQ(projected.Get(0)[1], 1u);
}

TEST(MatchSetProject, DedupsCollapsedRows) {
  MatchSet set(2);
  set.Append(std::vector<VertexId>{1, 10});
  set.Append(std::vector<VertexId>{1, 20});
  set.Append(std::vector<VertexId>{2, 30});
  const MatchSet projected = set.Project({0});
  EXPECT_EQ(projected.NumMatches(), 2u);  // {1},{1},{2} -> {1},{2}.
}

}  // namespace
}  // namespace ppsm
