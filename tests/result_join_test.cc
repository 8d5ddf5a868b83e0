// Tests for Algorithm 2 (result join) and the Rin/Rout split — the heart of
// the paper's optimized query path (§4.2.1, Theorem 3).

#include "match/result_join.h"

#include <gtest/gtest.h>

#include "anonymize/grouping.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "kauto/outsourced_graph.h"
#include "match/decomposition.h"
#include "match/subgraph_matcher.h"
#include "match/unit_matcher.h"
#include "util/random.h"
#include "join_oracle.h"

namespace ppsm {
namespace {

using join_oracle::ExpandByAutomorphisms;

struct CloudFixture {
  AttributedGraph g;
  std::shared_ptr<const Schema> schema;
  Lct lct;
  KAutomorphicGraph kag;
  OutsourcedGraph go;
  CloudIndex index;
  GkStatistics stats;
};

CloudFixture MakeFixture(uint32_t k, double scale = 0.006, uint64_t seed = 1) {
  CloudFixture f;
  DatasetConfig config = DbpediaLike(scale);
  config.seed = seed;
  auto g = GenerateDataset(config);
  EXPECT_TRUE(g.ok());
  f.g = std::move(g).value();
  f.schema = f.g.schema();
  GroupingOptions gopts;
  gopts.theta = 2;
  auto lct = BuildLct(GroupingStrategy::kCostModel, *f.schema, f.g, gopts);
  EXPECT_TRUE(lct.ok());
  f.lct = std::move(lct).value();
  auto anonymized = f.lct.AnonymizeGraph(f.g);
  EXPECT_TRUE(anonymized.ok());
  KAutomorphismOptions kopts;
  kopts.k = k;
  auto kag = BuildKAutomorphicGraph(*anonymized, kopts);
  EXPECT_TRUE(kag.ok());
  f.kag = std::move(kag).value();
  auto go = BuildOutsourcedGraph(f.kag);
  EXPECT_TRUE(go.ok());
  f.go = std::move(go).value();
  std::vector<VertexTypeId> type_of_group;
  for (GroupId g2 = 0; g2 < f.lct.NumGroups(); ++g2) {
    type_of_group.push_back(f.lct.TypeOfGroup(g2));
  }
  f.stats = ComputeGkStatistics(f.go, f.schema->NumTypes(), type_of_group);
  f.index = CloudIndex::Build(f.go.graph, f.go.num_b1, f.schema->NumTypes(),
                              f.lct.NumGroups())
                .value();
  return f;
}

/// Star-only plan (the paper's §4.2.1 decomposition) matched over Go, with
/// the matches translated to Gk ids (the cloud does the same before
/// joining).
Result<std::vector<UnitMatches>> MatchStarPlan(const CloudFixture& f,
                                               const AttributedGraph& qo) {
  PPSM_ASSIGN_OR_RETURN(const UnitDecomposition decomposition,
                        DecomposeQueryUnits(qo, f.stats, /*max_depth=*/1));
  std::vector<UnitMatches> stars =
      MatchUnits(f.go.graph, f.index, qo, decomposition.units);
  for (UnitMatches& star : stars) {
    MatchSet translated(star.matches.arity());
    std::vector<VertexId> row(star.matches.arity());
    for (size_t r = 0; r < star.matches.NumMatches(); ++r) {
      const auto local = star.matches.Get(r);
      for (size_t i = 0; i < local.size(); ++i) {
        row[i] = f.go.ToGk(local[i]);
      }
      translated.Append(row);
    }
    star.matches = std::move(translated);
  }
  return stars;
}

/// Runs the optimized cloud path by hand and returns Rin (Gk ids).
Result<MatchSet> ComputeRin(const CloudFixture& f, const AttributedGraph& qo) {
  PPSM_ASSIGN_OR_RETURN(const std::vector<UnitMatches> stars,
                        MatchStarPlan(f, qo));
  return JoinUnitMatches(stars, f.kag.avt, qo.NumVertices(), JoinOptions{});
}

TEST(ExpandByAutomorphisms, ClosesUnderTheGroup) {
  const CloudFixture f = MakeFixture(3);
  MatchSet set(2);
  set.Append(std::vector<VertexId>{f.kag.avt.At(0, 0), f.kag.avt.At(1, 0)});
  const MatchSet expanded = ExpandByAutomorphisms(set, f.kag.avt);
  EXPECT_EQ(expanded.NumMatches(), 3u);  // One orbit of size k.
  // Expanding again is a fixed point.
  const MatchSet twice = ExpandByAutomorphisms(expanded, f.kag.avt);
  EXPECT_TRUE(MatchSet::EquivalentUnordered(expanded, twice));
}

class ResultJoinK : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ResultJoinK, RinUnionRoutEqualsReferenceRQoGk) {
  // THE core property: Rin ∪ (∪_m F_m(Rin)) must equal R(Qo,Gk) computed by
  // the reference matcher on the materialized Gk (which the cloud never
  // sees).
  const uint32_t k = GetParam();
  const CloudFixture f = MakeFixture(k);
  Rng rng(81);
  for (int trial = 0; trial < 6; ++trial) {
    auto extracted = ExtractQuery(f.g, 2 + trial % 4, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = f.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());

    auto rin = ComputeRin(f, *qo);
    ASSERT_TRUE(rin.ok()) << rin.status();
    const MatchSet full = ExpandByAutomorphisms(*rin, f.kag.avt);

    const MatchSet reference = FindSubgraphMatches(*qo, f.kag.gk);
    MatchSet reference_sorted = reference;
    reference_sorted.SortDedup();
    EXPECT_TRUE(MatchSet::EquivalentUnordered(full, reference_sorted))
        << "k=" << k << " trial=" << trial << ": got "
        << full.NumMatches() << " want " << reference.NumMatches();
  }
}

INSTANTIATE_TEST_SUITE_P(Ks, ResultJoinK, ::testing::Values(2, 3, 4, 5));

TEST(ResultJoin, RinAnchorsInFirstBlock) {
  // Every Rin row maps the anchor star's center into block B1 — that is the
  // definition of Rin (§4.2.1).
  const CloudFixture f = MakeFixture(3);
  Rng rng(82);
  for (int trial = 0; trial < 5; ++trial) {
    auto extracted = ExtractQuery(f.g, 4, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = f.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());
    auto rin = ComputeRin(f, *qo);
    ASSERT_TRUE(rin.ok());
    for (size_t r = 0; r < rin->NumMatches(); ++r) {
      const auto row = rin->Get(r);
      bool some_in_b1 = false;
      for (const VertexId v : row) {
        if (f.kag.avt.BlockOf(v) == 0) some_in_b1 = true;
      }
      EXPECT_TRUE(some_in_b1);
    }
  }
}

TEST(ResultJoin, RinSmallerThanFullExpansion) {
  // |Rin| <= |R(Qo,Gk)|; strict whenever results exist and k > 1 (this is
  // the communication saving of §4.2.1 / Fig. 33).
  const CloudFixture f = MakeFixture(4);
  Rng rng(83);
  size_t nonempty_trials = 0;
  for (int trial = 0; trial < 8 && nonempty_trials < 3; ++trial) {
    auto extracted = ExtractQuery(f.g, 3, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = f.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());
    auto rin = ComputeRin(f, *qo);
    ASSERT_TRUE(rin.ok());
    if (rin->NumMatches() == 0) continue;
    ++nonempty_trials;
    const MatchSet full = ExpandByAutomorphisms(*rin, f.kag.avt);
    EXPECT_LE(rin->NumMatches(), full.NumMatches());
    EXPECT_GE(full.NumMatches(), rin->NumMatches());  // Sanity.
  }
  EXPECT_GE(nonempty_trials, 1u);
}

TEST(ResultJoin, EmptyStarShortCircuits) {
  const CloudFixture f = MakeFixture(2);
  // A query whose center group cannot exist: use an unknown group id.
  GraphBuilder q;
  q.AddVertex(0, {static_cast<LabelId>(f.lct.NumGroups() + 5)});
  q.AddVertex(0, {});
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  const AttributedGraph qo = q.Build().value();
  auto rin = ComputeRin(f, qo);
  ASSERT_TRUE(rin.ok());
  EXPECT_EQ(rin->NumMatches(), 0u);
}

TEST(ResultJoin, RejectsEmptyStarList) {
  const CloudFixture f = MakeFixture(2);
  EXPECT_FALSE(JoinUnitMatches({}, f.kag.avt, 3, JoinOptions{}).ok());
}

TEST(ResultJoin, DiagnosticsPopulated) {
  const CloudFixture f = MakeFixture(2);
  Rng rng(84);
  auto extracted = ExtractQuery(f.g, 5, rng);
  ASSERT_TRUE(extracted.ok());
  auto qo = f.lct.AnonymizeGraph(extracted->query);
  ASSERT_TRUE(qo.ok());
  auto stars_or = MatchStarPlan(f, *qo);
  ASSERT_TRUE(stars_or.ok());
  const std::vector<UnitMatches>& stars = *stars_or;
  JoinDiagnostics diagnostics;
  auto rin = JoinUnitMatches(stars, f.kag.avt, qo->NumVertices(),
                             JoinOptions{}, &diagnostics);
  ASSERT_TRUE(rin.ok());
  if (stars.size() > 1) {
    EXPECT_GE(diagnostics.peak_rows, rin->NumMatches());
  }
}

}  // namespace
}  // namespace ppsm
