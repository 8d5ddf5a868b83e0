#include "match/decomposition.h"

#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "ilp/cover_solver.h"
#include "util/random.h"

namespace ppsm {
namespace {

GkStatistics UniformStats() {
  GkStatistics stats;
  stats.num_gk_vertices = 1000;
  stats.k = 2;
  stats.avg_degree = 5.0;
  stats.type_freq = {1.0};
  stats.group_freq = {0.5, 0.5, 0.5, 0.5};
  stats.type_of_group = {0, 0, 0, 0};
  return stats;
}

/// Star-only decomposition (unit depth 1): the paper's weighted vertex cover.
Result<UnitDecomposition> DecomposeStars(const AttributedGraph& q,
                                         const GkStatistics& stats) {
  return DecomposeQueryUnits(q, stats, /*max_depth=*/1);
}

/// Root of every selected unit, in plan order.
std::vector<VertexId> Roots(const UnitDecomposition& decomposition) {
  std::vector<VertexId> roots;
  for (const QueryUnit& unit : decomposition.units) {
    roots.push_back(unit.root());
  }
  return roots;
}

AttributedGraph PathQuery(size_t n) {
  GraphBuilder b;
  for (size_t i = 0; i < n; ++i) b.AddVertex(0, {});
  for (size_t i = 0; i + 1 < n; ++i) {
    EXPECT_TRUE(b.AddEdge(static_cast<VertexId>(i),
                          static_cast<VertexId>(i + 1)).ok());
  }
  return b.Build().value();
}

TEST(Decomposition, CoversEveryEdge) {
  const GkStatistics stats = UniformStats();
  Rng rng(91);
  const auto g = GenerateUniformRandomGraph(60, 180, 4, 11);
  ASSERT_TRUE(g.ok());
  for (int trial = 0; trial < 10; ++trial) {
    auto extracted = ExtractQuery(*g, 3 + trial % 8, rng);
    ASSERT_TRUE(extracted.ok());
    auto decomposition = DecomposeStars(extracted->query, stats);
    ASSERT_TRUE(decomposition.ok()) << decomposition.status();
    EXPECT_TRUE(
        IsValidUnitDecomposition(extracted->query, decomposition->units));
    EXPECT_GT(decomposition->units.size(), 0u);
    EXPECT_EQ(decomposition->units.size(), decomposition->estimates.size());
  }
}

TEST(Decomposition, PathCoverIsOptimalUnderTheCostModel) {
  // Path 0-1-2-3-4. Under the cost model endpoints (Dc=1) are much cheaper
  // than interior vertices (Dc=2), so the optimum is {0,2,4}, beating the
  // cardinality-minimal cover {1,3}.
  const GkStatistics stats = UniformStats();
  const AttributedGraph q = PathQuery(5);
  auto decomposition = DecomposeStars(q, stats);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_TRUE(IsValidUnitDecomposition(q, decomposition->units));
  const double interior = EstimateStarCardinality(stats, q, 1);
  EXPECT_LE(decomposition->total_cost, 2.0 * interior + 1e-9)
      << "must not be worse than the {1,3} cover";
  EXPECT_EQ(Roots(*decomposition), (std::vector<VertexId>{0, 2, 4}));
}

TEST(Decomposition, StarQueryPicksTheCenter) {
  // A star query on a sparse graph: one hub star (whose D^Dc term stays
  // small at low average degree) beats four leaf stars.
  GkStatistics stats = UniformStats();
  stats.avg_degree = 1.2;
  GraphBuilder b;
  for (int i = 0; i < 5; ++i) b.AddVertex(0, {0});
  for (int i = 1; i < 5; ++i) ASSERT_TRUE(b.AddEdge(0, i).ok());
  const AttributedGraph q = b.Build().value();
  auto decomposition = DecomposeStars(q, stats);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_EQ(Roots(*decomposition), (std::vector<VertexId>{0}));
}

TEST(Decomposition, TotalCostIsOptimalVsEnumeration) {
  const GkStatistics stats = UniformStats();
  Rng rng(92);
  const auto g = GenerateUniformRandomGraph(40, 120, 4, 12);
  ASSERT_TRUE(g.ok());
  for (int trial = 0; trial < 10; ++trial) {
    auto extracted = ExtractQuery(*g, 5, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& q = extracted->query;

    auto decomposition = DecomposeStars(q, stats);
    ASSERT_TRUE(decomposition.ok());

    // Reference: brute-force the same ILP.
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

TEST(Decomposition, IsolatedVerticesGetOwnStars) {
  const GkStatistics stats = UniformStats();
  GraphBuilder b;
  b.AddVertex(0, {0});
  b.AddVertex(0, {1});
  b.AddVertex(0, {2});  // Isolated.
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  const AttributedGraph q = b.Build().value();
  auto decomposition = DecomposeStars(q, stats);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_TRUE(IsValidUnitDecomposition(q, decomposition->units));
  bool isolated_covered = false;
  for (const VertexId c : Roots(*decomposition)) {
    if (c == 2) isolated_covered = true;
  }
  EXPECT_TRUE(isolated_covered);
}

TEST(Decomposition, RejectsEmptyQuery) {
  const GkStatistics stats = UniformStats();
  GraphBuilder b;
  const AttributedGraph q = b.Build().value();
  EXPECT_FALSE(DecomposeStars(q, stats).ok());
}

TEST(Decomposition, SelectiveLabelsShiftTheCover) {
  // Two adjacent vertices, one with a rare group, one with a common group:
  // the ILP should root the star at the rarer (cheaper) vertex.
  GkStatistics stats = UniformStats();
  stats.group_freq = {0.01, 0.9};
  GraphBuilder b;
  b.AddVertex(0, {0});  // Rare.
  b.AddVertex(0, {1});  // Common.
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  const AttributedGraph q = b.Build().value();
  auto decomposition = DecomposeStars(q, stats);
  ASSERT_TRUE(decomposition.ok());
  EXPECT_EQ(Roots(*decomposition), (std::vector<VertexId>{0}));
}

TEST(IsValidDecomposition, DetectsBadCovers) {
  const AttributedGraph q = PathQuery(4);
  const auto stars = [&q](std::vector<VertexId> centers) {
    std::vector<QueryUnit> units;
    for (const VertexId c : centers) units.push_back(MakeStarUnit(q, c));
    return units;
  };
  EXPECT_TRUE(IsValidUnitDecomposition(q, stars({0, 2})));
  EXPECT_TRUE(IsValidUnitDecomposition(q, stars({1, 3})));
  EXPECT_FALSE(IsValidUnitDecomposition(q, stars({0, 3})));  // 1-2 uncovered.
  QueryUnit out_of_range;
  out_of_range.vertices = {9};
  out_of_range.parent = {0};
  EXPECT_FALSE(IsValidUnitDecomposition(q, {out_of_range}));
}

TEST(DecomposeWithCosts, RejectsWrongSizeAndNonFiniteCosts) {
  // Per-vertex star costs: the depth-1 candidates are one star per vertex.
  const AttributedGraph q = PathQuery(3);
  const auto decompose = [&q](std::vector<double> costs) {
    return DecomposeQueryUnitsWithCosts(q, EnumerateCandidateUnits(q, 1),
                                        std::move(costs));
  };

  auto wrong_size = decompose({1.0, 2.0});
  ASSERT_FALSE(wrong_size.ok());
  EXPECT_EQ(wrong_size.status().code(), StatusCode::kInvalidArgument);

  auto negative = decompose({1.0, -0.5, 1.0});
  ASSERT_FALSE(negative.ok());
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);

  auto nan = decompose(
      {1.0, std::numeric_limits<double>::quiet_NaN(), 1.0});
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);

  auto inf = decompose(
      {std::numeric_limits<double>::infinity(), 1.0, 1.0});
  ASSERT_FALSE(inf.ok());
  EXPECT_EQ(inf.status().code(), StatusCode::kInvalidArgument);

  // A well-formed vector still solves: the cheap middle vertex covers both
  // edges of the path.
  auto solved = decompose({5.0, 1.0, 5.0});
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_EQ(Roots(*solved), (std::vector<VertexId>{1}));
}

TEST(UnitDecomposition, DepthOneDegeneratesToTheStarCover) {
  const GkStatistics stats = UniformStats();
  Rng rng(23);
  const auto g = GenerateUniformRandomGraph(60, 180, 4, 11);
  ASSERT_TRUE(g.ok());
  for (int trial = 0; trial < 10; ++trial) {
    auto extracted = ExtractQuery(*g, 3 + trial % 8, rng);
    ASSERT_TRUE(extracted.ok());
    const AttributedGraph& q = extracted->query;
    auto units = DecomposeQueryUnits(q, stats, 1);
    ASSERT_TRUE(units.ok()) << units.status();

    // Reference: the paper's per-vertex weighted vertex cover, solved by
    // the same exact ILP.
    CoverIlp model;
    for (VertexId v = 0; v < q.NumVertices(); ++v) {
      model.cost.push_back(EstimateStarCardinality(stats, q, v));
    }
    q.ForEachEdge([&model](VertexId u, VertexId v) {
      model.constraints.push_back({u, v});
    });
    for (VertexId v = 0; v < q.NumVertices(); ++v) {
      if (q.Degree(v) == 0) model.constraints.push_back({v});
    }
    auto cover = SolveCoverIlp(model);
    ASSERT_TRUE(cover.ok());
    std::vector<VertexId> centers;
    double total_cost = 0.0;
    for (VertexId v = 0; v < q.NumVertices(); ++v) {
      if (!cover->selected[v]) continue;
      centers.push_back(v);
      total_cost += model.cost[v];
    }
    ASSERT_EQ(Roots(*units), centers);
    for (size_t i = 0; i < units->units.size(); ++i) {
      EXPECT_EQ(units->units[i].kind, UnitKind::kStar);
      EXPECT_DOUBLE_EQ(units->estimates[i], model.cost[centers[i]]);
    }
    EXPECT_DOUBLE_EQ(units->total_cost, total_cost);
  }
}

TEST(UnitDecomposition, DeeperUnitsNeverCostMoreThanStars) {
  // The star candidates are a subset of the depth-3 candidate family, so the
  // generalized cover can only match or beat the star-only optimum.
  const GkStatistics stats = UniformStats();
  Rng rng(31);
  const auto g = GenerateUniformRandomGraph(60, 180, 4, 11);
  ASSERT_TRUE(g.ok());
  for (int trial = 0; trial < 10; ++trial) {
    auto extracted = ExtractQuery(*g, 4 + trial % 6, rng);
    ASSERT_TRUE(extracted.ok());
    auto star_only = DecomposeQueryUnits(extracted->query, stats, 1);
    auto mixed = DecomposeQueryUnits(extracted->query, stats, 3);
    ASSERT_TRUE(star_only.ok());
    ASSERT_TRUE(mixed.ok()) << mixed.status();
    EXPECT_TRUE(IsValidUnitDecomposition(extracted->query, mixed->units));
    EXPECT_LE(mixed->total_cost, star_only->total_cost + 1e-9);
  }
}

TEST(UnitDecomposition, LongPathSelectsADeepUnit) {
  // On a 5-vertex path with uniform statistics a single depth-capped tree
  // rooted mid-path covers every edge; the star-only cover needs >= 2 stars.
  const GkStatistics stats = UniformStats();
  const AttributedGraph q = PathQuery(5);
  auto star_only = DecomposeQueryUnits(q, stats, 1);
  auto mixed = DecomposeQueryUnits(q, stats, 4);
  ASSERT_TRUE(star_only.ok());
  ASSERT_TRUE(mixed.ok());
  EXPECT_GE(star_only->units.size(), 2u);
  EXPECT_TRUE(IsValidUnitDecomposition(q, mixed->units));
  EXPECT_LE(mixed->total_cost, star_only->total_cost + 1e-9);
}

TEST(UnitDecompositionWithCosts, ValidatesCostsAndUnits) {
  const GkStatistics stats = UniformStats();
  const AttributedGraph q = PathQuery(4);
  std::vector<QueryUnit> candidates = EnumerateCandidateUnits(q, 2);
  ASSERT_GT(candidates.size(), q.NumVertices());

  std::vector<double> short_costs(candidates.size() - 1, 1.0);
  auto wrong_size =
      DecomposeQueryUnitsWithCosts(q, candidates, short_costs);
  ASSERT_FALSE(wrong_size.ok());
  EXPECT_EQ(wrong_size.status().code(), StatusCode::kInvalidArgument);

  std::vector<double> bad_costs(candidates.size(), 1.0);
  bad_costs.back() = std::numeric_limits<double>::quiet_NaN();
  auto nan = DecomposeQueryUnitsWithCosts(q, candidates, bad_costs);
  ASSERT_FALSE(nan.ok());
  EXPECT_EQ(nan.status().code(), StatusCode::kInvalidArgument);

  // A malformed unit (vertex out of range) is rejected even with good costs.
  std::vector<QueryUnit> corrupt = candidates;
  corrupt.back().vertices.back() = 99;
  auto malformed = DecomposeQueryUnitsWithCosts(
      q, corrupt, std::vector<double>(corrupt.size(), 1.0));
  ASSERT_FALSE(malformed.ok());
  EXPECT_EQ(malformed.status().code(), StatusCode::kInvalidArgument);

  auto solved = DecomposeQueryUnitsWithCosts(
      q, candidates, std::vector<double>(candidates.size(), 1.0));
  ASSERT_TRUE(solved.ok()) << solved.status();
  EXPECT_TRUE(IsValidUnitDecomposition(q, solved->units));
}

TEST(IsValidUnitDecomposition, DetectsUncoveredEdgesAndVertices) {
  const AttributedGraph q = PathQuery(4);
  // One deep tree from an endpoint covers the whole path.
  EXPECT_TRUE(IsValidUnitDecomposition(q, {MakeBfsTreeUnit(q, 0, 3)}));
  // Two endpoint stars leave the middle edge 1-2 uncovered.
  EXPECT_FALSE(IsValidUnitDecomposition(
      q, {MakeStarUnit(q, 0), MakeStarUnit(q, 3)}));
  // An isolated vertex must appear in some unit.
  GraphBuilder b;
  b.AddVertex(0, {});
  b.AddVertex(0, {});
  b.AddVertex(0, {});
  EXPECT_TRUE(b.AddEdge(0, 1).ok());
  const AttributedGraph with_isolated = b.Build().value();
  EXPECT_FALSE(IsValidUnitDecomposition(with_isolated,
                                        {MakeStarUnit(with_isolated, 0)}));
  EXPECT_TRUE(IsValidUnitDecomposition(
      with_isolated,
      {MakeStarUnit(with_isolated, 0), MakeStarUnit(with_isolated, 2)}));
}

}  // namespace
}  // namespace ppsm
