// Byte identity of the unit matcher against the enumeration-order oracle in
// matcher_oracle.h (the reference star and tree walkers it replaced): the
// same columns, the same rows in the same order, and under a row cap the
// same truncated prefix — for lone-vertex, star, path and tree units, at 1
// and 4 threads, with the aux graph off and on, under every intersect
// kernel. Runs under TSan in CI.

#include "matcher_oracle.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "graph/query_shapes.h"
#include "util/random.h"

namespace ppsm {
namespace {

using matcher_oracle::OracleMatchUnit;

constexpr IntersectKernel kKernels[] = {
    IntersectKernel::kAuto, IntersectKernel::kScalar,
    IntersectKernel::kGalloping, IntersectKernel::kSimd};

struct World {
  AttributedGraph data;
  CloudIndex index;
  std::vector<AttributedGraph> queries;
};

/// A small dense graph with few labels, so sibling slots often share a
/// compatibility class, plus random-walk, path-, star- and tree-shaped
/// queries and a lone labeled vertex. `num_centers` < |V| restricts roots
/// to an index prefix, the way B1 does in the cloud.
World MakeWorld(uint64_t seed, size_t num_centers) {
  World w;
  w.data = GenerateUniformRandomGraph(70, 230, 3, seed).value();
  w.index = CloudIndex::Build(w.data, num_centers, 1, 3).value();
  Rng rng(seed * 7 + 1);
  for (int i = 0; i < 3; ++i) {
    auto walk = ExtractQuery(w.data, 3 + i, rng);
    EXPECT_TRUE(walk.ok());
    if (walk.ok()) w.queries.push_back(walk->query);
  }
  for (const QueryShape shape :
       {QueryShape::kPath, QueryShape::kStar, QueryShape::kTree}) {
    auto shaped = ExtractShapedQuery(w.data, shape, 4, rng);
    EXPECT_TRUE(shaped.ok()) << QueryShapeName(shape);
    if (shaped.ok()) w.queries.push_back(shaped->query);
  }
  GraphBuilder lone;
  lone.AddVertex(0, {1});
  w.queries.push_back(lone.Build().value());
  return w;
}

std::string Describe(const QueryUnit& unit) {
  return std::string(UnitKindName(unit.kind)) + " root " +
         std::to_string(unit.root()) + " size " + std::to_string(unit.size());
}

void ExpectIdentical(const UnitMatches& got, const UnitMatches& want,
                     const std::string& where) {
  EXPECT_EQ(got.center, want.center) << where;
  EXPECT_EQ(got.kind, want.kind) << where;
  EXPECT_EQ(got.columns, want.columns) << where;
  EXPECT_EQ(got.num_candidates, want.num_candidates) << where;
  EXPECT_EQ(got.truncated, want.truncated) << where;
  EXPECT_TRUE(got.matches == want.matches)
      << where << ": got " << got.matches.NumMatches() << " rows, want "
      << want.matches.NumMatches();
}

TEST(MatcherOracle, MatchUnitsIsByteIdenticalToTheReferenceWalkers) {
  size_t lone = 0, stars = 0, paths = 0, trees = 0, rows = 0;
  for (const uint64_t seed : {3u, 4u}) {
    const World w = MakeWorld(seed, seed == 3 ? 70 : 40);
    for (const AttributedGraph& qo : w.queries) {
      const std::vector<QueryUnit> units = EnumerateCandidateUnits(qo, 3);
      std::vector<UnitMatches> want;
      for (const QueryUnit& unit : units) {
        want.push_back(OracleMatchUnit(w.data, w.index, qo, unit));
        rows += want.back().matches.NumMatches();
        if (unit.size() == 1) ++lone;
        else if (unit.kind == UnitKind::kStar) ++stars;
        else if (unit.kind == UnitKind::kPath) ++paths;
        else ++trees;
      }
      for (const size_t threads : {1u, 4u}) {
        for (const bool aux : {false, true}) {
          for (const IntersectKernel kernel : kKernels) {
            if (!aux && kernel != IntersectKernel::kAuto) continue;
            UnitMatchOptions options;
            options.num_threads = threads;
            options.use_aux_graph = aux;
            options.intersect_kernel = kernel;
            const std::vector<UnitMatches> got =
                MatchUnits(w.data, w.index, qo, units, options);
            ASSERT_EQ(got.size(), units.size());
            for (size_t u = 0; u < units.size(); ++u) {
              ExpectIdentical(
                  got[u], want[u],
                  Describe(units[u]) + " threads=" + std::to_string(threads) +
                      " aux=" + std::to_string(aux) + " kernel=" +
                      IntersectKernelName(kernel));
            }
          }
        }
      }
    }
  }
  // The comparison must cover every unit shape and not be vacuous.
  EXPECT_GT(lone, 0u);
  EXPECT_GT(stars, 0u);
  EXPECT_GT(paths, 0u);
  EXPECT_GT(trees, 0u);
  EXPECT_GT(rows, 1000u);
}

TEST(MatcherOracle, RowCapKeepsTheOraclePrefix) {
  const World w = MakeWorld(5, 70);
  size_t truncated_units = 0;
  for (const AttributedGraph& qo : w.queries) {
    for (const QueryUnit& unit : EnumerateCandidateUnits(qo, 3)) {
      const size_t total =
          OracleMatchUnit(w.data, w.index, qo, unit).matches.NumMatches();
      if (total < 2) continue;
      for (const size_t cap : {size_t{1}, total / 2, total}) {
        const UnitMatches want = OracleMatchUnit(w.data, w.index, qo, unit,
                                                 cap);
        EXPECT_EQ(want.truncated, cap < total);
        if (want.truncated) ++truncated_units;
        for (const bool aux : {false, true}) {
          for (const IntersectKernel kernel : kKernels) {
            if (!aux && kernel != IntersectKernel::kAuto) continue;
            UnitMatchOptions options;
            options.max_rows = cap;
            options.use_aux_graph = aux;
            options.intersect_kernel = kernel;
            ExpectIdentical(MatchUnit(w.data, w.index, qo, unit, options),
                            want,
                            Describe(unit) + " cap=" + std::to_string(cap) +
                                " aux=" + std::to_string(aux) + " kernel=" +
                                IntersectKernelName(kernel));
          }
        }
      }
    }
  }
  EXPECT_GT(truncated_units, 10u);
}

}  // namespace
}  // namespace ppsm
