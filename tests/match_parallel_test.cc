// Parallel query hot path: thread-count invariance of unit matching and the
// automorphism-aware probe join, plus the join edge cases the probe rewrite
// must preserve (hash-collision verification, cross products, overflow
// accounting, zero-match anchors). Every test here also runs under TSan in
// CI — the equivalence tests at 4/8 threads are the data-race canaries for
// the chunked MatchUnit/JoinStep paths.

#include "join_oracle.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <vector>

#include "anonymize/grouping.h"
#include "graph/generators.h"
#include "graph/query_extractor.h"
#include "kauto/outsourced_graph.h"
#include "match/decomposition.h"
#include "match/join_index.h"
#include "match/result_join.h"
#include "match/subgraph_matcher.h"
#include "match/unit_matcher.h"
#include "util/random.h"

namespace ppsm {
namespace {

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

/// The star-only plan (the paper's §4.2.1 decomposition) of `qo`.
std::vector<QueryUnit> PlanStars(const CloudFixture& f,
                                 const AttributedGraph& qo) {
  auto decomposition = DecomposeQueryUnits(qo, f.stats, /*max_depth=*/1);
  EXPECT_TRUE(decomposition.ok()) << decomposition.status();
  return decomposition.ok() ? decomposition->units
                            : std::vector<QueryUnit>{};
}

/// Unit matching at `num_threads`, with the matches translated to Gk ids
/// (the cloud does the same before joining).
std::vector<UnitMatches> MatchTranslated(const CloudFixture& f,
                                         const AttributedGraph& qo,
                                         const std::vector<QueryUnit>& units,
                                         size_t num_threads) {
  UnitMatchOptions options;
  options.num_threads = num_threads;
  std::vector<UnitMatches> stars =
      MatchUnits(f.go.graph, f.index, qo, units, options);
  for (UnitMatches& star : stars) {
    MatchSet translated(star.matches.arity());
    std::vector<VertexId> row(star.matches.arity());
    for (size_t r = 0; r < star.matches.NumMatches(); ++r) {
      const auto local = star.matches.Get(r);
      for (size_t i = 0; i < local.size(); ++i) row[i] = f.go.ToGk(local[i]);
      translated.Append(row);
    }
    star.matches = std::move(translated);
  }
  return stars;
}

/// Identity AVT (k = 1) over `num_vertices` ids — the join then runs a plain
/// natural join, which is what the hand-built edge-case tests want.
Avt IdentityAvt(uint32_t num_vertices) {
  Avt avt(1, num_vertices);
  for (uint32_t v = 0; v < num_vertices; ++v) avt.Place(v, 0, v);
  return avt;
}

/// Unit rows the join indexed: the sum of every step's build side (the
/// anchor, step 0, indexes nothing).
uint64_t IndexedRows(const JoinDiagnostics& diagnostics) {
  uint64_t rows = 0;
  for (const JoinStepProfile& step : diagnostics.steps) rows += step.build_rows;
  return rows;
}

/// Rows the join dropped as non-injective, summed over its steps.
uint64_t InjectivityDrops(const JoinDiagnostics& diagnostics) {
  uint64_t drops = 0;
  for (const JoinStepProfile& step : diagnostics.steps) {
    drops += step.injectivity_drops;
  }
  return drops;
}

UnitMatches MakeStar(std::vector<VertexId> columns,
                     const std::vector<std::vector<VertexId>>& rows) {
  UnitMatches star;
  star.center = columns[0];
  star.columns = std::move(columns);
  star.matches = MatchSet(star.columns.size());
  for (const auto& row : rows) star.matches.Append(row);
  return star;
}

TEST(MatchParallel, MatchStarsEquivalentAcrossThreadCounts) {
  const CloudFixture f = MakeFixture(3);
  Rng rng(91);
  for (int trial = 0; trial < 4; ++trial) {
    auto extracted = ExtractQuery(f.g, 3 + trial % 3, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = f.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());
    const std::vector<QueryUnit> units = PlanStars(f, *qo);
    ASSERT_FALSE(units.empty());

    const std::vector<UnitMatches> serial =
        MatchTranslated(f, *qo, units, 1);
    for (const size_t threads : {4u, 8u}) {
      const std::vector<UnitMatches> parallel =
          MatchTranslated(f, *qo, units, threads);
      ASSERT_EQ(parallel.size(), serial.size());
      for (size_t s = 0; s < serial.size(); ++s) {
        EXPECT_EQ(parallel[s].center, serial[s].center);
        EXPECT_EQ(parallel[s].columns, serial[s].columns);
        EXPECT_FALSE(parallel[s].truncated);
        EXPECT_TRUE(MatchSet::EquivalentUnordered(parallel[s].matches,
                                                  serial[s].matches))
            << "star " << s << " at " << threads << " threads";
      }
    }
  }
}

TEST(MatchParallel, JoinEquivalentAcrossThreadCounts) {
  const CloudFixture f = MakeFixture(3);
  Rng rng(92);
  size_t nonempty = 0;
  for (int trial = 0; trial < 6; ++trial) {
    auto extracted = ExtractQuery(f.g, 3 + trial % 4, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = f.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());
    const std::vector<QueryUnit> units = PlanStars(f, *qo);
    ASSERT_FALSE(units.empty());
    const std::vector<UnitMatches> stars =
        MatchTranslated(f, *qo, units, 1);

    JoinOptions serial_options;
    serial_options.num_threads = 1;
    auto serial =
        JoinUnitMatches(stars, f.kag.avt, qo->NumVertices(), serial_options);
    ASSERT_TRUE(serial.ok()) << serial.status();
    if (serial->NumMatches() > 0) ++nonempty;

    for (const size_t threads : {4u, 8u}) {
      JoinOptions options;
      options.num_threads = threads;
      auto parallel =
          JoinUnitMatches(stars, f.kag.avt, qo->NumVertices(), options);
      ASSERT_TRUE(parallel.ok()) << parallel.status();
      EXPECT_TRUE(MatchSet::EquivalentUnordered(*parallel, *serial))
          << "trial " << trial << " at " << threads << " threads: got "
          << parallel->NumMatches() << " want " << serial->NumMatches();
    }
  }
  EXPECT_GE(nonempty, 1u);  // The equivalence must not be vacuous.
}

TEST(MatchParallel, ProbeJoinMatchesEagerExpansion) {
  // The automorphism-aware probe must produce exactly the rows the eager
  // k-fold expansion produced, while hash-indexing only the un-expanded
  // star rows (that is the k-independent memory claim).
  for (const uint32_t k : {2u, 4u}) {
    const CloudFixture f = MakeFixture(k);
    Rng rng(93);
    for (int trial = 0; trial < 4; ++trial) {
      auto extracted = ExtractQuery(f.g, 3 + trial % 3, rng);
      ASSERT_TRUE(extracted.ok());
      auto qo = f.lct.AnonymizeGraph(extracted->query);
      ASSERT_TRUE(qo.ok());
      const std::vector<QueryUnit> units = PlanStars(f, *qo);
      ASSERT_FALSE(units.empty());
      const std::vector<UnitMatches> stars =
          MatchTranslated(f, *qo, units, 1);

      JoinDiagnostics eager_diag;
      auto eager_rin = join_oracle::EagerJoin(
          stars, f.kag.avt, qo->NumVertices(), JoinOptions{}, &eager_diag);
      ASSERT_TRUE(eager_rin.ok()) << eager_rin.status();

      JoinOptions probe;
      JoinDiagnostics probe_diag;
      auto probe_rin = JoinUnitMatches(stars, f.kag.avt, qo->NumVertices(),
                                       probe, &probe_diag);
      ASSERT_TRUE(probe_rin.ok()) << probe_rin.status();

      EXPECT_TRUE(MatchSet::EquivalentUnordered(*probe_rin, *eager_rin))
          << "k=" << k << " trial=" << trial;
      // The probe indexes each star once, un-expanded; eager indexes the
      // k-fold closure.
      EXPECT_LE(IndexedRows(probe_diag), IndexedRows(eager_diag));
      EXPECT_EQ(probe_diag.steps.size(), eager_diag.steps.size());
    }
  }
}

TEST(MatchParallel, JoinOutputIsAlreadyDeduplicated) {
  // The join no longer runs a global sort-dedup over Rin: rows must be
  // distinct by construction. Re-deduplicating a copy must not shrink it,
  // and the eager oracle, sorted, must be the same set in sorted order.
  const CloudFixture f = MakeFixture(3);
  Rng rng(95);
  size_t nonempty = 0;
  for (int trial = 0; trial < 6; ++trial) {
    auto extracted = ExtractQuery(f.g, 4 + trial % 3, rng);
    ASSERT_TRUE(extracted.ok());
    auto qo = f.lct.AnonymizeGraph(extracted->query);
    ASSERT_TRUE(qo.ok());
    const std::vector<QueryUnit> units = PlanStars(f, *qo);
    ASSERT_FALSE(units.empty());
    const std::vector<UnitMatches> stars =
        MatchTranslated(f, *qo, units, 1);

    JoinOptions options;
    options.num_threads = 4;
    auto rin = JoinUnitMatches(stars, f.kag.avt, qo->NumVertices(), options);
    ASSERT_TRUE(rin.ok()) << rin.status();
    if (rin->NumMatches() == 0) continue;
    ++nonempty;

    MatchSet deduped = *rin;
    deduped.SortDedup();
    EXPECT_EQ(deduped.NumMatches(), rin->NumMatches())
        << "trial " << trial << " emitted duplicate rows";

    auto sorted = join_oracle::EagerJoin(stars, f.kag.avt, qo->NumVertices(),
                                         options);
    ASSERT_TRUE(sorted.ok()) << sorted.status();
    sorted->SortDedup();
    EXPECT_TRUE(*sorted == deduped) << "trial " << trial;
  }
  EXPECT_GE(nonempty, 1u);
}

TEST(MatchParallel, JoinVerifiesRowsBehindEqualHashKeys) {
  // Many distinct shared values squeezed into a tiny domain: the star index
  // buckets collide heavily, so fabricating rows from a hash match without
  // the elementwise verification would disagree with the brute-force
  // reference join.
  const uint32_t domain = 12;
  const Avt avt = IdentityAvt(domain);
  Rng rng(94);
  std::vector<std::vector<VertexId>> a_rows;
  std::vector<std::vector<VertexId>> b_rows;
  for (int i = 0; i < 60; ++i) {
    const VertexId x = static_cast<VertexId>(rng.Below(domain));
    const VertexId y = static_cast<VertexId>(rng.Below(domain));
    if (x != y) a_rows.push_back({x, y});
  }
  for (int i = 0; i < 60; ++i) {
    const VertexId x = static_cast<VertexId>(rng.Below(domain));
    const VertexId y = static_cast<VertexId>(rng.Below(domain));
    if (x != y) b_rows.push_back({x, y});
  }
  const std::vector<UnitMatches> stars = {MakeStar({0, 1}, a_rows),
                                          MakeStar({1, 2}, b_rows)};

  MatchSet reference(3);
  for (const auto& a : a_rows) {
    for (const auto& b : b_rows) {
      if (a[1] != b[0]) continue;  // Shared query vertex 1.
      const std::vector<VertexId> row = {a[0], a[1], b[1]};
      if (MatchSet::HasDuplicateVertices(row)) continue;
      reference.Append(row);
    }
  }
  reference.SortDedup();

  for (const size_t threads : {1u, 4u}) {
    JoinOptions options;
    options.num_threads = threads;
    auto joined = JoinUnitMatches(stars, avt, 3, options);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_TRUE(MatchSet::EquivalentUnordered(*joined, reference))
        << "at " << threads << " threads: got " << joined->NumMatches()
        << " want " << reference.NumMatches();
  }
}

TEST(JoinIndex, BucketsYieldEqualKeysInRowOrder) {
  // 300 rows over a few hundred distinct keys, some repeated: 512 buckets
  // leave many buckets holding several keys. Filtering a bucket by key must
  // give exactly the rows of that key, ascending — what the map from key to
  // row list used to yield.
  Rng rng(96);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 300; ++i) keys.push_back(rng.Below(250) * 0x1000193ULL);
  std::map<uint64_t, std::vector<uint32_t>> reference;
  for (size_t r = 0; r < keys.size(); ++r) {
    reference[keys[r]].push_back(static_cast<uint32_t>(r));
  }
  const JoinIndex index(keys);
  size_t shared_buckets = 0;
  for (const auto& [key, rows] : reference) {
    std::vector<uint32_t> got;
    bool shared = false;
    for (const JoinIndex::Entry& entry : index.Candidates(key)) {
      if (entry.key == key) {
        got.push_back(entry.row);
      } else {
        shared = true;
      }
    }
    EXPECT_EQ(got, rows) << "key " << key;
    shared_buckets += shared;
  }
  EXPECT_GT(shared_buckets, 10u) << "too few keys share a bucket";
  const uint64_t absent = 7;  // Not a multiple of 0x1000193.
  for (const JoinIndex::Entry& entry : index.Candidates(absent)) {
    EXPECT_NE(entry.key, absent);
  }
  EXPECT_TRUE(JoinIndex(std::vector<uint64_t>{}).Candidates(1).empty());
}

TEST(MatchParallel, JoinWithCrowdedBucketsMatchesBruteForce) {
  // Two shared query vertices that sit in different column orders on the
  // two sides (0, 2 against 2, 0), a build side holding both (x, y) and
  // (y, x) under many distinct keys, and enough probe rows for four
  // chunks. Rows and their order must not depend on the thread count, and
  // the set must equal a brute-force natural join.
  const uint32_t domain = 40;
  const Avt avt = IdentityAvt(domain);
  Rng rng(97);
  std::vector<std::vector<VertexId>> a_rows;  // Columns 0, 1, 2.
  std::vector<std::vector<VertexId>> b_rows;  // Columns 2, 3, 0.
  while (a_rows.size() < 600) {
    const auto x = static_cast<VertexId>(rng.Below(domain));
    const auto y = static_cast<VertexId>(rng.Below(domain));
    const auto z = static_cast<VertexId>(rng.Below(domain));
    if (x != y && y != z && x != z) a_rows.push_back({x, y, z});
  }
  while (b_rows.size() < 800) {
    const auto x = static_cast<VertexId>(rng.Below(domain));
    const auto y = static_cast<VertexId>(rng.Below(domain));
    const auto w = static_cast<VertexId>(rng.Below(domain));
    if (x == y || w == x || w == y) continue;
    b_rows.push_back({x, w, y});
    b_rows.push_back({y, w, x});
  }
  const std::vector<UnitMatches> stars = {MakeStar({0, 1, 2}, a_rows),
                                          MakeStar({2, 3, 0}, b_rows)};

  MatchSet reference(4);
  for (const auto& a : a_rows) {
    for (const auto& b : b_rows) {
      if (a[0] != b[2] || a[2] != b[0]) continue;
      const std::vector<VertexId> row = {a[0], a[1], a[2], b[1]};
      if (!MatchSet::HasDuplicateVertices(row)) reference.Append(row);
    }
  }
  ASSERT_GT(reference.NumMatches(), 100u);

  std::optional<MatchSet> serial;
  for (const size_t threads : {1u, 4u}) {
    JoinOptions options;
    options.num_threads = threads;
    auto joined = JoinUnitMatches(stars, avt, 4, options);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_TRUE(MatchSet::EquivalentUnordered(*joined, reference))
        << "at " << threads << " threads: got " << joined->NumMatches()
        << " want " << reference.NumMatches();
    if (serial) {
      EXPECT_TRUE(*joined == *serial) << "row order depends on threads";
    } else {
      serial = *std::move(joined);
    }
  }
}

TEST(MatchParallel, JoinRejectsUnitRootOutsideBlockZero) {
  // Units are matched from B1 = AVT block 0 roots; that is what keeps the
  // expanded rows distinct. A unit whose root column names a block-1 vertex
  // must get Internal, never a row set that may repeat rows.
  Avt avt(2, 10);
  for (uint32_t r = 0; r < 10; ++r) {
    avt.Place(r, 0, r);
    avt.Place(r, 1, 10 + r);
  }
  const UnitMatches anchor = MakeStar({0, 1}, {{0, 1}});
  for (const bool in_block_zero : {true, false}) {
    const VertexId root = in_block_zero ? 4 : 14;
    const std::vector<UnitMatches> stars = {
        anchor, MakeStar({1, 2}, {{1, 2}, {root, 3}, {5, 6}})};
    for (const size_t threads : {1u, 4u}) {
      JoinOptions options;
      options.num_threads = threads;
      auto joined = JoinUnitMatches(stars, avt, 3, options);
      if (in_block_zero) {
        EXPECT_TRUE(joined.ok()) << joined.status();
      } else {
        ASSERT_FALSE(joined.ok());
        EXPECT_EQ(joined.status().code(), StatusCode::kInternal);
      }
    }
  }
}

TEST(MatchParallel, DisconnectedStarsFallBackToCrossProduct) {
  // No shared query vertex between the stars: the join must take the
  // cross-product path (and still apply the injectivity filter).
  const Avt avt = IdentityAvt(20);
  const std::vector<UnitMatches> stars = {
      MakeStar({0, 1}, {{0, 1}, {2, 3}}),
      MakeStar({2, 3}, {{4, 5}, {6, 7}, {8, 9}})};
  JoinDiagnostics diagnostics;
  JoinOptions options;
  auto joined = JoinUnitMatches(stars, avt, 4, options, &diagnostics);
  ASSERT_TRUE(joined.ok()) << joined.status();
  EXPECT_EQ(joined->NumMatches(), 6u);  // 2 x 3, all value-disjoint.
  EXPECT_EQ(diagnostics.steps.size(), 2u);  // The anchor plus one step.

  // Overlapping values: injectivity must prune the colliding combination.
  const std::vector<UnitMatches> overlapping = {
      MakeStar({0, 1}, {{0, 1}, {2, 3}}),
      MakeStar({2, 3}, {{1, 5}, {6, 7}})};
  JoinDiagnostics diag2;
  auto pruned = JoinUnitMatches(overlapping, avt, 4, options, &diag2);
  ASSERT_TRUE(pruned.ok());
  EXPECT_EQ(pruned->NumMatches(), 3u);  // (0,1)x(1,5) reuses vertex 1.
  EXPECT_EQ(InjectivityDrops(diag2), 1u);
}

TEST(MatchParallel, OverflowStillRecordsPeakRows) {
  // Regression: the overflow early-return used to skip the peak_rows
  // update, so exactly the runs that blew the cap under-reported their
  // peak as the (small) anchor size.
  const Avt avt = IdentityAvt(200);
  std::vector<std::vector<VertexId>> anchor_rows;
  for (VertexId i = 0; i < 10; ++i) {
    anchor_rows.push_back({2 * i, 2 * i + 1});
  }
  std::vector<std::vector<VertexId>> big_rows;
  for (VertexId j = 0; j < 20; ++j) {
    big_rows.push_back({100 + 2 * j, 101 + 2 * j});
  }
  const std::vector<UnitMatches> stars = {MakeStar({0, 1}, anchor_rows),
                                          MakeStar({2, 3}, big_rows)};
  JoinOptions options;
  options.max_rows = 50;  // Cross product is 200 rows; overflows.
  JoinDiagnostics diagnostics;
  auto joined = JoinUnitMatches(stars, avt, 4, options, &diagnostics);
  ASSERT_FALSE(joined.ok());
  EXPECT_TRUE(joined.status().code() == StatusCode::kResourceExhausted);
  EXPECT_EQ(diagnostics.peak_rows, options.max_rows);
  EXPECT_EQ(IndexedRows(diagnostics), big_rows.size());
}

TEST(MatchParallel, ZeroMatchAnchorSkipsAllJoinWork) {
  // An empty star empties the result; the join (and the eager oracle) must
  // return before hashing any other star.
  const Avt avt = IdentityAvt(20);
  const std::vector<UnitMatches> stars = {
      MakeStar({0, 1}, {}),
      MakeStar({1, 2}, {{1, 2}, {3, 4}, {5, 6}})};
  for (const bool eager : {false, true}) {
    JoinDiagnostics diagnostics;
    auto joined =
        eager ? join_oracle::EagerJoin(stars, avt, 3, {}, &diagnostics)
              : JoinUnitMatches(stars, avt, 3, {}, &diagnostics);
    ASSERT_TRUE(joined.ok()) << joined.status();
    EXPECT_EQ(joined->NumMatches(), 0u);
    EXPECT_EQ(IndexedRows(diagnostics), 0u);
    // Regression: the short-circuit used to return with an empty `steps`
    // trace, hiding WHICH star emptied the result from the flight recorder.
    // The anchor must still be on record as a terminal step 0.
    ASSERT_EQ(diagnostics.steps.size(), 1u);
    EXPECT_EQ(diagnostics.steps[0].step, 0u);
    EXPECT_EQ(diagnostics.steps[0].star_index, 0u);
    EXPECT_EQ(diagnostics.steps[0].output_rows, 0u);
  }
}

TEST(MatchParallel, StarRowCapIsExactAcrossThreadCounts) {
  // The shared atomic budget must admit exactly max_rows rows no matter how
  // many chunks race for the last slot.
  // Hub graph: a 2-leaf star rooted at the hub alone yields 199*198
  // assignments, far past any cap we set.
  GraphBuilder b;
  for (int i = 0; i < 200; ++i) b.AddVertex(0, {0});
  for (VertexId i = 1; i < 200; ++i) ASSERT_TRUE(b.AddEdge(0, i).ok());
  const AttributedGraph g = b.Build().value();
  const CloudIndex index = CloudIndex::Build(g, g.NumVertices(), 1, 1).value();
  GraphBuilder q;
  for (int i = 0; i < 3; ++i) q.AddVertex(0, {});
  ASSERT_TRUE(q.AddEdge(0, 1).ok());
  ASSERT_TRUE(q.AddEdge(0, 2).ok());
  const AttributedGraph qo = q.Build().value();

  const QueryUnit star = MakeStarUnit(qo, 0);
  const UnitMatches uncapped = MatchUnit(g, index, qo, star);
  ASSERT_GT(uncapped.matches.NumMatches(), 500u);
  for (const size_t threads : {1u, 4u, 8u}) {
    UnitMatchOptions options;
    options.max_rows = 137;
    options.num_threads = threads;
    const UnitMatches capped = MatchUnit(g, index, qo, star, options);
    EXPECT_EQ(capped.matches.NumMatches(), 137u) << threads << " threads";
    EXPECT_TRUE(capped.truncated);
  }
}

}  // namespace
}  // namespace ppsm
